"""Byte-identity corpus for the CLI: `solve` and `fair-solve` over fixed
generated instances, run in-process through maxnorm.cli.main.

    python3 scripts/cli_corpus.py [--src DIR] > corpus.txt

Each run prints one line, `EXIT SHA256 ARGV`, where SHA256 hashes what the
run wrote to stdout and stderr, and the last line is a digest over every
run line.  Comparing two source trees is one `diff` of their outputs; pass
--src to import the package from another tree (default: ./src next to this
script).  A changed exit code shows in the diff like a changed byte.

The corpus: `solve` on load, cluster, matroid and knapsack instances,
seeds 0-9, with topl:1:1, topl:2:2 and one max-ordered norm file;
`fair-solve` on fair-load and fair-cluster instances, seeds 0-9, with
topl:1:1 and topl:2:1.  Every generated size is at least 1.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SEEDS = range(10)
SOLVE_NORMS = ("topl:1:1", "topl:2:2", "maxordered:weights.json")
FAIR_NORMS = ("topl:1:1", "topl:2:1")
WEIGHTS = {"weights": [[1.0, 0.5, 0.25], [0.75, 0.75]]}


def instances(gen):
    """(file name, command, norms, encoded instance) per corpus instance."""
    for seed in SEEDS:
        yield (f"load-{seed}.json", "solve", SOLVE_NORMS,
               gen.gen_load(seed, machines=4, jobs=8, forbidden=0.2))
        yield (f"cluster-{seed}.json", "solve", SOLVE_NORMS,
               gen.gen_cluster(seed, clients=6, facilities=6, k=3, coverage=5))
        yield (f"matroid-{seed}.json", "solve", SOLVE_NORMS,
               gen.gen_matroid_cluster(seed, clients=5, facilities=6, parts=2))
        yield (f"knapsack-{seed}.json", "solve", SOLVE_NORMS,
               gen.gen_knapsack_cluster(seed, clients=5, facilities=5))
        yield (f"fair-load-{seed}.json", "fair-solve", FAIR_NORMS,
               gen.gen_fair_load(seed, machines=3, jobs=5))
        yield (f"fair-cluster-{seed}.json", "fair-solve", FAIR_NORMS,
               gen.gen_fair_cluster(seed, clients=4, facilities=5, k=2))


def run(main, argv):
    """(exit code, sha256 of stdout then stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    digest = hashlib.sha256((out.getvalue() + "\0" + err.getvalue()).encode()).hexdigest()
    return code, digest


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory the maxnorm package is imported from")
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from maxnorm import cli, fileio, generators

    total = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative file names keep each argv the same from run to run
        try:
            with open("weights.json", "w", encoding="utf-8") as fh:
                json.dump(WEIGHTS, fh)
            for name, command, norms, inst in instances(generators):
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write(fileio.dumps(fileio.encode_instance(inst)))
                for norm in norms:
                    argv = [command, name, "--norm", norm]
                    code, digest = run(cli.main, argv)
                    line = f"{code} {digest} {' '.join(argv)}"
                    total.update((line + "\n").encode())
                    print(line, flush=True)
        finally:
            os.chdir(cwd)
    print(f"digest {total.hexdigest()}")


if __name__ == "__main__":
    main()
