"""Scale cases outside the benchmark's sizes, each in a child process of its
own under a memory limit and a timeout.

    python3 scripts/scale.py [--src DIR] [--timeout S] [--memory-mb MB] [CASE ...]

Each case prints one line, `CASE STATUS WALL_S PEAK_MB LPS SHA256 DETAIL`:
STATUS is ok, timeout or error; WALL_S the seconds the solves took in the
child (imports excluded; the timeout on a timeout); PEAK_MB the child's
peak resident set size in MiB (its ru_maxrss, imports included; - where it
printed none); LPS the number of `solve_lp` calls; SHA256 the first 16 hex
digits of a hash over every result (value, certificate and solution, or
the error raised).  Once every line is printed, the script exits 1 if any
case's STATUS is not ok, else 0, so a check needs only its exit code.
Comparing two source trees is one `diff` of their outputs with the WALL_S
and PEAK_MB columns cut; pass --src to import the package from another
tree (default: ./src next to this script):

    diff <(python3 scripts/scale.py | cut -d' ' -f1,2,5-) \
         <(python3 scripts/scale.py --src OTHER/src | cut -d' ' -f1,2,5-)

The cases take minutes in all, so no test suite runs this script.

The cases (Top-(2,1) and eps 0.1 unless named otherwise):
  knapsack-20x20-s0 .. s4   gen_knapsack_cluster(seed, 20, 20)
  knapsack-ordered-14x14-s0 .. s3
                            gen_knapsack_cluster(seed, 14, 14) at max-ordered
                            weights ((1, 0.5, 0.25), (0.75, 0.75))
  knapsack-ordered-20x20-eps005
                            gen_knapsack_cluster(0, 20, 20) at the same
                            max-ordered weights, eps 0.05
  topk-100x100-s0, s1       gen_cluster(seed, 100, 100), solve_topl_kcenter
  makespan-ordered-10x300, makespan-ordered-10x1000
                            gen_load(0, machines=10, jobs=300 or 1000, pmax=10,
                            forbidden=0.1), solve_ordered_makespan at weights
                            ((1, 0.5, 0.25, 0.125), (2, 0.5))
  makespan-top-10x2000      gen_load(0, machines=10, jobs=2000, pmax=10,
                            forbidden=0.1), solve_topl_makespan (the count
                            test's placement over thousands of jobs)
  makespan-top-30x3000      gen_load(0, machines=30, jobs=3000, pmax=100,
                            forbidden=0.1), solve_topl_makespan (guess LPs
                            with thousands of free jobs)
  makespan-top-60x10000     gen_load(0, machines=60, jobs=10000),
                            solve_topl_makespan: about 860 MiB at its peak,
                            most of its time and memory in the Shmoys-Tardos
                            rounding's dense matching, so no CI step runs it
  fair-float-caps           gen_fair_load(seed, 2 + seed % 3, 4) with caps
                            round(0.7 e + 0.3, 1) passed as floats, at
                            Top-(1 + seed % 2, 1), seeds 0-39; DETAIL counts
                            the outcomes
  fair-float-targets        gen_fair_cluster(seed, 2 + seed % 3, 4, k=2) with
                            targets round(0.7 e + 0.3, 1) passed as floats, at
                            Top-(1 + seed % 2, 1), seeds 0-29; DETAIL counts
                            the outcomes
"""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path


def _knapsack(seed):
    from maxnorm import generators, solve_knapsack_center, top_norm

    kinst = generators.gen_knapsack_cluster(seed, 20, 20)
    return [lambda: solve_knapsack_center(kinst, top_norm(2, 1.0), 0.1)]


def _knapsack_ordered(seed, size=14, eps=0.1):
    from maxnorm import generators, max_ordered_norm, solve_knapsack_center

    kinst = generators.gen_knapsack_cluster(seed, size, size)
    norm = max_ordered_norm(((1, 0.5, 0.25), (0.75, 0.75)))
    return [lambda: solve_knapsack_center(kinst, norm, eps)]


def _topk(seed):
    from maxnorm import generators, solve_topl_kcenter

    inst = generators.gen_cluster(seed, 100, 100)
    return [lambda: solve_topl_kcenter(inst, 2, 1.0, 0.1)]


def _makespan_ordered(jobs):
    from maxnorm import generators, solve_ordered_makespan

    inst = generators.gen_load(0, machines=10, jobs=jobs, pmax=10, forbidden=0.1)
    return [lambda: solve_ordered_makespan(inst, ((1, 0.5, 0.25, 0.125), (2, 0.5)), 0.1)]


def _makespan_top(machines, jobs, pmax, forbidden=0.1):
    from maxnorm import generators, solve_topl_makespan

    inst = generators.gen_load(0, machines=machines, jobs=jobs, pmax=pmax, forbidden=forbidden)
    return [lambda: solve_topl_makespan(inst, 2, 1.0, 0.1)]


def _fair_float_caps():
    from maxnorm import generators, solve_fair, top_norm
    from maxnorm.instances import FairLoadInstance

    solves = []
    for seed in range(40):
        base = generators.gen_fair_load(seed, 2 + seed % 3, 4)
        caps = tuple(round(0.7 * float(e) + 0.3, 1) for e in base.e)
        finst = FairLoadInstance(base=base.base, e=caps)
        solves.append(lambda finst=finst, ell=1 + seed % 2:
                      solve_fair(finst, top_norm(ell, 1.0), 0.1))
    return solves


def _fair_float_targets():
    from maxnorm import generators, solve_fair, top_norm
    from maxnorm.instances import FairClusterInstance

    solves = []
    for seed in range(30):
        base = generators.gen_fair_cluster(seed, 2 + seed % 3, 4, k=2)
        targets = tuple(round(0.7 * float(e) + 0.3, 1) for e in base.e)
        finst = FairClusterInstance(base=base.base, e=targets)
        solves.append(lambda finst=finst, ell=1 + seed % 2:
                      solve_fair(finst, top_norm(ell, 1.0), 0.1))
    return solves


CASES = {
    **{f"knapsack-20x20-s{s}": lambda s=s: _knapsack(s) for s in range(5)},
    **{f"knapsack-ordered-14x14-s{s}": lambda s=s: _knapsack_ordered(s) for s in range(4)},
    "knapsack-ordered-20x20-eps005": lambda: _knapsack_ordered(0, 20, 0.05),
    **{f"topk-100x100-s{s}": lambda s=s: _topk(s) for s in range(2)},
    **{f"makespan-ordered-10x{jobs}": lambda jobs=jobs: _makespan_ordered(jobs)
       for jobs in (300, 1000)},
    "makespan-top-10x2000": lambda: _makespan_top(10, 2000, 10),
    "makespan-top-30x3000": lambda: _makespan_top(30, 3000, 100),
    "makespan-top-60x10000": lambda: _makespan_top(60, 10000, 10, forbidden=0.0),
    "fair-float-caps": _fair_float_caps,
    "fair-float-targets": _fair_float_targets,
}


def _describe(result):
    """What a solve returned, as plain values."""
    if hasattr(result, "distribution"):
        return (result.bound, result.distribution)
    if hasattr(result, "assignment"):
        return (result.value, result.certificate, result.assignment)
    return (result.value, result.certificate, result.solution)


def run_child(name):
    """Run one case here and print its JSON outcome line."""
    from maxnorm import lp
    from maxnorm.errors import MaxNormError

    calls = [0]
    solve = lp.solve_lp

    def counted(model):
        calls[0] += 1
        return solve(model)

    for mod in list(sys.modules.values()):  # every module that bound solve_lp by name
        if getattr(mod, "__name__", "").startswith("maxnorm") and \
                getattr(mod, "solve_lp", None) is solve:
            mod.solve_lp = counted
    solves = CASES[name]()
    digest, outcomes = hashlib.sha256(), Counter()
    start = time.perf_counter()
    for run in solves:
        try:
            text = repr(_describe(run()))
            outcomes["solved"] += 1
        except MaxNormError as exc:
            text = repr((type(exc).__name__, str(exc)))
            outcomes[type(exc).__name__] += 1
        digest.update((text + "\n").encode())
    wall = time.perf_counter() - start
    detail = " ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({"wall": wall, "peak_mb": peak_kib / 1024, "lps": calls[0],
                      "sha": digest.hexdigest()[:16], "detail": detail}))


def run_case(name, src, timeout, memory_mb):
    """One case in a child process: its printed line's fields."""
    limit = memory_mb << 20
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    try:
        proc = subprocess.run([sys.executable, __file__, "--child", name, "--src", src],
                              env=env, capture_output=True, text=True, timeout=timeout,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                    (limit, limit)))
    except subprocess.TimeoutExpired:
        return "timeout", f"{timeout:.1f}", "-", "-", "-", "-"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return "error", "-", "-", "-", "-", last
    out = json.loads(lines[-1])
    return ("ok", f"{out['wall']:.2f}", f"{out['peak_mb']:.1f}", str(out["lps"]), out["sha"],
            out["detail"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("cases", nargs="*", help=f"cases to run (default: all): {', '.join(CASES)}")
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="directory the maxnorm package is imported from")
    ap.add_argument("--timeout", type=float, default=300.0, help="seconds per case")
    ap.add_argument("--memory-mb", type=int, default=2048, help="address-space limit per case")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    src = str(Path(args.src).resolve())
    if args.child:
        sys.path.insert(0, src)
        run_child(args.child)
        return
    unknown = [name for name in args.cases if name not in CASES]
    if unknown:
        ap.error(f"unknown cases: {', '.join(unknown)}")
    failed = False
    for name in args.cases or CASES:
        fields = run_case(name, src, args.timeout, args.memory_mb)
        print(name, *fields, flush=True)
        failed |= fields[0] != "ok"
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
