import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maxnorm.cli import main
from maxnorm import cli, fileio
from maxnorm.cluster import solve_matroid_center, solve_ordered_kcenter, solve_topl_kcenter
from maxnorm.generators import gen_cluster, gen_fair_cluster, gen_knapsack_cluster, \
    gen_matroid_cluster
from maxnorm.errors import InvalidInputError
from maxnorm.instances import ClusterInstance, KnapsackClusterInstance, MatroidClusterInstance
from maxnorm.norms import max_ordered_norm, top_norm

def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "load", "--machines", "2", "--jobs", "3", "--seed", "7",
                 "--out", str(a)]) == 0
    assert main(["gen", "load", "--machines", "2", "--jobs", "3", "--seed", "7",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["kind"] == "load" and len(data["p"]) == 2


def test_gen_cluster_metric_is_valid(tmp_path):
    path = tmp_path / "c.json"
    assert main(["gen", "cluster", "--clients", "4", "--facilities", "5",
                 "--seed", "3", "--out", str(path)]) == 0
    inst = fileio.decode_instance(json.loads(path.read_text()))  # validates metric
    assert inst.n_clients == 4 and inst.n_facilities == 5


def test_gen_tightness(tmp_path):
    path = tmp_path / "t.json"
    assert main(["gen", "tightness", "--t", "4", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    w = [float(v) for v in data["weights"]]
    assert len(w) == 16 and w[0] == 1.0
    assert all(a >= b for a, b in zip(w, w[1:]))


def test_solve_roundtrip(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "load", "--machines", "2", "--jobs", "4", "--seed", "5",
          "--out", str(inst_path)])
    code, out, _ = _run(["solve", str(inst_path), "--norm", "topl:2:1",
                         "--eps", "0.1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "solve-result"
    sol = fileio.decode_solution(payload["solution"])
    inst = fileio.decode_instance(json.loads(inst_path.read_text()))
    from maxnorm.instances import eval_load_objective
    from maxnorm.norms import top_norm

    assert repr(eval_load_objective(inst, top_norm(2, 1), sol)) == payload["value"]


def test_solve_maxordered_norm_file(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    norm_path = tmp_path / "norm.json"
    main(["gen", "load", "--machines", "2", "--jobs", "3", "--seed", "2",
          "--out", str(inst_path)])
    norm_path.write_text(json.dumps({"weights": [[1.0, 0.5, 0.25]]}))
    code, out, _ = _run(["solve", str(inst_path), "--norm",
                         f"maxordered:{norm_path}"], capsys)
    assert code == 0
    assert json.loads(out)["norm"]["kind"] == "maxordered"


def test_ordered_certificate_prints_plain_floats(tmp_path, capsys):
    """Ordered certificates hold NumPy floats; solve and compare print them as
    Python float reprs, e.g. "30.0" rather than "np.float64(30.0)"."""
    inst_path = tmp_path / "inst.json"
    norm_path = tmp_path / "norm.json"
    main(["gen", "load", "--machines", "4", "--jobs", "9", "--seed", "3",
          "--out", str(inst_path)])
    norm_path.write_text(json.dumps({"weights": [[1, 0.5, 0.25]]}))
    code, out, _ = _run(["solve", str(inst_path), "--norm", f"maxordered:{norm_path}"],
                        capsys)
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["chain_bound"] == "30.0" and cert["gap"] == "3.0"
    assert "np." not in out
    rows = tmp_path / "rows.csv"
    assert main(["compare", "--kind", "load", "--seeds", "0:2", "--norm",
                 f"maxordered:{norm_path}", "--machines", "2", "--jobs", "4",
                 "--out", str(rows)]) == 0
    lines = rows.read_text().strip().splitlines()
    assert [line.split(",")[4] for line in lines] == ["bound", "30.0", "75.0"]


def test_solve_matroid_and_knapsack_files(tmp_path, capsys):
    minst = gen_matroid_cluster(1, clients=2, facilities=3, parts=2)
    mpath = tmp_path / "m.json"
    mpath.write_text(fileio.dumps(fileio.encode_instance(minst)))
    code, out, _ = _run(["solve", str(mpath), "--norm", "topl:1:1"], capsys)
    assert code == 0
    kinst = gen_knapsack_cluster(2, clients=2, facilities=3)
    kpath = tmp_path / "k.json"
    kpath.write_text(fileio.dumps(fileio.encode_instance(kinst)))
    code, out, _ = _run(["solve", str(kpath), "--norm", "topl:1:1",
                         "--eps", "0.25"], capsys)
    assert code == 0


def test_infeasible_instance_exit_code(tmp_path, capsys):
    inst = gen_cluster(0, clients=2, facilities=3, k=1)
    data = fileio.encode_instance(inst)
    data["l"] = [2] * inst.n_clients  # l_j > k: unsatisfiable
    data["r"] = [3] * inst.n_clients
    data["m"] = 0
    path = tmp_path / "bad.json"
    path.write_text(fileio.dumps(data))
    code, _, err = _run(["solve", str(path), "--norm", "topl:1:1"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "infeasible"


def test_invalid_input_exit_code(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{\"kind\": \"nope\"}")
    code, _, err = _run(["solve", str(path), "--norm", "topl:1:1"], capsys)
    assert code == 3
    code, _, err = _run(["solve", str(path), "--norm", "weird:1"], capsys)
    assert code == 3
    # valid JSON of the wrong shape
    for text in ('{"kind": "load", "p": 5}', '{"kind": "cluster"}', '[1, 2]'):
        path.write_text(text)
        code, _, err = _run(["solve", str(path), "--norm", "topl:1:1"], capsys)
        assert code == 3
        assert json.loads(err)["error"] == "invalid-input"
    inst_path, norm_path = tmp_path / "inst.json", tmp_path / "norm.json"
    main(["gen", "load", "--seed", "1", "--out", str(inst_path)])
    for text in ('{"weights": 5}', '[1]'):
        norm_path.write_text(text)
        code, _, err = _run(["solve", str(inst_path), "--norm", f"maxordered:{norm_path}"],
                            capsys)
        assert code == 3
        assert json.loads(err)["error"] == "invalid-input"


def test_nan_norm_parameter_exits_invalid(tmp_path):
    """A NaN q once sent the bound grid into an endless loop; run it in a
    child process with capped memory and time."""
    inst_path = tmp_path / "inst.json"
    main(["gen", "load", "--machines", "2", "--jobs", "3", "--seed", "1",
          "--out", str(inst_path)])
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
             "from maxnorm.cli import main\n"
             f"sys.exit(main(['solve', {str(inst_path)!r}, '--norm', 'topl:1:nan']))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stderr)["error"] == "invalid-input"


def test_vanishing_or_tiny_eps_exits_before_the_grid_grows(tmp_path):
    """With 1.0 + eps == 1.0 the bound grid never grew, and a tiny eps asks
    for billions of points; run both in a child process with capped memory
    and time.  The first is invalid input, the second a resource cap."""
    inst_path = tmp_path / "inst.json"
    main(["gen", "load", "--machines", "2", "--jobs", "3", "--seed", "1",
          "--out", str(inst_path)])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    for eps, code, error in (("1e-300", 3, "invalid-input"), ("1e-9", 4, "resource-cap")):
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
                 "from maxnorm.cli import main\n"
                 f"sys.exit(main(['solve', {str(inst_path)!r}, '--norm', 'topl:1:1',"
                 f" '--eps', {eps!r}]))\n")
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert json.loads(proc.stderr)["error"] == error


def test_resource_cap_exit_code(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "load", "--machines", "3", "--jobs", "6", "--seed", "1",
          "--out", str(inst_path)])
    code, _, err = _run(["oracle", str(inst_path), "--norm", "topl:1:1",
                         "--cap", "10"], capsys)
    assert code == 4
    assert json.loads(err)["error"] == "resource-cap"


def test_ordered_makespan_past_the_sequence_cap_exits_resource_cap(tmp_path):
    """5,000 jobs give 10.4 million threshold sequences per radius, which
    once meant as many objects for one radius.  The count is checked first:
    exit 4 well within a second, in a child process with capped memory."""
    inst_path, norm_path = tmp_path / "inst.json", tmp_path / "norm.json"
    main(["gen", "load", "--machines", "2", "--jobs", "5000", "--seed", "1",
          "--out", str(inst_path)])
    norm_path.write_text(json.dumps({"weights": [[1.0, 0.5, 0.25]]}))
    child = ("import resource, sys, time\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
             "from maxnorm.cli import main\n"
             "start = time.perf_counter()\n"
             f"code = main(['solve', {str(inst_path)!r}, '--norm', 'maxordered:{norm_path}'])\n"
             "print(time.perf_counter() - start)\n"
             "sys.exit(code)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert json.loads(proc.stderr)["error"] == "resource-cap"
    assert float(proc.stdout) < 1.0


def test_solver_error_exit_code(tmp_path, capsys, monkeypatch):
    from maxnorm import cluster, load
    from maxnorm.errors import LpSolverError, SolverInternalError

    def failing(error):
        def solve_lp(model):
            raise error("planted failure")
        return solve_lp

    load_path, cluster_path = tmp_path / "load.json", tmp_path / "cluster.json"
    main(["gen", "load", "--machines", "2", "--jobs", "3", "--seed", "1",
          "--out", str(load_path)])
    main(["gen", "cluster", "--clients", "3", "--facilities", "4", "--seed", "1",
          "--out", str(cluster_path)])
    monkeypatch.setattr(load, "solve_lp", failing(LpSolverError))
    monkeypatch.setattr(cluster, "solve_lp", failing(SolverInternalError))
    for path in (load_path, cluster_path):
        code, out, err = _run(["solve", str(path), "--norm", "topl:1:1"], capsys)
        assert code == 5 and out == ""
        assert json.loads(err) == {"error": "solver-error", "detail": "planted failure"}


def test_compare_csv(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["compare", "--kind", "load", "--seeds", "0:6", "--norm", "topl:2:1",
                 "--eps", "0.1", "--machines", "2", "--jobs", "4",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("seed,opt,achieved,ratio")
    assert len(lines) == 7
    for line in lines[1:]:
        ratio = float(line.split(",")[3])
        assert ratio <= 4.1


def test_compare_caps_its_workers(tmp_path, monkeypatch):
    """A pool started by fork launches every worker at its first submit, so
    compare asks for at most one worker per seed and per CPU, and none for
    one; the rows come out as without a pool."""
    pools = []

    class Inline:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Inline)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    texts = []
    for seeds, threads in (("0:2", 1), ("0:2", 8), ("0:5", 8), ("0:1", 8), ("0:5", 2)):
        out = tmp_path / f"rows-{seeds}-{threads}.csv"
        assert main(["compare", "--kind", "load", "--seeds", seeds, "--norm", "topl:1:1",
                     "--machines", "2", "--jobs", "3", "--threads", str(threads),
                     "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert pools == [2, 3, 2]
    assert texts[1] == texts[0] and texts[4] == texts[2]
    assert texts[2].startswith(texts[0]) and len(texts[2].splitlines()) == 6


def test_fair_solve_and_sample(tmp_path, capsys):
    inst_path = tmp_path / "fair.json"
    main(["gen", "fair-load", "--machines", "2", "--jobs", "2", "--seed", "1",
          "--out", str(inst_path)])
    dist_path = tmp_path / "dist.json"
    assert main(["fair-solve", str(inst_path), "--norm", "topl:1:1",
                 "--out", str(dist_path)]) == 0
    dist = fileio.decode_distribution(json.loads(dist_path.read_text()))
    assert math.isclose(float(sum(dist.weights)), 1.0)
    code, out, _ = _run(["sample", str(dist_path), "--n", "4000", "--seed", "9"],
                        capsys)
    assert code == 0
    report = json.loads(out)
    n = report["n"]
    for w, count in zip(dist.weights, report["counts"]):
        p = float(w)
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(count / n - p) <= 3 * sigma + 1e-9


def test_sample_reproducibility(tmp_path, capsys):
    inst_path = tmp_path / "fair.json"
    main(["gen", "fair-load", "--machines", "2", "--jobs", "2", "--seed", "4",
          "--out", str(inst_path)])
    dist_path = tmp_path / "dist.json"
    main(["fair-solve", str(inst_path), "--norm", "topl:1:1", "--out", str(dist_path)])
    a1, _, _ = _run(["sample", str(dist_path), "--n", "100", "--seed", "5"],
                    capsys)[1], None, None
    a2 = _run(["sample", str(dist_path), "--n", "100", "--seed", "5"], capsys)[1]
    assert a1 == a2


def test_sample_rejects_fewer_than_one_draw(tmp_path, capsys):
    """--n 0 once divided by zero and --n -2 printed frequencies of -0.0."""
    inst_path = tmp_path / "fair.json"
    main(["gen", "fair-load", "--machines", "2", "--jobs", "2", "--seed", "4",
          "--out", str(inst_path)])
    dist_path = tmp_path / "dist.json"
    main(["fair-solve", str(inst_path), "--norm", "topl:1:1", "--out", str(dist_path)])
    for n in ("0", "-2"):
        code, out, err = _run(["sample", str(dist_path), "--n", n, "--seed", "5"], capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "invalid-input"


@pytest.mark.parametrize("command", ["sample", "fair-solve"])
def test_zero_denominators_exit_invalid(tmp_path, capsys, command):
    """A rational with a zero denominator, a distribution weight
    {"num": 1, "den": 0} for sample or a fairness target "1/0" for
    fair-solve, once escaped main as a ZeroDivisionError from the decoder
    (exit 1, a traceback)."""
    inst_path = tmp_path / "fair.json"
    main(["gen", "fair-load", "--machines", "2", "--jobs", "2", "--seed", "4",
          "--out", str(inst_path)])
    if command == "sample":
        path = tmp_path / "dist.json"
        main(["fair-solve", str(inst_path), "--norm", "topl:1:1", "--out", str(path)])
        data = json.loads(path.read_text())
        data["lambda"][0] = {"num": 1, "den": 0}
        argv = ["sample", str(path), "--n", "10"]
    else:
        path, data = inst_path, json.loads(inst_path.read_text())
        data["e"][0] = "1/0"
        argv = ["fair-solve", str(path), "--norm", "topl:1:1"]
    path.write_text(json.dumps(data))
    code, out, err = _run(argv, capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "invalid-input"


def test_sample_past_its_cap_exits_resource_cap(tmp_path):
    """Without a cap --n 10^8 did not finish; run in a child process with
    capped memory and time."""
    inst_path, dist_path = tmp_path / "fair.json", tmp_path / "dist.json"
    main(["gen", "fair-load", "--machines", "3", "--jobs", "4", "--seed", "2",
          "--out", str(inst_path)])
    main(["fair-solve", str(inst_path), "--norm", "topl:1:1", "--out", str(dist_path)])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    for n in ("10000001", "100000000"):
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
                 "from maxnorm.cli import main\n"
                 f"sys.exit(main(['sample', {str(dist_path)!r}, '--n', {n!r}, '--seed', '1']))\n")
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 4, proc.stderr
        assert json.loads(proc.stderr)["error"] == "resource-cap" and proc.stdout == ""


def test_gen_tightness_past_its_cap_exits_resource_cap(tmp_path):
    """The family has 2^t weights; past 2^20 of them gen stops with a
    resource cap.  Run in a child process with capped memory and time, since
    without the cap t = 40 does not finish."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    for t in ("21", "40"):
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
                 "from maxnorm.cli import main\n"
                 f"sys.exit(main(['gen', 'tightness', '--t', {t!r},"
                 f" '--out', {str(tmp_path / 't.json')!r}]))\n")
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 4, proc.stderr
        assert json.loads(proc.stderr)["error"] == "resource-cap"
        assert not (tmp_path / "t.json").exists()


def test_fileio_roundtrips_every_variant(tmp_path):
    from maxnorm.generators import gen_fair_load, gen_load

    for inst in [gen_load(3, machines=2, jobs=3, forbidden=0.3),
                 gen_fair_load(4, machines=3, jobs=2),
                 gen_cluster(5, clients=2, facilities=3),
                 gen_fair_cluster(6, clients=2, facilities=3, k=2),
                 gen_matroid_cluster(7, clients=2, facilities=4, parts=2),
                 gen_knapsack_cluster(8, clients=2, facilities=3)]:
        first = fileio.dumps(fileio.encode_instance(inst))
        again = fileio.dumps(fileio.encode_instance(
            fileio.decode_instance(json.loads(first))))
        assert first == again


def test_instance_threshold_candidates_dispatch():
    from maxnorm.generators import gen_load
    from _threshold_helpers import instance_threshold_candidates

    load = gen_load(1, machines=2, jobs=2)
    assert 0.0 in instance_threshold_candidates(load)
    cluster = gen_cluster(1, clients=2, facilities=2)
    cands = instance_threshold_candidates(cluster)
    assert cands == sorted(set(cands))


def test_fair_cluster_roundtrip(tmp_path, capsys):
    finst = gen_fair_cluster(3, clients=2, facilities=3, k=2)
    path = tmp_path / "fc.json"
    path.write_text(fileio.dumps(fileio.encode_instance(finst)))
    code, out, _ = _run(["fair-solve", str(path), "--norm", "topl:1:1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["problem"] == "center"


def test_solvers_run_without_networkx():
    """Block networkx in a child process; importing maxnorm and solving a
    Top k-center, a matroid and a fair-center instance must not need it.
    Each solve opens its bundles at least once."""
    child = ("import sys\n"
             "sys.modules['networkx'] = None\n"
             "import maxnorm\n"
             "from maxnorm import bundlelp, generators as g\n"
             "calls = []\n"
             "flow = bundlelp._bundle_flow\n"
             "bundlelp._bundle_flow = lambda *a: calls.append(1) or flow(*a)\n"
             "maxnorm.solve_topl_kcenter(g.gen_cluster(2, 5, 5, k=2), 2, 1.0, 0.1)\n"
             "print(len(calls))\n"
             "maxnorm.solve_matroid_center(g.gen_matroid_cluster(2, 5, 5),"
             " maxnorm.top_norm(1, 1.0), 0.1)\n"
             "print(len(calls))\n"
             "maxnorm.solve_fair(g.gen_fair_cluster(2, 3, 4, k=2), maxnorm.top_norm(1, 1.0), 0.1)\n"
             "print(len(calls))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = [int(v) for v in proc.stdout.split()]
    assert 0 < counts[0] < counts[1] < counts[2], counts


def test_solve_zero_size_makespan_exits_zero(tmp_path, capsys):
    inst = tmp_path / "zero.json"
    inst.write_text(json.dumps({"kind": "load", "machines": 2, "jobs": 2,
                                "p": [[0, 2], [3, 0]]}))
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"weights": [[1.0, 0.5]]}))
    for norm in ("topl:1:1", f"maxordered:{weights}"):
        code, out, _ = _run(["solve", str(inst), "--norm", norm], capsys)
        assert code == 0
        assert json.loads(out)["value"] == "0.0"


@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_non_finite_knapsack_budget_exits_invalid(tmp_path, capsys, budget):
    """A NaN budget once exited 2 (infeasible) and an infinite one 5 (a
    non-finite LP coefficient)."""
    kinst = gen_knapsack_cluster(2, clients=2, facilities=3)
    with pytest.raises(InvalidInputError, match="budget"):
        dataclasses.replace(kinst, budget=float(budget))
    data = fileio.encode_instance(kinst)
    data["W"] = budget
    path = tmp_path / "k.json"
    path.write_text(fileio.dumps(data))
    code, out, err = _run(["solve", str(path), "--norm", "topl:1:1", "--eps", "0.25"], capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "invalid-input"


def _bumped(data, field, index, frac):
    """A copy of an encoded instance with one entry of a field (the field
    itself where index is empty) raised by frac."""
    out = json.loads(json.dumps(data))
    if not index:
        out[field] += frac
        return out
    row = functools.reduce(lambda seq, i: seq[i], index[:-1], out[field])
    row[index[-1]] += frac
    return out


@pytest.mark.parametrize("field, index", [
    ("k", ()), ("m", ()), ("l", (0,)), ("r", (0,)), ("capacities", (0,)), ("parts", (1, 0)),
    ("clients", ()), ("facilities", ()),
], ids=["k", "m", "l", "r", "capacity", "part-id", "clients", "facilities"])
def test_non_integral_counts_exit_invalid(tmp_path, capsys, field, index):
    """A count, size or part id past a whole number by a fraction was once
    truncated (exit 0); it now exits 3, from the constructor and through the
    decoder, while the same whole number written as a float (3.0) solves to
    the same output."""
    minst = gen_matroid_cluster(1, clients=2, facilities=3, parts=2)
    data = fileio.encode_instance(minst)
    path = tmp_path / "m.json"
    runs = {}
    for frac in (None, 0.0, 0.5):
        path.write_text(json.dumps(data if frac is None else _bumped(data, field, index, frac)))
        runs[frac] = _run(["solve", str(path), "--norm", "topl:1:1"], capsys)
    assert runs[None][0] == 0 and runs[0.0] == runs[None]
    code, out, err = runs[0.5]
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "invalid-input"
    target = minst if field in ("capacities", "parts") else minst.base
    attr = {"clients": "n_clients", "facilities": "n_facilities"}.get(field, field)
    with pytest.raises(InvalidInputError, match="whole number"):
        dataclasses.replace(target, **{attr: _bumped(data, field, index, 0.5)[field]})


@pytest.mark.parametrize("eps", ["nan", "-1", "0", "inf"])
def test_center_solvers_reject_eps_outside_the_positive_reals(tmp_path, capsys, eps):
    """On an instance whose distances are all 0 the scans build no bound
    grid, so an eps that is not positive and finite went unchecked: the
    Top, ordered and matroid k-center solvers returned value 0.0 and the
    CLI exited 0.  Each now raises InvalidInputError, and the CLI exits 3."""
    base = ClusterInstance(n_clients=1, n_facilities=2, d=np.zeros((3, 3)), k=1, m=1,
                           l=[1], r=[1])
    minst = MatroidClusterInstance(base=base, parts=((0, 1),), capacities=(1,))
    solves = [lambda e: solve_topl_kcenter(base, 1, 1.0, e),
              lambda e: solve_ordered_kcenter(base, [(1.0, 0.5)], e),
              lambda e: solve_matroid_center(minst, top_norm(1, 1.0), e),
              lambda e: solve_matroid_center(minst, max_ordered_norm([(1.0,)]), e)]
    for solve in solves:
        assert solve(0.1).value == 0.0
        with pytest.raises(InvalidInputError, match="eps"):
            solve(float(eps))
    path = tmp_path / "c.json"
    path.write_text(fileio.dumps(fileio.encode_instance(base)))
    code, out, err = _run(["solve", str(path), "--norm", "topl:1:1", "--eps", eps], capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "invalid-input"


def test_knapsack_heavy_sets_past_their_cap_exit_resource_cap(tmp_path):
    """22 facilities of weight 1 under a budget of 10 at eps 0.1 are all
    heavy, and give 1,744,436 heavy-set guesses; the solve listing them ran
    for over a minute.  The count is checked before any is listed, so both the solver
    and the CLI stop at once with a resource cap.  Run in a child process
    with capped memory and time."""
    base = gen_cluster(0, clients=3, facilities=22, k=22)
    kinst = KnapsackClusterInstance(base=base, wt=[1.0] * 22, budget=10.0)
    path = tmp_path / "k.json"
    path.write_text(fileio.dumps(fileio.encode_instance(kinst)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
             "import json\n"
             "from maxnorm import fileio, solve_knapsack_center, top_norm\n"
             "from maxnorm.cli import main\n"
             "from maxnorm.errors import ResourceCapError\n"
             f"kinst = fileio.decode_instance(json.loads(open({str(path)!r}).read()))\n"
             "try:\n"
             "    solve_knapsack_center(kinst, top_norm(2, 1.0), 0.1)\n"
             "except ResourceCapError as exc:\n"
             "    print(exc)\n"
             "else:\n"
             "    sys.exit(9)\n"
             f"sys.exit(main(['solve', {str(path)!r}, '--norm', 'topl:2:1', '--eps', '0.1']))\n")
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 4, proc.stderr
    assert "1744436 heavy-set guesses" in proc.stdout
    assert json.loads(proc.stderr)["error"] == "resource-cap"


@pytest.mark.parametrize("kind, argv", [
    ("load", ["solve", "--norm", "topl:1:1e308"]),
    ("huge", ["solve", "--norm", "topl:3:2"]),
    ("fair-load", ["fair-solve", "--norm", "topl:1:1e300"]),
    ("load", ["solve", "--norm", "topl:1:1", "--eps", "1e300"]),
    ("fair-load", ["fair-solve", "--norm", "topl:1:1", "--eps", "1e300"]),
], ids=["q-1e308", "sizes-1e308", "fair-q-1e300", "eps-1e300", "fair-eps-1e300"])
def test_float_overflow_exits_invalid(tmp_path, capsys, kind, argv):
    """A cost to the power q, or a grid factor (1 + eps)^t, past the float
    range once escaped main as an OverflowError (exit 1, a traceback)."""
    path = tmp_path / "inst.json"
    if kind == "huge":
        path.write_text(json.dumps({"kind": "load", "p": [[1e308, 1e308], [1e308, 1e308]]}))
    else:
        main(["gen", kind, "--seed", "1", "--out", str(path)])
    code, out, err = _run([argv[0], str(path)] + argv[1:], capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "invalid-input"


def test_oracle_top_value_at_a_huge_q(tmp_path, capsys):
    """`oracle` with topl:1:1e308 once printed value inf, every assignment
    tied, with an arbitrary sigma; a Top-(1,q) norm is the largest cost, so
    it prints topl:1:1's optimum."""
    path = tmp_path / "load.json"
    main(["gen", "load", "--seed", "1", "--out", str(path)])
    huge, plain = (json.loads(_run(["oracle", str(path), "--norm", norm], capsys)[1])
                   for norm in ("topl:1:1e308", "topl:1:1"))
    assert huge["value"] == plain["value"] == "5.0"
    assert huge["solution"] == plain["solution"]


def test_oracle_matches_the_library_on_every_kind(tmp_path, capsys):
    """`oracle` prints the library's brute-force optimum for load, cluster,
    matroid, knapsack, fair-load and fair-cluster files; the fair-cluster
    file is the one `gen fair-cluster` writes, which is the generator's."""
    from maxnorm import oracle
    from maxnorm.generators import gen_fair_load, gen_load
    from maxnorm.norms import top_norm

    fair_path = tmp_path / "fair-cluster.json"
    assert main(["gen", "fair-cluster", "--clients", "2", "--facilities", "3", "--seed", "3",
                 "--out", str(fair_path)]) == 0
    assert fair_path.read_text() == fileio.dumps(fileio.encode_instance(
        gen_fair_cluster(3, clients=2, facilities=3)))
    norm = top_norm(2, 1.0)
    kinds = [("load", gen_load(1, machines=2, jobs=3), oracle.brute_force_makespan),
             ("cluster", gen_cluster(1, clients=3, facilities=4, k=2),
              oracle.brute_force_kcenter),
             ("matroid", gen_matroid_cluster(1, clients=2, facilities=3),
              oracle.brute_force_matroid_center),
             ("knapsack", gen_knapsack_cluster(1, clients=2, facilities=3),
              oracle.brute_force_knapsack_center),
             ("fair-load", gen_fair_load(1, machines=2, jobs=2), None),
             ("fair-cluster", None, None)]
    for kind, inst, brute in kinds:
        path = tmp_path / f"{kind}.json"
        if inst is not None:
            path.write_text(fileio.dumps(fileio.encode_instance(inst)))
        inst = fileio.decode_instance(json.loads(path.read_text()))
        code, out, _ = _run(["oracle", str(path), "--norm", "topl:2:1"], capsys)
        assert code == 0, kind
        if brute is None:
            bound, dist = oracle.brute_force_fair_opt(inst, norm, 0.1)
            want = {"kind": "oracle-result", "fair_opt": repr(float(bound)),
                    "distribution": fileio.encode_distribution(dist)}
        else:
            opt = brute(inst, norm)
            sol = opt.assignment if kind == "load" else opt.solution
            want = {"kind": "oracle-result", "value": repr(opt.value),
                    "solution": fileio.encode_solution(sol), "radius": repr(opt.radius),
                    "thresholds": [repr(t) for t in opt.thresholds]}
        assert json.loads(out) == json.loads(fileio.dumps(want)), kind


def test_compare_cluster_rows_match_the_library(tmp_path):
    """`compare --kind cluster` reports the brute-force optimum and the
    Top k-center solver's value of each seed's generated instance."""
    from maxnorm.oracle import brute_force_kcenter
    from maxnorm.norms import top_norm
    from maxnorm.cluster import solve_topl_kcenter

    out = tmp_path / "rows.csv"
    assert main(["compare", "--kind", "cluster", "--seeds", "0:3", "--norm", "topl:2:1",
                 "--clients", "3", "--facilities", "4", "--k", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("seed,opt,achieved,ratio") and len(lines) == 4
    for seed, line in enumerate(lines[1:]):
        inst = gen_cluster(seed, clients=3, facilities=4, k=2)
        row = line.split(",")
        assert row[:3] == [str(seed), repr(brute_force_kcenter(inst, top_norm(2, 1.0)).value),
                           repr(solve_topl_kcenter(inst, 2, 1.0, 0.1).value)]
