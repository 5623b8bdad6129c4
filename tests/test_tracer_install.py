"""The benchmark's tracer binds layer functions by name; it must keep installing.

perfbench/tracing.py is read and executed here without importing it as a
file (no bytecode is written next to it), so the test leaves it untouched.
"""

import types
from pathlib import Path

import numpy as np

import maxnorm
from maxnorm import cluster, fair, load, lp
from maxnorm.generators import (gen_cluster, gen_fair_load, gen_knapsack_cluster, gen_load,
                                gen_matroid_cluster)
from maxnorm.instances import LoadInstance
from maxnorm.norms import max_ordered_norm, top_norm

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_installs_runs_and_uninstalls():
    tracing = _tracing_module()
    bound = [(lp, "linprog"), (lp, "_check_residuals"), (load, "solve_lp"),
             (load, "_topl_load_min_bound_lp"), (load, "_ordered_load_min_bound_lp"),
             (fair, "_topl_load_min_bound_lp"), (cluster, "_center_lp"),
             (maxnorm, "solve_topl_makespan")]
    originals = [getattr(owner, attr) for owner, attr in bound]
    tracer = tracing.Tracer()
    tracer.install(maxnorm)
    try:
        assert all(getattr(owner, attr) is not orig
                   for (owner, attr), orig in zip(bound, originals))
        inst = LoadInstance(p=np.array([[2.0, 3.0, 1.0], [1.0, 4.0, 2.0]]))
        maxnorm.solve_topl_makespan(inst, 1, 1.0, 0.5)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is orig for (owner, attr), orig in zip(bound, originals))
    metrics = tracing.layer_metrics(*tracer.take_pass())
    assert metrics["lp.solve_lp.calls"] > 0
    assert metrics["lp.check_residuals.s"] > 0 and metrics["load.model_build.s"] > 0


def test_traced_ordered_scans_solve_as_untraced():
    """The tracer binds enumerate_threshold_sequences on load and cluster by
    name, although the ordered scans read their sequences from a table: the
    names must stay for it to install.  Ordered makespan and k-center solves
    under the installed tracer return what they return untraced."""
    tracing = _tracing_module()
    inst = gen_load(4, machines=4, jobs=12, pmax=20, forbidden=0.2)
    center = gen_cluster(2, clients=6, facilities=6, k=2)
    weights = [(1.0, 0.5, 0.25), (2.0, 0.5)]
    solves = (lambda: maxnorm.solve_ordered_makespan(inst, weights, 0.1),
              lambda: maxnorm.solve_ordered_kcenter(center, weights, 0.1))
    bound = [(load, "enumerate_threshold_sequences"), (cluster, "enumerate_threshold_sequences")]
    originals = [getattr(owner, attr) for owner, attr in bound]
    untraced = [solve() for solve in solves]
    tracer = tracing.Tracer()
    tracer.install(maxnorm)
    try:
        assert all(getattr(owner, attr) is not orig
                   for (owner, attr), orig in zip(bound, originals))
        traced = [solve() for solve in solves]
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is orig for (owner, attr), orig in zip(bound, originals))
    for a, b in zip(untraced, traced):
        assert (a.value, a.certificate) == (b.value, b.certificate)
    assert untraced[0].assignment == traced[0].assignment
    assert untraced[1].solution == traced[1].solution
    metrics = tracing.layer_metrics(*tracer.take_pass())
    assert metrics["lp.solve_lp.calls"] > 0 and metrics["load.model_build.s"] > 0
    assert metrics["cluster.model_build.s"] > 0


def test_traced_kcenter_times_its_model_build():
    """The norm rows of a k-center LP are built by a helper inside
    cluster._center_lp; their time stays in the traced cluster.model_build."""
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracer.install(maxnorm)
    try:
        maxnorm.solve_topl_kcenter(gen_cluster(2, clients=5, facilities=5, k=2), 2, 1.0, 0.1)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(*tracer.take_pass())
    assert metrics["lp.solve_lp.calls"] > 0 and metrics["cluster.model_build.s"] > 0


def test_traced_lp_calls_are_the_lps_solved(monkeypatch):
    """lp.solve_lp.calls counts every LP a makespan scan, a k-center scan or
    a fair solve solves.  The LPs are counted in lp itself, so a scan
    reaching solve_lp under a name the tracer does not bind would read fewer
    traced calls than solves."""
    tracing = _tracing_module()
    solved = []
    layout = lp._layout
    monkeypatch.setattr(lp, "_layout", lambda model: solved.append(1) or layout(model))
    inst = gen_load(4, machines=4, jobs=12, pmax=20, forbidden=0.2)
    center = gen_cluster(2, clients=5, facilities=5, k=2)
    ordered = [(1.0, 0.5, 0.25)]
    for solve in (lambda: maxnorm.solve_topl_makespan(inst, 2, 1.0, 0.1),
                  lambda: maxnorm.solve_ordered_makespan(inst, ordered, 0.1),
                  lambda: maxnorm.solve_fair(gen_fair_load(1, machines=3, jobs=4),
                                             top_norm(2, 1.0), 0.1),
                  lambda: maxnorm.solve_topl_kcenter(center, 2, 1.0, 0.1),
                  lambda: maxnorm.solve_ordered_kcenter(center, ordered, 0.1),
                  lambda: maxnorm.solve_matroid_center(gen_matroid_cluster(3, 4, 5),
                                                       top_norm(2, 1.0), 0.1),
                  lambda: maxnorm.solve_knapsack_center(gen_knapsack_cluster(4, 3, 4),
                                                        top_norm(2, 1.0), 0.5),
                  lambda: maxnorm.solve_knapsack_center(gen_knapsack_cluster(4, 3, 4),
                                                        max_ordered_norm(ordered), 0.5)):
        solved.clear()
        tracer = tracing.Tracer()
        tracer.install(maxnorm)
        try:
            solve()
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(*tracer.take_pass())
        assert solved and metrics["lp.solve_lp.calls"] == len(solved)
