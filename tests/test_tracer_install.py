"""The benchmark's tracer binds layer functions by name; it must keep installing.

perfbench/tracing.py is read and executed here without importing it as a
file (no bytecode is written next to it), so the test leaves it untouched.
"""

import types
from pathlib import Path

import numpy as np

import maxnorm
from maxnorm import cluster, fair, load, lp
from maxnorm.instances import LoadInstance

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
