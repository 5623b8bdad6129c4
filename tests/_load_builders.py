"""Makespan LPs which only tests build.

The solvers minimize the bound surrogate s instead; build_topl_load_lp and
build_ordered_load_lp fix the bound in the same builders, so that a test
can ask whether a known bound is feasible.  _fix_free_jobs is how the
guess scans once handed the solver the forced jobs only: the full model,
with every free job fixed whole on its home machine.  It is the reference
the forced-job build (the builders' forced_only) is checked against; the
exhaustive and staircase scans look it up through this module at call
time, so a test can replace it for both.
"""

import numpy as np

from _count_reference import _free_jobs
from maxnorm.load import _ordered_load_min_bound_lp, _topl_load_min_bound_lp


def build_topl_load_lp(inst, ell, q, radius, bound, threshold):
    model, _ = _topl_load_min_bound_lp(inst, ell, q, radius, threshold, fixed_bound=bound)
    return model


def build_ordered_load_lp(inst, sparse_weights, pos, radius, bound, seq):
    model, _ = _ordered_load_min_bound_lp(inst, sparse_weights, pos, radius, seq,
                                          fixed_bound=bound)
    return model


def _fix_free_jobs(inst, radius, lowest, built):
    """A min-bound guess LP (model, index of s) from the builders above, at
    this radius and lowest threshold, with every free job fixed whole on its
    home machine: lower = upper = 1 there, upper = 0 on its other machines.
    Fixed columns never reach the solver, so it sees the forced jobs and s.

    Exact: a free job's home column appears only in the job's assignment
    row, and moving its mass there raises no count row, no mass row and not
    s (the mass coefficients are non-negative: sizes are, and sparsified
    weights do not increase).  So the optimum and the verdict are the full
    model's; the vertex can differ."""
    model, sidx = built
    _, home = _free_jobs(inst.p, radius, lowest)
    free = np.flatnonzero(home >= 0)
    upper = model.upper[: inst.p.size].reshape(inst.p.shape)  # views of the x columns
    upper[:, free] = 0.0
    upper[home[free], free] = 1.0
    model.lower[: inst.p.size].reshape(inst.p.shape)[home[free], free] = 1.0
    return model, sidx
