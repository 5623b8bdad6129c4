"""Makespan LPs at a given bound, which only tests build.

The solvers minimize the bound surrogate s instead; these fix the bound in
the same builders, so that a test can ask whether a known bound is feasible.
"""

from maxnorm.load import _ordered_load_min_bound_lp, _topl_load_min_bound_lp


def build_topl_load_lp(inst, ell, q, radius, bound, threshold):
    model, _ = _topl_load_min_bound_lp(inst, ell, q, radius, threshold, fixed_bound=bound)
    return model


def build_ordered_load_lp(inst, sparse_weights, pos, radius, bound, seq):
    model, _ = _ordered_load_min_bound_lp(inst, sparse_weights, pos, radius, seq,
                                          fixed_bound=bound)
    return model
