"""Threshold and kept-coordinate helpers that only the tests use."""

from maxnorm.instances import LoadInstance
from maxnorm.sparsify import single_threshold_candidates


def prev_index(pos, t):
    """Largest kept index of pos strictly smaller than t (1 maps to 0)."""
    prev = 0
    for v in pos.indices:
        if v < t:
            prev = v
        else:
            break
    return prev


def instance_threshold_candidates(inst):
    """Threshold guesses straight from an instance: its processing times or
    client-facility distances."""
    if isinstance(inst, LoadInstance):
        return single_threshold_candidates(inst.finite_sizes())
    return single_threshold_candidates(inst.finite_distances())
