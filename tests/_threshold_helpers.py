"""Threshold and kept-coordinate helpers that only the tests use."""

from maxnorm.errors import InvalidInputError
from maxnorm.instances import LoadInstance
from maxnorm.sparsify import (ThresholdSequence, pos_set, single_threshold_candidates,
                              threshold_support)


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


def covering_threshold_sequence(anchor, n, true_thresholds):
    """The canonical guess that covers given true thresholds: the dyadic point
    in [T, 2T) where T >= R/n, and the floor R/n below that.

    true_thresholds maps each kept coordinate to the exact optimal value.
    """
    pos = pos_set(n)
    support = threshold_support(anchor, n)
    floor_val = support[-1]
    values = []
    for ell in pos.indices:
        t = float(true_thresholds[ell])
        if t < floor_val:
            values.append(floor_val)
            continue
        pick = None
        for b in support:
            if t <= b < 2 * t or abs(b - t) <= 1e-12 * max(1.0, t):
                pick = b
                break
        if pick is None:
            raise InvalidInputError("true threshold outside the anchor scale")
        values.append(pick)
    # guessed values inherit monotonicity from the true thresholds
    values = [min(values[: idx + 1]) for idx in range(len(values))]
    return ThresholdSequence(anchor=float(anchor), positions=pos.indices, values=tuple(values))
