"""The cardinality bundle solver under its own name, as the tests call it.

maxnorm.cluster rounds a cardinality budget through
bundlelp.solve_partition_matroid_integral with one part holding every
location; this keeps the k-budget form the bundle tests were written
against.
"""

from maxnorm.bundlelp import _bundle_flow, _bundle_objective
from maxnorm.errors import InfeasibleError


def solve_two_laminar_integral(full_bundles, partial_bundles, profits,
                               copy_to_original, k, fixed_term=0):
    """Maximize partial-bundle profit subject to the bundle rows, one open
    copy per location, and at most k opens in total.  Returns (z, objective)
    with z exactly 0/1 and the objective an exact Fraction including
    fixed_term (the forced full-bundle contribution)."""
    if k < 0:
        raise InfeasibleError("negative cardinality budget")
    z = _bundle_flow(full_bundles, partial_bundles, profits, copy_to_original,
                     [(set(copy_to_original.values()), k)])
    return z, _bundle_objective(z, full_bundles, partial_bundles, profits, fixed_term)
