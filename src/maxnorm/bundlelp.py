"""Integral solvers for the bundle LPs.

The rounding step of the clustering pipeline maximizes bundle profits over

    z(U) = 1 (full bundles),  z(U) <= 1 (partial bundles),
    z(copies of one location) <= 1,  and a facility budget
    (cardinality k, partition-matroid capacities, or a knapsack row).

With the cardinality or matroid budget the system is a bipartite matching
of bundles to locations (a copy is the edge between its bundle and its
location) under a cap per group of locations: k over all locations, or
each part's capacity.  It is solved as one rectangular assignment
(scipy's linear_sum_assignment), so its openings are integral by
construction.  The rows are the bundles, then per group as many blocker
rows as the group has locations beyond its cap; a blocker may take only a
location of its group, so the bundles keep at most cap of them.  The
columns are the locations, then one "closed" column per partial bundle.
A bundle's cell at a location where it holds a copy costs minus its
profit (0 for a full bundle); a partial bundle's closed column costs 0;
every other cell is forbidden, so a full bundle must open.  Profits may
be exact rationals: they are scaled to integers over their common
denominator, which keeps the matching exact while a scaled profit times
the row count stays below 2^53 (an integer min-cost flow has no such
limit); past that they match as floats, and the callers check the exact
objective.

With a knapsack budget the per-location family is dropped and the vertex
has at most two fractional entries, which the caller rounds up.
"""

from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InfeasibleError, SolverInternalError
from .lp import EQ, INFEASIBLE, LE, OPTIMAL, lp_model, scaled_integers, solve_lp


def _bundle_flow(full_bundles, partial_bundles, profits, copy_to_original, groups):
    """z (copy -> 0/1) for all copies in bundles: every full bundle opens one
    copy, every partial bundle at most one, every location at most once, and
    each (locations, cap) of groups at most cap of its locations; the
    opening maximizes the partial bundles' profit.  A bundle holding two
    copies at one location opens the smaller copy id there."""
    bundles = list(full_bundles) + list(partial_bundles)
    copies = sorted({c for u in bundles for c in u})
    if not copies:
        return {}
    locations = sorted({copy_to_original[c] for c in copies})
    col = {loc: t for t, loc in enumerate(locations)}
    blockers = []  # (a group's columns, how many blocker rows take them)
    for group, cap in groups:
        cols = [col[loc] for loc in group if loc in col]
        blockers.append((cols, max(0, len(cols) - int(cap))))
    num_rows = len(bundles) + sum(n for _, n in blockers)
    if num_rows > len(locations) + len(partial_bundles):
        raise InfeasibleError("bundle system admits no integral opening")
    scaled = scaled_integers(profits)
    if max(scaled, default=0) * num_rows >= 2 ** 53:
        scaled = profits
    gain = [0] * len(full_bundles) + [float(p) for p in scaled]
    cost = np.full((num_rows, len(locations) + len(partial_bundles)), np.inf)
    opens = {}  # (row, column) -> the copy the cell opens
    for b, u in enumerate(bundles):
        for c in sorted(u):
            cell = (b, col[copy_to_original[c]])
            opens.setdefault(cell, c)
            cost[cell] = -gain[b]
    for p in range(len(partial_bundles)):
        cost[len(full_bundles) + p, len(locations) + p] = 0.0
    row = len(bundles)
    for cols, n in blockers:
        cost[row:row + n, cols] = 0.0
        row += n
    try:
        rows_idx, cols_idx = linear_sum_assignment(cost)
    except ValueError:
        raise InfeasibleError("bundle system admits no integral opening") from None
    z = dict.fromkeys(copies, 0)
    for r, t in zip(rows_idx.tolist(), cols_idx.tolist()):
        if (r, t) in opens:
            z[opens[r, t]] = 1
    return z


def _bundle_objective(z, full_bundles, partial_bundles, profits, fixed_term=0):
    total = Fraction(fixed_term)
    for u, prof in zip(partial_bundles, profits):
        opened = sum(z[c] for c in u)
        if opened > 1:
            raise SolverInternalError("partial bundle opened twice")
        total += Fraction(prof) * opened
    for u in full_bundles:
        if sum(z[c] for c in u) != 1:
            raise SolverInternalError("full bundle not opened exactly once")
    return total


def solve_partition_matroid_integral(full_bundles, partial_bundles, profits,
                                     copy_to_original, parts, capacities, fixed_term=0):
    """Maximize partial-bundle profit subject to the bundle rows, one open
    copy per location, and a partition matroid on the locations: at most
    capacities[t] opens in parts[t] (a cardinality budget k is one part
    holding every location).  Returns (z, objective) with z exactly 0/1 and
    the objective an exact Fraction including fixed_term (the forced
    full-bundle contribution)."""
    z = _bundle_flow(full_bundles, partial_bundles, profits, copy_to_original,
                     list(zip(parts, capacities)))
    return z, _bundle_objective(z, full_bundles, partial_bundles, profits, fixed_term)


def solve_knapsack_basic(full_bundles, partial_bundles, profits, copy_weights, budget):
    """Vertex of the bundle LP with a knapsack row instead of the location and
    cardinality constraints.  Returns (z: copy -> float, objective, fractional
    copies).  The vertex has at most two fractional entries; more is a
    violated contract."""
    copies = sorted({c for u in list(full_bundles) + list(partial_bundles) for c in u})
    if not copies:
        return {}, 0.0, []
    col = {c: t for t, c in enumerate(copies)}
    obj = np.zeros(len(copies))
    for u, prof in zip(partial_bundles, profits):
        for c in u:
            obj[col[c]] -= float(prof)  # maximize profit
    model = lp_model(len(copies), lower=0.0, upper=1.0, objective=obj)
    bundles = list(full_bundles) + list(partial_bundles)
    members = [col[c] for u in bundles for c in u]
    model.add_rows(np.repeat(np.arange(len(bundles)), [len(u) for u in bundles]), members,
                   np.ones(len(members)), [EQ] * len(full_bundles) + [LE] * len(partial_bundles),
                   np.ones(len(bundles)))
    model.add_rows([0] * len(copies), np.arange(len(copies)),
                   [float(copy_weights[c]) for c in copies], LE, [float(budget)])
    sol = solve_lp(model)
    if sol.status == INFEASIBLE:
        raise InfeasibleError("knapsack bundle system infeasible")
    if sol.status != OPTIMAL:
        raise SolverInternalError(f"knapsack bundle LP ended {sol.status}")
    z, fractional = {}, []
    for c in copies:
        v = float(sol.x[col[c]])
        if v < 1e-7:
            z[c] = 0.0
        elif v > 1 - 1e-7:
            z[c] = 1.0
        else:
            z[c] = v
            fractional.append(c)
    if len(fractional) > 2:
        raise SolverInternalError(f"knapsack vertex has {len(fractional)} fractional entries")
    return z, -sol.objective, fractional
