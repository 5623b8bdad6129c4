"""Integral solvers for the bundle LPs.

The rounding step of the clustering pipeline maximizes bundle profits over

    z(U) = 1 (full bundles),  z(U) <= 1 (partial bundles),
    z(copies of one location) <= 1,  and a facility budget
    (cardinality k, partition-matroid capacities, or a knapsack row).

With the cardinality or matroid budget the constraints are two laminar
families (plus a matroid), so the LP has integral vertices; we get them
by construction through a min-cost-flow network instead of trusting a
simplex crossover: source -> bundle -> copy -> location -> budget layer,
with full-bundle arcs carrying lower bound 1.  Profits may be exact
rationals; they are scaled to integers so the flow stays exact.

With a knapsack budget the per-location family is dropped and the vertex
has at most two fractional entries, which the caller rounds up.
"""

from fractions import Fraction

import networkx as nx
import numpy as np

from .errors import InfeasibleError, SolverInternalError
from .lp import EQ, INFEASIBLE, LE, OPTIMAL, lp_model, scaled_integers, solve_lp


def _bundle_flow(full_bundles, partial_bundles, profits, copy_to_original, wire_location):
    """Shared circulation network: returns z (copy -> 0/1) for all copies
    in bundles.  wire_location(g, loc) routes each location node toward "t";
    the caller pre-wires the "t" -> "s" return arc."""
    scaled = scaled_integers(profits)
    copies = sorted({c for u in list(full_bundles) + list(partial_bundles) for c in u})
    if not copies:
        return {}
    g = nx.DiGraph()
    locations = sorted({copy_to_original[c] for c in copies})
    for loc in locations:
        wire_location(g, loc)
    for c in copies:
        g.add_edge(("c", c), ("o", copy_to_original[c]), capacity=1, weight=0)
    # full-bundle arcs s -> bundle have lower bound 1 = upper bound; translate
    # the lower bound into node demands and drop the arc entirely
    forced = 0
    for b, u in enumerate(full_bundles):
        node = ("bf", b)
        g.add_node(node, demand=-1)
        forced += 1
        for c in u:
            g.add_edge(node, ("c", c), capacity=1, weight=0)
    for b, u in enumerate(partial_bundles):
        node = ("bp", b)
        g.add_edge("s", node, capacity=1, weight=-scaled[b])
        for c in u:
            g.add_edge(node, ("c", c), capacity=1, weight=0)
    if "s" not in g:
        g.add_node("s")
    g.nodes["s"]["demand"] = forced
    try:
        _, flow = nx.network_simplex(g)
    except nx.NetworkXUnfeasible:
        raise InfeasibleError("bundle system admits no integral opening")
    z = {}
    for c in copies:
        val = flow.get(("c", c), {}).get(("o", copy_to_original[c]), 0)
        if val not in (0, 1):
            raise SolverInternalError("flow produced a non-binary opening")
        z[c] = int(val)
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


def solve_two_laminar_integral(full_bundles, partial_bundles, profits,
                               copy_to_original, k, fixed_term=0):
    """Maximize partial-bundle profit subject to the bundle rows, one open
    copy per location, and at most k opens in total.  Returns (z, objective)
    with z exactly 0/1 and the objective an exact Fraction including
    fixed_term (the forced full-bundle contribution)."""
    if k < 0:
        raise InfeasibleError("negative cardinality budget")

    def wire_location(g, loc):
        if not g.has_edge("cap", "t"):
            g.add_edge("cap", "t", capacity=int(k), weight=0)
            g.add_edge("t", "s", capacity=int(k), weight=0)
        g.add_edge(("o", loc), "cap", capacity=1, weight=0)

    z = _bundle_flow(full_bundles, partial_bundles, profits, copy_to_original, wire_location)
    return z, _bundle_objective(z, full_bundles, partial_bundles, profits, fixed_term)


def solve_partition_matroid_integral(full_bundles, partial_bundles, profits,
                                     copy_to_original, parts, capacities, fixed_term=0):
    """Same bundle system with the cardinality row replaced by a partition
    matroid on the original locations: at most capacities[t] opens in parts[t]."""
    part_of = {}
    for t, part in enumerate(parts):
        for i in part:
            part_of[i] = t
    total_cap = int(sum(capacities))

    def wire_location(g, loc):
        if not g.has_edge("t", "s"):
            g.add_edge("t", "s", capacity=total_cap, weight=0)
        t = part_of[loc]
        if not g.has_edge(("part", t), "t"):
            g.add_edge(("part", t), "t", capacity=int(capacities[t]), weight=0)
        g.add_edge(("o", loc), ("part", t), capacity=1, weight=0)

    z = _bundle_flow(full_bundles, partial_bundles, profits, copy_to_original, wire_location)
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
    for u in full_bundles:
        model.add_row({col[c]: 1.0 for c in u}, EQ, 1.0)
    for u in partial_bundles:
        model.add_row({col[c]: 1.0 for c in u}, LE, 1.0)
    model.add_row({col[c]: float(copy_weights[c]) for c in copies}, LE, float(budget))
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
