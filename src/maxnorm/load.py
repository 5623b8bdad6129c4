"""Max-norm makespan on unrelated machines.

Drivers guess a triple (radius R = largest allowed job size, objective bound
B, size threshold(s) T), solve a feasibility LP, and round its solution by
the Shmoys-Tardos machine-copy construction.  Rather than scanning the bound
grid with one LP per grid point, a guess (R, T) solves one LP that
minimizes the bounded mass s, and the result is snapped up to the grid;
that is equivalent to accepting the first feasible triple in ascending-bound
order and far cheaper.

Not every guess is solved (maxnorm.guess holds both scans).  The LP only
gets weaker as R grows (fewer pairs forbidden) and as any threshold grows
(fewer jobs counted, and s is free), so its feasibility is monotone:

  * Top-(ell,q): each radius bisects its thresholds for the first feasible
    one, no higher than the previous radius's (the staircase), and visits
    the thresholds upward from there until ell^(1/q) T exceeds the best
    bound, keeping the smallest (bound, R, T).  The row also stops once a
    guess's snapped bound equals its snapped floor max(R, ell^(1/q) T): a
    larger T has a floor at least as high, so it snaps no lower and loses
    the tie.
  * max-ordered: maxnorm.guess.scan_sequence_rows, from the first radius,
    with this driver's count keys (the sizes above each threshold; the
    first sequence of each key stands for its LP) and chain bound
    4 R w1 + 2 B + 2 gap.  Every sequence of a radius gets the LP-free
    lower key (floor, chain at the floor, radius index, sequence index),
    with floor = R w1 snapped to the grid.  A sequence's real key, with its
    bound in place of floor, is never below it, so visiting sequences in
    ascending lower key and stopping once the next lower key reaches the
    best real key finds the old minimum.  A sequence counting at least as
    many sizes as an infeasible one at every kept coordinate is skipped.

A verdict contradicting monotonicity (an infeasible LP where a stronger one
was feasible) sends its radius back to a full search.

A probe's verdict needs no LP (_count_feasible).  The mass rows never decide
feasibility, because the bound surrogate s is free above; what is left is
the assignment rows plus, per machine, count caps on the jobs above each
threshold.  Those job sets are nested, so the rows form a network matrix,
which is totally unimodular: the LP is feasible exactly when a max flow
routes every job that has no allowed uncounted machine through its
machine's chain of caps.  Only guesses a visit reads are solved, so the
scans solve the same models as before and read the same vertices.

Accepted guesses come with a certificate: for Top-(ell,q) norms the rounded
per-machine cost is at most (2 R^q + B^q + ell T^q)^(1/q); for max-ordered
norms the chain bound 4 R w1 + 2 B + 2 gap applies, where gap is the
sparsified guessing certificate.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_flow

from .errors import InvalidInputError, SolverInternalError
from .guess import GuessLPs, scan_sequence_rows, scan_top_rows
from .instances import Assignment, eval_load_objective
from .lp import EQ, NormCosts, add_norm_rows, lp_model, scaled_integers, solve_lp
from .lp import simplex_solve  # noqa: F401 (unused; perfbench traces load.simplex_solve)
from .norms import max_ordered_norm, top_norm
from .sparsify import (geometric_grid, enumerate_threshold_sequences, single_threshold_candidates,
                       sparsified_gap_bound, sparsified_gap_bounds, sparsify_weights)

_MASS_TOL = 1e-9


def build_basic_load_lp(inst, radius):
    """Fractional assignment polytope: jobs fully assigned, pairs with
    p(i,j) > radius forbidden.  Column i * n + j is x(i, j)."""
    m, n = inst.machines, inst.jobs
    model = lp_model(m * n, lower=0.0, upper=np.where(inst.p > radius, 0.0, 1.0).ravel())
    model.add_rows(np.tile(np.arange(n), m), np.arange(m * n), np.ones(m * n), EQ, np.ones(n))
    return model


def _topl_load_min_bound_lp(inst, ell, q, radius, threshold, fixed_bound=None):
    """Basic LP plus, per machine, a count cap of ell and a q-th-power mass
    cap over the jobs strictly larger than the threshold (lp.add_norm_rows,
    machines over jobs).  With fixed_bound None, adds a variable s replacing
    bound^q and minimizes it; returns (model, index of s)."""
    return _load_norm_lp(inst, radius, ("top", ell, q, threshold), fixed_bound)


def _ordered_load_min_bound_lp(inst, sparse_weights, pos, radius, seq, fixed_bound=None):
    """Basic LP plus, per machine, a count cap of ell over the jobs above
    each kept coordinate ell's threshold and, per weight vector, a
    telescoped weighted-mass row bounded by s (or by a fixed bound)."""
    return _load_norm_lp(inst, radius, ("ordered", sparse_weights, pos, seq), fixed_bound)


def _load_norm_lp(inst, radius, normspec, fixed_bound):
    model = build_basic_load_lp(inst, radius)
    costs = NormCosts(inst.p, np.arange(inst.p.size).reshape(inst.p.shape))
    return model, add_norm_rows(model, costs, normspec, fixed_bound)


def _count_feasible(inst, radius, thresholds, caps):
    """Whether the min-bound LP at this radius, with a count cap of caps[k] on
    each machine's jobs above thresholds[k], is feasible; None when a cap is
    not a non-negative integer (the flow below needs integral capacities).
    The thresholds do not increase, so each cap's jobs include the previous
    cap's.

    Exact: a job with an allowed uncounted machine is placed there, and the
    other jobs must fit through their machines' nested caps, which is a max
    flow with integral capacities.  The masks are the LP builders' own.
    """
    if not all(float(c).is_integer() and c >= 0 for c in caps):
        return None
    p = inst.p
    m = inst.machines
    allowed = ~(p > radius)
    tops = np.asarray(thresholds, float)
    counted = np.isfinite(p) & (p > tops[-1])
    forced = np.flatnonzero(~(allowed & ~counted).any(axis=0))
    routes = allowed[:, forced]  # every allowed pair of a forced job is counted
    if not routes.any(axis=0).all():
        return False  # a job with no allowed machine
    if forced.size == 0:
        return True
    # nodes: the source, the forced jobs, one node per (machine, cap) along
    # each machine's chain of caps, the sink
    f, depth = forced.size, len(caps)
    sink = 1 + f + m * depth
    mi, fi = np.nonzero(routes)
    level = np.searchsorted(-tops, -p[mi, forced[fi]], side="right")  # innermost cap
    link = 1 + f + np.arange(m * depth)
    nxt = np.where(np.arange(m * depth) % depth == depth - 1, sink, link + 1)
    cap = np.tile([min(int(c), f) for c in caps], m)
    rows = np.concatenate([np.zeros(f, int), 1 + fi, link])
    cols = np.concatenate([1 + np.arange(f), 1 + f + mi * depth + level, nxt])
    vals = np.concatenate([np.ones(f + len(fi)), cap]).astype(np.int32)
    graph = csr_array((vals, (rows, cols)), shape=(sink + 1, sink + 1))
    return bool(maximum_flow(graph, 0, sink).flow_value == f)


# ---------------------------------------------------------------------------
# rounding


def machine_copies(x, p):
    """Split each machine into unit-capacity copies, filling jobs in
    non-decreasing size order (ties by job index).  Returns, per machine,
    the ordered list of copies as [(job, fractional amount), ...]."""
    m, n = p.shape
    out = []
    for i in range(m):
        jobs = sorted((j for j in range(n) if x[i, j] > _MASS_TOL),
                      key=lambda j: (p[i, j], j))
        copies, current, room = [], [], 1.0
        for j in jobs:
            amt = float(x[i, j])
            while amt > _MASS_TOL:
                take = min(amt, room)
                current.append((j, take))
                amt -= take
                room -= take
                if room <= _MASS_TOL:
                    copies.append(current)
                    current, room = [], 1.0
        if current:
            copies.append(current)
        out.append(copies)
    return out


def shmoys_tardos_round(x, p, edge_weights=None):
    """Round a fractional assignment to an integral one.

    Builds the machine-copy graph and matches every job to one copy,
    minimizing the total edge weight (weight of any edge into machine i is
    edge_weights[i]; default 0).  The integral matching weight never exceeds
    the fractional weight sum_i w_i sum_j x_ij.  Edge weights are
    non-negative rationals, scaled to integers over their common denominator,
    so the matching's float sums and comparisons are exact while a scaled
    weight times n stays below 2^53; beyond that the weights match as floats.

    Returns (assignment, copies).
    """
    x = np.asarray(x, float)
    m, n = p.shape
    copies = machine_copies(x, p)
    flat = [(i, ci) for i in range(m) for ci in range(len(copies[i]))]
    slot = {mc: t for t, mc in enumerate(flat)}
    edges = set()
    for i in range(m):
        for ci, content in enumerate(copies[i]):
            for j, _amt in content:
                edges.add((j, slot[(i, ci)]))
    if len(flat) < n:
        raise SolverInternalError("fewer machine copies than jobs")

    if edge_weights is None:
        w = np.zeros(m)
    else:
        scaled = scaled_integers(edge_weights)
        # past 2^53 float sums of the scaled weights are inexact too; callers
        # that need the bound check the matching's weight in exact arithmetic
        w = np.array(scaled if max(scaled) * n < 2 ** 53 else edge_weights, float)
    cost = np.full((n, len(flat)), np.inf)
    for j, t in edges:
        cost[j, t] = w[flat[t][0]]
    try:
        rows_idx, cols_idx = linear_sum_assignment(cost)
    except ValueError as exc:
        raise SolverInternalError(f"copy matching infeasible: {exc}")
    sigma = [-1] * n
    for j, t in zip(rows_idx, cols_idx):
        sigma[j] = flat[t][0]
    if any(i < 0 for i in sigma):
        raise SolverInternalError("matching left a job unassigned")
    return Assignment(tuple(sigma)), copies


# ---------------------------------------------------------------------------
# drivers


@dataclass
class LoadSolveResult:
    assignment: Assignment
    value: float
    certificate: dict


def _min_radius(inst):
    """max_j min_i p(i,j): smaller radii make the basic LP infeasible."""
    return np.where(np.isfinite(inst.p), inst.p, np.inf).min(axis=0).max()


def _feasible_radii(inst, sizes):
    """The positive sizes from _min_radius on (radius 0 only where that is 0,
    which the drivers answer by _zero_result).  sizes are the instance's
    distinct finite sizes, ascending."""
    rmin = _min_radius(inst)
    return [v for v in sizes if v >= rmin - 1e-12 and v > 0]


def _zero_result(inst, **cert):
    """Every job on a nearest machine: the optimum when the norm or every
    job's nearest size is 0."""
    return LoadSolveResult(assignment=_nearest_assignment(inst), value=0.0, certificate=cert)


def solve_topl_makespan(inst, ell, q, eps):
    """Top-(ell,q) makespan within factor 4^(1/q) + eps of optimal."""
    if not 0 < eps < math.inf:
        raise InvalidInputError("eps must be positive and finite")
    root = 1.0 / q
    grid_eps = eps / 4.0 ** root  # so that 4^(1/q) * (1 + grid_eps) <= 4^(1/q) + eps
    if _min_radius(inst) == 0:
        return _zero_result(inst, radius=0.0, bound=0.0, threshold=0.0, per_machine_bound=0.0,
                            grid_eps=grid_eps)
    bound, radius, t, x = _scan_top_guesses(inst, ell, q, grid_eps)
    assignment, _ = shmoys_tardos_round(x, inst.p)
    value = eval_load_objective(inst, top_norm(ell, q), assignment)
    per_machine = (2 * radius ** q + bound ** q + ell * t ** q) ** root
    if value > per_machine * (1 + 1e-9) + 1e-12:
        raise SolverInternalError("rounded value exceeds its certificate")
    cert = {"radius": radius, "bound": bound, "threshold": t,
            "per_machine_bound": per_machine, "grid_eps": grid_eps}
    return LoadSolveResult(assignment=assignment, value=value, certificate=cert)


def _scan_top_guesses(inst, ell, q, grid_eps):
    """Smallest (bound, radius, threshold, x) over the (R, T) guesses."""
    m, n = inst.machines, inst.jobs
    root = 1.0 / q
    sizes = inst.finite_sizes()
    radii = _feasible_radii(inst, sizes)
    thresholds = single_threshold_candidates(sizes)
    lps = GuessLPs(lambda ri, ti: _topl_load_min_bound_lp(inst, ell, q, radii[ri], thresholds[ti]),
                   solve_lp,
                   lambda ri, ti: _count_feasible(inst, radii[ri], (thresholds[ti],), (ell,)))
    # every radius admits the basic LP, so the first one is feasible at T = R
    best = scan_top_rows(lps, radii, thresholds, ell, q,
                         lambda radius: geometric_grid(radius, n ** root * radius, grid_eps),
                         first=0)
    if best is None:
        raise SolverInternalError("guessing grids failed to cover the instance")
    bound, radius, t, sol = best
    return bound, radius, t, sol.x[: m * n].reshape(m, n)


def _nearest_assignment(inst):
    sigma = []
    for j in range(inst.jobs):
        finite = [i for i in range(inst.machines) if np.isfinite(inst.p[i, j])]
        sigma.append(min(finite, key=lambda i: (inst.p[i, j], i)))
    return Assignment(tuple(sigma))


def solve_ordered_makespan(inst, weights, eps):
    """Max-ordered makespan via sparsified weights and threshold sequences;
    the reported chain bound is O(log n) times optimal for correct guesses."""
    if not 0 < eps < math.inf:
        raise InvalidInputError("eps must be positive and finite")
    sparse, pos = sparsify_weights(weights, inst.jobs)
    wtop = max(float(w[0]) for w in sparse)
    norm = max_ordered_norm(weights)
    if wtop == 0.0 or _min_radius(inst) == 0:
        return _zero_result(inst, radius=0.0, bound=0.0, sequence=(), gap=0.0, chain_bound=0.0)
    bound, radius, seq, x = _scan_ordered_guesses(inst, sparse, pos, wtop, eps)
    assignment, _ = shmoys_tardos_round(x, inst.p)
    value = eval_load_objective(inst, norm, assignment)
    gap = sparsified_gap_bound(sparse, pos, seq)
    chain = 4 * radius * wtop + 2 * bound + 2 * gap
    if value > chain * (1 + 1e-9) + 1e-12:
        raise SolverInternalError("rounded value exceeds its chain bound")
    cert = {"radius": radius, "bound": bound, "sequence": seq.values,
            "gap": gap, "chain_bound": chain}
    return LoadSolveResult(assignment=assignment, value=value, certificate=cert)


def _scan_ordered_guesses(inst, sparse, pos, wtop, eps):
    """(bound, radius, sequence, x) of the guess with the smallest (bound,
    chain bound, radius index, sequence index)."""
    m, n = inst.machines, inst.jobs
    sizes = inst.finite_sizes()
    radii = _feasible_radii(inst, sizes)
    reps = {}  # (radius index, count key) -> the first sequence with that key
    lps = GuessLPs(lambda ri, counts: _ordered_load_min_bound_lp(inst, sparse, pos, radii[ri],
                                                                 reps[ri, counts]), solve_lp,
                   lambda ri, counts: _count_feasible(inst, radii[ri], reps[ri, counts].values,
                                                      pos.indices))

    def row(ri):
        radius = radii[ri]
        seqs = list(enumerate_threshold_sequences(radius, n))
        values = [seq.values for seq in seqs]
        gaps = sparsified_gap_bounds(sparse, pos, values).tolist()
        keys = _sequence_keys(sizes, values)
        for key, seq in zip(keys, seqs):
            reps.setdefault((ri, key), seq)
        return seqs, keys, lambda sidx, bound: 4 * radius * wtop + 2 * bound + 2 * gaps[sidx]

    best = scan_sequence_rows(lps, radii, wtop,
                              lambda radius: geometric_grid(radius * wtop, n * radius * wtop, eps),
                              row)
    if best is None:
        raise SolverInternalError("guessing grids failed to cover the instance")
    (bound, _, ri, _), (seq, sol) = best
    return bound, radii[ri], seq, sol.x[: m * n].reshape(m, n)


def _sequence_keys(sizes, values):
    """Per threshold sequence (its values, one row each), the count of sizes
    above each threshold, as a tuple of ints: sequences inducing the same
    comparison sets give the same LP.  sizes are the instance's distinct
    finite sizes, ascending."""
    above = len(sizes) - np.searchsorted(sizes, np.asarray(values, float), side="right")
    return [tuple(row) for row in above.tolist()]
