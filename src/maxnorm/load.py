"""Max-norm makespan on unrelated machines.

Drivers guess a triple (radius R = largest allowed job size, objective bound
B, size threshold(s) T), solve a feasibility LP, and round its solution by
the Shmoys-Tardos machine-copy construction.  Rather than scanning the bound
grid with one LP per grid point, a guess (R, T) solves one LP that
minimizes the bounded mass s, and the result is snapped up to the grid;
that is equivalent to accepting the first feasible triple in ascending-bound
order and far cheaper.

Not every guess is solved: both norms run maxnorm.guess.scan_sequence_rows,
from the first radius.  The LP only gets weaker as R grows (fewer pairs
forbidden) and as any threshold grows (fewer jobs counted, and s is free),
so its feasibility is monotone:

  * Top-(ell,q): each radius is one guess.top_row, a chain of thresholds,
    bisected for its first feasible one, no higher than the previous
    radius's (the staircase), and visited upward from there, keeping the
    smallest (bound, R, T).  The visit stops once the next threshold's
    snapped floor max(R, ell^(1/q) T) reaches the best bound: it snaps no
    lower, and loses the tie.
  * max-ordered: each radius is one sparsify.SequenceTable: support
    indices per sequence, from which one vector lookup gives every
    sequence's count key (the sizes above each threshold) and one pass its
    gap, so the chain bound 4 R w1 + 2 B + 2 gap is a vector too.  The row
    hands the scan the distinct count keys (about a hundred for thousands
    of sequences), each with its sequences; a key's first sequence stands
    for its LP and flow verdict, and only those and the accepted guess
    become ThresholdSequence objects.  Every sequence gets the LP-free
    lower key (floor, chain at the floor, radius index, sequence index),
    with floor = R w1 snapped to the grid; a real key, with the bound in
    place of floor, is never below it.  The keys are visited in ascending
    lower key of their first sequence, a solved key offers its sequence of
    least (chain, index), and the row stops once the next lower key
    reaches the best real key.  A key counting at least as many sizes as
    an infeasible one at every kept coordinate is skipped.

A verdict contradicting monotonicity (an infeasible LP where a stronger one
was feasible) sends its radius back to a full search.

A probe's verdict needs no LP (_count_feasible).  The mass rows never decide
feasibility, because the bound surrogate s is free above; what is left is
the assignment rows plus, per machine, count caps on the jobs above each
threshold.  Those job sets are nested, so the rows form a network matrix,
which is totally unimodular: the LP is feasible exactly when every job
that has no allowed uncounted machine fits through its machine's chain of
caps.  A Hall count per cap level refutes most infeasible guesses; an
augmenting-path placement of those jobs decides the rest exactly.  Only
guesses a visit reads are solved.

Those LPs leave the free jobs (the ones with an allowed uncounted machine)
out of the solver (_fix_free_jobs): each is fixed whole on its first such
machine, so HiGHS sees the forced jobs and s, on the 30x300 benchmark
models a few hundred of about two thousand columns.  That column appears
only in the job's assignment row, and moving the job's mass onto it
raises no count row, no mass row and not s, so every verdict and optimum
is the full model's.  The vertex, and so the rounding, can differ.

Rounding reads the vertex as arrays: each machine's positive entries, in
size order, are the only ones its copy fill visits, and the copy graph's
cost matrix is one indexed assignment.

Accepted guesses come with a certificate: for Top-(ell,q) norms the rounded
per-machine cost is at most (2 R^q + B^q + ell T^q)^(1/q); for max-ordered
norms the chain bound 4 R w1 + 2 B + 2 gap applies, where gap is the
sparsified guessing certificate.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidInputError, SolverInternalError
from .guess import GuessLPs, SequenceRow, scan_sequence_rows, top_row
from .instances import Assignment, eval_load_objective
from .lp import EQ, NormCosts, add_norm_rows, lp_model, scaled_integers, solve_lp
from .lp import simplex_solve  # noqa: F401 (unused; perfbench traces load.simplex_solve)
from .norms import TOP, max_ordered_norm, top_norm
from .sparsify import (SequenceTable, geometric_grid, single_threshold_candidates,
                       sparsified_gap_bound, sparsified_gap_bounds, sparsify_weights)
# unused; perfbench traces load.enumerate_threshold_sequences
from .sparsify import enumerate_threshold_sequences  # noqa: F401

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


def _free_jobs(p, radius, lowest):
    """(allowed, home): the pairs the radius allows and, per job, its first
    allowed machine where it counts at no threshold (a size counts where it
    is finite and above the lowest), or -1 where it has none.  A job with a
    home is free, the others are forced.  The masks are the LP builders'
    own."""
    allowed = ~(p > radius)
    uncounted = allowed & ~(np.isfinite(p) & (p > lowest))
    return allowed, np.where(uncounted.any(axis=0), uncounted.argmax(axis=0), -1)


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


def _count_feasible(inst, radius, thresholds, caps):
    """Whether the min-bound LP at this radius, with a count cap of caps[k] on
    each machine's jobs above thresholds[k], is feasible; None when a cap is
    not a non-negative integer (the placement below needs integral caps).
    The thresholds do not increase, so each cap's jobs include the previous
    cap's.

    Exact: a job with an allowed uncounted machine is placed there, and the
    other jobs (the forced ones) must fit through their machines' nested
    caps.  Two stages decide that:

      * Hall counts, one per cap level k, refute.  A forced job counted at
        level k on every allowed machine uses a slot of cap k and of every
        cap outside it, wherever it goes, so machine i takes at most the
        smaller of the number of those jobs allowed on it and min(caps[k:])
        (clipped at the forced job count).  More such jobs than the sum of
        those over the machines refute the guess.
      * The placement (_placed) decides the rest, both ways: what it places
        is an integral point of the LP, and where it fails no point exists.

    The Hall counts are a fast path: they refute most infeasible guesses
    for a few array operations.  The masks are the LP builders' own.
    """
    if not all(float(c).is_integer() and c >= 0 for c in caps):
        return None
    p = inst.p
    tops = np.asarray(thresholds, float)
    allowed, home = _free_jobs(p, radius, tops[-1])
    forced = np.flatnonzero(home < 0)
    routes = allowed[:, forced]  # every allowed pair of a forced job is counted
    if not routes.any(axis=0).all():
        return False  # a job with no allowed machine
    if forced.size == 0:
        return True
    m, f, depth = p.shape[0], forced.size, len(caps)
    levels = np.full((m, f), -1)  # innermost cap of each allowed pair, -1 where forbidden
    levels[routes] = np.searchsorted(-tops, -p[:, forced][routes], side="right")
    outer = levels.max(axis=0)  # a job uses this cap and those outside it wherever it goes
    room = np.minimum.accumulate([min(int(c), f) for c in reversed(caps)])[::-1]
    # held[k, i]: the jobs using cap k wherever they go that machine i allows
    held = np.cumsum([np.count_nonzero(routes[:, outer == k], axis=1) for k in range(depth)],
                     axis=0)
    need = np.cumsum(np.bincount(outer, minlength=depth))
    if (np.minimum(held, room[:, None]).sum(axis=1) < need).any():
        return False  # a Hall count
    return _placed(levels, caps)


def _placed(levels, caps):
    """Whether every forced job fits within every cap, levels[i, k] being
    forced job k's innermost cap on machine i (-1 where forbidden).  Exact:
    each job is placed along an augmenting path of the flow network whose
    nodes are the jobs and one node per (machine, cap) along each machine's
    chain of caps.

    The job with the fewest allowed machines goes first, onto the allowed
    machine with the most room left at its level and every level outside it
    (the lowest such machine on ties).  Where no machine has room, it takes
    the place of a job on one of them whose level is at most the innermost
    full cap at or outside its own, and the displaced job moves on the same
    way, breadth first, until one finds room.  The jobs a search reaches on
    a machine depend on the full cap it enters at, so each machine keeps the
    outermost full cap searched and is searched again only for one further
    out: each (machine, cap) node is visited once per search.  Along a path
    a machine's full caps then only move outward, so the shifts keep every
    cap.
    """
    left = [[int(c) for c in caps] for _ in range(levels.shape[0])]  # slots left per machine
    where = {}  # the machine of each job placed
    choices = levels.T.tolist()
    for k in np.argsort((levels >= 0).sum(axis=0), kind="stable").tolist():
        searched, came, queue = [-1] * len(left), {k: None}, [k]  # came[j]: who takes j's place
        for job in queue:
            room = [min(slots[lv:]) if lv >= 0 else 0 for slots, lv in zip(left, choices[job])]
            at = room.index(max(room))
            if room[at]:
                break
            for i, level in enumerate(choices[job]):
                full = left[i].index(0, level) if level >= 0 else -1  # the innermost full cap
                if full > searched[i]:
                    searched[i] = full
                    for other, on in where.items():
                        if on == i and other not in came and choices[other][i] <= full:
                            came[other] = job
                            queue.append(other)
        else:
            return False
        # back along the path: each job moves to at, and the job that came for
        # it moves to the machine it leaves (prev, None for the job being placed)
        while job is not None:
            prev = where.get(job)
            for i, step in ((prev, 1), (at, -1)):
                if i is not None:
                    left[i][choices[job][i]:] = [v + step for v in left[i][choices[job][i]:]]
            where[job], at, job = at, prev, came[job]
    return True


# ---------------------------------------------------------------------------
# rounding


def machine_copies(x, p):
    """Split each machine into unit-capacity copies, filling jobs in
    non-decreasing size order (ties by job index).  Returns, per machine,
    the ordered list of copies as [(job, fractional amount), ...]."""
    m = p.shape[0]
    mi, jj = np.nonzero(x > _MASS_TOL)  # the fill visits only these entries
    order = np.lexsort((jj, p[mi, jj], mi))
    mi, jj = mi[order], jj[order]
    jobs, amounts = jj.tolist(), x[mi, jj].tolist()
    out, start = [], 0
    for end in np.searchsorted(mi, np.arange(1, m + 1)).tolist():
        copies, current, room = [], [], 1.0
        for j, amt in zip(jobs[start:end], amounts[start:end]):
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
        start = end
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
    # the copies of all machines in order; owner[t] is copy t's machine
    owner = np.repeat(np.arange(m), [len(c) for c in copies])
    if len(owner) < n:
        raise SolverInternalError("fewer machine copies than jobs")
    edges = np.array([(j, t) for t, content in enumerate(c for mc in copies for c in mc)
                      for j, _amt in content], dtype=int).reshape(-1, 2)

    if edge_weights is None:
        w = np.zeros(m)
    else:
        scaled = scaled_integers(edge_weights)
        # past 2^53 float sums of the scaled weights are inexact too; callers
        # that need the bound check the matching's weight in exact arithmetic
        w = np.array(scaled if max(scaled) * n < 2 ** 53 else edge_weights, float)
    cost = np.full((n, len(owner)), np.inf)
    cost[edges[:, 0], edges[:, 1]] = w[owner[edges[:, 1]]]
    try:
        rows_idx, cols_idx = linear_sum_assignment(cost)
    except ValueError as exc:
        raise SolverInternalError(f"copy matching infeasible: {exc}")
    if len(rows_idx) < n:
        raise SolverInternalError("matching left a job unassigned")
    # the row indices come back sorted, so with every job matched they are 0..n-1
    return Assignment(tuple(owner[cols_idx].tolist())), copies


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
    return _solve_makespan(inst, top_norm(ell, q), eps)


def _solve_makespan(inst, norm, eps):
    """The makespan drivers' one body: the norm's guesses (one threshold for
    Top-(ell,q), a threshold sequence for max-ordered), the Shmoys-Tardos
    rounding of the accepted one, and its value checked against the
    certificate.  Every job on a nearest machine is optimal, at value 0, when
    every job's nearest size or the norm's largest weight is 0."""
    if not 0 < eps < math.inf:
        raise InvalidInputError("eps must be positive and finite")
    zero = _min_radius(inst) == 0
    if norm.kind == TOP:
        ell, q = norm.ell, norm.q
        grid_eps = eps / 4.0 ** (1.0 / q)  # so that 4^(1/q) * (1 + grid_eps) <= 4^(1/q) + eps
        if zero:
            return _zero_result(inst, radius=0.0, bound=0.0, threshold=0.0,
                                per_machine_bound=0.0, grid_eps=grid_eps)
        bound, radius, t, x = _scan_top_guesses(inst, ell, q, grid_eps)
        limit = (2 * radius ** q + bound ** q + ell * t ** q) ** (1.0 / q)
        cert = {"radius": radius, "bound": bound, "threshold": t,
                "per_machine_bound": limit, "grid_eps": grid_eps}
    else:
        sparse, pos = sparsify_weights(norm.weights, inst.jobs)
        wtop = max(float(w[0]) for w in sparse)
        if zero or wtop == 0.0:
            return _zero_result(inst, radius=0.0, bound=0.0, sequence=(), gap=0.0,
                                chain_bound=0.0)
        bound, radius, seq, x = _scan_ordered_guesses(inst, sparse, pos, wtop, eps)
        gap = sparsified_gap_bound(sparse, pos, seq)
        limit = 4 * radius * wtop + 2 * bound + 2 * gap
        cert = {"radius": radius, "bound": bound, "sequence": seq.values,
                "gap": gap, "chain_bound": limit}
    assignment, _ = shmoys_tardos_round(x, inst.p)
    value = eval_load_objective(inst, norm, assignment)
    if value > limit * (1 + 1e-9) + 1e-12:
        raise SolverInternalError("rounded value exceeds its certificate")
    return LoadSolveResult(assignment=assignment, value=value, certificate=cert)


def _scan_top_guesses(inst, ell, q, grid_eps):
    """Smallest (bound, radius, threshold, x) over the (R, T) guesses."""
    m, n = inst.machines, inst.jobs
    root = 1.0 / q
    sizes = inst.finite_sizes()
    radii = _feasible_radii(inst, sizes)
    thresholds = single_threshold_candidates(sizes)

    def build(ri, key):
        return _fix_free_jobs(inst, radii[ri], -key[0],
                              _topl_load_min_bound_lp(inst, ell, q, radii[ri], -key[0]))

    lps = GuessLPs(build, solve_lp,
                   lambda ri, key: _count_feasible(inst, radii[ri], (-key[0],), (ell,)))
    best = scan_sequence_rows(lps, radii, 1.0,
                              lambda radius: geometric_grid(radius, n ** root * radius, grid_eps),
                              lambda ri: top_row(radii[ri], thresholds, ell, q))
    if best is None:
        raise SolverInternalError("guessing grids failed to cover the instance")
    (bound, _, ri, _), (t, sol) = best
    return bound, radii[ri], t, sol.x[: m * n].reshape(m, n)


def _nearest_assignment(inst):
    sigma = []
    for j in range(inst.jobs):
        finite = [i for i in range(inst.machines) if np.isfinite(inst.p[i, j])]
        sigma.append(min(finite, key=lambda i: (inst.p[i, j], i)))
    return Assignment(tuple(sigma))


def solve_ordered_makespan(inst, weights, eps):
    """Max-ordered makespan via sparsified weights and threshold sequences;
    the reported chain bound is O(log n) times optimal for correct guesses."""
    return _solve_makespan(inst, max_ordered_norm(weights), eps)


def _scan_ordered_guesses(inst, sparse, pos, wtop, eps):
    """(bound, radius, sequence, x) of the guess with the smallest (bound,
    chain bound, radius index, sequence index)."""
    m, n = inst.machines, inst.jobs
    sizes = inst.finite_sizes()
    radii = _feasible_radii(inst, sizes)
    reps = {}  # (radius index, count key) -> (table, index of its first sequence)

    def rep(ri, counts):
        table, k = reps[ri, counts]
        return table.sequence(k)

    def build(ri, counts):
        seq = rep(ri, counts)
        return _fix_free_jobs(inst, radii[ri], seq.values[-1],
                              _ordered_load_min_bound_lp(inst, sparse, pos, radii[ri], seq))

    lps = GuessLPs(build, solve_lp,
                   lambda ri, counts: _count_feasible(inst, radii[ri], rep(ri, counts).values,
                                                      pos.indices))

    def row(ri):
        radius = radii[ri]
        table = SequenceTable(radius, n)
        gaps = sparsified_gap_bounds(sparse, pos, table.values())
        seqs = SequenceRow(_count_keys(table, sizes), lambda bound, sidx:
                           4 * radius * wtop + 2 * bound + 2 * gaps[sidx], table.sequence)
        for key, members in zip(seqs.keys, seqs.members):
            reps[ri, key] = (table, int(members[0]))
        return seqs

    best = scan_sequence_rows(lps, radii, wtop,
                              lambda radius: geometric_grid(radius * wtop, n * radius * wtop, eps),
                              row)
    if best is None:
        raise SolverInternalError("guessing grids failed to cover the instance")
    (bound, _, ri, _), (seq, sol) = best
    return bound, radii[ri], seq, sol.x[: m * n].reshape(m, n)


def _count_keys(table, sizes):
    """Per sequence of a SequenceTable (a row each), the count of sizes above
    each threshold: sequences with the same counts give the same LP.  sizes
    are the instance's distinct finite sizes, ascending."""
    above = len(sizes) - np.searchsorted(sizes, np.asarray(table.support), side="right")
    return table.lookup(above)
