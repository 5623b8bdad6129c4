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
augmenting-path placement of those jobs decides the rest exactly.  What
a verdict reads of p that no guess changes (each job's smallest size, each
machine's largest) is built once per scan (_JobSizes) and handed down: a
job is free exactly when its smallest size is at most the radius and the
lowest threshold, so a verdict finds the forced jobs in one pass over the
jobs and reads only their columns, and the placement scans only each job's
allowed machines.  Only guesses a visit reads are solved.

Those LPs are built over the forced jobs only (the builders given the job
sizes): a free job (one with an allowed uncounted machine) gets no column
and is placed whole on its first such machine, its home (_assignment_x,
for the accepted solution only).  On the 30x300 benchmark models HiGHS
gets a few hundred of the full model's 9,001 columns.  A home column would
appear only in its job's assignment row, and moving the job's mass onto it
raises no count row, no mass row and not s, so every verdict and optimum
is the full model's.  The vertex, and so the rounding, can differ.  HiGHS
gets the very arrays of the full model with each free job fixed on its
home.

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
from .norms import TOP, max_ordered_norm, power_sum_root, top_norm
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


def _topl_load_min_bound_lp(inst, ell, q, radius, threshold, fixed_bound=None, jobs=None):
    """Basic LP plus, per machine, a count cap of ell and a q-th-power mass
    cap over the jobs strictly larger than the threshold (lp.add_norm_rows,
    machines over jobs).  With fixed_bound None, adds a variable s replacing
    bound^q and minimizes it; returns (model, index of s).  Given the job
    sizes (jobs), the model holds the forced jobs only (_load_norm_lp)."""
    return _load_norm_lp(inst, radius, ("top", ell, q, threshold), fixed_bound, jobs,
                         threshold)


def _ordered_load_min_bound_lp(inst, sparse_weights, pos, radius, seq, fixed_bound=None,
                               jobs=None):
    """Basic LP plus, per machine, a count cap of ell over the jobs above
    each kept coordinate ell's threshold and, per weight vector, a
    telescoped weighted-mass row bounded by s (or by a fixed bound).  Given
    the job sizes (jobs), the model holds the forced jobs only
    (_load_norm_lp)."""
    return _load_norm_lp(inst, radius, ("ordered", sparse_weights, pos, seq), fixed_bound,
                         jobs, seq.values[-1])


def _load_norm_lp(inst, radius, normspec, fixed_bound, jobs, lowest):
    """The builders' model: column i * n + j is x(i, j), then s.  Given the
    instance's job sizes (jobs, a _JobSizes), only the forced jobs at the
    guess's lowest threshold get columns, one per allowed pair (machine by
    machine, jobs ascending), then s.

    That is the full model with each free job fixed whole on its home
    machine and each forbidden pair at 0, less its fixed columns and the
    rows they leave empty, which hold at any point; the solver gets the
    same arrays (lp._layout substitutes fixed columns out and drops such
    rows).  Which rows exist is still decided over every pair
    (NormCosts.largest), so a machine whose counted pairs all belong to free
    jobs keeps its mass rows as -s <= 0."""
    p = inst.p
    if jobs is None:
        model = build_basic_load_lp(inst, radius)
        costs = NormCosts(p, np.arange(p.size).reshape(p.shape))
    else:
        sub = p[:, jobs.forced(radius, lowest)]
        pairs = sub <= radius
        rows = pairs.nonzero()[1]  # per column, its job's place among the forced
        cols = np.zeros(pairs.shape, np.int64)
        cols[pairs] = np.arange(len(rows))
        model = lp_model(len(rows), lower=0.0, upper=1.0)
        model.add_rows(rows, np.arange(len(rows)), np.ones(len(rows)), EQ,
                       np.ones(sub.shape[1]))
        costs = NormCosts(np.where(pairs, sub, np.inf), cols, jobs.largest)
    return model, add_norm_rows(model, costs, normspec, fixed_bound)


class _JobSizes:
    """What every guess of a scan reads of p that depends on no guess, built
    once per scan and handed to its verdicts, builds and expansion: each
    job's smallest size (low; finite, since every job has an allowed
    machine), their largest (rmin, below which no radius fits every job) and
    each machine's largest finite size (largest, NormCosts.largest).

    A job is free at a finite radius R and lowest threshold T, that is, has
    an allowed machine where it counts at no threshold (a size counts where
    it is finite and above T), exactly when its smallest size is at most
    min(R, T); its home is the first machine where it is.  The others are
    forced."""

    def __init__(self, p):
        self.p = p
        self.low = p.min(axis=0)
        self.rmin = self.low.max()
        self.largest = np.max(p, axis=1, initial=-np.inf, where=np.isfinite(p))

    def forced(self, radius, lowest):
        """The forced jobs at this radius and lowest threshold, ascending."""
        return np.flatnonzero(self.low > min(radius, lowest))


def _assignment_x(jobs, radius, lowest, x):
    """The fractional assignment, machines over jobs, of a solution x of the
    guess LP built over the forced jobs at this radius and lowest threshold
    (given the instance's job sizes, jobs): the forced jobs' pairs from x,
    each free job whole on its home machine."""
    p = jobs.p
    cut = min(radius, lowest)
    free, forced = np.flatnonzero(jobs.low <= cut), jobs.forced(radius, lowest)
    out = np.zeros(p.shape)
    out[(p <= cut).argmax(axis=0)[free], free] = 1.0  # each free job on its home
    columns = np.zeros(p.shape, bool)
    columns[:, forced] = p[:, forced] <= radius
    out[columns] = x[: np.count_nonzero(columns)]
    return out


def _count_feasible(jobs, radius, thresholds, caps):
    """Whether the min-bound LP at this radius (a finite size), with a count
    cap of caps[k] on each machine's jobs above thresholds[k], is feasible;
    None when a cap is not a non-negative integer (the placement below needs
    integral caps).  The thresholds do not increase, so each cap's jobs
    include the previous cap's.

    Exact: a job with an allowed uncounted machine is placed there, and the
    other jobs (the forced ones) must fit through their machines' nested
    caps.  The forced jobs come from the instance's job sizes (jobs, a
    _JobSizes) in one comparison over the jobs, and only their columns of
    p are read.  Two stages decide:

      * Hall counts, one per cap level k, refute.  A forced job counted at
        level k on every allowed machine uses a slot of cap k and of every
        cap outside it, wherever it goes, so machine i takes at most the
        smaller of the number of those jobs allowed on it and min(caps[k:])
        (clipped at the forced job count).  More such jobs than the sum of
        those over the machines refute the guess.  With one cap (Top) that
        is one row sum.
      * The placement (_placed) decides the rest, both ways: what it places
        is an integral point of the LP, and where it fails no point exists.

    The Hall counts are a fast path: they refute most infeasible guesses
    for a few array operations.
    """
    if not all(float(c).is_integer() and c >= 0 for c in caps):
        return None
    tops = np.asarray(thresholds, float)
    forced = jobs.forced(radius, tops[-1])
    if forced.size == 0:
        return True
    if jobs.low[forced].max() > radius:
        return False  # a job with no allowed machine
    sub = jobs.p[:, forced]
    routes = sub <= radius  # every allowed pair of a forced job is counted
    f, depth = forced.size, len(caps)
    room = np.minimum.accumulate([min(int(c), f) for c in reversed(caps)])[::-1]
    if depth == 1:
        levels = routes.astype(np.int64) - 1  # 0 where allowed, -1 where forbidden
        held, need = np.count_nonzero(routes, axis=1)[None], f
    else:
        levels = np.full(sub.shape, -1)  # innermost cap of each allowed pair
        levels[routes] = np.searchsorted(-tops, -sub[routes], side="right")
        outer = levels.max(axis=0)  # a job uses this cap and those outside it wherever it goes
        # held[k, i]: the jobs using cap k wherever they go that machine i allows
        m = sub.shape[0]
        on, job = routes.nonzero()
        held = np.cumsum(np.bincount(outer[job] * m + on, minlength=depth * m).reshape(depth, m),
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

    Each job's allowed machines are listed once (one np.nonzero), and each
    machine keeps the jobs placed on it, so a search reads only those.
    """
    m = levels.shape[0]
    slots = [int(c) for c in caps]
    left = [slots.copy() for _ in range(m)]  # slots left per machine
    where = {}  # the machine of each job placed
    placed = [{} for _ in range(m)]  # the jobs on each machine, as dict keys
    choices = levels.T.tolist()
    counts = np.count_nonzero(levels >= 0, axis=0)
    machine_of = (levels.T >= 0).nonzero()[1].tolist()  # job by job, ascending
    ends = np.cumsum(counts).tolist()
    allowed = [machine_of[e - c:e] for e, c in zip(ends, counts.tolist())]
    for k in np.argsort(counts, kind="stable").tolist():
        searched, came, queue = [-1] * m, {k: None}, [k]  # came[j]: who takes j's place
        for job in queue:
            mine, most, at = choices[job], 0, None
            for i in allowed[job]:
                room = min(left[i][mine[i]:])
                if room > most:
                    most, at = room, i
            if most:
                break
            for i in allowed[job]:
                full = left[i].index(0, mine[i])  # the innermost full cap
                if full > searched[i]:
                    searched[i] = full
                    for other in placed[i]:
                        if other not in came and choices[other][i] <= full:
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
            if prev is not None:
                del placed[prev][job]
            placed[at][job] = None
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

    Returns the assignment.
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
    return Assignment(tuple(owner[cols_idx].tolist()))


# ---------------------------------------------------------------------------
# drivers


@dataclass
class LoadSolveResult:
    assignment: Assignment
    value: float
    certificate: dict


def _feasible_radii(jobs, sizes):
    """The positive sizes from max_j min_i p(i,j) (jobs.rmin) on (smaller
    radii make the basic LP infeasible; radius 0 only where that is 0, which
    the drivers answer by _zero_result).  sizes are the instance's distinct
    finite sizes, ascending."""
    return [v for v in sizes if v >= jobs.rmin - 1e-12 and v > 0]


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
    zero = inst.p.min(axis=0).max() == 0
    if norm.kind == TOP:
        ell, q = norm.ell, norm.q
        grid_eps = eps / 4.0 ** (1.0 / q)  # so that 4^(1/q) * (1 + grid_eps) <= 4^(1/q) + eps
        if zero:
            return _zero_result(inst, radius=0.0, bound=0.0, threshold=0.0,
                                per_machine_bound=0.0, grid_eps=grid_eps)
        bound, radius, t, x = _scan_top_guesses(inst, ell, q, grid_eps)
        limit = power_sum_root(lambda: (2 * radius ** q + bound ** q + ell * t ** q) ** (1.0 / q),
                               ((2, radius), (1, bound), (ell, t)), q)
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
    assignment = shmoys_tardos_round(x, inst.p)
    value = eval_load_objective(inst, norm, assignment)
    if value > limit * (1 + 1e-9) + 1e-12:
        raise SolverInternalError("rounded value exceeds its certificate")
    return LoadSolveResult(assignment=assignment, value=value, certificate=cert)


def _scan_top_guesses(inst, ell, q, grid_eps):
    """Smallest (bound, radius, threshold, x) over the (R, T) guesses, each
    LP built over its forced jobs; x is the accepted LP's solution over
    every pair (_assignment_x)."""
    n = inst.jobs
    root = 1.0 / q
    jobs, sizes = _JobSizes(inst.p), inst.finite_sizes()
    radii = _feasible_radii(jobs, sizes)
    thresholds = single_threshold_candidates(sizes)

    def build(ri, key):
        return _topl_load_min_bound_lp(inst, ell, q, radii[ri], -key[0], jobs=jobs)

    lps = GuessLPs(build, solve_lp,
                   lambda ri, key: _count_feasible(jobs, radii[ri], (-key[0],), (ell,)))
    best = scan_sequence_rows(lps, radii, 1.0,
                              lambda radius: geometric_grid(radius, n ** root * radius, grid_eps),
                              lambda ri: top_row(radii[ri], thresholds, ell, q))
    if best is None:
        raise SolverInternalError("guessing grids failed to cover the instance")
    (bound, _, ri, _), (t, sol) = best
    return bound, radii[ri], t, _assignment_x(jobs, radii[ri], t, sol.x)


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
    chain bound, radius index, sequence index), each count key's LP built
    over its forced jobs; x is the accepted LP's solution over every pair
    (_assignment_x)."""
    n = inst.jobs
    jobs, sizes = _JobSizes(inst.p), inst.finite_sizes()
    radii = _feasible_radii(jobs, sizes)
    reps = {}  # (radius index, count key) -> (table, index of its first sequence)

    def rep(ri, counts):
        table, k = reps[ri, counts]
        return table.sequence(k)

    def build(ri, counts):
        return _ordered_load_min_bound_lp(inst, sparse, pos, radii[ri], rep(ri, counts),
                                          jobs=jobs)

    lps = GuessLPs(build, solve_lp,
                   lambda ri, counts: _count_feasible(jobs, radii[ri], rep(ri, counts).values,
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
    # the sequences of a count key count the same sizes above their last
    # threshold, so seq frees the jobs its key's LP was built without
    return bound, radii[ri], seq, _assignment_x(jobs, radii[ri], seq.values[-1], sol.x)


def _count_keys(table, sizes):
    """Per sequence of a SequenceTable (a row each), the count of sizes above
    each threshold: sequences with the same counts give the same LP.  sizes
    are the instance's distinct finite sizes, ascending."""
    above = len(sizes) - np.searchsorted(sizes, np.asarray(table.support), side="right")
    return table.lookup(above)
