"""Monotone guess search shared by the makespan and k-center drivers.

A driver guesses a radius R and thresholds T, solves one relaxation per
guess that minimizes the bound surrogate s, and keeps the guess with the
smallest key.  The relaxation only gets weaker as R grows (fewer pairs are
forbidden) and as any threshold grows (fewer items are counted, and s is
free), so its feasibility is monotone in R and in T.  Two scans use this
instead of solving every guess:

  * scan_top_rows (one threshold per guess): each radius bisects its
    thresholds for the first feasible one, searching no higher than the
    previous radius's first feasible index (the staircase), then visits
    the thresholds upward.  The row stops once a candidate's bound equals
    its snapped floor max(R, ell^(1/q) T): every later T of the row snaps
    at least as high and loses the tie on T.
  * scan_sequence_rows (one threshold sequence per guess, the ordered
    radius loop): the radii go upward until R w1 passes the best bound,
    and each radius is one scan_sequence_row over a SequenceRow, its
    sequences grouped by count key (sequences with one key share an LP).
    Every sequence has the LP-free lower key (floor, chain at the floor,
    radius index, sequence index), with floor = R w1 snapped to the
    radius's grid, which no real key undercuts.  The keys are visited in
    ascending lower key of their first sequence, and the visit stops once
    the next lower key reaches the best real key.  A key counting at least
    as many items as an infeasible one at every kept coordinate is skipped
    unsolved.  Its three callers keep only their count keys, chain bound,
    grid and first radius: the ordered makespan scan
    (maxnorm.load._scan_ordered_guesses), the ordered k-center scan and
    the ordered knapsack residual (maxnorm.cluster._scan_ordered_guesses
    and _residual_guess, the latter with no grid and no chain term).

Both accept exactly the guess the exhaustive scan accepts.  A verdict that
contradicts monotonicity (a numerical edge) sends its radius back to a full
search of the row: an infeasible threshold past the bisected start, or an
infeasible sequence covered by a feasible one of this or a smaller radius.
The makespan Top and ordered scans, the k-center Top and ordered scans and
both knapsack residuals all run through these two.

A scan asks each probe only for its verdict, through GuessLPs.feasible.  A
driver may give GuessLPs an exact verdict that needs no LP, or None where
it cannot tell:

  * the makespan drivers give a max-flow test on every probe
    (maxnorm.load._count_feasible);
  * the k-center Top and ordered scans and both knapsack residuals give,
    at each radius's weakest guess only, a disjoint-ball packing bound and
    a greedy integral opening (maxnorm.cluster._cover_verdict).

A probe is then solved only when a visit reads its solution, and the solved
model is the same one, so every solution read is the LP's own.  A solved
guess's verdict is its LP's status, and a feasible verdict counts as proof
of feasibility when a row checks for contradictions.  The full-search
fallbacks trust LPs only: they solve every guess they reach, whatever its
verdict.
"""

from bisect import bisect_right

import numpy as np

from .lp import OPTIMAL
from .sparsify import snap_to_grid


def first_true(pred, lo, hi):
    """Smallest i in [lo, hi) with pred(i), or hi if there is none, for a
    verdict that stays true once it holds; found by bisection."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


class GuessLPs:
    """The relaxations of one scan, each built and solved at most once per guess.

    solve is the caller's solve_lp, looked up in the caller's module when the
    scan starts, so whatever is bound under that name sees every solve.
    verdict, when given, maps a guess key to whether its LP is feasible, or
    to None to leave that guess to the LP; each key's verdict is asked once."""

    def __init__(self, build, solve, verdict=None):
        self.build = build  # guess key -> (model, index of s)
        self.solve = solve
        self.verdict = verdict
        self.solved = {}
        self.verdicts = {}

    def __call__(self, *key):
        if key not in self.solved:
            model, sidx = self.build(*key)
            self.solved[key] = (self.solve(model), sidx)
        return self.solved[key]

    def feasible(self, *key):
        """The LP's verdict on key: its status once solved, else the given
        verdict, else the status of solving it now."""
        if key not in self.solved and self.verdict is not None:
            if key not in self.verdicts:
                self.verdicts[key] = self.verdict(*key)
            if self.verdicts[key] is not None:
                return self.verdicts[key]
        return self(*key)[0].status == OPTIMAL


def weakest_thresholds(radii, thresholds):
    """Per radius, the index of its weakest Top guess: the largest threshold
    T <= R (with a relative slack of 1e-12), which counts no allowed pair."""
    return [bisect_right(thresholds, radius * (1 + 1e-12)) - 1 for radius in radii]


def scan_top_rows(lps, radii, thresholds, ell, q, grid_of, first=None):
    """Smallest (bound, radius, threshold, LP solution) over the Top guesses,
    or None when no guess gives a candidate.

    lps(ri, ti) solves the guess (radii[ri], thresholds[ti]); a radius tries
    the thresholds up to itself.  A guess's bound is max(s^(1/q), R,
    ell^(1/q) T) snapped to grid_of(R), or taken as it is when grid_of is
    None.  first is the index of a radius known feasible at its weakest LP
    (its largest threshold); None bisects the radii for it.
    """
    root = 1.0 / q
    scale = ell ** root
    ends = [ti + 1 for ti in weakest_thresholds(radii, thresholds)]
    if first is None:
        first = first_true(lambda ri: lps.feasible(ri, ends[ri] - 1), 0, len(radii))
    if first == len(radii):
        return None
    known = ends[first] - 1  # a threshold index feasible at a smaller radius
    best = None
    for ri in range(first, len(radii)):
        radius = radii[ri]
        if best is not None and radius > best[0]:
            break
        grid = None if grid_of is None else grid_of(radius)
        # from `limit` on, ell^(1/q) t exceeds the best bound and ends the row
        limit = ends[ri] if best is None else first_true(
            lambda ti: scale * thresholds[ti] > best[0], 0, ends[ri])
        hi = min(known, limit - 1)
        if lps.feasible(ri, hi):
            start = known = first_true(lambda ti: lps.feasible(ri, ti), 0, hi)
        elif hi == known:
            start = 0  # infeasible although feasible at a smaller radius
        else:
            continue

        def snap(value):
            return value if grid is None else snap_to_grid(grid, value)

        def visit(begin):
            out = best
            for ti in range(begin, limit):
                t = thresholds[ti]
                if out is not None and scale * t > out[0]:
                    break
                sol, sidx = lps(ri, ti)
                if sol.status != OPTIMAL:
                    if begin:  # not monotone after all: search the whole row
                        return visit(0)
                    continue
                floor = max(radius, scale * t)
                bound = snap(max(max(sol.x[sidx], 0.0) ** root, floor))
                if bound is None:
                    continue
                if out is None or (bound, radius, t) < out[:3]:
                    out = (bound, radius, t, sol)
                if bound == snap(floor):  # a larger T snaps at least as high, loses the tie
                    break
            return out

        best = visit(start)
    return best


def _covers(a, b):
    return all(x >= y for x, y in zip(a, b))


def _proven_feasible(lps, ri, key):
    """Whether a guess known feasible, at radius index ri or below, covers
    key, which makes key feasible by monotonicity.  A guess is known
    feasible when its LP was solved to optimality or its verdict was
    feasible: a verdict is exact, so an LP refuting one, key's own
    included, is a contradiction too."""
    known = [k for k, (sol, _) in lps.solved.items() if sol.status == OPTIMAL]
    known += [k for k, feasible in lps.verdicts.items() if feasible]
    return any(r <= ri and _covers(k, key) for r, k in known)


class SequenceRow:
    """The threshold sequences of one radius, grouped by count key.

    keys holds one count key per sequence (a row each, numbers); the
    sequences sharing a key share its LP.  self.keys lists the distinct
    keys as tuples of Python numbers, and self.members[g] the indices of
    key g's sequences, ascending.  chain(bound, indices) gives the chain
    bounds of those sequences at a bound, which do not decrease in the
    bound; sequence(index) gives the sequence a result carries."""

    def __init__(self, keys, chain, sequence):
        keys = np.asarray(keys)
        order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(len(keys))
        ranked = keys[order]
        starts = np.flatnonzero(np.append(True, (ranked[1:] != ranked[:-1]).any(axis=1)))
        self.keys = [tuple(key) for key in ranked[starts].tolist()]
        self.members = np.split(order, starts[1:])  # lexsort is stable: ascending
        self.chain, self.sequence = chain, sequence
        self._order, self._starts = order, starts

    def visits(self, floor, ri):
        """(lower key, count key, key index) per count key, ascending: a
        sequence's lower key is (floor, chain at the floor, ri, index), and
        a count key's is its first sequence's in that order."""
        lower = self.chain(floor, np.arange(len(self._order)))
        order = np.argsort(lower, kind="stable")
        rank = np.empty(len(order), int)
        rank[order] = np.arange(len(order))
        first = np.minimum.reduceat(rank[self._order], self._starts)
        out = []
        for g in np.argsort(first).tolist():
            sidx = int(order[first[g]])
            out.append(((floor, lower[sidx], ri, sidx), self.keys[g], g))
        return out


def scan_sequence_row(lps, ri, visits, real_key, best=None, prune=True):
    """Branch-and-bound over the count keys of radius index ri.

    visits are SequenceRow.visits: (lower key, count key, key index)
    triples in ascending lower-key order.  A count key holds one number per
    kept coordinate that grows as its sequences count more items there (the
    count of sizes above the threshold, or the negated threshold): lps(ri,
    count key) solves the key's LP, and a key counting at least as much
    everywhere as an infeasible one is infeasible too, so it is skipped
    unsolved.  real_key(key index, solution, index of s) gives the best
    (key, result) of the key's sequences, or None for no candidate; no
    sequence's key lies below its lower key.  Returns the best (key, result)
    of best and this row's sequences: the visit stops once the next lower
    key reaches the best key, so no unvisited sequence could have won.
    Visiting a count key at its first sequence and taking its best sequence
    at once solves the same LPs in the same order as visiting every
    sequence: a later sequence of a key reached before the stop has the
    key's verdict, and one past the stop cannot win.  An infeasible verdict
    on a key that a feasible one of this or a smaller radius covers
    contradicts monotonicity; the row is then searched again without
    skipping, solving every key it reaches.  A key whose verdict is
    infeasible is not solved.
    """
    infeasible = []
    for lower, counts, g in visits:
        if best is not None and lower >= best[0]:
            break
        if prune and any(_covers(counts, bad) for bad in infeasible):
            continue
        sol, sidx = lps(ri, counts) if not prune or lps.feasible(ri, counts) else (None, None)
        if sol is None or sol.status != OPTIMAL:
            if prune and _proven_feasible(lps, ri, counts):
                return scan_sequence_row(lps, ri, visits, real_key, best, prune=False)
            infeasible.append(counts)
            continue
        cand = real_key(g, sol, sidx)
        if cand is not None and (best is None or cand[0] < best[0]):
            best = cand
    return best


def scan_sequence_rows(lps, radii, wtop, grid_of, row, first=0):
    """Smallest ((bound, chain, radius index, sequence index), (sequence,
    LP solution)) over the threshold-sequence guesses of radii[first:], or
    None when no guess gives a candidate.

    row(ri) gives the SequenceRow of radius index ri: its sequences' count
    keys, grouped, the caller's chain bound and the sequence behind an
    index.  lps(ri, count key) solves a key's LP.  A guess's bound is
    max(s, R w1) snapped to grid_of(R), or taken as it is when grid_of is
    None; radius 0 allows only zero-distance links, so its guesses sit at
    bound 0.  No bound of a radius lies below its floor, R w1 snapped, so
    each guess gets the lower key (floor, chain at the floor, radius index,
    sequence index), which no real key undercuts; each radius is one
    scan_sequence_row over its count keys, and the scan stops at the first
    radius whose R w1 exceeds the best bound.  A solved key's sequences
    share its bound, so its best sequence is the one with the smallest
    (chain, index).
    """
    best = None
    for ri in range(first, len(radii)):
        radius = radii[ri]
        least = radius * wtop
        if best is not None and least > best[0][0]:
            break
        grid = None if grid_of is None else grid_of(radius)
        seqs = row(ri)
        floor = least if grid is None else snap_to_grid(grid, least)

        def real_key(g, sol, svar):
            bound = 0.0 if radius == 0.0 else max(max(sol.x[svar], 0.0), least)
            if grid is not None:
                bound = snap_to_grid(grid, bound)
                if bound is None:
                    return None
            members = seqs.members[g]
            chains = seqs.chain(bound, members)
            k = int(np.argmin(chains))
            sidx = int(members[k])
            return (bound, chains[k], ri, sidx), (seqs.sequence(sidx), sol)

        best = scan_sequence_row(lps, ri, seqs.visits(floor, ri), real_key, best)
    return best
