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
  * scan_sequence_row (one threshold sequence per guess): the sequences of
    a radius are visited in ascending order of an LP-free lower key that
    no real key undercuts, and the visit stops once the next lower key
    reaches the best real key.  A sequence counting at least as many items
    as an infeasible one at every kept coordinate is skipped unsolved.

Both accept exactly the guess the exhaustive scan accepts.  A verdict that
contradicts monotonicity (a numerical edge) sends its radius back to a full
search of the row: an infeasible threshold past the bisected start, or an
infeasible sequence covered by a feasible one of this or a smaller radius.
The makespan Top and ordered scans, the k-center Top and ordered scans and
the knapsack residual all run through these two.

A scan asks each probe only for its verdict, through GuessLPs.feasible.  A
driver may give GuessLPs an exact verdict that needs no LP, or None where
it cannot tell:

  * the makespan drivers give a max-flow test on every probe
    (maxnorm.load._count_feasible);
  * the k-center Top and ordered scans and the knapsack Top residual give,
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


def scan_sequence_row(lps, ri, guesses, real_key, best=None, prune=True):
    """Branch-and-bound over the threshold sequences of radius index ri.

    guesses are (lower key, count key, payload) triples.  The count key holds
    one number per kept coordinate that grows as the sequence counts more
    items there (the count of sizes above the threshold, or the negated
    threshold): lps(ri, count key) solves the sequence's LP, and a sequence
    counting at least as much everywhere as an infeasible one is infeasible
    too, so it is skipped unsolved.  real_key(payload, solution, index of s)
    gives (key, result), or None for no candidate; a key never lies below
    its lower key.  Returns the best (key, result) of best and this row's
    sequences: the visit goes in ascending lower-key order and stops once
    the next lower key reaches the best key, so no unvisited sequence could
    have won.  An infeasible verdict on a sequence that a feasible one of
    this or a smaller radius covers contradicts monotonicity; the row is
    then searched again without skipping, solving every sequence it reaches.
    A sequence whose verdict is infeasible is not solved.
    """
    infeasible = []
    for lower, counts, payload in sorted(guesses, key=lambda g: g[0]):
        if best is not None and lower >= best[0]:
            break
        if prune and any(_covers(counts, bad) for bad in infeasible):
            continue
        sol, sidx = lps(ri, counts) if not prune or lps.feasible(ri, counts) else (None, None)
        if sol is None or sol.status != OPTIMAL:
            if prune and _proven_feasible(lps, ri, counts):
                return scan_sequence_row(lps, ri, guesses, real_key, best, prune=False)
            infeasible.append(counts)
            continue
        cand = real_key(payload, sol, sidx)
        if cand is not None and (best is None or cand[0] < best[0]):
            best = cand
    return best
