"""Monotone guess search shared by the makespan and k-center drivers.

A driver guesses a radius R and thresholds T, solves one relaxation per
guess that minimizes the bound surrogate s, and keeps the guess with the
smallest key.  The relaxation only gets weaker as R grows (fewer pairs are
forbidden) and as any threshold grows (fewer items are counted, and s is
free), so its feasibility is monotone in R and in T.  One row scan uses
this instead of solving every guess, scan_sequence_rows: the radii go
upward until R w1 passes the best bound, and each radius is one
scan_sequence_row over a SequenceRow, its guesses grouped by count key
(guesses with one key share an LP).  A key counts, per kept coordinate,
how many items its guesses count there (or holds the negated
thresholds), and covers another when it counts at least as much
everywhere.  Every guess has the LP-free lower key (floor snapped to the
radius's grid, chain at that floor, radius index, index), which no real
key undercuts.  The keys are visited in ascending lower key of their
first guess, and the visit stops once the next lower key reaches the best
real key.  A key that covers an infeasible one is skipped unsolved.

  * Ordered norms (one threshold sequence per guess): the floor is R w1,
    the bound max(s, floor) and the chain the caller's.  The callers keep
    only their count keys, chain bound, grid and first radius: the ordered
    makespan scan (maxnorm.load._scan_ordered_guesses), the ordered
    k-center scan and the ordered knapsack residual
    (maxnorm.cluster._scan_sequences, the residual with no grid and no
    chain term).
  * Top-(ell,q) (one threshold per guess, top_row): the count key is the
    negated threshold, the floor max(R, ell^(1/q) T), the bound
    max(s^(1/q), floor), and there is no chain term, so the lower-key order
    is the (bound, R, T) tie order.  Each key covers the next, so the row
    is one chain, and _chain_start bisects it for its first feasible key,
    no further than the first key the staircase covers (the first
    feasible key of the last radius that had one, or the first radius's
    weakest) or the last key below the best, whichever comes first.  The
    visit goes on from there.  The makespan and k-center Top scans and the
    knapsack Top residual run through it (maxnorm.load._scan_top_guesses,
    maxnorm.cluster._scan_top).

The k-center scans start at the first radius whose weakest guess is
feasible, found by first_feasible_radius.  Every scan accepts exactly
the guess the exhaustive scan accepts.  A verdict that contradicts
monotonicity (a numerical edge), an infeasible key that a feasible one
of this or a smaller radius covers, sends its radius back to a full
search of the row, which solves every key it reaches.

The fair variants search one more way, walk_from_first: bisect rows of
guesses at their last (weakest) guess for the first row with a feasible
one, bisect that row, then visit every guess in order from the first
feasible one.  Given an exact LP-free verdict, it starts where the verdict
stops refuting: it gallops over the rows to the first one whose last and
first guesses are not both refuted and asks the LP once, at that row's
first guess none refutes.  Every guess before it is refuted, so where that
LP is feasible it is the first feasible guess and nothing else is asked;
otherwise the row's last guess is asked and the guesses between are
bisected, or the later rows are, each bisection of a row's guesses
starting where the verdict stops refuting (first_true: gallop over the
verdicts, ask the LP once at the first guess none refutes, bisect above it
only when that LP is infeasible).  The fair pair scan's first open pair
is mostly its first feasible one, so before its first visit a call mostly
solves only that pair's LP, which the visit reads.  The k-center radius
bisection (first_feasible_radius) starts the same way, through
first_true; the fair bound walk gives no verdict.  The walk's one
contradiction rule: a visit that meets a verdict breaking monotonicity
(its caller decides which) sends the walk back to visit every guess from
the first, trusting no verdict.  The fair pair scan
(maxnorm.fair._Separation.__call__, rows of one radius each) and the fair
bound walk (maxnorm.fair.solve_fair, rows of one bound each) run through
it.

A scan asks each probe only for its verdict, through GuessLPs.feasible.  A
driver may give GuessLPs an exact verdict that needs no LP, or None where
it cannot tell:

  * the makespan drivers give an exact count test on every probe: Hall
    counts, then an augmenting-path placement of the forced jobs through
    each machine's nested count caps (maxnorm.load._count_feasible);
  * the k-center Top and ordered scans and both knapsack residuals give a
    disjoint-ball packing bound and a greedy integral opening
    (maxnorm.cluster._cover_verdict): the ordered scans at each radius's
    weakest guess only, the Top scans there and at every threshold where
    the column bounds imply each count row (maxnorm.cluster._scan_rows);
  * the fair separation oracles give the same two tests on their guess
    pairs' base LPs (maxnorm.fair, base_verdict): the count test where it
    refutes a pair, and either test's True where its integral point meets
    the pair's Top rows.

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


def _first_unrefuted(known, lo, hi):
    """Smallest i in [lo, hi) that known(i) does not refute (is not
    False), or hi when known refutes every guess it reads; lo < hi.

    A False at i makes every guess up to i false, so it gallops up from lo
    over known (lo, lo + 1, lo + 3, lo + 7, ...) until a guess is not
    refuted, and bisects that last step for the guess just above the
    highest refuted one it saw.  It gallops, not bisects, so that it reads
    verdicts only near lo: a refutation that contradicts monotonicity (a
    numerical edge) further up is left for the caller's visits to meet."""
    refuted, step = lo - 1, 1
    while True:
        probe = min(lo + step - 1, hi - 1)
        if known(probe) is not False:
            break
        if probe == hi - 1:
            return hi
        refuted, step = probe, 2 * step
    return first_true(lambda i: known(i) is not False, refuted + 1, probe)


def first_true(pred, lo, hi, known=None):
    """Smallest i in [lo, hi) with pred(i), or hi if there is none, for a
    verdict that stays true once it holds; found by bisection.

    known(i), when given, is an exact verdict on guess i that needs no LP:
    True, False, or None where it cannot tell.  The search then starts at
    start = _first_unrefuted(known, lo, hi) and asks pred there.  It
    returns start when pred holds there and bisects the guesses above
    start otherwise, so pred is asked at most 1 + ceil(log2(hi - lo + 1))
    times."""
    if known is not None and lo < hi:
        lo = _first_unrefuted(known, lo, hi)
        if lo == hi:
            return hi
        if pred(lo):
            return lo
        lo += 1
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


CONTRADICTION = object()  # what a visit of walk_from_first returns on a verdict off monotone


def walk_from_first(ends, feasible, visit, known=None):
    """The first answer of visit(k, first) over the guesses k from the
    first feasible one on, in order, or None when no visit answers.

    The guesses 0 .. ends[-1] - 1 come in rows, row r ending before
    ends[r].  feasible(k) stays true once it holds at a row's last guess,
    for every later row's last guess, and once it holds within a row, so
    bisecting the rows at their last guess, then the start row, finds the
    first feasible guess, first.  visit returns an answer, None to go on,
    or CONTRADICTION when a verdict breaks that monotonicity; every guess
    is then visited again from 0 with first None, trusting no verdict.

    known(k), when given, is an exact LP-free verdict on guess k (True,
    False or None).  The walk then gallops over the rows to the first one
    whose last and first guesses known does not both refute, and asks
    feasible at k, the row's first guess known does not refute
    (_first_unrefuted, over the whole row).  Every guess before k is then
    refuted, so where feasible(k) holds k is the first feasible guess and
    the row's last guess is never asked.  Otherwise the row's last guess
    is asked: if it holds, the guesses between k and it are bisected from
    where known stops refuting (first_true); if not, the rows after this
    one are bisected at their last guess as without known, and then the
    start row from where known stops refuting.  The rows are bisected
    plainly there because k failing mostly means the LP refutes more than
    known does, so a row just past k's mostly fails too.  A row counts as
    refuted only where known refutes its first guess too, so that one
    wrong refutation of a last guess (a numerical edge) does not hide the
    row's feasible guesses."""
    first = _first_feasible(ends, feasible, known)
    if first is None:
        return None

    def walk(begin, first):
        for k in range(begin, ends[-1]):
            found = visit(k, first)
            if found is not None:
                return found
        return None

    found = walk(first, first)
    return walk(0, None) if found is CONTRADICTION else found


def _first_feasible(ends, feasible, known):
    """walk_from_first's first feasible guess, or None when there is none."""
    def start(r):
        return ends[r - 1] if r else 0

    row = 0
    if known is not None:
        row = _first_unrefuted(
            lambda r: False if known(ends[r] - 1) is False and known(start(r)) is False
            else None, 0, len(ends))
        if row == len(ends):
            return None
        k, last = _first_unrefuted(known, start(row), ends[row]), ends[row] - 1
        if feasible(k):
            return k
        if k < last and feasible(last):
            return first_true(feasible, k + 1, last, known)
        row += 1
    row = first_true(lambda r: feasible(ends[r] - 1), row, len(ends))
    if row == len(ends):
        return None
    return first_true(feasible, start(row), ends[row] - 1, known)


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

    def known(self, *key):
        """The LP's verdict on key without building or solving it: its
        status once solved, else the given verdict, else None."""
        if key in self.solved:
            return self.solved[key][0].status == OPTIMAL
        if self.verdict is None:
            return None
        if key not in self.verdicts:
            self.verdicts[key] = self.verdict(*key)
        return self.verdicts[key]

    def feasible(self, *key):
        """The LP's verdict on key: known(key), else the status of solving
        it now."""
        verdict = self.known(*key)
        return self(*key)[0].status == OPTIMAL if verdict is None else verdict


def weakest_thresholds(radii, thresholds):
    """Per radius, the index of its weakest Top guess: the largest threshold
    T <= R (with a relative slack of 1e-12), which counts no allowed pair."""
    return [bisect_right(thresholds, radius * (1 + 1e-12)) - 1 for radius in radii]


def first_feasible_radius(lps, count, weakest):
    """The first radius index below count whose weakest guess, count key
    weakest(ri), is feasible, or count: a bisection that starts where the
    LP-free verdicts stop refuting (first_true with GuessLPs.known)."""
    return first_true(lambda ri: lps.feasible(ri, weakest(ri)), 0, count,
                      lambda ri: lps.known(ri, weakest(ri)))


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
    bounds of those sequences at a bound (one number, or one per index),
    which do not decrease in the bound; sequence(index) gives the sequence
    a result carries.

    A sequence's bound is max(s^root, floor) for its LP's optimum s.  With
    floors None, every floor is the radius loop's R w1.  A row given floors
    (one per sequence) is a Top row (top_row): one sequence per key, the
    keys in index order a chain, each covering the next, along which the
    floors do not decrease."""

    def __init__(self, keys, chain, sequence, floors=None, root=1.0):
        keys = np.asarray(keys)
        order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(len(keys))
        ranked = keys[order]
        starts = np.flatnonzero(np.append(True, (ranked[1:] != ranked[:-1]).any(axis=1)))
        self.keys = [tuple(key) for key in ranked[starts].tolist()]
        ends = np.append(starts, len(order)).tolist()
        self.members = [order[a:b] for a, b in zip(ends, ends[1:])]  # ascending: lexsort is stable
        self.chain, self.sequence, self.floors, self.root = chain, sequence, floors, root
        self._order, self._starts = order, starts

    def visits(self, floors, ri):
        """(lower key, count key, key index) per count key, ascending: a
        sequence's lower key is (floor, chain at the floor, ri, index), its
        floor taken from floors (one number, or one per sequence), and a
        count key's is its first sequence's in that order."""
        every = np.arange(len(self._order))
        lower = np.asarray(self.chain(floors, every), float)
        floors = np.broadcast_to(floors, every.shape)
        order = np.lexsort((lower, floors))
        rank = np.empty(len(order), int)
        rank[order] = np.arange(len(order))
        first = np.minimum.reduceat(rank[self._order], self._starts)
        groups = np.argsort(first)
        sidx = order[first[groups]]
        return [((f, c, ri, s), self.keys[g], g) for f, c, s, g in
                zip(floors[sidx].tolist(), lower[sidx].tolist(), sidx.tolist(), groups.tolist())]


def top_row(radius, thresholds, ell, q):
    """The Top-(ell,q) guesses (radius, T) for the thresholds T up to radius
    as a SequenceRow: count key (-T,), so each key covers the next; no chain
    term; floor max(R, ell^(1/q) T); bound max(s^(1/q), floor); sequence T."""
    t = np.asarray(thresholds[: weakest_thresholds([radius], thresholds)[0] + 1], float)
    return SequenceRow(-t[:, None], lambda bound, sidx: np.zeros(len(sidx)),
                       thresholds.__getitem__, np.maximum(radius, ell ** (1.0 / q) * t), 1.0 / q)


def _snap_floors(grid, floors):
    """snap_to_grid at floors (one number, or an array), inf where the grid
    tops out below a floor."""
    if grid is None:
        return floors
    grid, floors = np.append(grid, np.inf), np.asarray(floors, float)
    return grid[np.searchsorted(grid, floors - 1e-9 * np.maximum(1.0, np.abs(floors)))]


def _chain_start(lps, ri, visits, best, stair):
    """Where to visit a Top row from, and the staircase after it.

    The row's keys, in visit order, form one chain, each covering the next,
    so feasibility only grows along it.  top is the first key that stair,
    a key found feasible at a smaller radius, covers, or the last key below
    the best key where that comes first (no later key can win).  If top is
    feasible, the first feasible key is bisected for below it, and it
    becomes the staircase.  Otherwise every key up to top is infeasible,
    and the row is visited from top: where stair covers it, that visit
    meets the contradiction and searches the row again."""
    end = len(visits) if best is None else first_true(lambda k: visits[k][0] >= best[0], 0,
                                                      len(visits))
    stair = visits[-1][1] if stair is None else stair
    top = min(end - 1, first_true(lambda k: _covers(stair, visits[k][1]), 0, len(visits)))
    if top < 0 or not lps.feasible(ri, visits[top][1]):
        return max(top, 0), stair
    start = first_true(lambda k: lps.feasible(ri, visits[k][1]), 0, top)
    return start, visits[start][1]


def scan_sequence_row(lps, ri, visits, real_key, best=None, prune=True, start=0):
    """Branch-and-bound over the count keys of radius index ri.

    visits are SequenceRow.visits: (lower key, count key, key index)
    triples in ascending lower-key order, visited from index start on
    (those before it are infeasible).  A count key holds one number per
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
    contradicts monotonicity; the row is then searched again from its
    first key without skipping, solving every key it reaches.  A key whose
    verdict is infeasible is not solved.
    """
    infeasible = []
    for lower, counts, g in visits[start:]:
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
    LP solution)) over the guesses of radii[first:], or None when no guess
    gives a candidate.

    row(ri) gives the SequenceRow of radius index ri: its sequences' count
    keys, grouped, the caller's chain bound and the sequence behind an
    index, and for a Top row its floors and root.  lps(ri, count key)
    solves a key's LP.  A guess's bound is max(s^root, floor) snapped to
    grid_of(R), or taken as it is when grid_of is None; radius 0 allows
    only zero-distance links, so s is 0 there.  No floor of a radius lies
    below R w1 and no bound below its floor, so each guess gets the lower
    key (floor snapped, chain at that floor, radius index, sequence
    index), which no real key undercuts; each radius is one
    scan_sequence_row over its count keys, and the scan stops at the first
    radius whose R w1 exceeds the best bound.  A solved key's sequences
    share its bound, so its best sequence is the one with the smallest
    (chain, index).  A Top row starts where _chain_start's bisection puts
    it, with the staircase carried from radius to radius.
    """
    best = stair = None
    for ri in range(first, len(radii)):
        radius = radii[ri]
        least = radius * wtop
        if best is not None and least > best[0][0]:
            break
        grid = None if grid_of is None else grid_of(radius)
        seqs = row(ri)
        floors = least if seqs.floors is None else seqs.floors

        def real_key(g, sol, svar):
            members = seqs.members[g]
            floor = least if seqs.floors is None else float(floors[members[0]])
            bound = max(max(sol.x[svar], 0.0) ** seqs.root, floor)
            if grid is not None:
                bound = snap_to_grid(grid, bound)
                if bound is None:
                    return None
            chains = seqs.chain(bound, members)
            k = int(np.argmin(chains))
            sidx = int(members[k])
            return (bound, chains[k], ri, sidx), (seqs.sequence(sidx), sol)

        visits = seqs.visits(_snap_floors(grid, floors), ri)
        start = 0
        if seqs.floors is not None:
            start, stair = _chain_start(lps, ri, visits, best, stair)
        best = scan_sequence_row(lps, ri, visits, real_key, best, start=start)
    return best
