"""The Top-(ell,q) row scan as it was before the Top guesses became
SequenceRows of maxnorm.guess.scan_sequence_rows: a staircase bisection of
each radius's thresholds, then an upward visit that breaks at the snapped
floor.  Kept, with the three drivers that ran it, as the test reference
for the merged scan: both must accept the same guess.  The drivers look
every program name up through the cluster or load module at call time, so
a test that replaces `cluster.solve_lp` or `cluster._center_lp` (or their
load counterparts) reaches both implementations.
"""

import functools

import _load_builders
from maxnorm import cluster, load
from maxnorm.guess import GuessLPs, first_true, weakest_thresholds
from maxnorm.lp import OPTIMAL
from maxnorm.sparsify import geometric_grid, single_threshold_candidates, snap_to_grid


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


def _center_lps(core, budget, ell, q, radii, thresholds):
    """The k-center Top GuessLPs keyed (radius index, threshold index): the
    radius's cover verdict at its weakest threshold and wherever the count
    rows are implied, None at every other probe."""
    weakest = weakest_thresholds(radii, thresholds)
    cover = functools.cache(lambda ri: cluster._cover_verdict(core, budget, radii[ri],
                                                              coverage=True))

    def verdict(ri, ti):
        if ti == weakest[ri] or cluster._count_rows_implied(core, radii[ri], thresholds[ti], ell):
            return cover(ri)
        return None

    def build(ri, ti):
        return cluster._center_lp(core, budget, ("top", ell, q, thresholds[ti]), radii[ri])

    return GuessLPs(build, cluster.solve_lp, verdict)


def center_scan_top_guesses(core, budget, ell, q, eps):
    """cluster._scan_top_guesses over scan_top_rows."""
    root = 1.0 / q
    grid_eps = eps / (3 * 4.0 ** root)
    radii = sorted(set(core.distances()) | {0.0})
    thresholds = single_threshold_candidates(core.distances())
    r0 = max(core.r0, 1)
    lps = _center_lps(core, budget, ell, q, radii, thresholds)
    best = scan_top_rows(lps, radii, thresholds, ell, q, lambda radius: [0.0] if radius == 0.0
                         else geometric_grid(radius, r0 ** root * radius, grid_eps))
    if best is None:
        raise cluster.InfeasibleError("no guess satisfies the relaxation; instance is infeasible")
    bound, radius, threshold, sol = best
    return bound, radius, threshold, cluster._lp_parts(core, sol.x)


def residual_top_guess(core, light, wt, w_res, pre, radius, norm, thresholds):
    """The Top branch of cluster._residual_guess over scan_top_rows."""
    rcore = cluster._residual_core(core, light, pre)
    budget = (cluster.KNAPSACK, wt, w_res)
    ell, q = norm.ell, norm.q
    lps = _center_lps(rcore, budget, ell, q, [radius], thresholds)
    found = scan_top_rows(lps, [radius], thresholds, ell, q, None)
    if found is None:
        return None
    bhat, _, t, sol = found
    return bhat, (rcore, ("top", ell, q, t), cluster._lp_parts(rcore, sol.x))


def load_scan_top_guesses(inst, ell, q, grid_eps):
    """load._scan_top_guesses over scan_top_rows."""
    m, n = inst.machines, inst.jobs
    root = 1.0 / q
    jobs, sizes = load._JobSizes(inst.p), inst.finite_sizes()
    radii = load._feasible_radii(jobs, sizes)
    thresholds = single_threshold_candidates(sizes)

    def build(ri, ti):
        return _load_builders._fix_free_jobs(
            inst, radii[ri], thresholds[ti],
            load._topl_load_min_bound_lp(inst, ell, q, radii[ri], thresholds[ti]))

    lps = GuessLPs(build, load.solve_lp, lambda ri, ti: load._count_feasible(
        jobs, radii[ri], (thresholds[ti],), (ell,)))
    best = scan_top_rows(lps, radii, thresholds, ell, q,
                         lambda radius: geometric_grid(radius, n ** root * radius, grid_eps),
                         first=0)
    if best is None:
        raise load.SolverInternalError("guessing grids failed to cover the instance")
    bound, radius, t, sol = best
    return bound, radius, t, sol.x[: m * n].reshape(m, n)
