"""Exhaustive guess scans: one LP per guess, infeasible guesses included.

These are the k-center, makespan and fair scans as they were before the
monotone search, and the knapsack driver's walk as it was before pattern
runs and the radius floor, kept as the reference the search is tested
against.  They look every program name but snap_to_grid up through the
cluster, load or fair module at call time, so a test that replaces
`cluster.solve_lp` or `cluster._center_lp` (or their load and fair
counterparts) reaches both implementations.
"""

import itertools
import math
from bisect import bisect_right

import numpy as np

import _load_builders
from _threshold_helpers import sequence_keys
from maxnorm import cluster, fair, load
from maxnorm.lp import OPTIMAL
from maxnorm.sparsify import snap_to_grid, telescoped_deltas


def _scan_top_guesses(core, budget, ell, q, eps, coverage=True):
    root = 1.0 / q
    grid_eps = eps / (3 * 4.0 ** root)
    radii = sorted(set(core.distances()) | {0.0})
    thresholds = cluster.single_threshold_candidates(core.distances())
    r0 = max(core.r0, 1)
    best = None
    for radius in radii:
        if best is not None and radius > best[0]:
            break
        grid = [0.0] if radius == 0.0 else \
            cluster.geometric_grid(radius, r0 ** root * radius, grid_eps)
        for t in thresholds:
            if t > radius * (1 + 1e-12):
                break
            if best is not None and ell ** root * t > best[0]:
                break
            model, sidx = cluster._center_lp(core, budget, ("top", ell, q, t), radius,
                                             coverage=coverage)
            sol = cluster.solve_lp(model)
            if sol.status != cluster.OPTIMAL:
                continue
            bhat = max(max(sol.x[sidx], 0.0) ** root, radius, ell ** root * t)
            bound = snap_to_grid(grid, bhat)
            if bound is None:
                continue
            cand = (bound, radius, t, cluster._lp_parts(core, sol.x))
            if best is None or cand[:3] < best[:3]:
                best = cand
    if best is None:
        raise cluster.InfeasibleError("no guess satisfies the relaxation; instance is infeasible")
    return best


def _scan_ordered_guesses(core, budget, weights, eps, coverage=True):
    r0 = max(core.r0, 1)
    sparse, pos = cluster.sparsify_weights(weights, r0)
    wtop = max(float(w[0]) for w in sparse)
    radii = sorted(set(core.distances()) | {0.0})
    best = None
    if wtop == 0.0:
        # zero objective: any feasible opening works; reuse the top driver at ell=1
        b = _scan_top_guesses(core, budget, 1, 1.0, eps, coverage=coverage)
        _, radius, _, xuy = b
        return (0.0, 0.0, radius, None, sparse, pos, xuy)
    for radius in radii:
        if best is not None and radius * wtop > best[0]:
            break
        if radius == 0.0:
            grid = [0.0]
            seqs = [None]
        else:
            grid = cluster.geometric_grid(radius * wtop, r0 * radius * wtop, eps)
            seqs = cluster.enumerate_threshold_sequences(radius, r0)
        for seq in seqs:
            if seq is None:
                normspec = ("top", r0, 1.0, 0.0)  # radius 0: only zero-distance links
                model, sidx = cluster._center_lp(core, budget, normspec, radius,
                                                 coverage=coverage)
            else:
                model, sidx = cluster._center_lp(core, budget, ("ordered", sparse, pos, seq),
                                                 radius, coverage=coverage)
            sol = cluster.solve_lp(model)
            if sol.status != cluster.OPTIMAL:
                continue
            bound = snap_to_grid(grid, max(max(sol.x[sidx], 0.0), radius * wtop)) \
                if seq is not None else 0.0
            if bound is None:
                continue
            chain = _ordered_chain(sparse, pos, seq, radius, bound) \
                if seq is not None else 0.0
            cand = (bound, chain, radius, seq, sparse, pos, cluster._lp_parts(core, sol.x))
            if best is None or cand[:2] < best[:2]:
                best = cand
    if best is None:
        raise cluster.InfeasibleError("no guess satisfies the relaxation; instance is infeasible")
    return best


def _ordered_chain(sparse, pos, seq, radius, bound):
    """Twice the telescoped rounding bound, maximized over weight vectors:
    one sequence's k-center chain, summed term by term."""
    worst = 0.0
    tvals = seq.as_dict()
    for w, delta in zip(sparse, telescoped_deltas(sparse, pos)):
        tail = 0.0
        for d, ell in zip(delta, pos.indices):
            tail += d * (ell - 1) * tvals[ell]
        worst = max(worst, 3 * bound + 6 * radius * float(w[0]) + 3 * tail)
    return 2.0 * worst


def _connections_within(tables, bound):
    """Per client, the most nearest connections whose prefix norm stays within
    the bound; a prefix table never decreases, so it is bisected."""
    return tuple(bisect_right(table, bound + 1e-12) - 1 for table in tables)


def solve_knapsack_center(kinst, norm, eps, visit=None):
    """The knapsack driver's walk bound by bound: every heavy set, every
    radius from 0 and every grid bound below the best, with each client's
    pre-connections bisected at each bound.  visit(s0, radius, pre), when
    given, sees every pattern the walk asks the residual about."""
    if not 0 < eps < math.inf:
        raise cluster.InvalidInputError("eps must be positive and finite")
    base = kinst.base
    core = cluster.core_of(base)
    wt, budget_w = np.asarray(kinst.wt, float), float(kinst.budget)
    nf, nc = base.n_facilities, base.n_clients
    heavy = [i for i in range(nf) if wt[i] >= eps * budget_w and wt[i] > 0]
    light = [i for i in range(nf) if i not in set(heavy)]
    max_heavy = int(math.floor(1.0 / eps))
    s0_guesses = []
    for size in range(0, min(max_heavy, len(heavy)) + 1):
        for combo in itertools.combinations(heavy, size):
            if sum(wt[i] for i in combo) <= budget_w + 1e-9:
                s0_guesses.append(combo)

    sparsified = None
    if norm.kind == cluster.TOP:
        root = 1.0 / norm.q
        scale_lo, scale_hi = 1.0, max(core.r0, 1) ** root
    else:
        sparse, pos = cluster.sparsify_weights(norm.weights, max(core.r0, 1))
        wtop = max(float(w[0]) for w in sparse)
        sparsified = (sparse, pos, wtop)
        if wtop == 0.0:
            scale_lo = scale_hi = 1.0
        else:
            scale_lo, scale_hi = wtop, max(core.r0, 1) * wtop

    radii = sorted(set(core.distances()) | {0.0})
    thresholds = cluster.single_threshold_candidates(core.cf[:, light].ravel())
    best = None  # (bound, idx, payload)
    for s0_idx, s0 in enumerate(s0_guesses):
        w_res = budget_w - float(sum(wt[i] for i in s0))
        for radius in radii:
            if best is not None and radius * scale_lo > best[0]:
                break
            grid = [0.0] if radius == 0.0 else cluster.geometric_grid(
                radius * scale_lo, scale_hi * radius, cluster._KNAPSACK_GRID_EPS)
            neighbor_dists = [sorted(float(core.cf[j, i]) for i in s0
                                     if core.cf[j, i] <= radius) for j in range(nc)]
            tables = [cluster._prefix_norm_table(norm, nd, int(core.r[j]))
                      for j, nd in enumerate(neighbor_dists)]
            config_cache = {}
            for bound in grid:
                if best is not None and bound >= best[0]:
                    break
                pre = _connections_within(tables, bound)
                if pre not in config_cache:
                    if visit is not None:
                        visit(s0, radius, pre)
                    config_cache[pre] = cluster._residual_guess(core, light, wt, w_res, pre,
                                                                radius, norm, thresholds,
                                                                sparsified)
                found = config_cache[pre]
                if found is None:
                    continue
                bhat, payload = found
                if bound >= bhat - 1e-12:
                    cand = (bound, (s0_idx, radius), (s0, radius, pre, payload))
                    if best is None or cand[0] < best[0]:
                        best = cand
                    break
    if best is None:
        raise cluster.InfeasibleError("knapsack instance admits no guessed opening")
    bound, _, (s0, radius, pre, payload) = best
    return cluster._finish_knapsack(kinst, norm, eps, core, wt, s0, radius, bound, pre, payload)


def _residual_guess(core, light, wt, w_res, pre, radius, norm, thresholds, sparsified):
    """Cheapest attainable bound for the light-facility residual instance
    under one pre-connection pattern; returns (bound estimate, payload).
    The Top thresholds and the sparsified weights are derived here again;
    the given ones go unread."""
    l_res = np.maximum(core.l - np.array(pre), 0)
    r_res = core.r - np.array(pre)
    if np.any(r_res < 0):
        return None
    m_res = max(0, core.m - int(sum(pre)))
    rcore = cluster.CenterCore(cf=core.cf[:, light], l=l_res, r=np.array(r_res),
                               m=m_res, facility_ids=tuple(core.facility_ids[i] for i in light))
    budget = (cluster.KNAPSACK, wt, w_res)
    best = None
    if norm.kind == cluster.TOP:
        root = 1.0 / norm.q
        thresholds = cluster.single_threshold_candidates(rcore.distances())
        for t in thresholds:
            if t > radius * (1 + 1e-12):
                break
            model, sidx = cluster._center_lp(rcore, budget, ("top", norm.ell, norm.q, t),
                                             radius)
            sol = cluster.solve_lp(model)
            if sol.status != cluster.OPTIMAL:
                continue
            bhat = max(max(sol.x[sidx], 0.0) ** root, radius, norm.ell ** root * t)
            if best is None or bhat < best[0]:
                best = (bhat, (rcore, ("top", norm.ell, norm.q, t),
                               cluster._lp_parts(rcore, sol.x)))
    else:
        r0 = max(core.r0, 1)
        sparse, pos = cluster.sparsify_weights(norm.weights, r0)
        wtop = max(float(w[0]) for w in sparse)
        seqs = [None] if radius == 0.0 else cluster.enumerate_threshold_sequences(radius, r0)
        for seq in seqs:
            spec = ("top", r0, 1.0, 0.0) if seq is None else ("ordered", sparse, pos, seq)
            model, sidx = cluster._center_lp(rcore, budget, spec, radius)
            sol = cluster.solve_lp(model)
            if sol.status != cluster.OPTIMAL:
                continue
            bhat = max(max(sol.x[sidx], 0.0), radius * wtop)
            if best is None or bhat < best[0]:
                best = (bhat, (rcore, spec, cluster._lp_parts(rcore, sol.x)))
    return best


# ---------------------------------------------------------------------------
# makespan: the scans of solve_topl_makespan and solve_ordered_makespan, each
# guess LP with its free jobs fixed as the scans once fixed them
# (_load_builders._fix_free_jobs)


def _feasible_radii(inst):
    """Radii below max_j min_i p(i,j) make the basic LP infeasible; skip them."""
    rmin = max(min(inst.p[i, j] for i in range(inst.machines) if np.isfinite(inst.p[i, j]))
               for j in range(inst.jobs))
    return [v for v in inst.finite_sizes() if v >= rmin - 1e-12]


def load_scan_top_guesses(inst, ell, q, grid_eps):
    m, n = inst.machines, inst.jobs
    root = 1.0 / q
    radii = _feasible_radii(inst)
    thresholds = load.single_threshold_candidates(inst.finite_sizes())
    best = None  # (bound, radius, threshold, x)
    for radius in radii:
        if best is not None and radius > best[0]:
            break
        grid = load.geometric_grid(radius, n ** root * radius, grid_eps)
        for t in thresholds:
            if t > radius * (1 + 1e-12):
                break
            if best is not None and ell ** root * t > best[0]:
                break
            model, sidx = _load_builders._fix_free_jobs(
                inst, radius, t, load._topl_load_min_bound_lp(inst, ell, q, radius, t))
            sol = load.solve_lp(model)
            if sol.status != OPTIMAL:
                continue
            bhat = max(max(sol.x[sidx], 0.0) ** root, radius, ell ** root * t)
            bound = snap_to_grid(grid, bhat)
            if bound is None:
                continue
            cand = (bound, radius, t, sol.x[: m * n].reshape(m, n))
            if best is None or cand[:3] < best[:3]:
                best = cand
    if best is None:
        raise load.SolverInternalError("guessing grids failed to cover the instance")
    return best


def load_scan_ordered_guesses(inst, sparse, pos, wtop, eps):
    m, n = inst.machines, inst.jobs
    radii = _feasible_radii(inst)
    sizes = inst.finite_sizes()
    best = None  # (bound, chain, ridx, sidx, radius, seq, x)
    for ridx, radius in enumerate(radii):
        if best is not None and radius * wtop > best[0]:
            break
        grid = load.geometric_grid(radius * wtop, n * radius * wtop, eps)
        cache = {}
        for sidx, seq in enumerate(load.enumerate_threshold_sequences(radius, n)):
            key = sequence_keys(sizes, [seq.values])[0]
            if key in cache:
                sval, x = cache[key]
            else:
                model, svar = _load_builders._fix_free_jobs(
                    inst, radius, seq.values[-1],
                    load._ordered_load_min_bound_lp(inst, sparse, pos, radius, seq))
                sol = load.solve_lp(model)
                if sol.status != OPTIMAL:
                    cache[key] = (None, None)
                    continue
                sval, x = float(sol.x[svar]), sol.x[: m * n].reshape(m, n)
                cache[key] = (sval, x)
            if sval is None:
                continue
            bound = snap_to_grid(grid, max(sval, radius * wtop))
            if bound is None:
                continue
            gap = load.sparsified_gap_bound(sparse, pos, seq)
            chain = 4 * radius * wtop + 2 * bound + 2 * gap
            cand = (bound, chain, ridx, sidx, radius, seq, x)
            if best is None or cand[:4] < best[:4]:
                best = cand
    if best is None:
        raise load.SolverInternalError("guessing grids failed to cover the instance")
    bound, chain, _, _, radius, seq, x = best
    return bound, radius, seq, x


# ---------------------------------------------------------------------------
# fair: the guess pairs, the separation scan and the bound walk


def fair_guess_pairs(values, bound, ell, q):
    root = 1.0 / q
    tcap = bound / ell ** root
    radii = sorted({v for v in values if v <= bound} | {float(bound)})
    thresholds = sorted({0.0} | {v for v in values if v <= tcap} | {float(tcap)})
    pairs, seen = [], set()
    for radius in radii:
        for t in thresholds:
            key = (sum(1 for v in values if v <= radius),
                   sum(1 for v in values if v > t))
            if key in seen:
                continue
            seen.add(key)
            pairs.append((radius, t))
    return pairs


def fair_separation_scan(oracle, point_vec):
    """Every guess pair of the oracle in scan order, solving each pair's
    LP; the LP builders and the rounding are the oracle's own."""
    point = oracle._point(point_vec)
    eta = fair.compute_eta(point)
    weighted = oracle._weighted_row(point, eta)
    shaky = False
    for radius, t in oracle.pairs:
        if weighted is None:
            continue  # zero alpha cannot reach a positive threshold
        sol = fair.solve_lp(oracle.base_lp(radius, t)[0])
        if sol.status != fair.OPTIMAL:
            continue
        row, sense, rhs = weighted
        if row:
            model = oracle.base_lp(radius, t)[0]
            model.add_row(row, sense, rhs)
            sol = fair.solve_lp(model)
            if sol.status != fair.OPTIMAL:
                continue
        cut = oracle._round(point, eta, radius, sol)
        if cut is None:
            shaky = True
            continue
        return cut
    if shaky:
        raise fair.SolverInternalError("ambiguous separation verdict (numerical edge)")
    return "member", None, None


def solve_fair_linear(finst, norm, eps, limit=None):
    if norm.kind != fair.TOP:
        raise fair.InvalidInputError("fair solving covers Top-(ell,q) norms")
    if not 0 < eps < float("inf"):
        raise fair.InvalidInputError("eps must be positive and finite")
    for bound in fair.fair_bound_candidates(finst, norm, eps):
        verdict, payload = fair.round_and_cut(finst, bound, norm.ell, norm.q, limit=limit)
        if verdict == "distribution":
            return fair.FairSolveResult(bound=bound, distribution=payload)
    raise fair.InfeasibleError("no bound admits a fair distribution")
