"""Exhaustive guess scans: one LP per guess, infeasible guesses included.

These are the k-center scans as they were before the monotone search, kept
as the reference the search is tested against.  They look every program
name up through the cluster module at call time, so a test that replaces
`cluster.solve_lp` or `cluster._center_lp` reaches both implementations.
"""

import numpy as np

from maxnorm import cluster


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
            bound = cluster.snap_to_grid(grid, bhat)
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
            bound = cluster.snap_to_grid(grid, max(max(sol.x[sidx], 0.0), radius * wtop)) \
                if seq is not None else 0.0
            if bound is None:
                continue
            chain = cluster._ordered_chain(sparse, pos, seq, radius, bound) \
                if seq is not None else 0.0
            cand = (bound, chain, radius, seq, sparse, pos, cluster._lp_parts(core, sol.x))
            if best is None or cand[:2] < best[:2]:
                best = cand
    if best is None:
        raise cluster.InfeasibleError("no guess satisfies the relaxation; instance is infeasible")
    return best


def _residual_guess(core, light, wt, w_res, pre, neighbor_dists, radius, norm):
    """Cheapest attainable bound for the light-facility residual instance
    under one pre-connection pattern; returns (bound estimate, payload)."""
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
