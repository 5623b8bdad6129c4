"""Max-norm makespan on unrelated machines.

Drivers guess a triple (radius R = largest allowed job size, objective bound
B, size threshold(s) T), solve a feasibility LP, and round its solution by
the Shmoys-Tardos machine-copy construction.  Rather than scanning the bound
grid with one LP per grid point, each (R, T) pair solves a single LP that
minimizes the bounded mass, and the result is snapped up to the grid; that
is equivalent to accepting the first feasible triple in ascending-bound
order and far cheaper.

Accepted guesses come with a certificate: for Top-(ell,q) norms the rounded
per-machine cost is at most (2 R^q + B^q + ell T^q)^(1/q); for max-ordered
norms the chain bound 4 R w1 + 2 B + 2 gap applies, where gap is the
sparsified guessing certificate.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidInputError, SolverInternalError
from .instances import Assignment, eval_load_objective
from .lp import EQ, LE, OPTIMAL, lp_model, simplex_solve, solve_lp
from .norms import max_ordered_norm, top_norm
from .sparsify import (geometric_grid, enumerate_threshold_sequences, single_threshold_candidates,
                       snap_to_grid, sparsified_gap_bound, sparsify_weights)

_MASS_TOL = 1e-9


def build_basic_load_lp(inst, radius):
    """Fractional assignment polytope: jobs fully assigned, pairs with
    p(i,j) > radius forbidden."""
    m, n = inst.machines, inst.jobs
    upper = np.ones(m * n)
    for i in range(m):
        for j in range(n):
            if inst.p[i, j] > radius:
                upper[i * n + j] = 0.0
    model = lp_model(m * n, lower=0.0, upper=upper)
    for j in range(n):
        model.add_row({i * n + j: 1.0 for i in range(m)}, EQ, 1.0)
    return model


def build_topl_load_lp(inst, ell, q, radius, bound, threshold):
    """Basic LP plus, per machine, a count cap of ell and a q-th-power mass
    cap of bound^q over the jobs strictly larger than the threshold.

    Strictly larger keeps the rows feasible at the exact optimal guess even
    when several sizes tie at the threshold value.
    """
    model, _ = _topl_load_min_bound_lp(inst, ell, q, radius, threshold, fixed_bound=bound)
    return model


def _topl_load_min_bound_lp(inst, ell, q, radius, threshold, fixed_bound=None):
    """With fixed_bound None, adds a variable s replacing bound^q and
    minimizes it; returns (model, index of s)."""
    m, n = inst.machines, inst.jobs
    model = build_basic_load_lp(inst, radius)
    sidx = None
    if fixed_bound is None:
        sidx = model.num_vars
        model.num_vars += 1
        model.lower = np.append(model.lower, 0.0)
        model.upper = np.append(model.upper, np.inf)
        model.objective = np.append(np.zeros(m * n), 1.0)
    for i in range(m):
        counted = [j for j in range(n) if np.isfinite(inst.p[i, j]) and inst.p[i, j] > threshold]
        if not counted:
            continue
        model.add_row({i * n + j: 1.0 for j in counted}, LE, float(ell))
        mass = {i * n + j: float(inst.p[i, j]) ** q for j in counted}
        if fixed_bound is None:
            mass[sidx] = -1.0
            model.add_row(mass, LE, 0.0)
        else:
            model.add_row(mass, LE, float(fixed_bound) ** q)
    return model, sidx


def build_ordered_load_lp(inst, sparse_weights, pos, radius, bound, seq):
    model, _ = _ordered_load_min_bound_lp(inst, sparse_weights, pos, radius, seq,
                                          fixed_bound=bound)
    return model


def _ordered_load_min_bound_lp(inst, sparse_weights, pos, radius, seq, fixed_bound=None):
    """Count rows per (machine, kept coordinate); per (machine, weight vector)
    a telescoped weighted-mass row bounded by s (or by a fixed bound)."""
    m, n = inst.machines, inst.jobs
    model = build_basic_load_lp(inst, radius)
    sidx = None
    if fixed_bound is None:
        sidx = model.num_vars
        model.num_vars += 1
        model.lower = np.append(model.lower, 0.0)
        model.upper = np.append(model.upper, np.inf)
        model.objective = np.append(np.zeros(m * n), 1.0)
    tvals = seq.as_dict()
    deltas = []
    for w in sparse_weights:
        deltas.append({ell: w[ell - 1] - (w[pos.next_index(ell) - 1]
                                          if pos.next_index(ell) <= pos.n else 0.0)
                       for ell in pos.indices})
    for i in range(m):
        finite = [j for j in range(n) if np.isfinite(inst.p[i, j])]
        for ell in pos.indices:
            counted = [j for j in finite if inst.p[i, j] > tvals[ell]]
            if counted:
                model.add_row({i * n + j: 1.0 for j in counted}, LE, float(ell))
        for delta in deltas:
            coeffs = {}
            for ell in pos.indices:
                d = delta[ell]
                if d == 0.0:
                    continue
                for j in finite:
                    if inst.p[i, j] > tvals[ell]:
                        key = i * n + j
                        coeffs[key] = coeffs.get(key, 0.0) + d * float(inst.p[i, j])
            if not coeffs:
                continue
            if fixed_bound is None:
                coeffs[sidx] = -1.0
                model.add_row(coeffs, LE, 0.0)
            else:
                model.add_row(coeffs, LE, float(fixed_bound))
    return model, sidx


# ---------------------------------------------------------------------------
# rounding


def machine_copies(x, p, tol=_MASS_TOL):
    """Split each machine into unit-capacity copies, filling jobs in
    non-decreasing size order (ties by job index).  Returns, per machine,
    the ordered list of copies as [(job, fractional amount), ...]."""
    m, n = p.shape
    out = []
    for i in range(m):
        jobs = sorted((j for j in range(n) if x[i, j] > tol),
                      key=lambda j: (p[i, j], j))
        copies, current, room = [], [], 1.0
        for j in jobs:
            amt = float(x[i, j])
            while amt > tol:
                take = min(amt, room)
                current.append((j, take))
                amt -= take
                room -= take
                if room <= tol:
                    copies.append(current)
                    current, room = [], 1.0
        if current:
            copies.append(current)
        out.append(copies)
    return out


def shmoys_tardos_round(x, p, edge_weights=None, exact=False):
    """Round a fractional assignment to an integral one.

    Builds the machine-copy graph and matches every job to one copy,
    minimizing the total edge weight (weight of any edge into machine i is
    edge_weights[i]; default 0).  The integral matching weight never exceeds
    the fractional weight sum_i w_i sum_j x_ij.  With exact=True, weights are
    Fractions and the matching LP is solved in exact arithmetic (its vertices
    are integral).

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

    if exact:
        weights = [Fraction(0)] * m if edge_weights is None else [Fraction(w) for w in edge_weights]
        edge_list = sorted(edges)
        col = {e: t for t, e in enumerate(edge_list)}
        rows = []
        for j in range(n):
            rows.append(({col[e]: 1 for e in edge_list if e[0] == j}, EQ, 1))
        for t, mc in enumerate(flat):
            touching = {col[e]: 1 for e in edge_list if e[1] == t}
            if touching:
                rows.append((touching, LE, 1))
        objective = [weights[flat[e[1]][0]] for e in edge_list]
        status, z = simplex_solve(rows, len(edge_list), objective=objective)
        if status != OPTIMAL:
            raise SolverInternalError(f"matching LP ended {status}")
        sigma = [-1] * n
        for e, val in zip(edge_list, z):
            if val == 1:
                sigma[e[0]] = flat[e[1]][0]
            elif val != 0:
                raise SolverInternalError("matching LP vertex not integral")
    else:
        w = np.zeros(m) if edge_weights is None else np.asarray(edge_weights, float)
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


def _feasible_radii(inst):
    """Radii below max_j min_i p(i,j) make the basic LP infeasible; skip them."""
    rmin = max(min(inst.p[i, j] for i in range(inst.machines) if np.isfinite(inst.p[i, j]))
               for j in range(inst.jobs))
    return [v for v in inst.finite_sizes() if v >= rmin - 1e-12]


def solve_topl_makespan(inst, ell, q, eps):
    """Top-(ell,q) makespan within factor 4^(1/q) + eps of optimal."""
    if not 0 < eps < math.inf:
        raise InvalidInputError("eps must be positive and finite")
    m, n = inst.machines, inst.jobs
    root = 1.0 / q
    grid_eps = eps / 4.0 ** root  # so that 4^(1/q) * (1 + grid_eps) <= 4^(1/q) + eps
    radii = _feasible_radii(inst)
    thresholds = single_threshold_candidates(inst.finite_sizes())
    best = None  # (bound, radius, threshold, x)
    for radius in radii:
        if best is not None and radius > best[0]:
            break
        grid = geometric_grid(radius, n ** root * radius, grid_eps)
        for t in thresholds:
            if t > radius * (1 + 1e-12):
                break
            if best is not None and ell ** root * t > best[0]:
                break
            model, sidx = _topl_load_min_bound_lp(inst, ell, q, radius, t)
            sol = solve_lp(model)
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
        raise SolverInternalError("guessing grids failed to cover the instance")
    bound, radius, t, x = best
    assignment, _ = shmoys_tardos_round(x, inst.p)
    value = eval_load_objective(inst, top_norm(ell, q), assignment)
    per_machine = (2 * radius ** q + bound ** q + ell * t ** q) ** root
    if value > per_machine * (1 + 1e-9) + 1e-12:
        raise SolverInternalError("rounded value exceeds its certificate")
    cert = {"radius": radius, "bound": bound, "threshold": t,
            "per_machine_bound": per_machine, "grid_eps": grid_eps}
    return LoadSolveResult(assignment=assignment, value=value, certificate=cert)


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
    m, n = inst.machines, inst.jobs
    sparse, pos = sparsify_weights(weights, n)
    wtop = max(float(w[0]) for w in sparse)
    norm = max_ordered_norm(weights)
    if wtop == 0.0:
        assignment = _nearest_assignment(inst)
        cert = {"radius": 0.0, "bound": 0.0, "sequence": (), "gap": 0.0, "chain_bound": 0.0}
        return LoadSolveResult(assignment=assignment, value=0.0, certificate=cert)
    radii = _feasible_radii(inst)
    sizes = inst.finite_sizes()
    best = None  # (bound, chain, ridx, sidx, radius, seq, x)
    for ridx, radius in enumerate(radii):
        if best is not None and radius * wtop > best[0]:
            break
        grid = geometric_grid(radius * wtop, n * radius * wtop, eps)
        cache = {}
        for sidx, seq in enumerate(enumerate_threshold_sequences(radius, n)):
            key = _sequence_key(sizes, seq)
            if key in cache:
                sval, x = cache[key]
            else:
                model, svar = _ordered_load_min_bound_lp(inst, sparse, pos, radius, seq)
                sol = solve_lp(model)
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
            gap = sparsified_gap_bound(sparse, pos, seq)
            chain = 4 * radius * wtop + 2 * bound + 2 * gap
            cand = (bound, chain, ridx, sidx, radius, seq, x)
            if best is None or cand[:4] < best[:4]:
                best = cand
    if best is None:
        raise SolverInternalError("guessing grids failed to cover the instance")
    bound, chain, _, _, radius, seq, x = best
    assignment, _ = shmoys_tardos_round(x, inst.p)
    value = eval_load_objective(inst, norm, assignment)
    gap = sparsified_gap_bound(sparse, pos, seq)
    if value > chain * (1 + 1e-9) + 1e-12:
        raise SolverInternalError("rounded value exceeds its chain bound")
    cert = {"radius": radius, "bound": bound, "sequence": seq.values,
            "gap": gap, "chain_bound": chain}
    return LoadSolveResult(assignment=assignment, value=value, certificate=cert)


def _sequence_key(sizes, seq):
    """Threshold sequences inducing the same comparison sets give the same LP;
    sizes are the instance's distinct finite sizes, ascending."""
    return tuple(len(sizes) - bisect_right(sizes, v) for v in seq.values)
