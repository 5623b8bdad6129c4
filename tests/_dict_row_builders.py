"""Load LP builders that add one dict row at a time.

These are the makespan model builders as they were before the vectorized
ones, kept as the reference those are tested against: the same rows in
the same order with the same floats.
"""

import numpy as np

from maxnorm.lp import EQ, LE, lp_model


def build_basic_load_lp(inst, radius):
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


def _add_bound_var(model, fixed_bound):
    if fixed_bound is not None:
        return None
    sidx = model.num_vars
    model.num_vars += 1
    model.lower = np.append(model.lower, 0.0)
    model.upper = np.append(model.upper, np.inf)
    model.objective = np.append(np.zeros(sidx), 1.0)
    return sidx


def topl_load_min_bound_lp(inst, ell, q, radius, threshold, fixed_bound=None):
    m, n = inst.machines, inst.jobs
    model = build_basic_load_lp(inst, radius)
    sidx = _add_bound_var(model, fixed_bound)
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


def ordered_load_min_bound_lp(inst, sparse_weights, pos, radius, seq, fixed_bound=None):
    m, n = inst.machines, inst.jobs
    model = build_basic_load_lp(inst, radius)
    sidx = _add_bound_var(model, fixed_bound)
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
