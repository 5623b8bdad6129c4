"""LP builders that add one dict row at a time.

These are the makespan and k-center model builders as they were before
the vectorized ones, kept as the reference those are tested against with
assert_same_model: the same rows in the same order with the same floats.
"""

import numpy as np

from maxnorm.cluster import CARDINALITY, KNAPSACK, PARTITION
from maxnorm.errors import InvalidInputError
from maxnorm.lp import EQ, GE, LE, lp_model


def assert_same_model(model, ref):
    """Same columns, bounds and objective; the same rows in the same order,
    each with the same sense, right-hand side and coefficients (sign bits
    included)."""
    assert model.num_vars == ref.num_vars
    for field in ("lower", "upper", "objective"):
        assert np.array_equal(getattr(model, field), getattr(ref, field))
    rows, ref_rows = model.rows, ref.rows
    assert len(rows) == len(ref_rows)
    for (coeffs, sense, rhs), (ref_coeffs, ref_sense, ref_rhs) in zip(rows, ref_rows):
        assert (sense, rhs) == (ref_sense, ref_rhs)
        assert coeffs.keys() == ref_coeffs.keys()
        for idx, c in coeffs.items():
            ref_c = ref_coeffs[idx]
            assert c == ref_c and np.signbit(c) == np.signbit(ref_c)


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


def center_lp(core, normspec, radius, fixed_bound=None):
    nc, nf = core.n_clients, core.n_facilities
    budget = core.budget

    def x(i, j):
        return i * nc + j

    def u(j):
        return nf * nc + j

    def y(i):
        return nf * nc + nc + i

    num = nf * nc + nc + nf
    lower = np.zeros(num)
    upper = np.ones(num)
    for j in range(nc):
        lower[u(j)] = float(core.l[j])
        upper[u(j)] = float(core.r[j])
    for i in range(nf):
        for j in range(nc):
            if core.cf[j, i] > radius:
                upper[x(i, j)] = 0.0
    sidx = None
    obj = None
    if fixed_bound is None:
        sidx = num
        num += 1
        lower = np.append(lower, 0.0)
        upper = np.append(upper, np.inf)
        obj = np.zeros(num)
        obj[sidx] = 1.0
    model = lp_model(num, lower=lower, upper=upper, objective=obj)
    for j in range(nc):
        row = {x(i, j): 1.0 for i in range(nf)}
        row[u(j)] = -1.0
        model.add_row(row, EQ, 0.0)
    for i in range(nf):
        for j in range(nc):
            if upper[x(i, j)] > 0:
                model.add_row({x(i, j): 1.0, y(i): -1.0}, LE, 0.0)
    if core.coverage:
        model.add_row({u(j): 1.0 for j in range(nc)}, GE, float(core.m))

    kind = normspec[0]
    if kind == "top":
        _, ell, q, threshold = normspec
        for j in range(nc):
            counted = [i for i in range(nf) if core.cf[j, i] > threshold]
            if not counted:
                continue
            model.add_row({x(i, j): 1.0 for i in counted}, LE, float(ell))
            mass = {x(i, j): float(core.cf[j, i]) ** q for i in counted}
            if fixed_bound is None:
                mass[sidx] = -1.0
                model.add_row(mass, LE, 0.0)
            else:
                model.add_row(mass, LE, float(fixed_bound) ** q)
    else:
        _, sparse, pos, seq = normspec
        tvals = seq.as_dict()
        deltas = [{ell: w[ell - 1] - (w[pos.next_index(ell) - 1]
                                      if pos.next_index(ell) <= pos.n else 0.0)
                   for ell in pos.indices} for w in sparse]
        for j in range(nc):
            for ell in pos.indices:
                counted = [i for i in range(nf) if core.cf[j, i] > tvals[ell]]
                if counted:
                    model.add_row({x(i, j): 1.0 for i in counted}, LE, float(ell))
            for delta in deltas:
                coeffs = {}
                for ell in pos.indices:
                    d = delta[ell]
                    if d == 0.0:
                        continue
                    for i in range(nf):
                        if core.cf[j, i] > tvals[ell]:
                            key = x(i, j)
                            coeffs[key] = coeffs.get(key, 0.0) + d * float(core.cf[j, i])
                if not coeffs:
                    continue
                if fixed_bound is None:
                    coeffs[sidx] = -1.0
                    model.add_row(coeffs, LE, 0.0)
                else:
                    model.add_row(coeffs, LE, float(fixed_bound))

    if budget[0] == CARDINALITY:
        # at most k opens
        model.add_row({y(i): 1.0 for i in range(nf)}, EQ, float(min(budget[1], nf)))
    elif budget[0] == PARTITION:
        _, parts, caps = budget
        local = {fid: i for i, fid in enumerate(core.facility_ids)}
        for part, cap in zip(parts, caps):
            members = [local[fid] for fid in part if fid in local]
            if members:
                model.add_row({y(i): 1.0 for i in members}, LE, float(cap))
    elif budget[0] == KNAPSACK:
        _, wt, limit = budget
        model.add_row({y(i): float(wt[core.facility_ids[i]]) for i in range(nf)},
                      LE, float(limit))
    else:
        raise InvalidInputError(f"unknown budget {budget[0]!r}")
    return model, sidx
