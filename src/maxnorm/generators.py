"""Seeded random instance generators (shared by the CLI and the test suite)."""

import math
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError, ResourceCapError
from .instances import (ClusterInstance, FairClusterInstance, FairLoadInstance,
                        KnapsackClusterInstance, LoadInstance, MatroidClusterInstance)


def gen_load(seed, machines=2, jobs=3, pmax=10, forbidden=0.0):
    """Integer sizes in [1, pmax]; a forbidden fraction of pairs set to +inf
    while keeping at least one allowed machine per job."""
    rng = np.random.default_rng(seed)
    p = rng.integers(1, pmax + 1, size=(machines, jobs)).astype(float)
    if forbidden > 0:
        mask = rng.random(size=p.shape) < forbidden
        for j in range(jobs):
            if mask[:, j].all():
                mask[rng.integers(0, machines), j] = False
        p[mask] = np.inf
    return LoadInstance(p=p)


def _euclidean_metric(rng, n):
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(d, 0.0)
    return d


def _random_closure_metric(rng, n):
    d = rng.uniform(0.1, 1.0, size=(n, n))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    for mid in range(n):  # shortest-path closure restores the triangle inequality
        d = np.minimum(d, d[:, mid][:, None] + d[mid, :][None, :])
    return d


def gen_cluster(seed, clients=3, facilities=4, k=2, metric="euclidean",
                coverage=None, lmax=1, rmax=3):
    rng = np.random.default_rng(seed)
    n = clients + facilities
    if metric == "euclidean":
        d = _euclidean_metric(rng, n)
    elif metric == "random":
        d = _random_closure_metric(rng, n)
    else:
        raise InvalidInputError(f"unknown metric kind {metric!r}")
    k = min(k, facilities)
    r = rng.integers(1, min(facilities, rmax) + 1, size=clients)
    l = np.minimum(np.minimum(rng.integers(0, lmax + 1, size=clients), r), k)
    cap = int(np.minimum(r, k).sum())
    m = int(rng.integers(0, cap + 1)) if coverage is None else min(coverage, cap)
    return ClusterInstance(n_clients=clients, n_facilities=facilities, d=d,
                           k=k, m=m, l=l, r=r)


def gen_fair_load(seed, machines=2, jobs=3, pmax=10):
    """Load instance plus quarter-integral caps with total at least the job
    count, so a distribution exists at some bound."""
    rng = np.random.default_rng(seed)
    base = gen_load(seed, machines=machines, jobs=jobs, pmax=pmax)
    quarters = rng.integers(0, 4 * jobs + 1, size=machines)
    deficit = 4 * jobs - int(quarters.sum())
    if deficit > 0:
        quarters[int(rng.integers(0, machines))] += deficit
    e = tuple(Fraction(int(qv), 4) for qv in quarters)
    return FairLoadInstance(base=base, e=e)


def gen_fair_cluster(seed, clients=3, facilities=4, k=2, metric="euclidean"):
    """Cluster instance (coverage handled by the fairness floors, m = 0) plus
    quarter-integral targets e_j in [l_j, min(r_j, k)]."""
    rng = np.random.default_rng(seed)
    base = gen_cluster(seed, clients=clients, facilities=facilities, k=k,
                       metric=metric, coverage=0)
    e = []
    for j in range(clients):
        lo, hi = int(base.l[j]), min(int(base.r[j]), base.k)
        e.append(Fraction(int(rng.integers(4 * lo, 4 * hi + 1)), 4))
    return FairClusterInstance(base=base, e=tuple(e))


def _cap_requirements(base, open_count):
    """Shrink l and m so that opening open_count facilities stays feasible."""
    l = np.minimum(base.l, open_count)
    m = min(base.m, int(np.minimum(base.r, open_count).sum()))
    return ClusterInstance(n_clients=base.n_clients, n_facilities=base.n_facilities,
                           d=base.d, k=base.k, m=m, l=l, r=base.r)


def gen_matroid_cluster(seed, clients=3, facilities=4, parts=2, metric="euclidean"):
    rng = np.random.default_rng(seed)
    base = gen_cluster(seed, clients=clients, facilities=facilities,
                       k=facilities, metric=metric)
    perm = [int(v) for v in rng.permutation(facilities)]
    splits = sorted(rng.choice(range(1, facilities), size=min(parts - 1, facilities - 1),
                               replace=False)) if parts > 1 and facilities > 1 else []
    groups, prev = [], 0
    for s in list(splits) + [facilities]:
        groups.append(tuple(perm[prev:s]))
        prev = s
    groups = [g for g in groups if g]
    caps = [int(rng.integers(1, len(g) + 1)) for g in groups]
    base = _cap_requirements(base, sum(caps))
    return MatroidClusterInstance(base=base, parts=tuple(groups), capacities=tuple(caps))


def gen_knapsack_cluster(seed, clients=3, facilities=4, metric="euclidean",
                         budget_frac=0.7):
    rng = np.random.default_rng(seed)
    base = gen_cluster(seed, clients=clients, facilities=facilities,
                       k=facilities, metric=metric)
    wt = rng.uniform(0.0, 1.0, size=facilities)
    budget = float(wt.sum()) * budget_frac
    affordable, total = 0, 0.0
    for w in sorted(wt):
        if total + w > budget:
            break
        total += w
        affordable += 1
    base = _cap_requirements(base, affordable)
    return KnapsackClusterInstance(base=base, wt=wt, budget=budget)


_TIGHTNESS_MAX_T = 20  # 2^20 weights, written by the CLI as a file of about 60 MB


def tightness_family(t):
    """Worst-case guessing-gap family: dimension r = 2^t, weight vector
    w_i = sqrt(i) - sqrt(i-1), optimum exactly 1 achieved simultaneously by
    the vectors (1/sqrt(c), ..., 1/sqrt(c), 0, ...) for every length c.
    The exact optimal thresholds are 1/sqrt(ell)."""
    if t < 0:
        raise InvalidInputError("t must be >= 0")
    if t > _TIGHTNESS_MAX_T:
        raise ResourceCapError(f"the tightness family at t = {t} has 2^{t} weights, "
                               f"over the cap 2^{_TIGHTNESS_MAX_T}")
    r = 2 ** t
    w = tuple(math.sqrt(i) - math.sqrt(i - 1) for i in range(1, r + 1))
    tstar = {ell: 1.0 / math.sqrt(ell) for ell in range(1, r + 1)}
    return {"t": t, "r": r, "weights": w, "tstar": tstar, "opt": 1.0}


def tightness_gap(t):
    """Guessing-gap certificate of the family, evaluated at the exact optimal
    thresholds; grows like Omega(t) while the optimum stays 1."""
    from .sparsify import ThresholdSequence, sparsified_gap_bound, sparsify_weights

    fam = tightness_family(t)
    sparse, pos = sparsify_weights([fam["weights"]], fam["r"])
    seq = ThresholdSequence(anchor=1.0, positions=pos.indices,
                            values=tuple(fam["tstar"][ell] for ell in pos.indices))
    return sparsified_gap_bound(sparse, pos, seq)
