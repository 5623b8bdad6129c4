"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Everything is property-based at desk scale: brute-force oracles supply the
ground truth, tolerances are the stated ones (exact where stated exact).
Run with `pytest -s tests/test_acceptance.py` to see the criterion lines.
"""

import contextlib
import math
from fractions import Fraction

import numpy as np
import pytest

from _gen import random_cluster, random_load, random_max_ordered_weights
from test_lp import _exhaustive_bundle_opt, _random_bundle_system

from maxnorm.bundlelp import solve_two_laminar_integral
from maxnorm.cluster import (CARDINALITY, _center_lp, _lp_parts, build_bundles,
                             check_bundle_distances,
                             core_of, solve_knapsack_center, solve_matroid_center,
                             solve_ordered_kcenter, solve_topl_kcenter,
                             split_and_normalize, _ordered_chains)
from maxnorm.errors import InfeasibleError
from maxnorm.fair import (ct_count, center_marginals, load_marginals, sample,
                          solve_fair)
from maxnorm.generators import (gen_fair_cluster, gen_fair_load, tightness_gap)
from maxnorm.instances import (Assignment, ClusterInstance,
                               KnapsackClusterInstance, MatroidClusterInstance,
                               eval_load_objective)
from maxnorm.load import solve_ordered_makespan, solve_topl_makespan
from maxnorm.lp import OPTIMAL, solve_lp
from maxnorm.norms import eval_norm, max_ordered_norm, top_norm
from maxnorm.oracle import (brute_force_fair_opt, brute_force_kcenter,
                            brute_force_knapsack_center, brute_force_makespan,
                            brute_force_matroid_center)
from maxnorm.sparsify import (ThresholdSequence, sparsified_gap_bound,
                              sparsify_weights)

TOP_CONFIGS = [(1, 1.0), (2, 1.0), (2, 2.0), (3, 2.0)]


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def test_criterion_1_load_approximation_ratio():
    with criterion(1, "load ratio <= 4^(1/q) + 0.1 on 200 instances x 4 norms"):
        rng = np.random.default_rng(101)
        instances = [random_load(rng, m_hi=3, j_hi=6, pmax=10) for _ in range(200)]
        for ell, q in TOP_CONFIGS:
            guarantee = 4.0 ** (1.0 / q) + 0.1
            for inst in instances:
                res = solve_topl_makespan(inst, ell, q, eps=0.1)
                opt = brute_force_makespan(inst, top_norm(ell, q))
                assert res.value <= guarantee * opt.value, \
                    (ell, q, res.value, opt.value)


def test_criterion_2_cluster_approximation_ratio():
    with criterion(2, "cluster ratio <= 3*4^(1/q) + 0.1 on 200 instances x 4 norms"):
        rng = np.random.default_rng(202)
        instances = [random_cluster(rng, nc_hi=4, nf_hi=5, k_hi=3)
                     for _ in range(200)]
        for ell, q in TOP_CONFIGS:
            guarantee = 3.0 * 4.0 ** (1.0 / q) + 0.1
            for inst in instances:
                res = solve_topl_kcenter(inst, ell, q, eps=0.1)
                opt = brute_force_kcenter(inst, top_norm(ell, q))
                if opt.value > 0:
                    assert res.value <= guarantee * opt.value, \
                        (ell, q, res.value, opt.value)
                else:
                    assert res.value <= 1e-9


def test_criterion_3_ordered_certificates():
    with criterion(3, "ordered solves: achieved <= certificate <= recomputed "
                      "chain; achieved/opt <= 10*(1+log2 n)"):
        rng = np.random.default_rng(303)
        for _ in range(120):
            inst = random_load(rng, m_hi=3, j_hi=6, pmax=10)
            weights = random_max_ordered_weights(rng, dim_hi=6, n_vectors_hi=3)
            res = solve_ordered_makespan(inst, weights, eps=0.1)
            cert = res.certificate
            assert res.value <= cert["chain_bound"]
            if cert["sequence"]:
                sparse, pos = sparsify_weights(weights, inst.jobs)
                seq = ThresholdSequence(anchor=cert["radius"],
                                        positions=pos.indices,
                                        values=tuple(cert["sequence"]))
                wtop = max(float(w[0]) for w in sparse)
                chain = 4 * cert["radius"] * wtop + 2 * cert["bound"] \
                    + 2 * sparsified_gap_bound(sparse, pos, seq)
                assert cert["chain_bound"] <= chain + 1e-9
            opt = brute_force_makespan(inst, max_ordered_norm(weights))
            if opt.value > 0:
                assert res.value / opt.value <= 10 * (1 + math.log2(inst.jobs))
        for _ in range(80):
            inst = random_cluster(rng, nc_hi=4, nf_hi=5, k_hi=3)
            weights = random_max_ordered_weights(rng, dim_hi=6, n_vectors_hi=3)
            res = solve_ordered_kcenter(inst, weights, eps=0.1)
            cert = res.certificate
            assert res.value <= cert["chain_bound"]
            if cert["sequence"]:
                r0 = max(inst.r0, 1)
                sparse, pos = sparsify_weights(weights, r0)
                chain = _ordered_chains(sparse, pos, cert["sequence"], cert["radius"],
                                        cert["bound"])[0]
                assert cert["chain_bound"] <= chain + 1e-9
            opt = brute_force_kcenter(inst, max_ordered_norm(weights))
            if opt.value > 0:
                assert res.value / opt.value <= 10 * (1 + math.log2(max(inst.r0, 2)))


def test_criterion_4_sparsification_sandwich():
    with criterion(4, "sparsification sandwich f~ <= f <= 2 f~ on 10^4 pairs"):
        rng = np.random.default_rng(404)
        for _ in range(10 ** 4):
            n = int(rng.integers(1, 9))
            w = tuple(sorted((float(v) for v in rng.uniform(0, 1, size=n)),
                             reverse=True))
            sparse, _ = sparsify_weights([w], n)
            v = rng.uniform(0, 10, size=n)
            lo = eval_norm(max_ordered_norm([tuple(sparse[0])]), v)
            hi = eval_norm(max_ordered_norm([w]), v)
            assert lo <= hi <= 2 * lo


def test_criterion_5_tightness_reproduction():
    with criterion(5, "tightness family: gap/opt monotone in t and >= 0.14 t"):
        gaps = [tightness_gap(t) for t in range(2, 11)]
        for prev, cur in zip(gaps, gaps[1:]):
            assert cur > prev
        for t, g in zip(range(2, 11), gaps):
            assert g >= 0.14 * t  # optimum of the family is exactly 1


def _harvest_fractional(rng, count):
    out = []
    while len(out) < count:
        inst = random_cluster(rng, nc_hi=4, nf_hi=5, k_hi=3)
        core = core_of(inst)
        positive = [v for v in core.distances() if v > 0]
        if not positive:
            continue
        radius = float(rng.choice(positive))
        ts = [v for v in core.distances() if v <= radius]
        t = float(rng.choice(ts)) if ts else 0.0
        ell = int(rng.integers(1, 4))
        model, _ = _center_lp(core, (CARDINALITY, inst.k), ("top", ell, 1.0, t),
                              radius)
        sol = solve_lp(model)
        if sol.status != OPTIMAL:
            continue
        _, u, y = _lp_parts(core, sol.x)
        out.append((core, radius, u, y))
    return out


def test_criterion_6_bundle_distance_lemma():
    with criterion(6, "bundle queues stay within 3x distances on 500 "
                      "fractional solutions (exact)"):
        rng = np.random.default_rng(505)
        for core, radius, u, y in _harvest_fractional(rng, 500):
            split = split_and_normalize(u, y, core, radius)
            bs = build_bundles(split)  # structural invariants checked inside
            check_bundle_distances(split, bs)  # raises if any 3x bound fails


def test_criterion_7_auxiliary_lp_integrality():
    with criterion(7, "bundle LP: bitwise 0/1 openings, coverage >= m, flow "
                      "equals exhaustive optimum"):
        rng = np.random.default_rng(606)
        # coverage >= m and integrality along full pipeline runs
        for core, radius, u, y in _harvest_fractional(rng, 40):
            split = split_and_normalize(u, y, core, radius)
            bs = build_bundles(split)
            partial = [bs.bundles[b] for b in bs.partial_indices()]
            profits = [bs.reuse[b] for b in bs.partial_indices()]
            full = [bs.bundles[b] for b in bs.full_indices()]
            fixed = sum(1 for qu in bs.queues for b in qu if bs.is_full[b])
            c2o = {c: bs.split.original[c] for u_ in bs.bundles for c in u_}
            k = 10 ** 6  # no cardinality pressure here; m-coverage is the point
            z, obj = solve_two_laminar_integral(full, partial, profits, c2o, k,
                                                fixed_term=fixed)
            assert all(v in (0, 1) for v in z.values())
            assert obj >= sum(u) - 1e-6
        # flow result equals the exhaustive 0/1 optimum on small systems
        checked = 0
        while checked < 40:
            full, partial, profits, c2o = _random_bundle_system(rng)
            if len(c2o) > 12:
                continue
            k = int(rng.integers(0, 6))
            expected = _exhaustive_bundle_opt(full, partial, profits, c2o, k=k)
            if expected is None:
                with pytest.raises(InfeasibleError):
                    solve_two_laminar_integral(full, partial, profits, c2o, k=k)
            else:
                z, obj = solve_two_laminar_integral(full, partial, profits, c2o, k=k)
                assert all(v in (0, 1) for v in z.values())
                assert obj == expected
            checked += 1


def test_criterion_8_knapsack_variant():
    with criterion(8, "knapsack: weight <= (1+2eps) W, ratio <= 1+3*4^(1/q)+0.1"):
        rng = np.random.default_rng(707)
        checked = 0
        while checked < 12:
            inst = random_cluster(rng, nc_hi=3, nf_hi=4, k_hi=3)
            nf = inst.n_facilities
            wt = rng.uniform(0.0, 1.0, size=nf)
            base = ClusterInstance(n_clients=inst.n_clients, n_facilities=nf,
                                   d=inst.d, k=nf, m=inst.m, l=inst.l, r=inst.r)
            kinst = KnapsackClusterInstance(base=base, wt=wt,
                                            budget=float(wt.sum()) * 0.7)
            for ell, q in [(1, 1.0), (2, 2.0)]:
                norm = top_norm(ell, q)
                try:
                    opt = brute_force_knapsack_center(kinst, norm)
                except Exception:
                    continue
                for eps in (0.25, 0.5):
                    res = solve_knapsack_center(kinst, norm, eps)
                    assert res.certificate["weight"] <= (1 + 2 * eps) * kinst.budget \
                        + 1e-9
                    if opt.value > 0:
                        assert res.value <= (1 + 3 * 4 ** (1 / q) + 0.1) * opt.value
                checked += 1


def test_criterion_9_matroid_variant():
    with criterion(9, "matroid: openings independent, ratio <= 3*4^(1/q)+0.1"):
        rng = np.random.default_rng(808)
        checked = 0
        while checked < 20:
            inst = random_cluster(rng, nc_hi=4, nf_hi=5, k_hi=3)
            nf = inst.n_facilities
            perm = [int(v) for v in rng.permutation(nf)]
            cut = int(rng.integers(1, nf + 1))
            parts = [tuple(perm[:cut]), tuple(perm[cut:])]
            parts = [p for p in parts if p]
            caps = [int(rng.integers(1, len(p) + 1)) for p in parts]
            base = ClusterInstance(n_clients=inst.n_clients, n_facilities=nf,
                                   d=inst.d, k=nf, m=inst.m, l=inst.l, r=inst.r)
            minst = MatroidClusterInstance(base=base, parts=tuple(parts),
                                           capacities=tuple(caps))
            ell, q = [(1, 1.0), (2, 2.0)][checked % 2]
            try:
                opt = brute_force_matroid_center(minst, top_norm(ell, q))
            except Exception:
                continue
            res = solve_matroid_center(minst, top_norm(ell, q), eps=0.1)
            checked += 1
            opened = {}
            for i in res.solution.open_facilities:
                opened[i] = opened.get(i, 0) + 1
            assert all(v == 1 for v in opened.values())
            for part, cap in zip(parts, caps):
                assert sum(opened.get(i, 0) for i in part) <= cap
            if opt.value > 0:
                assert res.value <= (3 * 4 ** (1 / q) + 0.1) * opt.value


def test_criterion_10_fair_load():
    with criterion(10, "fair load: support within 4^(1/q) B, exact marginals, "
                       "bound <= (4^(1/q)+0.1) fair-OPT; toy is (1/2, 1/2) at 1"):
        toy = gen_fair_load(0, machines=2, jobs=1, pmax=1)
        from maxnorm.instances import FairLoadInstance, LoadInstance

        toy = FairLoadInstance(base=LoadInstance(p=[[1.0], [1.0]]),
                               e=("1/2", "1/2"))
        res = solve_fair(toy, top_norm(1, 1), eps=0.1)
        assert res.bound == 1.0
        assert sorted(res.distribution.support) == [(0,), (1,)]
        assert res.distribution.weights == (Fraction(1, 2), Fraction(1, 2))

        rng = np.random.default_rng(909)
        for seed in range(50):
            machines = int(rng.integers(2, 4))
            jobs = int(rng.integers(2, 5))
            finst = gen_fair_load(seed, machines=machines, jobs=jobs, pmax=10)
            ell, q = TOP_CONFIGS[seed % 4]
            ell = min(ell, jobs)
            norm = top_norm(ell, q)
            res = solve_fair(finst, norm, eps=0.1)
            dist = res.distribution
            assert dist.cert_bound == pytest.approx(4 ** (1 / q) * res.bound)
            for sigma in dist.support:
                assert eval_load_objective(finst.base, norm, Assignment(sigma)) \
                    <= dist.cert_bound
            marg = load_marginals(dist, machines)
            assert all(mv <= ev for mv, ev in zip(marg, finst.e))
            fair_opt, _ = brute_force_fair_opt(finst, norm, eps=0.1)
            assert res.bound <= (4 ** (1 / q) + 0.1) * fair_opt + 1e-9


def test_criterion_11_fair_center():
    with criterion(11, "fair center: support within 3*4^(1/q) B, counts in "
                       "[l, r], |S| <= k, exact marginals, bound factor"):
        rng = np.random.default_rng(1010)
        done = 0
        seed = 0
        while done < 50:
            seed += 1
            clients = int(rng.integers(1, 4))
            facilities = int(rng.integers(2, 4))
            k = int(rng.integers(1, 3))
            finst = gen_fair_cluster(seed, clients=clients, facilities=facilities,
                                     k=min(k, facilities))
            ell, q = TOP_CONFIGS[done % 4]
            norm = top_norm(ell, q)
            res = solve_fair(finst, norm, eps=0.1)
            done += 1
            dist = res.distribution
            base = finst.base
            assert dist.cert_bound == pytest.approx(3 * 4 ** (1 / q) * res.bound)
            for s in dist.support:
                assert len(s) <= base.k
                for j in range(base.n_clients):
                    c = ct_count(norm, dist.cert_bound,
                                 [float(base.cf[j, i]) for i in s], int(base.r[j]))
                    assert int(base.l[j]) <= c <= int(base.r[j])
            marg = center_marginals(dist, finst, norm)
            assert all(mv >= ev for mv, ev in zip(marg, finst.e))
            found = brute_force_fair_opt(finst, norm, eps=0.1)
            assert found is not None
            assert res.bound <= (3 * 4 ** (1 / q) + 0.1) * found[0] + 1e-9


def test_criterion_12_sampling():
    with criterion(12, "sampling: 3-sigma frequencies over 10^4 draws, "
                       "seed-reproducible sequences"):
        from maxnorm.instances import FairLoadInstance, LoadInstance

        toy = FairLoadInstance(base=LoadInstance(p=[[1.0], [1.0]]),
                               e=("1/2", "1/2"))
        dist = solve_fair(toy, top_norm(1, 1), eps=0.1).distribution
        n = 10 ** 4
        draws = sample(dist, seed=4242, n=n)
        assert draws == sample(dist, seed=4242, n=n)  # byte-identical sequence
        for element, w in zip(dist.support, dist.weights):
            p = float(w)
            freq = sum(1 for s in draws if s == element) / n
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 3 * sigma
        finst = gen_fair_load(7, machines=2, jobs=3, pmax=5)
        dist = solve_fair(finst, top_norm(2, 1), eps=0.1).distribution
        draws = sample(dist, seed=11, n=n)
        assert draws == sample(dist, seed=11, n=n)
        for element, w in zip(dist.support, dist.weights):
            p = float(w)
            freq = sum(1 for s in draws if s == element) / n
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(freq - p) <= 3 * sigma + 1e-9
