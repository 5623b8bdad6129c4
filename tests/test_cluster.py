import dataclasses
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import _dict_row_builders as dict_rows
from _gen import random_cluster
from _threshold_helpers import center_sequences
from maxnorm import cluster
from maxnorm.cluster import (build_bundles, check_bundle_distances,
                             check_bundle_structure, closest_mass_distances,
                             core_of, solve_knapsack_center, solve_matroid_center,
                             solve_ordered_kcenter, solve_topl_kcenter,
                             split_and_normalize, _center_lp, _lp_parts,
                             CARDINALITY, KNAPSACK, PARTITION)
from maxnorm.errors import InfeasibleError, SolverInternalError
from maxnorm.generators import gen_matroid_cluster
from maxnorm.guess import weakest_thresholds
from maxnorm.instances import (ClusterInstance, KnapsackClusterInstance,
                               MatroidClusterInstance)
from maxnorm.lp import INFEASIBLE, OPTIMAL, solve_lp
from maxnorm.norms import top_norm
from maxnorm.oracle import (brute_force_kcenter, brute_force_knapsack_center,
                            brute_force_matroid_center)
from maxnorm.sparsify import (ThresholdSequence, enumerate_threshold_sequences, pos_set,
                              single_threshold_candidates, sparsify_weights)


def _line_instance():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    return ClusterInstance(n_clients=1, n_facilities=2, d=d, k=2, m=2, l=[2], r=[2])


def test_center_lp_examples():
    inst = _line_instance()
    core = core_of(inst)
    model, _ = _center_lp(core, ("top", 2, 1.0, 0.0),
                          radius=2.0, fixed_bound=100.0)
    sol = solve_lp(model)
    assert sol.status == OPTIMAL
    _, _, y = _lp_parts(core, sol.x)
    assert y.sum() == pytest.approx(2.0)
    tight = ClusterInstance(n_clients=1, n_facilities=2, d=inst.d, k=1, m=2,
                            l=[2], r=[2])
    model, _ = _center_lp(core_of(tight), ("top", 2, 1.0, 0.0),
                          radius=2.0, fixed_bound=100.0)
    assert solve_lp(model).status == INFEASIBLE


def test_center_lp_feasible_at_oracle_guess():
    rng = np.random.default_rng(0)
    for _ in range(8):
        inst = random_cluster(rng)
        ell, q = 2, 1.0
        opt = brute_force_kcenter(inst, top_norm(ell, q))
        tl = opt.thresholds[ell - 1] if len(opt.thresholds) >= ell else 0.0
        model, _ = _center_lp(core_of(inst), ("top", ell, q, tl), radius=opt.radius,
                              fixed_bound=max(opt.value, 1e-12))
        assert solve_lp(model).status == OPTIMAL


def test_split_identity_on_integral_solution():
    inst = _line_instance()
    core = core_of(inst)
    split = split_and_normalize(u=[2.0], y=[1.0, 1.0], core=core, radius=2.0)
    assert split.copy_count() == 2
    assert sorted(split.mass) == [1.0, 1.0]
    assert split.support[0] == [0, 1]


def test_split_trace_two_clients_sharing():
    # one facility fully open, two clients using 0.6 and 0.7 of it:
    # cuts at 0.6 and 0.7 give copies (0.6, 0.1, 0.3), whole-copy supports
    d = np.zeros((3, 3))
    d[0, 2] = d[2, 0] = 1.0
    d[1, 2] = d[2, 1] = 1.0
    d[0, 1] = d[1, 0] = 2.0
    inst = ClusterInstance(n_clients=2, n_facilities=1, d=d, k=1, m=0,
                           l=[0, 0], r=[1, 1])
    core = core_of(inst)
    split = split_and_normalize(u=[0.6, 0.7], y=[1.0], core=core, radius=1.0)
    assert sorted(round(v, 9) for v in split.mass) == [0.1, 0.3, 0.6]
    m0 = sum(split.mass[c] for c in split.support[0])
    m1 = sum(split.mass[c] for c in split.support[1])
    assert (m0, m1) == (pytest.approx(0.6), pytest.approx(0.7))


def _random_fractional(rng):
    inst = random_cluster(rng)
    core = core_of(inst)
    radius = float(rng.choice([v for v in core.distances() if v > 0] or [1.0]))
    thresholds = [v for v in core.distances() if v <= radius]
    t = float(rng.choice(thresholds)) if thresholds else 0.0
    model, sidx = _center_lp(core, ("top", 2, 1.0, t), radius)
    sol = solve_lp(model)
    if sol.status != OPTIMAL:
        return None
    _, u, y = _lp_parts(core, sol.x)
    return inst, core, radius, u, y


def test_split_invariants_random():
    rng = np.random.default_rng(1)
    produced = 0
    while produced < 25:
        found = _random_fractional(rng)
        if found is None:
            continue
        inst, core, radius, u, y = found
        split = split_and_normalize(u, y, core, radius)
        produced += 1
        assert split.copy_count() <= inst.n_facilities * (inst.n_clients + 1)
        per_fac = {}
        for c in range(split.copy_count()):
            per_fac[split.original[c]] = per_fac.get(split.original[c], 0.0) \
                + split.mass[c]
        for i, total in per_fac.items():
            assert total == pytest.approx(float(y[i]), abs=1e-6)
        for j in range(inst.n_clients):
            mass = sum(split.mass[c] for c in split.support[j])
            assert mass == pytest.approx(split.u[j], abs=1e-6)
            dists = [split.dist(j, c) for c in split.support[j]]
            assert dists == sorted(dists)
            assert all(dv <= radius + 1e-9 for dv in dists)


def test_bundle_trace_single_client():
    # u = 1.5 over three half-copies at distances 1 < 2 < 3: the nearest two
    # make the full bundle, the farthest becomes a partial with counter 1
    d = np.zeros((4, 4))
    d[0, 1] = d[1, 0] = 1.0
    d[0, 2] = d[2, 0] = 2.0
    d[0, 3] = d[3, 0] = 3.0
    d[1, 2] = d[2, 1] = 3.0
    d[1, 3] = d[3, 1] = 4.0
    d[2, 3] = d[3, 2] = 5.0
    inst = ClusterInstance(n_clients=1, n_facilities=3, d=d, k=2, m=0, l=[0], r=[2])
    core = core_of(inst)
    split = split_and_normalize(u=[1.5], y=[0.5, 0.5, 0.5], core=core, radius=3.0)
    bs = build_bundles(split)
    assert len(bs.full_indices()) == 1 and len(bs.partial_indices()) == 1
    full = bs.bundles[bs.full_indices()[0]]
    assert sorted(bs.split.original[c] for c in full) == [0, 1]
    partial = bs.partial_indices()[0]
    assert [bs.split.original[c] for c in bs.bundles[partial]] == [2]
    assert bs.reuse[partial] == 1
    assert bs.queues[0] == [bs.full_indices()[0], partial]


@pytest.mark.parametrize("stalled", ["bundle pass 1", "bundle pass 2"])
def test_bundle_passes_stop_at_their_slot_count(monkeypatch, stalled):
    """A planted step that fills no queue slot: the pass raises once it has
    picked more times than there are slots, where it would loop forever."""
    d = np.array([[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 3.0, 4.0],
                  [2.0, 3.0, 0.0, 5.0], [3.0, 4.0, 5.0, 0.0]])
    inst = ClusterInstance(n_clients=1, n_facilities=3, d=d, k=2, m=0, l=[0], r=[2])
    split = split_and_normalize(u=[1.5], y=[0.5, 0.5, 0.5], core=core_of(inst), radius=3.0)
    fill = cluster._fill_slots

    def planted(queues, want, pick, place, what):
        return fill(queues, want, pick, (lambda chosen: None) if what == stalled else place, what)

    monkeypatch.setattr(cluster, "_fill_slots", planted)
    with pytest.raises(SolverInternalError, match=f"{stalled} picked again after filling all 1 open"):
        build_bundles(split)


def test_bundles_all_full_when_integral_extents():
    d = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            if a != b:
                d[a, b] = 1.0 + abs(a - b) * 0.5
    inst = ClusterInstance(n_clients=2, n_facilities=2, d=d, k=2, m=2,
                           l=[1, 1], r=[1, 1])
    core = core_of(inst)
    split = split_and_normalize(u=[1.0, 1.0], y=[1.0, 1.0], core=core, radius=3.0)
    bs = build_bundles(split)
    assert not bs.partial_indices()
    assert all(len(q) == 1 for q in bs.queues)


def test_bundle_invariants_and_distance_lemma_random():
    rng = np.random.default_rng(2)
    produced = 0
    while produced < 30:
        found = _random_fractional(rng)
        if found is None:
            continue
        _, core, radius, u, y = found
        split = split_and_normalize(u, y, core, radius)
        bs = build_bundles(split)
        produced += 1
        check_bundle_structure(bs)
        check_bundle_distances(split, bs)  # raises on any violation


def test_closest_mass_distances():
    d = np.zeros((3, 3))
    d[0, 1] = d[1, 0] = 1.0
    d[0, 2] = d[2, 0] = 2.0
    d[1, 2] = d[2, 1] = 3.0
    inst = ClusterInstance(n_clients=1, n_facilities=2, d=d, k=2, m=0, l=[0], r=[2])
    split = split_and_normalize(u=[2.0], y=[1.0, 1.0], core=core_of(inst), radius=2.0)
    assert closest_mass_distances(split, 0) == [1.0, 2.0]


def test_solve_example_line():
    inst = _line_instance()
    res = solve_topl_kcenter(inst, 2, 1.0, eps=0.1)
    assert 3.0 <= res.value <= (12 + 0.1) * 3.0  # oracle optimum is 3
    opt = brute_force_kcenter(inst, top_norm(2, 1))
    assert opt.value == 3.0


def test_solve_nearest_when_k_large():
    rng = np.random.default_rng(3)
    for _ in range(5):
        inst = random_cluster(rng, nc_hi=3, nf_hi=4)
        free = ClusterInstance(n_clients=inst.n_clients,
                               n_facilities=inst.n_facilities, d=inst.d,
                               k=inst.n_facilities, m=0,
                               l=[1] * inst.n_clients, r=[1] * inst.n_clients)
        res = solve_topl_kcenter(free, 1, 1.0, eps=0.1)
        oracle_val = max(min(float(free.cf[j, i]) for i in range(free.n_facilities))
                         for j in range(free.n_clients))
        assert res.value <= (3 * 4 + 0.1) * max(oracle_val, 1e-12)
        assert res.value >= oracle_val - 1e-12


def test_solve_zero_requirements():
    inst = ClusterInstance(n_clients=1, n_facilities=2,
                           d=_line_instance().d, k=1, m=0, l=[0], r=[1])
    res = solve_topl_kcenter(inst, 1, 1.0, eps=0.1)
    assert res.value == 0.0
    assert res.solution.assigned == ((),)


def test_solve_infeasible_raises():
    inst = _line_instance()
    tight = ClusterInstance(n_clients=1, n_facilities=2, d=inst.d, k=1, m=2,
                            l=[2], r=[2])
    with pytest.raises(InfeasibleError):
        solve_topl_kcenter(tight, 1, 1.0, eps=0.1)


def test_matroid_uniform_part_matches_cardinality_guesses():
    rng = np.random.default_rng(4)
    for _ in range(6):
        inst = random_cluster(rng)
        minst = MatroidClusterInstance(
            base=ClusterInstance(n_clients=inst.n_clients,
                                 n_facilities=inst.n_facilities, d=inst.d,
                                 k=inst.n_facilities, m=inst.m, l=inst.l, r=inst.r),
            parts=(tuple(range(inst.n_facilities)),), capacities=(inst.k,))
        res_m = solve_matroid_center(minst, top_norm(2, 1.0), eps=0.1)
        res_c = solve_topl_kcenter(inst, 2, 1.0, eps=0.1)
        assert res_m.certificate["radius"] == res_c.certificate["radius"]
        assert res_m.certificate["bound"] == pytest.approx(res_c.certificate["bound"])
        assert len(res_m.solution.open_facilities) <= inst.k


def test_matroid_one_part_per_facility_is_free():
    inst = _line_instance()
    minst = MatroidClusterInstance(
        base=ClusterInstance(n_clients=1, n_facilities=2, d=inst.d, k=2, m=2,
                             l=[2], r=[2]),
        parts=((0,), (1,)), capacities=(1, 1))
    res = solve_matroid_center(minst, top_norm(2, 1.0), eps=0.1)
    assert res.solution.open_facilities == (0, 1)


def test_matroid_random_independent_and_bounded():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 8:
        inst = random_cluster(rng)
        nf = inst.n_facilities
        perm = [int(v) for v in rng.permutation(nf)]
        cut = int(rng.integers(1, nf + 1))
        parts = [tuple(perm[:cut]), tuple(perm[cut:])]
        parts = [p for p in parts if p]
        caps = [int(rng.integers(1, len(p) + 1)) for p in parts]
        base = ClusterInstance(n_clients=inst.n_clients, n_facilities=nf, d=inst.d,
                               k=nf, m=inst.m, l=inst.l, r=inst.r)
        minst = MatroidClusterInstance(base=base, parts=tuple(parts),
                                       capacities=tuple(caps))
        try:
            opt = brute_force_matroid_center(minst, top_norm(2, 1.0))
        except Exception:
            continue
        res = solve_matroid_center(minst, top_norm(2, 1.0), eps=0.1)
        checked += 1
        opened = Counter(res.solution.open_facilities)
        for part, cap in zip(parts, caps):
            assert sum(opened[i] for i in part) <= cap
        if opt.value > 0:
            assert res.value / opt.value <= 3 * 4 + 0.1


def test_knapsack_zero_weights_no_violation():
    inst = _line_instance()
    kinst = KnapsackClusterInstance(
        base=ClusterInstance(n_clients=1, n_facilities=2, d=inst.d, k=2, m=2,
                             l=[2], r=[2]),
        wt=np.zeros(2), budget=0.0)
    res = solve_knapsack_center(kinst, top_norm(2, 1.0), eps=0.25)
    assert res.certificate["weight"] == 0.0
    assert res.value == 3.0


def test_knapsack_single_heavy_facility():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    base = ClusterInstance(n_clients=1, n_facilities=1, d=d, k=1, m=1, l=[1], r=[1])
    kinst = KnapsackClusterInstance(base=base, wt=np.array([5.0]), budget=5.0)
    res = solve_knapsack_center(kinst, top_norm(1, 1.0), eps=0.5)
    assert res.solution.open_facilities == (0,)
    assert res.certificate["weight"] == 5.0
    assert res.value == 1.0


def test_knapsack_random_weight_and_ratio():
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 6:
        inst = random_cluster(rng, nc_hi=3, nf_hi=4)
        nf = inst.n_facilities
        wt = rng.uniform(0.0, 1.0, size=nf)
        base = ClusterInstance(n_clients=inst.n_clients, n_facilities=nf, d=inst.d,
                               k=nf, m=inst.m, l=inst.l, r=inst.r)
        kinst = KnapsackClusterInstance(base=base, wt=wt,
                                        budget=float(wt.sum()) * 0.7)
        try:
            opt = brute_force_knapsack_center(kinst, top_norm(1, 1.0))
        except Exception:
            continue
        eps = 0.25
        res = solve_knapsack_center(kinst, top_norm(1, 1.0), eps)
        checked += 1
        assert res.certificate["weight"] <= (1 + 2 * eps) * kinst.budget + 1e-9
        if opt.value > 0:
            assert res.value / opt.value <= 1 + 3 * 4 + 0.1


def test_matroid_and_knapsack_with_ordered_norms():
    rng = np.random.default_rng(7)
    from maxnorm.norms import max_ordered_norm
    from maxnorm.oracle import brute_force_kcenter as _  # noqa: F401

    done = 0
    while done < 4:
        inst = random_cluster(rng, nc_hi=3, nf_hi=4)
        nf = inst.n_facilities
        ws = [tuple(sorted(rng.uniform(0, 1, size=3), reverse=True))
              for _ in range(int(rng.integers(1, 3)))]
        norm = max_ordered_norm(ws)
        base = ClusterInstance(n_clients=inst.n_clients, n_facilities=nf, d=inst.d,
                               k=nf, m=inst.m, l=inst.l, r=inst.r)
        minst = MatroidClusterInstance(base=base, parts=(tuple(range(nf)),),
                                       capacities=(max(inst.k, int(inst.l.max()) if len(inst.l) else 1),))
        try:
            res_m = solve_matroid_center(minst, norm, eps=0.1)
        except InfeasibleError:
            continue
        assert res_m.value <= res_m.certificate["per_client_bound"] + 1e-9
        wt = rng.uniform(0.1, 1.0, size=nf)
        kinst = KnapsackClusterInstance(base=base, wt=wt, budget=float(wt.sum()))
        res_k = solve_knapsack_center(kinst, norm, eps=0.5)
        assert res_k.certificate["weight"] <= 2.0 * kinst.budget + 1e-9
        assert res_k.value <= res_k.certificate["per_client_bound"] + 1e-9
        done += 1


def test_knapsack_preconnections_bisect_like_the_max(monkeypatch):
    """Each client's pre-connection count, bisected in its prefix norm table
    for every grid bound at once, is the largest count whose norm stays
    within the bound."""
    from maxnorm.generators import gen_knapsack_cluster
    from maxnorm.norms import max_ordered_norm

    bisected = cluster._preconnections
    seen = []

    def checked(tables, bounds):
        patterns = bisected(tables, bounds)
        for bound, pre in zip(bounds, patterns.T):
            assert tuple(pre) == tuple(max(c for c in range(len(table))
                                           if table[c] <= bound + 1e-12) for table in tables)
            seen.extend(c for c in pre if c > 0)
        return patterns

    monkeypatch.setattr(cluster, "_preconnections", checked)
    for seed in range(12):
        kinst = gen_knapsack_cluster(seed, clients=3, facilities=4)
        for norm in (top_norm(2, 1.0), top_norm(1, 2.0), max_ordered_norm([(1.0, 0.5, 0.25)])):
            solve_knapsack_center(kinst, norm, 0.5)
    assert len(seen) >= 20


def test_ordered_center_single_client_exact():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    inst = ClusterInstance(n_clients=1, n_facilities=2, d=d, k=2, m=2, l=[2], r=[2])
    res = solve_ordered_kcenter(inst, [(1.0, 0.5)], eps=0.1)
    # only one feasible connection pattern: both facilities
    assert res.value == pytest.approx(2.0 + 0.5 * 1.0)


def _verdict_cores(rng):
    """Seeded cores with a budget each: tied distances (zeros included), l_j
    from 0 up to r_j, which often exceeds a ball, coverage m above sum l_j,
    k up to two above the facility count, partition parts of capacity 0,
    and knapsack weights with zeros under a limit within 1e-9 of a subset's
    weight, or 5e-7 or 0.5 below it.  Facility ids are a subset of the budget's, as in a residual."""
    for case in range(90):
        nc, nf = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        total = nf + int(rng.integers(0, 3))
        ids = tuple(sorted(int(v) for v in rng.choice(total, size=nf, replace=False)))
        r = rng.integers(1, nf + 1, size=nc)
        l = np.minimum(rng.integers(0, 3, size=nc), r)
        cf = np.round(rng.uniform(0.0, 1.0, size=(nc, nf)), 1)
        m = int(rng.integers(l.sum(), r.sum() + 1))
        kind = case % 3
        if kind == 0:
            budget = (CARDINALITY, int(rng.integers(1, nf + 3)))
        elif kind == 1:
            order = [int(v) for v in rng.permutation(total)]
            cuts = sorted(set(int(v) for v in rng.integers(1, total + 1, size=2)))
            parts = tuple(tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [total]) if a < b)
            budget = (PARTITION, parts, tuple(int(rng.integers(0, len(p) + 1)) for p in parts))
        else:
            wt = np.where(rng.random(total) < 0.3, 0.0, rng.uniform(0.0, 1.0, size=total))
            subset = wt[rng.random(total) < 0.5].sum()
            budget = (KNAPSACK, wt, float(subset + rng.choice([-5e-7, -1e-9, 0.0, 1e-9, -0.5])))
        yield cluster.CenterCore(cf=cf, l=l, r=r, m=m, facility_ids=ids, budget=budget)
    # a client that needs no facility, under limits at and just below 0
    for limit in (-5e-7, -5e-8, -1e-9, 0.0):
        yield cluster.CenterCore(cf=np.array([[0.0, 0.5]]), l=np.array([0]), r=np.array([1]),
                                 m=0, facility_ids=(0, 1),
                                 budget=(KNAPSACK, np.array([0.2, 0.0]), limit))


def test_cover_verdict_matches_highs():
    """Wherever the LP-free verdict decides a radius's weakest relaxation,
    Top (T = R) or ordered (every threshold at R), HiGHS agrees."""
    rng = np.random.default_rng(321)
    decided = Counter()
    for core in _verdict_cores(rng):
        budget = core.budget
        r0 = max(core.r0, 1)
        sparse, pos = sparsify_weights([(1.0, 0.5, 0.25)], r0)
        thresholds = single_threshold_candidates(core.distances())
        radii = sorted(set(core.distances()) | {0.0})
        for radius, ti in zip(radii, weakest_thresholds(radii, thresholds)):
            covered = dataclasses.replace(core, coverage=bool(rng.random() < 0.7))
            verdict = cluster._cover_verdict(covered, radius)
            if verdict is None:
                continue
            seq = center_sequences(radius, r0)[0]
            specs = [("top", 2, 1.0, thresholds[ti])]
            if seq is not None:
                specs.append(("ordered", sparse, pos, seq))
            for spec in specs:
                model, _ = _center_lp(covered, spec, radius)
                assert verdict == (solve_lp(model).status == OPTIMAL), (budget, radius, spec)
            decided[budget[0], verdict] += 1
    assert all(decided[kind, v] >= 20 for kind in (CARDINALITY, PARTITION, KNAPSACK)
               for v in (True, False)), decided


def test_implied_count_rows_take_the_cover_verdict():
    """At a Top probe (R, T) whose count rows the column bounds imply, the
    radius's LP-free verdict, wherever it decides, is the probe LP's status:
    random probes with T up to R, ell from 1 to 3 and q of 1 or 2, under
    cardinality, partition and knapsack budgets.  Many decided probes count
    a pair within the radius, so their rows are not empty."""
    rng = np.random.default_rng(322)
    seen, probes = Counter(), 0
    for core in _verdict_cores(rng):
        budget = core.budget
        thresholds = single_threshold_candidates(core.distances())
        radii = sorted(set(core.distances()) | {0.0})
        weakest = weakest_thresholds(radii, thresholds)
        for _ in range(6):
            ri = int(rng.integers(0, len(radii)))
            radius, t = radii[ri], thresholds[int(rng.integers(0, weakest[ri] + 1))]
            ell, q = int(rng.integers(1, 4)), float(rng.choice([1.0, 2.0]))
            probes += 1
            if not cluster._count_rows_implied(core, radius, t, ell):
                seen["not implied"] += 1
                continue
            verdict = cluster._cover_verdict(core, radius)
            if verdict is None:
                continue
            model, _ = _center_lp(core, ("top", ell, q, t), radius)
            assert verdict == (solve_lp(model).status == OPTIMAL), (budget, radius, t, ell, q)
            seen[budget[0], verdict] += 1
            seen["counting"] += bool(((core.cf > t) & ~(core.cf > radius)).any())
    assert probes >= 500
    assert seen["not implied"] >= 50 and seen["counting"] >= 50, seen
    assert all(seen[kind, v] >= 20 for kind in (CARDINALITY, PARTITION, KNAPSACK)
               for v in (True, False)), seen


def test_vectorized_center_lp_matches_dict_rows():
    """_center_lp emits the dict builder's rows, in its order, with its floats
    and sign bits: every budget (residual cores whose partition parts lose
    every local member, a facility in no part), coverage on and off, fixed
    and free bounds, radius 0, Top at q 1 and 2.5, and ordered weights
    whose deltas are zero or cancel."""
    rng = np.random.default_rng(77)
    cases = list(itertools.islice(_verdict_cores(rng), 30))
    # part (0, 1) has no local member and local facility 4 is in no part
    cases.append(cluster.CenterCore(cf=np.round(rng.uniform(0.0, 1.0, size=(3, 3)), 1),
                                    l=np.array([1, 0, 1]), r=np.array([2, 1, 3]), m=3,
                                    facility_ids=(2, 3, 4),
                                    budget=(PARTITION, ((0, 1), (2, 3)), (1, 1))))
    models, zero_terms = Counter(), 0
    for core in cases:
        r0 = max(core.r0, 1)
        pos, dists = pos_set(r0), core.distances()
        weight_sets = [sparsify_weights([(1.0, 0.5, 0.25)], r0)[0],
                       [(0.0,) * r0],  # every delta zero: no mass rows
                       # unsorted small integers: deltas of both signs cancel
                       [tuple(float(v) for v in rng.integers(0, 3, r0)) for _ in range(2)]]
        for radius in sorted({0.0, dists[len(dists) // 2], dists[-1]}):
            specs = [("top", r0, 1.0, 0.0)]
            if radius > 0.0:
                seqs = [next(iter(enumerate_threshold_sequences(radius, r0))),
                        ThresholdSequence(anchor=radius, positions=pos.indices, values=tuple(
                            sorted(rng.choice(dists, size=len(pos.indices)), reverse=True)))]
                specs += [("top", ell, q, t) for ell, q in ((1, 1.0), (2, 2.5))
                          for t in (0.0, dists[0], radius)]
                specs += [("ordered", w, pos, seq) for w in weight_sets for seq in seqs]
            for spec, fixed, coverage in itertools.product(specs, (None, 1.75), (True, False)):
                covered = dataclasses.replace(core, coverage=coverage)
                model, sidx = _center_lp(covered, spec, radius, fixed)
                ref, ref_sidx = dict_rows.center_lp(covered, spec, radius, fixed)
                assert sidx == ref_sidx
                dict_rows.assert_same_model(model, ref)
                models[core.budget[0], spec[0]] += 1
                nx = core.n_clients * core.n_facilities  # norm terms that cancelled
                zero_terms += sum(c == 0.0 for coeffs, _, _ in ref.rows
                                  for idx, c in coeffs.items() if idx < nx)
    assert min(models.values()) >= 100 and len(models) == 6, models
    assert zero_terms > 0


def _accepted_lp_solution(core, rng):
    """An LP solution of the relaxation at the largest radius, or None."""
    radius = max(core.distances())
    t = float(rng.choice(core.distances()))
    model, _ = _center_lp(core, ("top", 1, 1.0, t), radius)
    sol = solve_lp(model)
    return (radius, _lp_parts(core, sol.x)) if sol.status == OPTIMAL else None


def test_round_accepted_unit_weights_match_the_reuse_counts():
    """Weights of 1 give each partial bundle its reuse count as profit, and
    in general the objective is the weighted count of opened queue bundles."""
    rng = np.random.default_rng(41)
    checked = 0
    for seed in range(12):
        inst = random_cluster(rng)
        minst = gen_matroid_cluster(seed, clients=int(rng.integers(1, 5)),
                                    facilities=int(rng.integers(2, 6)), parts=2)
        for core in (core_of(inst),
                     core_of(minst.base, (PARTITION, minst.parts, minst.capacities))):
            found = _accepted_lp_solution(core, rng)
            if found is None:
                continue
            radius, xuy = found
            bs, z, obj = cluster._round_accepted(core, xuy, radius)
            ones = cluster._round_accepted(core, xuy, radius, [1] * core.n_clients)
            assert (ones[1], ones[2]) == (z, obj)
            _, assigned = cluster.assemble_solution(z, bs)
            assert obj == cluster._coverage(assigned)
            weights = [Fraction(int(rng.integers(0, 7)), int(rng.integers(1, 4)))
                       for _ in range(core.n_clients)]
            bs_w, z_w, obj_w = cluster._round_accepted(core, xuy, radius, weights)
            _, assigned_w = cluster.assemble_solution(z_w, bs_w)
            assert obj_w == sum(w * len(a) for w, a in zip(weights, assigned_w))
            checked += 1
    assert checked >= 12


def test_knapsack_eps_past_the_float_reciprocal():
    """At eps 1e-320, 1/eps is infinite, which made the heavy-set size limit
    raise OverflowError; every positive-weight facility is heavy there, as
    at eps 1e-300, and the two solves agree."""
    from maxnorm.generators import gen_knapsack_cluster

    kinst = gen_knapsack_cluster(1, clients=5, facilities=5)
    tiny, small = (solve_knapsack_center(kinst, top_norm(1, 1.0), eps) for eps in (1e-320, 1e-300))
    assert tiny.solution == small.solution and tiny.value == small.value


def test_all_zero_ordered_weights_price_every_opening_at_zero():
    """An all-zero max-ordered norm: the ordered k-center and matroid drivers
    take the Top-(1,1) scan's radius at bound 0, and the knapsack driver's
    bound grid at a radius is the radius alone, so its bound is a radius."""
    from maxnorm.generators import gen_cluster, gen_knapsack_cluster
    from maxnorm.instances import validate_cluster_solution
    from maxnorm.norms import max_ordered_norm

    zero = max_ordered_norm([[0.0, 0.0, 0.0]])
    for seed in range(4):
        inst = gen_cluster(seed, clients=4, facilities=5, k=2)
        res = solve_ordered_kcenter(inst, zero.weights, 0.1)
        top = solve_topl_kcenter(inst, 1, 1.0, 0.1)
        assert (res.value, res.certificate["bound"]) == (0.0, 0.0)
        assert res.certificate["radius"] == top.certificate["radius"]
        assert brute_force_kcenter(inst, zero).value == 0.0
        validate_cluster_solution(inst, res.solution, check_cardinality=True)
        minst = gen_matroid_cluster(seed, clients=4, facilities=5)
        res = solve_matroid_center(minst, zero, 0.1)
        top = solve_matroid_center(minst, top_norm(1, 1.0), 0.1)
        assert (res.value, res.certificate["bound"]) == (0.0, 0.0)
        assert res.certificate["radius"] == top.certificate["radius"]
        kinst = gen_knapsack_cluster(seed, clients=4, facilities=5)
        res = solve_knapsack_center(kinst, zero, 0.1)
        assert res.value == 0.0 and res.certificate["bound"] == res.certificate["radius"]
        assert res.certificate["weight"] <= 1.2 * kinst.budget + 1e-9
        assert brute_force_knapsack_center(kinst, zero).value == 0.0


def test_top_kcenter_rejects_an_infinite_q():
    """q = inf once reached the scan unchecked, which raised InfeasibleError
    on a feasible instance; the norm rejects it as invalid input."""
    from maxnorm.errors import InvalidInputError
    from maxnorm.generators import gen_cluster

    with pytest.raises(InvalidInputError, match="finite q"):
        solve_topl_kcenter(gen_cluster(0, 5, 5), 2, math.inf, 0.1)


def test_top_drivers_reject_a_fractional_ell():
    """ell = 2.5 once gave the scan count caps of 2.5 and the value a Top-2
    norm; the norm, the k-center driver and the makespan driver reject it."""
    from maxnorm.errors import InvalidInputError
    from maxnorm.generators import gen_cluster, gen_load
    from maxnorm.load import solve_topl_makespan

    for call in (lambda: top_norm(2.5, 1.0),
                 lambda: solve_topl_kcenter(gen_cluster(0, 5, 5), 2.5, 1.0, 0.1),
                 lambda: solve_topl_makespan(gen_load(0, 3, 5), 2.5, 1.0, 0.1)):
        with pytest.raises(InvalidInputError, match="integral ell"):
            call()
    assert top_norm(2.0, 1.0) == top_norm(2, 1.0)
