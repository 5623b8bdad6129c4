from collections import Counter

import numpy as np
import pytest

from _gen import random_cluster
from maxnorm import cluster
from maxnorm.cluster import (build_bundles, check_bundle_distances,
                             check_bundle_structure, closest_mass_distances,
                             core_of, solve_knapsack_center, solve_matroid_center,
                             solve_ordered_kcenter, solve_topl_kcenter,
                             split_and_normalize, _center_lp, _lp_parts,
                             CARDINALITY)
from maxnorm.errors import InfeasibleError, SolverInternalError
from maxnorm.instances import (ClusterInstance, KnapsackClusterInstance,
                               MatroidClusterInstance)
from maxnorm.lp import INFEASIBLE, OPTIMAL, solve_lp
from maxnorm.norms import top_norm
from maxnorm.oracle import (brute_force_kcenter, brute_force_knapsack_center,
                            brute_force_matroid_center)


def _line_instance():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    return ClusterInstance(n_clients=1, n_facilities=2, d=d, k=2, m=2, l=[2], r=[2])


def test_center_lp_examples():
    inst = _line_instance()
    core = core_of(inst)
    model, _ = _center_lp(core, (CARDINALITY, 2), ("top", 2, 1.0, 0.0),
                          radius=2.0, fixed_bound=100.0)
    sol = solve_lp(model)
    assert sol.status == OPTIMAL
    _, _, y = _lp_parts(core, sol.x)
    assert y.sum() == pytest.approx(2.0)
    tight = ClusterInstance(n_clients=1, n_facilities=2, d=inst.d, k=1, m=2,
                            l=[2], r=[2])
    model, _ = _center_lp(core_of(tight), (CARDINALITY, 1), ("top", 2, 1.0, 0.0),
                          radius=2.0, fixed_bound=100.0)
    assert solve_lp(model).status == INFEASIBLE


def test_center_lp_feasible_at_oracle_guess():
    rng = np.random.default_rng(0)
    for _ in range(8):
        inst = random_cluster(rng)
        ell, q = 2, 1.0
        opt = brute_force_kcenter(inst, top_norm(ell, q))
        tl = opt.thresholds[ell - 1] if len(opt.thresholds) >= ell else 0.0
        model, _ = _center_lp(core_of(inst), (CARDINALITY, inst.k),
                              ("top", ell, q, tl), radius=opt.radius,
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
    model, sidx = _center_lp(core, (CARDINALITY, inst.k), ("top", 2, 1.0, t), radius)
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
    """Each client's pre-connection count, bisected in its prefix norm table,
    is the largest count whose norm stays within the bound."""
    from maxnorm.generators import gen_knapsack_cluster
    from maxnorm.norms import max_ordered_norm

    bisected = cluster._connections_within
    seen = []

    def checked(tables, bound):
        pre = bisected(tables, bound)
        assert pre == tuple(max(c for c in range(len(table)) if table[c] <= bound + 1e-12)
                            for table in tables)
        seen.extend(c for c in pre if c > 0)
        return pre

    monkeypatch.setattr(cluster, "_connections_within", checked)
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
