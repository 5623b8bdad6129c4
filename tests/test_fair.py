import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from maxnorm import cluster, fair
from maxnorm.errors import InfeasibleError, InvalidInputError, ResourceCapError
from maxnorm.fair import (DualPoint, SolutionDistribution, _CenterSeparation, _LoadSeparation,
                          _SAMPLE_MAX_N, center_marginals, compute_eta, ct_count,
                          load_marginals, round_and_cut, sample, sample_counts, solve_fair)
from maxnorm.generators import gen_fair_cluster, gen_fair_load
from maxnorm.instances import (Assignment, FairLoadInstance, LoadInstance,
                               eval_load_objective)
from maxnorm.norms import eval_norm, max_ordered_norm, top_norm
from maxnorm.oracle import brute_force_fair, brute_force_fair_opt


def test_compute_eta_examples():
    assert compute_eta(DualPoint(alpha=(Fraction(1, 2), Fraction(1, 3)),
                                 mu=Fraction(1))) == Fraction(1, 12)
    assert compute_eta(DualPoint(alpha=(Fraction(2), Fraction(3)),
                                 mu=Fraction(5))) == Fraction(1, 2)


def test_eta_strict_nonstrict_equivalence():
    rng = np.random.default_rng(0)
    for _ in range(30):
        m = int(rng.integers(1, 4))
        alpha = tuple(Fraction(int(rng.integers(0, 8)), int(rng.integers(1, 6)))
                      for _ in range(m))
        mu = Fraction(int(rng.integers(-5, 10)), int(rng.integers(1, 6)))
        eta = compute_eta(DualPoint(alpha=alpha, mu=mu))
        for counts in itertools.product(range(4), repeat=m):
            val = sum(a * c for a, c in zip(alpha, counts))
            assert (val < mu) == (val <= mu - eta)


def test_ct_examples():
    norm = top_norm(1, 1.0)
    assert ct_count(norm, float("inf"), [1.0, 2.0, 3.0], cap=2) == 2
    assert ct_count(norm, 0.5, [1.0, 2.0], cap=2) == 0
    assert ct_count(top_norm(2, 1.0), 3.0, [1.0, 2.0, 3.0], cap=3) == 2


def test_ct_greedy_matches_exhaustive():
    rng = np.random.default_rng(1)
    for _ in range(40):
        norm = top_norm(int(rng.integers(1, 3)), float(rng.choice([1.0, 2.0])))
        dists = sorted(float(v) for v in rng.uniform(0, 3, size=5))
        bound = float(rng.uniform(0, 4))
        cap = int(rng.integers(0, 6))
        best = 0
        for size in range(min(cap, 5) + 1):
            for sub in itertools.combinations(dists, size):
                if eval_norm(norm, list(sub)) <= bound:
                    best = max(best, size)
        assert ct_count(norm, bound, dists, cap) == best


def _toy_load():
    return FairLoadInstance(base=LoadInstance(p=[[1.0], [1.0]]), e=("1/2", "1/2"))


def test_separation_zero_alpha_cuts():
    finst = _toy_load()
    oracle = _LoadSeparation(finst, bound=1.0, ell=1, q=1.0)
    verdict, key, cut = oracle((Fraction(0), Fraction(0), Fraction(1)))
    assert verdict == "cut"
    sigma, counts = cut[1]
    assert eval_load_objective(finst.base, top_norm(1, 1), Assignment(sigma)) <= 4.0


def test_separation_member_when_bound_too_small():
    finst = _toy_load()
    oracle = _LoadSeparation(finst, bound=0.5, ell=1, q=1.0)
    verdict, _, _ = oracle((Fraction(0), Fraction(0), Fraction(1)))
    assert verdict == "member"  # no assignment fits below every job size


def test_round_and_cut_toy_distribution():
    finst = _toy_load()
    verdict, dist = round_and_cut(finst, bound=1.0, ell=1, q=1.0)
    assert verdict == "distribution"
    assert sorted(dist.support) == [(0,), (1,)]
    assert dist.weights == (Fraction(1, 2), Fraction(1, 2))


def test_round_and_cut_slack_caps_single_assignment():
    base = LoadInstance(p=[[2.0, 1.0], [1.0, 2.0]])
    finst = FairLoadInstance(base=base, e=(4, 4))  # caps above the job count
    verdict, dist = round_and_cut(finst, bound=2.0, ell=1, q=1.0)
    assert verdict == "distribution"
    assert len(dist.support) == 1


def test_solve_fair_toy_bound():
    res = solve_fair(_toy_load(), top_norm(1, 1), eps=0.1)
    assert res.bound == 1.0
    assert res.distribution.weights == (Fraction(1, 2), Fraction(1, 2))


def test_fair_load_random_marginals_support_and_ratio():
    rng = np.random.default_rng(2)
    for seed in range(8):
        machines = int(rng.integers(2, 4))
        jobs = int(rng.integers(2, 5))
        finst = gen_fair_load(seed, machines=machines, jobs=jobs, pmax=6)
        ell, q = int(rng.integers(1, 3)), float(rng.choice([1.0, 2.0]))
        norm = top_norm(ell, q)
        res = solve_fair(finst, norm, eps=0.1)
        dist = res.distribution
        for sigma in dist.support:
            assert eval_load_objective(finst.base, norm, Assignment(sigma)) \
                <= dist.cert_bound
        marg = load_marginals(dist, machines)
        assert all(mv <= ev for mv, ev in zip(marg, finst.e))
        fair_opt, _ = brute_force_fair_opt(finst, norm, eps=0.1)
        assert res.bound <= (4 ** (1 / q) + 0.1) * fair_opt + 1e-9


def test_fair_center_random_marginals_support_and_ratio():
    rng = np.random.default_rng(3)
    done = 0
    seed = 0
    while done < 6:
        seed += 1
        finst = gen_fair_cluster(seed, clients=int(rng.integers(1, 4)),
                                 facilities=3, k=2)
        ell, q = int(rng.integers(1, 3)), float(rng.choice([1.0, 2.0]))
        norm = top_norm(ell, q)
        try:
            res = solve_fair(finst, norm, eps=0.1)
        except InfeasibleError:
            continue
        done += 1
        dist = res.distribution
        base = finst.base
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


def _load_family_exhaustive(finst, bound, ell, q):
    """F at this bound: threshold comparisons are strict, so the weakest
    valid guess uses T = bound / ell^(1/q) and R = bound."""
    inst = finst.base
    m, n = inst.machines, inst.jobs
    tcap = bound / ell ** (1.0 / q)
    out = []
    for combo in itertools.product(range(m), repeat=n):
        if any(not np.isfinite(inst.p[i, j]) for j, i in enumerate(combo)):
            continue
        if max(inst.p[i, j] for j, i in enumerate(combo)) > bound:
            continue
        ok = True
        for i in range(m):
            sizes = [inst.p[i, j] for j, ii in enumerate(combo) if ii == i]
            tail = [s for s in sizes if s > tcap]
            if len(tail) > ell or sum(s ** q for s in tail) > bound ** q + 1e-12:
                ok = False
                break
        if ok:
            out.append(combo)
    return out


def test_load_member_verdicts_are_sound():
    # whenever the oracle certifies membership, no integral solution in the
    # relaxation family violates the dual constraint
    rng = np.random.default_rng(4)
    members = 0
    for seed in range(20):
        finst = gen_fair_load(seed, machines=2, jobs=3, pmax=4)
        ell, q = 2, 1.0
        bound = float(rng.choice(finst.base.finite_sizes()))
        alpha = tuple(Fraction(int(rng.integers(0, 4)), 2) for _ in range(2))
        mu = sum(a * e for a, e in zip(alpha, finst.e)) + 1
        oracle = _LoadSeparation(finst, bound, ell, q)
        verdict, _, cut = oracle(alpha + (mu,))
        if verdict == "member":
            members += 1
            for sigma in _load_family_exhaustive(finst, bound, ell, q):
                counts = [sigma.count(i) for i in range(2)]
                assert sum(a * c for a, c in zip(alpha, counts)) >= mu
        else:
            sigma, counts = cut[1]
            assert sum(a * c for a, c in zip(alpha, counts)) < mu
    assert members >= 1


def _center_family_exhaustive(finst, bound, ell, q):
    """F at this bound for the center: open sets of size exactly k whose
    clients can each take some count in [l_j, r_j] of nearest facilities
    within distance B under the strict tail rows at T = B / ell^(1/q)."""
    base = finst.base
    tcap = bound / ell ** (1.0 / q)
    out = []
    for s in itertools.combinations(range(base.n_facilities), base.k):
        ok = True
        for j in range(base.n_clients):
            dists = sorted(float(base.cf[j, i]) for i in s
                           if base.cf[j, i] <= bound)
            cmax = 0
            for c in range(1, min(int(base.r[j]), len(dists)) + 1):
                tail = [d for d in dists[:c] if d > tcap]
                if len(tail) > ell or sum(d ** q for d in tail) > bound ** q + 1e-12:
                    break
                cmax = c
            if cmax < int(base.l[j]):
                ok = False
                break
        if ok:
            out.append(s)
    return out


def test_center_member_verdicts_are_sound():
    rng = np.random.default_rng(6)
    members = 0
    for seed in range(20):
        finst = gen_fair_cluster(seed, clients=2, facilities=3, k=2)
        base = finst.base
        ell, q = 1, 1.0
        bound = float(rng.choice([v for v in base.finite_distances()] or [1.0]))
        alpha = tuple(Fraction(int(rng.integers(0, 4)), 2)
                      for _ in range(base.n_clients))
        mu = sum(a * e for a, e in zip(alpha, finst.e)) - 1
        oracle = _CenterSeparation(finst, bound, ell, q)
        verdict, _, cut = oracle(alpha + (mu,))
        if verdict == "member":
            members += 1
            for s in _center_family_exhaustive(finst, bound, ell, q):
                cts = [ct_count(top_norm(ell, q), bound,
                                [float(base.cf[j, i]) for i in s],
                                int(base.r[j])) for j in range(base.n_clients)]
                assert sum(a * c for a, c in zip(alpha, cts)) <= mu
        else:
            s, cts = cut[1]
            assert sum(a * c for a, c in zip(alpha, cts)) > mu
    assert members >= 1


def test_center_cuts_verify_exactly():
    rng = np.random.default_rng(5)
    cuts = 0
    for seed in range(12):
        finst = gen_fair_cluster(seed, clients=2, facilities=3, k=2)
        base = finst.base
        bound = float(max(base.finite_distances()))
        alpha = tuple(Fraction(int(rng.integers(0, 3)), 2)
                      for _ in range(base.n_clients))
        mu = sum(a * e for a, e in zip(alpha, finst.e)) - 1
        oracle = _CenterSeparation(finst, bound, 1, 1.0)
        verdict, _, cut = oracle(alpha + (mu,))
        if verdict == "cut":
            cuts += 1
            s, cts = cut[1]
            norm = top_norm(1, 1.0)
            for j in range(base.n_clients):
                expect = ct_count(norm, oracle.cert_bound,
                                  [float(base.cf[j, i]) for i in s],
                                  int(base.r[j]))
                assert cts[j] == expect
            assert sum(a * c for a, c in zip(alpha, cts)) > mu
    assert cuts >= 1


def test_fair_center_toy_against_exact_oracle():
    # one client, two facilities at distance 1, k=1, l=0, r=1, target 1/2:
    # the exact oracle over {empty, {f1}, {f2}} needs half a connection in
    # expectation, so fair-OPT sits at bound 1; the solver stays within factor
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    from maxnorm.instances import ClusterInstance, FairClusterInstance

    base = ClusterInstance(n_clients=1, n_facilities=2, d=d, k=1, m=0,
                           l=[0], r=[1])
    finst = FairClusterInstance(base=base, e=("1/2",))
    fair_opt, oracle_dist = brute_force_fair_opt(finst, top_norm(1, 1), eps=0.1)
    assert fair_opt == 1.0
    assert sum(w * len(s) for s, w in
               zip(oracle_dist.support, oracle_dist.weights)) >= Fraction(1, 2)
    res = solve_fair(finst, top_norm(1, 1), eps=0.1)
    marg = center_marginals(res.distribution, finst, top_norm(1, 1))
    assert marg[0] >= Fraction(1, 2)
    assert res.bound <= (3 * 4 + 0.1) * fair_opt


def test_fair_bound_close_to_nonfair_opt_when_caps_slack():
    # with per-machine caps at the job count any optimal assignment is fair,
    # so the accepted bound stays within the deterministic guarantee
    from maxnorm.oracle import brute_force_makespan

    rng = np.random.default_rng(7)
    for seed in range(5):
        machines, jobs = 2, 3
        base = gen_fair_load(seed, machines=machines, jobs=jobs, pmax=9).base
        finst = FairLoadInstance(base=base, e=(jobs, jobs))
        ell, q = 2, 1.0
        res = solve_fair(finst, top_norm(ell, q), eps=0.1)
        opt = brute_force_makespan(base, top_norm(ell, q))
        assert res.bound <= (4 ** (1 / q) + 0.1) * opt.value + 1e-9


def test_fair_load_with_forbidden_pairs():
    p = np.array([[1.0, np.inf, 2.0], [3.0, 2.0, np.inf]])
    finst = FairLoadInstance(base=LoadInstance(p=p), e=(2, 2))
    res = solve_fair(finst, top_norm(1, 1), eps=0.1)
    for sigma in res.distribution.support:
        assert all(np.isfinite(p[i, j]) for j, i in enumerate(sigma))
    marg = load_marginals(res.distribution, 2)
    assert all(mv <= ev for mv, ev in zip(marg, finst.e))


def test_fair_oracle_matches_solver_feasibility():
    finst = _toy_load()
    assert brute_force_fair(finst, top_norm(1, 1), bound=0.5) is None
    dist = brute_force_fair(finst, top_norm(1, 1), bound=1.0)
    assert dist is not None and sorted(dist.support) == [(0,), (1,)]


def test_fair_infeasible_instance_raises():
    finst = FairLoadInstance(base=LoadInstance(p=[[1.0], [1.0]]), e=(0, 0))
    with pytest.raises(InfeasibleError):
        solve_fair(finst, top_norm(1, 1), eps=0.1)
    assert brute_force_fair_opt(finst, top_norm(1, 1), eps=0.1) is None


def test_sample_reproducible_and_singleton():
    finst = _toy_load()
    res = solve_fair(finst, top_norm(1, 1), eps=0.1)
    a = sample(res.distribution, seed=11, n=50)
    b = sample(res.distribution, seed=11, n=50)
    assert a == b
    single = round_and_cut(FairLoadInstance(base=LoadInstance(p=[[1.0]]), e=(2,)),
                           bound=1.0, ell=1, q=1.0)[1]
    assert sample(single, seed=3, n=5) == [single.support[0]] * 5


def _scanned_draws(dist, seed, n):
    """Draws by a linear scan of the cumulative weights."""
    rng = random.Random(seed)
    cum, acc = [], 0.0
    for w in dist.weights:
        acc += float(w)
        cum.append(acc)
    out = []
    for _ in range(n):
        r = rng.random()
        out.append(dist.support[next((t for t, c in enumerate(cum) if r < c), len(cum) - 1)])
    return out


def test_sample_draws_match_a_linear_scan():
    weights = [(Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)),
               (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)),
               (Fraction(1, 10),) * 10]
    for ws in weights:
        dist = SolutionDistribution(kind="load", support=tuple((i,) for i in range(len(ws))),
                                    weights=ws, bound=1.0, cert_bound=4.0)
        for seed in (0, 1, 7, 2024):
            for n in (1, 5, 3000):
                draws = sample(dist, seed, n)
                assert draws == _scanned_draws(dist, seed, n)
                assert sample_counts(dist, seed, n) == [draws.count(s) for s in dist.support]


def test_sample_rejects_counts_outside_its_range():
    dist = SolutionDistribution(kind="load", support=((0,),), weights=(Fraction(1),),
                                bound=1.0, cert_bound=4.0)
    for n in (0, -3):
        with pytest.raises(InvalidInputError):
            sample_counts(dist, 1, n)
    with pytest.raises(ResourceCapError):
        sample(dist, 1, _SAMPLE_MAX_N + 1)
    with pytest.raises(ResourceCapError):
        sample_counts(dist, 1, 10 ** 12)


def test_weighted_rows_with_huge_alpha_are_scaled():
    """HiGHS reads a coefficient of 1e15 or more as infinite: from there the
    weighted row and its right-hand side are divided by the largest alpha."""
    finst = gen_fair_load(1, machines=2, jobs=2)
    load = _LoadSeparation(finst, 10.0, 1, 1.0)
    small = DualPoint(alpha=(Fraction(3), Fraction(10 ** 14)), mu=Fraction(7))
    row, _, rhs = load._weighted_row(small, Fraction(1, 2))
    assert row == {0: 3.0, 1: 3.0, 2: 1e14, 3: 1e14} and rhs == 6.5
    big = DualPoint(alpha=(Fraction(3), Fraction(2 * 10 ** 16)), mu=Fraction(4 * 10 ** 16))
    row, _, rhs = load._weighted_row(big, Fraction(1, 2))
    assert row == {0: 1.5e-16, 1: 1.5e-16, 2: 1.0, 3: 1.0}
    assert rhs == float((Fraction(4 * 10 ** 16) - Fraction(1, 2)) / (2 * 10 ** 16))
    center = _CenterSeparation(gen_fair_cluster(1, clients=2, facilities=3), 1.0, 1, 1.0)
    big = DualPoint(alpha=(Fraction(10 ** 15), Fraction(0)), mu=Fraction(5))
    row, _, rhs = center._weighted_row(big, Fraction(1))
    assert list(row.values()) == [1.0] and rhs == 6e-15


def test_rows_hold_at_a_huge_q_raises_invalid_input():
    """A data value or the bound to the power q past the float range once
    escaped the base verdict as an OverflowError; it is invalid input, as
    in the LP's mass rows.  Where no value lies in (t, radius] the rows
    count nothing and hold with no power taken."""
    finst = gen_fair_load(1, machines=2, jobs=4)
    load = _LoadSeparation(finst, 10, 1, 1e300)
    top = load.values[-1]
    with pytest.raises(InvalidInputError, match="overflows a float"):
        load._rows_hold(top, 0.0, 1)
    with pytest.raises(InvalidInputError, match="overflows a float"):
        _LoadSeparation(finst, 10, 2, 1e300).base_verdict(top, 0.0)  # placed: two per machine
    assert load._rows_hold(top, top, 1)
    tiny = FairLoadInstance(base=LoadInstance(p=[[1.0], [1.0]]), e=("1/2", "1/2"))
    with pytest.raises(InvalidInputError, match="overflows a float"):
        _LoadSeparation(tiny, 2.0, 1, 1e300)._rows_hold(1.0, 0.0, 1)  # 2^q, 1^q is 1


def test_fair_load_solves_with_float_caps_that_reach_huge_alpha():
    """gen_fair_load(25, 3, 4) with caps round(0.7 e + 0.3, 1) read as binary
    floats, at Top-(2,1): a dual point reaches alpha near 1.8e16, which HiGHS
    rejected before the weighted row was scaled."""
    base = gen_fair_load(25, machines=3, jobs=4)
    caps = tuple(round(0.7 * float(e) + 0.3, 1) for e in base.e)
    finst = FairLoadInstance(base=base.base, e=caps)
    res = solve_fair(finst, top_norm(2, 1.0), eps=0.1)
    dist = res.distribution
    marginals = load_marginals(dist, finst.base.machines)
    assert all(m <= e for m, e in zip(marginals, finst.e))
    for sigma in dist.support:
        assert eval_load_objective(finst.base, top_norm(2, 1.0), Assignment(sigma)) \
            <= dist.cert_bound * (1 + 1e-9)


def _ct_count_loop(norm, bound, dists, cap):
    """The greedy count as an early-stopping loop over the nearest distances."""
    taken = []
    for d in sorted(dists):
        if len(taken) >= cap:
            break
        taken.append(d)
        if eval_norm(norm, taken) > bound:
            taken.pop()
            break
    return len(taken)


def test_ct_count_matches_the_greedy_loop():
    rng = np.random.default_rng(17)
    norms = [top_norm(1, 1.0), top_norm(2, 1.0), top_norm(2, 2.0), top_norm(3, 1.5),
             max_ordered_norm([[1.0, 0.5, 0.25]]), max_ordered_norm([[1.0], [0.6, 0.6, 0.6]])]
    for _ in range(150):
        norm = norms[int(rng.integers(0, len(norms)))]
        dists = [float(v) for v in np.round(rng.uniform(0, 3, size=int(rng.integers(0, 6))), 1)]
        reachable = [0.0] + [eval_norm(norm, sorted(dists)[:c]) for c in range(1, len(dists) + 1)]
        for bound in (-1.0, 0.0, float(rng.uniform(0, 6)),
                      float(rng.choice(reachable)), float("inf")):
            for cap in range(6):
                assert ct_count(norm, bound, dists, cap) == \
                    _ct_count_loop(norm, bound, dists, cap), (norm, bound, dists, cap)


def test_center_solve_builds_one_core(monkeypatch):
    """Every center oracle of one solve shares one core, so the relaxations'
    fixed parts are built once."""
    built, oracles = [], []

    class CountedParts(cluster._CenterParts):
        def __init__(self, core):
            built.append(core)
            super().__init__(core)

    class CountedOracle(fair._CenterSeparation):
        def __init__(self, *args):
            oracles.append(args)
            super().__init__(*args)

    monkeypatch.setattr(cluster, "_CenterParts", CountedParts)
    monkeypatch.setattr(fair, "_CenterSeparation", CountedOracle)
    solve_fair(gen_fair_cluster(3, clients=3, facilities=4, k=2), top_norm(2, 1.0), eps=0.1)
    assert len(oracles) > 1
    assert len(built) == 1
