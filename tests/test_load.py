from fractions import Fraction

import numpy as np
import pytest

from _gen import random_load, random_max_ordered_weights
from maxnorm.cluster import solve_knapsack_center, solve_topl_kcenter
from maxnorm.errors import InvalidInputError
from maxnorm.fair import solve_fair
from maxnorm.generators import gen_fair_load, gen_knapsack_cluster
from maxnorm.instances import Assignment, LoadInstance, eval_load_objective
from maxnorm.load import (_sequence_key, build_basic_load_lp, build_ordered_load_lp,
                          build_topl_load_lp, machine_copies, shmoys_tardos_round,
                          solve_ordered_makespan, solve_topl_makespan)
from maxnorm.lp import INFEASIBLE, OPTIMAL, solve_lp
from maxnorm.norms import max_ordered_norm, top_norm
from maxnorm.oracle import brute_force_makespan
from maxnorm.sparsify import (covering_threshold_sequence, enumerate_threshold_sequences,
                              sparsify_weights)


def test_basic_lp_single_pair():
    inst = LoadInstance(p=np.array([[5.0]]))
    sol = solve_lp(build_basic_load_lp(inst, radius=5.0))
    assert sol.status == OPTIMAL and sol.x[0] == pytest.approx(1.0)
    assert solve_lp(build_basic_load_lp(inst, radius=4.0)).status == INFEASIBLE


def test_basic_lp_feasible_at_oracle_radius():
    rng = np.random.default_rng(0)
    for _ in range(10):
        inst = random_load(rng, m_hi=3, j_hi=4, forbidden=0.2)
        opt = brute_force_makespan(inst, top_norm(1, 1))
        assert solve_lp(build_basic_load_lp(inst, opt.radius)).status == OPTIMAL


def test_topl_lp_reduces_to_basic_when_slack():
    rng = np.random.default_rng(1)
    for _ in range(10):
        inst = random_load(rng, m_hi=3, j_hi=4)
        radius = max(inst.finite_sizes())
        loose = build_topl_load_lp(inst, ell=inst.jobs, q=1.0, radius=radius,
                                   bound=1e9, threshold=0.0)
        basic = build_basic_load_lp(inst, radius)
        assert (solve_lp(loose).status == OPTIMAL) == (solve_lp(basic).status == OPTIMAL)


def test_topl_lp_infeasible_at_zero_bound():
    inst = LoadInstance(p=np.array([[2.0, 3.0], [4.0, 1.0]]))
    model = build_topl_load_lp(inst, ell=1, q=1.0, radius=4.0, bound=0.0, threshold=0.0)
    assert solve_lp(model).status == INFEASIBLE


def test_ordered_lp_single_weight_collapses_to_top1():
    rng = np.random.default_rng(2)
    for _ in range(10):
        inst = random_load(rng, m_hi=3, j_hi=4)
        n = inst.jobs
        sparse, pos = sparsify_weights([(1.0,)], n)
        radius = float(rng.choice(inst.finite_sizes()))
        bound = float(rng.uniform(0.5, 2) * radius)
        seq = covering_threshold_sequence(radius, n,
                                          {ell: radius for ell in pos.indices})
        ordered = build_ordered_load_lp(inst, sparse, pos, radius, bound, seq)
        # telescoping leaves the ell=1 term: same rows as the top-(1,1) LP at T=R
        top = build_topl_load_lp(inst, ell=1, q=1.0, radius=radius, bound=bound,
                                 threshold=radius)
        assert (solve_lp(ordered).status == OPTIMAL) == (solve_lp(top).status == OPTIMAL)


def test_ordered_lp_zero_weights_is_basic_feasibility():
    inst = LoadInstance(p=np.array([[2.0, 5.0], [3.0, 4.0]]))
    n = inst.jobs
    sparse, pos = sparsify_weights([(0.0, 0.0)], n)
    seq = covering_threshold_sequence(5.0, n, {ell: 5.0 for ell in pos.indices})
    model = build_ordered_load_lp(inst, sparse, pos, 5.0, 0.0, seq)
    assert solve_lp(model).status == OPTIMAL


def test_machine_copies_trace():
    # four half-jobs on one machine, ascending sizes: two copies {0,1} and {2,3}
    x = np.array([[0.5, 0.5, 0.5, 0.5]])
    p = np.array([[1.0, 2.0, 3.0, 4.0]])
    copies = machine_copies(x, p)
    assert len(copies[0]) == 2
    assert [j for j, _ in copies[0][0]] == [0, 1]
    assert [j for j, _ in copies[0][1]] == [2, 3]
    assert sum(a for _, a in copies[0][0]) == pytest.approx(1.0)


def test_rounding_integral_identity():
    inst = LoadInstance(p=np.array([[1.0, 2.0], [2.0, 1.0]]))
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    assignment, _ = shmoys_tardos_round(x, inst.p)
    assert assignment.sigma == (0, 1)


def test_machine_copies_structure_random():
    # full copies carry exactly one unit; job sizes never decrease from one
    # copy to the next on the same machine
    rng = np.random.default_rng(9)
    for inst, x, *_ in _fractional_solutions(rng, 10):
        for i, copies in enumerate(machine_copies(x, inst.p)):
            for t, content in enumerate(copies):
                total = sum(a for _, a in content)
                if t < len(copies) - 1:
                    assert total == pytest.approx(1.0, abs=1e-6)
                else:
                    assert total <= 1.0 + 1e-6
                if t + 1 < len(copies):
                    here = max(inst.p[i, j] for j, _ in content)
                    there = min(inst.p[i, j] for j, _ in copies[t + 1])
                    assert here <= there + 1e-12


def _fractional_solutions(rng, count):
    out = []
    while len(out) < count:
        inst = random_load(rng, m_hi=3, j_hi=5)
        opt = brute_force_makespan(inst, top_norm(2, 1))
        ell, q = 2, 1.0
        radius, t = opt.radius, opt.thresholds[ell - 1]
        bound = opt.value
        model = build_topl_load_lp(inst, ell, q, radius, bound, t)
        sol = solve_lp(model)
        if sol.status == OPTIMAL:
            x = sol.x.reshape(inst.machines, inst.jobs)
            out.append((inst, x, ell, q, radius, bound, t))
    return out


def test_rounding_copy_count_and_norm_bound():
    rng = np.random.default_rng(3)
    for inst, x, ell, q, radius, bound, t in _fractional_solutions(rng, 25):
        assignment, copies = shmoys_tardos_round(x, inst.p)
        per_machine = assignment.machine_jobs(inst.machines)
        for i in range(inst.machines):
            n_i = int(np.ceil(x[i].sum() - 1e-9))
            assert len(copies[i]) == n_i
            assert len(per_machine[i]) <= n_i
            sizes = [float(inst.p[i, j]) for j in per_machine[i]]
            assert all(s <= radius for s in sizes)
            top_q = sum(sorted((s ** q for s in sizes), reverse=True)[:ell])
            assert top_q <= 2 * radius ** q + bound ** q + ell * t ** q + 1e-9


def test_weighted_rounding_monotonicity():
    rng = np.random.default_rng(4)
    for inst, x, *_ in _fractional_solutions(rng, 10):
        alpha = [Fraction(int(v), 4) for v in rng.integers(0, 9, size=inst.machines)]
        assignment, _ = shmoys_tardos_round(x, inst.p, edge_weights=alpha, exact=True)
        integral = sum(a * c for a, c in zip(alpha, assignment.counts(inst.machines)))
        fractional = sum(float(a) * x[i].sum() for i, a in enumerate(alpha))
        assert float(integral) <= fractional + 1e-9


def test_feasibility_monotone_in_bound():
    rng = np.random.default_rng(5)
    for _ in range(10):
        inst = random_load(rng, m_hi=3, j_hi=4)
        radius = max(inst.finite_sizes())
        t = float(rng.choice(inst.finite_sizes()))
        for bound in sorted(rng.uniform(1, 30, size=3)):
            status = solve_lp(build_topl_load_lp(inst, 2, 1.0, radius, bound, t)).status
            if status == OPTIMAL:
                bigger = build_topl_load_lp(inst, 2, 1.0, radius, bound * 2, t)
                assert solve_lp(bigger).status == OPTIMAL


def test_solve_examples():
    inst = LoadInstance(p=np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]]))
    res = solve_topl_makespan(inst, 2, 1.0, eps=0.1)
    assert 3.0 <= res.value <= (4 + 0.1) * 3.0  # oracle optimum is 3

    single = LoadInstance(p=np.array([[4.0], [2.0], [7.0]]))
    res = solve_topl_makespan(single, 1, 1.0, eps=0.1)
    assert res.value == 2.0  # the single job lands on its best machine

    const = LoadInstance(p=np.full((2, 3), 5.0))
    res = solve_topl_makespan(const, 1, 2.0, eps=0.1)
    assert res.value == 5.0


def test_solve_certificate_holds():
    rng = np.random.default_rng(6)
    for _ in range(15):
        inst = random_load(rng, m_hi=3, j_hi=5, forbidden=0.15)
        res = solve_topl_makespan(inst, 2, 2.0, eps=0.1)
        assert res.value <= res.certificate["per_machine_bound"] + 1e-9
        used = max(float(inst.p[i, j]) for j, i in enumerate(res.assignment.sigma))
        assert used <= res.certificate["radius"]


def test_ordered_solver_single_weight_matches_top1_within_factor2():
    rng = np.random.default_rng(7)
    for _ in range(8):
        inst = random_load(rng, m_hi=3, j_hi=4)
        res_o = solve_ordered_makespan(inst, [(1.0,)], eps=0.1)
        res_t = solve_topl_makespan(inst, 1, 1.0, eps=0.1)
        # identical norm; both are correct solvers, sparsification costs <= 2x
        assert res_o.value <= 2 * res_t.value + 1e-9
        assert res_t.value <= 2 * res_o.value + 1e-9


def test_ordered_solver_single_machine_exact():
    rng = np.random.default_rng(8)
    p = rng.integers(1, 10, size=(1, 4)).astype(float)
    inst = LoadInstance(p=p)
    weights = random_max_ordered_weights(rng, dim_hi=4)
    res = solve_ordered_makespan(inst, weights, eps=0.1)
    expected = eval_load_objective(inst, max_ordered_norm(weights),
                                   Assignment((0, 0, 0, 0)))
    assert res.value == pytest.approx(expected)


def test_ordered_solver_zero_weights():
    inst = LoadInstance(p=np.array([[1.0, 2.0], [2.0, 1.0]]))
    res = solve_ordered_makespan(inst, [(0.0, 0.0)], eps=0.1)
    assert res.value == 0.0


def test_sequence_key_counts_sizes_above_each_threshold():
    rng = np.random.default_rng(12)
    for _ in range(20):
        inst = random_load(rng, forbidden=0.2)
        sizes = inst.finite_sizes()
        for radius in sizes[:3]:
            for seq in enumerate_threshold_sequences(radius, inst.jobs):
                loop = tuple(sum(1 for s in sizes if s > v) for v in seq.values)
                assert _sequence_key(sizes, seq) == loop


def test_solvers_reject_non_finite_eps():
    inst = LoadInstance(p=np.array([[1.0, 2.0], [2.0, 1.0]]))
    kinst = gen_knapsack_cluster(0)
    finst = gen_fair_load(0)
    for eps in (float("nan"), float("inf"), 0.0):
        for solve in (lambda: solve_topl_makespan(inst, 1, 1.0, eps),
                      lambda: solve_ordered_makespan(inst, [(1.0,)], eps),
                      lambda: solve_topl_kcenter(kinst.base, 1, 1.0, eps),
                      lambda: solve_knapsack_center(kinst, top_norm(1, 1), eps),
                      lambda: solve_fair(finst, top_norm(1, 1), eps)):
            with pytest.raises(InvalidInputError):
                solve()
