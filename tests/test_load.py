import itertools
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import _dict_row_builders as dict_rows
from _fraction_matching import fraction_simplex_round
from _gen import random_load, random_max_ordered_weights
import _count_reference as count_reference
from _count_reference import _free_jobs
import _load_builders
from _load_builders import build_ordered_load_lp, build_topl_load_lp
from _loop_rounding import loop_machine_copies, loop_shmoys_tardos_round
from _reference_flow import forced_flow
from _threshold_helpers import covering_threshold_sequence, sequence_keys
from maxnorm import load, lp
from maxnorm.cluster import solve_knapsack_center, solve_topl_kcenter
from maxnorm.errors import InvalidInputError, SolverInternalError
from maxnorm.fair import solve_fair
from maxnorm.generators import gen_fair_load, gen_knapsack_cluster, gen_load
from maxnorm.instances import Assignment, LoadInstance, eval_load_objective
from maxnorm.guess import SequenceRow
from maxnorm.load import (_JobSizes, _count_feasible, _count_keys, _ordered_load_min_bound_lp,
                          _topl_load_min_bound_lp, build_basic_load_lp, machine_copies,
                          shmoys_tardos_round, solve_ordered_makespan, solve_topl_makespan)
from maxnorm.lp import INFEASIBLE, OPTIMAL, TAU_LP, solve_lp
from maxnorm.norms import max_ordered_norm, top_norm
from maxnorm.oracle import brute_force_makespan
from maxnorm.sparsify import (SequenceTable, ThresholdSequence, enumerate_threshold_sequences,
                              pos_set, sparsify_weights)


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


_TIED = LoadInstance(p=np.array([[3.0, 5.0, np.inf, 5.0], [5.0, 2.0, 3.0, np.inf],
                                 [1.0, 5.0, 5.0, 2.0]]))


def _fractional_loads(rng, count):
    """Sizes with two decimals (some forbidden), so that powers and weighted
    sums round."""
    for _ in range(count):
        p = np.round(rng.uniform(0.5, 10.0, size=(int(rng.integers(2, 5)), 7)), 2)
        p[rng.random(size=p.shape) < 0.2] = np.inf
        p[int(rng.integers(0, len(p))), np.isinf(p).all(axis=0)] = 1.5
        yield LoadInstance(p=p)


def test_vectorized_topl_builder_matches_dict_rows():
    rng = np.random.default_rng(21)
    insts = [_TIED, *_fractional_loads(rng, 6)]
    insts += [random_load(rng, m_hi=4, j_hi=7, forbidden=0.25) for _ in range(6)]
    for inst in insts:
        sizes = inst.finite_sizes()
        for radius in (sizes[0], sizes[len(sizes) // 2], sizes[-1]):
            dict_rows.assert_same_model(build_basic_load_lp(inst, radius),
                               dict_rows.build_basic_load_lp(inst, radius))
            for t in [0.0] + sizes[::2]:  # thresholds tying with job sizes
                for ell, q, fixed in ((1, 1.0, None), (2, 1.7, None), (3, 2.5, 7.5)):
                    model, sidx = _topl_load_min_bound_lp(inst, ell, q, radius, t, fixed)
                    ref, ref_sidx = dict_rows.topl_load_min_bound_lp(inst, ell, q, radius, t,
                                                                     fixed)
                    assert sidx == ref_sidx
                    dict_rows.assert_same_model(model, ref)


def test_vectorized_ordered_builder_matches_dict_rows():
    rng = np.random.default_rng(22)
    insts = [_TIED, *_fractional_loads(rng, 6)]
    insts += [random_load(rng, m_hi=4, j_hi=7, forbidden=0.25) for _ in range(6)]
    zero_terms = 0
    for inst in insts:
        n, sizes = inst.jobs, inst.finite_sizes()
        pos = pos_set(n)
        sparse, _ = sparsify_weights(random_max_ordered_weights(rng, dim_hi=n), n)
        weight_sets = [
            sparse,
            [(0.0,) * n],  # every delta zero: no mass rows
            [(1.0,) * n, sparse[0]],  # zero deltas on all but the last kept coordinate
            # unsorted small integers: deltas of both signs cancel on tied thresholds
            [tuple(float(v) for v in rng.integers(0, 3, n)) for _ in range(3)],
        ]
        radius = sizes[-1]
        seqs = list(itertools.islice(enumerate_threshold_sequences(radius, n), 4))
        # non-increasing thresholds drawn from the sizes, ties included
        seqs += [ThresholdSequence(anchor=radius, positions=pos.indices, values=tuple(
            sorted(rng.choice(sizes + [0.0], size=len(pos.indices)), reverse=True)))
            for _ in range(4)]
        seqs += [ThresholdSequence(anchor=radius, positions=pos.indices,
                                   values=(v,) * len(pos.indices)) for v in (0.0, sizes[0])]
        for weights in weight_sets:
            for seq in seqs:
                for fixed in (None, 9.25):
                    model, sidx = _ordered_load_min_bound_lp(inst, weights, pos, radius, seq,
                                                             fixed)
                    ref, ref_sidx = dict_rows.ordered_load_min_bound_lp(
                        inst, weights, pos, radius, seq, fixed)
                    assert sidx == ref_sidx
                    dict_rows.assert_same_model(model, ref)
                    zero_terms += sum(c == 0.0 for coeffs, _, _ in ref.rows
                                      for c in coeffs.values())
    assert zero_terms > 0  # some rows keep terms whose deltas cancelled


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
    assignment = shmoys_tardos_round(x, inst.p)
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


def _vertices_near_the_tolerance(rng, count):
    """(x, p) pairs: integer sizes with ties and forbidden pairs, and amounts
    at, just above and just below the copy tolerance, fill remainders that
    land near it, halves and random fractions."""
    tol = load._MASS_TOL
    amounts = [0.0, tol, tol * (1 - 1e-6), tol * (1 + 1e-6), 2 * tol, 1.0 - tol, 1.0 - tol / 2,
               0.5, 0.25, 1 / 3, 2 / 3, 1.0, 0.1, 0.7]
    for _ in range(count):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 12))
        p = rng.integers(0, 4, size=(m, n)).astype(float)
        p[rng.random(size=p.shape) < 0.15] = np.inf
        x = rng.choice(amounts, size=(m, n))
        spread = rng.random(size=(m, n)) < 0.3
        x[spread] = rng.uniform(0.0, 1.0, size=int(spread.sum()))
        yield x, p


def test_machine_copies_match_the_entry_loop():
    """The copies built from each machine's positive entries are the entry
    loop's, with the same Python ints and floats, and the rounding matches
    the same copy graph: the same assignment, unweighted and weighted."""
    rng = np.random.default_rng(29)
    near = 0
    for x, p in _vertices_near_the_tolerance(rng, 300):
        copies, reference = machine_copies(x, p), loop_machine_copies(x, p)
        assert copies == reference
        assert all(type(j) is int and type(a) is float
                   for mc in copies for c in mc for j, a in c)
        near += bool(np.any(np.abs(x - load._MASS_TOL) <= 2 * load._MASS_TOL))
        if sum(len(mc) for mc in copies) < p.shape[1]:
            continue
        weights = [Fraction(int(v), 3) for v in rng.integers(0, 7, size=p.shape[0])]
        for edge_weights in (None, weights):
            try:
                expected = loop_shmoys_tardos_round(x, p, edge_weights)
            except ValueError:  # some job has no copy it could take
                with pytest.raises(SolverInternalError):
                    shmoys_tardos_round(x, p, edge_weights)
                continue
            assignment = shmoys_tardos_round(x, p, edge_weights)
            assert (assignment, machine_copies(x, p)) == expected
            assert all(type(i) is int for i in assignment.sigma)
    assert near >= 200


def test_rounding_copy_count_and_norm_bound():
    rng = np.random.default_rng(3)
    for inst, x, ell, q, radius, bound, t in _fractional_solutions(rng, 25):
        assignment, copies = shmoys_tardos_round(x, inst.p), machine_copies(x, inst.p)
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
        assignment = shmoys_tardos_round(x, inst.p, edge_weights=alpha)
        integral = sum(a * c for a, c in zip(alpha, assignment.counts(inst.machines)))
        fractional = sum(float(a) * x[i].sum() for i, a in enumerate(alpha))
        assert float(integral) <= fractional + 1e-9


def test_exact_rounding_matches_the_fraction_simplex_weight():
    """The integer-scaled matching reaches the minimum weight the Fraction
    simplex over the copy-matching LP finds (ties may pick another matching)."""
    rng = np.random.default_rng(12)
    for inst, x, *_ in _fractional_solutions(rng, 15):
        for den in (1, 3, 7 * 11):
            alpha = [Fraction(int(v), den) for v in rng.integers(0, 9, size=inst.machines)]
            assignment = shmoys_tardos_round(x, inst.p, edge_weights=alpha)
            reference = fraction_simplex_round(x, inst.p, alpha)
            assert (sum(alpha[i] for i in assignment.sigma)
                    == sum(alpha[i] for i in reference))


def test_exact_rounding_past_exact_float_sums_matches_as_floats():
    # two jobs: past a scaled weight times 2 of 2^53 the weights match as floats
    x, p = np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[1.0, 2.0], [1.0, 1.0]])
    for weights in ([Fraction(2 ** 52 - 1), 0], [Fraction(2 ** 52), 0],
                    [Fraction(1, 2 ** 52), Fraction(1)]):
        assignment = shmoys_tardos_round(x, p, edge_weights=weights)
        assert assignment.sigma == (0, 0)
        assert assignment.sigma == fraction_simplex_round(x, p, weights)


def test_fair_solve_with_binary_float_caps(monkeypatch):
    """Caps read from JSON numbers such as 0.6 are binary fractions with
    denominators near 2^54, so some dual points scale past 2^53 and their
    matchings run on float weights: every matching still reaches the Fraction
    simplex's minimum weight, and the solves end with a distribution."""
    from maxnorm import fair
    from maxnorm.fileio import decode_instance, encode_instance
    from maxnorm.lp import scaled_integers

    real, past = fair.shmoys_tardos_round, []

    def checked(x, p, edge_weights=None):
        assignment = real(x, p, edge_weights=edge_weights)
        reference = fraction_simplex_round(x, p, edge_weights)
        assert (sum(Fraction(edge_weights[i]) for i in assignment.sigma)
                == sum(Fraction(edge_weights[i]) for i in reference))
        past.append(max(scaled_integers(edge_weights)) * p.shape[1] >= 2 ** 53)
        return assignment

    monkeypatch.setattr(fair, "shmoys_tardos_round", checked)
    cases = [(2, 4, 1, [2.7, 1.0, 0.5, 1.2]), (11, 4, 2, [0.6, 0.6, 2.6, 1.7]),
             (14, 4, 1, [0.6, 2.7, 2.2, 1.3]), (18, 2, 1, [2.9, 1.3])]
    for seed, machines, ell, caps in cases:
        data = encode_instance(gen_fair_load(seed, machines=machines, jobs=4))
        data["e"] = caps
        finst = decode_instance(data)
        assert max(e.denominator for e in finst.e) > 2 ** 50
        res = solve_fair(finst, top_norm(ell, 1.0), 0.1)
        assert sum(res.distribution.weights) == 1
    assert any(past) and not all(past)


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


def _verdict_loads():
    """Seeded instances with forbidden (inf) pairs and small integer sizes,
    so that thresholds tie with sizes; many jobs per machine, so that at a
    small radius and threshold more jobs are forced onto counted pairs than
    ell * m caps admit."""
    for seed in range(24):
        rng = np.random.default_rng(seed)
        yield gen_load(seed, machines=int(rng.integers(1, 4)), jobs=int(rng.integers(2, 10)),
                       pmax=int(rng.choice([3, 6])), forbidden=float(rng.choice([0.0, 0.3])))


def _forced(inst, radius, threshold):
    """Jobs with no allowed machine that leaves them uncounted."""
    p = inst.p
    return int((~(~(p > radius) & ~(np.isfinite(p) & (p > threshold))).any(axis=0)).sum())


def test_count_verdict_matches_highs_on_top_guesses():
    short = 0  # guesses where ell * m caps fewer slots than the forced jobs
    for inst in _verdict_loads():
        sizes = inst.finite_sizes()
        for radius, t in itertools.product(sizes, [0.0] + sizes):
            for ell in (1, 2, 3, inst.jobs + 1):
                verdict = _count_feasible(_JobSizes(inst.p), radius, (t,), (ell,))
                model, _ = _topl_load_min_bound_lp(inst, ell, 1.0, radius, t)
                assert verdict == (solve_lp(model).status == OPTIMAL), (radius, t, ell)
                short += ell >= 2 and ell * inst.machines < _forced(inst, radius, t)
    assert short >= 20


def test_count_verdict_matches_highs_on_ordered_keys():
    rng = np.random.default_rng(23)
    checked = infeasible = 0
    for inst in _verdict_loads():
        sizes = inst.finite_sizes()
        sparse, pos = sparsify_weights(random_max_ordered_weights(rng, dim_hi=inst.jobs),
                                       inst.jobs)
        for radius in sizes:
            keys = {}
            seqs = list(enumerate_threshold_sequences(radius, inst.jobs))
            for key, seq in zip(sequence_keys(sizes, [seq.values for seq in seqs]), seqs):
                keys.setdefault(key, seq)
            for seq in keys.values():
                verdict = _count_feasible(_JobSizes(inst.p), radius, seq.values, pos.indices)
                model, _ = _ordered_load_min_bound_lp(inst, sparse, pos, radius, seq)
                assert verdict == (solve_lp(model).status == OPTIMAL), (radius, seq)
                checked += 1
                infeasible += not verdict
    assert checked >= 200 and infeasible >= 20


def _restricted_matches_full(inst, radius, lowest, build):
    """Solve build()'s model as it is and with its free jobs fixed
    (_load_builders._fix_free_jobs): the same status and, where optimal, the same
    objective within TAU_LP's scale.  Returns (feasible, jobs fixed)."""
    full = solve_lp(build()[0])
    model, _ = _load_builders._fix_free_jobs(inst, radius, lowest, build())
    restricted = solve_lp(model)
    assert restricted.status == full.status, (radius, lowest)
    if full.status == OPTIMAL:
        assert abs(restricted.objective - full.objective) <= TAU_LP * (1 + abs(full.objective))
    fixed = np.count_nonzero(model.lower[: inst.p.size])
    return full.status == OPTIMAL, fixed


def test_restricted_top_guesses_match_the_full_model():
    """Every Top (R, T) guess, T from 0 past R (where every job with an
    allowed machine is free), at ell 1-3 and q 1 and 2, on instances with
    forbidden pairs and sizes tied with the thresholds."""
    seen = Counter()
    for inst in _verdict_loads():
        sizes = inst.finite_sizes()
        for radius, t in itertools.product(sizes, [0.0] + sizes):
            for ell, q in ((1, 1.0), (2, 2.0), (3, 1.0)):
                feasible, fixed = _restricted_matches_full(
                    inst, radius, t, lambda: _topl_load_min_bound_lp(inst, ell, q, radius, t))
                seen["feasible" if feasible else "infeasible"] += 1
                seen["free"] += fixed > 0
                seen["all free"] += fixed == inst.jobs
    assert seen["feasible"] >= 400 and seen["infeasible"] >= 800, seen
    assert seen["free"] >= 1000 and seen["all free"] >= 250, seen


def test_restricted_ordered_keys_match_the_full_model():
    """Every ordered count key of every radius (its first sequence), on the
    same instances with random max-ordered weights."""
    rng = np.random.default_rng(37)
    seen = Counter()
    for inst in _verdict_loads():
        sizes = inst.finite_sizes()
        sparse, pos = sparsify_weights(random_max_ordered_weights(rng, dim_hi=inst.jobs),
                                       inst.jobs)
        for radius in sizes:
            keys = {}
            seqs = list(enumerate_threshold_sequences(radius, inst.jobs))
            for key, seq in zip(sequence_keys(sizes, [seq.values for seq in seqs]), seqs):
                keys.setdefault(key, seq)
            for seq in keys.values():
                feasible, fixed = _restricted_matches_full(
                    inst, radius, seq.values[-1],
                    lambda: _ordered_load_min_bound_lp(inst, sparse, pos, radius, seq))
                seen["feasible" if feasible else "infeasible"] += 1
                seen["free"] += fixed > 0
    assert seen["feasible"] >= 300 and seen["infeasible"] >= 400 and seen["free"] >= 300, seen


_LAYOUT_ARRAYS = ("indptr", "indices", "data", "row_lower", "row_upper", "cost", "lower", "upper")


def _assert_same_layout(got, want):
    """The arrays the solver gets, compared exactly: the model indices of the
    columns (free) may differ."""
    assert got.num_ub == want.num_ub
    for name in _LAYOUT_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _forced_build_matches_reference(inst, radius, lowest, build):
    """build(jobs) is a builder call at this radius and lowest threshold
    (jobs None: the full model).  The model built over the forced jobs
    gives the solver the same arrays as the full model with its free jobs
    fixed (_load_builders._fix_free_jobs); where it is optimal, its solution
    expanded to every pair (load._assignment_x), with s, lies within the
    full model's column bounds (within TAU_LP) and passes its residual
    check.  Returns the guess's kinds, for the floors: "all free" or "none
    free", and "free rows" where a machine's counted pairs all belong to
    free jobs."""
    jobs = _JobSizes(inst.p)
    full, sidx = _load_builders._fix_free_jobs(inst, radius, lowest, build(None))
    model, svar = build(jobs)
    _assert_same_layout(lp._layout(model), lp._layout(full))
    sol = solve_lp(model)
    if sol.status == OPTIMAL:
        x = np.append(load._assignment_x(jobs, radius, lowest, sol.x).ravel(), sol.x[svar])
        assert sidx == x.size - 1
        assert np.all(full.lower - TAU_LP <= x) and np.all(x <= full.upper + TAU_LP)
        lp._check_residuals(full, x)
    p = inst.p
    _, home = _free_jobs(p, radius, lowest)
    counted = np.isfinite(p) & (p > lowest)
    kinds = {0: ["none free"], inst.jobs: ["all free"]}.get(int(np.count_nonzero(home >= 0)), [])
    if np.any(counted.any(axis=1) & ~counted[:, home < 0].any(axis=1)):
        kinds.append("free rows")
    return kinds


def test_forced_build_gives_the_solver_the_reference_arrays():
    """Random Top and ordered guesses (random radius, threshold or sequence,
    ell and q) on random instances with forbidden pairs."""
    rng = np.random.default_rng(2029)
    seen = Counter()
    for _ in range(60):
        inst = random_load(rng, m_hi=4, j_hi=7, pmax=8, forbidden=float(rng.choice([0.0, 0.3])))
        sizes = inst.finite_sizes()
        sparse, pos = sparsify_weights(random_max_ordered_weights(rng, dim_hi=inst.jobs),
                                       inst.jobs)
        for _ in range(3):
            radius = float(rng.choice(sizes))
            t = float(rng.choice([0.0] + sizes))
            ell, q = int(rng.integers(1, 4)), float(rng.choice([1.0, 2.0]))
            seen.update(_forced_build_matches_reference(
                inst, radius, t, lambda jobs: _topl_load_min_bound_lp(
                    inst, ell, q, radius, t, jobs=jobs)))
            seqs = list(enumerate_threshold_sequences(radius, inst.jobs))
            seq = seqs[int(rng.integers(len(seqs)))]
            seen.update(_forced_build_matches_reference(
                inst, radius, seq.values[-1], lambda jobs: _ordered_load_min_bound_lp(
                    inst, sparse, pos, radius, seq, jobs=jobs)))
            seen["guesses"] += 2
    assert seen["guesses"] >= 300, seen
    assert seen["all free"] >= 50 and seen["none free"] >= 50 and seen["free rows"] >= 50, seen


def _planted_30x300(seed):
    """30x300 integer sizes in [1, 100], a tenth of the pairs forbidden;
    every job keeps a home machine below 24 but one, whose fastest machine
    takes exactly 24, so the smallest radius is 24."""
    rng = np.random.default_rng(seed)
    m, n = 30, 300
    p = rng.integers(1, 101, size=(m, n)).astype(float)
    blocked = rng.random(size=p.shape) < 0.1
    home = rng.integers(0, m, size=n)
    blocked[home, np.arange(n)] = False
    p[home, np.arange(n)] = rng.integers(1, 24, size=n)
    p[:, 0] = rng.integers(25, 101, size=m)
    p[home[0], 0] = 24.0
    p[blocked] = np.inf
    return LoadInstance(p=p)


def test_planted_accepted_model_reaches_highs_with_the_forced_jobs(monkeypatch):
    """The accepted Top-(2,1) guess LP of a planted 30x300 instance: the
    solver gets the full model's arrays once its free jobs are fixed, whose
    columns are s and the allowed pairs of the jobs with no allowed
    uncounted machine, and each free job comes back whole on one machine."""
    inst = _planted_30x300(5)
    m, n = inst.p.shape
    layouts = []
    solve = load.solve_lp
    monkeypatch.setattr(load, "solve_lp",
                        lambda model: layouts.append(lp._layout(model)) or solve(model))
    res = solve_topl_makespan(inst, 2, 1.0, 0.1)
    radius, t = res.certificate["radius"], res.certificate["threshold"]
    p = inst.p
    allowed = ~(p > radius)
    free = (allowed & ~(np.isfinite(p) & (p > t))).any(axis=0)
    expected = np.flatnonzero((allowed & ~free).ravel())
    assert 0 < expected.size < m * n // 4 and free.sum() > n // 2
    assert len(layouts) == 1  # the accepted guess is the one LP solved
    full = _load_builders._fix_free_jobs(inst, radius, t,
                                         _topl_load_min_bound_lp(inst, 2, 1.0, radius, t))[0]
    reference = lp._layout(full)
    assert reference.free.tolist() == expected.tolist() + [m * n]
    _assert_same_layout(layouts[0], reference)
    x = load._scan_top_guesses(inst, 2, 1.0, 0.1 / 4.0)[3]
    assert np.array_equal(np.sort(x[:, free], axis=0)[-1], np.ones(free.sum()))


def test_count_verdict_leaves_non_integral_caps_to_the_lp():
    # three jobs counted on two machines fit fractionally under caps of 1.5,
    # not under integral caps of 1
    inst = LoadInstance(p=np.full((2, 3), 2.0))
    model, _ = _topl_load_min_bound_lp(inst, 1.5, 1.0, 2.0, 0.0)
    assert solve_lp(model).status == OPTIMAL
    assert _count_feasible(_JobSizes(inst.p), 2.0, (0.0,), (1,)) is False
    for cap in (1.5, 0.5, -1.0, float("inf"), float("nan")):
        assert _count_feasible(_JobSizes(inst.p), 2.0, (0.0,), (cap,)) is None
        assert _count_feasible(_JobSizes(inst.p), 2.0, (1.0, 0.0), (1, cap)) is None


def _flow_verdict(inst, radius, thresholds, caps):
    """Whether the forced jobs fit, by the reference max flow, with the
    forced jobs' allowed machines; a verdict of None where a job has no
    allowed machine or no job is forced."""
    p = inst.p
    allowed = ~(p > radius)
    forced = np.flatnonzero((~allowed | (p > thresholds[-1])).all(axis=0))
    routes = allowed[:, forced]
    if forced.size == 0 or not routes.any(axis=0).all():
        return None, routes
    flow = forced_flow(p, forced, routes, np.asarray(thresholds, float), caps)
    return flow == forced.size, routes


def _spy_placed(monkeypatch):
    """Record each call of load._placed, with the greedy verdict of its
    arguments (every job where it first goes, displacing none)."""
    placed, calls = load._placed, []
    monkeypatch.setattr(load, "_placed",
                        lambda *args: calls.append(_greedy_fits(*args)) or placed(*args))
    return calls


def _greedy_fits(levels, caps):
    """Whether the placement's first choices fit every job: in its order,
    onto the allowed machine with the most room at its level and every level
    outside it, with no job displaced."""
    left = [[int(c) for c in caps] for _ in range(levels.shape[0])]
    choices = levels.T.tolist()
    for k in np.argsort((levels >= 0).sum(axis=0), kind="stable").tolist():
        room = [min(slots[level:]) if level >= 0 else 0
                for slots, level in zip(left, choices[k])]
        at = max(range(len(room)), key=room.__getitem__)
        if room[at] == 0:
            return False
        for level in range(choices[k][at], len(caps)):
            left[at][level] -= 1
    return True


def test_pigeonhole_exit_agrees_with_the_flow(monkeypatch):
    """Random nested caps of depth 1-3: every verdict is the reference max
    flow's, whether a Hall count (False) or the placement decides it.  Hall
    counts at inner levels refute guesses that the pigeonhole count over
    the outermost caps (the last level's Hall count) lets through."""
    rng = np.random.default_rng(29)
    calls = _spy_placed(monkeypatch)
    decided = Counter()
    for _ in range(3000):
        inst = random_load(rng, m_hi=4, j_hi=9, pmax=6, forbidden=float(rng.choice([0.0, 0.3])))
        sizes = inst.finite_sizes()
        radius = float(rng.choice(sizes))
        depth = int(rng.integers(1, 4))
        thresholds = sorted(rng.choice([0.0] + sizes, size=depth).tolist(), reverse=True)
        caps = rng.integers(0, 4, size=depth).tolist()
        calls.clear()
        verdict = _count_feasible(_JobSizes(inst.p), radius, thresholds, caps)
        flow, routes = _flow_verdict(inst, radius, thresholds, caps)
        if flow is None:
            continue
        assert verdict == flow, (radius, thresholds, caps)
        decided["true"] += verdict
        if not calls:
            f = routes.shape[1]
            pigeonhole = np.minimum(routes.sum(axis=1), min(caps[-1], f)).sum() < f
            decided["hall" if pigeonhole else "inner hall"] += 1
    assert decided["hall"] >= 400 and decided["inner hall"] >= 50, decided
    assert decided["true"] >= 500, decided


def _verdict_case(rng):
    """A random count verdict (instance, radius, thresholds, caps).  Mostly
    1-4 machines and 1-9 jobs with sizes 0-5, a share of the pairs forbidden
    and about a fifth of the jobs left a single allowed machine; the radius
    drawn from the upper half of the sizes and 1-3 non-increasing
    thresholds from the sizes (so sizes tie with both), caps 0-3 and, now
    and then, a non-integral cap.  One case in six is the planted family
    (_planted_load), whose True core needs an augmenting path where the
    relabelling sends its first job the wrong way."""
    if rng.random() < 1 / 6:
        truth = rng.random() < 0.5
        core = [[1.0, 2.0], [2.0, 3.0]] if truth else [[3.0, 3.0], [1.0, 1.0]]
        return _planted_load(rng, core), 3.0, [2.0, 0.0], [0, 1]
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 10))
    p = rng.integers(0, 6, size=(m, n)).astype(float)
    p[rng.random(size=p.shape) < rng.choice([0.0, 0.2, 0.4])] = np.inf
    p[:, rng.random(size=n) < 0.2] = np.inf
    home, jobs = rng.integers(0, m, size=n), np.arange(n)
    p[home, jobs] = np.where(np.isfinite(p[home, jobs]), p[home, jobs],
                             rng.integers(0, 6, size=n))  # every job keeps a machine
    inst = LoadInstance(p=p)
    sizes = inst.finite_sizes()
    depth = int(rng.integers(1, 4))
    thresholds = sorted(rng.choice([0.0] + sizes, size=depth).tolist(), reverse=True)
    caps = rng.integers(0, 4, size=depth).tolist()
    if rng.random() < 0.03:
        caps[int(rng.integers(depth))] = 1.5
    return inst, float(rng.choice(sizes[len(sizes) // 2:])), thresholds, caps


def test_count_verdict_matches_the_reference(monkeypatch):
    """Random verdicts (_verdict_case): every verdict is the reference's
    (_count_reference, the verdict that recomputed the free-job masks over
    every pair), and the placement runs exactly where the reference's does,
    on the same levels.  Floors on each way a verdict is decided: True, a
    Hall count refuting with every forced job allowed somewhere, and a
    placement that needed an augmenting path (its first choices miss)."""
    rng = np.random.default_rng(3030)
    runs = {}
    for owner, name in ((load, "new"), (count_reference, "reference")):
        placed = owner._placed
        monkeypatch.setattr(owner, "_placed", lambda *args, placed=placed, name=name:
                            runs.setdefault(name, args) and placed(*args))
    decided = Counter()
    for _ in range(4000):
        inst, radius, thresholds, caps = _verdict_case(rng)
        runs.clear()
        verdict = _count_feasible(_JobSizes(inst.p), radius, thresholds, caps)
        assert verdict is count_reference._count_feasible(inst, radius, thresholds, caps), \
            (inst.p, radius, thresholds, caps)
        assert runs.keys() in ({"new", "reference"}, set())
        if runs:
            assert np.array_equal(runs["new"][0], runs["reference"][0])
        allowed, home = _free_jobs(inst.p, radius, thresholds[-1])
        reachable = allowed[:, home < 0].any(axis=0).all()
        decided["none" if verdict is None else "true" if verdict else
                "placed" if runs else "hall" if reachable else "unreachable"] += 1
        decided["augmenting"] += bool(verdict and runs and not _greedy_fits(*runs["new"]))
    assert min(decided["true"], decided["hall"], decided["augmenting"]) >= 50, decided
    assert decided["placed"] >= 20 and decided["none"] >= 20, decided


def _planted_load(rng, core):
    """A 2x2 core under caps (0, 1) above thresholds (2, 0) at radius 3, on
    relabelled machines among up to two more that forbid the core jobs,
    padded with up to four free jobs (each uncounted on some machine).  In
    the True core [[1, 2], [2, 3]] job 1 fits only on machine 0, so job 0
    must go to machine 1; in the False core [[3, 3], [1, 1]] both jobs fit
    only on machine 1, yet each is counted at the outer level everywhere, so
    every Hall count passes."""
    m, free = 2 + int(rng.integers(0, 3)), int(rng.integers(0, 5))
    p = np.full((m, 2 + free), np.inf)
    p[:2, :2] = core
    p[:, 2:] = rng.choice([1.0, 2.0, 3.0, 5.0, np.inf], size=(m, free))
    p[rng.integers(0, m, size=free), np.arange(2, 2 + free)] = 0.0
    return LoadInstance(p=p[rng.permutation(m)][:, rng.permutation(2 + free)])


def test_planted_displacements_and_hall_passing_refutations(monkeypatch):
    """The planted family: every verdict is the reference flow's.  Where
    the True core's relabelling sends job 0 first to machine 0 (a tie, to
    the lower machine), the placement's first choices miss and a
    displacement decides; the False core passes every Hall count, so the
    placement refutes it."""
    rng = np.random.default_rng(31)
    calls = _spy_placed(monkeypatch)
    decided = Counter()
    for draw in range(240):
        truth = draw % 2 == 0
        core = [[1.0, 2.0], [2.0, 3.0]] if truth else [[3.0, 3.0], [1.0, 1.0]]
        inst = _planted_load(rng, core)
        calls.clear()
        verdict = _count_feasible(_JobSizes(inst.p), 3.0, (2.0, 0.0), (0, 1))
        assert verdict == _flow_verdict(inst, 3.0, (2.0, 0.0), (0, 1))[0] == truth
        assert len(calls) == 1  # no Hall count refutes
        decided["displaced" if truth and not calls[0] else str(verdict)] += 1
    assert decided["displaced"] >= 20 and decided["False"] >= 20, decided


def test_hall_count_reads_every_cap_outside_its_level(monkeypatch):
    """Caps (2, 1) above thresholds (2, 0): jobs 0 and 1 fit only on
    machine 0 and count there at level 0, so they need two slots of cap 0
    and of cap 1, which has one.  The level-0 Hall count sees it through
    the smaller outer cap; the pigeonhole count over cap 1 does not (three
    jobs, three machines with room), and the placement does not run."""
    inst = LoadInstance(p=np.array([[3.0, 3.0, np.inf], [np.inf, np.inf, 1.0],
                                    [np.inf, np.inf, 1.0]]))
    forced, routes = np.arange(3), np.isfinite(inst.p)
    assert forced_flow(inst.p, forced, routes, np.array([2.0, 0.0]), [2, 1]) == 2
    calls = []
    monkeypatch.setattr(load, "_placed", lambda *args: calls.append(args))
    assert _count_feasible(_JobSizes(inst.p), 3.0, (2.0, 0.0), (2, 1)) is False and not calls


def test_placement_displaces_a_job_where_its_first_choice_misses():
    """Two jobs counted everywhere under nested caps of (0, 1): no job
    above 2 fits on a machine, so job 1 fits only on machine 0.  The
    placement puts job 0 there first (a tie, to the lower machine); job 1
    then takes its place, and job 0 moves on to machine 1."""
    inst = LoadInstance(p=np.array([[1.0, 2.0], [2.0, 3.0]]))
    levels = np.array([[1, 1], [1, 0]])
    assert not _greedy_fits(levels, [0, 1])
    assert load._placed(levels, [0, 1])
    assert _count_feasible(_JobSizes(inst.p), 3.0, (2.0, 0.0), (0, 1)) is True
    # with job 0 allowed on machine 0 alone, the job that job 1 displaces
    # has nowhere to go, although every Hall count passes
    assert not load._placed(np.array([[1, 1], [-1, 0]]), [0, 1])


def test_sequence_key_counts_sizes_above_each_threshold():
    rng = np.random.default_rng(12)
    for _ in range(20):
        inst = random_load(rng, forbidden=0.2)
        sizes = inst.finite_sizes()
        for radius in sizes[:3]:
            seqs = list(enumerate_threshold_sequences(radius, inst.jobs))
            keys = _count_keys(SequenceTable(radius, inst.jobs), sizes)
            for key, seq in zip(keys.tolist(), seqs):
                assert tuple(key) == tuple(sum(1 for s in sizes if s > v) for v in seq.values)


def test_sequence_keys_match_the_bisect_loop():
    """One searchsorted per radius over the support gives each sequence the
    key the per-value bisect loop gave it; the row's distinct keys are
    tuples of Python ints, each naming exactly its sequences."""
    checked = 0
    for seed in range(12):
        inst = gen_load(seed, machines=int(1 + seed % 4), jobs=int(3 + seed), pmax=12,
                        forbidden=0.2 if seed % 2 else 0.0)
        sizes = inst.finite_sizes()
        for radius in sizes:
            seqs = list(enumerate_threshold_sequences(radius, inst.jobs))
            keys = _count_keys(SequenceTable(radius, inst.jobs), sizes)
            assert len(keys) == len(seqs)
            row = SequenceRow(keys, None, None)
            named = {}
            for g, (key, members) in enumerate(zip(row.keys, row.members)):
                assert type(key) is tuple and all(type(c) is int for c in key)
                assert list(members) == sorted(members)
                named.update((int(k), g) for k in members)
            assert sorted(named) == list(range(len(seqs)))
            for k, seq in enumerate(seqs):
                key = tuple(len(sizes) - bisect_right(sizes, v) for v in seq.values)
                assert row.keys[named[k]] == key
                checked += 1
    assert checked >= 1000, checked


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


def test_top_makespan_rejects_an_infinite_q():
    """q = inf once reached the LP unchecked, which raised LpSolverError; the
    norm rejects it as invalid input."""
    with pytest.raises(InvalidInputError, match="finite q"):
        solve_topl_makespan(gen_load(0, 3, 5), 2, float("inf"), 0.1)


def test_zero_size_makespan_solves_at_zero():
    """Every job has a machine of size 0: both drivers return the nearest
    assignment at value 0 instead of guessing on a grid anchored at 0."""
    inst = LoadInstance(p=np.array([[0.0, 2.0], [3.0, 0.0]]))
    top = solve_topl_makespan(inst, 1, 1.0, 0.1)
    ordered = solve_ordered_makespan(inst, [[1.0, 0.5]], 0.1)
    for res in (top, ordered):
        assert res.value == 0.0 and res.assignment.sigma == (0, 1)
        assert eval_load_objective(inst, top_norm(1, 1.0), res.assignment) == 0.0
    assert top.certificate["per_machine_bound"] == 0.0
    assert ordered.certificate["chain_bound"] == 0.0


def test_near_zero_makespan_keeps_positive_radii():
    """A smallest radius of 1e-13 sits within the radius slack of 0, where the
    basic LP is infeasible; the drivers skip radius 0 and stay within their
    factors of the optimum."""
    inst = LoadInstance(p=np.array([[0.0, 1e-13], [1.0, 1.0]]))
    for ell, q in ((1, 1.0), (2, 2.0)):
        opt = brute_force_makespan(inst, top_norm(ell, q)).value
        res = solve_topl_makespan(inst, ell, q, 0.1)
        assert opt <= res.value <= (4.0 ** (1.0 / q) + 0.1) * opt * (1 + 1e-9)
    res = solve_ordered_makespan(inst, [[1.0, 0.5]], 0.1)
    assert res.value <= res.certificate["chain_bound"] * (1 + 1e-9)
    assert res.value >= brute_force_makespan(inst, max_ordered_norm([[1.0, 0.5]])).value
