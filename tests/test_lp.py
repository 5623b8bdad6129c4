import copy
import importlib.util
import itertools
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csc_array

from _gen import random_cluster, random_load, random_max_ordered_weights
from _load_builders import build_topl_load_lp
from maxnorm import lp
from maxnorm.bundlelp import (solve_knapsack_basic, solve_partition_matroid_integral,
                              solve_two_laminar_integral)
from maxnorm.cluster import CARDINALITY, _center_lp, core_of
from maxnorm.generators import gen_load
from maxnorm.errors import InfeasibleError, LpSolverError, ResourceCapError, SolverInternalError
from maxnorm.load import _ordered_load_min_bound_lp, _topl_load_min_bound_lp
from maxnorm.lp import (EQ, GE, LE, INFEASIBLE, OPTIMAL, UNBOUNDED,
                        cutting_plane, dump_lp, exact_feasible_point, lp_model,
                        simplex_solve, solve_lp)
from maxnorm.sparsify import enumerate_threshold_sequences, sparsify_weights
from maxnorm.norms import top_norm
from maxnorm.oracle import brute_force_makespan


def test_solve_lp_fixed_variable():
    model = lp_model(1, lower=0.0, upper=1.0)
    model.add_row({0: 1.0}, EQ, 1.0)
    sol = solve_lp(model)
    assert sol.status == OPTIMAL and sol.x[0] == pytest.approx(1.0)


def test_solve_lp_maximize_via_negation():
    model = lp_model(1, lower=0.0, upper=np.inf, objective=[-1.0])
    model.add_row({0: 1.0}, LE, 0.5)
    sol = solve_lp(model)
    assert sol.status == OPTIMAL and sol.x[0] == pytest.approx(0.5)


def test_solve_lp_infeasible_reports():
    model = lp_model(1, lower=0.0, upper=1.0)
    model.add_row({0: 1.0}, GE, 2.0)
    sol = solve_lp(model)
    assert sol.status == INFEASIBLE and sol.message


def test_optimal_solutions_are_basic():
    # interior variables never outnumber the rank of the tight rows
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        model = lp_model(n, lower=0.0, upper=1.0, objective=rng.uniform(-1, 1, n))
        for _ in range(int(rng.integers(1, 4))):
            coeffs = {i: float(rng.uniform(-1, 2)) for i in range(n)}
            model.add_row(coeffs, LE, float(rng.uniform(0.5, n)))
        sol = solve_lp(model)
        if sol.status != OPTIMAL:
            continue
        interior = int(sol.basic.sum())
        tight = []
        for coeffs, sense, rhs in model.rows:
            val = sum(c * sol.x[i] for i, c in coeffs.items())
            if abs(val - rhs) <= 1e-7:
                row = np.zeros(n)
                for i, c in coeffs.items():
                    row[i] = c
                tight.append(row)
        rank = np.linalg.matrix_rank(np.array(tight)) if tight else 0
        assert interior <= rank


def test_oracle_optimal_guess_triple_is_feasible():
    rng = np.random.default_rng(1)
    for _ in range(10):
        inst = random_load(rng, m_hi=3, j_hi=4)
        ell, q = 2, 1.0
        opt = brute_force_makespan(inst, top_norm(ell, q))
        model = build_topl_load_lp(inst, ell, q, radius=opt.radius,
                                   bound=opt.value, threshold=opt.thresholds[ell - 1])
        sol = solve_lp(model)
        assert sol.status == OPTIMAL
        # the indicator vector of the optimal assignment satisfies every row
        n = inst.jobs
        x = np.zeros(inst.machines * n)
        for j, i in enumerate(opt.assignment.sigma):
            x[i * n + j] = 1.0
        for coeffs, sense, rhs in model.rows:
            val = sum(c * x[idx] for idx, c in coeffs.items())
            assert (val <= rhs + 1e-9) if sense == LE else \
                (val >= rhs - 1e-9) if sense == GE else abs(val - rhs) <= 1e-9


def test_dump_lp_layout():
    model = lp_model(2, lower=0.0, upper=1.0, objective=[1.0, 0.0])
    model.add_row({0: 1.0, 1: 2.0}, LE, 3.0)
    text = dump_lp(model)
    assert text.startswith("Minimize")
    assert "Subject To" in text and "Bounds" in text and text.endswith("End\n")
    assert "x0 + 2 x1 <= 3" in text


def test_copied_model_takes_rows_apart_from_its_original():
    """A fair LP is a copy of its pair's base model plus the weighted row:
    the copy has the base rows and its own, and the base model keeps its."""
    model = lp_model(3, objective=[1.0, 0.0, 0.0])
    model.add_rows([0, 0, 1], [0, 1, 2], [1.0, 1.0, 1.0], [LE, GE], [2.0, 1.0])
    model.add_row({1: 1.0, 2: -1.0}, EQ, 0.0)
    base_rows = model.rows
    full = copy.copy(model)
    full.add_row({0: 2.0}, GE, 0.5)
    full.add_rows([0], [2], [3.0], LE, [4.0])
    assert model.rows == base_rows and model.num_rows == 3
    assert full.rows == base_rows + (({0: 2.0}, GE, 0.5), ({2: 3.0}, LE, 4.0))
    assert (solve_lp(model).objective, solve_lp(full).objective) == (0.0, 0.25)


def _linprog_fallback(monkeypatch):
    """A second copy of the LP module, imported while scipy's HiGHS bindings
    cannot be imported, so its import-time switch picks linprog."""
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    spec = importlib.util.spec_from_file_location("maxnorm._lp_fallback", lp.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    assert module._highs is None and module._solve is module._solve_linprog
    return module


def _random_models(rng, count):
    for _ in range(count):
        n = int(rng.integers(1, 7))
        model = lp_model(n, lower=rng.choice([0.0, -1.0, -np.inf], n),
                         upper=rng.choice([1.0, 3.0, np.inf], n),
                         objective=rng.uniform(-1, 1, n))
        for _ in range(int(rng.integers(0, 6))):
            coeffs = {i: float(rng.integers(-2, 4)) for i in range(n) if rng.random() < 0.7}
            model.add_row(coeffs, [LE, GE, EQ][int(rng.integers(0, 3))],
                          float(rng.integers(-3, 6)))
        yield model


def _builder_models(rng):
    for _ in range(6):
        inst = random_load(rng, m_hi=4, j_hi=7, forbidden=0.2)
        sizes = inst.finite_sizes()
        radius, t = sizes[-1], float(rng.choice(sizes))
        yield _topl_load_min_bound_lp(inst, 2, 1.5, radius, t)[0]
        yield _topl_load_min_bound_lp(inst, 1, 2.0, radius, t, fixed_bound=sizes[-1] * 2)[0]
        sparse, pos = sparsify_weights(random_max_ordered_weights(rng), inst.jobs)
        for seq in itertools.islice(enumerate_threshold_sequences(radius, inst.jobs), 3):
            yield _ordered_load_min_bound_lp(inst, sparse, pos, radius, seq)[0]
    for _ in range(6):
        inst = random_cluster(rng)
        core = core_of(inst)
        radius = float(max(core.distances()))
        yield _center_lp(core, (CARDINALITY, inst.k), ("top", 2, 1.0, radius / 2), radius)[0]
        yield _center_lp(core, (CARDINALITY, inst.k), ("top", 1, 2.0, 0.0), radius,
                         fixed_bound=radius, coverage=False)[0]


def test_direct_highs_and_linprog_fallback_agree(monkeypatch):
    assert lp._highs is not None and lp._solve is lp._solve_highs
    fallback = _linprog_fallback(monkeypatch)
    rng = np.random.default_rng(11)
    statuses = set()
    for model in itertools.chain(_random_models(rng, 150), _builder_models(rng)):
        direct, via_linprog = solve_lp(model), fallback.solve_lp(model)
        assert direct.status == via_linprog.status
        statuses.add(direct.status)
        if direct.status == OPTIMAL:
            assert np.array_equal(direct.x, via_linprog.x)
            assert direct.objective == via_linprog.objective
            assert np.array_equal(direct.basic, via_linprog.basic)
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def _dense_layout(model):
    """linprog's input as dense rows over the free columns (finite lower ==
    upper fixes a column): <= rows, negated >= rows, then == rows, each
    right-hand side less the fixed columns' activity."""
    fixed = np.isfinite(model.lower) & (model.lower == model.upper)
    x0 = np.where(fixed, model.lower, 0.0)
    ub, b_ub, eq, b_eq = [], [], [], []
    for coeffs, sense, rhs in model.rows:
        row = np.zeros(model.num_vars)
        for idx, c in coeffs.items():
            row[idx] += c
        rhs = rhs - row @ x0 if x0.any() else rhs
        row = row[~fixed]
        if sense == EQ:
            eq.append(row), b_eq.append(rhs)
        else:
            sign = -1.0 if sense == GE else 1.0
            ub.append(sign * row), b_ub.append(sign * rhs)
    return csc_array(np.array(ub + eq).reshape(-1, int((~fixed).sum()))), b_ub, b_eq


def test_layout_matches_linprog_rows():
    model = lp_model(4)
    model.add_row({0: 1.0, 3: -2.0}, EQ, 1.0)
    model.add_row({1: 1.0, 2: 0.0}, GE, 0.5)  # explicit zero dropped
    # duplicates summed, a cancelling pair dropped, an empty row kept
    model.add_rows([0, 0, 0, 1, 1, 0], [2, 2, 3, 0, 0, 1], [1.0, 2.5, 1.0, 1.0, -1.0, 4.0],
                   [LE, GE], [3.0, -1.0])
    model.add_rows([0], [1], [7.0], EQ, [2.0])
    model.add_row({}, LE, 0.0)
    lay = lp._layout(model)
    a, b_ub, b_eq = _dense_layout(model)
    assert lay.num_ub == len(b_ub) == 4
    assert np.array_equal(lay.indptr, a.indptr) and np.array_equal(lay.indices, a.indices)
    assert np.array_equal(lay.data, a.data)
    assert np.array_equal(lay.row_upper, b_ub + b_eq)
    assert np.array_equal(lay.row_lower, [-np.inf] * 4 + b_eq)
    assert np.array_equal(lay.free, np.arange(4)) and lay.offset == 0.0
    rows = model.rows
    assert rows[2] == ({2: 3.5, 3: 1.0, 1: 4.0}, LE, 3.0)
    assert rows[3] == ({0: 0.0}, GE, -1.0) and rows[5] == ({}, LE, 0.0)


def test_layout_drops_fixed_columns_and_shifts_rows():
    model = lp_model(4, lower=[0.0, 0.5, 0.0, 2.0], upper=[1.0, 0.5, 0.0, np.inf],
                     objective=[1.0, 3.0, 5.0, -1.0])
    model.add_row({0: 1.0, 1: 2.0, 2: 4.0}, GE, 1.5)
    model.add_row({1: -1.0, 3: 1.0}, EQ, 3.0)
    model.add_rows([0, 0], [1, 2], [1.0, 1.0], LE, [0.25])  # fixed columns only
    lay = lp._layout(model)
    a, b_ub, b_eq = _dense_layout(model)
    assert np.array_equal(lay.free, [0, 3])
    assert np.array_equal(lay.indptr, a.indptr) and np.array_equal(lay.indices, a.indices)
    assert np.array_equal(lay.data, a.data)
    assert np.array_equal(lay.row_upper, b_ub + b_eq) and lay.row_upper.tolist() == [-0.5, -0.25, 3.5]
    assert lay.cost.tolist() == [1.0, -1.0] and lay.lower.tolist() == [0.0, 2.0]
    assert lay.upper.tolist() == [1.0, np.inf] and lay.offset == 1.5


def test_layout_of_builder_models_matches_linprog_rows():
    fixed_seen = 0
    for model in _builder_models(np.random.default_rng(3)):
        lay = lp._layout(model)
        a, b_ub, b_eq = _dense_layout(model)
        fixed = np.isfinite(model.lower) & (model.lower == model.upper)
        fixed_seen += int(fixed.sum())
        assert np.array_equal(lay.free, np.flatnonzero(~fixed))
        assert np.array_equal(lay.indptr, a.indptr) and np.array_equal(lay.indices, a.indices)
        assert np.array_equal(lay.data, a.data)
        assert np.array_equal(lay.row_upper, b_ub + b_eq)
    assert fixed_seen > 0


def test_fixed_nonzero_columns_come_back_with_their_objective():
    # x1 fixed at 0.5 with cost 3: min x0 + 3 x1 + x2, x0 + x1 >= 1, x1 + x2 == 1
    model = lp_model(3, lower=[0.0, 0.5, 0.0], upper=[1.0, 0.5, 1.0],
                     objective=[1.0, 3.0, 1.0])
    model.add_row({0: 1.0, 1: 1.0}, GE, 1.0)
    model.add_row({1: 1.0, 2: 1.0}, EQ, 1.0)
    sol = solve_lp(model)
    assert sol.status == OPTIMAL
    assert sol.x.tolist() == [0.5, 0.5, 0.5] and sol.objective == 2.5
    assert sol.basic.tolist() == [True, False, True]


def _dense_linprog_status(model):
    """scipy linprog's verdict on the full model, fixed columns included."""
    a, b = np.zeros((model.num_rows, model.num_vars)), np.empty(model.num_rows)
    for k, (coeffs, sense, rhs) in enumerate(model.rows):
        sign = -1.0 if sense == GE else 1.0
        for idx, c in coeffs.items():
            a[k, idx] += sign * c
        b[k] = sign * rhs
    eq = np.array([sense == EQ for _, sense, _ in model.rows], bool)
    res = linprog(model.objective, A_ub=a[~eq] if (~eq).any() else None,
                  b_ub=b[~eq] if (~eq).any() else None, A_eq=a[eq] if eq.any() else None,
                  b_eq=b[eq] if eq.any() else None,
                  bounds=np.column_stack([model.lower, model.upper]), method="highs-ds")
    return {0: OPTIMAL, 2: INFEASIBLE}[res.status], res


def test_all_fixed_models_match_linprog_on_the_full_model():
    rng = np.random.default_rng(5)
    statuses = set()
    for _ in range(60):
        n = int(rng.integers(1, 5))
        value = rng.choice([0.0, 0.5, 1.0, -2.0], n)
        model = lp_model(n, lower=value, upper=value, objective=rng.uniform(-1, 1, n))
        for _ in range(int(rng.integers(0, 4))):
            coeffs = {i: float(rng.integers(-2, 3)) for i in range(n) if rng.random() < 0.7}
            act = sum(c * value[i] for i, c in coeffs.items())
            model.add_row(coeffs, [LE, GE, EQ][int(rng.integers(0, 3))],
                          act + float(rng.choice([-1.0, 0.0, 1.0, 1e-8])))
        expected, res = _dense_linprog_status(model)
        sol = solve_lp(model)
        assert sol.status == expected
        statuses.add(sol.status)
        if expected == OPTIMAL:
            assert sol.x.tolist() == value.tolist()
            assert sol.objective == pytest.approx(res.fun, abs=1e-12)
    assert statuses == {OPTIMAL, INFEASIBLE}


def test_makespan_lp_reaches_highs_with_allowed_pairs_and_s(monkeypatch):
    """The 30x300 Top makespan LP at radius 24: every pair above the radius
    is a column fixed at 0, and only the allowed pairs and s reach HiGHS."""
    inst = gen_load(0, machines=30, jobs=300, pmax=100, forbidden=0.1)
    model, sidx = _topl_load_min_bound_lp(inst, 2, 1.0, 24.0, 12.0)
    passed = []

    def solve(model, lay):
        passed.append((len(lay.indptr) - 1, len(lay.cost), len(lay.lower), len(lay.upper)))
        return lp._solve_highs(model, lay)

    monkeypatch.setattr(lp, "_solve", solve)
    sol = solve_lp(model)
    allowed = int((inst.p <= 24.0).sum())
    assert model.num_vars == inst.p.size + 1 == 9001 and sidx == inst.p.size
    assert 0 < allowed < 3000
    assert passed == [(allowed + 1,) * 4]
    assert sol.status == OPTIMAL and not sol.x[:sidx][inst.p.ravel() > 24.0].any()


@pytest.mark.parametrize("sense, x", [(LE, 1.5), (GE, 0.5), (EQ, 0.9)])
def test_check_residuals_rejects_a_violated_row(sense, x):
    model = lp_model(2, lower=0.0, upper=2.0)
    model.add_row({0: 1.0, 1: 1.0}, LE, 4.0)
    model.add_row({0: 1.0}, sense, 1.0)
    lp._check_residuals(model, np.array([1.0, 0.0]))  # the same point within tolerance
    with pytest.raises(LpSolverError, match="violates a row"):
        lp._check_residuals(model, np.array([x, 0.0]))


def test_solve_lp_rejects_an_optimum_that_violates_a_row(monkeypatch):
    model = lp_model(1, lower=0.0, upper=2.0)
    model.add_row({0: 1.0}, LE, 1.0)
    monkeypatch.setattr(lp, "_solve", lambda m, lay: (OPTIMAL, np.array([1.5]), 1.5, ""))
    with pytest.raises(LpSolverError, match="violates a row"):
        solve_lp(model)


def test_unknown_sense_raises():
    model = lp_model(1)
    model.add_row({0: 1.0}, "<", 1.0)
    with pytest.raises(LpSolverError, match="unknown sense"):
        solve_lp(model)
    model = lp_model(2)
    model.add_rows([0, 1], [0, 1], [1.0, 1.0], [LE, "=>"], [1.0, 1.0])
    with pytest.raises(LpSolverError, match="unknown sense"):
        solve_lp(model)


def test_non_finite_model_data_raises():
    model = lp_model(1)
    model.add_row({0: 1.0}, LE, np.inf)
    with pytest.raises(LpSolverError, match="non-finite"):
        solve_lp(model)


def test_dump_hook_writes_lp_files(tmp_path, monkeypatch):
    monkeypatch.setattr(lp, "_DUMP_DIR", str(tmp_path))
    model = lp_model(2, lower=0.0, upper=1.0, objective=[1.0, 0.0])
    model.add_rows([0, 0], [0, 1], [1.0, 2.0], LE, [3.0])
    model.add_row({1: -1.0}, GE, -0.5)
    assert solve_lp(model).status == OPTIMAL
    (path,) = tmp_path.iterdir()
    assert path.name.startswith("model_") and path.suffix == ".lp"
    text = path.read_text()
    assert text == dump_lp(model)
    assert text.splitlines()[:5] == ["Minimize", " obj: 1 x0", "Subject To",
                                     " c0: 1 x0 + 2 x1 <= 3", " c1: - 1 x1 >= -0.5"]
    assert text.endswith("Bounds\n 0 <= x0 <= 1\n 0 <= x1 <= 1\nEnd\n")


# ---------------------------------------------------------------------------
# exact simplex


def test_exact_simplex_basics():
    status, x = simplex_solve([({0: 1}, EQ, 1)], 1)
    assert status == OPTIMAL and x == (Fraction(1),)
    status, x = simplex_solve([({0: 1}, LE, Fraction(1, 2))], 1, objective=[-1])
    assert status == OPTIMAL and x == (Fraction(1, 2),)
    status, _ = simplex_solve([({0: 1}, GE, 2), ({0: 1}, LE, 1)], 1)
    assert status == INFEASIBLE
    status, _ = simplex_solve([({0: 1}, GE, 0)], 1, objective=[-1])
    assert status == UNBOUNDED


def test_exact_simplex_phase_stops_at_its_basis_count(monkeypatch):
    """A planted pivot that leaves the tableau as it was: Bland's rule would
    pick the same pivot forever, so the phase raises after C(total, m)
    rounds, one per basis it could visit."""
    rows = [({0: 1, 1: 1}, GE, 1), ({0: 1}, LE, 2)]
    assert simplex_solve(rows, 2, objective=[1, 2]) == (OPTIMAL, (Fraction(1), Fraction(0)))
    monkeypatch.setattr(lp, "_pivot", lambda tab, basis, r, c: None)
    with pytest.raises(SolverInternalError, match="past its count of bases"):
        simplex_solve(rows, 2, objective=[1, 2])


def test_exact_simplex_free_variables():
    # x free, minimize x subject to x >= -3/2
    status, x = simplex_solve([({0: 1}, GE, Fraction(-3, 2))], 1,
                              objective=[1], nonneg=[False])
    assert status == OPTIMAL and x == (Fraction(-3, 2),)


def test_exact_simplex_matches_float_lp():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        rows = []
        model = lp_model(n, lower=0.0, upper=np.inf,
                         objective=[float(v) for v in rng.integers(-3, 4, n)])
        for _ in range(int(rng.integers(1, 5))):
            coeffs = {i: int(v) for i, v in enumerate(rng.integers(-2, 5, n)) if v}
            rhs = int(rng.integers(0, 8))
            rows.append((coeffs, LE, rhs))
            model.add_row({i: float(c) for i, c in coeffs.items()}, LE, float(rhs))
        objective = [int(model.objective[i]) for i in range(n)]
        status, x = simplex_solve(rows, n, objective=objective)
        sol = solve_lp(model)
        if status == OPTIMAL:
            assert sol.status == OPTIMAL
            exact_val = sum(o * v for o, v in zip(objective, x))
            assert float(exact_val) == pytest.approx(sol.objective, abs=1e-7)
        elif status == UNBOUNDED:
            assert sol.status == UNBOUNDED


def test_exact_simplex_mixed_senses_match_float_lp():
    rng = np.random.default_rng(7)
    agreements = 0
    for _ in range(80):
        n = int(rng.integers(1, 5))
        nonneg = [bool(rng.integers(0, 2)) or n == 1 for _ in range(n)]
        rows, model = [], lp_model(
            n,
            lower=np.array([0.0 if f else -np.inf for f in nonneg]),
            upper=np.inf,
            objective=[float(v) for v in rng.integers(-2, 3, n)])
        for _ in range(int(rng.integers(1, 5))):
            coeffs = {i: int(v) for i, v in enumerate(rng.integers(-2, 4, n)) if v}
            if not coeffs:
                continue
            rhs = int(rng.integers(-3, 6))
            sense = [LE, GE, EQ][int(rng.integers(0, 3))]
            rows.append((coeffs, sense, rhs))
            model.add_row({i: float(c) for i, c in coeffs.items()}, sense, float(rhs))
        objective = [int(model.objective[i]) for i in range(n)]
        status, x = simplex_solve(rows, n, objective=objective, nonneg=nonneg)
        sol = solve_lp(model)
        float_status = sol.status
        assert (status == INFEASIBLE) == (float_status == INFEASIBLE)
        if status == OPTIMAL and float_status == OPTIMAL:
            exact_val = sum(o * v for o, v in zip(objective, x))
            assert float(exact_val) == pytest.approx(sol.objective, abs=1e-6)
            agreements += 1
    assert agreements >= 10


def test_exact_feasible_point():
    rows = [({0: 1, 1: 1}, EQ, 1), ({0: 1}, LE, Fraction(1, 3))]
    x = exact_feasible_point(rows, 2)
    assert x is not None and x[0] + x[1] == 1 and x[0] <= Fraction(1, 3)
    assert exact_feasible_point([({0: 1}, GE, 1), ({0: 1}, LE, 0)], 1) is None


# ---------------------------------------------------------------------------
# integral bundle solvers


def _exhaustive_bundle_opt(full, partial, profits, copy_to_original, k=None,
                           parts=None, caps=None):
    copies = sorted({c for u in full + partial for c in u})
    best = None
    for bits in itertools.product((0, 1), repeat=len(copies)):
        z = dict(zip(copies, bits))
        if any(sum(z[c] for c in u) != 1 for u in full):
            continue
        if any(sum(z[c] for c in u) > 1 for u in partial):
            continue
        per_orig = {}
        for c in copies:
            per_orig[copy_to_original[c]] = per_orig.get(copy_to_original[c], 0) + z[c]
        if any(v > 1 for v in per_orig.values()):
            continue
        total = sum(z.values())
        if k is not None and total > k:
            continue
        if parts is not None:
            ok = all(sum(per_orig.get(i, 0) for i in part) <= cap
                     for part, cap in zip(parts, caps))
            if not ok:
                continue
        val = sum(p * sum(z[c] for c in u) for p, u in zip(profits, partial))
        if best is None or val > best:
            best = val
    return best


def test_two_laminar_examples():
    z, obj = solve_two_laminar_integral([(0,)], [], [], {0: 0}, k=1, fixed_term=1)
    assert z == {0: 1} and obj == 1
    z, obj = solve_two_laminar_integral([], [(5,)], [1], {5: 2}, k=0)
    assert z == {5: 0} and obj == 0


def test_two_laminar_infeasible():
    with pytest.raises(InfeasibleError):
        solve_two_laminar_integral([(0,), (1,)], [], [], {0: 0, 1: 1}, k=1)


def _random_bundle_system(rng):
    n_orig = int(rng.integers(1, 5))
    copies = []
    copy_to_original = {}
    cid = 0
    for orig in range(n_orig):
        for _ in range(int(rng.integers(1, 4))):
            copy_to_original[cid] = orig
            copies.append(cid)
            cid += 1
    rng.shuffle(copies)
    full, partial = [], []
    t = 0
    while t < len(copies):
        size = int(rng.integers(1, 3))
        chunk = tuple(copies[t: t + size])
        t += size
        if rng.random() < 0.4:
            full.append(chunk)
        elif rng.random() < 0.8:
            partial.append(chunk)
    profits = [int(rng.integers(0, 5)) for _ in partial]
    return full, partial, profits, copy_to_original


def test_two_laminar_matches_exhaustive():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(60):
        full, partial, profits, c2o = _random_bundle_system(rng)
        k = int(rng.integers(0, 6))
        expected = _exhaustive_bundle_opt(full, partial, profits, c2o, k=k)
        if expected is None:
            with pytest.raises(InfeasibleError):
                solve_two_laminar_integral(full, partial, profits, c2o, k=k)
            continue
        z, obj = solve_two_laminar_integral(full, partial, profits, c2o, k=k)
        assert all(v in (0, 1) for v in z.values())  # bitwise integral
        assert obj == expected
        checked += 1
    assert checked >= 20


def test_partition_matroid_examples():
    # single part capacity 1, two partial bundles on distinct originals
    z, obj = solve_partition_matroid_integral([], [(0,), (1,)], [2, 5],
                                              {0: 0, 1: 1}, [(0, 1)], [1])
    assert obj == 5 and z[1] == 1 and z[0] == 0
    # slack capacities reduce to the cardinality solver
    rng = np.random.default_rng(4)
    for _ in range(20):
        full, partial, profits, c2o = _random_bundle_system(rng)
        origs = sorted(set(c2o.values()))
        nf = len(origs)
        try:
            z1, o1 = solve_two_laminar_integral(full, partial, profits, c2o, k=nf)
        except InfeasibleError:
            continue
        z2, o2 = solve_partition_matroid_integral(full, partial, profits, c2o,
                                                  [tuple(origs)], [nf])
        assert o1 == o2


def test_partition_matroid_matches_exhaustive():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(40):
        full, partial, profits, c2o = _random_bundle_system(rng)
        origs = sorted(set(c2o.values()))
        cut = int(rng.integers(1, len(origs) + 1))
        parts = [tuple(origs[:cut]), tuple(origs[cut:])]
        parts = [p for p in parts if p]
        caps = [int(rng.integers(0, len(p) + 1)) for p in parts]
        expected = _exhaustive_bundle_opt(full, partial, profits, c2o,
                                          parts=parts, caps=caps)
        if expected is None:
            with pytest.raises(InfeasibleError):
                solve_partition_matroid_integral(full, partial, profits, c2o,
                                                 parts, caps)
            continue
        _, obj = solve_partition_matroid_integral(full, partial, profits, c2o,
                                                  parts, caps)
        assert obj == expected
        checked += 1
    assert checked >= 10


def test_knapsack_basic_examples():
    full, partial = [(0,)], [(1,), (2,)]
    profits = [3, 1]
    weights = {0: 1.0, 1: 1.0, 2: 1.0}
    z, obj, frac = solve_knapsack_basic(full, partial, profits, weights, budget=10.0)
    assert z[0] == 1.0 and z[1] == 1.0 and z[2] == 1.0 and not frac
    with pytest.raises(InfeasibleError):
        solve_knapsack_basic(full, [], [], weights, budget=0.0)


def test_knapsack_basic_dominates_integral_and_stays_almost_integral():
    rng = np.random.default_rng(6)
    for _ in range(40):
        full, partial, profits, c2o = _random_bundle_system(rng)
        weights = {c: float(rng.uniform(0, 2)) for c in c2o}
        need = sum(min(weights[c] for c in u) for u in full)
        budget = need + float(rng.uniform(0, 3))
        try:
            z, obj, frac = solve_knapsack_basic(full, partial, profits, weights, budget)
        except InfeasibleError:
            continue
        assert len(frac) <= 2
        # LP relaxation dominates the exhaustive integral optimum
        best = None
        copies = sorted(c2o)
        for bits in itertools.product((0, 1), repeat=len(copies)):
            z2 = dict(zip(copies, bits))
            if any(sum(z2[c] for c in u) != 1 for u in full):
                continue
            if any(sum(z2[c] for c in u) > 1 for u in partial):
                continue
            if sum(weights[c] * z2[c] for c in copies) > budget + 1e-12:
                continue
            val = sum(p * sum(z2[c] for c in u) for p, u in zip(profits, partial))
            best = val if best is None else max(best, val)
        if best is not None:
            assert obj >= best - 1e-7


# ---------------------------------------------------------------------------
# cutting plane


def test_cutting_plane_immediate_member():
    base = [({0: 1}, GE, Fraction(0))]
    outcome = cutting_plane(base, 1, lambda point: ("member", None, None))
    assert outcome.verdict == "refuted" and outcome.point is not None


def test_cutting_plane_two_solution_toy():
    # alpha e <= mu - 1 with e = 1/2 against two count vectors (1,) and (0,):
    # exactly the symmetric fair toy; both cuts must appear, then empty.
    base = [({0: Fraction(1, 2), 1: -1}, LE, Fraction(-1))]
    emitted = []

    def oracle(point):
        alpha, mu = point[0], point[1]
        for key, count in (("a", 1), ("b", 0)):
            if key in emitted:
                continue
            if alpha * count < mu:
                emitted.append(key)
                return "cut", key, (({0: Fraction(count), 1: Fraction(-1)},
                                     GE, Fraction(0)), key)
        return "member", None, None

    outcome = cutting_plane(base, 2, oracle, nonneg=[True, False])
    assert outcome.verdict == "empty"
    assert sorted(outcome.history) == ["a", "b"]


def test_cutting_plane_starts_from_a_given_first_point(monkeypatch):
    base = [({0: 1}, GE, Fraction(0))]
    first = exact_feasible_point(base, 1)
    asked = []

    def oracle(point):
        asked.append(point)
        if len(asked) == 1:
            return "cut", "a", (({0: 1}, GE, Fraction(1)), "a")
        return "member", None, None

    solved = []
    exact = lp.exact_feasible_point
    monkeypatch.setattr(lp, "exact_feasible_point",
                        lambda rows, *a, **k: solved.append(len(rows)) or exact(rows, *a, **k))
    outcome = cutting_plane(base, 1, oracle, first=first)
    assert outcome.verdict == "refuted" and outcome.point == (Fraction(1),)
    assert asked == [first, (Fraction(1),)] and solved == [2]


def test_cutting_plane_rejects_repeated_cut():
    base = [({0: 1}, GE, Fraction(0))]

    def oracle(point):
        return "cut", "same", (({0: 1}, GE, Fraction(-1)), "same")

    with pytest.raises(SolverInternalError):
        cutting_plane(base, 1, oracle)


def test_cutting_plane_limit():
    base = [({0: 1}, GE, Fraction(0))]
    calls = [0]

    def oracle(point):
        calls[0] += 1
        return "cut", calls[0], (({0: 1}, GE, Fraction(0)), calls[0])

    with pytest.raises(ResourceCapError):
        cutting_plane(base, 1, oracle, limit=5)
