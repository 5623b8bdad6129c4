"""The integer-row exact simplex against the Fraction tableau it replaced.

Both run the same two-phase Bland's rule, so every test asks for the same
status, the same point and the same sequence of (row, column) pivots, read
by a spy on each module's _pivot.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import _fraction_simplex
from maxnorm import fair, lp
from maxnorm.errors import SolverInternalError
from maxnorm.generators import gen_fair_cluster, gen_fair_load
from maxnorm.lp import EQ, GE, INFEASIBLE, LE, OPTIMAL, UNBOUNDED
from maxnorm.norms import top_norm


def _spy(monkeypatch, module):
    """Record module's pivots as (row, column, pivot entry below 0)."""
    pivots, pivot = [], module._pivot

    def spy(tab, basis, r, c):
        pivots.append((r, c, tab[r][c] < 0))
        pivot(tab, basis, r, c)

    monkeypatch.setattr(module, "_pivot", spy)
    return pivots


def _assert_same(monkeypatch, rows, num_vars, objective=None, nonneg=None):
    """The integer simplex and the reference return the same result, (status,
    x) or the SolverInternalError message, after the same pivots; returns
    the integer one's (result, pivots)."""
    out = []
    for module in (lp, _fraction_simplex):
        pivots = _spy(monkeypatch, module)
        try:
            result = module.simplex_solve(rows, num_vars, objective=objective, nonneg=nonneg)
        except SolverInternalError as exc:
            result = str(exc)
        out.append((result, pivots))
    ours, ref = out
    assert ours == ref
    status, x = ours[0]
    if status == OPTIMAL:
        assert all(type(v) is Fraction and type(v.numerator) is int for v in x)
    return ours


def _random_lp(rng):
    n = rng.randint(1, 5)
    values = [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    rows = []
    for _ in range(rng.randint(0, 5)):
        coeffs = {i: rng.choice(values) for i in range(n)}
        coeffs = {i: c for i, c in coeffs.items() if c or rng.random() < 0.2}
        rows.append((coeffs, rng.choice([LE, GE, EQ]),
                     rng.choice([0, 0, 1, -1, 2, -2, Fraction(3, 2)])))
    if rows and rng.random() < 0.3:  # a redundant equality: row 0 doubled
        coeffs, _, rhs = rows[0]
        rows[0] = (coeffs, EQ, rhs)
        rows.append(({i: 2 * c for i, c in coeffs.items()}, EQ, 2 * rhs))
    objective = [rng.choice([0, 1, -1, 2, Fraction(1, 3)]) for _ in range(n)] \
        if rng.random() < 0.7 else None
    nonneg = [rng.random() < 0.7 for _ in range(n)]
    return rows, n, objective, nonneg


def test_random_lps_take_the_reference_pivots(monkeypatch):
    rng = random.Random(17)
    statuses, negative = set(), 0
    for _ in range(400):
        result, pivots = _assert_same(monkeypatch, *_random_lp(rng))
        statuses.add(result[0] if isinstance(result, tuple) else result)
        negative += any(neg for _, _, neg in pivots)
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert negative >= 5  # drive-out swaps on a negative entry


def test_no_rows_and_empty_rows(monkeypatch):
    assert _assert_same(monkeypatch, [], 2) == ((OPTIMAL, (0, 0)), [])
    assert _assert_same(monkeypatch, [], 2, objective=[1, 2])[0] == (OPTIMAL, (0, 0))
    assert _assert_same(monkeypatch, [], 2, objective=[1, -1])[0] == (UNBOUNDED, None)
    assert _assert_same(monkeypatch, [], 1, objective=[1], nonneg=[False])[0] == \
        (UNBOUNDED, None)
    assert _assert_same(monkeypatch, [({}, LE, 0)], 1)[0] == (OPTIMAL, (0,))
    assert _assert_same(monkeypatch, [({}, EQ, 0), ({0: 1}, GE, 1)], 1,
                        objective=[1])[0] == (OPTIMAL, (1,))
    assert _assert_same(monkeypatch, [({}, GE, 1)], 1)[0] == (INFEASIBLE, None)
    assert _assert_same(monkeypatch, [((), GE, 0), ([0, 0], LE, 3)], 2)[0] == \
        (OPTIMAL, (0, 0))


def test_redundant_equalities_drive_out_on_a_negative_entry(monkeypatch):
    # row 2 is row 0 plus row 1; phase 1 leaves an artificial basic at 0
    rows = [({1: 1}, EQ, 1), ({0: 1, 1: 1}, EQ, 1), ({0: 1, 1: 2}, EQ, 2)]
    for objective in (None, [1, 1], [-1, 0]):
        result, pivots = _assert_same(monkeypatch, rows, 2, objective=objective)
        assert result == (OPTIMAL, (0, 1))
        assert any(neg for _, _, neg in pivots)
    # a surplus column is the first nonzero entry of an empty >= row
    result, pivots = _assert_same(monkeypatch, [({0: 0}, GE, 0), ({0: 1}, LE, 2)], 1,
                                   objective=[-1])
    assert result == (OPTIMAL, (2,)) and pivots[0] == (0, 1, True)


def test_degenerate_ties_go_to_the_smaller_basis_column(monkeypatch):
    # x0 enters with ratio 1 in both rows: row 1's slack (column 2) leaves
    # before row 0's artificial (column 3)
    result, pivots = _assert_same(monkeypatch, [({0: 1}, GE, 1), ({0: 1}, LE, 1)], 1)
    assert result == (OPTIMAL, (1,)) and pivots[0] == (1, 0, False)
    rows = [({0: 1, 1: 1}, LE, 0), ({0: 1, 1: -1}, LE, 0), ({0: 2, 1: 1}, GE, 0),
            ({0: 1}, LE, 1)]
    _assert_same(monkeypatch, rows, 2, objective=[-1, -1])


def test_free_variables_and_negative_right_hand_sides(monkeypatch):
    rows = [({0: 1, 1: -1}, GE, -3), ({0: -1, 1: -2}, LE, -1), ({1: 1}, EQ, Fraction(-1, 2))]
    result, _ = _assert_same(monkeypatch, rows, 2, objective=[1, 1], nonneg=[False, False])
    assert result == (OPTIMAL, (2, Fraction(-1, 2)))
    _assert_same(monkeypatch, rows, 2, objective=[-1, 0], nonneg=[True, False])


def test_inputs_read_as_fraction_reads_them(monkeypatch):
    rows = [({0: 0.5, 1: np.int64(2)}, LE, np.float64(3.25)),
            ([np.float64(0.25), 1.0], GE, np.int64(1))]
    objective = [np.int64(-1), np.float64(-0.5)]
    result, _ = _assert_same(monkeypatch, rows, 2, objective=objective)
    exact = [({0: Fraction(1, 2), 1: 2}, LE, Fraction(13, 4)),
             ({0: Fraction(1, 4), 1: 1}, GE, 1)]
    assert result == lp.simplex_solve(exact, 2, objective=[-1, Fraction(-1, 2)])
    assert result == (OPTIMAL, (Fraction(13, 2), 0))


def test_float_caps_with_denominators_near_2_to_54(monkeypatch):
    assert Fraction(0.3).denominator == 2 ** 54
    rows = [({0: 1, 1: 1}, LE, 0.3), ({0: 0.7, 1: 0.1}, GE, 0.1), ({0: 1, 1: 1, 2: 1}, EQ, 1)]
    result, _ = _assert_same(monkeypatch, rows, 3, objective=[0, 1, 0.9])
    assert result[0] == OPTIMAL
    assert result[1][0] + result[1][1] <= Fraction(0.3)
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 4)
        rows = [({i: rng.choice([1, 0.3, 0.7, 0.1]) for i in range(n)},
                 rng.choice([LE, GE]), round(rng.random(), 1)) for _ in range(rng.randint(1, 4))]
        rows.append(({i: 1 for i in range(n)}, EQ, 1))
        _assert_same(monkeypatch, rows, n, objective=[rng.choice([0, 1, -0.3]) for _ in range(n)])


@pytest.mark.parametrize("family", ["load", "center"])
def test_solve_fair_distributions_match_the_reference(monkeypatch, family):
    finst = gen_fair_load(5, 3, 4) if family == "load" else gen_fair_cluster(5, 3, 4, k=2)
    ours_pivots = _spy(monkeypatch, lp)
    ours = fair.solve_fair(finst, top_norm(2, 1.0), 0.1)
    ref_pivots = _spy(monkeypatch, _fraction_simplex)
    # exact_feasible_point reaches the simplex through lp's globals
    monkeypatch.setattr(lp, "simplex_solve", _fraction_simplex.simplex_solve)
    monkeypatch.setattr(fair, "simplex_solve", _fraction_simplex.simplex_solve)
    ref = fair.solve_fair(finst, top_norm(2, 1.0), 0.1)
    assert len(ours_pivots) > 20 and ours_pivots == ref_pivots
    assert ours == ref
