"""Reference copy of the exact simplex as a dense tableau over Fractions.

maxnorm.lp.simplex_solve runs the same two-phase Bland's rule on integer
rows; the tests check that both take the same pivots and return the same
point.  A pivot goes through the module-level _pivot, so a test can spy on
it as it spies on maxnorm.lp._pivot.
"""

import math
from fractions import Fraction

from maxnorm.errors import SolverInternalError
from maxnorm.lp import EQ, GE, INFEASIBLE, LE, OPTIMAL, UNBOUNDED


def _pivot(tab, basis, r, c):
    """Gauss-Jordan pivot of a Fraction tableau on (r, c); c enters the basis at row r."""
    piv = tab[r][c]
    tab[r] = [v / piv for v in tab[r]]
    for rr in range(len(tab)):
        if rr != r and tab[rr][c] != 0:
            f = tab[rr][c]
            tab[rr] = [a - f * b for a, b in zip(tab[rr], tab[r])]
    basis[r] = c


def simplex_solve(rows, num_vars, objective=None, nonneg=None):
    """Two-phase dense simplex over Fractions with Bland's rule.

    rows: (coeffs, sense, rhs) with coeffs a dict or sequence;
    nonneg: per-variable flags, False meaning a free variable;
    objective: minimized, defaults to 0 (pure feasibility).

    Returns (status, x) with x a tuple of Fractions on success.
    """
    nonneg = [True] * num_vars if nonneg is None else list(nonneg)
    objective = [Fraction(0)] * num_vars if objective is None else [Fraction(c) for c in objective]

    # map model variables onto nonnegative columns (free -> difference of two)
    col_of, neg_col_of, ncols = [], [], 0
    for v in range(num_vars):
        col_of.append(ncols)
        ncols += 1
        if not nonneg[v]:
            neg_col_of.append(ncols)
            ncols += 1
        else:
            neg_col_of.append(None)

    def expand(coeffs):
        if isinstance(coeffs, dict):
            items = coeffs.items()
        else:
            items = enumerate(coeffs)
        row = [Fraction(0)] * ncols
        for v, c in items:
            c = Fraction(c)
            row[col_of[v]] += c
            if neg_col_of[v] is not None:
                row[neg_col_of[v]] -= c
        return row

    norm_rows = []
    for coeffs, sense, rhs in rows:
        row, rhs = expand(coeffs), Fraction(rhs)
        if rhs < 0:
            row = [-c for c in row]
            rhs = -rhs
            sense = {LE: GE, GE: LE, EQ: EQ}[sense]
        norm_rows.append((row, sense, rhs))

    m = len(norm_rows)
    nslack = sum(1 for _, s, _ in norm_rows if s in (LE, GE))
    nart = sum(1 for _, s, _ in norm_rows if s in (GE, EQ))
    total = ncols + nslack + nart
    tab = [[Fraction(0)] * (total + 1) for _ in range(m)]
    basis = [None] * m
    art_cols = []
    scol, acol = ncols, ncols + nslack
    for r, (row, sense, rhs) in enumerate(norm_rows):
        tab[r][:ncols] = row
        tab[r][total] = rhs
        if sense == LE:
            tab[r][scol] = Fraction(1)
            basis[r] = scol
            scol += 1
        elif sense == GE:
            tab[r][scol] = Fraction(-1)
            scol += 1
            tab[r][acol] = Fraction(1)
            basis[r] = acol
            art_cols.append(acol)
            acol += 1
        else:
            tab[r][acol] = Fraction(1)
            basis[r] = acol
            art_cols.append(acol)
            acol += 1
    art_set = set(art_cols)

    def run_phase(cost):
        # cost over all columns; returns objective value at termination.  Bland's
        # rule never returns to a basis, so a phase visits at most C(total, m)
        for _ in range(math.comb(total, m)):
            # reduced costs via the basis rows
            red = list(cost)
            offset = Fraction(0)
            for r in range(m):
                cb = cost[basis[r]]
                if cb != 0:
                    offset += cb * tab[r][total]
                    for c in range(total):
                        red[c] -= cb * tab[r][c]
            enter = next((c for c in range(total) if red[c] < 0), None)
            if enter is None:
                return offset, True
            best_r, best_ratio = None, None
            for r in range(m):
                if tab[r][enter] > 0:
                    ratio = tab[r][total] / tab[r][enter]
                    if best_ratio is None or ratio < best_ratio or \
                            (ratio == best_ratio and basis[r] < basis[best_r]):
                        best_r, best_ratio = r, ratio
            if best_r is None:
                return None, False  # unbounded
            _pivot(tab, basis, best_r, enter)
        raise SolverInternalError("simplex phase pivoted past its count of bases")

    if art_cols:
        phase1 = [Fraction(0)] * total
        for c in art_cols:
            phase1[c] = Fraction(1)
        val, ok = run_phase(phase1)
        if not ok:
            raise SolverInternalError("phase-1 simplex reported unbounded")
        if val != 0:
            return INFEASIBLE, None
        # drive leftover artificials out of the basis
        for r in range(m):
            if basis[r] in art_set:
                swap = next((c for c in range(ncols + nslack) if tab[r][c] != 0), None)
                if swap is not None:
                    _pivot(tab, basis, r, swap)
        # freeze artificial columns at zero
        for r in range(m):
            for c in art_cols:
                tab[r][c] = Fraction(0)

    cost = [Fraction(0)] * total
    for v in range(num_vars):
        cost[col_of[v]] += objective[v]
        if neg_col_of[v] is not None:
            cost[neg_col_of[v]] -= objective[v]
    _, ok = run_phase(cost)
    if not ok:
        return UNBOUNDED, None

    vals = [Fraction(0)] * total
    for r in range(m):
        if basis[r] in art_set and tab[r][total] != 0:
            raise SolverInternalError("artificial variable stuck in the basis")
        vals[basis[r]] = tab[r][total]
    x = []
    for v in range(num_vars):
        val = vals[col_of[v]]
        if neg_col_of[v] is not None:
            val -= vals[neg_col_of[v]]
        x.append(val)
    return OPTIMAL, tuple(x)
