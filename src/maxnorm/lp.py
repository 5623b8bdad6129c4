"""LP construction/solution layer.

Two solvers live here:

  * solve_lp: floating-point solves through HiGHS dual simplex, used for
    the assignment/clustering relaxations.  A model is COO triplets (row,
    column, value) plus one sense and one right-hand side per row, added
    as whole numpy blocks (add_rows); only the bundle LP and the fair
    weighted row still add dict rows (add_row).  add_norm_rows is the one
    builder of the norm count and mass rows, for makespan (machines over
    jobs) and k-center (clients over facilities) alike.  Fixed columns
    (finite lower == upper, such as the pairs a radius guess forbids)
    never reach the solver: solve_lp substitutes them out, shifting each
    row bound by their activity, and lays the free columns out as scipy's
    linprog would (<= rows and
    negated >= rows in model order, then == rows; one CSC matrix with
    duplicates summed and explicit zeros dropped).  It calls scipy's
    vendored HiGHS bindings directly with the options
    linprog(method="highs-ds") passes, without linprog's per-call
    overhead.  Where the bindings do not import (they are a private API),
    linprog itself is called on the same sparse matrix; the choice is made
    once at import.  A model whose columns are all fixed keeps its first
    column, so HiGHS still decides it.  Solutions come back over every
    column, fixed ones at their value; optimal ones are verified against
    every row of the full model within a residual tolerance TAU_LP (one
    sparse mat-vec) and come back with at-bound flags (vertex
    certificate).
  * simplex_solve: a small dense two-phase simplex over Fractions with
    Bland's rule, used wherever exactness matters (dual candidate points,
    distribution LPs).  Problem sizes there are tiny.

cutting_plane is the constraint-generation loop shared by the fairness
drivers: it replaces the ellipsoid method of the analysis with finite cut
generation, which terminates because cuts index integral solutions drawn
from a finite set and a returned cut is always new.
"""

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from .errors import LpSolverError, ResourceCapError, SolverInternalError

TAU_LP = 1e-7
# linprog's own post-solve feasibility check: sqrt(tol) * 10 at its default tol 1e-9
_LINPROG_TOL = np.sqrt(1e-9) * 10

# debug flag: export MAXNORM_DUMP_LP=<dir> to write every solved model in the
# standard LP file layout for cross-checking against external solvers
_DUMP_DIR = os.environ.get("MAXNORM_DUMP_LP")
_DUMP_COUNTER = itertools.count()

LE, GE, EQ = "<=", ">=", "=="
_SENSE_CODE = {LE: 0, GE: 1, EQ: 2}

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpModel:
    """min objective . x subject to bounds and rows; rows are stored as COO
    triplets with global row indices, one sense and one rhs per row."""

    def __init__(self, num_vars, lower, upper, objective, names=None):
        self.num_vars = num_vars
        self.lower, self.upper, self.objective = lower, upper, objective
        self.names = names
        self.num_rows = 0
        self._blocks = []  # (rows, cols, vals) numpy triplets from add_rows
        self._row_buf, self._col_buf, self._val_buf = [], [], []  # from add_row
        self._sense, self._rhs = [], []
        self._coo = None  # cached concatenation of all triplets

    def add_var(self, lower, upper, cost):
        """Append one column; returns its index."""
        self.lower = np.append(self.lower, float(lower))
        self.upper = np.append(self.upper, float(upper))
        self.objective = np.append(self.objective, float(cost))
        self.num_vars += 1
        return self.num_vars - 1

    def add_row(self, coeffs, sense, rhs):
        self._row_buf.extend([self.num_rows] * len(coeffs))
        self._col_buf.extend(coeffs.keys())
        self._val_buf.extend(coeffs.values())
        self._sense.append(sense)
        self._rhs.append(float(rhs))
        self.num_rows += 1
        self._coo = None

    def __copy__(self):
        """A model with the same columns and rows; rows added to either one
        leave the other as it is."""
        out = LpModel.__new__(LpModel)
        out.__dict__.update(self.__dict__)
        for name in ("_blocks", "_row_buf", "_col_buf", "_val_buf", "_sense", "_rhs"):
            setattr(out, name, list(getattr(self, name)))
        return out

    def add_rows(self, rows, cols, vals, sense, rhs):
        """Append len(rhs) rows at once; rows are indices into this block
        (0 for its first row), sense is one sense or one per row."""
        rhs = np.asarray(rhs, float).ravel()
        senses = [sense] * len(rhs) if isinstance(sense, str) else list(sense)
        if len(senses) != len(rhs):
            raise LpSolverError("add_rows needs one sense per row")
        rows = np.asarray(rows, np.int64).ravel()
        if rows.size and (rows.min() < 0 or rows.max() >= len(rhs)):
            raise LpSolverError("add_rows row index outside the block")
        self._blocks.append((rows + self.num_rows, np.asarray(cols, np.int64).ravel(),
                             np.asarray(vals, float).ravel()))
        self._sense.extend(senses)
        self._rhs.extend(rhs.tolist())
        self.num_rows += len(rhs)
        self._coo = None

    def coo(self):
        """All triplets as (rows, cols, vals) arrays, in insertion order."""
        if self._coo is None:
            parts = self._blocks + [(np.asarray(self._row_buf, np.int64),
                                     np.asarray(self._col_buf, np.int64),
                                     np.asarray(self._val_buf, float))]
            self._coo = tuple(np.concatenate(p) for p in zip(*parts))
        return self._coo

    def sense_codes(self):
        try:
            return np.array([_SENSE_CODE[s] for s in self._sense], dtype=np.int8)
        except KeyError as exc:
            raise LpSolverError(f"unknown sense {exc.args[0]!r}") from None

    @property
    def rhs(self):
        return np.array(self._rhs, dtype=float)

    @property
    def rows(self):
        """Read-only view: one (coeffs dict, sense, rhs) per row, in order."""
        r, c, v = self.coo()
        order = np.argsort(r, kind="stable")
        ends = np.searchsorted(r[order], np.arange(1, self.num_rows + 1))
        cols, vals = c[order].tolist(), v[order].tolist()
        out, lo = [], 0
        for hi, sense, rhs in zip(ends.tolist(), self._sense, self._rhs):
            coeffs = {}
            for idx, val in zip(cols[lo:hi], vals[lo:hi]):
                coeffs[idx] = coeffs.get(idx, 0.0) + val
            out.append((coeffs, sense, rhs))
            lo = hi
        return tuple(out)


def lp_model(num_vars, lower=0.0, upper=np.inf, objective=None, names=None):
    lower = np.full(num_vars, lower, dtype=float) if np.isscalar(lower) else np.asarray(lower, float)
    upper = np.full(num_vars, upper, dtype=float) if np.isscalar(upper) else np.asarray(upper, float)
    obj = np.zeros(num_vars) if objective is None else np.asarray(objective, float)
    return LpModel(num_vars, lower, upper, obj, names=names)


def add_norm_rows(model, cols, cost, thresholds, caps, deltas, power, sidx, mass_cap):
    """Count and mass rows capping each owner's norm, added in one block.

    An owner is a row of cost (a machine over its jobs, a client over its
    facilities); cols[o, i] is the model column of owner o's item i.  An
    item counts at threshold k when its cost is finite and strictly above
    thresholds[k] (strictly, so the rows stay feasible at the exact optimal
    guess when costs tie with it).  Its mass is its cost, or cost^power by
    Python's float power (NumPy's vectorized power may round differently).
    Per owner the rows come in this order: for each threshold counting an
    item, a count row (coefficients 1) capped by caps[k]; then for each
    delta vector with a term, a mass row whose coefficient on an item
    accumulates delta[k] * mass over the k in order with a nonzero delta
    counting it (terms may cancel to zero), bounded by column sidx
    (coefficient -1, right-hand side 0) or, with sidx None, by mass_cap.
    Top-(ell,q) is the one-threshold case: caps [ell], deltas [[1.0]],
    power q and mass_cap B^q."""
    finite = np.isfinite(cost)
    counted = finite & (cost > np.asarray(thresholds, float)[:, None, None])  # (k, owner, item)
    mass = np.where(finite, cost, 0.0)
    if power is not None:
        some = counted.any(axis=0)
        mass[some] = [v ** power for v in cost[some].tolist()]
    deltas = np.asarray(deltas, float).reshape(-1, len(thresholds))
    terms = np.zeros((len(deltas),) + cost.shape, bool)
    coeff = np.zeros((len(deltas),) + cost.shape)
    for w, delta in enumerate(deltas):
        for k, d in enumerate(delta):
            if d != 0.0:
                terms[w] |= counted[k]
                coeff[w] = np.where(counted[k], coeff[w] + d * mass, coeff[w])
    # present[o, slot]: the count rows (one slot per threshold), then the mass rows
    present = np.concatenate([counted.any(axis=2).T, terms.any(axis=2).T], axis=1)
    row_of = (np.cumsum(present.ravel()) - 1).reshape(present.shape)
    k, ci, cj = np.nonzero(counted)
    w, mi, mj = np.nonzero(terms)
    slot = np.nonzero(present)[1]
    is_mass = slot >= len(caps)
    rows = [row_of[ci, k], row_of[mi, len(caps) + w]]
    columns = [cols[ci, cj], cols[mi, mj]]
    vals = [np.ones(len(k)), coeff[w, mi, mj]]
    if sidx is not None:
        rows.append(np.flatnonzero(is_mass))
        columns.append(np.full(len(rows[-1]), sidx))
        vals.append(np.full(len(rows[-1]), -1.0))
        mass_cap = 0.0
    rhs = np.where(is_mass, mass_cap, np.asarray(caps, float)[np.minimum(slot, len(caps) - 1)])
    model.add_rows(np.concatenate(rows), np.concatenate(columns), np.concatenate(vals), LE, rhs)


@dataclass
class LpSolution:
    status: str
    x: np.ndarray
    objective: float
    basic: np.ndarray  # True where the variable sits strictly between its bounds
    message: str = ""


@dataclass
class _Layout:
    """A model as linprog would hand it to HiGHS once its fixed columns (finite
    lower == upper) are substituted out: the first num_ub rows are the <=
    rows and the negated >= rows in model order, then the == rows, each row
    bound shifted by the fixed columns' activity; only the free columns
    remain, in model order (the first column, when every column is fixed)."""
    indptr: np.ndarray  # CSC over all rows and the free columns, duplicates summed, zeros dropped
    indices: np.ndarray
    data: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    num_ub: int
    free: np.ndarray  # model indices of the free columns
    cost: np.ndarray  # objective and bounds of the free columns
    lower: np.ndarray
    upper: np.ndarray
    offset: float  # objective of the fixed columns, 0.0 when every fixed value is 0


def _layout(model):
    codes, rhs = model.sense_codes(), model.rhs
    r, c, v = model.coo()
    if not (np.isfinite(v).all() and np.isfinite(rhs).all()):
        raise LpSolverError("LP model has a non-finite coefficient or right-hand side")
    is_free = (model.lower != model.upper) | ~np.isfinite(model.lower)
    if model.num_vars and not is_free.any():  # HiGHS reports a model without columns as Empty
        is_free[0] = True
    free = np.flatnonzero(is_free)
    cost, lower, upper, offset = model.objective, model.lower, model.upper, 0.0
    some_fixed = len(free) < model.num_vars
    if some_fixed:
        if np.count_nonzero(model.lower[~is_free]):
            value = np.where(is_free, 0.0, model.lower)
            rhs = rhs - np.bincount(r, weights=v * value[c], minlength=len(rhs))
            offset = float(model.objective @ value)
        keep = is_free[c]
        r, c, v = r[keep], c[keep], v[keep]
        cost, lower, upper = cost[free], lower[free], upper[free]
    eq = codes == _SENSE_CODE[EQ]
    num_ub = int(len(codes) - eq.sum())
    pos = np.empty(len(codes), np.int64)
    pos[~eq] = np.arange(num_ub)
    pos[eq] = np.arange(num_ub, len(codes))
    sign = np.where(codes == _SENSE_CODE[GE], -1.0, 1.0)
    rows, vals = pos[r], v * sign[r]
    order = np.lexsort((rows, c))
    rows, cols, vals = rows[order], c[order], vals[order]
    if len(vals) > 1:
        first = np.ones(len(vals), bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        if not first.all():
            starts = np.flatnonzero(first)
            rows, cols, vals = rows[starts], cols[starts], np.add.reduceat(vals, starts)
    keep = vals != 0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    counts = np.bincount(cols, minlength=model.num_vars)
    indptr = np.concatenate(([0], np.cumsum(counts[free] if some_fixed else counts)))
    row_upper = np.empty(len(codes))
    row_upper[pos] = rhs * sign
    row_lower = np.where(np.arange(len(codes)) < num_ub, -np.inf, row_upper)
    return _Layout(indptr.astype(np.int32), rows.astype(np.int32), vals,
                   row_lower, row_upper, num_ub, free, cost, lower, upper, offset)


def solve_lp(model):
    """Solve min c.x subject to the model rows and bounds.

    Fixed columns never reach the solver; they come back at their value.
    Optimal solutions are basic (HiGHS dual simplex) and are re-checked
    against every row within TAU_LP.  Infeasible solves return the solver's
    certificate message.
    """
    if _DUMP_DIR:
        path = os.path.join(_DUMP_DIR, f"model_{next(_DUMP_COUNTER):06d}.lp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_lp(model))
    lay = _layout(model)
    status, x_free, fun, message = _solve(model, lay)
    if status != OPTIMAL:
        return LpSolution(status, None, np.nan, None, message=message)
    x = x_free
    if len(x_free) < model.num_vars:  # fixed columns at their value, lower == upper
        x = model.lower.copy()
        x[lay.free] = x_free
        if lay.offset:
            fun += lay.offset
    _check_residuals(model, x)
    at_bound = (x <= model.lower + TAU_LP) | (x >= model.upper - TAU_LP)
    return LpSolution(OPTIMAL, x, fun, ~at_bound, message=message)


def _solve_linprog(model, lay):
    from scipy.sparse import csc_array

    a = csc_array((lay.data, lay.indices, lay.indptr),
                  shape=(len(lay.row_upper), len(lay.free)))
    ub, eq = slice(None, lay.num_ub), slice(lay.num_ub, None)
    has_ub, has_eq = lay.num_ub > 0, lay.num_ub < len(lay.row_upper)
    res = linprog(
        lay.cost,
        A_ub=a[ub] if has_ub else None,
        b_ub=lay.row_upper[ub] if has_ub else None,
        A_eq=a[eq] if has_eq else None,
        b_eq=lay.row_upper[eq] if has_eq else None,
        bounds=np.column_stack([lay.lower, lay.upper]),
        method="highs-ds",
    )
    if res.status == 2:
        return INFEASIBLE, None, np.nan, res.message
    if res.status == 3:
        return UNBOUNDED, None, np.nan, res.message
    if res.status != 0:
        raise LpSolverError(f"LP solve failed: {res.message}")
    return OPTIMAL, np.asarray(res.x, float), float(res.fun), res.message


def _highs_options():
    """The options linprog(method="highs-ds") sets; all others keep HiGHS defaults."""
    opts = _highs.HighsOptions()
    opts.presolve = "on"
    opts.solver = "simplex"
    opts.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.log_to_console = False
    opts.output_flag = False
    return opts


def _solve_highs(model, lay):
    # the bindings copy Python lists into HiGHS vectors faster than numpy arrays
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(lay.free)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(lay.row_upper)
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = lay.indptr.tolist()
    lp.a_matrix_.index_ = lay.indices.tolist()
    lp.a_matrix_.value_ = lay.data.tolist()
    lp.col_cost_ = lay.cost.tolist()
    lp.col_lower_ = lay.lower.tolist()
    lp.col_upper_ = lay.upper.tolist()
    lp.row_lower_ = lay.row_lower.tolist()
    lp.row_upper_ = lay.row_upper.tolist()
    highs = _highs._Highs()
    error = _highs.HighsStatus.kError
    if highs.passOptions(_HIGHS_OPTIONS) == error or highs.passModel(lp) == error:
        raise LpSolverError("HiGHS rejected the LP model")
    ran = highs.run()
    status = highs.getModelStatus()
    message = highs.modelStatusToString(status)
    if status == _highs.HighsModelStatus.kInfeasible:
        return INFEASIBLE, None, np.nan, message
    if status == _highs.HighsModelStatus.kUnbounded:
        return UNBOUNDED, None, np.nan, message
    if status != _highs.HighsModelStatus.kOptimal or ran == error:
        raise LpSolverError(f"LP solve failed: {message}")
    sol = highs.getSolution()
    x, act = np.array(sol.col_value), np.array(sol.row_value)
    fun = highs.getInfo().objective_function_value
    # the check linprog makes before it reports an optimum
    tol = _LINPROG_TOL
    if (np.isnan(x).any() or np.isnan(fun) or np.isnan(act).any()
            or (x < lay.lower - tol).any() or (x > lay.upper + tol).any()
            or (act > lay.row_upper + tol).any() or (act < lay.row_lower - tol).any()):
        raise LpSolverError("LP solve failed: the solution does not satisfy the "
                            f"constraints within {tol:.2E}")
    return OPTIMAL, x, float(fun), message


try:  # scipy's vendored HiGHS bindings are a private API; linprog is the fallback
    import scipy.optimize._highspy._core as _highs
    _HIGHS_OPTIONS = _highs_options()
    _solve = _solve_highs
except (ImportError, AttributeError):
    _highs = None
    _solve = _solve_linprog


def _check_residuals(model, x):
    scale = 1.0 + float(np.abs(x).max(initial=0.0))
    r, c, v = model.coo()
    act = np.bincount(r, weights=v * x[c], minlength=model.num_rows)
    codes, rhs = model.sense_codes(), model.rhs
    tol = TAU_LP * scale
    bad = np.where(codes == _SENSE_CODE[LE], act > rhs + tol,
                   np.where(codes == _SENSE_CODE[GE], act < rhs - tol, np.abs(act - rhs) > tol))
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise LpSolverError(f"optimal point violates a row: {act[k]} {model._sense[k]} {rhs[k]}")


def dump_lp(model):
    """Text dump in the standard LP file layout (for external cross-checks)."""

    def name(idx):
        return model.names[idx] if model.names else f"x{idx}"

    def terms(coeffs):
        parts = []
        for idx in sorted(coeffs):
            c = coeffs[idx]
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {abs(c):.12g} {name(idx)}")
        s = " ".join(parts) if parts else "0"
        return s[2:] if s.startswith("+ ") else s

    lines = ["Minimize", " obj: " + terms({i: c for i, c in enumerate(model.objective) if c}),
             "Subject To"]
    for rid, (coeffs, sense, rhs) in enumerate(model.rows):
        op = {LE: "<=", GE: ">=", EQ: "="}[sense]
        lines.append(f" c{rid}: {terms(coeffs)} {op} {rhs:.12g}")
    lines.append("Bounds")
    for i in range(model.num_vars):
        lo, up = model.lower[i], model.upper[i]
        up_s = "+inf" if np.isinf(up) else f"{up:.12g}"
        lines.append(f" {lo:.12g} <= {name(i)} <= {up_s}")
    lines.append("End")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exact rational simplex


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


def exact_feasible_point(rows, num_vars, nonneg=None):
    status, x = simplex_solve(rows, num_vars, objective=None, nonneg=nonneg)
    if status == INFEASIBLE:
        return None
    if status != OPTIMAL:
        raise SolverInternalError(f"feasibility solve ended {status}")
    return x


def scaled_integers(values):
    """Non-negative rationals times the lcm of their denominators: integers
    in the same ratios, so sums and comparisons of them are exact."""
    fracs = [Fraction(v) for v in values]
    if any(v < 0 for v in fracs):
        raise SolverInternalError("scaled weights must be non-negative")
    denom = math.lcm(*(v.denominator for v in fracs))
    return [int(v * denom) for v in fracs]


# ---------------------------------------------------------------------------
# constraint generation


@dataclass
class CutOutcome:
    verdict: str  # "empty" or "refuted"
    point: tuple = None
    history: list = None  # payloads of the generated cuts, in order


def cutting_plane(base_rows, num_vars, oracle, nonneg=None, limit=10000, first=None):
    """Generate violated constraints until the cut system is infeasible
    ("empty", with the history of cut-generating solutions) or the oracle
    certifies a candidate point ("refuted").

    oracle(point) returns ("member", None, None) or ("cut", key, (row, payload)).
    Keys identify cut-generating solutions; a repeat key is a contract
    violation because candidate points satisfy all collected cuts.  first,
    when given, is exact_feasible_point of the base rows, which the first
    round then asks about without solving for it again.
    """
    cuts, seen, history = [], set(), []
    for step in range(limit):
        point = first if step == 0 and first is not None else \
            exact_feasible_point(base_rows + cuts, num_vars, nonneg=nonneg)
        if point is None:
            return CutOutcome(verdict="empty", history=history)
        verdict, key, cut = oracle(point)
        if verdict == "member":
            return CutOutcome(verdict="refuted", point=point)
        if key in seen:
            raise SolverInternalError("separation oracle repeated a cut")
        seen.add(key)
        row, payload = cut
        cuts.append(row)
        history.append(payload)
    raise ResourceCapError("cutting-plane iteration limit exceeded")
