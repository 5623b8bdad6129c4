"""LP construction/solution layer.

Two solvers live here:

  * solve_lp: floating-point solves through HiGHS dual simplex, used for
    the assignment/clustering relaxations.  A model is COO triplets (row,
    column, value) plus one sense code and one right-hand side per row,
    added as whole numpy blocks (row_block checks a block once, add_block
    appends it, add_rows does both; add_row adds a one-row block from a
    dict, as the fair weighted row does).  An LP builder may keep the
    blocks no guess changes and hand the same arrays to every model it
    builds.  add_norm_rows turns a norm guess into its count and mass rows,
    for makespan (machines over jobs) and k-center (clients over
    facilities) alike, from a NormCosts that holds what no guess changes:
    the costs masked for counting and the masses per power.  Fixed
    columns (finite lower == upper, such as the pairs a radius guess
    forbids) never reach the solver: solve_lp substitutes them out,
    shifting each row bound by their activity, and lays the free columns
    out as scipy's linprog would (<= rows and negated >= rows in model
    order, then == rows; one CSC matrix with duplicates summed and explicit
    zeros dropped).  It
    calls scipy's vendored HiGHS bindings directly with the options
    linprog(method="highs-ds") passes, without linprog's per-call
    overhead.  Each thread makes one HiGHS instance on its first solve and
    passes the options once; every solve clears the previous model (and
    its basis, so no solve starts warm) before passing its own, except
    that a large model gets an instance of its own (_KEPT_MAX_NONZEROS).
    Where the bindings do not import (they are a private API), linprog
    itself is called on the same sparse matrix; the choice is made once at
    import.  A model whose columns are all fixed keeps its first column, so
    HiGHS still decides it.  Solutions come back over every column, fixed
    ones at their value; optimal ones are verified against every row of
    the full model within a residual tolerance TAU_LP (one sparse mat-vec)
    and come back with at-bound flags (vertex certificate).
  * simplex_solve: a small dense two-phase simplex with Bland's rule in
    exact rational arithmetic, used wherever exactness matters (dual
    candidate points, distribution LPs).  Problem sizes there are tiny.
    Each tableau row is integer numerators over one positive denominator,
    divided by its gcd after every pivot, so no Fraction is made until the
    point is returned; every choice of pivot compares the same rational
    values a Fraction tableau would (ratios cross-multiplied), so the path
    of Bland's rule is that of the Fraction tableau.  Inputs are read as
    Fraction(c) reads them: ints and Fractions directly, anything else
    (floats, NumPy scalars) through Fraction(c).

cutting_plane is the constraint-generation loop shared by the fairness
drivers: it replaces the ellipsoid method of the analysis with finite cut
generation, which terminates because cuts index integral solutions drawn
from a finite set and a returned cut is always new.
"""

import itertools
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from .errors import InvalidInputError, LpSolverError, ResourceCapError, SolverInternalError
from .sparsify import telescoped_deltas

TAU_LP = 1e-7
# linprog's own post-solve feasibility check: sqrt(tol) * 10 at its default tol 1e-9
_LINPROG_TOL = np.sqrt(1e-9) * 10

# debug flag: export MAXNORM_DUMP_LP=<dir> to write every solved model in the
# standard LP file layout for cross-checking against external solvers
_DUMP_DIR = os.environ.get("MAXNORM_DUMP_LP")
_DUMP_COUNTER = itertools.count()

LE, GE, EQ = "<=", ">=", "=="
_SENSES = (LE, GE, EQ)  # a row's sense code is its index here
_SENSE_CODE = {sense: code for code, sense in enumerate(_SENSES)}

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpModel:
    """min objective . x subject to bounds and rows; rows are stored as COO
    triplets with global row indices, one sense code and one rhs per row.
    The model keeps the arrays of each block it is given, so a block that
    LP builders share between models is never copied; nothing writes to
    them."""

    def __init__(self, num_vars, lower, upper, objective):
        self.num_vars = num_vars
        self.lower, self.upper, self.objective = lower, upper, objective
        self.num_rows = 0
        self._blocks = []  # (rows, cols, vals, sense codes, rhs) arrays, one per block
        self._unknown = []  # senses without a code, reported when the model is solved
        self._joined = None  # cached concatenation of the blocks

    def add_var(self, lower, upper, cost):
        """Append one column; returns its index."""
        self.lower = np.append(self.lower, float(lower))
        self.upper = np.append(self.upper, float(upper))
        self.objective = np.append(self.objective, float(cost))
        self.num_vars += 1
        return self.num_vars - 1

    def add_row(self, coeffs, sense, rhs):
        """Append one row, coeffs a dict from column to coefficient."""
        self.add_rows(np.zeros(len(coeffs), np.int64), list(coeffs), list(coeffs.values()),
                      sense, [rhs])

    def __copy__(self):
        """A model with the same columns and rows; rows added to either one
        leave the other as it is."""
        out = LpModel.__new__(LpModel)
        out.__dict__.update(self.__dict__)
        out._blocks, out._unknown = list(self._blocks), list(self._unknown)
        return out

    def add_rows(self, rows, cols, vals, sense, rhs):
        """Append len(rhs) rows at once; rows are indices into this block
        (0 for its first row), sense is one sense or one per row."""
        self.add_block(row_block(rows, cols, vals, sense, rhs))

    def add_block(self, block):
        """Append the rows of a row_block."""
        rows, cols, vals, codes, rhs, unknown = block
        self._blocks.append((rows + self.num_rows if self.num_rows else rows,
                             cols, vals, codes, rhs))
        self._unknown.extend(unknown)
        self.num_rows += len(rhs)
        self._joined = None

    def _parts(self):
        """(rows, cols, vals, sense codes, rhs) over all blocks, in insertion order."""
        if self._joined is None:
            if len(self._blocks) == 1:
                self._joined = self._blocks[0]
            else:
                parts = self._blocks or [(np.zeros(0, np.int64), np.zeros(0, np.int64),
                                          np.zeros(0), np.zeros(0, np.int8), np.zeros(0))]
                self._joined = tuple(np.concatenate(p) for p in zip(*parts))
        return self._joined

    def coo(self):
        """All triplets as (rows, cols, vals) arrays, in insertion order."""
        return self._parts()[:3]

    def sense_codes(self):
        """One code per row: its sense's index in (LE, GE, EQ)."""
        if self._unknown:
            raise LpSolverError(f"unknown sense {self._unknown[0]!r}")
        return self._parts()[3]

    @property
    def rhs(self):
        return self._parts()[4]

    @property
    def rows(self):
        """Read-only view: one (coeffs dict, sense, rhs) per row, in order."""
        r, c, v = self.coo()
        order = np.argsort(r, kind="stable")
        ends = np.searchsorted(r[order], np.arange(1, self.num_rows + 1))
        cols, vals = c[order].tolist(), v[order].tolist()
        out, lo = [], 0
        for hi, code, rhs in zip(ends.tolist(), self.sense_codes().tolist(), self.rhs.tolist()):
            coeffs = {}
            for idx, val in zip(cols[lo:hi], vals[lo:hi]):
                coeffs[idx] = coeffs.get(idx, 0.0) + val
            out.append((coeffs, _SENSES[code], rhs))
            lo = hi
        return tuple(out)


def row_block(rows, cols, vals, sense, rhs):
    """len(rhs) rows as LpModel.add_block takes them: rows are indices into
    the block (0 for its first row), sense is one sense or one per row.  A
    block is checked once, however many models it goes into; a sense
    without a code is reported when a model holding it is solved."""
    rhs = np.asarray(rhs, float).ravel()
    if isinstance(sense, str):
        senses = [sense] if len(rhs) else []
        codes = np.empty(len(rhs), np.int8)
        codes.fill(_SENSE_CODE.get(sense, -1))
    else:
        senses = list(sense)
        if len(senses) != len(rhs):
            raise LpSolverError("add_rows needs one sense per row")
        codes = np.array([_SENSE_CODE.get(s, -1) for s in senses], np.int8)
    unknown = tuple(s for s in senses if s not in _SENSE_CODE)[:1]
    rows = np.asarray(rows, np.int64).ravel()
    if rows.size and (np.minimum.reduce(rows) < 0 or np.maximum.reduce(rows) >= len(rhs)):
        raise LpSolverError("add_rows row index outside the block")
    return (rows, np.asarray(cols, np.int64).ravel(), np.asarray(vals, float).ravel(),
            codes, rhs, unknown)


def lp_model(num_vars, lower=0.0, upper=np.inf, objective=None):
    lower = np.full(num_vars, lower, dtype=float) if np.isscalar(lower) else np.asarray(lower, float)
    upper = np.full(num_vars, upper, dtype=float) if np.isscalar(upper) else np.asarray(upper, float)
    obj = np.zeros(num_vars) if objective is None else np.asarray(objective, float)
    return LpModel(num_vars, lower, upper, obj)


class NormCosts:
    """A cost matrix as add_norm_rows reads it, with what no norm guess
    changes: an owner is a row of cost (a machine over its jobs, a client
    over its facilities), and cols[o, i] is the model column of owner o's
    item i.  The costs are kept with the non-finite ones at -inf, so the
    items counted at a threshold are one comparison, and the masses of
    each power are computed once."""

    def __init__(self, cost, cols):
        self.cols = cols
        self.finite = np.isfinite(cost)
        self.counted_cost = np.where(self.finite, cost, -np.inf)
        self._mass = {}  # power -> masses

    def mass(self, power):
        """Each finite cost, or cost^q by Python's float power (NumPy's
        vectorized power may round differently); 0 where the cost is not
        finite.  A cost^q past the float range is invalid input."""
        mass = self._mass.get(power)
        if mass is None:
            mass = np.where(self.finite, self.counted_cost, 0.0)
            if power != 1:  # v ** 1.0 is v
                try:
                    mass[self.finite] = [v ** power for v in mass[self.finite].tolist()]
                except OverflowError:
                    raise InvalidInputError(f"a cost to the power {power!r} overflows "
                                            "a float") from None
            self._mass[power] = mass
        return mass


def add_norm_rows(model, costs, normspec, fixed_bound):
    """Count and mass rows capping each owner's norm at one guess, added in
    one block; returns the column of the bound surrogate s, or None.

    costs is the NormCosts of the owners' items.  The guess normspec is
    ("top", ell, q, T) or ("ordered", sparse weights, kept coordinates,
    threshold sequence): per threshold (T, or T_ell at each kept ell) a
    count cap of ell, per weight vector a delta per threshold (1, or the
    telescoped w_ell - w_next(ell)), and the power q (1 for ordered norms).
    An item counts at a threshold when its cost is finite and strictly
    above it (strictly, so the rows stay feasible at the exact optimal
    guess when costs tie with it).  Its mass is NormCosts.mass.  Per owner
    the rows come in this order: for each threshold counting an item, a
    count row (coefficients 1); then for each weight vector with a term, a
    mass row whose coefficient on an item accumulates delta * mass over the
    thresholds in order with a nonzero delta counting it (terms may cancel
    to zero).  With fixed_bound None the mass rows are bounded by a new
    column s (coefficient -1, right-hand side 0, cost 1); otherwise by
    B^q."""
    if normspec[0] == "top":
        _, ell, power, threshold = normspec
        thresholds, caps, deltas = [threshold], [ell], [[1.0]]
    else:
        _, sparse, pos, seq = normspec
        tvals = seq.as_dict()
        thresholds, caps = [tvals[ell] for ell in pos.indices], pos.indices
        deltas, power = telescoped_deltas(sparse, pos), 1.0
    sidx = model.add_var(0.0, np.inf, 1.0) if fixed_bound is None else None
    deltas = np.asarray(deltas, float).reshape(-1, len(thresholds))
    num_counts, shape = len(caps), costs.counted_cost.shape
    # entry[slot, o, i]: whether item i of owner o is in the owner's row at
    # slot, one slot per threshold (count rows), then one per weight vector
    # (mass rows); value holds its coefficient
    entry = np.empty((num_counts + len(deltas),) + shape, bool)
    counted = entry[:num_counts]
    np.greater(costs.counted_cost, np.asarray(thresholds, float)[:, None, None], out=counted)
    value = np.zeros(entry.shape)
    value[:num_counts] = 1.0
    mass = costs.mass(power)
    for w, delta in enumerate(deltas.tolist(), num_counts):
        entry[w] = False
        for k, d in enumerate(delta):
            if d != 0.0:
                entry[w] |= counted[k]
                np.add(value[w], d * mass, out=value[w], where=counted[k])
    present = np.logical_or.reduce(entry, axis=2).T  # (owner, slot)
    row_owner, row_slot = present.nonzero()  # the rows, owner by owner
    row_of = np.empty(present.shape, np.int64)
    row_of[row_owner, row_slot] = np.arange(len(row_slot))
    slot, owner, item = entry.nonzero()
    rows, columns, vals = row_of[owner, slot], costs.cols[owner, item], value[entry]
    bounds = np.empty(len(entry))
    bounds[:num_counts] = caps
    if sidx is None:
        bounds[num_counts:] = float(fixed_bound) ** power
    else:
        bounds[num_counts:] = 0.0
        mass_rows = (row_slot >= num_counts).nonzero()[0]
        rows = np.concatenate((rows, mass_rows))
        columns = np.concatenate((columns, np.full(len(mass_rows), sidx)))
        vals = np.concatenate((vals, np.full(len(mass_rows), -1.0)))
    model.add_rows(rows, columns, vals, LE, bounds[row_slot])
    return sidx


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
    remain, in model order (the first column, when every column is fixed).
    A row left with no free column whose bounds hold at 0 is dropped; any
    other empty row stays, for HiGHS's tolerance to judge."""
    indptr: np.ndarray  # CSC over the kept rows and the free columns, duplicates summed, zeros dropped
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
    # np.count_nonzero tests a mask: .any() and .all() cost several times more on small arrays
    codes, rhs = model.sense_codes(), model.rhs
    r, c, v = model.coo()
    if np.count_nonzero(np.isfinite(v)) < len(v) or np.count_nonzero(np.isfinite(rhs)) < len(rhs):
        raise LpSolverError("LP model has a non-finite coefficient or right-hand side")
    cost, lower, upper, offset = model.objective, model.lower, model.upper, 0.0
    free = np.arange(model.num_vars)
    fixed = lower == upper
    if np.count_nonzero(fixed):
        fixed &= np.isfinite(lower)
        num_fixed = np.count_nonzero(fixed)
        if num_fixed == model.num_vars:  # HiGHS reports a model without columns as Empty
            fixed[0] = False
            num_fixed -= 1
        if num_fixed:
            is_free = ~fixed
            free = free[is_free]
            value = np.where(fixed, lower, 0.0)
            if np.count_nonzero(value):
                rhs = rhs - np.bincount(r, weights=v * value[c], minlength=len(rhs))
                offset = float(model.objective @ value)
            keep = is_free[c]
            r, c, v = r[keep], c[keep], v[keep]
            cost, lower, upper = cost[free], lower[free], upper[free]
    num_rows = len(codes)
    ge = codes == _SENSE_CODE[GE]
    if np.count_nonzero(ge):
        sign = np.where(ge, -1.0, 1.0)
        v, rhs = v * sign[r], rhs * sign
    eq = codes == _SENSE_CODE[EQ]
    num_ub = num_rows - np.count_nonzero(eq)
    row_upper, row_lower = rhs, np.empty(num_rows)
    row_lower.fill(-np.inf)
    if num_ub < num_rows:
        order = eq.argsort(kind="stable")  # the rows in their new order
        pos = np.empty(num_rows, np.int64)
        pos[order] = np.arange(num_rows)
        r, row_upper = pos[r], rhs[order]
        row_lower[num_ub:] = row_upper[num_ub:]
    # column-major order of the (row, column) pairs, ties in model order
    width = max(num_rows, 1)
    key = c * width + r
    order = key.argsort(kind="stable")
    key, vals = key[order], v[order]
    repeat = key[1:] == key[:-1]
    if np.count_nonzero(repeat):  # duplicates summed in model order
        starts = np.flatnonzero(np.concatenate(([True], ~repeat)))
        key, vals = key[starts], np.add.reduceat(vals, starts)
    keep = vals != 0
    if np.count_nonzero(keep) < len(keep):
        key, vals = key[keep], vals[keep]
    cols = key // width
    rows = key - cols * width
    empty = np.ones(num_rows, bool)
    empty[rows] = False
    empty &= (row_lower <= 0.0) & (row_upper >= 0.0)
    if np.count_nonzero(empty):  # rows that hold whatever the free columns are
        kept = ~empty
        rows = (np.cumsum(kept) - 1)[rows]
        row_lower, row_upper = row_lower[kept], row_upper[kept]
        num_ub -= np.count_nonzero(empty[:num_ub])
    # a free column's entries start where the first entry of a column at or
    # after it does (the fixed columns have none left)
    indptr = cols.searchsorted(np.concatenate((free, [model.num_vars])))
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
    basic = (x > model.lower + TAU_LP) & (x < model.upper - TAU_LP)
    return LpSolution(OPTIMAL, x, fun, basic, message=message)


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


def _new_highs():
    highs = _highs._Highs()
    if highs.passOptions(_HIGHS_OPTIONS) == _highs.HighsStatus.kError:
        raise LpSolverError("HiGHS rejected the solver options")
    return highs


def _thread_highs():
    """This thread's kept HiGHS instance, made on first use."""
    highs = getattr(_THREAD, "highs", None)
    if highs is None:
        highs = _THREAD.highs = _new_highs()
    return highs


# A model with this many nonzeros or more gets an instance of its own, freed
# after the solve: clearModel frees no buffers, so a kept instance would hold
# those of the largest model it ever took, and making an instance (about
# 0.1 ms on a 2-core x86-64 machine) is small next to solving such a model
_KEPT_MAX_NONZEROS = 1024


def _solve_highs(model, lay):
    if len(lay.data) < _KEPT_MAX_NONZEROS:
        highs = _thread_highs()
        highs.clearModel()  # drops the previous model and its basis: every solve starts cold
    else:
        highs = _new_highs()
    # the array form of passModel; an all-continuous integrality keeps it an LP
    num_col = len(lay.free)
    if highs.passModel(num_col, len(lay.row_upper), len(lay.data), _COLWISE, _MINIMIZE, 0.0,
                       lay.cost, lay.lower, lay.upper, lay.row_lower, lay.row_upper,
                       lay.indptr, lay.indices, lay.data,
                       np.zeros(num_col, np.int32)) == _highs.HighsStatus.kError:
        raise LpSolverError("HiGHS rejected the LP model")
    ran = highs.run()
    status = highs.getModelStatus()
    message = highs.modelStatusToString(status)
    if status == _highs.HighsModelStatus.kInfeasible:
        return INFEASIBLE, None, np.nan, message
    if status == _highs.HighsModelStatus.kUnbounded:
        return UNBOUNDED, None, np.nan, message
    if status != _highs.HighsModelStatus.kOptimal or ran == _highs.HighsStatus.kError:
        raise LpSolverError(f"LP solve failed: {message}")
    sol = highs.getSolution()
    x, act = np.array(sol.col_value), np.array(sol.row_value)
    fun = highs.getObjectiveValue()
    # the check linprog makes before it reports an optimum (NaN fails each comparison)
    tol = _LINPROG_TOL
    inside = np.count_nonzero((x >= lay.lower - tol) & (x <= lay.upper + tol)) + \
        np.count_nonzero((act >= lay.row_lower - tol) & (act <= lay.row_upper + tol))
    if fun != fun or inside < len(x) + len(act):
        raise LpSolverError("LP solve failed: the solution does not satisfy the "
                            f"constraints within {tol:.2E}")
    return OPTIMAL, x, float(fun), message


try:  # scipy's vendored HiGHS bindings are a private API; linprog is the fallback
    import scipy.optimize._highspy._core as _highs
    _HIGHS_OPTIONS = _highs_options()
    _THREAD = threading.local()  # .highs: the thread's instance, made on first use
    _COLWISE, _MINIMIZE = int(_highs.MatrixFormat.kColwise), int(_highs.ObjSense.kMinimize)
    _solve = _solve_highs
except (ImportError, AttributeError):
    _highs = None
    _solve = _solve_linprog


def _check_residuals(model, x):
    scale = 1.0 + float(np.maximum.reduce(np.abs(x), initial=0.0))
    r, c, v = model.coo()
    act = np.bincount(r, weights=v * x[c], minlength=model.num_rows)
    codes, rhs = model.sense_codes(), model.rhs
    tol = TAU_LP * scale
    bad = np.where(codes == _SENSE_CODE[LE], act > rhs + tol,
                   np.where(codes == _SENSE_CODE[GE], act < rhs - tol, np.abs(act - rhs) > tol))
    if np.count_nonzero(bad):
        k = int(np.flatnonzero(bad)[0])
        raise LpSolverError(f"optimal point violates a row: {act[k]} {_SENSES[codes[k]]} {rhs[k]}")


def dump_lp(model):
    """Text dump in the standard LP file layout (for external cross-checks)."""

    def terms(coeffs):
        parts = []
        for idx in sorted(coeffs):
            c = coeffs[idx]
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {abs(c):.12g} x{idx}")
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
        lines.append(f" {lo:.12g} <= x{i} <= {up_s}")
    lines.append("End")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exact rational simplex


def _rational(c):
    """(numerator, denominator) of Fraction(c), as Python ints."""
    if type(c) is int:
        return c, 1
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return int(c.numerator), int(c.denominator)


def _divided(row):
    """row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _pivot(tab, basis, r, c):
    """Gauss-Jordan pivot of an integer tableau on (r, c); c enters the basis
    at row r.  A row of tab is its numerators (one per column, then the
    right-hand side) and a positive denominator last; the final row is the
    reduced costs.  Every row the pivot changes is divided by its gcd."""
    row = tab[r]
    if row[c] < 0:
        row = [-v for v in row]
    row[-1] = row[c]  # the pivot row over its pivot entry
    row = tab[r] = _divided(row)
    a = row[c]
    for rr, other in enumerate(tab):
        f = other[c]
        if rr != r and f != 0:
            new = [a * u - f * v for u, v in zip(other, row)]
            new[-1] = a * other[-1]
            tab[rr] = _divided(new)
    basis[r] = c


def _reduced_costs(cost, tab, basis):
    """A positive multiple of cost less the basis rows weighted by their
    columns' costs, as the tableau's last row (cost holds integers)."""
    used = [r for r, b in enumerate(basis) if cost[b] != 0]
    scale = math.lcm(*(tab[r][-1] for r in used))
    z = [v * scale for v in cost] + [0, scale]
    for r in used:
        f = cost[basis[r]] * (scale // tab[r][-1])
        z = [u - f * v for u, v in zip(z, tab[r])]
    z[-1] = scale
    return _divided(z)


def simplex_solve(rows, num_vars, objective=None, nonneg=None):
    """Two-phase dense simplex with Bland's rule in exact rational arithmetic.

    rows: (coeffs, sense, rhs) with coeffs a dict or sequence;
    nonneg: per-variable flags, False meaning a free variable;
    objective: minimized, defaults to 0 (pure feasibility).
    A coefficient, right-hand side or cost c is read as Fraction(c) reads it.

    The tableau holds each row as integer numerators over one positive
    denominator, and the reduced costs as its last row, updated by every
    pivot.  Each decision compares the rational values themselves: the
    entering column is the first with a negative reduced cost; the leaving
    row has the least ratio, compared cross-multiplied so the row
    denominators cancel, ties to the smaller basis column.  Phase 1 ends by
    pivoting each basic artificial out on its row's first nonzero entry (of
    either sign) and freezing the artificial columns at 0.

    Returns (status, x) with x a tuple of Fractions on success.
    """
    nonneg = [True] * num_vars if nonneg is None else list(nonneg)

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

    def expand(values, den):
        """(numerators, common denominator) of (variable, value) pairs over
        the columns, the denominator a multiple of den."""
        terms = [(col_of[v], neg_col_of[v], *_rational(c)) for v, c in values]
        den = math.lcm(den, *(d for _, _, _, d in terms))
        out = [0] * ncols
        for col, neg, n, d in terms:
            n *= den // d
            out[col] += n
            if neg is not None:
                out[neg] -= n
        return out, den

    norm_rows = []
    for coeffs, sense, rhs in rows:
        rn, rd = _rational(rhs)
        row, den = expand(coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs), rd)
        rn *= den // rd
        if rn < 0:
            row, rn = [-c for c in row], -rn
            sense = {LE: GE, GE: LE, EQ: EQ}[sense]
        norm_rows.append((row, sense, rn, den))

    m = len(norm_rows)
    nslack = sum(1 for _, s, _, _ in norm_rows if s in (LE, GE))
    nart = sum(1 for _, s, _, _ in norm_rows if s in (GE, EQ))
    total = ncols + nslack + nart
    tab, basis, art_cols = [], [], []
    scol, acol = ncols, ncols + nslack
    for row, sense, rhs, den in norm_rows:
        row = row + [0] * (nslack + nart) + [rhs, den]
        if sense == LE:
            row[scol] = den
            basis.append(scol)
            scol += 1
        else:
            if sense == GE:
                row[scol] = -den
                scol += 1
            row[acol] = den
            basis.append(acol)
            art_cols.append(acol)
            acol += 1
        tab.append(row)
    tab.append(None)  # the reduced costs, set per phase
    art_set = set(art_cols)

    def run_phase(cost):
        # True at an optimum, False when unbounded.  Bland's rule never
        # returns to a basis, so a phase visits at most C(total, m)
        tab[m] = _reduced_costs(cost, tab, basis)
        for _ in range(math.comb(total, m)):
            red = tab[m]
            enter = next((c for c in range(total) if red[c] < 0), None)
            if enter is None:
                return True
            best_r = None
            for r in range(m):
                e = tab[r][enter]
                if e > 0:
                    t = tab[r][total]
                    if best_r is None or t * best_e < best_t * e or \
                            (t * best_e == best_t * e and basis[r] < basis[best_r]):
                        best_r, best_t, best_e = r, t, e
            if best_r is None:
                return False
            _pivot(tab, basis, best_r, enter)
        raise SolverInternalError("simplex phase pivoted past its count of bases")

    if art_cols:
        phase1 = [0] * total
        for c in art_cols:
            phase1[c] = 1
        if not run_phase(phase1):
            raise SolverInternalError("phase-1 simplex reported unbounded")
        if tab[m][total] != 0:
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
                tab[r][c] = 0

    cost, _ = expand(enumerate(() if objective is None else objective), 1)
    if not run_phase(cost + [0] * (nslack + nart)):
        return UNBOUNDED, None

    vals = [Fraction(0)] * total
    for r in range(m):
        if basis[r] in art_set and tab[r][total] != 0:
            raise SolverInternalError("artificial variable stuck in the basis")
        vals[basis[r]] = Fraction(tab[r][total], tab[r][-1])
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
