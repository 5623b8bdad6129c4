"""Max-norm k-center with multi-connections: LP, bundles, rounding, drivers.

Pipeline for an accepted guess (radius R, bound B, threshold(s) T):

  1. solve the relaxation (connection variables x, per-client extents u,
     opening variables y, plus count/mass rows for the norm and a facility
     budget: cardinality, partition matroid, or knapsack);
  2. re-derive x nearest-first from (u, y) and split facilities into
     co-located copies until every client uses whole copies only;
  3. group the copies into bundles: full bundles carry one unit of opening
     mass and are opened exactly once; partial bundles earn their reuse
     count when opened.  Each client's queue lists ceil(u_j) bundles whose
     distances blow up by at most a factor 3;
  4. open one copy per chosen bundle through the integral bundle LP and
     read off the client connections from the queues.

Distance guarantees: each rounded client cost is at most
(2 (3R)^q + 3^q (B^q + ell T^q))^(1/q) for Top-(ell,q), and twice the
telescoped chain 3B + 6R w1 + 3 sum (w_l - w_next) (l-1) T_l for
max-ordered norms.

Guess search.  Each guess (R, T) solves one relaxation that minimizes the
bound surrogate s.  That relaxation only gets weaker as R grows (fewer pairs
are forbidden) and as any threshold grows (fewer items are counted, and s
is free), so its feasibility is monotone in R and in T.  The scans use this
instead of solving every infeasible guess:

  * the first feasible radius is found by bisecting the sorted radii on
    each radius's weakest LP (T = R, or every threshold at R), whose
    verdict mostly needs no LP: _cover_verdict refutes it by a
    Hochbaum-Shmoys packing of disjoint client balls or proves it by a
    greedy integral opening, and leaves the radii in between to the LP
    (GuessLPs' verdict, so a probe is solved only when a visit reads it).
    The bisection, guess.first_feasible_radius, is the Top and ordered
    scans' one (_scan_rows builds both scans' LPs and verdicts).  It
    starts at the ball floor, the first radius whose balls hold every l_j
    and can carry m (_ball_floor over every facility), since the cover
    verdict's first rule refutes every radius below it, and gallops from
    there to where the cover verdict stops refuting.  A Top scan's
    threshold probe takes the same verdict wherever the column bounds
    imply every count row, min(r_j, #{i : T < d_ij <= R}) <= ell for
    every client (_count_rows_implied; _scan_top has the argument);
  * from there, maxnorm.guess.scan_sequence_rows, shared with the
    makespan driver and both knapsack residuals: each radius's guesses are
    visited in ascending order of the LP-free lower key (floor, chain at
    the floor, radius, index), with the floor snapped to the grid, and the
    visit stops once the next lower key reaches the best key found.  A
    guess lying at or below an infeasible one on every kept coordinate is
    skipped unsolved.  A count key is the guess's negated thresholds, so it
    names one guess, which is rebuilt from it only to build its LP;
  * for Top norms (_scan_top), a row is guess.top_row: floor max(R,
    ell^(1/q) T) and no chain term, so the keys order as (bound, R, T).
    The row is bisected for its first feasible threshold, no higher than
    the previous radius's (the staircase); the Top residual's bound is not
    snapped to a grid;
  * for ordered norms (_scan_sequences), each radius's sequences are one
    sparsify.SequenceTable with their chains as one vector, and the floor
    is R w1.  The chain only grows with the bound, so no real key lies
    below its lower key.  The residual has no grid and no chain term, so
    its keys order as (estimate, sequence index): it walks the sequences
    in order, from the all-R one that _cover_verdict decides, and stops
    once s <= R w1, since no later sequence gets below that floor.

Every scan accepts exactly the guess the exhaustive scan accepts, with its
(bound, ...) tie-break.  A verdict that contradicts monotonicity (a
numerical edge), or an LP refuting a feasible verdict, sends its radius
back to a full search of the row.

The knapsack driver guesses the optimum's heavy facilities s0 and, per
radius, walks the bound grid, pre-connecting clients to s0 and asking the
light-facility residual (one of the scans above at that radius) for a
bound.  A client's pre-connection count only grows along the grid, so the
grid splits into runs of one pattern, and the residual is asked once per
run.  Each s0 starts at its radius floor, the first radius where the balls
over s0 and the light facilities hold every l_j and can carry m; below it
every residual is refuted by _cover_verdict, whatever the pattern
(solve_knapsack_center has the argument).
"""

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bundlelp import solve_knapsack_basic, solve_partition_matroid_integral
from .errors import InfeasibleError, InvalidInputError, ResourceCapError, SolverInternalError
from .guess import (GuessLPs, SequenceRow, first_feasible_radius, scan_sequence_rows,
                    top_row, weakest_thresholds)
from .instances import (ClusterSolution, eval_cluster_objective,
                        validate_cluster_solution)
from .lp import (EQ, GE, LE, OPTIMAL, NormCosts, add_norm_rows, lp_model, row_block,
                 solve_lp)
from .norms import TOP, eval_norm, max_ordered_norm, power_sum_root, top_norm
from .sparsify import (SequenceTable, ThresholdSequence, geometric_grid,
                       single_threshold_candidates, sparsify_weights, telescoped_deltas)
# unused; perfbench traces cluster.enumerate_threshold_sequences
from .sparsify import enumerate_threshold_sequences  # noqa: F401

_TOL = 1e-9


@dataclass
class CenterCore:
    """Client-facility view a solver works on, with its facility budget (a
    cardinality, partition or knapsack tuple, _budget_rows) and whether its
    relaxations carry the coverage row; facility_ids map the local facility
    columns back to instance indices (residual subinstances).  What no guess
    changes is worked out once per core: the budget rows, the relaxations'
    fixed parts and each radius's cover verdict."""

    cf: np.ndarray
    l: np.ndarray
    r: np.ndarray
    m: int
    facility_ids: tuple
    budget: tuple
    coverage: bool = True

    @property
    def n_clients(self):
        return self.cf.shape[0]

    @property
    def n_facilities(self):
        return self.cf.shape[1]

    @property
    def r0(self):
        return int(self.r.max()) if len(self.r) else 0

    def distances(self):
        return sorted(set(float(v) for v in self.cf.ravel()))

    @functools.cached_property
    def budget_rows(self):
        """_budget_rows of the core's budget."""
        return _budget_rows(self, self.budget)

    @functools.cached_property
    def lp_parts(self):
        return _CenterParts(self)

    def cover(self, radius):
        """_cover_verdict at the radius, decided once per radius."""
        verdicts = self.__dict__.setdefault("_verdicts", {})
        if radius not in verdicts:
            verdicts[radius] = _cover_verdict(self, radius)
        return verdicts[radius]


def core_of(inst, budget=None, coverage=True):
    """The instance's core under the budget, by default at most k opens."""
    return CenterCore(cf=np.array(inst.cf), l=np.array(inst.l), r=np.array(inst.r),
                      m=int(inst.m), facility_ids=tuple(range(inst.n_facilities)),
                      budget=(CARDINALITY, inst.k) if budget is None else budget,
                      coverage=coverage)


# ---------------------------------------------------------------------------
# LP construction

CARDINALITY, PARTITION, KNAPSACK = "cardinality", "partition", "knapsack"


class _CenterParts:
    """What no guess changes in one core's relaxations (_center_lp): the
    norm costs, the column bounds outside x, the client rows, the y column
    of each pair's x <= y row, the coverage row, and the budget rows, one
    per capped part of the core's budget_rows over its facilities."""

    def __init__(self, core):
        nc, nf = core.n_clients, core.n_facilities
        nx = nf * nc
        u0, y0 = nx, nx + nc
        self.norm = NormCosts(core.cf, np.arange(nx).reshape(nf, nc).T)
        self.lower, self.upper = np.zeros(nx + nc + nf), np.ones(nx + nc + nf)
        self.lower[u0:y0], self.upper[u0:y0] = core.l, core.r
        # per client sum_i x(i,j) - u_j == 0, facility-major as the x columns
        self.clients = row_block(np.concatenate([np.arange(nx) % nc, np.arange(nc)]),
                                 np.arange(nx + nc), np.repeat([1.0, -1.0], [nx, nc]), EQ,
                                 np.zeros(nc))
        self.pair_y = y0 + np.arange(nx) // nc
        self.coverage = row_block(np.zeros(nc), u0 + np.arange(nc), np.ones(nc), GE,
                                  [float(core.m)])
        part, weight, caps, _, capped = core.budget_rows
        listed = np.flatnonzero(np.isin(part, capped))
        self.budget = row_block(np.searchsorted(capped, part[listed]), y0 + listed,
                                weight[listed], EQ if core.budget[0] == CARDINALITY else LE,
                                caps[capped])


def _center_lp(core, normspec, radius, fixed_bound=None):
    """Relaxation with sum_i x(i,j) = u_j in [l_j, r_j], x(i,j) <= y_i over
    the pairs within the radius (the others are forbidden), sum_j u_j >= m
    where the core has coverage, the norm rows of normspec (lp.add_norm_rows,
    clients over facilities) and the core's budget rows.  Columns: x(i,j) at
    i * nc + j, then u, then y, then s.  With fixed_bound None the bound
    surrogate s is minimized; returns (model, index of s or None).  What no
    guess changes is built once per core (_CenterParts)."""
    parts = core.lp_parts
    allowed = ~(core.cf.T > radius)  # facility-major, as the x columns
    upper = parts.upper.copy()
    upper[:allowed.size] = allowed.ravel()
    model = lp_model(len(upper), lower=parts.lower, upper=upper)
    model.add_block(parts.clients)
    pairs = np.flatnonzero(allowed)  # per allowed pair x(i,j) - y_i <= 0
    at = np.arange(len(pairs))
    model.add_rows(np.concatenate([at, at]), np.concatenate([pairs, parts.pair_y[pairs]]),
                   np.repeat([1.0, -1.0], len(pairs)), LE, np.zeros(len(pairs)))
    if core.coverage:
        model.add_block(parts.coverage)
    sidx = add_norm_rows(model, parts.norm, normspec, fixed_bound)
    model.add_block(parts.budget)
    return model, sidx


def _lp_parts(core, xvec):
    nc, nf = core.n_clients, core.n_facilities
    x = np.asarray(xvec[: nf * nc]).reshape(nf, nc)
    u = np.asarray(xvec[nf * nc: nf * nc + nc])
    y = np.asarray(xvec[nf * nc + nc: nf * nc + nc + nf])
    return x, u, y


def center_u_index(core, j):
    """Column of the connection-extent variable u_j in the relaxation."""
    return core.n_facilities * core.n_clients + j


# ---------------------------------------------------------------------------
# facility splitting


@dataclass
class SplitSolution:
    """Fractional solution normalized so every client uses whole co-located
    copies, nearest first."""

    core: CenterCore
    radius: float
    original: list  # copy -> local facility index
    mass: list  # copy -> opening mass
    support: list  # per client: copy ids, ascending (distance, id)
    u: list

    def dist(self, j, c):
        return float(self.core.cf[j, self.original[c]])

    def copy_count(self):
        return len(self.original)


def _snap_scalar(v, lo, hi):
    v = min(max(float(v), lo), hi)
    return round(v) if abs(v - round(v)) < 1e-7 else v


def split_and_normalize(u, y, core, radius):
    """Re-derive the connection pattern nearest-first from (u, y) and split
    facilities so each client's support is a set of whole copies.

    Nearest-first reassignment can only decrease the connection mass beyond
    any distance threshold, so every count/mass row of the source LP stays
    satisfied.
    """
    nc, nf = core.n_clients, core.n_facilities
    u_eff, usage = [], [dict() for _ in range(nf)]
    for j in range(nc):
        target = _snap_scalar(u[j], float(core.l[j]), float(core.r[j]))
        order = sorted((i for i in range(nf) if core.cf[j, i] <= radius and y[i] > _TOL),
                       key=lambda i: (core.cf[j, i], i))
        rem = target
        for i in order:
            if rem <= _TOL:
                break
            take = min(float(y[i]), rem)
            usage[i][j] = take
            rem -= take
        if rem > 1e-6:
            raise SolverInternalError("openings cannot carry the required extent")
        u_eff.append(target - max(rem, 0.0))

    original, mass, support = [], [], [[] for _ in range(nc)]
    for i in range(nf):
        cuts = []
        for a in sorted(set(usage[i].values())):
            if a >= float(y[i]) - 1e-12:
                continue
            if cuts and a - cuts[-1] < 1e-12:
                continue
            cuts.append(a)
        start = len(original)
        prev = 0.0
        for c in cuts:
            original.append(i)
            mass.append(c - prev)
            prev = c
        if float(y[i]) - prev > 1e-12:
            original.append(i)
            mass.append(float(y[i]) - prev)
        for j, a in usage[i].items():
            if a >= float(y[i]) - 1e-12:
                count = len(original) - start
            else:
                count = min(range(len(cuts)), key=lambda t: abs(cuts[t] - a)) + 1
            support[j].extend(range(start, start + count))
    for j, ids in enumerate(support):
        ids.sort(key=lambda c: (core.cf[j, original[c]], c))

    return SplitSolution(core=core, radius=float(radius), original=original,
                         mass=mass, support=support, u=u_eff)


# ---------------------------------------------------------------------------
# bundles


@dataclass
class BundleStructure:
    split: SplitSolution  # final copy registry (splits applied)
    bundles: list  # copy-id tuples
    is_full: list
    reuse: dict  # partial bundle index -> profit counter n_U
    queues: list  # per client: bundle indices in addition order

    def full_indices(self):
        return [b for b, f in enumerate(self.is_full) if f]

    def partial_indices(self):
        return [b for b, f in enumerate(self.is_full) if not f]


def _floor_ceil(u):
    snapped = round(u) if abs(u - round(u)) < 1e-7 else u
    return int(math.floor(snapped)), int(math.ceil(snapped))


def _fill_slots(queues, want, pick, place, what):
    """place(pick()) until pick() returns None.  pick chooses only clients
    whose queue is short of want[j], and each place appends to that queue,
    so pick() returns None within (open slots + 1) rounds; a round past
    that means a step filled nothing."""
    slots = sum(max(w - len(q), 0) for q, w in zip(queues, want))
    for _ in range(slots + 1):
        chosen = pick()
        if chosen is None:
            return
        place(chosen)
    raise SolverInternalError(f"{what} picked again after filling all {slots} open queue slots")


def build_bundles(split):
    """Group fractional copies into bundles (two passes: full bundles by
    nearest unit mass, then one at-most-unit bundle per client with a
    fractional extent).  Reuse of an intersecting bundle keeps bundles
    disjoint; reusing a partial bundle raises its profit counter."""
    core = split.core
    nc = core.n_clients
    original = list(split.original)
    mass = list(split.mass)
    fj = [list(s) for s in split.support]
    bundles, is_full, reuse = [], [], {}
    member = {}
    queues = [[] for _ in range(nc)]
    floors, ceils = zip(*(_floor_ceil(v) for v in split.u)) if nc else ((), ())

    def dist(j, c):
        return float(core.cf[j, original[c]])

    def resort(j):
        fj[j].sort(key=lambda c: (dist(j, c), c))

    def prefix(j, target):
        """Nearest copies of fj[j] summing to target; boundary split deferred.
        Returns (whole ids, (boundary id, needed) or None, reach, dmax)."""
        ids, acc, dmax = [], 0.0, 0.0
        for c in fj[j]:
            if acc >= target - _TOL:
                break
            room = target - acc
            if mass[c] <= room + _TOL:
                ids.append(c)
                acc += mass[c]
                dmax = dist(j, c)
            else:
                return ids, (c, room), acc + room, dist(j, c)
        return ids, None, acc, dmax

    def split_copy(c, keep):
        if c in member:
            raise SolverInternalError("attempted to split a bundled copy")
        rest = mass[c] - keep
        mass[c] = keep
        original.append(original[c])
        mass.append(rest)
        newc = len(mass) - 1
        for jj in range(nc):
            if c in fj[jj]:
                fj[jj].append(newc)
                resort(jj)
        return newc

    def open_bundle(ids, boundary, full):
        """A new bundle of ids plus the kept part of the boundary copy (the
        rest splits off as a new copy); returns its index."""
        if boundary is not None:
            c, keep = boundary
            if keep > _TOL:
                split_copy(c, keep)
                ids = ids + [c]
        if any(c in member for c in ids):
            raise SolverInternalError("new bundle overlaps an existing one")
        bundles.append(tuple(ids))
        is_full.append(full)
        for c in ids:
            member[c] = len(bundles) - 1
        return len(bundles) - 1

    def first_hit(touched, want_full):
        for c in touched:
            b = member.get(c)
            if b is not None and is_full[b] == want_full:
                return b
        return None

    # pass 1: full bundles until every queue holds floor(u_j) of them
    def pick_full():
        pick = None
        for j in range(nc):
            if len(queues[j]) >= floors[j]:
                continue
            ids, boundary, reach, dmax = prefix(j, 1.0)
            if reach < 1.0 - 1e-6:
                raise SolverInternalError("client lost unit support mass before pass 1 ended")
            if pick is None or dmax < pick[3]:
                pick = (j, ids, boundary, dmax)
        return pick

    def place_full(pick):
        j, ids, boundary, _ = pick
        touched = ids + ([boundary[0]] if boundary is not None else [])
        hit = first_hit(touched, want_full=True)
        if hit is None:
            hit = open_bundle(ids, boundary, full=True)
        queues[j].append(hit)
        inside = set(bundles[hit])
        fj[j] = [c for c in fj[j] if c not in inside]  # stays sorted: split_copy resorts

    _fill_slots(queues, floors, pick_full, place_full, "bundle pass 1")

    # pass 2: one more (at most unit) bundle per client with fractional extent
    def pick_partial():
        pick = None
        for j in range(nc):
            if len(queues[j]) >= ceils[j]:
                continue
            total = sum(mass[c] for c in fj[j])
            if total <= _TOL:
                raise SolverInternalError("client has no residual support for its last bundle")
            target = min(1.0, total)
            ids, boundary, reach, dmax = prefix(j, target)
            if pick is None or reach > pick[3] + 1e-15:
                pick = (j, ids, boundary, reach)
        return pick

    def place_partial(pick):
        j, ids, boundary, reach = pick
        touched = ids + ([boundary[0]] if boundary is not None else [])
        hit = first_hit(touched, want_full=True)
        if hit is None:
            hit = first_hit(touched, want_full=False)
            if hit is not None:
                reuse[hit] += 1
        if hit is None:
            hit = open_bundle(ids, boundary, full=False)
            reuse[hit] = 1
        queues[j].append(hit)
        fj[j] = []

    _fill_slots(queues, ceils, pick_partial, place_partial, "bundle pass 2")

    out = BundleStructure(
        split=SplitSolution(core=core, radius=split.radius, original=original,
                            mass=mass, support=split.support, u=split.u),
        bundles=bundles, is_full=is_full, reuse=reuse, queues=queues)
    check_bundle_structure(out)
    return out


def check_bundle_structure(bs):
    """Structural invariants: disjoint bundles, unit mass on full bundles,
    at most unit on partials, queue length ceil(u_j), profit counters equal
    the number of queues reusing each partial bundle."""
    seen = set()
    for b, u in enumerate(bs.bundles):
        for c in u:
            if c in seen:
                raise SolverInternalError("bundles are not disjoint")
            seen.add(c)
        total = sum(bs.split.mass[c] for c in u)
        if bs.is_full[b] and abs(total - 1.0) > 1e-6:
            raise SolverInternalError(f"full bundle carries mass {total}")
        if not bs.is_full[b] and total > 1.0 + 1e-6:
            raise SolverInternalError(f"partial bundle carries mass {total}")
    for j, q in enumerate(bs.queues):
        _, ceil_u = _floor_ceil(bs.split.u[j])
        if len(q) != ceil_u:
            raise SolverInternalError("queue length differs from ceil(u_j)")
        if len(set(q)) != len(q):
            raise SolverInternalError("queue repeats a bundle")
    for b in bs.partial_indices():
        count = sum(1 for q in bs.queues if b in q)
        if count != bs.reuse[b]:
            raise SolverInternalError("partial bundle profit counter is off")


def closest_mass_distances(split, j):
    """d_max of the t-th closest unit of support mass, t = 1..floor(u_j),
    measured on the pristine split solution."""
    out, acc, t = [], 0.0, 1
    for c in split.support[j]:
        acc += split.mass[c]
        while acc >= t - 1e-6:
            out.append(split.dist(j, c))
            t += 1
    return out


def check_bundle_distances(split_before, bs):
    """Distance inflation of the queues: bundle t of client j stays within 3x
    the t-th closest unit mass, and within 3R for the final partial step."""
    core = bs.split.core
    for j in range(core.n_clients):
        vmax = closest_mass_distances(split_before, j)
        floor_u, _ = _floor_ceil(split_before.u[j])
        for t, b in enumerate(bs.queues[j], start=1):
            dmax = max(bs.split.dist(j, c) for c in bs.bundles[b])
            if t <= floor_u:
                if dmax > 3.0 * vmax[t - 1]:
                    raise SolverInternalError(
                        f"bundle {t} of client {j}: {dmax} > 3*{vmax[t - 1]}")
            elif dmax > 3.0 * split_before.radius:
                raise SolverInternalError(f"last bundle of client {j} beyond 3R")


# ---------------------------------------------------------------------------
# assembly


def assemble_solution(z, bs, fractional_open=False):
    """Turn an integral bundle opening into (local) open facilities and
    per-client connections read off the queues.

    With fractional_open (knapsack), positive entries are opened in full,
    each queue bundle contributes at most one (nearest) connection, and the
    result is a multiset of local facility ids.
    """
    split = bs.split
    opened = {c for c, v in z.items() if (v > 1e-7 if fractional_open else v == 1)}
    open_locals = [split.original[c] for c in sorted(opened)]
    if not fractional_open and len(set(open_locals)) != len(open_locals):
        raise SolverInternalError("two copies of one facility opened")
    assigned = []
    for j, q in enumerate(bs.queues):
        mine = []
        for b in q:
            inside = [c for c in bs.bundles[b] if c in opened]
            if not fractional_open and len(inside) > 1:
                raise SolverInternalError("bundle opened twice")
            if inside:
                best = min(inside, key=lambda c: (split.dist(j, c), c))
                mine.append(split.original[best])
        assigned.append(tuple(mine))
    return open_locals, assigned


def _coverage(assigned):
    return sum(len(a) for a in assigned)


# ---------------------------------------------------------------------------
# drivers


@dataclass
class CenterSolveResult:
    solution: ClusterSolution
    value: float
    certificate: dict


def _round_accepted(core, xuy, radius, weights=None):
    """Split, bundle, and open bundles integrally for an accepted guess under
    the core's budget; returns (bundle structure, z, and the exact
    objective, the coverage of the opening with each client's queue counted
    at its weight, default 1, or for a knapsack budget the copies its basic
    vertex opens fractionally)."""
    _, u, y = xuy
    split = split_and_normalize(u, y, core, radius)
    bs = build_bundles(split)
    check_bundle_distances(split, bs)
    weights = [1] * core.n_clients if weights is None else weights
    partial = [bs.bundles[b] for b in bs.partial_indices()]
    profits = [sum(w for w, q in zip(weights, bs.queues) if b in q)
               for b in bs.partial_indices()]
    full = [bs.bundles[b] for b in bs.full_indices()]
    copy_to_original = {c: bs.split.original[c] for u_ in bs.bundles for c in u_}
    if core.budget[0] == KNAPSACK:
        _, wt, limit = core.budget
        copy_weights = {c: float(wt[core.facility_ids[i]]) for c, i in copy_to_original.items()}
        z, _, fractional = solve_knapsack_basic(full, partial, profits, copy_weights, limit)
        return bs, z, fractional
    fixed = sum(w * sum(bs.is_full[b] for b in q) for w, q in zip(weights, bs.queues))
    part, _, caps, _, capped = core.budget_rows
    z, obj = solve_partition_matroid_integral(full, partial, profits, copy_to_original,
                                              [np.flatnonzero(part == p).tolist()
                                               for p in capped], caps[capped], fixed_term=fixed)
    return bs, z, obj


# ---------------------------------------------------------------------------
# monotone guess search


_KNAPSACK_SLACK = 1e-6  # relative to the limit; above HiGHS's feasibility tolerance


def _budget_rows(core, budget):
    """The budget as rows sum_{i in part p} w_i y_i <= cap_p: the part of each
    facility, w, the caps, the slack a float row keeps from its cap, and the
    parts that get a row, ascending.  A cardinality budget of k means at
    most k opens: one row sum_i y_i = min(k, nf).  A facility in no part of
    a partition gets a last, uncapped part; a part with no cap gets no row,
    nor does a partition part without a facility of the core, whose row
    would be empty."""
    nf = core.n_facilities
    part, weight, slack = np.zeros(nf, int), np.ones(nf), 0.0
    if budget[0] == CARDINALITY:
        caps = np.array([float(min(budget[1], nf))])
    elif budget[0] == KNAPSACK:
        _, wt, limit = budget
        weight = np.asarray(wt, float)[list(core.facility_ids)]
        caps, slack = np.array([float(limit)]), _KNAPSACK_SLACK * max(1.0, abs(float(limit)))
    elif budget[0] == PARTITION:
        _, parts, caps = budget
        local = {fid: i for i, fid in enumerate(core.facility_ids)}
        part = np.full(nf, len(caps))
        for p, members in enumerate(parts):
            part[[local[fid] for fid in members if fid in local]] = p
        caps = np.append(np.asarray(caps, float), np.inf)
    else:
        raise InvalidInputError(f"unknown budget {budget[0]!r}")
    capped = np.isfinite(caps)
    if budget[0] == PARTITION:
        capped &= np.bincount(part, minlength=len(caps)) > 0
    return part, weight, caps, slack, np.flatnonzero(capped)


def _cover_verdict(core, radius):
    """Whether the radius's weakest relaxation of the core is feasible,
    decided without an LP, or None to leave it to the LP.  Solvers ask it
    through core.cover, which keeps it per radius.

    At the weakest guess every counted pair is forbidden and s is free, so
    what is left is x <= y, u_j in [l_j, r_j] over the ball B_j (the
    facilities within R of client j), sum u >= m where the core has
    coverage, and the core's budget rows.  False: a ball holds fewer than
    l_j facilities, the balls cannot carry m connections, or clients with
    pairwise disjoint balls need more than the budget lets those balls open
    (the Hochbaum-Shmoys packing argument): client j needs l_j times the
    lightest weight in B_j.  True: a greedy integral opening within the
    budget puts l_j open facilities in every ball, and min(r_j, open in
    B_j) sums to m; padded to exactly min(k, nf) for cardinality, it is a
    point of the LP.  Knapsack weights are floats, so both rules keep a
    slack from the limit above HiGHS's feasibility tolerance."""
    ball = ~(core.cf > radius)  # the pairs the relaxation allows
    size = ball.sum(axis=1)
    need = core.m if core.coverage else 0
    if np.any(size < core.l) or np.minimum(size, core.r).sum() < need:
        return False
    part, weight, caps, slack, _ = core.budget_rows
    packed, demand = np.zeros(core.n_facilities, bool), 0.0
    for j in np.argsort(size, kind="stable"):  # small balls first
        if core.l[j] > 0 and not (ball[j] & packed).any():
            packed |= ball[j]
            demand += core.l[j] * weight[ball[j]].min()
    room = np.minimum(np.bincount(part, weight * packed, len(caps)), caps).sum()
    if demand > room + slack:  # the most the budget lets the packed balls open
        return False
    # open, per unit of weight, the facility in most balls short of l_j,
    # then short of r_j while the coverage is short
    opened = np.zeros(core.n_facilities, bool)
    have = np.zeros(core.n_clients, int)  # open facilities in each ball
    spent = np.zeros(len(caps))
    while True:
        short = have < core.l
        if not short.any():
            if np.minimum(have, core.r).sum() >= need:
                break
            short = have < core.r
        fits = ~opened & (spent[part] + weight <= caps[part] - slack)
        gain = np.where(fits, short.astype(int) @ ball, 0)
        if not gain.any():
            return None
        i = int(np.argmax(gain / np.maximum(weight, 1e-12)))
        opened[i] = True
        spent[part[i]] += weight[i]
        have += ball[:, i]
    # fits kept every opened facility within the budget; only opening nothing
    # under a limit below the slack can leave it over
    return None if np.any(spent > caps - slack) else True


def _count_rows_implied(core, radius, t, ell):
    """Whether every client's Top count row at threshold t is implied at this
    radius: min(r_j, #{i : t < d_ij <= R}) <= ell for every client j.  The
    comparisons are add_norm_rows' (a finite cost strictly above t) and
    _center_lp's (not above R)."""
    counted = (core.lp_parts.norm.counted_cost > t) & ~(core.cf > radius)
    return bool(np.all(np.minimum(core.r, counted.sum(axis=1)) <= ell))


def _scan_rows(core, radii, wtop, grid_of, row, spec, weakest, implied=None):
    """guess.scan_sequence_rows over row(ri) for the radii, from the first
    radius whose weakest count key weakest(ri) is feasible
    (guess.first_feasible_radius, bisected from _ball_floor over every
    facility: below it _cover_verdict's first rule refutes each radius).
    lps(ri, key) solves _center_lp with normspec spec(ri, key).  A probe
    takes its radius's cover verdict (core.cover) at the weakest key and
    wherever implied(ri, key) holds; every other probe gets None."""
    def verdict(ri, key):
        if key == weakest(ri) or (implied is not None and implied(ri, key)):
            return core.cover(radii[ri])
        return None

    lps = GuessLPs(lambda ri, key: _center_lp(core, spec(ri, key), radii[ri]), solve_lp, verdict)
    floor = _ball_floor(core, np.searchsorted(radii, core.cf, side="left"))
    return scan_sequence_rows(lps, radii, wtop, grid_of, row, first_feasible_radius(
        lps, len(radii), weakest, len(radii) if floor is None else floor))


def _scan_top(core, ell, q, radii, thresholds, grid_of):
    """_scan_rows over the Top rows of radii (guess.top_row, count key
    (-T,)), with the cover verdict also wherever _count_rows_implied holds.

    At such a probe the norm rows cut nothing: s is free, so the mass rows
    never bind, and client j's counted x(i,j) are each at most 1 and sum to
    at most u_j <= r_j, so its count row holds.  The LP is then feasible
    exactly when the radius's relaxation without norm rows is, which is what
    _cover_verdict decides."""
    weakest = [(-thresholds[ti],) for ti in weakest_thresholds(radii, thresholds)]
    return _scan_rows(core, radii, 1.0, grid_of,
                      lambda ri: top_row(radii[ri], thresholds, ell, q),
                      lambda ri, key: ("top", ell, q, -key[0]), weakest.__getitem__,
                      lambda ri, key: _count_rows_implied(core, radii[ri], -key[0], ell))


def _scan_sequences(core, sparsified, r0, radii, grid_of, chained):
    """_scan_rows over the threshold sequences of radii (on r0
    coordinates), with the cover verdict at each radius's weakest sequence
    (every threshold at R) only.  sparsified is (sparse weights, kept
    coordinates, w1); chained(radius, values) gives the SequenceRow chain
    of a row whose sequences' thresholds are the rows of values.  A count
    key is the sequence's negated thresholds, so it names its sequence;
    radius 0 has one guess and no sequence (None), with the empty key,
    which covers every other but is never compared within a row: only
    zero-distance links are allowed, and once feasible it ends the scan at
    bound 0.  The weakest sequence is also its row's first, so the row
    reads the bisection's verdict."""
    sparse, pos, wtop = sparsified

    def weakest(ri):
        return () if radii[ri] == 0.0 else (-radii[ri],) * len(pos.indices)

    def row(ri):
        radius = radii[ri]
        if radius == 0.0:
            return SequenceRow(np.zeros((1, 0)), lambda bound, sidx: [0.0], lambda sidx: None)
        table = SequenceTable(radius, r0)
        values = table.values()
        return SequenceRow(-values, chained(radius, values), table.sequence)

    return _scan_rows(core, radii, wtop, grid_of, row,
                      lambda ri, key: _sequence_spec(sparse, pos, r0, _keyed(radii[ri], pos, key)),
                      weakest)


def _keyed(radius, pos, key):
    """The sequence with count key key at this radius (None at radius 0)."""
    return ThresholdSequence(anchor=float(radius), positions=pos.indices,
                             values=tuple(-v for v in key)) if key else None


def _sequence_spec(sparse, pos, r0, seq):
    return ("top", r0, 1.0, 0.0) if seq is None else ("ordered", sparse, pos, seq)


def _top_cert(radius, bound, ell, q, threshold):
    return power_sum_root(
        lambda: (2 * (3 * radius) ** q + 3 ** q * (bound ** q + ell * threshold ** q)) ** (1.0 / q),
        ((2, 3 * radius), (1, 3 * bound), (ell, 3 * threshold)), q)


def solve_topl_kcenter(inst, ell, q, eps):
    """Top-(ell,q) k-center within factor 3*4^(1/q) + eps of optimal."""
    return _solve_center(inst, None, top_norm(ell, q), eps)


def _solve_center(inst, budget, norm, eps):
    """The cardinality and partition drivers' one body, on the instance's
    core under the budget (None: at most k opens): the norm's guesses
    (one threshold for Top-(ell,q), a threshold sequence for max-ordered),
    the rounding of the accepted one, and its checks: the coverage of the
    opening, the instance's constraints (k only under a cardinality budget,
    every part's capacity under a partition), and the value against the
    certificate."""
    if not 0 < eps < math.inf:
        raise InvalidInputError("eps must be positive and finite")
    core = core_of(inst, budget)
    if norm.kind == TOP:
        bound, radius, threshold, xuy = _scan_top_guesses(core, norm.ell, norm.q, eps)
        limit, seq = _top_cert(radius, bound, norm.ell, norm.q, threshold), ()
        named = {"threshold": threshold, "per_client_bound": limit}
    else:
        bound, limit, radius, seq, _, _, xuy = \
            _scan_ordered_guesses(core, norm.weights, eps)
        seq = seq.values if seq else ()
        named = {"sequence": seq, "chain_bound": limit}
    bs, z, obj = _round_accepted(core, xuy, radius)
    if obj < core.m:
        raise SolverInternalError("integral opening lost coverage")
    open_locals, assigned = assemble_solution(z, bs)
    solution = ClusterSolution(open_facilities=open_locals, assigned=assigned)
    validate_cluster_solution(inst, solution, check_cardinality=core.budget[0] == CARDINALITY)
    if core.budget[0] == PARTITION:
        opened = Counter(solution.open_facilities)
        for part, cap in zip(core.budget[1], core.budget[2]):
            if sum(opened[i] for i in part) > cap:
                raise SolverInternalError("opening violates a partition capacity")
        named = {"per_client_bound": limit, "sequence": seq}  # the same keys for either norm
    value = eval_cluster_objective(inst, norm, solution)
    if value > limit * (1 + 1e-9) + 1e-12:
        raise SolverInternalError("rounded value exceeds its certificate")
    cert = {"radius": radius, "bound": bound, **named, "coverage": int(obj)}
    return CenterSolveResult(solution=solution, value=value, certificate=cert)


def _scan_top_guesses(core, ell, q, eps):
    root = 1.0 / q
    grid_eps = eps / (3 * 4.0 ** root)
    radii = sorted(set(core.distances()) | {0.0})
    r0 = max(core.r0, 1)
    best = _scan_top(core, ell, q, radii, single_threshold_candidates(core.distances()),
                     lambda radius: [0.0] if radius == 0.0
                     else geometric_grid(radius, r0 ** root * radius, grid_eps))
    if best is None:
        raise InfeasibleError("no guess satisfies the relaxation; instance is infeasible")
    (bound, _, ri, _), (threshold, sol) = best
    return bound, radii[ri], threshold, _lp_parts(core, sol.x)


def solve_ordered_kcenter(inst, weights, eps):
    """Max-ordered k-center via sparsified weights; chain-bound certificate."""
    return _solve_center(inst, None, max_ordered_norm(weights), eps)


def _ordered_chains(sparse, pos, values, radius, bound):
    """Twice the telescoped rounding bound, maximized over weight vectors, of
    each sequence whose thresholds are a row of values."""
    values = np.asarray(values, float).reshape(-1, len(pos.indices))
    worst = np.zeros(len(values))
    for w, delta in zip(sparse, telescoped_deltas(sparse, pos)):
        tail = np.zeros(len(values))
        for k, (d, ell) in enumerate(zip(delta, pos.indices)):
            tail += d * (ell - 1) * values[:, k]
        worst = np.maximum(worst, 3 * bound + 6 * radius * float(w[0]) + 3 * tail)
    return 2.0 * worst


def _scan_ordered_guesses(core, weights, eps):
    r0 = max(core.r0, 1)
    sparse, pos = sparsify_weights(weights, r0)
    wtop = max(float(w[0]) for w in sparse)
    radii = sorted(set(core.distances()) | {0.0})
    if wtop == 0.0:
        # zero objective: any feasible opening works; reuse the top driver at ell=1
        b = _scan_top_guesses(core, 1, 1.0, eps)
        _, radius, _, xuy = b
        return (0.0, 0.0, radius, None, sparse, pos, xuy)

    def chained(radius, values):
        return lambda bound, sidx: _ordered_chains(sparse, pos, values[sidx], radius, bound)

    best = _scan_sequences(core, (sparse, pos, wtop), r0, radii,
                           lambda radius: [0.0] if radius == 0.0 else
                           geometric_grid(radius * wtop, r0 * radius * wtop, eps),
                           chained)
    if best is None:
        raise InfeasibleError("no guess satisfies the relaxation; instance is infeasible")
    (bound, chain, ri, _), (seq, sol) = best
    return bound, chain, radii[ri], seq, sparse, pos, _lp_parts(core, sol.x)


def solve_matroid_center(minst, norm, eps):
    """Partition-matroid budget: same pipeline, opening stays independent."""
    return _solve_center(minst.base, (PARTITION, minst.parts, minst.capacities), norm, eps)


# ---------------------------------------------------------------------------
# knapsack variant

_KNAPSACK_GRID_EPS = 0.005  # bound-grid resolution, independent of the weight-guess eps
_HEAVY_SET_CAP = 10 ** 5  # heavy-set guesses one knapsack solve may enumerate


def _prefix_norm_table(norm, dists, rcap):
    """Norm of the c nearest connections for c = 0..min(rcap, len(dists))."""
    out = [0.0]
    for c in range(1, min(rcap, len(dists)) + 1):
        out.append(eval_norm(norm, dists[:c]))
    return out


def _preconnections(tables, bounds):
    """Per client (row) and bound (column), the most nearest connections
    whose prefix norm stays within the bound; a prefix table never
    decreases, so it is bisected for every bound at once."""
    shifted = np.asarray(bounds, float) + 1e-12
    return np.array([np.searchsorted(table, shifted, side="right") - 1 for table in tables],
                    dtype=int).reshape(len(tables), len(shifted))


def _heavy_sets(heavy, wt, budget_w, eps):
    """The guesses of the optimum's heavy facilities: the subsets of heavy
    with at most 1/eps members whose weight fits the budget, by size, then in
    combinations order.  The weight test only drops subsets, so their count
    is bounded, and checked against _HEAVY_SET_CAP, before any is listed."""
    sizes = range(int(min(1.0 / eps, len(heavy))) + 1)
    count = sum(math.comb(len(heavy), size) for size in sizes)
    if count > _HEAVY_SET_CAP:
        raise ResourceCapError(f"{len(heavy)} heavy facilities give {count} heavy-set guesses "
                               f"of up to {sizes[-1]} members, over the cap {_HEAVY_SET_CAP}")
    return [combo for size in sizes for combo in itertools.combinations(heavy, size)
            if sum(wt[i] for i in combo) <= budget_w + 1e-9]


def _radius_floor(core, reach, avail):
    """Index of the first radius at which every client's ball over the
    facilities avail holds l_j of them and sum_j min(r_j, ball) reaches m,
    or None when no radius does (_ball_floor over those facilities)."""
    return _ball_floor(core, reach[:, avail])


def _ball_floor(core, reach):
    """_radius_floor over the facilities of reach's columns: reach[j, i] is
    the index of the first radius whose ball of client j holds facility i,
    so a ball at radius index ri holds the facilities whose reach is at
    most ri."""
    rows = np.sort(reach, axis=1)
    if np.any(core.l > rows.shape[1]):
        return None
    kept = rows[np.arange(rows.shape[1]) < core.r[:, None]]  # each client's r_j nearest
    if core.m > len(kept):
        return None
    js = np.flatnonzero(core.l > 0)
    need = [rows[js, core.l[js] - 1]]  # the l_j-th nearest of each client
    if core.m > 0:
        need.append(np.partition(kept, core.m - 1)[core.m - 1:core.m])
    return int(np.concatenate(need).max(initial=0))


def solve_knapsack_center(kinst, norm, eps):
    """Knapsack budget with weight violation at most (1 + 2*eps): guess the
    heavy facilities of the optimum (weight >= eps*W), pre-connect clients to
    them nearest-first within the bound, and solve the light-facility residual
    whose basic vertex opens at most two fractional copies in full.

    The walk goes heavy set by heavy set (s0), radius by radius upward until
    R times the lowest norm scale passes the best bound, and within a radius
    along its bound grid below the best bound.  A bound is accepted once it
    reaches the residual's bound estimate (within 1e-12), so the smallest
    accepted bound wins and, on equal bounds, the earliest heavy set.  Two
    shortcuts leave the residuals asked, their order and every result as
    they were, but for residuals that return None:

      * Pattern runs.  Over one (s0, R) a client's pre-connection count, the
        most nearest facilities of s0 within R whose prefix norm stays within
        the bound (at most r_j), never decreases along the grid.  The grid
        splits into runs of one pattern each; the residual is solved once per
        run, in order, and the run's first bound reaching its estimate is
        accepted, else the next run is asked.
      * The radius floor.  s0 starts at the first radius where every client's
        ball B_j over s0 and the light facilities holds l_j of them and
        sum_j min(r_j, |B_j|) >= m (_radius_floor).  Below it no residual is
        feasible, whatever the pattern pre: pre_j <= |s0 & B_j|, so either
        some |light & B_j| < l_j - pre_j <= l_res_j, or
        sum_j min(r_j - pre_j, |light & B_j|) + sum_j pre_j
        <= sum_j min(r_j, |B_j|) < m, which leaves the residual's balls
        short of m_res = m - sum_j pre_j.  x <= y <= 1 caps u_j at
        |light & B_j|, so the relaxation is infeasible: _cover_verdict says
        False, and the Top residual returns None unsolved (the ordered one
        would solve only infeasible LPs).  Ball sizes only grow with R, so
        the floor is one sort per heavy set, not a search.
    """
    if not 0 < eps < math.inf:
        raise InvalidInputError("eps must be positive and finite")
    base = kinst.base
    wt, budget_w = np.asarray(kinst.wt, float), float(kinst.budget)
    core = core_of(base, (KNAPSACK, wt, budget_w))
    nf, nc = base.n_facilities, base.n_clients
    heavy = [i for i in range(nf) if wt[i] >= eps * budget_w and wt[i] > 0]
    light = [i for i in range(nf) if i not in set(heavy)]
    s0_guesses = _heavy_sets(heavy, wt, budget_w, eps)

    sparsified = None  # (sparse weights, kept coordinates, w1) of an ordered norm
    if norm.kind == TOP:
        root = 1.0 / norm.q
        scale_lo, scale_hi = 1.0, max(core.r0, 1) ** root
    else:
        sparse, pos = sparsify_weights(norm.weights, max(core.r0, 1))
        wtop = max(float(w[0]) for w in sparse)
        sparsified = (sparse, pos, wtop)
        if wtop == 0.0:
            scale_lo = scale_hi = 1.0
        else:
            scale_lo, scale_hi = wtop, max(core.r0, 1) * wtop

    radii = sorted(set(core.distances()) | {0.0})
    reach = np.searchsorted(radii, core.cf, side="left")  # radii holds every distance
    thresholds = single_threshold_candidates(core.cf[:, light].ravel())
    grids = {}  # radius -> its bound grid; no heavy set changes it
    best = None  # (bound, s0, radius, pre, payload)
    for s0 in s0_guesses:
        start = _radius_floor(core, reach, light + list(s0))
        if start is None:
            continue
        w_res = budget_w - float(sum(wt[i] for i in s0))
        near = [sorted(float(core.cf[j, i]) for i in s0) for j in range(nc)]
        tables = None  # built at the first pattern: most walks stop before one
        for radius in radii[start:]:
            if best is not None and radius * scale_lo > best[0]:
                break
            if radius not in grids:
                grids[radius] = [0.0] if radius == 0.0 else geometric_grid(
                    radius * scale_lo, scale_hi * radius, _KNAPSACK_GRID_EPS)
            grid = grids[radius]
            stop = len(grid) if best is None else bisect_left(grid, best[0])
            if stop == 0:
                continue
            if tables is None:
                tables = [_prefix_norm_table(norm, nd, int(core.r[j]))
                          for j, nd in enumerate(near)]
            pattern = _preconnections([table[:1 + bisect_right(nd, radius)]
                                       for table, nd in zip(tables, near)], grid[:stop])
            runs = np.flatnonzero((pattern[:, 1:] != pattern[:, :-1]).any(axis=0)) + 1
            for a, b in zip([0, *runs], [*runs, stop]):
                pre = tuple(pattern[:, a].tolist())
                found = _residual_guess(core, light, w_res, pre, radius, norm, thresholds,
                                        sparsified)
                if found is None:
                    continue
                at = bisect_left(grid, found[0] - 1e-12, a, b)
                if at < b:
                    best = (grid[at], s0, radius, pre, found[1])
                    break
    if best is None:
        raise InfeasibleError("knapsack instance admits no guessed opening")
    bound, s0, radius, pre, payload = best
    return _finish_knapsack(kinst, norm, eps, core, s0, radius, bound, pre, payload)


def _residual_core(core, light, pre, w_res):
    """The light facilities' core once pre connects pre_j <= r_j facilities
    of each client: l, r and m less what pre connects, under the knapsack
    budget of core's weights and the limit w_res the heavy set leaves."""
    return CenterCore(cf=core.cf[:, light], l=np.maximum(core.l - np.array(pre), 0),
                      r=core.r - np.array(pre), m=max(0, core.m - int(sum(pre))),
                      facility_ids=tuple(core.facility_ids[i] for i in light),
                      budget=(KNAPSACK, core.budget[1], w_res))


def _residual_guess(core, light, w_res, pre, radius, norm, thresholds, sparsified):
    """Cheapest attainable bound for the light-facility residual instance
    (_residual_core) under one pre-connection pattern; returns (bound
    estimate, payload).  thresholds are the light facilities'
    single-threshold candidates, which the Top residual scans; sparsified is
    the ordered norm's (sparse weights, kept coordinates, w1), None for a Top
    norm.  Neither changes within one knapsack solve."""
    rcore = _residual_core(core, light, pre, w_res)
    if norm.kind == TOP:
        ell, q = norm.ell, norm.q
        # no grid: the bound estimate itself, so the row stops once s^(1/q) <= the floor
        found = _scan_top(rcore, ell, q, [radius], thresholds, None)
        if found is None:
            return None
        (bhat, _, _, _), (t, sol) = found
        return bhat, (rcore, ("top", ell, q, t), _lp_parts(rcore, sol.x))
    # no grid and no chain: the key is (estimate, sequence index), so the
    # sequences go in order and the walk stops once one reaches R w1
    r0 = max(core.r0, 1)
    found = _scan_sequences(rcore, sparsified, r0, [radius], None,
                            lambda radius, values: lambda bound, sidx: [0.0] * len(sidx))
    if found is None:
        return None
    (bhat, _, _, _), (seq, sol) = found
    return bhat, (rcore, _sequence_spec(sparsified[0], sparsified[1], r0, seq),
                  _lp_parts(rcore, sol.x))


def _finish_knapsack(kinst, norm, eps, core, s0, radius, bound, pre, payload):
    rcore, spec, xuy = payload
    base, wt = kinst.base, core.budget[1]
    bs, z, fractional = _round_accepted(rcore, xuy, radius)
    open_locals, assigned_res = assemble_solution(z, bs, fractional_open=True)
    open_global = [rcore.facility_ids[i] for i in open_locals]
    weight_total = float(sum(wt[i] for i in s0)) + float(sum(wt[i] for i in open_global))
    if weight_total > (1 + 2 * eps) * kinst.budget + 1e-9:
        raise SolverInternalError("knapsack violation beyond the guaranteed factor")

    assigned = []
    for j in range(base.n_clients):
        nearest_heavy = sorted((float(core.cf[j, i]), i) for i in s0
                               if core.cf[j, i] <= radius)[: pre[j]]
        mine = [i for _, i in nearest_heavy]
        mine += [rcore.facility_ids[i] for i in assigned_res[j]]
        assigned.append(tuple(mine))
    solution = ClusterSolution(open_facilities=tuple(sorted(list(s0) + open_global)),
                               assigned=tuple(assigned))
    validate_cluster_solution(base, solution, check_cardinality=False)
    value = eval_cluster_objective(base, norm, solution)
    if spec[0] == "top":  # at radius 0 an ordered norm's spec too, with bound 0
        res_cert = _top_cert(radius, bound, *spec[1:])
    else:
        res_cert = _ordered_chains(spec[1], spec[2], spec[3].values, radius, bound)[0]
    cert_val = bound + res_cert
    if value > cert_val * (1 + 1e-9) + 1e-12:
        raise SolverInternalError("rounded value exceeds its certificate")
    total_cover = _coverage(assigned)
    if total_cover < base.m:
        raise SolverInternalError("knapsack rounding lost coverage")
    cert = {"radius": radius, "bound": bound, "per_client_bound": cert_val,
            "weight": weight_total, "weight_cap": (1 + 2 * eps) * kinst.budget,
            "fractional_copies": len(fractional)}
    return CenterSolveResult(solution=solution, value=value, certificate=cert)
