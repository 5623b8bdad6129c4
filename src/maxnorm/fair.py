"""Stochastic fair variants via round-and-cut.

A fair instance asks for a distribution over integral solutions whose
hard norm bound holds with probability 1 while expected per-machine job
counts stay below caps e_i (load), or expected per-client connection
counts stay above floors e_j (center).

For a candidate bound B the driver searches the dual polytope of the
distribution LP by constraint generation: a candidate dual point (alpha,
mu) either gets certified as a member (then no distribution exists at B)
or a separation oracle rounds an LP solution into an integral solution
whose count vector cuts the point off.  When the cut system runs empty,
LP duality guarantees the primal over the generated solutions H is
feasible; solving it exactly (rational simplex) yields the distribution.

All dual arithmetic is exact: points are rational, the slack eta =
1/(2 * lcm of denominators) converts strict cut inequalities into
non-strict ones on the count lattice, and every cut is verified
against exact counts before it is emitted.

The oracle at B scans guess pairs (R, T): R caps the pair costs allowed,
T marks the costs counted in the Top-(ell,q) rows, and the pair's LP is
its base relaxation (costs above R forbidden, at most ell counted costs
with q-th powers summing to at most B^q) plus the weighted row of the
dual point.  That LP only gets weaker as R grows (fewer pairs forbidden),
as T grows (fewer costs counted) and as B grows (a larger cap B^q), so
its feasibility is monotone in all three.  Two searches rest on this, and
each accepts exactly what scanning everything in order accepts; both are
guess.walk_from_first:

  * Inside one oracle call the rows are the pairs of one radius,
    thresholds ascending, and a contradiction is an infeasible pair in the
    first feasible pair's row.
  * Across bounds, round-and-cut always asks first about the same dual
    point P0, which depends only on e, and P0 is a member exactly at a
    prefix of the grid (the weakest pair, (R, T) = (B, B / ell^(1/q)), is
    infeasible there).  The rows are single bounds, probed at P0, and a
    contradiction is a walked bound past a nonempty prefix refuted at P0.

Both searches need only verdicts, and a pair's LP is infeasible wherever
its base LP is, so an exact LP-free verdict on the base LP stands in for
the base solve where it can tell (GuessLPs' verdict slot, as in the
makespan and k-center scans):

  * load: the count test (load._count_feasible: Hall counts that refute,
    then an augmenting-path placement that decides both ways).  It drops
    the mass rows, which the fixed bound lets decide, so its False is
    exact.  Its True comes with an integral point taking at most ell
    counted jobs per machine, which meets the mass rows when no size lies
    in (T, R] or when ell times the largest mass coefficient of such a size
    is at most B^q.
  * center: the packing and greedy-opening test (cluster._cover_verdict)
    decides the relaxation without the Top rows.  Its opening connects
    client j to l_j facilities within R, which meets the Top rows when no
    allowed distance lies above T or when max l_j <= ell and max l_j times
    the largest mass coefficient of such a distance is at most B^q.

The mass comparisons are exact, in Fractions of the floats the model holds
(_Separation._rows_hold).

An infeasible verdict refutes the pair with no LP, and a feasible one goes
straight to the LP with the weighted row.  The pair scan starts where the
refutations stop (guess.walk_from_first with the refutations as its
verdict): it gallops over the radius rows, with no LP, to the first one
whose weakest and strongest pairs are not both refuted, and solves the LP
of that row's first pair none refutes.  That pair is mostly the first
feasible one, whose LP the first visit reads anyway; only when it is
infeasible does the search ask the row's weakest pair and bisect on.  It
gallops rather than bisects over the verdicts so that a refutation
contradicting monotonicity past the start is met by a visit, not skipped.
A probe whose weighted row the column bounds imply (checked in exact
arithmetic) is the base LP's verdict, so it solves no LP where the
verdict tells.  Every solution read is its own model's LP solution, so
the same vertices are rounded.

The bound search reads one pair per probe, the weakest, the first pair
that counts what (R, T) = (B, B / ell^(1/q)) counts, found by two
bisections of the data values (_Separation._weakest).  An oracle lists
its pairs only when it is called, and its base LPs and verdicts are kept
by pair, so the scan solves no pair the probe solved.
"""

import copy
import functools
import itertools
import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .cluster import (center_u_index, core_of, _center_lp, _cover_verdict, _lp_parts,
                      _prefix_norm_table, _round_accepted, CARDINALITY)
# unused: perfbench traces fair.build_bundles, fair.split_and_normalize and fair.eval_norm
from .cluster import build_bundles, split_and_normalize  # noqa: F401
from .errors import InfeasibleError, InvalidInputError, ResourceCapError, SolverInternalError
from .guess import CONTRADICTION, GuessLPs, walk_from_first
from .instances import FairLoadInstance, eval_load_objective
from .lp import (EQ, GE, LE, OPTIMAL, cutting_plane, exact_feasible_point, simplex_solve,
                 solve_lp)
from .load import _count_feasible, _topl_load_min_bound_lp, shmoys_tardos_round
from .norms import TOP, eval_norm, top_norm  # noqa: F401 (eval_norm as above)
from .sparsify import geometric_grid


@dataclass(frozen=True)
class DualPoint:
    alpha: tuple  # Fractions, >= 0
    mu: Fraction


def compute_eta(point):
    """Positive slack that makes strict and non-strict cut inequalities agree
    on the integer-count lattice: 1 / (2 * lcm of all denominators)."""
    den = point.mu.denominator
    for a in point.alpha:
        if a < 0:
            raise InvalidInputError("dual point must have alpha >= 0")
        den = den * a.denominator // math.gcd(den, a.denominator)
    return Fraction(1, 2 * den)


def ct_count(norm, bound, dists, cap):
    """Greedy nearest-first connection count: how many of the given distances
    can be taken, nearest first, with norm at most bound, capped at cap.
    Monotone symmetric norms make the greedy prefix optimal, and its prefix
    norms never decrease, so the table is bisected (from 1, so that a
    negative bound takes none)."""
    return bisect_right(_prefix_norm_table(norm, sorted(dists), cap), bound, 1) - 1


@dataclass(frozen=True)
class SolutionDistribution:
    kind: str  # "load" or "center"
    support: tuple  # assignments (job->machine tuples) or open-facility tuples
    weights: tuple  # Fractions summing to 1
    bound: float  # accepted guess B
    cert_bound: float  # hard norm cap certified on every support element

    def __post_init__(self):
        if sum(self.weights, Fraction(0)) != 1:
            raise SolverInternalError("distribution weights must sum to 1")
        if any(w < 0 for w in self.weights):
            raise SolverInternalError("negative distribution weight")


_SAMPLE_MAX_N = 10 ** 7  # draws per call, a few seconds of counting


def _draw_indices(dist, seed, n):
    """The support indices of n >= 1 draws by the exact weights, as an
    iterator; reproducible by seed.  A draw r in [0, 1) falls at the first
    index whose cumulative float weight exceeds it, and at the last one if
    rounding leaves the total at or below r."""
    if n < 1:
        raise InvalidInputError("the number of draws must be >= 1")
    if n > _SAMPLE_MAX_N:
        raise ResourceCapError(f"{n} draws are over the cap of {_SAMPLE_MAX_N}")
    rng = random.Random(seed)
    cum = list(itertools.accumulate(float(w) for w in dist.weights))
    cum[-1] = math.inf
    draws = itertools.islice(iter(rng.random, -1.0), n)  # random() is never -1.0
    return map(bisect_right, itertools.repeat(cum), draws)


def sample(dist, seed, n=1):
    """Draw n >= 1 support elements by their exact weights; reproducible by
    seed."""
    return [dist.support[i] for i in _draw_indices(dist, seed, n)]


def sample_counts(dist, seed, n):
    """How often each support element is drawn by sample(dist, seed, n),
    counted without keeping the draws."""
    counts = Counter(_draw_indices(dist, seed, n))
    return [counts[i] for i in range(len(dist.support))]


def load_marginals(dist, machines):
    """Exact expected job counts per machine."""
    out = [Fraction(0)] * machines
    for sigma, w in zip(dist.support, dist.weights):
        for i in sigma:
            out[i] += w
    return out


def center_marginals(dist, finst, norm):
    """Exact expected greedy connection counts per client at the certified bound."""
    base = finst.base
    out = [Fraction(0)] * base.n_clients
    for s, w in zip(dist.support, dist.weights):
        for j in range(base.n_clients):
            c = ct_count(norm, dist.cert_bound, [float(base.cf[j, i]) for i in s],
                         int(base.r[j]))
            out[j] += w * c
    return out


# ---------------------------------------------------------------------------
# separation oracles


def _guess_pairs(values, bound, ell, q):
    """Deduplicated (radius, threshold) guesses covering the whole union of
    relaxations allowed at bound B: data values (sorted ascending) plus the
    caps B and B / ell^(1/q) themselves (feasibility is piecewise-constant
    in between).  A pair is kept unless an earlier one counts the same
    values within its radius and above its threshold; the pairs come
    grouped by radius, thresholds ascending."""
    root = 1.0 / q
    tcap = bound / ell ** root
    radii = sorted({v for v in values if v <= bound} | {float(bound)})
    thresholds = sorted({0.0} | {v for v in values if v <= tcap} | {float(tcap)})
    above = [len(values) - bisect_right(values, t) for t in thresholds]
    pairs, seen = [], set()
    for radius in radii:
        inside = bisect_right(values, radius)
        for t, count in zip(thresholds, above):
            key = (inside, count)
            if key in seen:
                continue
            seen.add(key)
            pairs.append((radius, t))
    return pairs


_HIGHS_HUGE = 1e15  # HiGHS reads a coefficient this large as infinite and rejects the model


def _float_row(row, sense, rhs):
    """A weighted row of exact coefficients as floats for the LP.  From a
    largest coefficient of _HIGHS_HUGE on, the row and its right-hand side
    are divided by it first, in exact arithmetic: the row keeps its
    feasible set, and HiGHS reads no coefficient as infinite."""
    top = max(row.values(), default=0)
    if top < _HIGHS_HUGE:
        return {k: float(a) for k, a in row.items()}, sense, float(rhs)
    return {k: float(a / top) for k, a in row.items()}, sense, float(rhs / top)


class _Separation:
    """The guess-pair search both separation oracles share, at a fixed bound B,
    as the module docstring describes.  A call on a dual point returns the
    first verified cut in scan order, or "member" when no pair's LP is
    feasible; it raises when pairs are feasible but every rounding misses
    (a numerical edge).

    Subclasses set kind, sense (of the base and cover rows) and cert_bound,
    and give base_lp(radius, t) -> (model, index of s), base_verdict(radius,
    t) -> whether the base LP is feasible, or None to leave it to the LP,
    _weighted_row(point, eta) -> (row, sense, rhs) or None when no pair can
    meet it, _row_implied(point, eta) -> whether the column bounds alone
    imply the weighted row, in exact arithmetic, and _round(point, eta,
    radius, solution) -> the cut, or None when the rounding misses.
    """

    def __init__(self, finst, bound, ell, q, values):
        self.finst = finst
        self.bound = float(bound)
        self.ell, self.q = ell, q
        self.values = values
        # each pair's base model is built once; its fair LPs at each point add a row to a copy
        self.base_lps = GuessLPs(functools.cache(self.base_lp), solve_lp, self.base_verdict)
        # asking about the last point again (round-and-cut's first point after
        # the bound search probed it) solves no LP twice
        self._at = functools.lru_cache(maxsize=1)(self._at)

    @functools.cached_property
    def pairs(self):
        """The guess pairs in scan order (_guess_pairs), listed at the first
        scan: a bound probe reads only the weakest pair (_weakest)."""
        return _guess_pairs(self.values, self.bound, self.ell, self.q)

    @functools.cached_property
    def row_ends(self):
        """Per radius, the index just past its last pair."""
        pairs = self.pairs
        return [k + 1 for k in range(len(pairs))
                if k + 1 == len(pairs) or pairs[k + 1][0] != pairs[k][0]]

    def _weakest(self):
        """The weakest pair, pairs[-1], read without listing the pairs.  Its
        radius is the largest data value within B (B when there is none),
        its threshold the largest within B / ell^(1/q) (0 when there is
        none): each is the first of its grid to count what B and
        B / ell^(1/q) count, and _guess_pairs keeps the first pair with
        given counts."""
        values = self.values
        inside = bisect_right(values, self.bound)
        below = bisect_right(values, self.bound / self.ell ** (1.0 / self.q))
        return (values[inside - 1] if inside else self.bound,
                values[below - 1] if below else 0.0)

    def _rows_hold(self, radius, t, count):
        """Whether the pair's Top rows hold at every point that takes at most
        count costs per owner, each within the radius: no data value lies in
        (t, radius], so the rows count nothing; or count <= ell and count
        times the largest mass coefficient the rows give such a value is at
        most the bound's B^q.  The comparison is exact, in Fractions of the
        floats the model holds."""
        lo, hi = bisect_right(self.values, t), bisect_right(self.values, radius)
        if lo >= hi:
            return True
        try:
            mass = max(v ** self.q for v in self.values[lo:hi])  # NormCosts.mass of each value
            cap = self.bound ** self.q
        except OverflowError:
            raise InvalidInputError(f"a cost to the power {self.q!r} overflows a float") from None
        return count <= self.ell and Fraction(count) * Fraction(mass) <= Fraction(cap)

    def _point(self, point_vec):
        n = len(self.finst.e)
        point = DualPoint(alpha=tuple(point_vec[:n]), mu=point_vec[n])
        slack = sum(a * e for a, e in zip(point.alpha, self.finst.e)) - point.mu
        if (slack > -1) if self.sense == LE else (slack < 1):
            raise SolverInternalError("separation called off its base constraint")
        return point

    def _lps_at(self, point, eta):
        """A map from a pair to its LP solution at the point (None when
        infeasible), each LP solved at most once; or None when no pair can
        meet the weighted row.  A pair whose base LP is infeasible is
        infeasible at every point; the base verdict says so without an LP
        where it can.  Asked with trust=False, the map lets LPs alone decide."""
        weighted = self._weighted_row(point, eta)
        if weighted is None:
            return None
        row, sense, rhs = weighted

        def build(*pair):
            model, sidx = self.base_lps.build(*pair)
            model = copy.copy(model)  # the pair's base model stays as it is
            model.add_row(row, sense, rhs)
            return model, sidx

        full = GuessLPs(build, self.base_lps.solve)

        def solve(pair, trust=True):
            base = self.base_lps
            if not (base.feasible(*pair) if trust else base(*pair)[0].status == OPTIMAL):
                return None
            sol = (full if row else base)(*pair)[0]  # without a row the base LP is the whole LP
            return sol if sol.status == OPTIMAL else None
        return solve

    def _at(self, point_vec):
        """(point, eta, _lps_at of them) for a point vector."""
        point = self._point(point_vec)
        eta = compute_eta(point)
        return point, eta, self._lps_at(point, eta)

    def feasible_somewhere(self, point_vec):
        """Whether some pair's LP is feasible at the point, which holds iff
        the weakest pair's (the last) is: a call on this point does not
        answer "member".  Where the column bounds imply the weighted row,
        that is the base LP's verdict."""
        point, eta, solve = self._at(point_vec)
        if solve is None:
            return False
        weakest = self._weakest()
        if self._row_implied(point, eta):
            return self.base_lps.feasible(*weakest)
        return solve(weakest) is not None

    def __call__(self, point_vec):
        point, eta, solve = self._at(point_vec)
        if solve is None:
            return "member", None, None
        pairs = self.pairs
        shaky = False  # whether a rounding of this pass missed

        def visit(k, first):
            nonlocal shaky
            radius = pairs[k][0]
            sol = solve(pairs[k], trust=first is not None)
            if sol is None:
                if first is not None and radius == pairs[first][0]:
                    shaky = False  # not monotone after all: the next pass rounds every pair
                    return CONTRADICTION
                return None
            cut = self._round(point, eta, radius, sol)
            shaky = shaky or cut is None
            return cut

        cut = walk_from_first(self.row_ends, lambda k: solve(pairs[k]) is not None, visit,
                              lambda k: False if self.base_lps.known(*pairs[k]) is False else None)
        if cut is None and shaky:
            raise SolverInternalError("ambiguous separation verdict (numerical edge)")
        return ("member", None, None) if cut is None else cut


class _LoadSeparation(_Separation):
    """Separation oracle for the load polytope at a fixed bound B.

    Given (alpha, mu) with sum alpha_i e_i <= mu - 1, a feasible relaxation
    intersected with the weighted-assignment row
    sum_i alpha_i sum_j x_ij <= mu - eta  rounds (weighted matching) to an
    assignment whose max Top-(ell,q) cost is at most 4^(1/q) B and whose
    exact weighted count is below mu, i.e. a violated constraint.
    """

    kind, sense = "load", LE

    def __init__(self, finst, bound, ell, q):
        self.inst = finst.base
        super().__init__(finst, bound, ell, q, self.inst.finite_sizes())
        self.cert_bound = 4.0 ** (1.0 / q) * self.bound

    def base_lp(self, radius, t):
        return _topl_load_min_bound_lp(self.inst, self.ell, self.q, radius, t,
                                       fixed_bound=self.bound)

    def base_verdict(self, radius, t):
        """The count test (load._count_feasible: Hall counts, then the
        augmenting-path placement).  It drops the mass rows, which the fixed
        bound lets decide, so the LP is weaker and an infeasible test is
        exact.  A feasible test's placement is an integral point with at
        most ell counted jobs on each machine, which meets the mass rows too
        where _rows_hold says so."""
        feasible = _count_feasible(self.inst, radius, [t], [self.ell])
        return feasible if feasible is False or self._rows_hold(radius, t, self.ell) else None

    def _weighted_row(self, point, eta):
        n = self.inst.jobs
        row = {i * n + j: a for i, a in enumerate(point.alpha) if a != 0 for j in range(n)}
        return _float_row(row, LE, point.mu - eta)

    def _row_implied(self, point, eta):
        # every job is assigned once, so the row's activity is at most n max alpha
        return self.inst.jobs * max(point.alpha, default=0) <= point.mu - eta

    def _round(self, point, eta, radius, sol):
        m, n = self.inst.machines, self.inst.jobs
        x = sol.x[: m * n].reshape(m, n)
        assignment, _ = shmoys_tardos_round(x, self.inst.p, edge_weights=point.alpha)
        counts = assignment.counts(m)
        weight = sum(a * c for a, c in zip(point.alpha, counts))
        if weight > point.mu - eta:
            return None
        value = eval_load_objective(self.inst, top_norm(self.ell, self.q), assignment)
        if value > self.cert_bound:
            return None
        row = ({i: Fraction(c) for i, c in enumerate(counts) if c} | {m: Fraction(-1)},
               GE, Fraction(0))
        return "cut", assignment.sigma, (row, (assignment.sigma, counts))


@functools.lru_cache(maxsize=1)
def _center_core(base):
    """(core, budget, cover) of a fair center instance's base, shared by
    every oracle of a solve: the core keeps its relaxations' fixed parts, the
    budget rows are kept for the one budget object, and cover(radius) is
    _cover_verdict without the coverage row, which depends on nothing else,
    decided once per radius."""
    core, budget = core_of(base), (CARDINALITY, base.k)
    return core, budget, functools.cache(
        lambda radius: _cover_verdict(core, budget, radius, coverage=False))


class _CenterSeparation(_Separation):
    """Separation oracle for the center polytope at a fixed bound B.

    A feasible relaxation intersected with  sum_j alpha_j u_j >= mu + eta
    goes through the bundle pipeline with partial-bundle profits
    beta_U = sum of alpha_j over the queues reusing U; the integral opening
    then satisfies  sum_j alpha_j ct(j, S) >= mu + eta  at the inflated
    radius 3 * 4^(1/q) B, a violated constraint.
    """

    kind, sense = "center", GE

    def __init__(self, finst, bound, ell, q):
        self.base = finst.base
        self.core, self.budget, self._cover = _center_core(self.base)
        super().__init__(finst, bound, ell, q, self.base.finite_distances())
        self.cert_bound = 3.0 * 4.0 ** (1.0 / q) * self.bound
        self.norm = top_norm(ell, q)
        self.max_l = int(max(self.base.l, default=0))

    def base_lp(self, radius, t):
        return _center_lp(self.core, self.budget, ("top", self.ell, self.q, t), radius,
                          fixed_bound=self.bound, coverage=False)

    def base_verdict(self, radius, t):
        """_cover_verdict decides the relaxation without the Top rows.  Its
        integral opening connects each client j to l_j open facilities
        within the radius, a point that meets the Top rows too where
        _rows_hold says so for the largest l_j."""
        if not self._rows_hold(radius, t, self.max_l):
            return None
        return self._cover(radius)

    def _weighted_row(self, point, eta):
        row = {center_u_index(self.core, j): a for j, a in enumerate(point.alpha) if a != 0}
        if not row and point.mu + eta > 0:
            return None  # zero alpha cannot reach a positive threshold
        return _float_row(row, GE, point.mu + eta)

    def _row_implied(self, point, eta):
        # alpha >= 0 and u_j >= l_j, so the row's activity is at least sum_j alpha_j l_j
        return sum(a * int(lj) for a, lj in zip(point.alpha, self.base.l)) >= point.mu + eta

    def _round(self, point, eta, radius, sol):
        nc = self.base.n_clients
        bs, z, obj = _round_accepted(self.core, self.budget, _lp_parts(self.core, sol.x), radius,
                                     point.alpha)
        if obj < point.mu + eta:
            return None
        opened = sorted({bs.split.original[c] for c, v in z.items() if v == 1})
        s_global = tuple(self.core.facility_ids[i] for i in opened)
        cts = [ct_count(self.norm, self.cert_bound,
                        [float(self.base.cf[j, i]) for i in s_global],
                        int(self.base.r[j])) for j in range(nc)]
        weight = sum(a * c for a, c in zip(point.alpha, cts))
        if weight < point.mu + eta:
            return None
        if any(cts[j] < int(self.base.l[j]) for j in range(nc)) or \
                len(s_global) > self.base.k:
            return None
        row = ({j: Fraction(c) for j, c in enumerate(cts) if c} | {nc: Fraction(-1)},
               LE, Fraction(0))
        return "cut", s_global, (row, (s_global, cts))


# ---------------------------------------------------------------------------
# drivers


@dataclass
class FairSolveResult:
    bound: float
    distribution: SolutionDistribution


def _default_limit(finst):
    if isinstance(finst, FairLoadInstance):
        return 10 * finst.base.machines ** finst.base.jobs
    return 10 * 2 ** finst.base.n_facilities


def _dual(finst):
    """(separation oracle class, base row) of the dual polytope over
    (alpha, mu): sum_i e_i alpha_i <= mu - 1 (load) or >= mu + 1 (center)."""
    oracle = _LoadSeparation if isinstance(finst, FairLoadInstance) else _CenterSeparation
    n = len(finst.e)
    row = {i: e for i, e in enumerate(finst.e)} | {n: Fraction(-1)}
    return oracle, (row, oracle.sense, Fraction(-1 if oracle.sense == LE else 1))


def _first_point(finst):
    """The dual point round-and-cut asks its oracle about first, at every bound."""
    n = len(finst.e)
    return exact_feasible_point([_dual(finst)[1]], n + 1, nonneg=[True] * n + [False])


def round_and_cut(finst, bound, ell, q, limit=None, oracle=None, first=None):
    """Either certify that no distribution exists at this bound (a refuting
    dual point is found) or return one whose support is certified feasible
    at the inflated bound.  Returns (verdict, payload) with verdict
    "infeasible_at_bound" (payload the refuting point) or "distribution".
    A caller may hand over the separation oracle at this bound and the first
    dual point (_first_point) when it has them, with the LPs they solved."""
    limit = _default_limit(finst) if limit is None else limit
    oracle_cls, base_row = _dual(finst)
    oracle = oracle_cls(finst, bound, ell, q) if oracle is None else oracle
    n = len(finst.e)
    outcome = cutting_plane([base_row], n + 1, oracle,
                            nonneg=[True] * n + [False], limit=limit, first=first)
    if outcome.verdict == "refuted":
        return "infeasible_at_bound", outcome.point
    support = [s for s, _ in outcome.history]
    rows = []
    for i in range(n):
        rows.append(({h: Fraction(counts[i]) for h, (_, counts) in enumerate(outcome.history)
                      if counts[i]}, oracle.sense, finst.e[i]))
    rows.append(({h: Fraction(1) for h in range(len(support))}, EQ, Fraction(1)))
    status, lam = simplex_solve(rows, len(support))
    if status != OPTIMAL:
        raise SolverInternalError("primal over generated cuts infeasible")
    return "distribution", _make_distribution(oracle.kind, support, lam, bound,
                                              oracle.cert_bound)


def _make_distribution(kind, support, lam, bound, cert_bound):
    keep = [(s, w) for s, w in zip(support, lam) if w > 0]
    return SolutionDistribution(kind=kind,
                                support=tuple(s for s, _ in keep),
                                weights=tuple(w for _, w in keep),
                                bound=float(bound), cert_bound=float(cert_bound))


def fair_bound_candidates(finst, norm, eps):
    """0 plus a geometric grid between the smallest positive data value and a
    trivial upper bound on any solution norm; any positive optimum lands
    within a (1 + eps) factor of some candidate."""
    root = 1.0 / norm.q
    if isinstance(finst, FairLoadInstance):
        vals = finst.base.finite_sizes()
        scale = finst.base.jobs ** root
    else:
        vals = finst.base.finite_distances()
        scale = max(finst.base.r0, 1) ** root
    pos = [v for v in vals if v > 0]
    cands = [0.0]
    if pos:
        cands += geometric_grid(min(pos), scale * max(pos), eps)
    return cands


def solve_fair(finst, norm, eps, limit=None):
    """Smallest grid bound at which round-and-cut finds a distribution.

    The bounds where the first dual point P0 is a member form a prefix of
    the grid; they are bisected past, and round-and-cut walks the grid from
    the first bound after them (guess.walk_from_first).  A bound of the walk
    refuted at P0 itself contradicts a nonempty prefix, and the grid is then
    walked again from its first bound.  Round-and-cut starts from P0 and
    from the bound's oracle, the one its probe asked, so nothing the probe
    solved is solved again."""
    if norm.kind != TOP:
        raise InvalidInputError("fair solving covers Top-(ell,q) norms")
    if not 0 < eps < math.inf:
        raise InvalidInputError("eps must be positive and finite")
    bounds = fair_bound_candidates(finst, norm, eps)
    p0 = _first_point(finst)
    oracle = functools.cache(lambda k: _dual(finst)[0](finst, bounds[k], norm.ell, norm.q))

    def visit(k, first):
        verdict, payload = round_and_cut(finst, bounds[k], norm.ell, norm.q, limit=limit,
                                         oracle=oracle(k), first=p0)
        if verdict == "distribution":
            return FairSolveResult(bound=bounds[k], distribution=payload)
        # first is None in the pass trusting nothing, and 0 after an empty prefix
        return CONTRADICTION if first and payload == p0 else None

    found = walk_from_first(range(1, len(bounds) + 1),
                            lambda k: oracle(k).feasible_somewhere(p0), visit)
    if found is None:
        raise InfeasibleError("no bound admits a fair distribution")
    return found
