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
each accepts exactly what scanning everything in order accepts:

  * Inside one oracle call the pairs come grouped by radius, thresholds
    ascending.  The first feasible pair in scan order is found by bisecting
    the groups at their last (weakest) pair, then that group's thresholds;
    every pair before it is infeasible.  The scan goes on in order from
    there, rounding feasible LPs as before.  An infeasible pair after the
    start in its own group contradicts monotonicity and sends the call back
    to scanning every pair.
  * Across bounds, round-and-cut always asks first about the same dual
    point P0, which depends only on e.  P0 is a member at B exactly when
    the weakest pair, (R, T) = (B, B / ell^(1/q)), has an infeasible LP;
    a larger B allows a weaker pair at a larger cap, so the bounds where
    P0 is a member form a prefix of the grid, and round-and-cut refutes
    each of them at P0 at once.  solve_fair bisects past that prefix with
    one or two LPs per probe and walks the grid from the first bound after
    it.  A walked bound refuted at P0 contradicts the prefix; the bounds
    skipped are then walked as well.
"""

import copy
import functools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .cluster import (build_bundles, center_u_index, core_of, split_and_normalize,
                      _center_lp, _lp_parts, CARDINALITY)
from .bundlelp import solve_two_laminar_integral
from .errors import InfeasibleError, InvalidInputError, SolverInternalError
from .guess import GuessLPs, first_true
from .instances import FairLoadInstance, eval_load_objective
from .lp import (EQ, GE, LE, OPTIMAL, cutting_plane, exact_feasible_point, simplex_solve,
                 solve_lp)
from .load import _topl_load_min_bound_lp, shmoys_tardos_round
from .norms import TOP, eval_norm, top_norm
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
    Monotone symmetric norms make the greedy prefix optimal."""
    taken = []
    for d in sorted(dists):
        if len(taken) >= cap:
            break
        taken.append(d)
        if eval_norm(norm, taken) > bound:
            taken.pop()
            break
    return len(taken)


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


def sample(dist, seed, n=1):
    """Draw n support elements by their exact weights; reproducible by seed."""
    rng = random.Random(seed)
    cum = []
    acc = 0.0
    for w in dist.weights:
        acc += float(w)
        cum.append(acc)
    out = []
    for _ in range(n):
        r = rng.random()
        idx = next((t for t, c in enumerate(cum) if r < c), len(cum) - 1)
        out.append(dist.support[idx])
    return out


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


class _Separation:
    """The guess-pair search both separation oracles share, at a fixed bound B,
    as the module docstring describes.  A call on a dual point returns the
    first verified cut in scan order, or "member" when no pair's LP is
    feasible; it raises when pairs are feasible but every rounding misses
    (a numerical edge).

    Subclasses set kind, sense (of the base and cover rows) and cert_bound,
    and give base_lp(radius, t) -> (model, index of s),
    _weighted_row(point, eta) -> (row, sense, rhs) or None when no pair can
    meet it, and _round(point, eta, radius, solution) -> the cut, or None
    when the rounding misses.
    """

    def __init__(self, finst, bound, ell, q, values):
        self.finst = finst
        self.bound = float(bound)
        self.ell, self.q = ell, q
        self.pairs = _guess_pairs(values, self.bound, ell, q)
        self.row_ends = [k + 1 for k in range(len(self.pairs))
                         if k + 1 == len(self.pairs) or self.pairs[k + 1][0] != self.pairs[k][0]]
        # each pair's base model is built once; its fair LPs at each point add a row to a copy
        self.base_lps = GuessLPs(functools.cache(lambda k: self.base_lp(*self.pairs[k])),
                                 solve_lp)
        self._last = None  # (point vector, _at of it) of the point last asked about

    def _point(self, point_vec):
        n = len(self.finst.e)
        point = DualPoint(alpha=tuple(point_vec[:n]), mu=point_vec[n])
        slack = sum(a * e for a, e in zip(point.alpha, self.finst.e)) - point.mu
        if (slack > -1) if self.sense == LE else (slack < 1):
            raise SolverInternalError("separation called off its base constraint")
        return point

    def _lps_at(self, point, eta):
        """A map from pair index to the pair's LP solution at the point (None
        when infeasible), each LP solved at most once; or None when no pair
        can meet the weighted row."""
        weighted = self._weighted_row(point, eta)
        if weighted is None:
            return None
        row, sense, rhs = weighted

        def build(k):
            model, sidx = self.base_lps.build(k)
            model = copy.copy(model)  # the pair's base model stays as it is
            model.add_row(row, sense, rhs)
            return model, sidx

        full = GuessLPs(build, self.base_lps.solve)

        def solve(k):
            sol = self.base_lps(k)[0]
            if sol.status == OPTIMAL and row:  # else the base solve is the whole LP
                sol = full(k)[0]
            return sol if sol.status == OPTIMAL else None
        return solve

    def _at(self, point_vec):
        """(point, eta, _lps_at of them) for a point vector.  The last point's
        are kept, so asking about it again (round-and-cut's first point after
        the bound search probed it) solves no LP twice."""
        if self._last is None or self._last[0] != point_vec:
            point = self._point(point_vec)
            eta = compute_eta(point)
            self._last = (point_vec, (point, eta, self._lps_at(point, eta)))
        return self._last[1]

    def feasible_somewhere(self, point_vec):
        """Whether some pair's LP is feasible at the point, which holds iff
        the weakest pair's (the last) is: a call on this point does not
        answer "member"."""
        solve = self._at(point_vec)[2]
        return solve is not None and solve(len(self.pairs) - 1) is not None

    def __call__(self, point_vec):
        point, eta, solve = self._at(point_vec)
        if solve is None:
            return "member", None, None
        ends = self.row_ends
        row = first_true(lambda r: solve(ends[r] - 1) is not None, 0, len(ends))
        if row == len(ends):
            return "member", None, None
        start = first_true(lambda k: solve(k) is not None,
                           ends[row - 1] if row else 0, ends[row] - 1)

        def scan(begin):
            shaky = False
            for k in range(begin, len(self.pairs)):
                sol = solve(k)
                if sol is None:
                    if begin and k < ends[row]:  # not monotone after all: scan every pair
                        return scan(0)
                    continue
                cut = self._round(point, eta, self.pairs[k][0], sol)
                if cut is None:
                    shaky = True
                    continue
                return cut
            if shaky:
                raise SolverInternalError("ambiguous separation verdict (numerical edge)")
            return "member", None, None
        return scan(start)


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

    def _weighted_row(self, point, eta):
        n = self.inst.jobs
        row = {i * n + j: float(a) for i, a in enumerate(point.alpha) if a != 0
               for j in range(n)}
        return row, LE, float(point.mu - eta)

    def _round(self, point, eta, radius, sol):
        m, n = self.inst.machines, self.inst.jobs
        x = sol.x[: m * n].reshape(m, n)
        assignment, _ = shmoys_tardos_round(x, self.inst.p,
                                            edge_weights=point.alpha, exact=True)
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
        self.core = core_of(self.base)
        super().__init__(finst, bound, ell, q, self.base.finite_distances())
        self.cert_bound = 3.0 * 4.0 ** (1.0 / q) * self.bound
        self.norm = top_norm(ell, q)

    def base_lp(self, radius, t):
        return _center_lp(self.core, (CARDINALITY, self.base.k), ("top", self.ell, self.q, t),
                          radius, fixed_bound=self.bound, coverage=False)

    def _weighted_row(self, point, eta):
        row = {center_u_index(self.core, j): float(a)
               for j, a in enumerate(point.alpha) if a != 0}
        if not row and point.mu + eta > 0:
            return None  # zero alpha cannot reach a positive threshold
        return row, GE, float(point.mu + eta)

    def _round(self, point, eta, radius, sol):
        nc = self.base.n_clients
        _, u, y = _lp_parts(self.core, sol.x)
        split = split_and_normalize(u, y, self.core, radius)
        bs = build_bundles(split)
        partial_idx = bs.partial_indices()
        profits = []
        for b in partial_idx:
            profits.append(sum((point.alpha[j] for j in range(nc) if b in bs.queues[j]),
                               Fraction(0)))
        fixed = sum((point.alpha[j] for j in range(nc)
                     for b in bs.queues[j] if bs.is_full[b]), Fraction(0))
        copy_to_original = {c: bs.split.original[c] for u_ in bs.bundles for c in u_}
        z, obj = solve_two_laminar_integral(
            [bs.bundles[b] for b in bs.full_indices()],
            [bs.bundles[b] for b in partial_idx],
            profits, copy_to_original, self.base.k, fixed_term=fixed)
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


def _member_at(oracle, point):
    """Whether the oracle certifies point as a member, read off the weakest
    guess pair's LP alone."""
    return not oracle.feasible_somewhere(point)


def solve_fair(finst, norm, eps, limit=None):
    """Smallest grid bound at which round-and-cut finds a distribution.

    The bounds where the first dual point P0 is a member form a prefix of
    the grid; they are bisected past, and round-and-cut walks the grid from
    the first bound after them.  A bound of the walk refuted at P0 itself
    contradicts that prefix, and the bounds skipped are then walked too.
    Round-and-cut starts from P0 and, at a bound the bisection probed, from
    the probe's oracle, so nothing the probe solved is solved again."""
    if norm.kind != TOP:
        raise InvalidInputError("fair solving covers Top-(ell,q) norms")
    if not 0 < eps < math.inf:
        raise InvalidInputError("eps must be positive and finite")
    bounds = fair_bound_candidates(finst, norm, eps)
    p0 = _first_point(finst)
    oracles = {}

    def probe(k):
        oracles[k] = _dual(finst)[0](finst, bounds[k], norm.ell, norm.q)
        return not _member_at(oracles[k], p0)

    start = first_true(probe, 0, len(bounds))

    def walk(indices, check):
        for k in indices:
            verdict, payload = round_and_cut(finst, bounds[k], norm.ell, norm.q, limit=limit,
                                             oracle=oracles.pop(k, None), first=p0)
            if verdict == "distribution":
                return FairSolveResult(bound=bounds[k], distribution=payload)
            if check and payload == p0:  # P0 a member after all: not monotone
                check = False
                found = walk(range(start), False)
                if found is not None:
                    return found
        return None

    found = walk(range(start, len(bounds)), start > 0)
    if found is None:
        raise InfeasibleError("no bound admits a fair distribution")
    return found
