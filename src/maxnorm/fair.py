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
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .cluster import (build_bundles, center_u_index, core_of, split_and_normalize,
                      _center_lp, _lp_parts, CARDINALITY)
from .bundlelp import solve_two_laminar_integral
from .errors import InfeasibleError, InvalidInputError, SolverInternalError
from .instances import FairLoadInstance, eval_load_objective
from .lp import EQ, GE, LE, OPTIMAL, cutting_plane, simplex_solve, solve_lp
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
    relaxations allowed at bound B: data values plus the caps B and
    B / ell^(1/q) themselves (feasibility is piecewise-constant in between)."""
    root = 1.0 / q
    tcap = bound / ell ** root
    radii = sorted({v for v in values if v <= bound} | {float(bound)})
    thresholds = sorted({0.0} | {v for v in values if v <= tcap} | {float(tcap)})
    pairs, seen = [], set()
    for radius in radii:
        for t in thresholds:
            key = (sum(1 for v in values if v <= radius),
                   sum(1 for v in values if v > t))
            if key in seen:
                continue
            seen.add(key)
            pairs.append((radius, t))
    return pairs


class _LoadSeparation:
    """Separation oracle for the load polytope at a fixed bound B.

    Given (alpha, mu) with sum alpha_i e_i <= mu - 1, scans every (R, T)
    guess; a feasible relaxation intersected with the weighted-assignment
    row  sum_i alpha_i sum_j x_ij <= mu - eta  rounds (weighted matching)
    to an assignment whose max Top-(ell,q) cost is at most 4^(1/q) B and
    whose exact weighted count is below mu, i.e. a violated constraint.
    If every guess comes up empty the point lies in the polytope.
    """

    def __init__(self, finst, bound, ell, q):
        self.finst = finst
        self.inst = finst.base
        self.bound = float(bound)
        self.ell, self.q = ell, q
        self.cert_bound = 4.0 ** (1.0 / q) * self.bound
        self.pairs = _guess_pairs(self.inst.finite_sizes(), self.bound, ell, q)
        self.dead = set()

    def __call__(self, point_vec):
        m, n = self.inst.machines, self.inst.jobs
        point = DualPoint(alpha=tuple(point_vec[:m]), mu=point_vec[m])
        if sum(a * e for a, e in zip(point.alpha, self.finst.e)) > point.mu - 1:
            raise SolverInternalError("separation called off its base constraint")
        eta = compute_eta(point)
        shaky = False
        for pid, (radius, t) in enumerate(self.pairs):
            if pid in self.dead:
                continue
            model, _ = _topl_load_min_bound_lp(self.inst, self.ell, self.q, radius, t,
                                               fixed_bound=self.bound)
            fair_row = {i * n + j: float(a) for i, a in enumerate(point.alpha) if a != 0
                        for j in range(n)}
            if fair_row:
                model.add_row(fair_row, LE, float(point.mu - eta))
            sol = solve_lp(model)
            if sol.status != OPTIMAL:
                if not fair_row:
                    self.dead.add(pid)
                else:
                    base, _ = _topl_load_min_bound_lp(self.inst, self.ell, self.q,
                                                      radius, t, fixed_bound=self.bound)
                    if solve_lp(base).status != OPTIMAL:
                        self.dead.add(pid)
                continue
            x = sol.x[: m * n].reshape(m, n)
            assignment, _ = shmoys_tardos_round(x, self.inst.p,
                                                edge_weights=point.alpha, exact=True)
            counts = assignment.counts(m)
            weight = sum(a * c for a, c in zip(point.alpha, counts))
            if weight > point.mu - eta:
                shaky = True
                continue
            value = eval_load_objective(self.inst, top_norm(self.ell, self.q), assignment)
            if value > self.cert_bound:
                shaky = True
                continue
            row = ({i: Fraction(c) for i, c in enumerate(counts) if c} | {m: Fraction(-1)},
                   GE, Fraction(0))
            return "cut", assignment.sigma, (row, (assignment.sigma, counts))
        if shaky:
            raise SolverInternalError("ambiguous separation verdict (numerical edge)")
        return "member", None, None


class _CenterSeparation:
    """Separation oracle for the center polytope at a fixed bound B.

    A feasible relaxation intersected with  sum_j alpha_j u_j >= mu + eta
    goes through the bundle pipeline with partial-bundle profits
    beta_U = sum of alpha_j over the queues reusing U; the integral opening
    then satisfies  sum_j alpha_j ct(j, S) >= mu + eta  at the inflated
    radius 3 * 4^(1/q) B, a violated constraint.
    """

    def __init__(self, finst, bound, ell, q):
        self.finst = finst
        self.base = finst.base
        self.core = core_of(self.base)
        self.bound = float(bound)
        self.ell, self.q = ell, q
        self.cert_bound = 3.0 * 4.0 ** (1.0 / q) * self.bound
        self.norm = top_norm(ell, q)
        self.pairs = _guess_pairs(self.base.finite_distances(), self.bound, ell, q)
        self.dead = set()

    def _model(self, radius, t, point, eta):
        model, _ = _center_lp(self.core, (CARDINALITY, self.base.k),
                              ("top", self.ell, self.q, t), radius,
                              fixed_bound=self.bound, coverage=False)
        row = {center_u_index(self.core, j): float(a)
               for j, a in enumerate(point.alpha) if a != 0}
        if row:
            model.add_row(row, GE, float(point.mu + eta))
            return model, True
        return model, False

    def __call__(self, point_vec):
        nc = self.base.n_clients
        point = DualPoint(alpha=tuple(point_vec[:nc]), mu=point_vec[nc])
        if sum(a * e for a, e in zip(point.alpha, self.finst.e)) < point.mu + 1:
            raise SolverInternalError("separation called off its base constraint")
        eta = compute_eta(point)
        mu_ok = point.mu + eta <= 0  # with alpha = 0 the weighted row is 0 >= mu + eta
        shaky = False
        for pid, (radius, t) in enumerate(self.pairs):
            if pid in self.dead:
                continue
            model, has_row = self._model(radius, t, point, eta)
            if not has_row and not mu_ok:
                continue  # zero alpha cannot reach a positive threshold
            sol = solve_lp(model)
            if sol.status != OPTIMAL:
                if not has_row:
                    self.dead.add(pid)
                else:
                    base, _ = _center_lp(self.core, (CARDINALITY, self.base.k),
                                         ("top", self.ell, self.q, t), radius,
                                         fixed_bound=self.bound, coverage=False)
                    if solve_lp(base).status != OPTIMAL:
                        self.dead.add(pid)
                continue
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
                shaky = True
                continue
            opened = sorted({bs.split.original[c] for c, v in z.items() if v == 1})
            s_global = tuple(self.core.facility_ids[i] for i in opened)
            cts = [ct_count(self.norm, self.cert_bound,
                            [float(self.base.cf[j, i]) for i in s_global],
                            int(self.base.r[j])) for j in range(nc)]
            weight = sum(a * c for a, c in zip(point.alpha, cts))
            if weight < point.mu + eta:
                shaky = True
                continue
            if any(cts[j] < int(self.base.l[j]) for j in range(nc)) or \
                    len(s_global) > self.base.k:
                shaky = True
                continue
            row = ({j: Fraction(c) for j, c in enumerate(cts) if c} | {nc: Fraction(-1)},
                   LE, Fraction(0))
            return "cut", s_global, (row, (s_global, cts))
        if shaky:
            raise SolverInternalError("ambiguous separation verdict (numerical edge)")
        return "member", None, None


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


def round_and_cut(finst, bound, ell, q, limit=None):
    """Either certify that no distribution exists at this bound (a refuting
    dual point is found) or return one whose support is certified feasible
    at the inflated bound.  Returns (verdict, payload) with verdict
    "infeasible_at_bound" or "distribution"."""
    limit = _default_limit(finst) if limit is None else limit
    if isinstance(finst, FairLoadInstance):
        m = finst.base.machines
        base_row = ({i: finst.e[i] for i in range(m)} | {m: Fraction(-1)},
                    LE, Fraction(-1))
        oracle = _LoadSeparation(finst, bound, ell, q)
        outcome = cutting_plane([base_row], m + 1, oracle,
                                nonneg=[True] * m + [False], limit=limit)
        if outcome.verdict == "refuted":
            return "infeasible_at_bound", outcome.point
        support = [sig for sig, _ in outcome.history]
        rows = []
        for i in range(m):
            rows.append(({h: Fraction(counts[i]) for h, (_, counts)
                          in enumerate(outcome.history) if counts[i]},
                         LE, finst.e[i]))
        rows.append(({h: Fraction(1) for h in range(len(support))}, EQ, Fraction(1)))
        status, lam = simplex_solve(rows, len(support))
        if status != OPTIMAL:
            raise SolverInternalError("primal over generated cuts infeasible")
        dist = _make_distribution("load", support, lam, bound, oracle.cert_bound)
        return "distribution", dist

    nc = finst.base.n_clients
    base_row = ({j: finst.e[j] for j in range(nc)} | {nc: Fraction(-1)},
                GE, Fraction(1))
    oracle = _CenterSeparation(finst, bound, ell, q)
    outcome = cutting_plane([base_row], nc + 1, oracle,
                            nonneg=[True] * nc + [False], limit=limit)
    if outcome.verdict == "refuted":
        return "infeasible_at_bound", outcome.point
    support = [s for s, _ in outcome.history]
    rows = []
    for j in range(nc):
        rows.append(({h: Fraction(cts[j]) for h, (_, cts) in enumerate(outcome.history)
                      if cts[j]}, GE, finst.e[j]))
    rows.append(({h: Fraction(1) for h in range(len(support))}, EQ, Fraction(1)))
    status, lam = simplex_solve(rows, len(support))
    if status != OPTIMAL:
        raise SolverInternalError("primal over generated cuts infeasible")
    dist = _make_distribution("center", support, lam, bound, oracle.cert_bound)
    return "distribution", dist


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
    """Smallest grid bound at which round-and-cut finds a distribution."""
    if norm.kind != TOP:
        raise InvalidInputError("fair solving covers Top-(ell,q) norms")
    if not 0 < eps < math.inf:
        raise InvalidInputError("eps must be positive and finite")
    for bound in fair_bound_candidates(finst, norm, eps):
        verdict, payload = round_and_cut(finst, bound, norm.ell, norm.q, limit=limit)
        if verdict == "distribution":
            return FairSolveResult(bound=bound, distribution=payload)
    raise InfeasibleError("no bound admits a fair distribution")
