"""The fair search accepts exactly what the linear walk accepts.

`_exhaustive_scans` keeps the reference: round-and-cut at every grid bound
in turn, with separation oracles that solve every guess pair in scan
order.  The first tests run both on seeded instances with real LPs; the
later ones replace the LPs (or round-and-cut itself) by tables of
verdicts, so that verdicts contradicting monotonicity can be planted where
the search is bound to meet them.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import _exhaustive_scans as exhaustive
from maxnorm import fair, lp
from maxnorm.errors import MaxNormError, SolverInternalError
from maxnorm.generators import gen_fair_cluster, gen_fair_load
from maxnorm.lp import INFEASIBLE, OPTIMAL
from maxnorm.norms import top_norm

NORMS = [(1, 1.0), (2, 1.0)]


def _fair_instances(seed, count):
    """Seeded fair instances, load and center in turn, small enough for the
    linear walk."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        if k % 2:
            nf = int(rng.integers(2, 5))
            yield gen_fair_cluster(seed * 1000 + k, clients=int(rng.integers(1, 3)),
                                   facilities=nf, k=int(rng.integers(1, min(nf, 3) + 1)))
        else:
            yield gen_fair_load(seed * 1000 + k, machines=int(rng.integers(1, 4)),
                                jobs=int(rng.integers(1, 4)), pmax=int(rng.choice([3, 10])))


def _outcome(solve):
    try:
        res = solve()
    except MaxNormError as exc:
        return type(exc), str(exc)
    dist = res.distribution
    return res.bound, dist.kind, dist.support, dist.weights, dist.bound, dist.cert_bound


def _reference(monkeypatch, solve):
    """solve() with the linear bound walk and the full pair scan."""
    with monkeypatch.context() as patched:
        patched.setattr(fair, "solve_fair", exhaustive.solve_fair_linear)
        patched.setattr(fair._Separation, "__call__", exhaustive.fair_separation_scan)
        return _outcome(solve)


def test_guess_pairs_match_the_counting_reference():
    rng = np.random.default_rng(401)
    for _ in range(300):
        values = sorted({float(v) for v in rng.integers(0, 12, size=int(rng.integers(1, 9)))})
        bound = float(rng.choice([0.0, rng.uniform(0, 14), rng.choice(values)]))
        ell, q = int(rng.integers(1, 4)), float(rng.choice([1.0, 1.5, 2.0]))
        assert fair._guess_pairs(values, bound, ell, q) == \
            exhaustive.fair_guess_pairs(values, bound, ell, q)


def test_fair_solves_match_the_linear_walk(monkeypatch):
    """80 instances, each kind at each norm 20 times."""
    found = 0
    for k, finst in enumerate(_fair_instances(402, 80)):
        ell, q = NORMS[k // 2 % 2]

        def solve():
            return fair.solve_fair(finst, top_norm(ell, q), 0.1)

        new = _outcome(solve)
        assert new == _reference(monkeypatch, solve)
        found += isinstance(new[0], float)
    assert found >= 60


def _random_point(rng, finst):
    """A dual point on the right side of the base row."""
    alpha = tuple(Fraction(int(rng.integers(0, 4)), int(rng.integers(1, 3)))
                  for _ in finst.e)
    total = sum(a * e for a, e in zip(alpha, finst.e))
    slack = Fraction(int(rng.integers(1, 5)), 2)
    if isinstance(finst, fair.FairLoadInstance):
        return alpha + (total + slack,)
    return alpha + (total - slack,)


def test_oracle_answers_match_the_full_scan():
    """At random dual points and bounds, each oracle answers (cut, solution
    and row) exactly as the scan over every pair does."""
    rng = np.random.default_rng(403)
    cuts = members = 0
    for finst in _fair_instances(403, 40):
        values = (finst.base.finite_sizes() if isinstance(finst, fair.FairLoadInstance)
                  else finst.base.finite_distances())
        for ell, q in NORMS:
            bound = float(rng.choice(values)) * float(rng.choice([0.5, 1.0, 2.0]))
            oracle = fair._dual(finst)[0](finst, bound, ell, q)
            for _ in range(3):
                point = _random_point(rng, finst)
                try:
                    new = oracle(point)
                except SolverInternalError as exc:
                    new = str(exc)
                try:
                    ref = exhaustive.fair_separation_scan(oracle, point)
                except SolverInternalError as exc:
                    ref = str(exc)
                assert new == ref
                cuts += new[0] == "cut"
                members += new[0] == "member"
    assert cuts >= 40 and members >= 40


def test_fair_lp_count(monkeypatch):
    """One 3x4 Top-(2,1) fair load instance: the linear walk with the full
    pair scan solves 200 LPs on it."""
    finst = gen_fair_load(1, machines=3, jobs=4, pmax=10)
    calls = []
    solve_lp = fair.solve_lp
    monkeypatch.setattr(fair, "solve_lp", lambda model: calls.append(1) or solve_lp(model))

    def solve():
        return fair.solve_fair(finst, top_norm(2, 1.0), 0.1)

    new = _outcome(solve)
    searched, calls[:] = len(calls), []
    assert new == _reference(monkeypatch, solve)
    assert len(calls) == 200 and 0 < searched <= 15


def _model_key(model):
    r, c, v = model.coo()
    return (model.lower.tobytes(), model.upper.tobytes(), model.objective.tobytes(),
            r.tobytes(), c.tobytes(), v.tobytes(), model.rhs.tobytes(), tuple(model._sense))


def test_walk_solves_no_model_the_bound_search_solved(monkeypatch):
    """Round-and-cut starts from the bound search's first dual point and, at
    the bound the search stopped at, from its oracle: no LP solved inside
    round-and-cut repeats one solved earlier in the same solve, and the
    cutting planes never solve for the first point again."""
    solved, walking = set(), [False]
    solve_lp, round_and_cut = fair.solve_lp, fair.round_and_cut
    exact_feasible_point = lp.exact_feasible_point

    def counted_solve(model):
        key = _model_key(model)
        assert not (walking[0] and key in solved)
        solved.add(key)
        return solve_lp(model)

    def walked(*args, **kwargs):
        walking[0] = True
        return round_and_cut(*args, **kwargs)

    def cut_point(rows, *args, **kwargs):
        assert len(rows) > 1  # the base row and at least one cut
        return exact_feasible_point(rows, *args, **kwargs)

    monkeypatch.setattr(fair, "solve_lp", counted_solve)
    monkeypatch.setattr(fair, "round_and_cut", walked)
    monkeypatch.setattr(lp, "exact_feasible_point", cut_point)
    walks = found = 0
    for k, finst in enumerate(_fair_instances(404, 20)):
        solved.clear()
        walking[0] = False
        outcome = _outcome(lambda: fair.solve_fair(finst, top_norm(*NORMS[k // 2 % 2]), 0.1))
        walks += walking[0]
        found += isinstance(outcome[0], float)
    assert walks == 20 and found >= 15


@pytest.mark.parametrize("cls", [fair._LoadSeparation, fair._CenterSeparation])
def test_shaky_rounding_raises_as_in_the_linear_walk(monkeypatch, cls):
    """Every rounding misses: the walk meets it at the first bound whose
    weakest pair is feasible, which the bisection probes without rounding,
    and both raise the same ambiguous-verdict error."""
    monkeypatch.setattr(cls, "_round", lambda self, point, eta, radius, sol: None)
    raised = 0
    for finst in _fair_instances(404, 12):
        if fair._dual(finst)[0] is not cls:
            continue
        for ell, q in NORMS:
            def solve():
                return fair.solve_fair(finst, top_norm(ell, q), 0.1)

            new = _outcome(solve)
            assert new == _reference(monkeypatch, solve)
            raised += new == (SolverInternalError,
                              "ambiguous separation verdict (numerical edge)")
    assert raised >= 6


# ---------------------------------------------------------------------------
# verdicts from a table


class _TabledModel:
    """Stands in for a pair's LP: the pair, and whether the weighted row is on."""

    def __init__(self, pair):
        self.pair, self.weighted = pair, False

    def add_row(self, row, sense, rhs):
        self.weighted = True


def _tabled_oracle(monkeypatch, finst, feasible, cuts, log):
    """A load oracle at bound 10 whose LPs and rounding are lookups:
    feasible(pair, weighted) is the LP verdict, and a feasible pair rounds
    to a cut iff it is in cuts (else the rounding misses).  log records the
    LPs solved, in order."""
    def solve_lp(model):
        log.append((model.pair, model.weighted))
        status = OPTIMAL if feasible(model.pair, model.weighted) else INFEASIBLE
        return SimpleNamespace(status=status, pair=model.pair)

    cls = fair._LoadSeparation
    monkeypatch.setattr(cls, "base_lp", lambda self, radius, t: (_TabledModel((radius, t)), 0))
    monkeypatch.setattr(cls, "_round", lambda self, point, eta, radius, sol:
                        ("cut", sol.pair, None) if sol.pair in cuts else None)
    monkeypatch.setattr(fair, "solve_lp", solve_lp)
    return cls(finst, 10.0, 1, 1.0)


def _pair_table(rng, pairs):
    """LP verdicts monotone in R and in T: feasible from a first radius on,
    at thresholds no lower than a staircase that falls as R grows; the base
    LP alone from an earlier radius and a lower staircase."""
    radii = sorted({r for r, _ in pairs})
    ts = sorted({t for _, t in pairs})
    first = int(rng.integers(0, len(radii) + 1))
    first_base = int(rng.integers(0, first + 1))
    stair = sorted(rng.choice(ts, size=len(radii)), reverse=True)
    drop = rng.uniform(0.0, 1.0)

    def feasible(pair, weighted):
        ri = radii.index(pair[0])
        if weighted:
            return ri >= first and pair[1] >= stair[ri]
        return ri >= first_base and pair[1] >= drop * stair[ri]
    return feasible


def _planted(feasible, hole, lure=None):
    """The verdicts with every LP of the hole infeasible and the lure feasible."""
    def planted(pair, weighted):
        if pair == hole:
            return False
        return True if pair == lure else feasible(pair, weighted)
    return planted


def _answer(call):
    try:
        return call()
    except SolverInternalError as exc:
        return str(exc)


def _pair_scan_both(monkeypatch, finst, point, feasible, cuts):
    """The oracle's answer at point, the full scan's answer and the LPs the
    oracle solved."""
    log = []
    oracle = _tabled_oracle(monkeypatch, finst, feasible, cuts, log)
    new = _answer(lambda: oracle(point))
    solved = list(log)
    ref = _answer(lambda: exhaustive.fair_separation_scan(
        _tabled_oracle(monkeypatch, finst, feasible, cuts, []), point))
    monkeypatch.undo()
    return new, ref, solved


def test_pair_search_with_contradicting_verdicts(monkeypatch):
    """Monotone tables, then a pair the search solves made infeasible: met
    after the bisected start within its row, it sends the search back to a
    scan of every pair, which finds a lure planted before the start among
    the pairs the bisection left unsolved."""
    rng = np.random.default_rng(405)
    planted = changed = 0
    for seed in range(150):
        finst = gen_fair_load(seed, machines=2, jobs=int(rng.integers(2, 6)), pmax=12)
        m = finst.base.machines
        zero = rng.random() < 0.2  # zero alpha: the base LP is the whole LP
        alpha = (Fraction(0),) * m if zero else tuple(Fraction(int(rng.integers(1, 4)))
                                                      for _ in range(m))
        point = alpha + (sum(a * e for a, e in zip(alpha, finst.e)) + 1,)
        pairs = fair._LoadSeparation(finst, 10.0, 1, 1.0).pairs
        table = _pair_table(rng, pairs)
        cuts = {p for p in pairs if rng.random() < 0.3}
        base, ref, solved = _pair_scan_both(monkeypatch, finst, point, table, cuts)
        assert base == ref
        weighted = not zero

        def full(pair):
            return table(pair, False) and table(pair, weighted)

        first = next((p for p in pairs if full(p)), None)
        if first is None:
            continue
        order = list(dict.fromkeys(p for p, _ in solved))  # pairs by first solve
        seen = set(order)
        for k, hole in enumerate(order):
            # holes the scan meets: first solved after a feasible smaller
            # threshold of the first feasible pair's row (bisection probes never are)
            if hole[0] != first[0] or not full(hole) or \
                    not any(r == hole[0] and t < hole[1] and full((r, t)) for r, t in order[:k]):
                continue
            lures = [p for p in pairs[:pairs.index(first)] if p not in seen]
            for lure in [None] + [p for p in lures[-1:] if p in cuts]:
                new, ref, _ = _pair_scan_both(monkeypatch, finst, point,
                                              _planted(table, hole, lure), cuts)
                assert new == ref, (hole, lure)
                planted += 1
                changed += new != base and lure is not None
    assert planted >= 40 and changed >= 10, (planted, changed)


def _tabled_walk(monkeypatch, table, probe, log):
    """round_and_cut and the bisection's probe as lookups on the grid
    0, 1, ...: table[k] is "P0" (refuted at the first dual point), "later"
    (refuted at a later one), "dist" or "raise", and probe[k] says whether
    the probe finds the first point a member.  log records both."""
    def round_and_cut(finst, bound, ell, q, limit=None, oracle=None, first=None):
        k = int(bound)
        assert first in (None, "P0") and (oracle is None or oracle.bound == bound)
        log.append(("walk", k))
        if table[k] == "raise":
            raise SolverInternalError("ambiguous separation verdict (numerical edge)")
        if table[k] == "dist":
            return "distribution", ("dist", k)
        return "infeasible_at_bound", "P0" if table[k] == "P0" else ("later", k)

    def member_at(oracle, point):
        assert point == "P0"
        log.append(("probe", int(oracle.bound)))
        return probe[int(oracle.bound)]

    monkeypatch.setattr(fair, "fair_bound_candidates",
                        lambda finst, norm, eps: [float(k) for k in range(len(table))])
    monkeypatch.setattr(fair, "_first_point", lambda finst: "P0")
    monkeypatch.setattr(fair, "_member_at", member_at)
    monkeypatch.setattr(fair, "round_and_cut", round_and_cut)


def _walk_both(monkeypatch, table, probe):
    """What the search and the linear walk return under the table, and
    what the search looked up."""
    finst = gen_fair_load(0, machines=2, jobs=2)
    outcomes, log = [], []
    for solve, sink in ((fair.solve_fair, log), (exhaustive.solve_fair_linear, [])):
        _tabled_walk(monkeypatch, table, probe, sink)
        try:
            res = solve(finst, top_norm(1, 1.0), 0.1)
            outcomes.append((res.bound, res.distribution))
        except MaxNormError as exc:
            outcomes.append((type(exc), str(exc)))
        monkeypatch.undo()
    return outcomes, log


def test_bound_search_with_contradicting_verdicts(monkeypatch):
    """Tables where P0 is a member on a prefix of the grid, then a bound the
    walk reaches refuted at P0 after all: the bounds the bisection skipped
    are walked too, which finds a distribution planted among them."""
    rng = np.random.default_rng(406)
    planted = changed = 0
    for _ in range(60):
        n = int(rng.integers(1, 30))
        prefix = int(rng.integers(0, n + 1))
        table = ["P0"] * prefix + list(rng.choice(["later", "later", "later", "dist", "raise"],
                                                  p=[0.3, 0.3, 0.25, 0.1, 0.05],
                                                  size=n - prefix))
        probe = [v == "P0" for v in table]
        (base, ref), log = _walk_both(monkeypatch, table, probe)
        assert base == ref
        probed = {k for kind, k in log if kind == "probe"}
        for kind, hole in log:
            if kind != "walk" or table[hole] == "P0":
                continue
            lures = [k for k in range(prefix) if k not in probed]
            for lure in [None] + lures[-1:]:
                planted_table, planted_probe = list(table), list(probe)
                planted_table[hole] = "P0"
                if lure is not None:
                    planted_table[lure], planted_probe[lure] = "dist", False
                (new, ref), _ = _walk_both(monkeypatch, planted_table, planted_probe)
                assert new == ref, (table, hole, lure)
                planted += 1
                changed += new != base and lure is not None
    assert planted >= 60 and changed >= 15, (planted, changed)
