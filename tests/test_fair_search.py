"""The fair search accepts exactly what the linear walk accepts.

`_exhaustive_scans` keeps the reference: round-and-cut at every grid bound
in turn, with separation oracles that solve every guess pair in scan
order.  The first tests run both on seeded instances with real LPs; the
later ones replace the LPs (or round-and-cut itself) by tables of
verdicts, so that verdicts contradicting monotonicity can be planted where
the search is bound to meet them.
"""

import itertools
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import _exhaustive_scans as exhaustive
from maxnorm import fair, guess, lp
from maxnorm.errors import MaxNormError, SolverInternalError
from maxnorm.generators import gen_fair_cluster, gen_fair_load
from maxnorm.instances import FairClusterInstance
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


def test_weakest_pair_is_the_last_listed():
    """_weakest reads pairs[-1] without listing the pairs, on load and
    center oracles at ell 1-3 and q 1, 1.5 and 2, at bound 0, at data
    values, at data values times ell^(1/q) (a threshold cap on a value) and
    at random bounds."""
    rng = np.random.default_rng(409)
    checked = Counter()
    for seed in range(150):
        if seed % 2:
            finst = gen_fair_cluster(seed, clients=int(rng.integers(1, 4)),
                                     facilities=int(rng.integers(2, 6)), k=2,
                                     metric=str(rng.choice(["euclidean", "random"])))
            values = finst.base.finite_distances()
        else:
            finst = gen_fair_load(seed, machines=int(rng.integers(1, 4)),
                                  jobs=int(rng.integers(1, 7)), pmax=int(rng.choice([3, 12])))
            values = finst.base.finite_sizes()
        cls = fair._dual(finst)[0]
        for ell, q in itertools.product([1, 2, 3], [1.0, 1.5, 2.0]):
            scale = ell ** (1.0 / q)
            bounds = [0.0] + values + [v * scale for v in values] + \
                rng.uniform(0.0, 1.2 * max(values) * scale, size=4).tolist()
            for bound in bounds:
                oracle = cls(finst, bound, ell, q)
                assert oracle._weakest() == oracle.pairs[-1], (bound, ell, q, values)
                checked[oracle.kind] += 1
    assert min(checked["load"], checked["center"]) >= 5000, checked


def test_bound_probes_list_no_pairs(monkeypatch):
    """In a solve_fair, the bound search's probes read the weakest pair
    only: _guess_pairs runs once for each oracle that round-and-cut calls
    and lists pairs, and for no other oracle."""
    built, called, listed = [], [], []
    init, guess_pairs, round_and_cut = fair._Separation.__init__, fair._guess_pairs, \
        fair.round_and_cut

    def tracked(self, *args):
        built.append(self)
        init(self, *args)

    def walked(finst, bound, ell, q, limit=None, oracle=None, first=None):
        called.append(oracle)
        return round_and_cut(finst, bound, ell, q, limit=limit, oracle=oracle, first=first)

    monkeypatch.setattr(fair._Separation, "__init__", tracked)
    monkeypatch.setattr(fair, "_guess_pairs",
                        lambda *args: listed.append(args[1]) or guess_pairs(*args))
    monkeypatch.setattr(fair, "round_and_cut", walked)
    unlisted = 0
    for k, finst in enumerate(_fair_instances(410, 20)):
        for log in (built, called, listed):
            log.clear()
        _outcome(lambda: fair.solve_fair(finst, top_norm(*NORMS[k // 2 % 2]), 0.1))
        with_pairs = [oracle for oracle in built if "pairs" in vars(oracle)]
        assert sorted(listed) == sorted(oracle.bound for oracle in with_pairs)
        assert all(any(oracle is other for other in called) for oracle in with_pairs)
        unlisted += len(built) - len(with_pairs)
    assert unlisted >= 40, unlisted


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
    """A dual point on the right side of the base row, by a slack of 1 to
    5/2 (the oracles refuse a point closer than 1)."""
    alpha = tuple(Fraction(int(rng.integers(0, 4)), int(rng.integers(1, 3)))
                  for _ in finst.e)
    total = sum(a * e for a, e in zip(alpha, finst.e))
    slack = Fraction(int(rng.integers(2, 6)), 2)
    if isinstance(finst, fair.FairLoadInstance):
        return alpha + (total + slack,)
    return alpha + (total - slack,)


def test_oracle_answers_match_the_full_scan():
    """At random dual points and bounds, each oracle answers (cut, solution
    and row) exactly as the scan over every pair does."""
    rng = np.random.default_rng(403)
    cuts = members = answers = 0
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
                answers += not isinstance(new, str)
    assert cuts >= 40 and members >= 40 and answers >= 220, (cuts, members, answers)


def _float_families(seeds):
    """Seeds of the float-cap load and float-target center families: caps
    and targets round(0.7 e + 0.3, 1), passed as floats."""
    for seed in seeds:
        for gen, cls in ((gen_fair_load, fair.FairLoadInstance),
                         (lambda s, a, b: gen_fair_cluster(s, a, b, k=2), FairClusterInstance)):
            base = gen(seed, 2 + seed % 3, 4)
            yield cls(base=base.base, e=tuple(round(0.7 * float(e) + 0.3, 1) for e in base.e))


def test_base_verdicts_and_implied_rows_match_the_lps():
    """Every base verdict that is not None is its base LP's status, and at
    dual points whose weighted row the column bounds imply, the pair's LP
    with the row has the base LP's status.  The True verdicts at pairs
    whose Top rows count an allowed cost (the count test's or the cover
    test's integral point meeting the rows) are checked on seeded instances
    and on seeds 0-3 of both float families."""
    rng = np.random.default_rng(408)
    verdicts, implied, counted = Counter(), Counter(), Counter()
    families = itertools.chain(zip(itertools.repeat("seeded"), _fair_instances(408, 12)),
                               zip(itertools.repeat("float"), _float_families(range(4))))
    for family, finst in families:
        for ell, q in NORMS:
            bounds = fair.fair_bound_candidates(finst, top_norm(ell, q), 0.1)
            for bound in rng.choice(bounds, size=min(3, len(bounds)), replace=False):
                oracle = fair._dual(finst)[0](finst, float(bound), ell, q)
                points = [oracle._point(vec) for vec in
                          [fair._first_point(finst)] + [_random_point(rng, finst)
                                                        for _ in range(2)]]
                for radius, t in oracle.pairs:
                    status = lp.solve_lp(oracle.base_lp(radius, t)[0]).status
                    verdict = oracle.base_verdict(radius, t)
                    if verdict is not None:
                        assert verdict == (status == OPTIMAL), (radius, t)
                        verdicts[oracle.kind, verdict] += 1
                        counted[family, oracle.kind] += verdict and \
                            any(t < v <= radius for v in oracle.values)
                    for point in points:
                        eta = fair.compute_eta(point)
                        weighted = oracle._weighted_row(point, eta)
                        if weighted is None or not oracle._row_implied(point, eta):
                            continue
                        model = oracle.base_lp(radius, t)[0]
                        model.add_row(*weighted)
                        assert lp.solve_lp(model).status == status, (radius, t, point)
                        implied[oracle.kind, status == OPTIMAL] += 1
    keys = list(itertools.product(["load", "center"], [True, False]))
    assert min(counter[key] for counter in (verdicts, implied) for key in keys) >= 50, \
        (verdicts, implied)
    assert min(counted[key] for key in itertools.product(["seeded", "float"],
                                                         ["load", "center"])) >= 30, counted


def test_fair_lp_count(monkeypatch):
    """One 3x4 Top-(2,1) fair load instance: the linear walk with the full
    pair scan solves 200 LPs on it, the search 6."""
    finst = gen_fair_load(1, machines=3, jobs=4, pmax=10)
    calls = []
    solve_lp = fair.solve_lp
    monkeypatch.setattr(fair, "solve_lp", lambda model: calls.append(1) or solve_lp(model))

    def solve():
        return fair.solve_fair(finst, top_norm(2, 1.0), 0.1)

    new = _outcome(solve)
    searched, calls[:] = len(calls), []
    assert new == _reference(monkeypatch, solve)
    assert len(calls) == 200 and 0 < searched <= 6


def test_oracle_solves_no_probe_below_or_above_its_first_pair(monkeypatch):
    """Two 3x4 Top-(2,1) fair load instances: every oracle call whose lowest
    pair that no base verdict refutes is feasible (its first visit rounds
    that pair) solves, before that visit, only the LP of that pair; no
    probe of its row or of another row is solved for its verdict alone."""
    events, owner = [], {}
    lps_call, round_load = guess.GuessLPs.__call__, fair._LoadSeparation._round

    def logged(self, *key):
        new = key not in self.solved
        out = lps_call(self, *key)
        if new:
            events.append(key)
            owner[id(out[0])] = key
        return out

    def rounded(self, point, eta, radius, sol):
        events.append(("round", owner[id(sol)]))
        return round_load(self, point, eta, radius, sol)

    calls = []
    call = fair._Separation.__call__

    def oracle(self, point):
        start = len(events)
        # asked before the call, which may solve and refute a base LP the verdicts leave open
        lowest = next((k for k in range(len(self.pairs))
                       if self.base_lps.known(*self.pairs[k]) is not False), None)
        out = call(self, point)
        calls.append((self, lowest, events[start:]))
        return out

    monkeypatch.setattr(guess.GuessLPs, "__call__", logged)
    monkeypatch.setattr(fair._LoadSeparation, "_round", rounded)
    monkeypatch.setattr(fair._Separation, "__call__", oracle)
    for seed in (8, 11):
        fair.solve_fair(gen_fair_load(seed, machines=3, jobs=4), top_norm(2, 1.0), 0.1)
    checked = spaced = 0
    for sep, lowest, seen in calls:
        rounds = [event for event in seen if event[0] == "round"]
        if not rounds or rounds[0][1] != sep.pairs[lowest]:
            continue
        first = lowest
        last = next(end for end in sep.row_ends if end > first) - 1
        assert set(seen[:seen.index(rounds[0])]) <= {sep.pairs[first]}, (first, last, seen)
        checked += 1
        spaced += last - first >= 2
    assert checked >= 30 and spaced >= 30, (checked, spaced)


def _model_key(model):
    r, c, v = model.coo()
    return (model.lower.tobytes(), model.upper.tobytes(), model.objective.tobytes(),
            r.tobytes(), c.tobytes(), v.tobytes(), model.rhs.tobytes(), model.sense_codes().tobytes())


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


def _tabled_oracle(monkeypatch, finst, feasible, cuts, log, verdict=None):
    """A load oracle at bound 10 whose LPs, verdicts and rounding are
    lookups: feasible(pair, weighted) is the LP verdict, verdict(pair) the
    base verdict (by default the base LP's, feasible(pair, False)), and a
    feasible pair rounds to a cut iff it is in cuts (else the rounding
    misses).  log records the LPs solved, in order."""
    def solve_lp(model):
        log.append((model.pair, model.weighted))
        status = OPTIMAL if feasible(model.pair, model.weighted) else INFEASIBLE
        return SimpleNamespace(status=status, pair=model.pair)

    if verdict is None:
        def verdict(pair):
            return feasible(pair, False)

    cls = fair._LoadSeparation
    monkeypatch.setattr(cls, "base_lp", lambda self, radius, t: (_TabledModel((radius, t)), 0))
    monkeypatch.setattr(cls, "base_verdict", lambda self, radius, t: verdict((radius, t)))
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
            if not full(hole) or hole[0] != first[0] or \
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


def test_scan_after_a_contradicting_verdict_solves_lps_only(monkeypatch):
    """A base verdict refuting a pair whose LPs are feasible, met after the
    bisected start within its row: the scan of every pair that follows
    solves LPs only, so it reaches the pair, solves its base LP and rounds
    it to the cut the full scan finds."""
    rng = np.random.default_rng(407)
    planted = 0
    for seed in range(60):
        finst = gen_fair_load(seed, machines=2, jobs=int(rng.integers(2, 6)), pmax=12)
        zero = rng.random() < 0.2
        alpha = tuple(Fraction(0 if zero else int(rng.integers(1, 4))) for _ in range(2))
        point = alpha + (sum(a * e for a, e in zip(alpha, finst.e)) + 1,)
        pairs = fair._LoadSeparation(finst, 10.0, 1, 1.0).pairs
        table = _pair_table(rng, pairs)
        log = []
        _answer(lambda: _tabled_oracle(monkeypatch, finst, table, set(), log)(point))
        monkeypatch.undo()
        order = list(dict.fromkeys(p for p, _ in log))  # no cut: the scan visits every pair

        def full(pair):
            return table(pair, False) and (zero or table(pair, True))

        first = next((p for p in pairs if full(p)), None)
        for k, hole in enumerate(order):
            # in the first feasible pair's row, first solved after a feasible
            # smaller threshold: the scan meets it, the bisection never does
            if not full(hole) or hole[0] != first[0] or \
                    not any(r == hole[0] and t < hole[1] and full((r, t)) for r, t in order[:k]):
                continue
            log = []
            oracle = _tabled_oracle(monkeypatch, finst, table, {hole}, log,
                                    lambda pair, hole=hole: pair != hole and table(pair, False))
            new = _answer(lambda: oracle(point))
            monkeypatch.undo()
            ref = _answer(lambda: exhaustive.fair_separation_scan(
                _tabled_oracle(monkeypatch, finst, table, {hole}, []), point))
            monkeypatch.undo()
            assert new == ref == ("cut", hole, None), (hole, new, ref)
            assert (hole, False) in log  # the base LP the verdict refuted
            planted += 1
            break
    assert planted >= 15, planted


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

    def feasible_somewhere(oracle, point):
        assert point == "P0"
        log.append(("probe", int(oracle.bound)))
        return not probe[int(oracle.bound)]

    monkeypatch.setattr(fair, "fair_bound_candidates",
                        lambda finst, norm, eps: [float(k) for k in range(len(table))])
    monkeypatch.setattr(fair, "_first_point", lambda finst: "P0")
    monkeypatch.setattr(fair._Separation, "feasible_somewhere", feasible_somewhere)
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
