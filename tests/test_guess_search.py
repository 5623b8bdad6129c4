"""The monotone guess search accepts exactly what the exhaustive scan accepts.

`_exhaustive_scans` keeps the one-LP-per-guess scans as the reference.  The
first tests run both on seeded random instances with real LPs; the last ones
replace the LP by a table of verdicts, so that verdicts contradicting
monotonicity can be planted where the search is bound to see them.
"""

import dataclasses
from collections import Counter
from types import SimpleNamespace

import numpy as np

import _exhaustive_scans as exhaustive
import _load_builders
import _top_scan
from _gen import random_cluster, random_load, random_max_ordered_weights
from _sequence_scan import sequence_scan_rows
from _threshold_helpers import center_sequences, sequence_keys
from maxnorm import cluster, guess, load
from maxnorm.cluster import (core_of, solve_knapsack_center, solve_matroid_center,
                             solve_ordered_kcenter, solve_topl_kcenter)
from maxnorm.errors import MaxNormError
from maxnorm.generators import gen_cluster, gen_knapsack_cluster, gen_load, gen_matroid_cluster
from maxnorm.instances import ClusterInstance, KnapsackClusterInstance
from maxnorm.lp import INFEASIBLE, OPTIMAL
from maxnorm.norms import max_ordered_norm, top_norm
from maxnorm.sparsify import (ThresholdSequence, geometric_grid, single_threshold_candidates,
                              sparsify_weights)

INSTANCES = 40


def _same(a, b):
    """Exact equality through containers, arrays and dataclasses."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if type(a) is not type(b):
        return a == b  # float against np.float64 and the like
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def _check_against_exhaustive(monkeypatch, scan_name, solve, owner=cluster, reference=None):
    """Run solve() with the monotone scan owner.scan_name, then with the
    exhaustive one (by default the reference of the same name): what every
    scan call returned, and the final result, must agree exactly."""
    runs = []
    reference = reference or getattr(exhaustive, scan_name)
    for impl in (getattr(owner, scan_name), reference):
        outputs = []

        def recorded(*args, impl=impl, outputs=outputs, **kwargs):
            try:
                out = impl(*args, **kwargs)
            except MaxNormError as exc:
                outputs.append((type(exc), str(exc)))
                raise
            outputs.append(out)
            return out

        monkeypatch.setattr(owner, scan_name, recorded)
        try:
            result = solve()
        except MaxNormError as exc:
            result = (type(exc), str(exc))
        runs.append((outputs, result))
    monkeypatch.undo()
    (new_outputs, new_result), (ref_outputs, ref_result) = runs
    assert new_outputs, "the solver never reached the scan"
    assert _same(new_outputs, ref_outputs)
    assert _same(new_result, ref_result)


def _zero_weight_core(inst):
    """The instance's core under a knapsack budget of zero weights and limit
    1, for the residual scans of tabled relaxations, which read no budget."""
    return core_of(inst, (cluster.KNAPSACK, np.zeros(inst.n_facilities), 1.0))


def _top_params(rng):
    return int(rng.integers(1, 4)), float(rng.choice([1.0, 2.0]))


def _metric(rng):
    return str(rng.choice(["euclidean", "random"]))


def test_top_cardinality_matches_exhaustive(monkeypatch):
    rng = np.random.default_rng(301)
    for _ in range(INSTANCES):
        inst = random_cluster(rng)
        ell, q = _top_params(rng)
        _check_against_exhaustive(monkeypatch, "_scan_top_guesses",
                                  lambda: solve_topl_kcenter(inst, ell, q, 0.1))


def test_top_partition_matches_exhaustive(monkeypatch):
    rng = np.random.default_rng(302)
    for seed in range(INSTANCES):
        minst = gen_matroid_cluster(seed, clients=int(rng.integers(1, 5)),
                                    facilities=int(rng.integers(2, 6)),
                                    parts=int(rng.integers(1, 4)), metric=_metric(rng))
        norm = top_norm(*_top_params(rng))
        _check_against_exhaustive(monkeypatch, "_scan_top_guesses",
                                  lambda: solve_matroid_center(minst, norm, 0.1))


def test_ordered_cardinality_matches_exhaustive(monkeypatch):
    rng = np.random.default_rng(303)
    for _ in range(INSTANCES):
        inst = random_cluster(rng)
        weights = random_max_ordered_weights(rng)
        _check_against_exhaustive(monkeypatch, "_scan_ordered_guesses",
                                  lambda: solve_ordered_kcenter(inst, weights, 0.1))


def test_ordered_partition_matches_exhaustive(monkeypatch):
    rng = np.random.default_rng(304)
    for seed in range(INSTANCES):
        minst = gen_matroid_cluster(seed, clients=int(rng.integers(1, 5)),
                                    facilities=int(rng.integers(2, 6)),
                                    parts=int(rng.integers(1, 4)), metric=_metric(rng))
        norm = max_ordered_norm(random_max_ordered_weights(rng))
        _check_against_exhaustive(monkeypatch, "_scan_ordered_guesses",
                                  lambda: solve_matroid_center(minst, norm, 0.1))


def _knapsack_instance(rng, seed):
    return gen_knapsack_cluster(seed, clients=int(rng.integers(1, 4)),
                                facilities=int(rng.integers(2, 5)), metric=_metric(rng))


def test_knapsack_top_matches_exhaustive(monkeypatch):
    rng = np.random.default_rng(305)
    for seed in range(INSTANCES):
        kinst = _knapsack_instance(rng, seed)
        norm = top_norm(*_top_params(rng))
        eps = float(rng.choice([0.25, 0.5]))
        _check_against_exhaustive(monkeypatch, "_residual_guess",
                                  lambda: solve_knapsack_center(kinst, norm, eps))


def test_knapsack_ordered_matches_exhaustive(monkeypatch):
    rng = np.random.default_rng(306)
    for seed in range(INSTANCES):
        kinst = _knapsack_instance(rng, seed)
        norm = max_ordered_norm(random_max_ordered_weights(rng))
        eps = float(rng.choice([0.25, 0.5]))
        _check_against_exhaustive(monkeypatch, "_residual_guess",
                                  lambda: solve_knapsack_center(kinst, norm, eps))


def _knapsack_walks(monkeypatch, kinst, norm, eps):
    """The driver's walk, then the bound-by-bound reference's: each gives
    the accepted guess (heavy set, radius, bound, pattern, residual
    payload), the result or the error raised, and every residual call's
    (residual budget, pattern, radius) with what it returned."""
    runs = []
    finish, residual = cluster._finish_knapsack, cluster._residual_guess
    for solve in (solve_knapsack_center, exhaustive.solve_knapsack_center):
        accepted, asked = [], []

        def recorded(*args, asked=asked):
            out = residual(*args)
            asked.append((args[2:5], out))
            return out

        monkeypatch.setattr(cluster, "_finish_knapsack",
                            lambda *args, accepted=accepted: accepted.append(args[4:])
                            or finish(*args))
        monkeypatch.setattr(cluster, "_residual_guess", recorded)
        try:
            result = solve(kinst, norm, eps)
        except MaxNormError as exc:
            result = (type(exc), str(exc))
        monkeypatch.undo()
        runs.append((accepted, result, asked))
    return runs


def _check_knapsack_walks(monkeypatch, kinst, norm, eps):
    """The driver accepts the reference's guess and returns its result, and
    asks the residual what the reference asks, in its order, less calls
    that returned None; returns the driver's accepted guesses."""
    new, ref = _knapsack_walks(monkeypatch, kinst, norm, eps)
    assert _same(new[:2], ref[:2])
    rest = iter(ref[2])
    for call in new[2]:
        for other in rest:
            if _same(other, call):
                break
            assert other[1] is None, f"a skipped residual call found a bound: {other[0]}"
        else:
            raise AssertionError(f"the reference never asked {call[0]}")
    assert all(other[1] is None for other in rest)
    return new[0]


def test_knapsack_walk_matches_the_bound_by_bound_walk(monkeypatch):
    """Seeded 8x8 to 14x14 instances, Top and ordered norms, eps 0.25 and
    0.5: pattern runs and the radius floor accept the guess the reference
    walk accepts, and round it to the same solution."""
    rng = np.random.default_rng(320)
    accepted = 0
    for seed in range(16):
        n = int(rng.integers(8, 15))
        kinst = gen_knapsack_cluster(seed, clients=n, facilities=n, metric=_metric(rng))
        norm = top_norm(*_top_params(rng)) if seed % 2 else \
            max_ordered_norm(random_max_ordered_weights(rng))
        eps = float(rng.choice([0.25, 0.5]))
        accepted += len(_check_knapsack_walks(monkeypatch, kinst, norm, eps))
    assert accepted >= 12


def test_knapsack_prefix_tables_wait_for_a_heavy_sets_first_pattern(monkeypatch):
    """A heavy set's prefix norm tables are built, one per client, right
    before its first _preconnections call; a heavy set whose walk stops
    before one (_radius_floor opens each heavy set) builds none.  The walks
    still match the bound-by-bound reference."""
    events = []

    def logged(name, impl):
        return lambda *args: events.append(name) or impl(*args)

    idle = patterned = 0
    for n, seed, eps, norm in ((8, 0, 0.1, top_norm(2, 1.0)), (8, 3, 0.1, top_norm(1, 1.0)),
                               (10, 1, 0.1, max_ordered_norm(((1, 0.5, 0.25), (0.75, 0.75))))):
        kinst = gen_knapsack_cluster(seed, clients=n, facilities=n)
        _check_knapsack_walks(monkeypatch, kinst, norm, eps)
        for name in ("_radius_floor", "_prefix_norm_table", "_preconnections"):
            monkeypatch.setattr(cluster, name, logged(name, getattr(cluster, name)))
        events.clear()
        solve_knapsack_center(kinst, norm, eps)
        monkeypatch.undo()
        walks = []  # per heavy set, the calls after its _radius_floor
        for name in events:
            if name == "_radius_floor":
                walks.append([])
            else:
                walks[-1].append(name)
        for walk in walks:
            if "_preconnections" in walk:
                first = walk.index("_preconnections")
                assert walk[:first] == ["_prefix_norm_table"] * n
                assert "_prefix_norm_table" not in walk[first:]
                patterned += 1
            else:
                assert walk == []
                idle += 1
    assert idle >= 100 and patterned >= 15


def test_knapsack_walk_over_pattern_runs_matches_the_bound_by_bound_walk(monkeypatch):
    """Instances whose walks split the grid into several pattern runs, and
    where a run's residual estimate lies past the run's last bound, so the
    next run is asked."""
    runs = []
    split = cluster._preconnections

    def counted(tables, bounds):
        pattern = split(tables, bounds)
        runs.append(1 + int((pattern[:, 1:] != pattern[:, :-1]).any(axis=0).sum()))
        return pattern

    for n, seed, ell, eps in ((6, 2, 3, 0.25), (6, 0, 2, 0.1), (8, 0, 2, 0.1)):
        kinst = gen_knapsack_cluster(seed, clients=n, facilities=n)
        _check_knapsack_walks(monkeypatch, kinst, top_norm(ell, 1.0), eps)
        monkeypatch.setattr(cluster, "_preconnections", counted)
        solve_knapsack_center(kinst, top_norm(ell, 1.0), eps)
        monkeypatch.undo()
    assert sum(r > 1 for r in runs) >= 15


def test_knapsack_walk_with_drawn_residual_estimates(monkeypatch):
    """A residual whose estimate is a seeded draw per call (residual budget,
    pattern, radius), and None where _cover_verdict refutes it: estimates
    land anywhere on the grid, often past their run's last bound, where the
    next run's pattern decides.  Both walks ask and accept the same."""
    rng = np.random.default_rng(322)
    draws = {}

    def drawn(core, light, w_res, pre, radius, norm, thresholds, sparsified):
        rcore = cluster._residual_core(core, light, pre, w_res)
        if cluster._cover_verdict(rcore, radius) is False:
            return None
        key = (w_res, pre, radius)
        if key not in draws:
            draws[key] = None if rng.random() < 0.2 else radius * float(rng.uniform(1.0, 2.0))
        return None if draws[key] is None else (draws[key], key)

    for seed in range(30):
        n = int(rng.integers(4, 9))
        kinst = gen_knapsack_cluster(seed, clients=n, facilities=n, metric=_metric(rng))
        monkeypatch.setattr(cluster, "_residual_guess", drawn)
        monkeypatch.setattr(cluster, "_finish_knapsack", lambda *args: args[4:])
        _check_knapsack_walks(monkeypatch, kinst, top_norm(int(rng.integers(2, 4)), 1.0),
                              float(rng.choice([0.1, 0.25, 0.5])))


def _knapsack_edge(d, nc, l, r, m, wt, budget):
    base = ClusterInstance(n_clients=nc, n_facilities=len(wt), d=np.array(d, float),
                           k=len(wt), m=m, l=l, r=r)
    return KnapsackClusterInstance(base=base, wt=np.array(wt, float), budget=budget)


def test_knapsack_walk_edge_cases_match_the_bound_by_bound_walk(monkeypatch):
    """No heavy facility; every facility heavy; a client whose l_j only the
    heavy set holding both heavy facilities can meet; an opening at radius
    0.  Each accepts the reference walk's guess."""
    line = [[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 2.0], [2.0, 1.0, 0.0, 1.0],
            [3.0, 2.0, 1.0, 0.0]]  # client 0, then facilities 1..3 on a line
    cases = [
        (_knapsack_edge(line, 1, [1], [2], 2, [0.1, 0.1, 0.1], 0.3), 0.5, ()),
        (_knapsack_edge(line, 1, [1], [2], 2, [1.0, 1.0, 1.0], 2.0), 0.5, (0, 1)),
        (_knapsack_edge(line, 1, [3], [3], 3, [1.0, 1.0, 0.1], 2.1), 0.25, (0, 1)),
        (_knapsack_edge([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]], 1, [1], [1], 1,
                        [0.2, 1.0], 1.0), 0.5, ()),
        (_knapsack_edge([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]], 1, [1], [1], 1,
                        [1.0, 0.2], 1.0), 0.5, (0,)),
    ]
    for kinst, eps, s0 in cases:
        for norm in (top_norm(2, 1.0), max_ordered_norm([(1.0, 0.5)])):
            assert _check_knapsack_walks(monkeypatch, kinst, norm, eps)[0][0] == s0
    for kinst, _, _ in cases[3:]:  # the co-located facility opens at radius 0
        assert _check_knapsack_walks(monkeypatch, kinst, top_norm(1, 1.0), 0.5)[0][1] == 0.0


def test_knapsack_20x20_asks_the_residual_a_few_times(monkeypatch):
    """gen_knapsack_cluster(0, 20, 20) at Top-(2,1), eps 0.1: the
    bound-by-bound walk asks the residual 16,604 times, and accepts the
    guess pinned here (heavy set, radius, bound, pattern)."""
    asked, accepted = [], []
    residual, finish = cluster._residual_guess, cluster._finish_knapsack
    monkeypatch.setattr(cluster, "_residual_guess", lambda *args: asked.append(args[3:5])
                        or residual(*args))
    monkeypatch.setattr(cluster, "_finish_knapsack", lambda *args: accepted.append(args[4:8])
                        or finish(*args))
    res = solve_knapsack_center(gen_knapsack_cluster(0, 20, 20), top_norm(2, 1.0), 0.1)
    assert len(asked) <= 5
    assert accepted == [((9,), 0.2767613916626551, 0.2767613916626551,
                         tuple(int(j in (1, 10)) for j in range(20)))]
    assert res.value == 0.2767613916626551
    assert res.solution.open_facilities == (0, 1, 6, 8, 9, 15, 17, 19)


def test_knapsack_radius_floor_skips_only_refuted_radii():
    """Every pattern the bound-by-bound walk asks about at a radius below
    its heavy set's floor gives a residual whose weakest relaxation
    _cover_verdict refutes; a heavy set with no floor has none at all."""
    rng = np.random.default_rng(321)
    below = 0
    for seed in range(24):
        n = int(rng.integers(4, 11))
        kinst = gen_knapsack_cluster(seed, clients=n, facilities=n, metric=_metric(rng))
        norm = top_norm(*_top_params(rng)) if seed % 2 else \
            max_ordered_norm(random_max_ordered_weights(rng))
        eps = float(rng.choice([0.25, 0.5]))
        wt = np.asarray(kinst.wt, float)
        core = core_of(kinst.base, (cluster.KNAPSACK, wt, float(kinst.budget)))
        light = [i for i in range(len(wt)) if not (wt[i] >= eps * kinst.budget and wt[i] > 0)]
        radii = sorted(set(core.distances()) | {0.0})
        reach = np.searchsorted(radii, core.cf, side="left")

        def visit(s0, radius, pre):
            nonlocal below
            floor = cluster._radius_floor(core, reach, light + list(s0))
            if floor is None or radius < radii[floor]:
                w_res = kinst.budget - float(sum(wt[i] for i in s0))
                rcore = cluster._residual_core(core, light, pre, w_res)
                assert cluster._cover_verdict(rcore, radius) is False
                below += 1

        try:
            exhaustive.solve_knapsack_center(kinst, norm, eps, visit=visit)
        except MaxNormError:
            pass
    assert below >= 100


def test_top_kcenter_lp_count(monkeypatch):
    """One 8x8 Top-(2,1) instance: the exhaustive scan solves 194 LPs on it."""
    inst = gen_cluster(3, clients=8, facilities=8, k=3, metric="random", coverage=8,
                       lmax=1, rmax=2)
    calls = []
    solve = cluster.solve_lp
    monkeypatch.setattr(cluster, "solve_lp", lambda model: calls.append(1) or solve(model))
    solve_topl_kcenter(inst, 2, 1.0, 0.1)
    assert 0 < len(calls) <= 40


def test_kcenter_radius_bisection_solves_no_lp_but_at_first(monkeypatch):
    """On an 8x8 Euclidean instance with l_j = 1, the LP-free verdict decides
    every radius the bisection probes, except at most the first feasible
    one: no other weakest LP is solved there."""
    base = gen_cluster(0, clients=8, facilities=8, k=3, metric="euclidean")
    inst = ClusterInstance(n_clients=8, n_facilities=8, d=base.d, k=3, m=8,
                           l=np.ones(8, int), r=base.r)
    built, bisections = [], []
    build, bisect = cluster._center_lp, guess.first_true

    def first_true(pred, lo, hi, known=None):
        start = len(built)
        found = bisect(pred, lo, hi, known)
        bisections.append((built[start:], found))
        return found

    monkeypatch.setattr(cluster, "_center_lp", lambda core, spec, radius, **kwargs:
                        built.append(radius) or build(core, spec, radius, **kwargs))
    monkeypatch.setattr(guess, "first_true", first_true)
    solve_topl_kcenter(inst, 2, 1.0, 0.1)
    radii = sorted(set(core_of(inst).distances()) | {0.0})
    probed, first = bisections[0]  # the scan's first bisection is over the radii
    assert 0 < first < len(radii) and set(probed) <= {radii[first]}
    assert built  # the accepted guess is still solved


def test_first_true_starts_where_the_verdicts_stop_refuting():
    """Random monotone predicates on ranges of 0-200 guesses, with exact
    LP-free verdicts (True only at or after the first true guess, False
    only before it, None anywhere): first_true with the verdicts returns
    plain bisection's index, and asks pred at unsettled guesses at most
    1 + ceil(log2(hi - lo + 1)) times."""
    rng = np.random.default_rng(26)
    cases = [(0, 0, 0, "none"), (5, 5, 5, "none"), (0, 7, 7, "refuted"), (0, 7, 3, "none")]
    for _ in range(3000):
        lo = int(rng.integers(0, 50))
        hi = lo + int(rng.integers(0, 151))
        cases.append((lo, hi, int(rng.integers(lo, hi + 1)),
                      rng.choice(["random", "refuted", "none", "told"])))
    held = missed = 0
    for lo, hi, answer, kind in cases:
        share = rng.random()

        def verdict(i):
            if kind == "none" or kind == "random" and rng.random() > share:
                return None
            if i < answer:
                return False
            return None if kind == "refuted" else True

        verdicts = {i: verdict(i) for i in range(lo, hi)}
        asked = []

        def pred(i):
            asked.append(i)
            return i >= answer

        assert guess.first_true(lambda i: i >= answer, lo, hi) == answer
        assert guess.first_true(pred, lo, hi, verdicts.get) == answer, (lo, hi, answer, kind)
        unsettled = [i for i in asked if verdicts[i] is None]
        assert len(unsettled) <= 1 + int(np.ceil(np.log2(hi - lo + 1)))
        # pred's first answer is the start's: it held there, or the search bisected on
        held += asked[:1] == [answer]
        missed += asked[:1] not in ([], [answer])
    assert held >= 500 and missed >= 500, (held, missed)


def test_walk_from_first_asks_the_first_unrefuted_guess_first():
    """Random row tables as walk_from_first needs them (feasible from a
    start within each row, and at the last guess from a first row on), with
    exact LP-free verdicts (False only at infeasible guesses, True only at
    feasible ones, None anywhere): the walk answers as a linear scan does,
    visiting from the first feasible guess, and where the first guess the
    verdicts do not refute is feasible, feasible is asked exactly once
    before the first visit."""
    rng = np.random.default_rng(27)
    once = rest = 0
    for _ in range(3000):
        ends = np.cumsum(rng.integers(1, 8, size=int(rng.integers(1, 12)))).tolist()
        starts = [0] + ends[:-1]
        first_row = int(rng.integers(0, len(ends) + 1))
        feasible = set()
        for r in range(first_row, len(ends)):
            feasible.update(range(int(rng.integers(starts[r], ends[r])), ends[r]))
        refute, tell = rng.choice([1.0, rng.random()]), rng.random()
        verdicts = {k: (False if k not in feasible and rng.random() < refute else
                        True if k in feasible and rng.random() < tell else None)
                    for k in range(ends[-1])}
        answers = {k for k in range(ends[-1]) if rng.random() < 0.3}
        first = min(feasible, default=None)
        expected = None if first is None else \
            next((k for k in range(first, ends[-1]) if k in answers), None)
        for known in (None, verdicts.get):
            log = []

            def ask(k):
                log.append(("feasible", k))
                return k in feasible

            def visit(k, told):
                assert told == first
                log.append(("visit", k))
                return k if k in answers else None

            assert guess.walk_from_first(ends, ask, visit, known) == expected
            stop = ends[-1] if expected is None else expected + 1
            assert [k for event, k in log if event == "visit"] == \
                ([] if first is None else list(range(first, stop)))
            if known is None:
                continue
            unrefuted = next((k for k in range(ends[-1]) if verdicts[k] is not False), None)
            if unrefuted is not None and unrefuted in feasible:
                assert log[:2] == [("feasible", unrefuted), ("visit", unrefuted)], log
                once += 1
            else:
                rest += 1
    assert once >= 1000 and rest >= 500, (once, rest)


def test_guess_lps_known_never_builds_or_solves():
    """known reads a solved LP's status, else the driver's verdict, asked
    once per key; it never builds or solves, and feasible solves only
    where known says None."""
    calls = []

    def build(key):
        calls.append(("build", key))
        return key, 0

    def solve(model):
        calls.append(("solve", model))
        return SimpleNamespace(status=OPTIMAL if model >= 3 else INFEASIBLE)

    asked = []

    def verdict(key):
        asked.append(key)
        return {0: False, 4: True}.get(key)

    lps = guess.GuessLPs(build, solve, verdict)
    assert [lps.known(k) for k in range(6)] == [False, None, None, None, True, None]
    assert [lps.known(k) for k in range(6)] == [False, None, None, None, True, None]
    assert calls == [] and asked == list(range(6))
    assert lps.feasible(2) is False and lps.feasible(4) is True and lps.feasible(0) is False
    assert calls == [("build", 2), ("solve", 2)]
    assert lps.known(2) is False and lps.known(3) is None and len(calls) == 2
    assert lps(3)[0].status == OPTIMAL and lps.known(3) is True
    assert guess.GuessLPs(build, solve).known(1) is None and len(calls) == 4


# ---------------------------------------------------------------------------
# verdicts from a table


def _top_weakest(core, radius):
    """The weakest Top guess of a radius: its largest threshold."""
    thresholds = single_threshold_candidates(core.distances())
    return thresholds[guess.weakest_thresholds([radius], thresholds)[0]]


def _ordered_weakest(core, radius):
    """The weakest guess of an ordered scan's radius: the sequence with every
    threshold at R, or radius 0's threshold 0."""
    seq = center_sequences(radius, max(core.r0, 1))[0]
    return 0.0 if seq is None else seq


def _tabled_lps(monkeypatch, table, log, verdicts=None, weakest=_top_weakest):
    """Make every relaxation a lookup: table(radius, guess) is the minimized
    s, or None for an infeasible guess; a guess is the Top threshold or the
    threshold sequence.  The LP-free verdict on a radius's weakest guess,
    weakest(core, radius), looks it up in the same table, or in verdicts
    when one is given.  A table has no column bounds that could imply a
    count row, so no other Top probe takes that verdict, and no balls, so
    no radius floor: the scans start their radius bisection at the first
    radius.  log records the guesses solved and the verdicts asked, in
    order.  Each install keeps its own verdicts per core and radius, as a
    core does (CenterCore.cover), so a core scanned again under another
    table asks them again."""
    def center_lp(core, normspec, radius, **kwargs):
        return (radius, normspec[3]), 0

    def solve_lp(key):
        log.append(key)
        s = table(*key)
        if s is None:
            return SimpleNamespace(status=INFEASIBLE, x=None)
        return SimpleNamespace(status=OPTIMAL, x=np.array([s]))

    def cover_verdict(core, radius):
        key = (radius, weakest(core, radius))
        log.append(key)
        return (verdicts or table)(*key) is not None

    asked = {}  # (id(core), radius) -> (core, verdict): the held core keeps its id unique

    def cover(core, radius):
        key = (id(core), radius)
        if key not in asked:
            asked[key] = core, cluster._cover_verdict(core, radius)
        return asked[key][1]

    monkeypatch.setattr(cluster.CenterCore, "cover", cover)
    monkeypatch.setattr(cluster, "_center_lp", center_lp)
    monkeypatch.setattr(cluster, "solve_lp", solve_lp)
    monkeypatch.setattr(cluster, "_cover_verdict", cover_verdict)
    monkeypatch.setattr(cluster, "_count_rows_implied", lambda core, radius, t, ell: False)
    monkeypatch.setattr(cluster, "_ball_floor", lambda core, reach: 0)
    monkeypatch.setattr(cluster, "_lp_parts", lambda core, x: float(x[0]))


def _ordered_tabled_lps(monkeypatch, table, log, verdicts=None):
    _tabled_lps(monkeypatch, table, log, verdicts, weakest=_ordered_weakest)


def _scan_both(monkeypatch, table, scan, tabled=_tabled_lps, pair=(cluster, exhaustive)):
    """scan(module) under the table for the search and for the reference
    (the two entries of pair); returns the two outcomes and the guesses the
    search solved."""
    outcomes, log = [], []
    for module, sink in zip(pair, (log, [])):
        tabled(monkeypatch, table, sink)
        try:
            outcomes.append(scan(module))
        except MaxNormError as exc:
            outcomes.append((type(exc), str(exc)))
        monkeypatch.undo()
    return outcomes, log


def _planted(table, hole, lure=None):
    """The table with the hole made infeasible and the lure feasible at s = 0."""
    def planted(radius, guess):
        if (radius, guess) == hole:
            return None
        return 0.0 if (radius, guess) == lure else table(radius, guess)
    return planted


def _top_table(rng, radii, mass=2.0):
    """Feasible from a first radius on, at thresholds above a staircase that
    falls as R grows; s falls in R and in T from at most `mass`."""
    first = radii[int(rng.integers(0, len(radii)))]
    frac = rng.uniform(0.0, 1.0)
    a, b, c = rng.uniform(0.2, mass), rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)

    def table(radius, t):
        if radius < first or (radius > 0 and t < frac * first * first / radius):
            return None
        return max(0.0, a - b * t - c * radius)
    return table


def _visit_holes(log, table, thresholds):
    """(hole, lure) pairs.  A hole is a guess first solved after a feasible
    smaller threshold of its row: the search solves it only while visiting a
    row it took as monotone.  Each hole comes once alone (lure None) and once
    with a lure: the largest threshold of the row below every feasible one,
    which the search never solved.  Only going back over the whole row on
    meeting the hole finds the lure."""
    pairs = []
    for k, (radius, t) in enumerate(log):
        if log.index((radius, t)) != k or table(radius, t) is None:
            continue
        feasible = [u for r, u in log[:k] if r == radius and table(r, u) is not None]
        if not feasible or min(feasible) >= t:
            continue
        pairs.append(((radius, t), None))
        lures = [u for u in thresholds if u < min(feasible) and (radius, u) not in log]
        if lures:
            pairs.append(((radius, t), (radius, lures[-1])))
    return pairs


def _staircase_holes(log, table):
    """(hole, None) for each row opener at the smallest threshold found
    feasible at a smaller radius: the staircase promises those feasible."""
    holes, seen = [], set()
    for radius, t in log:
        if radius in seen:
            continue
        seen.add(radius)
        below = [u for r, u in log if r < radius and table(r, u) is not None]
        if t < radius and below and t == min(below) and table(radius, t) is not None:
            holes.append(((radius, t), None))
    return holes


def test_top_scan_with_contradicting_verdicts(monkeypatch):
    rng = np.random.default_rng(307)
    planted = lured = 0
    for _ in range(30):
        core = core_of(random_cluster(rng, nc_hi=3, nf_hi=4))
        radii = sorted(set(core.distances()) | {0.0})
        table = _top_table(rng, radii)
        ell, q = _top_params(rng)

        def scan(module):
            return module._scan_top_guesses(core, ell, q, 0.1)

        (new, ref), log = _scan_both(monkeypatch, table, scan)
        assert _same(new, ref)
        for hole, lure in _visit_holes(log, table, radii) + _staircase_holes(log, table):
            (new, ref), _ = _scan_both(monkeypatch, _planted(table, hole, lure), scan)
            assert _same(new, ref), (hole, lure)
            planted += 1
            lured += lure is not None
    assert planted >= 20 and lured >= 5


def test_residual_with_contradicting_verdicts(monkeypatch):
    rng = np.random.default_rng(308)
    planted = lured = 0
    for _ in range(30):
        core = _zero_weight_core(random_cluster(rng, nc_hi=3, nf_hi=4))
        radii = sorted(set(core.distances()) | {0.0})
        radius = radii[int(rng.integers(0, len(radii)))]
        table = _top_table(rng, radii, mass=10.0)  # s large enough not to stop the walk
        norm = top_norm(*_top_params(rng))
        nf = core.n_facilities
        pre = (0,) * core.n_clients
        thresholds = single_threshold_candidates(core.distances())

        def scan(module):
            return module._residual_guess(core, list(range(nf)), 1.0, pre,
                                          radius, norm, thresholds, None)

        (new, ref), log = _scan_both(monkeypatch, table, scan)
        assert _same(new, ref)
        for hole, lure in _visit_holes(log, table, radii):
            (new, ref), _ = _scan_both(monkeypatch, _planted(table, hole, lure), scan)
            assert _same(new, ref), (hole, lure)
            planted += 1
            lured += lure is not None
    assert planted >= 10 and lured >= 5


def test_top_scan_with_a_refuted_implied_verdict(monkeypatch):
    """One probe below its radius's weakest threshold is called implied, so
    it takes the radius's cover verdict, True, while the table makes its LP
    infeasible.  The scan trusts that verdict until a visit solves the probe
    and still returns the exhaustive scan's answer.  A hole whose verdict
    was read and whose LP was then solved comes again with a lure: the
    largest threshold of its row below it not solved before it, made
    feasible at s = 0.  Only going back over the whole row on meeting the
    hole finds the lure."""
    rng = np.random.default_rng(310)
    planted = live = lured = 0
    for _ in range(30):
        core = core_of(random_cluster(rng, nc_hi=3, nf_hi=4))
        radii = sorted(set(core.distances()) | {0.0})
        thresholds = single_threshold_candidates(core.distances())
        table = _top_table(rng, radii)
        ell, q = _top_params(rng)
        weakest = guess.weakest_thresholds(radii, thresholds)
        holes = [(radius, thresholds[ti]) for radius, w in zip(radii, weakest)
                 if table(radius, thresholds[w]) is not None for ti in range(w)]

        def scan(module):
            return module._scan_top_guesses(core, ell, q, 0.1)

        for k in rng.permutation(len(holes))[:5]:
            hole, asked = holes[k], []

            def tabled(monkeypatch, table, log):
                _tabled_lps(monkeypatch, table, log)
                monkeypatch.setattr(cluster, "_count_rows_implied", lambda core, radius, t, ell:
                                    asked.append((radius, t)) or (radius, t) == hole)

            (new, ref), log = _scan_both(monkeypatch, _planted(table, hole), scan, tabled)
            assert _same(new, ref), hole
            planted += 1
            live += hole in asked
            if hole not in asked or hole not in log:
                continue
            before = log[:log.index(hole)]
            for u in [u for u in thresholds if u < hole[1] and (hole[0], u) not in before][-1:]:
                (new, ref), _ = _scan_both(monkeypatch, _planted(table, hole, (hole[0], u)),
                                           scan, tabled)
                assert _same(new, ref), (hole, u)
                planted += 1
                lured += 1
    assert planted >= 120 and live >= 50 and lured >= 10, (planted, live, lured)


def test_ordered_scan_with_contradicting_verdicts(monkeypatch):
    """Monotone tables over threshold sequences, then a row whose all-R
    sequence fails although a smaller radius passed: that row is searched
    whole, without skipping sequences below an infeasible one."""
    rng = np.random.default_rng(309)
    planted = 0
    for _ in range(30):
        inst = random_cluster(rng, nc_hi=3, nf_hi=5)
        core = core_of(inst)
        radii = sorted(set(core.distances()) | {0.0})
        first = radii[int(rng.integers(0, len(radii)))]
        frac, a, b = rng.uniform(0.0, 1.0), rng.uniform(0.2, 2.0), rng.uniform(0.0, 2.0)

        def table(radius, seq):
            if radius < first:
                return None
            if radius == 0.0:
                return 0.0
            mean = sum(seq.values) / len(seq.values)
            return None if mean < frac * radius else max(0.0, a - b * mean)

        weights = random_max_ordered_weights(rng)

        def scan(module):
            return module._scan_ordered_guesses(core, weights, 0.1)

        (new, ref), log = _scan_both(monkeypatch, table, scan, _ordered_tabled_lps)
        assert _same(new, ref)
        # all-R sequences first met once some row's other sequences were reached
        opened = [k for k, (radius, seq) in enumerate(log)
                  if radius > 0 and len(set(seq.values)) > 1]
        holes = [(radius, seq) for k, (radius, seq) in enumerate(log) if opened
                 and k >= opened[0] and log.index((radius, seq)) == k and radius > 0
                 and len(set(seq.values)) == 1 and table(radius, seq) is not None]
        for hole in holes:
            (new, ref), _ = _scan_both(monkeypatch, _planted(table, hole), scan,
                                       _ordered_tabled_lps)
            assert _same(new, ref), hole
            planted += 1
    assert planted >= 10


def _covers(a, b):
    """Sequence a counts at least as much as b: no threshold of a lies above b's."""
    return all(x <= y for x, y in zip(a.values, b.values))


# equal weights at neighbouring kept coordinates make sequences tie on their
# lower key, so that one covering an infeasible sequence can come after it
TIED_WEIGHTS = [[(1.0, 0.5, 0.5)], [(1.0, 1.0, 1.0, 0.5)], [(2.0, 1.0, 1.0), (1.0, 1.0)]]


def test_ordered_scan_finds_lures_behind_contradictions(monkeypatch):
    """Tables monotone in R and in the thresholds, then a sequence the search
    solves made infeasible although a sequence covering it, at its radius or
    a smaller one, was feasible: the row is searched again without skipping,
    which finds a lure planted among the sequences the hole would skip."""
    rng = np.random.default_rng(310)
    planted = changed = 0
    for _ in range(40):
        core = core_of(random_cluster(rng, nc_hi=5, nf_hi=5))
        radii = sorted(set(core.distances()) | {0.0})
        r0 = max(core.r0, 1)
        first = radii[int(rng.integers(0, len(radii)))]
        frac, a, b = rng.uniform(0.0, 1.0), rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0)
        top = max(radii)

        def table(radius, seq):
            if radius < first or radius == 0.0:  # radius 0 would undercut every sequence
                return None
            if not isinstance(seq, ThresholdSequence):
                return 0.0  # the Top scan a zero objective falls back to
            mean = sum(seq.values) / len(seq.values)
            return None if mean < frac * top else radius * (a - b * mean / top)

        weights = TIED_WEIGHTS[int(rng.integers(0, len(TIED_WEIGHTS)))]

        def scan(module):
            return module._scan_ordered_guesses(core, weights, 0.1)

        (base, ref), log = _scan_both(monkeypatch, table, scan, _ordered_tabled_lps)
        assert _same(base, ref)
        for k, (radius, seq) in enumerate(log):
            if not isinstance(seq, ThresholdSequence) or table(radius, seq) is None \
                    or log.index((radius, seq)) != k:
                continue
            if not any(r <= radius and isinstance(s, ThresholdSequence) and table(r, s) is not None
                       and s != seq and _covers(s, seq) for r, s in log[:k]):
                continue
            lures = [s for s in center_sequences(radius, r0)
                     if s != seq and (radius, s) not in log[:k] and _covers(s, seq)]
            for lure in [None] + lures[:1]:
                lure = lure and (radius, lure)
                (new, ref), _ = _scan_both(monkeypatch, _planted(table, (radius, seq), lure),
                                           scan, _ordered_tabled_lps)
                assert _same(new, ref), ((radius, seq), lure)
                planted += 1
                changed += not _same(new, base)
    assert planted >= 40 and changed >= 15, (planted, changed)


# ---------------------------------------------------------------------------
# verdicts the LP refutes


def _refuted_holes(log, table, thresholds):
    """(hole, lure) pairs for an LP refuting a feasible verdict.  A hole is a
    guess solved after its verdict was asked, so that it comes twice in the
    log.  Each hole comes once alone and once with a lure: the largest
    threshold of its row below every feasible guess met before, which the
    search never reached.  Only going back over the whole row finds it."""
    pairs = []
    for k, (radius, t) in enumerate(log):
        if log.index((radius, t)) == k or table(radius, t) is None:
            continue
        pairs.append(((radius, t), None))
        feasible = [u for r, u in log[:k] if r == radius and table(r, u) is not None]
        lures = [u for u in thresholds if u < min(feasible) and (radius, u) not in log]
        if lures:
            pairs.append(((radius, t), (radius, lures[-1])))
    return pairs


def test_top_scan_when_the_lp_refutes_a_feasible_verdict(monkeypatch):
    """The verdict says feasible where the LP says infeasible, on a radius's
    weakest guess that a row visit solves, and a lure that only the LP finds
    feasible sits below the row's start, where only visit(0) looks.  The row
    must go back to visit(0) and accept what the exhaustive scan accepts."""
    rng = np.random.default_rng(318)
    planted = changed = 0
    for _ in range(30):
        core = core_of(random_cluster(rng, nc_hi=3, nf_hi=4))
        radii = sorted(set(core.distances()) | {0.0})
        table = _top_table(rng, radii)
        ell, q = _top_params(rng)

        def scan(module):
            return module._scan_top_guesses(core, ell, q, 0.1)

        def refuted(monkeypatch, lp_table, log):
            _tabled_lps(monkeypatch, lp_table, log, verdicts=table)

        (base, _), log = _scan_both(monkeypatch, table, scan)
        for hole, lure in _refuted_holes(log, table, radii):
            (new, ref), _ = _scan_both(monkeypatch, _planted(table, hole, lure), scan, refuted)
            assert _same(new, ref), (hole, lure)
            planted += 1
            changed += not _same(new, base)
    assert planted >= 20 and changed >= 5, (planted, changed)


def test_residual_when_the_lp_refutes_a_feasible_verdict(monkeypatch):
    """As for the Top scan, on the knapsack residual's single radius."""
    rng = np.random.default_rng(319)
    planted = changed = 0
    for _ in range(30):
        core = _zero_weight_core(random_cluster(rng, nc_hi=3, nf_hi=4))
        radii = sorted(set(core.distances()) | {0.0})
        radius = radii[int(rng.integers(0, len(radii)))]
        table = _top_table(rng, radii, mass=10.0)  # s large enough not to stop the walk
        norm = top_norm(*_top_params(rng))
        nf = core.n_facilities
        pre = (0,) * core.n_clients
        thresholds = single_threshold_candidates(core.distances())

        def scan(module):
            return module._residual_guess(core, list(range(nf)), 1.0, pre,
                                          radius, norm, thresholds, None)

        def refuted(monkeypatch, lp_table, log):
            _tabled_lps(monkeypatch, lp_table, log, verdicts=table)

        (base, _), log = _scan_both(monkeypatch, table, scan)
        for hole, lure in _refuted_holes(log, table, radii):
            (new, ref), _ = _scan_both(monkeypatch, _planted(table, hole, lure), scan, refuted)
            assert _same(new, ref), (hole, lure)
            planted += 1
            changed += not _same(new, base)
    assert planted >= 10 and changed >= 5, (planted, changed)


def test_ordered_scan_when_the_lp_refutes_a_feasible_verdict(monkeypatch):
    """The verdict says feasible where the LP says infeasible, on a radius's
    all-R sequence that its row solves, and a lure that only the LP finds
    feasible sits among the sequences covering it, which a row taking the
    LP's verdict as monotone skips.  The row must be searched again with
    prune=False and accept what the exhaustive scan accepts."""
    rng = np.random.default_rng(320)
    planted = changed = 0
    for _ in range(40):
        core = core_of(random_cluster(rng, nc_hi=5, nf_hi=5))
        radii = sorted(set(core.distances()) | {0.0})
        r0 = max(core.r0, 1)
        first = radii[int(rng.integers(0, len(radii)))]
        frac, a, b = rng.uniform(0.0, 1.0), rng.uniform(0.2, 2.0), rng.uniform(0.0, 2.0)

        def table(radius, seq):
            if radius < first:
                return None
            if radius == 0.0:
                return 0.0
            mean = sum(seq.values) / len(seq.values)
            return None if mean < frac * radius else max(0.0, a - b * mean)

        weights = TIED_WEIGHTS[int(rng.integers(0, len(TIED_WEIGHTS)))]
        prunes = []

        def scan(module):
            return module._scan_ordered_guesses(core, weights, 0.1)

        def refuted(monkeypatch, lp_table, log):
            _ordered_tabled_lps(monkeypatch, lp_table, log, verdicts=table)
            row = guess.scan_sequence_row
            monkeypatch.setattr(guess, "scan_sequence_row", lambda *args, **kwargs:
                                prunes.append(kwargs.get("prune", True)) or row(*args, **kwargs))

        (base, _), log = _scan_both(monkeypatch, table, scan, _ordered_tabled_lps)
        for k, (radius, seq) in enumerate(log):
            if log.index((radius, seq)) == k or table(radius, seq) is None:
                continue  # not a guess solved after its verdict
            # every other sequence of the row covers the all-R one
            lures = [s for s in center_sequences(radius, r0)
                     if s is not None and s != seq and (radius, s) not in log]
            for lure in [None] + lures[:1]:
                lure = lure and (radius, lure)
                prunes.clear()
                (new, ref), _ = _scan_both(monkeypatch, _planted(table, (radius, seq), lure),
                                           scan, refuted)
                assert _same(new, ref), ((radius, seq), lure)
                assert False in prunes
                planted += 1
                changed += not _same(new, base)
    assert planted >= 20 and changed >= 5, (planted, changed)


def test_ordered_residual_when_the_lp_refutes_a_feasible_verdict(monkeypatch):
    """The verdict says feasible where the LP says infeasible, on the ordered
    knapsack residual's weakest sequence (every threshold at R), which its
    walk asks first, and a lure that only the LP finds feasible sits among
    the sequences covering it, which a walk taking the LP's verdict as
    monotone skips.  The residual must be searched again with prune=False
    and return what the exhaustive residual returns."""
    rng = np.random.default_rng(323)
    planted = changed = 0
    for _ in range(30):
        core = _zero_weight_core(random_cluster(rng, nc_hi=5, nf_hi=5))
        radii = sorted(set(core.distances()) - {0.0})
        if not radii:
            continue
        radius = radii[int(rng.integers(0, len(radii)))]
        weights = TIED_WEIGHTS[int(rng.integers(0, len(TIED_WEIGHTS)))]
        sparse, pos = sparsify_weights(weights, max(core.r0, 1))
        sparsified = (sparse, pos, max(float(w[0]) for w in sparse))
        a, b = rng.uniform(1.0, 3.0), rng.uniform(0.0, 2.0)

        def table(radius, seq):  # s falls as the thresholds grow
            return radius * sparsified[2] * (a + b * (1.0 - min(seq.values) / radius))

        nf = core.n_facilities
        prunes = []

        def scan(module):
            return module._residual_guess(core, list(range(nf)), 1.0,
                                          (0,) * core.n_clients, radius,
                                          max_ordered_norm(weights), None, sparsified)

        def refuted(monkeypatch, lp_table, log):
            _ordered_tabled_lps(monkeypatch, lp_table, log, verdicts=table)
            row = guess.scan_sequence_row
            monkeypatch.setattr(guess, "scan_sequence_row", lambda *args, **kwargs:
                                prunes.append(kwargs.get("prune", True)) or row(*args, **kwargs))

        (base, ref), log = _scan_both(monkeypatch, table, scan, _ordered_tabled_lps)
        assert _same(base, ref)
        seqs = center_sequences(radius, max(core.r0, 1))
        for lure in [None] + seqs[1:][-1:]:
            lure = lure and (radius, lure)
            prunes.clear()
            (new, ref), _ = _scan_both(monkeypatch, _planted(table, (radius, seqs[0]), lure),
                                       scan, refuted)
            assert _same(new, ref), lure
            assert False in prunes
            planted += 1
            changed += not _same(new, base)
    assert planted >= 30 and changed >= 15, (planted, changed)


# ---------------------------------------------------------------------------
# makespan

TOP_NORMS = [(1, 1.0), (2, 1.0), (2, 2.0), (3, 1.5)]
ORDERED_WEIGHTS = [[(1.0, 0.5, 0.25)], [(1.0, 0.5, 0.25, 0.125), (2.0, 0.5)],
                   [(1.0,), (0.5, 0.5, 0.5)], [(3.0, 1.0), (1.0, 1.0, 1.0, 1.0)]]


def _load_instances(seed):
    """Seeded makespan instances of 1-4 machines and 1-11 jobs; a third of
    them forbid about 30% of the pairs."""
    rng = np.random.default_rng(seed)
    for k in range(INSTANCES):
        yield gen_load(seed * 1000 + k, machines=int(rng.integers(1, 5)),
                       jobs=int(rng.integers(1, 12)), pmax=int(rng.choice([3, 10, 40])),
                       forbidden=float(rng.choice([0.0, 0.0, 0.3])))


def test_load_top_matches_exhaustive(monkeypatch):
    for inst in _load_instances(311):
        for ell, q in TOP_NORMS:
            _check_against_exhaustive(monkeypatch, "_scan_top_guesses",
                                      lambda: load.solve_topl_makespan(inst, ell, q, 0.1),
                                      owner=load, reference=exhaustive.load_scan_top_guesses)


# 64 and 90 jobs: 7 and 8 kept coordinates, 924 and 3,432 sequences per
# radius, on few distinct sizes so that the exhaustive scan stays short
LARGE_LOADS = [gen_load(318, machines=2, jobs=64, pmax=4, forbidden=0.1),
               gen_load(319, machines=3, jobs=90, pmax=3)]


def test_load_ordered_matches_exhaustive(monkeypatch):
    for inst in [*_load_instances(312), *LARGE_LOADS]:
        for weights in ORDERED_WEIGHTS:
            _check_against_exhaustive(monkeypatch, "_scan_ordered_guesses",
                                      lambda: load.solve_ordered_makespan(inst, weights, 0.1),
                                      owner=load, reference=exhaustive.load_scan_ordered_guesses)


def test_load_top_non_integral_ell_matches_exhaustive(monkeypatch):
    """The flow leaves a non-integral ell to the LP, which the scan then
    solves for every probe.  The drivers reject such an ell (top_norm), so
    the scan is called directly, at the driver's grid eps for q = 1."""
    for inst in _load_instances(316):
        for ell in (1.5, 2.5):
            _check_against_exhaustive(monkeypatch, "_scan_top_guesses",
                                      lambda: load._scan_top_guesses(inst, ell, 1.0, 0.1 / 4.0),
                                      owner=load, reference=exhaustive.load_scan_top_guesses)


def test_load_lp_count(monkeypatch):
    """One 8x60 instance: the exhaustive scans solve 15 LPs at Top-(2,1)
    and 462 for an ordered norm."""
    inst = gen_load(5, machines=8, jobs=60, pmax=50, forbidden=0.1)
    calls = []
    solve = load.solve_lp
    monkeypatch.setattr(load, "solve_lp", lambda model: calls.append(1) or solve(model))
    load.solve_topl_makespan(inst, 2, 1.0, 0.1)
    top, calls[:] = len(calls), []
    load.solve_ordered_makespan(inst, ORDERED_WEIGHTS[1], 0.1)
    assert 0 < top <= 10 and 0 < len(calls) <= 40


def _tabled_load_lps(inst, top):
    """Like _tabled_lps, for the makespan relaxations: a Top guess is its
    threshold, a sequence guess its count key (which fixes its LP); top says
    which of the two the scan asks about.  The references' free-job fixing
    passes the key through, and the scans' expansion of the accepted
    solution reads it as the full model's.  The flow verdict looks the
    guess up in the same table, or in verdicts when one is given, and logs
    it like a solve."""
    m, n = inst.machines, inst.jobs
    sizes = inst.finite_sizes()

    def tabled(monkeypatch, table, log, verdicts=None):
        def solve_lp(key):
            log.append(key)
            s = table(*key)
            if s is None:
                return SimpleNamespace(status=INFEASIBLE, x=None)
            return SimpleNamespace(status=OPTIMAL, x=np.full(m * n + 1, s))

        def count_feasible(jobs, radius, thresholds, caps):
            guess = thresholds[0] if top else sequence_keys(sizes, [thresholds])[0]
            log.append((radius, guess))
            return (verdicts or table)(radius, guess) is not None

        monkeypatch.setattr(load, "_topl_load_min_bound_lp",
                            lambda inst, ell, q, radius, t, jobs=None: ((radius, t), 0))
        monkeypatch.setattr(load, "_ordered_load_min_bound_lp",
                            lambda inst, sparse, pos, radius, seq, jobs=None:
                            ((radius, sequence_keys(sizes, [seq.values])[0]), 0))
        monkeypatch.setattr(_load_builders, "_fix_free_jobs",
                            lambda inst, radius, lowest, built: built)
        monkeypatch.setattr(load, "_assignment_x",
                            lambda jobs, radius, lowest, x: x[: m * n].reshape(m, n))
        monkeypatch.setattr(load, "solve_lp", solve_lp)
        monkeypatch.setattr(load, "_count_feasible", count_feasible)
    return tabled


def test_load_top_scan_with_contradicting_verdicts(monkeypatch):
    rng = np.random.default_rng(313)
    planted = lured = 0
    for _ in range(30):
        inst = random_load(rng, m_hi=3, j_hi=5, pmax=12, forbidden=0.2)
        sizes = inst.finite_sizes()
        radii = load._feasible_radii(load._JobSizes(inst.p), sizes)
        thresholds = single_threshold_candidates(sizes)
        table = _top_table(rng, radii, mass=60.0)
        ell, q = _top_params(rng)
        tabled = _tabled_load_lps(inst, top=True)
        pair = (load._scan_top_guesses, exhaustive.load_scan_top_guesses)

        def scan(impl):
            return impl(inst, ell, q, 0.05)

        (new, ref), log = _scan_both(monkeypatch, table, scan, tabled, pair)
        assert _same(new, ref)
        for hole, lure in _visit_holes(log, table, thresholds) + _staircase_holes(log, table):
            (new, ref), _ = _scan_both(monkeypatch, _planted(table, hole, lure), scan,
                                       tabled, pair)
            assert _same(new, ref), (hole, lure)
            planted += 1
            lured += lure is not None
    assert planted >= 40 and lured >= 10


def _ordered_load_table(rng, weights=None, inst=None):
    """(instance, sparsified weights, kept coordinates, w1, table) with a table
    monotone in the count key, or None for weights that sparsify to zero;
    a random instance and random weights unless given."""
    inst = inst or random_load(rng, m_hi=3, j_hi=6, pmax=12)
    sizes = inst.finite_sizes()
    sparse, pos = sparsify_weights(weights or random_max_ordered_weights(rng), inst.jobs)
    wtop = max(float(w[0]) for w in sparse)
    if wtop == 0.0:
        return None
    cap = rng.uniform(0.0, 1.0) * len(sizes) * len(pos.indices)
    a, b = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)

    def table(radius, counts):
        if sum(counts) > cap * radius / sizes[-1]:
            return None
        return radius * wtop * (a + b * sum(counts) / (len(sizes) * len(counts)))
    return inst, sparse, pos, wtop, table


def test_load_ordered_scan_with_contradicting_verdicts(monkeypatch):
    """Tables monotone in the count key, then a guess the search solves
    made infeasible although a guess counting at least as much everywhere
    was feasible: the row is searched again without skipping, which finds
    a lure planted among the skipped guesses."""
    rng = np.random.default_rng(314)
    planted = changed = 0
    for _ in range(30):
        case = _ordered_load_table(rng)
        if case is None:
            continue
        inst, sparse, pos, wtop, table = case
        tabled = _tabled_load_lps(inst, top=False)
        pair = (load._scan_ordered_guesses, exhaustive.load_scan_ordered_guesses)

        def scan(impl):
            return impl(inst, sparse, pos, wtop, 0.1)

        (base, ref), log = _scan_both(monkeypatch, table, scan, tabled, pair)
        assert _same(base, ref)
        for k, (radius, counts) in enumerate(log):
            covering = [c for r, c in log[:k] if r == radius and c != counts
                        and table(r, c) is not None and all(map(int.__ge__, c, counts))]
            if not covering or table(radius, counts) is None:
                continue
            lures = [c for r, c in _row_keys(inst, radius) if (r, c) not in log
                     and any(all(map(int.__ge__, c, bad)) for rr, bad in log
                             if rr == radius and table(rr, bad) is None)]
            for lure in [None] + lures[:1]:
                lure = lure and (radius, lure)
                (new, ref), _ = _scan_both(monkeypatch,
                                           _planted(table, (radius, counts), lure),
                                           scan, tabled, pair)
                assert _same(new, ref), ((radius, counts), lure)
                planted += 1
                changed += not _same(new, base)
    assert planted >= 50 and changed >= 10


def _key_and_sequence_visits(monkeypatch, owner, tabled, table, scan):
    """scan() under the table with owner's scan_sequence_rows, then with the
    per-sequence reference: the two (outcome, log) pairs."""
    runs = []
    for rows in (owner.scan_sequence_rows, sequence_scan_rows):
        log = []
        tabled(monkeypatch, table, log)
        monkeypatch.setattr(owner, "scan_sequence_rows", rows)
        try:
            runs.append((scan(), log))
        except MaxNormError as exc:
            runs.append(((type(exc), str(exc)), log))
        monkeypatch.undo()
    return runs


def test_key_visits_solve_what_sequence_visits_solve(monkeypatch):
    """Visiting each count key at its first sequence and taking its best
    sequence at once solves the same LPs and asks the same verdicts, in the
    same order, as visiting every sequence, and accepts the same guess.
    Makespan tables on 6-16 jobs of 2-4 distinct sizes, so that a count
    key holds many sequences, over random weights and over weights with
    equal neighbouring entries, whose sequences of one count key tie on
    their chain; k-center tables over tied weights, whose sequences tie on
    their lower key.  Each also runs with every guess it logs made
    infeasible in turn, which plants contradictions."""
    rng = np.random.default_rng(324)
    compared = 0
    for k in range(24):
        weights = [None, [(1.0,) * 16], *TIED_WEIGHTS][k % 5]
        inst = gen_load(int(rng.integers(0, 10 ** 6)), machines=int(rng.integers(1, 4)),
                        jobs=int(rng.integers(6, 17)), pmax=int(rng.integers(2, 5)))
        case = _ordered_load_table(rng, weights, inst)
        if case is None:
            continue
        inst, sparse, pos, wtop, table = case
        tabled = _tabled_load_lps(inst, top=False)

        def scan():
            return load._scan_ordered_guesses(inst, sparse, pos, wtop, 0.1)

        (new, log), (ref, ref_log) = _key_and_sequence_visits(monkeypatch, load, tabled, table,
                                                               scan)
        assert _same(new, ref) and log == ref_log
        for hole in dict.fromkeys(log):
            (new, hole_log), (ref, ref_log) = _key_and_sequence_visits(
                monkeypatch, load, tabled, _planted(table, hole), scan)
            assert _same(new, ref) and hole_log == ref_log, hole
            compared += 1
    for _ in range(12):
        core = core_of(random_cluster(rng, nc_hi=5, nf_hi=5))
        radii = sorted(set(core.distances()) | {0.0})
        first = radii[int(rng.integers(0, len(radii)))]
        frac, a, b = rng.uniform(0.0, 1.0), rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0)
        top = max(radii)

        def table(radius, seq):
            if radius < first or radius == 0.0:
                return None
            if not isinstance(seq, ThresholdSequence):
                return 0.0  # the Top scan a zero objective falls back to
            mean = sum(seq.values) / len(seq.values)
            return None if mean < frac * top else radius * (a - b * mean / top)

        weights = TIED_WEIGHTS[int(rng.integers(0, len(TIED_WEIGHTS)))]

        def scan():
            return cluster._scan_ordered_guesses(core, weights, 0.1)

        def tabled(monkeypatch, table, log):
            _ordered_tabled_lps(monkeypatch, table, log)

        (new, log), (ref, ref_log) = _key_and_sequence_visits(monkeypatch, cluster, tabled, table,
                                                               scan)
        assert _same(new, ref) and log == ref_log
        for hole in list(dict.fromkeys(log))[:8]:
            (new, hole_log), (ref, ref_log) = _key_and_sequence_visits(
                monkeypatch, cluster, tabled, _planted(table, hole), scan)
            assert _same(new, ref) and hole_log == ref_log, hole
            compared += 1
    assert compared >= 100, compared


def test_key_visits_match_sequence_visits_on_synthetic_rows():
    """The same on synthetic rows: count keys of 1-3 coordinates drawn from
    a few values, so that keys hold many sequences; chains from a few
    values, so that sequences of one key, and first sequences of two keys,
    tie; radii 1.5^k apart, so that a bound on one radius's grid can equal
    a later radius's floor; verdicts monotone in the radius and the key,
    some flipped to plant contradictions, some left to the LP."""
    rng = np.random.default_rng(325)
    compared = ties = 0
    for _ in range(300):
        radii = [1.5 ** k for k in range(int(rng.integers(1, 5)))]
        width, n = int(rng.integers(1, 4)), int(rng.integers(1, 40))
        rows = {ri: (rng.integers(0, 3, size=(n, width)),
                     rng.integers(0, 3, size=n) * radius / 2) for ri, radius in enumerate(radii)}
        caps = np.cumsum(rng.integers(0, 3, size=len(radii)))
        a, b = rng.uniform(0.0, 1.5), rng.uniform(0.0, 1.0)
        flips = set(rng.integers(0, 40, size=3).tolist())
        grid = rng.random() < 0.7

        def row(ri):
            keys, extra = rows[ri]
            return guess.SequenceRow(keys, lambda bound, sidx: 2 * bound + extra[sidx],
                                     lambda sidx: (ri, sidx))

        def run(scan):
            log = []

            def solve(model):
                ri, key = model
                log.append(("solve", ri, key))
                feasible = (sum(key) <= caps[ri]) != (hash((ri, key)) % 40 in flips)
                s = radii[ri] * (a + b * sum(key))
                return SimpleNamespace(status=OPTIMAL if feasible else INFEASIBLE,
                                       x=np.array([s]))

            def verdict(ri, key):
                log.append(("verdict", ri, key))
                return None if sum(key) % 2 else sum(key) <= caps[ri]

            lps = guess.GuessLPs(lambda ri, key: ((ri, key), 0), solve, verdict)
            found = scan(lps, radii, 1.0, (lambda radius: geometric_grid(radius, 8 * radius, 0.5))
                         if grid else None, row)
            return found, log

        (new, log), (ref, ref_log) = run(guess.scan_sequence_rows), run(sequence_scan_rows)
        assert _same(new, ref) and log == ref_log
        compared += 1
        if new is not None:
            keys, extra = rows[new[0][2]]
            same_key = (keys == keys[new[0][3]]).all(axis=1)
            ties += int(np.sum(same_key & (extra == extra[new[0][3]]))) > 1
    assert compared == 300 and ties >= 30, ties


def test_load_top_scan_when_the_lp_refutes_a_feasible_verdict(monkeypatch):
    """The flow says feasible where the LP says infeasible, on a guess the
    search solves because its row visit reads it, and a lure that only the
    LP finds feasible sits below the row's start, where only visit(0) looks.
    The row must go back to visit(0) and accept what the exhaustive scan
    accepts."""
    rng = np.random.default_rng(315)
    planted = changed = 0
    for _ in range(30):
        inst = random_load(rng, m_hi=3, j_hi=5, pmax=12, forbidden=0.2)
        sizes = inst.finite_sizes()
        radii = load._feasible_radii(load._JobSizes(inst.p), sizes)
        thresholds = single_threshold_candidates(sizes)
        table = _top_table(rng, radii, mass=60.0)
        ell, q = _top_params(rng)
        tabled = _tabled_load_lps(inst, top=True)
        pair = (load._scan_top_guesses, exhaustive.load_scan_top_guesses)

        def scan(impl):
            return impl(inst, ell, q, 0.05)

        def refuted(monkeypatch, lp_table, log):
            tabled(monkeypatch, lp_table, log, verdicts=table)

        (base, _), log = _scan_both(monkeypatch, table, scan, tabled, pair)
        for hole, lure in _visit_holes(log, table, thresholds):
            (new, ref), _ = _scan_both(monkeypatch, _planted(table, hole, lure), scan,
                                       refuted, pair)
            assert _same(new, ref), (hole, lure)
            planted += 1
            changed += not _same(new, base)
    assert planted >= 20 and changed >= 5, (planted, changed)


def test_load_ordered_scan_when_the_lp_refutes_a_feasible_verdict(monkeypatch):
    """The flow says feasible where the LP says infeasible, on a sequence
    that a feasible one of its row covers, and a lure that only the LP finds
    feasible sits among the sequences the flow rules out.  The row must be
    searched again with prune=False, which solves what it reaches whatever
    the flow says, and accept what the exhaustive scan accepts."""
    rng = np.random.default_rng(317)
    planted = changed = 0
    for _ in range(30):
        case = _ordered_load_table(rng)
        if case is None:
            continue
        inst, sparse, pos, wtop, table = case
        tabled = _tabled_load_lps(inst, top=False)
        pair = (load._scan_ordered_guesses, exhaustive.load_scan_ordered_guesses)
        prunes = []

        def scan(impl):
            return impl(inst, sparse, pos, wtop, 0.1)

        def refuted(monkeypatch, lp_table, log):
            tabled(monkeypatch, lp_table, log, verdicts=table)
            row = guess.scan_sequence_row
            monkeypatch.setattr(guess, "scan_sequence_row", lambda *args, **kwargs:
                                prunes.append(kwargs.get("prune", True)) or row(*args, **kwargs))

        (base, _), log = _scan_both(monkeypatch, table, scan, tabled, pair)
        for k, (radius, counts) in enumerate(log):
            if table(radius, counts) is None or log.index((radius, counts)) != k:
                continue
            if not any(r == radius and c != counts and table(r, c) is not None
                       and all(map(int.__ge__, c, counts)) for r, c in log[:k]):
                continue
            lures = [c for r, c in _row_keys(inst, radius) if table(r, c) is None]
            for lure in [None] + lures[:1]:
                lure = lure and (radius, lure)
                prunes.clear()
                (new, ref), _ = _scan_both(monkeypatch, _planted(table, (radius, counts), lure),
                                           scan, refuted, pair)
                assert _same(new, ref), ((radius, counts), lure)
                assert False in prunes
                planted += 1
                changed += not _same(new, base)
    assert planted >= 20 and changed >= 5, (planted, changed)


def test_load_top_lp_count_is_the_lps_read(monkeypatch):
    """The 8x60 instance of test_load_lp_count: the flow answers every probe,
    so Top-(2,1) solves only the LP whose solution it accepts."""
    inst = gen_load(5, machines=8, jobs=60, pmax=50, forbidden=0.1)
    statuses = []
    solve = load.solve_lp
    monkeypatch.setattr(load, "solve_lp",
                        lambda model: statuses.append(solve(model)) or statuses[-1])
    load.solve_topl_makespan(inst, 2, 1.0, 0.1)
    assert [sol.status for sol in statuses] == [OPTIMAL]


def _row_keys(inst, radius):
    sizes = inst.finite_sizes()
    seqs = list(load.enumerate_threshold_sequences(radius, inst.jobs))
    return {(radius, key) for key in sequence_keys(sizes, [seq.values for seq in seqs])}


# ---------------------------------------------------------------------------
# Top rows through the merged scan against the staircase scan


def _top_cases(rng):
    """One random tabled Top case: (owner module, tabled harness, table,
    thresholds, the merged scan, the staircase reference), for k-center,
    the knapsack residual or makespan, drawn in turn."""
    kind = int(rng.integers(0, 3))
    ell, q = _top_params(rng)
    if kind == 2:
        inst = random_load(rng, m_hi=3, j_hi=5, pmax=12, forbidden=0.2)
        sizes = inst.finite_sizes()
        radii = load._feasible_radii(load._JobSizes(inst.p), sizes)
        table = _top_table(rng, radii, mass=60.0)
        return (load, _tabled_load_lps(inst, top=True), table, single_threshold_candidates(sizes),
                lambda: load._scan_top_guesses(inst, ell, q, 0.05),
                lambda: _top_scan.load_scan_top_guesses(inst, ell, q, 0.05))
    core = _zero_weight_core(random_cluster(rng, nc_hi=3, nf_hi=4))
    radii = sorted(set(core.distances()) | {0.0})
    if kind == 0:
        return (cluster, _tabled_lps, _top_table(rng, radii), radii,
                lambda: cluster._scan_top_guesses(core, ell, q, 0.1),
                lambda: _top_scan.center_scan_top_guesses(core, ell, q, 0.1))
    radius, nf = radii[int(rng.integers(0, len(radii)))], core.n_facilities
    args = (core, list(range(nf)), 1.0, (0,) * core.n_clients, radius,
            top_norm(ell, q), single_threshold_candidates(core.distances()))
    return (cluster, _tabled_lps, _top_table(rng, radii, mass=10.0), radii,
            lambda: cluster._residual_guess(*args, None),
            lambda: _top_scan.residual_top_guess(*args))


def _run_top(monkeypatch, owner, tabled, table, verdicts, scan):
    """scan() under the LP table and the verdict table: its outcome, the
    guesses solved and asked (log), the LPs solved, and whether a row
    bisection skipped keys and a row was searched again."""
    log, solved, seen = [], [], Counter()
    tabled(monkeypatch, table, log, verdicts=verdicts)
    solve, start, row = owner.solve_lp, guess._chain_start, guess.scan_sequence_row

    def chain_start(*args):
        found = start(*args)
        seen["bisected"] += found[0] > 0
        return found

    def scan_row(*args, **kwargs):
        seen["searched again"] += not kwargs.get("prune", True)
        return row(*args, **kwargs)

    monkeypatch.setattr(owner, "solve_lp", lambda key: solved.append(key) or solve(key))
    monkeypatch.setattr(guess, "_chain_start", chain_start)
    monkeypatch.setattr(guess, "scan_sequence_row", scan_row)
    try:
        out = scan()
    except MaxNormError as exc:
        out = (type(exc), str(exc))
    monkeypatch.undo()
    return out, log, solved, seen


def top_row_comparisons(monkeypatch, seed=326, cases=150):
    """Per table, ((merged outcome, LPs, seen), (reference outcome, LPs)).
    Each random case gives its monotone table, then up to two with a hole
    from the reference's log: one its visits or staircase meet, and one
    whose LP refutes a feasible verdict (_visit_holes, _staircase_holes and
    _refuted_holes, each with its lure where it has one)."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        owner, tabled, table, thresholds, new, ref = _top_cases(rng)
        base = _run_top(monkeypatch, owner, tabled, table, None, ref)[1]
        reached = set(_run_top(monkeypatch, owner, tabled, table, None, new)[1])
        planted = [(_planted(table, *pair), None) for pair in
                   _visit_holes(base, table, thresholds) + _staircase_holes(base, table)
                   if pair[0] in reached]
        refuted = [(_planted(table, *pair), table)
                   for pair in _refuted_holes(base, table, thresholds) if pair[0] in reached]
        variants = [(table, None)]
        for group in (planted, refuted):
            if group:
                variants.append(group[int(rng.integers(0, len(group)))])
        for lp_table, verdicts in variants:
            mine = _run_top(monkeypatch, owner, tabled, lp_table, verdicts, new)
            theirs = _run_top(monkeypatch, owner, tabled, lp_table, verdicts, ref)
            yield (mine[0], mine[2], mine[3]), (theirs[0], theirs[2])


def test_top_rows_match_the_staircase_scan(monkeypatch):
    """The merged scan on Top rows accepts the guess the staircase scan it
    replaced accepts (tests/_top_scan.py) on k-center, knapsack residual and
    makespan tables, monotone and with holes planted from the staircase
    scan's log, and solves no more LPs over them all.  The merged scan's
    chain bisection skips keys on many tables, and some rows meet a
    contradiction and are searched again."""
    tables = mine_lps = their_lps = 0
    seen = Counter()
    for (new, lps, events), (ref, ref_lps) in top_row_comparisons(monkeypatch):
        assert _same(new, ref), tables
        tables += 1
        mine_lps, their_lps = mine_lps + len(lps), their_lps + len(ref_lps)
        seen["bisected"] += events["bisected"] > 0
        seen["searched again"] += events["searched again"] > 0
    assert tables >= 300 and mine_lps <= their_lps, (tables, mine_lps, their_lps)
    assert seen["bisected"] >= 100 and seen["searched again"] >= 30, seen
