"""The monotone guess search accepts exactly what the exhaustive scan accepts.

`_exhaustive_scans` keeps the one-LP-per-guess scans as the reference.  The
first tests run both on seeded random instances with real LPs; the last ones
replace the LP by a table of verdicts, so that verdicts contradicting
monotonicity can be planted where the search is bound to see them.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np

import _exhaustive_scans as exhaustive
from _gen import random_cluster, random_max_ordered_weights
from maxnorm import cluster
from maxnorm.cluster import (core_of, solve_knapsack_center, solve_matroid_center,
                             solve_ordered_kcenter, solve_topl_kcenter)
from maxnorm.errors import MaxNormError
from maxnorm.generators import gen_cluster, gen_knapsack_cluster, gen_matroid_cluster
from maxnorm.lp import INFEASIBLE, OPTIMAL
from maxnorm.norms import max_ordered_norm, top_norm

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


def _check_against_exhaustive(monkeypatch, scan_name, solve):
    """Run solve() with the monotone scan, then with the exhaustive one: what
    every scan call returned, and the final result, must agree exactly."""
    runs = []
    for impl in (getattr(cluster, scan_name), getattr(exhaustive, scan_name)):
        outputs = []

        def recorded(*args, impl=impl, outputs=outputs, **kwargs):
            try:
                out = impl(*args, **kwargs)
            except MaxNormError as exc:
                outputs.append((type(exc), str(exc)))
                raise
            outputs.append(out)
            return out

        monkeypatch.setattr(cluster, scan_name, recorded)
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


def test_top_kcenter_lp_count(monkeypatch):
    """One 8x8 Top-(2,1) instance: the exhaustive scan solves 194 LPs on it."""
    inst = gen_cluster(3, clients=8, facilities=8, k=3, metric="random", coverage=8,
                       lmax=1, rmax=2)
    calls = []
    solve = cluster.solve_lp
    monkeypatch.setattr(cluster, "solve_lp", lambda model: calls.append(1) or solve(model))
    solve_topl_kcenter(inst, 2, 1.0, 0.1)
    assert 0 < len(calls) <= 40


# ---------------------------------------------------------------------------
# verdicts from a table


def _tabled_lps(monkeypatch, table, log):
    """Make every relaxation a lookup: table(radius, guess) is the minimized
    s, or None for an infeasible guess; a guess is the Top threshold or the
    threshold sequence.  log records the guesses solved, in order."""
    def center_lp(core, budget, normspec, radius, **kwargs):
        return (radius, normspec[3]), 0

    def solve_lp(key):
        log.append(key)
        s = table(*key)
        if s is None:
            return SimpleNamespace(status=INFEASIBLE, x=None)
        return SimpleNamespace(status=OPTIMAL, x=np.array([s]))

    monkeypatch.setattr(cluster, "_center_lp", center_lp)
    monkeypatch.setattr(cluster, "solve_lp", solve_lp)
    monkeypatch.setattr(cluster, "_lp_parts", lambda core, x: float(x[0]))


def _scan_both(monkeypatch, table, scan):
    """scan(module) under the table for the search and for the reference;
    returns the two outcomes and the guesses the search solved."""
    outcomes, log = [], []
    for module, sink in ((cluster, log), (exhaustive, [])):
        _tabled_lps(monkeypatch, table, sink)
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
            return module._scan_top_guesses(core, (cluster.CARDINALITY, 1), ell, q, 0.1)

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
        core = core_of(random_cluster(rng, nc_hi=3, nf_hi=4))
        radii = sorted(set(core.distances()) | {0.0})
        radius = radii[int(rng.integers(0, len(radii)))]
        table = _top_table(rng, radii, mass=10.0)  # s large enough not to stop the walk
        norm = top_norm(*_top_params(rng))
        nf = core.n_facilities
        pre = (0,) * core.n_clients

        def scan(module):
            return module._residual_guess(core, list(range(nf)), np.zeros(nf), 1.0, pre,
                                          None, radius, norm)

        (new, ref), log = _scan_both(monkeypatch, table, scan)
        assert _same(new, ref)
        for hole, lure in _visit_holes(log, table, radii):
            (new, ref), _ = _scan_both(monkeypatch, _planted(table, hole, lure), scan)
            assert _same(new, ref), (hole, lure)
            planted += 1
            lured += lure is not None
    assert planted >= 10 and lured >= 5


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
            return module._scan_ordered_guesses(core, (cluster.CARDINALITY, 1), weights, 0.1)

        (new, ref), log = _scan_both(monkeypatch, table, scan)
        assert _same(new, ref)
        # all-R sequences solved once some row's other sequences were reached
        opened = [k for k, (radius, seq) in enumerate(log)
                  if radius > 0 and len(set(seq.values)) > 1]
        holes = [(radius, seq) for radius, seq in log[opened[0]:] if radius > 0
                 and len(set(seq.values)) == 1 and table(radius, seq) is not None] \
            if opened else []
        for hole in holes:
            (new, ref), _ = _scan_both(monkeypatch, _planted(table, hole), scan)
            assert _same(new, ref), hole
            planted += 1
    assert planted >= 10
