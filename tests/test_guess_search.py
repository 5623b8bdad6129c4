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
from _gen import random_cluster, random_load, random_max_ordered_weights
from maxnorm import cluster, guess, load
from maxnorm.cluster import (core_of, solve_knapsack_center, solve_matroid_center,
                             solve_ordered_kcenter, solve_topl_kcenter)
from maxnorm.errors import MaxNormError
from maxnorm.generators import gen_cluster, gen_knapsack_cluster, gen_load, gen_matroid_cluster
from maxnorm.instances import ClusterInstance
from maxnorm.lp import INFEASIBLE, OPTIMAL
from maxnorm.norms import max_ordered_norm, top_norm
from maxnorm.sparsify import ThresholdSequence, single_threshold_candidates, sparsify_weights

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


def test_kcenter_radius_bisection_solves_no_lp_but_at_first(monkeypatch):
    """On an 8x8 Euclidean instance with l_j = 1, the LP-free verdict decides
    every radius the bisection probes, except at most the first feasible
    one: no other weakest LP is solved there."""
    base = gen_cluster(0, clients=8, facilities=8, k=3, metric="euclidean")
    inst = ClusterInstance(n_clients=8, n_facilities=8, d=base.d, k=3, m=8,
                           l=np.ones(8, int), r=base.r)
    built, bisections = [], []
    build, bisect = cluster._center_lp, guess.first_true

    def first_true(pred, lo, hi):
        start = len(built)
        found = bisect(pred, lo, hi)
        bisections.append((built[start:], found))
        return found

    monkeypatch.setattr(cluster, "_center_lp", lambda core, budget, spec, radius, **kwargs:
                        built.append(radius) or build(core, budget, spec, radius, **kwargs))
    monkeypatch.setattr(guess, "first_true", first_true)
    solve_topl_kcenter(inst, 2, 1.0, 0.1)
    radii = sorted(set(core_of(inst).distances()) | {0.0})
    probed, first = bisections[0]  # the scan's first bisection is over the radii
    assert 0 < first < len(radii) and set(probed) <= {radii[first]}
    assert built  # the accepted guess is still solved


# ---------------------------------------------------------------------------
# verdicts from a table


def _top_weakest(core, radius):
    """The weakest Top guess of a radius: its largest threshold."""
    thresholds = single_threshold_candidates(core.distances())
    return thresholds[guess.weakest_thresholds([radius], thresholds)[0]]


def _ordered_weakest(core, radius):
    """The weakest guess of an ordered scan's radius: the sequence with every
    threshold at R, or radius 0's threshold 0."""
    seq = next(iter(cluster._sequences(radius, max(core.r0, 1))))
    return 0.0 if seq is None else seq


def _tabled_lps(monkeypatch, table, log, verdicts=None, weakest=_top_weakest):
    """Make every relaxation a lookup: table(radius, guess) is the minimized
    s, or None for an infeasible guess; a guess is the Top threshold or the
    threshold sequence.  The LP-free verdict on a radius's weakest guess,
    weakest(core, radius), looks it up in the same table, or in verdicts
    when one is given.  log records the guesses solved and the verdicts
    asked, in order."""
    def center_lp(core, budget, normspec, radius, **kwargs):
        return (radius, normspec[3]), 0

    def solve_lp(key):
        log.append(key)
        s = table(*key)
        if s is None:
            return SimpleNamespace(status=INFEASIBLE, x=None)
        return SimpleNamespace(status=OPTIMAL, x=np.array([s]))

    def cover_verdict(core, budget, radius, coverage):
        key = (radius, weakest(core, radius))
        log.append(key)
        return (verdicts or table)(*key) is not None

    monkeypatch.setattr(cluster, "_center_lp", center_lp)
    monkeypatch.setattr(cluster, "solve_lp", solve_lp)
    monkeypatch.setattr(cluster, "_cover_verdict", cover_verdict)
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
            return module._scan_ordered_guesses(core, (cluster.CARDINALITY, 1), weights, 0.1)

        (base, ref), log = _scan_both(monkeypatch, table, scan, _ordered_tabled_lps)
        assert _same(base, ref)
        for k, (radius, seq) in enumerate(log):
            if not isinstance(seq, ThresholdSequence) or table(radius, seq) is None \
                    or log.index((radius, seq)) != k:
                continue
            if not any(r <= radius and isinstance(s, ThresholdSequence) and table(r, s) is not None
                       and s != seq and _covers(s, seq) for r, s in log[:k]):
                continue
            lures = [s for s in cluster._sequences(radius, r0)
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
            return module._scan_top_guesses(core, (cluster.CARDINALITY, 1), ell, q, 0.1)

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
            return module._scan_ordered_guesses(core, (cluster.CARDINALITY, 1), weights, 0.1)

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
            lures = [s for s in cluster._sequences(radius, r0)
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


def test_load_ordered_matches_exhaustive(monkeypatch):
    for inst in _load_instances(312):
        for weights in ORDERED_WEIGHTS:
            _check_against_exhaustive(monkeypatch, "_scan_ordered_guesses",
                                      lambda: load.solve_ordered_makespan(inst, weights, 0.1),
                                      owner=load, reference=exhaustive.load_scan_ordered_guesses)


def test_load_top_non_integral_ell_matches_exhaustive(monkeypatch):
    """The flow leaves a non-integral ell to the LP, which the scan then
    solves for every probe."""
    for inst in _load_instances(316):
        for ell in (1.5, 2.5):
            _check_against_exhaustive(monkeypatch, "_scan_top_guesses",
                                      lambda: load.solve_topl_makespan(inst, ell, 1.0, 0.1),
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
    which of the two the scan asks about.  The flow verdict looks the guess
    up in the same table, or in verdicts when one is given, and logs it
    like a solve."""
    m, n = inst.machines, inst.jobs
    sizes = inst.finite_sizes()

    def tabled(monkeypatch, table, log, verdicts=None):
        def solve_lp(key):
            log.append(key)
            s = table(*key)
            if s is None:
                return SimpleNamespace(status=INFEASIBLE, x=None)
            return SimpleNamespace(status=OPTIMAL, x=np.full(m * n + 1, s))

        def count_feasible(inst, radius, thresholds, caps):
            guess = thresholds[0] if top else load._sequence_keys(sizes, [thresholds])[0]
            log.append((radius, guess))
            return (verdicts or table)(radius, guess) is not None

        monkeypatch.setattr(load, "_topl_load_min_bound_lp",
                            lambda inst, ell, q, radius, t: ((radius, t), 0))
        monkeypatch.setattr(load, "_ordered_load_min_bound_lp",
                            lambda inst, sparse, pos, radius, seq:
                            ((radius, load._sequence_keys(sizes, [seq.values])[0]), 0))
        monkeypatch.setattr(load, "solve_lp", solve_lp)
        monkeypatch.setattr(load, "_count_feasible", count_feasible)
    return tabled


def test_load_top_scan_with_contradicting_verdicts(monkeypatch):
    rng = np.random.default_rng(313)
    planted = lured = 0
    for _ in range(30):
        inst = random_load(rng, m_hi=3, j_hi=5, pmax=12, forbidden=0.2)
        sizes = inst.finite_sizes()
        radii = load._feasible_radii(inst, sizes)
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


def _ordered_load_table(rng):
    """(instance, sparsified weights, kept coordinates, w1, table) with a table
    monotone in the count key, or None for weights that sparsify to zero."""
    inst = random_load(rng, m_hi=3, j_hi=6, pmax=12)
    sizes = inst.finite_sizes()
    sparse, pos = sparsify_weights(random_max_ordered_weights(rng), inst.jobs)
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
        radii = load._feasible_radii(inst, sizes)
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
    return {(radius, key) for key in load._sequence_keys(sizes, [seq.values for seq in seqs])}
