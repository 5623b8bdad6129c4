import math

import numpy as np
import pytest

from _gen import random_load, random_max_ordered_weights, random_weight_vector
from _threshold_helpers import covering_threshold_sequence, prev_index
from maxnorm.errors import InvalidInputError
from maxnorm.instances import ClusterInstance, LoadInstance
from maxnorm.norms import max_ordered_norm, eval_norm, top_norm
from maxnorm.oracle import brute_force_makespan
from maxnorm.sparsify import (enumerate_threshold_sequences, geometric_grid,
                              pos_set, single_threshold_candidates, snap_to_grid,
                              sparsified_gap_bound, sparsified_gap_bounds, sparsify_weights,
                              threshold_support, ThresholdSequence)


def test_pos_set_examples():
    assert pos_set(5).indices == (1, 2, 4, 5)
    assert pos_set(8).indices == (1, 2, 4, 8)
    one = pos_set(1)
    assert one.indices == (1,)
    assert one.next_index(1) == 2
    assert pos_set(5).next_index(3) == 4
    assert prev_index(pos_set(5), 4) == 2
    assert prev_index(pos_set(5), 1) == 0


def test_pos_set_is_logarithmic():
    for n in range(1, 300):
        assert len(pos_set(n).indices) <= math.ceil(math.log2(n)) + 1 if n > 1 else 1


def test_sparsify_examples():
    sw, _ = sparsify_weights([(4, 3, 2, 1, 0.5)], 5)
    assert sw[0].tolist() == [4, 3, 1, 1, 0.5]
    sw, _ = sparsify_weights([(2, 2, 2, 2)], 4)
    assert sw[0].tolist() == [2, 2, 2, 2]


def test_sparsify_rejects_non_monotone():
    with pytest.raises(InvalidInputError):
        sparsify_weights([(1, 2)], 2)


def test_sparsified_vectors_block_structure():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        w = random_weight_vector(rng, int(rng.integers(1, n + 1)))
        sw, pos = sparsify_weights([w], n)
        v = sw[0]
        assert all(v[t] >= v[t + 1] - 1e-15 for t in range(n - 1))
        for t in range(1, n + 1):  # constant between consecutive kept indices
            if t not in pos.indices:
                assert v[t - 1] == v[pos.next_index(t) - 1]


def test_sandwich_small_sample():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        w = random_weight_vector(rng, int(rng.integers(1, n + 1)))
        sw, _ = sparsify_weights([w], n)
        full = max_ordered_norm([w])
        flat = max_ordered_norm([tuple(sw[0])])
        v = rng.uniform(0, 10, size=n)
        lo, hi = eval_norm(flat, v), eval_norm(full, v)
        assert lo <= hi <= 2 * lo


def test_geometric_grid_examples():
    assert geometric_grid(1, 1, 0.5) == [1.0]
    assert geometric_grid(1, 4, 1.0) == [1.0, 2.0, 4.0]
    with pytest.raises(InvalidInputError):
        geometric_grid(0, 1, 0.5)
    nan, inf = float("nan"), float("inf")
    for args in ((nan, 1, 0.5), (1, nan, 0.5), (1, 2, nan), (1, inf, 0.5), (1, 2, inf)):
        with pytest.raises(InvalidInputError):
            geometric_grid(*args)


def test_grid_coverage():
    rng = np.random.default_rng(6)
    for _ in range(100):
        lo = float(rng.uniform(0.1, 5))
        hi = lo * float(rng.uniform(1, 50))
        eps = float(rng.uniform(0.01, 1.0))
        grid = geometric_grid(lo, hi, eps)
        x = float(rng.uniform(lo, hi))
        b = snap_to_grid(grid, x)
        assert b is not None and x - 1e-9 <= b < (1 + eps) * x


def test_threshold_candidates():
    from maxnorm.instances import LoadInstance

    inst = LoadInstance(p=np.array([[1.0, 2.0], [2.0, 3.0]]))
    assert single_threshold_candidates(inst.finite_sizes()) == [0.0, 1.0, 2.0, 3.0]
    const = LoadInstance(p=np.full((2, 2), 7.0))
    assert single_threshold_candidates(const.finite_sizes()) == [0.0, 7.0]


def test_finite_values_match_the_set_version():
    """finite_sizes and finite_distances equal sorted(set(float(v) ...)) over
    the finite entries, with inf sizes, ties and a signed zero."""
    def by_set(values):
        return sorted(set(float(v) for v in values))

    rng = np.random.default_rng(13)
    saw_inf = saw_tie = False
    for _ in range(30):
        inst = random_load(rng, m_hi=5, j_hi=9, pmax=4, forbidden=0.3)
        finite = inst.p[np.isfinite(inst.p)]
        saw_inf |= finite.size < inst.p.size
        sizes = inst.finite_sizes()
        saw_tie |= len(sizes) < finite.size
        assert sizes == by_set(finite)
        assert all(type(v) is float for v in sizes)
        nc, nf = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        pts = rng.integers(0, 3, size=(nc + nf, 2)).astype(float)
        d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(-1)  # grid L1 metric: many ties
        cl = ClusterInstance(n_clients=nc, n_facilities=nf, d=d, k=1, m=0,
                             l=np.zeros(nc, int), r=np.ones(nc, int))
        distances = cl.finite_distances()
        assert distances == by_set(cl.cf.ravel())
        assert all(type(v) is float for v in distances)
    assert saw_inf and saw_tie
    signed = LoadInstance(p=np.array([[-0.0, 2.0, np.inf], [2.0, 0.0, 1.0]])).finite_sizes()
    assert signed == [0.0, 1.0, 2.0] and math.copysign(1.0, signed[0]) == 1.0


def test_threshold_candidates_contain_optimal_threshold():
    rng = np.random.default_rng(7)
    for _ in range(20):
        inst = random_load(rng, m_hi=3, j_hi=4)
        opt = brute_force_makespan(inst, top_norm(2, 1))
        cands = single_threshold_candidates(inst.finite_sizes())
        assert opt.thresholds[1] in cands


def test_sequence_enumeration_examples():
    seqs = [s.values for s in enumerate_threshold_sequences(1.0, 2)]
    assert seqs == [(1.0, 1.0), (1.0, 0.5)]
    assert [s.values for s in enumerate_threshold_sequences(3.0, 1)] == [(3.0,)]
    assert threshold_support(8.0, 6) == (8.0, 4.0, 2.0, 8.0 / 6.0)


def test_sequence_count_is_polynomial():
    for n in (4, 8, 16, 32):
        count = sum(1 for _ in enumerate_threshold_sequences(1.0, n))
        support = len(threshold_support(1.0, n))
        tail = len(pos_set(n).indices) - 1
        assert count == math.comb(support + tail - 1, tail)


def test_some_emitted_sequence_covers_the_optimum():
    rng = np.random.default_rng(8)
    for _ in range(12):
        inst = random_load(rng, m_hi=3, j_hi=5)
        w = random_weight_vector(rng, inst.jobs)
        opt = brute_force_makespan(inst, max_ordered_norm([w]))
        radius = opt.thresholds[0]
        if radius <= 0:
            continue
        n = inst.jobs
        tstar = {ell: opt.thresholds[ell - 1] for ell in pos_set(n).indices}
        cover = covering_threshold_sequence(radius, n, tstar)
        emitted = {s.values for s in enumerate_threshold_sequences(radius, n)}
        assert cover.values in emitted
        floor_val = radius / n
        for ell, val in zip(cover.positions, cover.values):
            if tstar[ell] >= floor_val:
                assert tstar[ell] <= val < 2 * tstar[ell] or val == pytest.approx(tstar[ell])
            else:
                assert val == floor_val


def test_gap_bound_examples():
    sw, pos = sparsify_weights([(1.0, 0.0, 0.0, 0.0)], 4)
    seq = covering_threshold_sequence(5.0, 4, {1: 5.0, 2: 0.0, 4: 0.0})
    assert sparsified_gap_bound(sw, pos, seq) == 5.0  # only the first delta remains
    zeros, pos2 = sparsify_weights([(0.0, 0.0)], 2)
    seq2 = ThresholdSequence(anchor=1.0, positions=pos2.indices, values=(1.0, 0.5))
    assert sparsified_gap_bound(zeros, pos2, seq2) == 0.0


def _loop_gap(sparse_weights, pos, seq):
    """The gap certificate written out as loops, one sequence at a time."""
    best = 0.0
    tvals = seq.as_dict()
    for w in sparse_weights:
        total = 0.0
        for ell in pos.indices:
            nxt = pos.next_index(ell)
            w_next = w[nxt - 1] if nxt <= pos.n else 0.0
            total += (w[ell - 1] - w_next) * ell * tvals[ell]
        best = max(best, total)
    return best


def test_gap_bounds_match_the_loop_formula_bit_for_bit():
    rng = np.random.default_rng(41)
    compared = 0
    for _ in range(40):
        n = int(rng.integers(1, 20))
        sparse, pos = sparsify_weights(random_max_ordered_weights(rng, dim_hi=n + 2), n)
        anchor = float(rng.choice([1.0, 3.0, 0.7, 1e-3, 123.456]))
        seqs = list(enumerate_threshold_sequences(anchor, n))
        gaps = sparsified_gap_bounds(sparse, pos, [seq.values for seq in seqs])
        assert len(gaps) == len(seqs)
        for seq, gap in zip(seqs, gaps):
            loop = _loop_gap(sparse, pos, seq)
            assert float(gap).hex() == float(loop).hex()
            one = sparsified_gap_bound(sparse, pos, seq)
            assert type(one) is type(loop) and float(one).hex() == float(loop).hex()
            compared += 1
    assert compared > 1000
