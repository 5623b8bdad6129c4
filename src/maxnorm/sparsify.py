"""Guessing grids and weight-vector sparsification for ordered norms.

Ordered norms have one threshold per coordinate, which is too many to guess.
Sparsification keeps only the coordinates POS = {min(2^t, n)}, replaces the
weight vector in between by its value at the next kept coordinate, and pays
at most a factor 2:  sparse(v) <= full(v) <= 2 * sparse(v).  Threshold guesses
then range over a dyadic support {R/2^s >= R/n} + {R/n}, which keeps the
number of non-increasing guess sequences polynomial.  The scans read the
sequences of one anchor as one SequenceTable of support indices.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ResourceCapError

_GRID_CAP = 10 ** 6  # grid points
_SEQUENCE_CAP = 10 ** 7  # threshold sequences of one anchor


@dataclass(frozen=True)
class PosSet:
    """Kept coordinates {min(2^t, n) : t >= 0}, deduplicated ascending."""

    n: int
    indices: tuple

    def next_index(self, t):
        """Smallest kept index strictly greater than t (n maps to n + 1)."""
        for v in self.indices:
            if v > t:
                return v
        return self.n + 1


def pos_set(n):
    if n < 1:
        raise InvalidInputError("dimension must be >= 1")
    out = []
    t = 1
    while t < n:
        out.append(t)
        t *= 2
    out.append(n)
    return PosSet(n=n, indices=tuple(out))


def sparsify_weights(weights, n):
    """Zero-extend each weight vector to length n and flatten it between kept
    coordinates: entry t keeps w_t if t is kept, else takes w_{next(t)}."""
    pos = pos_set(n)
    out = []
    for w in weights:
        w = [float(x) for x in w]
        if any(x < 0 for x in w):
            raise InvalidInputError("weight vector has a negative entry")
        if any(w[t + 1] > w[t] for t in range(len(w) - 1)):
            raise InvalidInputError("weight vector is not non-increasing")
        ext = w[:n] + [0.0] * max(0, n - len(w))

        def entry(t):  # 1-indexed, ext[n] == 0 beyond the end
            return ext[t - 1] if t <= n else 0.0

        sparse = [entry(t) if t in pos.indices else entry(pos.next_index(t))
                  for t in range(1, n + 1)]
        out.append(np.array(sparse))
    return out, pos


def geometric_grid(lo, hi, eps):
    """Powers-of-(1+eps) grid anchored at lo, covering [lo, hi*(1+eps)).

    Whenever x in [lo, hi], some grid point b satisfies x <= b < (1+eps)*x.
    """
    if not all(math.isfinite(v) for v in (lo, hi, eps)):
        raise InvalidInputError("grid parameters must be finite")
    if lo <= 0:
        raise InvalidInputError("grid anchor must be positive")
    if hi < lo:
        raise InvalidInputError("grid must have hi >= lo")
    if eps <= 0:
        raise InvalidInputError("grid resolution must be positive")
    # log of the step the loop multiplies by ((1.0 + eps) - 1.0 is exact)
    step = math.log1p((1.0 + eps) - 1.0)
    if step == 0.0:
        raise InvalidInputError("grid resolution vanishes next to 1.0")
    points = (math.log(hi) - math.log(lo)) / step + 2  # t = 0 .. log_{1+eps}(hi/lo) + 1
    if points > _GRID_CAP:
        raise ResourceCapError(f"a grid from {lo!r} to {hi!r} at resolution {eps!r} "
                               f"holds about {points:.3g} points, over the cap {_GRID_CAP}")
    out = []
    t = 0
    while True:
        b = lo * (1.0 + eps) ** t
        if b >= hi * (1.0 + eps):
            break
        out.append(b)
        t += 1
    return out


def snap_to_grid(grid, value):
    """Smallest grid point >= value (with a relative slack of 1e-9); None if
    the grid tops out below value."""
    slack = 1e-9 * max(1.0, abs(value))
    for b in grid:
        if b >= value - slack:
            return b
    return None


def single_threshold_candidates(values):
    """Sorted distinct finite data values plus 0: every exact threshold guess."""
    out = {0.0}
    for v in values:
        if np.isfinite(v):
            out.add(float(v))
    return sorted(out)


@dataclass(frozen=True)
class ThresholdSequence:
    """Non-increasing threshold guesses on the kept coordinates; the first
    kept coordinate is pinned to the anchor scale R."""

    anchor: float
    positions: tuple
    values: tuple

    def as_dict(self):
        return dict(zip(self.positions, self.values))


def threshold_support(anchor, n):
    """Dyadic support {R/2^s : R/2^s >= R/n} + {R/n}, descending."""
    if anchor <= 0:
        raise InvalidInputError("anchor must be positive")
    out = []
    s = 0
    while 2 ** s <= n:
        out.append(anchor / 2 ** s)
        s += 1
    floor_val = anchor / n
    if out[-1] != floor_val:
        out.append(floor_val)
    return tuple(out)


def enumerate_threshold_sequences(anchor, n):
    """All non-increasing maps POS -> support with the first value = anchor.

    Lazy: there are choose(|support| + |POS| - 2, |POS| - 1) sequences, which
    is polynomial in n, but products with outer guessing loops stay iterables.
    """
    pos = pos_set(n)
    support = threshold_support(anchor, n)
    tail = len(pos.indices) - 1
    for combo in itertools.combinations_with_replacement(range(len(support)), tail):
        values = (anchor,) + tuple(support[idx] for idx in combo)
        yield ThresholdSequence(anchor=float(anchor), positions=pos.indices, values=values)


@functools.lru_cache(maxsize=4)
def _support_indices(size, width):
    """The rows of combinations_with_replacement(range(size), width - 1) in
    its order, each behind a leading 0, as one read-only array."""
    combos = itertools.combinations_with_replacement(range(size), width - 1)
    flat = np.fromiter(itertools.chain.from_iterable(combos), np.min_scalar_type(size))
    count = math.comb(size + width - 2, width - 1)
    out = np.hstack([np.zeros((count, 1), flat.dtype), flat.reshape(count, width - 1)])
    out.flags.writeable = False
    return out


class SequenceTable:
    """enumerate_threshold_sequences(anchor, n) as arrays, in the same order:
    row k of idx indexes support at each kept coordinate of sequence k (the
    first column is 0, the anchor), so values() holds the same floats.  The
    index rows depend on n only and are cached.  Raises ResourceCapError
    when there are more than _SEQUENCE_CAP sequences, before building any."""

    def __init__(self, anchor, n):
        pos = pos_set(n)
        self.anchor, self.positions = anchor, pos.indices
        self.support = threshold_support(anchor, n)
        width = len(pos.indices)
        count = math.comb(len(self.support) + width - 2, width - 1)
        if count > _SEQUENCE_CAP:
            raise ResourceCapError(f"{n} coordinates give {count} threshold sequences per "
                                   f"radius, over the cap {_SEQUENCE_CAP}")
        self.idx = _support_indices(len(self.support), width)

    def lookup(self, per_support):
        """Each sequence's entries of per_support (one per support value)."""
        return np.asarray(per_support)[self.idx]

    def values(self):
        return self.lookup(self.support)

    def sequence(self, k):
        """Sequence k as enumerate_threshold_sequences yields it."""
        values = (self.anchor,) + tuple(self.support[i] for i in self.idx[k, 1:].tolist())
        return ThresholdSequence(anchor=float(self.anchor), positions=self.positions, values=values)


def telescoped_deltas(sparse_weights, pos):
    """w_ell - w_next(ell) at each kept coordinate ell, one row per weight
    vector of length n (w_{n+1} = 0): a weighted sum over the kept
    coordinates telescopes onto these differences."""
    ells = np.asarray(pos.indices)
    w = np.asarray(sparse_weights, float).reshape(len(sparse_weights), pos.n)
    w = np.hstack([w, np.zeros((len(w), 1))])
    return w[:, ells - 1] - w[:, np.append(ells[1:], pos.n + 1) - 1]


def sparsified_gap_bound(sparse_weights, pos, seq):
    """max over weight vectors of sum over kept ell of
    (w_ell - w_next(ell)) * ell * T_ell: the guessing cost certificate."""
    gap = sparsified_gap_bounds(sparse_weights, pos, [seq.values])[0]
    return gap if gap > 0.0 else 0.0


def sparsified_gap_bounds(sparse_weights, pos, values):
    """sparsified_gap_bound of many sequences at once, as an array; row k of
    values holds the thresholds of sequence k on the kept coordinates."""
    values = np.asarray(values, float).reshape(-1, len(pos.indices))
    best = np.zeros(len(values))
    for delta in telescoped_deltas(sparse_weights, pos):
        total = np.zeros(len(values))
        for k, ell in enumerate(pos.indices):
            total += delta[k] * ell * values[:, k]
        best = np.maximum(best, total)
    return best
