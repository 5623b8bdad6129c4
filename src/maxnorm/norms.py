"""Symmetric monotone norms used as objectives: Top-(ell,q) and max-ordered norms.

A Top-(ell,q) norm is the L_q norm of the ell largest entries of a vector.
A max-ordered norm is the maximum, over a finite set of non-negative
non-increasing weight vectors w, of the inner product of w with the
non-increasingly sorted vector.  Vectors are implicitly padded with zeros,
so norms of different input dimensions compare consistently.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

TOP = "top"
MAX_ORDERED = "max_ordered"


@dataclass(frozen=True)
class Norm:
    kind: str
    ell: int = 1
    q: float = 1.0
    weights: tuple = ()

    def __post_init__(self):
        if self.kind == TOP:
            if self.ell < 1:
                raise InvalidInputError("top norm needs ell >= 1")
            if not math.isfinite(self.q) or self.q < 1:
                raise InvalidInputError("top norm needs a finite q >= 1")
        elif self.kind == MAX_ORDERED:
            if not self.weights:
                raise InvalidInputError("max-ordered norm needs at least one weight vector")
            for w in self.weights:
                _check_weight_vector(w)
        else:
            raise InvalidInputError(f"unknown norm kind {self.kind!r}")


def _check_weight_vector(w):
    w = tuple(w)
    if len(w) == 0:
        raise InvalidInputError("empty weight vector")
    if not all(math.isfinite(x) for x in w):
        raise InvalidInputError("weight vector has a non-finite entry")
    if any(x < 0 for x in w):
        raise InvalidInputError("weight vector has a negative entry")
    if any(w[t + 1] > w[t] for t in range(len(w) - 1)):
        raise InvalidInputError("weight vector is not non-increasing")


def top_norm(ell, q=1.0):
    """The Top-(ell,q) norm; a non-integral ell is invalid, not truncated."""
    if not float(ell).is_integer():
        raise InvalidInputError("top norm needs an integral ell")
    return Norm(kind=TOP, ell=int(ell), q=float(q))


def max_ordered_norm(weights):
    return Norm(kind=MAX_ORDERED, weights=tuple(tuple(float(x) for x in w) for w in weights))


def _clean_vector(v):
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        return v
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("norm argument must be finite")
    if np.any(v < 0):
        raise InvalidInputError("norm argument must be non-negative")
    return v


def top_norm_value(v, ell, q):
    """L_q norm of the ell largest entries of v (v non-negative).  Where
    sum(top^q) overflows to inf, or underflows to 0 although an entry is
    positive, the value is max(top) * ||top / max(top)||_q instead."""
    v = _clean_vector(v)
    if v.size == 0:
        return 0.0
    top = np.sort(v)[::-1][:ell]
    if q == 1.0:
        return float(np.sum(top))
    with np.errstate(over="ignore", under="ignore"):
        value = float(np.sum(top ** q) ** (1.0 / q))
        if math.isfinite(value) and (value > 0.0 or top[0] == 0.0):
            return value
        return float(top[0] * np.sum((top / top[0]) ** q) ** (1.0 / q))


def power_sum_root(direct, terms, q):
    """A certificate (sum of w v^q over the (w, v) in terms, w >= 1 and
    v >= 0)^(1/q): direct(), its caller's own float expression for it, where
    that is finite; where it overflows, the same value with the largest v
    factored out, as top_norm_value does."""
    try:
        value = direct()
    except OverflowError:
        value = math.inf
    if value < math.inf:
        return value
    top = max(v for _, v in terms)
    return top * sum(w * (v / top) ** q for w, v in terms) ** (1.0 / q)


def ordered_norm_value(v, w):
    """Inner product of the weight vector w with the sorted (descending) v."""
    v = _clean_vector(v)
    if v.size == 0:
        return 0.0
    vd = np.sort(v)[::-1]
    k = min(len(w), vd.size)
    if k == 0:
        return 0.0
    return float(np.dot(np.asarray(w[:k], dtype=float), vd[:k]))


def eval_norm(norm, v):
    """Evaluate a Norm on a non-negative vector; zero-padding invariant."""
    if norm.kind == TOP:
        return top_norm_value(v, norm.ell, norm.q)
    return max(ordered_norm_value(v, w) for w in norm.weights)
