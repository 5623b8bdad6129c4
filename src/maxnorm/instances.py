"""Problem instances and integral solutions.

Conventions:
  * machines / facility locations are indexed by i, jobs / clients by j;
  * forbidden job-machine pairs carry processing time +inf;
  * metrics are stored as one square matrix over clients followed by
    facilities, validated against the triangle inequality on construction;
  * fairness targets e are exact rationals (Fraction), so marginal
    constraints can be checked without tolerances.

All objects are treated as immutable once built (arrays are marked
read-only); every operation on them is pure.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError, InvalidSolutionError
from .norms import TOP, eval_norm

METRIC_REL_TOL = 1e-9
# _max_norm: the owners it evaluates exactly, relative to the largest; the
# fewest owners it is worth it for (eval_norm on each costs less than its
# sort); the smallest normal float
_NEAR_TOP, _FEW, _TINY = 1e-9, 4, np.finfo(float).tiny


def _frozen_array(a, dtype=float):
    arr = np.array(a, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _whole(value, what):
    """value as an int: a whole number such as 2 or 2.0, never truncated
    (1.9, nan and inf raise InvalidInputError)."""
    if isinstance(value, (float, np.floating)) and not float(value).is_integer():
        raise InvalidInputError(f"{what} must be a whole number, got {float(value)!r}")
    return int(value)


def _whole_array(values, what):
    """values as a read-only int array of the same shape, each a whole number."""
    arr = np.array(values)
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr) & (arr == np.floor(arr))):
        raise InvalidInputError(f"{what} must be whole numbers")
    return _frozen_array(arr, dtype=int)


@dataclass(eq=False)
class LoadInstance:
    """Unrelated machines: p[i, j] is the running time of job j on machine i."""

    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.ndim != 2 or p.size == 0:
            raise InvalidInputError("p must be a non-empty machines x jobs matrix")
        if np.any(np.isnan(p)) or np.any(p < 0):
            raise InvalidInputError("processing times must be >= 0 (inf marks a forbidden pair)")
        if not np.all(np.any(np.isfinite(p), axis=0)):
            raise InvalidInputError("every job needs at least one allowed machine")
        self.p = _frozen_array(p)

    @property
    def machines(self):
        return self.p.shape[0]

    @property
    def jobs(self):
        return self.p.shape[1]

    def finite_sizes(self):
        return _distinct(self.p[np.isfinite(self.p)])


@dataclass(eq=False)
class ClusterInstance:
    """Clients + candidate facilities in a metric, with per-client connection
    bounds [l_j, r_j], a global coverage requirement m, and at most k opens."""

    n_clients: int
    n_facilities: int
    d: np.ndarray  # (n_clients + n_facilities)^2 metric
    k: int
    m: int
    l: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        self.n_clients = _whole(self.n_clients, "the client count")
        self.n_facilities = _whole(self.n_facilities, "the facility count")
        nc, nf = self.n_clients, self.n_facilities
        if nc < 1 or nf < 1:
            raise InvalidInputError("need at least one client and one facility")
        d = np.array(self.d, dtype=float)
        n = nc + nf
        if d.shape != (n, n):
            raise InvalidInputError("metric must cover clients followed by facilities")
        if np.any(d < 0) or not np.all(np.isfinite(d)):
            raise InvalidInputError("distances must be finite and non-negative")
        if not np.allclose(d, d.T, rtol=0, atol=1e-12):
            raise InvalidInputError("metric must be symmetric")
        scale = max(1.0, float(d.max()))
        tol = METRIC_REL_TOL * scale
        for b in range(n):
            if np.any(d > d[:, b][:, None] + d[b, :][None, :] + tol):
                raise InvalidInputError("triangle inequality violated")
        self.d = _frozen_array(d)
        self.l = _whole_array(self.l, "connection bounds l")
        self.r = _whole_array(self.r, "connection bounds r")
        if self.l.shape != (nc,) or self.r.shape != (nc,):
            raise InvalidInputError("l and r must have one entry per client")
        if np.any(self.l < 0) or np.any(self.l > self.r) or np.any(self.r > nf):
            raise InvalidInputError("need 0 <= l_j <= r_j <= number of facilities")
        self.k, self.m = _whole(self.k, "k"), _whole(self.m, "coverage m")
        if self.k < 1:
            raise InvalidInputError("k must be positive")
        if self.m < 0 or self.m > int(self.r.sum()):
            raise InvalidInputError("coverage m must lie in [0, sum r_j]")

    @property
    def cf(self):
        """Client x facility distance view."""
        return self.d[: self.n_clients, self.n_clients:]

    @property
    def r0(self):
        return int(self.r.max()) if self.n_clients else 0

    def finite_distances(self):
        return _distinct(self.cf.ravel())


def _distinct(values):
    """Sorted distinct values as Python floats, -0.0 read as 0.0."""
    return (np.unique(values) + 0.0).tolist()


def _to_fractions(values):
    return tuple(Fraction(v) for v in values)


@dataclass(eq=False)
class FairLoadInstance:
    """Load instance plus per-machine expected-job-count caps e_i >= 0."""

    base: LoadInstance
    e: tuple

    def __post_init__(self):
        self.e = _to_fractions(self.e)
        if len(self.e) != self.base.machines:
            raise InvalidInputError("need one fairness cap per machine")
        if any(v < 0 for v in self.e):
            raise InvalidInputError("fairness caps must be >= 0")


@dataclass(eq=False)
class FairClusterInstance:
    """Cluster instance plus per-client expected-connection floors
    e_j in [l_j, r_j].  The coverage constraint m is not used here."""

    base: ClusterInstance
    e: tuple

    def __post_init__(self):
        self.e = _to_fractions(self.e)
        if len(self.e) != self.base.n_clients:
            raise InvalidInputError("need one fairness target per client")
        for j, v in enumerate(self.e):
            if v < int(self.base.l[j]) or v > int(self.base.r[j]):
                raise InvalidInputError("fairness targets must lie in [l_j, r_j]")


@dataclass(eq=False)
class MatroidClusterInstance:
    """Cluster instance whose open set must be independent in a partition
    matroid: at most capacities[t] facilities from parts[t]."""

    base: ClusterInstance
    parts: tuple
    capacities: tuple

    def __post_init__(self):
        self.parts = tuple(tuple(_whole(i, "a part id") for i in part) for part in self.parts)
        self.capacities = tuple(_whole(c, "a part capacity") for c in self.capacities)
        if len(self.parts) != len(self.capacities):
            raise InvalidInputError("need one capacity per part")
        if any(c < 0 for c in self.capacities):
            raise InvalidInputError("part capacities must be >= 0")
        seen = [i for part in self.parts for i in part]
        if sorted(seen) != list(range(self.base.n_facilities)):
            raise InvalidInputError("parts must partition the facility set")


@dataclass(eq=False)
class KnapsackClusterInstance:
    """Cluster instance whose open multiset must have total weight <= budget."""

    base: ClusterInstance
    wt: np.ndarray
    budget: float

    def __post_init__(self):
        self.wt = _frozen_array(self.wt)
        if self.wt.shape != (self.base.n_facilities,):
            raise InvalidInputError("need one weight per facility")
        if np.any(self.wt < 0) or not np.all(np.isfinite(self.wt)):
            raise InvalidInputError("facility weights must be finite and >= 0")
        self.budget = float(self.budget)
        if not 0 <= self.budget < math.inf:
            raise InvalidInputError("knapsack budget must be finite and >= 0")


@dataclass(frozen=True)
class Assignment:
    """Total map job -> machine."""

    sigma: tuple

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(int(i) for i in self.sigma))

    def machine_jobs(self, machines):
        out = [[] for _ in range(machines)]
        for j, i in enumerate(self.sigma):
            out[i].append(j)
        return out

    def counts(self, machines):
        out = [0] * machines
        for i in self.sigma:
            out[i] += 1
        return tuple(out)


@dataclass(frozen=True)
class ClusterSolution:
    """Open facilities S (a multiset in the knapsack variant) and the
    per-client connection sets S_j."""

    open_facilities: tuple
    assigned: tuple  # per client, tuple of facility indices

    def __post_init__(self):
        object.__setattr__(self, "open_facilities",
                           tuple(sorted(int(i) for i in self.open_facilities)))
        object.__setattr__(self, "assigned",
                           tuple(tuple(sorted(int(i) for i in s)) for s in self.assigned))


def machine_size_vectors(inst, assignment):
    if len(assignment.sigma) != inst.jobs:
        raise InvalidSolutionError("assignment must place every job")
    vecs = [[] for _ in range(inst.machines)]
    for j, i in enumerate(assignment.sigma):
        if not (0 <= i < inst.machines):
            raise InvalidSolutionError(f"job {j} assigned to unknown machine {i}")
        size = float(inst.p[i, j])
        if math.isinf(size):
            raise InvalidSolutionError(f"job {j} assigned to a forbidden machine {i}")
        vecs[i].append(size)
    return vecs


def eval_load_objective(inst, norm, assignment):
    """max over machines of the norm of assigned job sizes: the max of
    eval_norm over machine_size_vectors, bit for bit, with its errors, from
    each job's (machine, size) entry (_max_norm) where there are at least
    _FEW machines."""
    m, n = inst.p.shape
    try:
        owners = np.array(assignment.sigma, dtype=np.int64) if m >= _FEW else None
    except OverflowError:  # a machine no int64 holds, so unknown
        owners = None
    if owners is not None and owners.shape == (n,) and owners.min() >= 0 and owners.max() < m:
        sizes = inst.p[owners, np.arange(n)]
        if not np.isinf(sizes).any():
            return _max_norm(norm, owners, sizes, m)
    # machine_size_vectors raises the error of the first job at fault
    return max(eval_norm(norm, v) for v in machine_size_vectors(inst, assignment))


def connection_vectors(inst, solution):
    if len(solution.assigned) != inst.n_clients:
        raise InvalidSolutionError("solution must list connections for every client")
    open_count = Counter(solution.open_facilities)
    vecs = []
    for j, fac in enumerate(solution.assigned):
        used = Counter(fac)
        for i, c in used.items():
            if not (0 <= i < inst.n_facilities):
                raise InvalidSolutionError(f"client {j} connected to unknown facility {i}")
            if c > open_count[i]:
                raise InvalidSolutionError(f"client {j} uses facility {i} more than it is open")
        vecs.append([float(inst.cf[j, i]) for i in fac])
    return vecs


def eval_cluster_objective(inst, norm, solution):
    """max over clients of the norm of connection distances: the max of
    eval_norm over connection_vectors, bit for bit, taken over each
    connection's (client, distance) entry (_max_norm) where there are at
    least _FEW clients."""
    vectors = connection_vectors(inst, solution)
    if len(vectors) < _FEW:
        return max(eval_norm(norm, v) for v in vectors)
    clients = np.repeat(np.arange(len(vectors)), [len(v) for v in vectors])
    return _max_norm(norm, clients, np.array([d for v in vectors for d in v]), len(vectors))


def _max_norm(norm, owners, values, count):
    """max over o < count of eval_norm(norm, values[owners == o]), bit for
    bit, errors included.

    One sort of the entries by (owner, -value) and one np.bincount per
    weight vector give every owner's norm approximately: a Top-(ell,q) norm
    from the sum of its ell largest entries raised to q, a max-ordered norm
    from each w times its sorted entries.  Those sums are of non-negative
    terms, so where no term overflows or underflows each approximate norm
    lies within a relative few ulps per term of eval_norm's value (which
    then takes no fallback), and eval_norm runs only on the owners within a
    relative _NEAR_TOP of the largest, among them an owner whose exact value
    is the largest.  Every owner is evaluated where an entry is negative or
    not a number (eval_norm raises), where a positive term underflows below
    the normal floats, or where the largest sum is 0 or not finite."""
    def exact(candidates):
        return max(eval_norm(norm, values[owners == o]) for o in candidates)

    if not (values.size and values.min() >= 0):
        return exact(range(count))
    order = np.lexsort((-values, owners))
    owned, sizes = owners[order], values[order]
    rank = np.arange(len(owned)) - np.searchsorted(owned, owned)  # 0 at each owner's largest
    with np.errstate(over="ignore"):
        if norm.kind == TOP:
            kept = rank < norm.ell
            base = sizes[kept]
            terms = base ** norm.q
            lossy = ((terms < _TINY) & (base > 0)).any()
            sums, root = np.bincount(owned[kept], terms, count), 1.0 / norm.q
        else:
            lossy, sums, root = False, np.zeros(count), 1.0
            for w in norm.weights:
                kept = rank < len(w)
                scale, base = np.asarray(w)[rank[kept]], sizes[kept]
                terms = scale * base
                lossy |= ((terms < _TINY) & (scale > 0) & (base > 0)).any()
                sums = np.maximum(sums, np.bincount(owned[kept], terms, count))
    if lossy or not 0 < sums.max() < math.inf:
        return exact(range(count))
    approx = sums ** root
    return exact(np.flatnonzero(approx >= approx.max() * (1 - _NEAR_TOP)).tolist())


def validate_cluster_solution(inst, solution, check_cardinality=True):
    connection_vectors(inst, solution)  # membership checks
    if check_cardinality and len(solution.open_facilities) > inst.k:
        raise InvalidSolutionError("more than k facilities open")
    for j, fac in enumerate(solution.assigned):
        if not (int(inst.l[j]) <= len(fac) <= int(inst.r[j])):
            raise InvalidSolutionError(f"client {j} has {len(fac)} connections, "
                                       f"outside [{inst.l[j]}, {inst.r[j]}]")
    total = sum(len(fac) for fac in solution.assigned)
    if total < inst.m:
        raise InvalidSolutionError(f"coverage {total} below m={inst.m}")
