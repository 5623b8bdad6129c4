"""Output checks computed apart from the program.

Nothing here calls into maxnorm: norms, objectives, brute-force optima and
fairness marginals are recomputed from the raw input arrays with plain
Python arithmetic (Fractions where the program promises exactness).
Every check raises CheckError on the first violation it finds.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction


class CheckError(Exception):
    """An output broke a property the benchmark checks on its own."""


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# norms


def top_value(vec, ell, q):
    """L_q norm of the ell largest entries, summed largest first.

    The program sorts descending and sums the first ell entries left to right
    (NumPy sums fewer than eight entries sequentially), so for the ell < 8
    used here the result is bit-identical and can be compared exactly.
    """
    total = 0.0
    for v in sorted((float(v) for v in vec), reverse=True)[:ell]:
        total += v ** q  # exact for q = 1, as is the root below
    return total ** (1.0 / q)


def ordered_value(vec, weights):
    """Max over weight vectors of <w, vec sorted descending>, zero-padded."""
    desc = sorted((float(v) for v in vec), reverse=True)
    return max(math.fsum(w * v for w, v in zip(wv, desc)) for wv in weights)


def norm_value(spec, vec):
    if spec[0] == "top":
        return top_value(vec, spec[1], spec[2])
    return ordered_value(vec, spec[1])


def values_match(spec, recomputed, reported):
    """Top norms reproduce the program's arithmetic exactly; ordered norms
    go through a BLAS dot product whose summation order is not fixed, so
    they are compared to 1e-12 relative."""
    if spec[0] == "top":
        return recomputed == reported
    return math.isclose(recomputed, reported, rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# makespan


def machine_vectors(p, sigma):
    """Per-machine size lists of an assignment; p is a list of rows with
    math.inf on forbidden pairs."""
    m, n = len(p), len(p[0])
    require(len(sigma) == n, f"assignment places {len(sigma)} of {n} jobs")
    vecs = [[] for _ in range(m)]
    for j, i in enumerate(sigma):
        require(isinstance(i, int) and 0 <= i < m, f"job {j} on unknown machine {i!r}")
        require(math.isfinite(p[i][j]), f"job {j} on forbidden machine {i}")
        vecs[i].append(p[i][j])
    return vecs


def check_makespan(p, spec, value, bound, sigma):
    """Assignment valid, objective recomputed equal to the reported value,
    and no larger than the reported certified bound."""
    recomputed = max(norm_value(spec, v) for v in machine_vectors(p, sigma))
    require(values_match(spec, recomputed, value),
            f"reported value {value!r} differs from recomputed {recomputed!r}")
    require(recomputed <= bound * (1 + 1e-12),
            f"value {recomputed!r} exceeds certified bound {bound!r}")


# ---------------------------------------------------------------------------
# k-center


def connection_vectors(cf, open_facilities, assigned):
    """Distances of each client's connections; every connection must use an
    opened copy of a facility."""
    nc, nf = len(cf), len(cf[0])
    require(len(assigned) == nc, f"connections listed for {len(assigned)} of {nc} clients")
    opened = Counter(open_facilities)
    require(all(isinstance(i, int) and 0 <= i < nf for i in opened),
            "unknown facility opened")
    vecs = []
    for j, fac in enumerate(assigned):
        for i, c in Counter(fac).items():
            require(c <= opened[i], f"client {j} uses facility {i} more often than it is open")
        vecs.append([cf[j][i] for i in fac])
    return vecs


def check_budget(budget, open_facilities, eps):
    kind = budget[0]
    if kind == "cardinality":
        require(len(set(open_facilities)) == len(open_facilities), "facility opened twice")
        require(len(open_facilities) <= budget[1],
                f"{len(open_facilities)} facilities open, k = {budget[1]}")
    elif kind == "partition":
        require(len(set(open_facilities)) == len(open_facilities), "facility opened twice")
        opened = set(open_facilities)
        for part, cap in zip(budget[1], budget[2]):
            require(len(opened & set(part)) <= cap, f"part {part} holds more than {cap} opens")
    else:
        _, wt, limit = budget
        weight = math.fsum(wt[i] for i in open_facilities)
        require(weight <= (1 + 2 * eps) * limit + 1e-9,
                f"open weight {weight} beyond (1+2eps) W = {(1 + 2 * eps) * limit}")


def check_kcenter(inst, spec, budget, eps, value, bound, open_facilities, assigned, optimum):
    """Open set within its budget, connection counts in [l_j, r_j], coverage
    at least m, value recomputed and within the bound; for Top norms also
    within the guaranteed factor of the brute-force optimum."""
    check_budget(budget, open_facilities, eps)
    vecs = connection_vectors(inst["cf"], open_facilities, assigned)
    for j, vec in enumerate(vecs):
        require(inst["l"][j] <= len(vec) <= inst["r"][j],
                f"client {j} has {len(vec)} connections, outside "
                f"[{inst['l'][j]}, {inst['r'][j]}]")
    require(sum(len(v) for v in vecs) >= inst["m"], f"coverage below m = {inst['m']}")
    recomputed = max(norm_value(spec, v) for v in vecs)
    require(values_match(spec, recomputed, value),
            f"reported value {value!r} differs from recomputed {recomputed!r}")
    require(recomputed <= bound * (1 + 1e-12),
            f"value {recomputed!r} exceeds certified bound {bound!r}")
    if optimum is not None:
        factor = (1.0 if budget[0] == "knapsack" else 0.0) + 3.0 * 4.0 ** (1.0 / spec[2]) + eps
        require(recomputed <= factor * optimum + 1e-12,
                f"value {recomputed} beyond {factor:.4f} x optimum {optimum}")


def _best_for_open(inst, spec, s):
    """Least max-norm over per-client nearest-first connection counts for a
    fixed open set, or None when no count choice meets [l_j, r_j] and m."""
    cf, lo, hi = inst["cf"], inst["l"], inst["r"]
    prefix = []
    for j in range(len(cf)):
        dists = sorted(cf[j][i] for i in s)
        top = min(hi[j], len(dists))
        if top < lo[j]:
            return None
        prefix.append([0.0] + [norm_value(spec, dists[:c]) for c in range(1, top + 1)])
    for v in sorted({x for row in prefix for x in row}):
        counts = []
        for j, row in enumerate(prefix):
            c = max(c for c in range(len(row)) if row[c] <= v)
            if c < lo[j]:
                break
            counts.append(c)
        else:
            if sum(counts) >= inst["m"]:
                return v
    return None


def _budget_open_sets(budget, nf):
    kind = budget[0]
    if kind == "cardinality":
        # norms are monotone, so opening k facilities never hurts
        return itertools.combinations(range(nf), min(budget[1], nf))
    sets = (s for size in range(nf + 1) for s in itertools.combinations(range(nf), size))
    if kind == "partition":
        return (s for s in sets
                if all(len(set(s) & set(part)) <= cap for part, cap in zip(budget[1], budget[2])))
    _, wt, limit = budget
    return (s for s in sets if math.fsum(wt[i] for i in s) <= limit + 1e-12)


def brute_force_kcenter(inst, spec, budget):
    """Exact optimum over every open set the budget allows (no violation)."""
    best = None
    for s in _budget_open_sets(budget, len(inst["cf"][0])):
        v = _best_for_open(inst, spec, s)
        if v is not None and (best is None or v < best):
            best = v
    require(best is not None, "brute force found no feasible open set")
    return best


# ---------------------------------------------------------------------------
# fair distributions


def check_weights(weights):
    require(all(isinstance(w, Fraction) for w in weights), "weights are not exact rationals")
    require(all(w >= 0 for w in weights), "negative distribution weight")
    require(sum(weights, Fraction(0)) == 1, "distribution weights do not sum to 1")


def check_fair_load(p, e, spec, bound, cert_bound, support, weights):
    """Every support assignment is valid with norm at most cert_bound, and
    expected per-machine job counts stay within the caps e_i exactly."""
    check_weights(weights)
    require(len(support) == len(weights), "support and weights differ in length")
    m = len(p)
    marg = [Fraction(0)] * m
    for sigma, w in zip(support, weights):
        vecs = machine_vectors(p, sigma)
        worst = max(norm_value(spec, v) for v in vecs)
        require(worst <= cert_bound * (1 + 1e-12),
                f"support element with norm {worst} above cert bound {cert_bound}")
        for i, vec in enumerate(vecs):
            marg[i] += w * len(vec)
    for i in range(m):
        require(marg[i] <= e[i], f"machine {i} expects {marg[i]} jobs, cap {e[i]}")
    require(cert_bound == 4.0 ** (1.0 / spec[2]) * bound,
            "cert bound is not 4^(1/q) times the accepted bound")


def greedy_connections(spec, limit, dists, cap):
    """Nearest-first connections taken while the norm stays within limit."""
    taken = []
    for d in sorted(dists)[:cap]:
        if norm_value(spec, taken + [d]) > limit:
            break
        taken.append(d)
    return taken


def check_fair_center(inst, k, e, spec, bound, cert_bound, support, weights):
    """Every support open set has at most k distinct facilities and gives each
    client at least l_j greedy connections within cert_bound; expected
    connection counts reach the floors e_j exactly."""
    check_weights(weights)
    require(len(support) == len(weights), "support and weights differ in length")
    cf, lo, hi = inst["cf"], inst["l"], inst["r"]
    nc, nf = len(cf), len(cf[0])
    marg = [Fraction(0)] * nc
    for s, w in zip(support, weights):
        require(len(set(s)) == len(s) <= k, f"open set {s} is not {k} distinct facilities")
        require(all(isinstance(i, int) and 0 <= i < nf for i in s), "unknown facility opened")
        for j in range(nc):
            taken = greedy_connections(spec, cert_bound, [cf[j][i] for i in s], hi[j])
            require(len(taken) >= lo[j], f"client {j} gets {len(taken)} < l_j connections")
            require(norm_value(spec, taken) <= cert_bound, "connection norm above cert bound")
            marg[j] += w * len(taken)
    for j in range(nc):
        require(marg[j] >= e[j], f"client {j} expects {marg[j]} connections, floor {e[j]}")
    require(cert_bound == 3.0 * 4.0 ** (1.0 / spec[2]) * bound,
            "cert bound is not 3*4^(1/q) times the accepted bound")
