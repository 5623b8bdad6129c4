import itertools
from collections import Counter

import numpy as np
import pytest

import _objective_reference as reference
from _gen import random_weight_vector
from maxnorm import instances
from maxnorm.errors import InvalidInputError, InvalidSolutionError
from maxnorm.instances import (Assignment, ClusterInstance, ClusterSolution,
                               LoadInstance, connection_vectors, eval_cluster_objective,
                               eval_load_objective, machine_size_vectors)
from maxnorm.norms import TOP, eval_norm, max_ordered_norm, top_norm


def test_top_norm_examples():
    assert eval_norm(top_norm(2, 1), [3, 1, 2]) == 5
    assert eval_norm(top_norm(2, 2), [3, 4]) == 5  # 3-4-5 triple
    assert eval_norm(top_norm(1, 1), [3, 1, 2]) == 3


def test_max_ordered_example():
    norm = max_ordered_norm([(1, 0), (0.6, 0.6)])
    assert eval_norm(norm, [3, 1]) == 3  # max(3, 2.4)


def test_negative_entry_rejected():
    with pytest.raises(InvalidInputError):
        eval_norm(top_norm(1, 1), [1, -2])


def test_bad_norm_construction():
    with pytest.raises(InvalidInputError):
        top_norm(0, 1)
    with pytest.raises(InvalidInputError):
        top_norm(1, 0.5)
    for q in (float("nan"), float("inf")):
        with pytest.raises(InvalidInputError):
            top_norm(1, q)
    with pytest.raises(InvalidInputError):
        max_ordered_norm([(float("nan"), 0.5)])
    with pytest.raises(InvalidInputError):
        max_ordered_norm([])
    with pytest.raises(InvalidInputError):
        max_ordered_norm([(0.5, 1.0)])  # increasing


def _random_norms(rng):
    yield top_norm(int(rng.integers(1, 4)), float(rng.choice([1.0, 2.0, 3.0])))
    weights = [tuple(sorted(rng.uniform(0, 1, size=5), reverse=True))
               for _ in range(int(rng.integers(1, 3)))]
    yield max_ordered_norm(weights)


def test_norm_axioms_on_random_vectors():
    rng = np.random.default_rng(0)
    for _ in range(40):
        for norm in _random_norms(rng):
            v = rng.uniform(0, 5, size=int(rng.integers(1, 7)))
            w = rng.uniform(0, 5, size=v.size)
            t = float(rng.uniform(0, 3))
            fv, fw = eval_norm(norm, v), eval_norm(norm, w)
            assert eval_norm(norm, t * v) == pytest.approx(t * fv, rel=1e-12)
            assert eval_norm(norm, v + w) <= fv + fw + 1e-9
            assert eval_norm(norm, np.maximum(v, w)) >= max(fv, fw) - 1e-12
            perm = rng.permutation(v.size)
            assert eval_norm(norm, v[perm]) == pytest.approx(fv, rel=1e-12)
            padded = np.concatenate([v, np.zeros(3)])
            assert eval_norm(norm, padded) == pytest.approx(fv, rel=1e-12)


def test_top_collapses_to_l1_and_linf():
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.uniform(0, 10, size=int(rng.integers(1, 6)))
        assert eval_norm(top_norm(len(v) + 2, 1), v) == pytest.approx(v.sum())
        assert eval_norm(top_norm(1, 1), v) == pytest.approx(v.max())


def test_load_objective_example_is_optimal():
    inst = LoadInstance(p=np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]]))
    norm = top_norm(2, 1)
    sigma = Assignment((0, 0, 1))
    assert eval_load_objective(inst, norm, sigma) == 3
    # enumeration of all 2^3 assignments confirms 3 is the optimum
    best = min(eval_load_objective(inst, norm, Assignment(c))
               for c in itertools.product((0, 1), repeat=3))
    assert best == 3


def test_load_objective_single_machine_and_constant():
    inst = LoadInstance(p=np.array([[4.0, 1.0, 2.0]]))
    assert eval_load_objective(inst, top_norm(5, 1), Assignment((0, 0, 0))) == 7
    const = LoadInstance(p=np.full((3, 4), 2.5))
    for combo in [(0, 1, 2, 0), (2, 2, 2, 2)]:
        assert eval_load_objective(const, top_norm(1, 2), Assignment(combo)) == 2.5


def test_forbidden_pair_rejected():
    inst = LoadInstance(p=np.array([[1.0, np.inf], [2.0, 3.0]]))
    with pytest.raises(InvalidSolutionError):
        eval_load_objective(inst, top_norm(1, 1), Assignment((0, 0)))


def _line_cluster():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    return ClusterInstance(n_clients=1, n_facilities=2, d=d, k=2, m=2, l=[2], r=[2])


def test_cluster_objective_examples():
    inst = _line_cluster()
    sol = ClusterSolution(open_facilities=(0, 1), assigned=((0, 1),))
    assert eval_cluster_objective(inst, top_norm(2, 1), sol) == 3
    loose = ClusterInstance(n_clients=1, n_facilities=2, d=inst.d, k=2, m=0,
                            l=[0], r=[2])
    empty = ClusterSolution(open_facilities=(0,), assigned=((),))
    assert eval_cluster_objective(loose, top_norm(2, 1), empty) == 0


def test_cluster_objective_max_of_singletons():
    d = np.zeros((4, 4))
    d[0, 2] = d[2, 0] = 1.0
    d[1, 3] = d[3, 1] = 2.0
    d[0, 1] = d[1, 0] = 1.5
    d[0, 3] = d[3, 0] = 2.5
    d[1, 2] = d[2, 1] = 2.5
    d[2, 3] = d[3, 2] = 3.5
    inst = ClusterInstance(n_clients=2, n_facilities=2, d=d, k=2, m=2,
                           l=[1, 1], r=[1, 1])
    sol = ClusterSolution(open_facilities=(0, 1), assigned=((0,), (1,)))
    assert eval_cluster_objective(inst, top_norm(1, 1), sol) == 2


def test_cluster_solution_validation():
    from maxnorm.instances import validate_cluster_solution

    inst = _line_cluster()
    bad = ClusterSolution(open_facilities=(0,), assigned=((0, 1),))
    with pytest.raises(InvalidSolutionError):
        eval_cluster_objective(inst, top_norm(1, 1), bad)  # connects to a closed one
    short = ClusterSolution(open_facilities=(0, 1), assigned=((0,),))
    with pytest.raises(InvalidSolutionError):
        validate_cluster_solution(inst, short)  # below l_j


def test_metric_validation():
    bad = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]])
    with pytest.raises(InvalidInputError):
        ClusterInstance(n_clients=1, n_facilities=2, d=bad, k=1, m=0, l=[0], r=[1])


def test_every_job_needs_a_machine():
    with pytest.raises(InvalidInputError):
        LoadInstance(p=np.array([[np.inf], [np.inf]]))


def test_top_norm_value_past_the_float_range():
    """sum(top^q) overflows to inf at huge q and underflows to 0 on small
    entries; the value is then max(top) ||top / max(top)||_q, and every
    value the plain formula gives finite and positive stays bit-identical."""
    assert eval_norm(top_norm(1, 1e308), [3, 1, 2]) == 3.0
    assert eval_norm(top_norm(2, 1e308), [3, 3, 2]) == 3.0
    assert eval_norm(top_norm(2, 2000.0), [0.5, 0.25]) == 0.5
    assert eval_norm(top_norm(2, 2.0), [1e-200, 1e-200]) == pytest.approx(2 ** 0.5 * 1e-200)
    assert eval_norm(top_norm(2, 2.0), [0.0, 0.0]) == 0.0
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.uniform(0, 10, size=int(rng.integers(1, 6)))
        ell, q = int(rng.integers(1, 4)), float(rng.choice([1.5, 2.0, 3.0, 7.5]))
        top = np.sort(v)[::-1][:ell]
        assert eval_norm(top_norm(ell, q), v) == float(np.sum(top ** q) ** (1.0 / q))


def _random_objective_norm(rng):
    """Top-(ell,q) with ell 1-12 and q in {1, 1.5, 2, 3}, or max-ordered with
    1-5 weight vectors of length 1-12."""
    if rng.random() < 0.5:
        return top_norm(int(rng.integers(1, 13)), float(rng.choice([1.0, 1.5, 2.0, 3.0])))
    return max_ordered_norm([random_weight_vector(rng, int(rng.integers(1, 13)))
                             for _ in range(int(rng.integers(1, 6)))])


def _scaled(rng):
    """A scale for the entries: 1, or near the ends of the float range,
    where sum(top^q) overflows or underflows for q > 1."""
    return float(rng.choice([1.0, 1.0, 1e300, 1e-300, 1e150, 1e-160]))


def _falls_back(norm, vectors):
    """Whether top_norm_value takes its fallback on one of the vectors."""
    if norm.kind != TOP:
        return False
    for v in vectors:
        top = np.sort(np.asarray(v, float))[::-1][: norm.ell]
        with np.errstate(over="ignore", under="ignore"):
            total = np.sum(top ** norm.q)
        if top.size and (np.isinf(total) or (total == 0 and top[0] > 0)):
            return True
    return False


def _outcome(evaluate, *args):
    """The value, or the type and message of the error raised."""
    try:
        return evaluate(*args)
    except (InvalidInputError, InvalidSolutionError) as exc:
        return type(exc), str(exc)


def _random_load_solution(rng):
    """1-8 machines (so both sides of instances._FEW), 1-30 jobs with small
    integer sizes times 1, 1.5 or 1/3 and a scale, some pairs forbidden,
    each job on a random allowed machine."""
    m, n = int(rng.integers(1, 9)), int(rng.integers(1, 31))
    p = rng.integers(0, 5, size=(m, n)) * rng.choice([1.0, 1.5, 1 / 3], size=(m, n))
    p = p * _scaled(rng)
    p[rng.random(size=p.shape) < 0.2] = np.inf
    p[rng.integers(0, m, size=n), np.arange(n)] = rng.integers(0, 5, size=n)
    inst = LoadInstance(p=p)
    sigma = [int(rng.choice(np.flatnonzero(np.isfinite(p[:, j])))) for j in range(n)]
    return inst, Assignment(tuple(sigma))


def _random_cluster_solution(rng):
    """1-8 clients and 1-5 facilities at scaled Euclidean distances, a
    random multiset of open facilities and, per client, a random part of
    it (possibly empty)."""
    nc, nf = int(rng.integers(1, 9)), int(rng.integers(1, 6))
    pts = rng.uniform(0.0, 1.0, size=(nc + nf, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)) * _scaled(rng)
    np.fill_diagonal(d, 0.0)
    inst = ClusterInstance(n_clients=nc, n_facilities=nf, d=d, k=nf + 2, m=0,
                           l=[0] * nc, r=[nf] * nc)
    opened = rng.integers(0, nf, size=int(rng.integers(1, nf + 3))).tolist()
    assigned = [rng.choice(opened, size=int(rng.integers(0, len(opened) + 1)), replace=False)
                .tolist() for _ in range(nc)]
    return inst, ClusterSolution(open_facilities=opened, assigned=assigned)


def test_objectives_are_the_per_vector_maximum_bit_for_bit():
    """Random load and cluster solutions under random Top and max-ordered
    norms: each objective is max(eval_norm(norm, v)) over the machine or
    client vectors (_objective_reference), compared with ==, with machines
    and clients that have nothing, and entries near 1e+-300 where
    top_norm_value falls back."""
    rng = np.random.default_rng(3031)
    seen = Counter()
    for draw in range(4400):
        norm = _random_objective_norm(rng)
        if draw % 2:
            inst, sol = _random_load_solution(rng)
            vectors = machine_size_vectors(inst, sol)
            new, ref = (f(inst, norm, sol) for f in (eval_load_objective,
                                                     reference.eval_load_objective))
        else:
            inst, sol = _random_cluster_solution(rng)
            vectors = connection_vectors(inst, sol)
            new, ref = (f(inst, norm, sol) for f in (eval_cluster_objective,
                                                     reference.eval_cluster_objective))
        assert new == ref and type(new) is type(ref), (norm, vectors)
        seen["load" if draw % 2 else "cluster"] += 1
        seen["sorted"] += len(vectors) >= instances._FEW
        seen["empty"] += any(not v for v in vectors)
        seen["fallback sorted"] += _falls_back(norm, vectors) and len(vectors) >= instances._FEW
        seen["ties"] += sum(eval_norm(norm, v) == new for v in vectors) > 1
    assert seen["load"] >= 2000 and seen["cluster"] >= 2000, seen
    assert seen["sorted"] >= 1000 and seen["empty"] >= 1000, seen
    assert seen["fallback sorted"] >= 200 and seen["ties"] >= 100, seen


def test_objective_errors_are_the_per_vector_errors():
    """A forbidden pair, an unknown machine or facility (one past the end,
    negative, or past int64), a facility used more often than it is open
    and a short assignment or solution raise the reference's error, with
    its message, on both sides of instances._FEW."""
    rng = np.random.default_rng(3032)
    norm = top_norm(2, 1.5)
    for m in (2, 6):
        p = rng.integers(1, 9, size=(m, 5)).astype(float)
        p[1, 3] = np.inf
        inst = LoadInstance(p=p)
        good = [0, 1, 0, 0, m - 1]
        bad = [good[:3] + [1] + good[4:], good[:2] + [m] + good[3:], good[:1] + [-1] + good[2:],
               good[:4] + [2 ** 70], good[:4]]
        for sigma in bad:
            got = _outcome(eval_load_objective, inst, norm, Assignment(tuple(sigma)))
            assert isinstance(got, tuple) and got == _outcome(
                reference.eval_load_objective, inst, norm, Assignment(tuple(sigma))), sigma
    for nc in (2, 6):
        pts = rng.uniform(0.0, 1.0, size=(nc + 3, 2))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        inst = ClusterInstance(n_clients=nc, n_facilities=3, d=d, k=5, m=0, l=[0] * nc,
                               r=[3] * nc)
        good = [[0, 1]] + [[2]] * (nc - 1)
        bad = [([0, 1, 2], [[3]] + good[1:]), ([0, 1, 2], [[-1]] + good[1:]),
               ([0, 1, 2], [[2 ** 70]] + good[1:]), ([0, 1, 2], good[:-1]),
               ([0, 1], good), ([0, 1, 2], [[0, 0]] + good[1:]),
               ([0, 1, 2, 2 ** 70], good[:1] + [[2, 2]] + good[2:])]
        for opened, assigned in bad:
            sol = ClusterSolution(open_facilities=opened, assigned=assigned)
            got = _outcome(eval_cluster_objective, inst, norm, sol)
            assert isinstance(got, tuple) and got == _outcome(
                reference.eval_cluster_objective, inst, norm, sol), (opened, assigned)


def test_objective_where_every_term_of_the_largest_underflows():
    """Twelve jobs of 1.5e-162 on machine 0 square to 0, so top_norm_value
    takes its fallback there (sqrt(12) 1.5e-162), the largest value, while
    each other machine's one job of 2.3e-162 squares to a subnormal and
    looks larger by its sum: the objective is still machine 0's."""
    p = np.full((4, 15), 2.3e-162)
    p[0, :12] = 1.5e-162
    inst, sol = LoadInstance(p=p), Assignment((0,) * 12 + (1, 2, 3))
    norm = top_norm(12, 2.0)
    assert eval_load_objective(inst, norm, sol) == eval_norm(norm, [1.5e-162] * 12)
    assert eval_load_objective(inst, norm, sol) == reference.eval_load_objective(inst, norm, sol)
