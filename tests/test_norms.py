import itertools

import numpy as np
import pytest

from maxnorm.errors import InvalidInputError, InvalidSolutionError
from maxnorm.instances import (Assignment, ClusterInstance, ClusterSolution,
                               LoadInstance, eval_cluster_objective,
                               eval_load_objective)
from maxnorm.norms import eval_norm, max_ordered_norm, top_norm


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
