"""A solve owns its derived state: what its guesses share (the makespan job
sizes, the fair oracles' core, budget and cover verdicts) is made once per
solve, shared within it, and gone when the driver returns."""

import gc
import weakref

import pytest

from maxnorm import (cluster, fair, load, round_and_cut, solve_fair, solve_knapsack_center,
                     solve_matroid_center, solve_ordered_kcenter, solve_ordered_makespan,
                     solve_topl_kcenter, solve_topl_makespan, top_norm)
from maxnorm.generators import (gen_cluster, gen_fair_cluster, gen_fair_load, gen_knapsack_cluster,
                                gen_load, gen_matroid_cluster)

WEIGHTS = ((1.0, 0.5, 0.25), (2.0, 0.5))

DRIVERS = {
    "topl_makespan": (lambda: gen_load(3, machines=3, jobs=6, forbidden=0.2),
                      lambda inst: solve_topl_makespan(inst, 2, 1.0, 0.1)),
    "ordered_makespan": (lambda: gen_load(4, machines=3, jobs=6, forbidden=0.2),
                         lambda inst: solve_ordered_makespan(inst, WEIGHTS, 0.1)),
    "topl_kcenter": (lambda: gen_cluster(1, clients=4, facilities=4, k=2),
                     lambda inst: solve_topl_kcenter(inst, 2, 1.0, 0.1)),
    "ordered_kcenter": (lambda: gen_cluster(2, clients=4, facilities=4, k=2),
                        lambda inst: solve_ordered_kcenter(inst, WEIGHTS, 0.1)),
    "matroid_center": (lambda: gen_matroid_cluster(1, clients=4, facilities=4),
                       lambda inst: solve_matroid_center(inst, top_norm(2, 1.0), 0.1)),
    "knapsack_center": (lambda: gen_knapsack_cluster(1, clients=4, facilities=4),
                        lambda inst: solve_knapsack_center(inst, top_norm(2, 1.0), 0.1)),
    "fair_load": (lambda: gen_fair_load(2, machines=2, jobs=3),
                  lambda finst: solve_fair(finst, top_norm(1, 1.0), 0.1)),
    "fair_center": (lambda: gen_fair_cluster(2, clients=3, facilities=4, k=2),
                    lambda finst: solve_fair(finst, top_norm(1, 1.0), 0.1)),
    "round_and_cut_load": (lambda: gen_fair_load(2, machines=2, jobs=3),
                           lambda finst: round_and_cut(finst, 30.0, 1, 1.0)),
    "round_and_cut_center": (lambda: gen_fair_cluster(2, clients=3, facilities=4, k=2),
                             lambda finst: round_and_cut(finst, 30.0, 1, 1.0)),
}


def _held(inst):
    """The instance, its base (if it has one) and the base's size or
    distance array."""
    base = getattr(inst, "base", inst)
    data = base.p if hasattr(base, "p") else base.d
    return [inst, base, data] if base is not inst else [inst, data]


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_a_solve_keeps_nothing_of_its_instance(name):
    """After a public driver returns (its result still held) and a garbage
    collection, no weak reference to the instance, its base or its data
    array is alive: nothing the solve made outlives it."""
    make, solve = DRIVERS[name]
    inst = make()
    refs = [weakref.ref(obj) for obj in _held(inst)]
    result = solve(inst)
    del inst
    gc.collect()
    assert result is not None
    assert [ref() is None for ref in refs] == [True] * len(refs)


def _counted(monkeypatch, owners, name):
    """Replace the class name on each owner module by a subclass that
    counts its constructions; returns the count list."""
    made = []
    cls = getattr(owners[0], name)

    class Counted(cls):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    for owner in owners:
        monkeypatch.setattr(owner, name, Counted)
    return made


def test_fair_center_state_is_shared_within_a_solve_and_rebuilt_per_solve(monkeypatch):
    """Five fair center solves: one core's relaxation parts per solve, and
    each radius's cover verdict asked once per solve (32 in all)."""
    parts = _counted(monkeypatch, [cluster], "_CenterParts")
    verdicts, real = [], fair._cover_verdict

    def cover(*args, **kwargs):
        verdicts.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fair, "_cover_verdict", cover)
    for seed in range(5):
        solve_fair(gen_fair_cluster(seed, 4, 5, k=2), top_norm(1, 1.0), 0.1)
    assert len(parts) == 5
    assert len(verdicts) == 32


def test_job_sizes_are_built_once_per_solve(monkeypatch):
    """Five fair load solves build five job sizes, and makespan solves of
    instances a, b, a, b build four: nothing is carried between solves."""
    made = _counted(monkeypatch, [load, fair], "_JobSizes")
    for seed in range(5):
        solve_fair(gen_fair_load(seed, machines=2, jobs=4), top_norm(1, 1.0), 0.1)
    assert len(made) == 5
    made.clear()
    a, b = gen_load(5, machines=3, jobs=8), gen_load(6, machines=3, jobs=8)
    for inst in (a, b, a, b):
        solve_topl_makespan(inst, 2, 1.0, 0.1)
    assert len(made) == 4
