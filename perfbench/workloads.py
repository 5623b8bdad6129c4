"""Seeded inputs of the three workloads and the check of each solve.

A workload is a fixed list of cases; one pass solves each case once.  Every
number of every instance is drawn from a fixed base generator; the seed
draws a relabeling of each instance (clients, facilities, machines and jobs
permuted, with budgets, parts and caps carried along).  A relabeled instance
asks the same question, so every seed does the same work: the guess count
of a random k-center instance varies by 40-70% from one draw to the next,
which would swamp any change to the program.  Only the generated instances
reach the program.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import checks

EPS = 0.1
KNAPSACK_EPS = 0.5
BASE_SEED = 2011  # draws the instances; --seed only relabels them


@dataclass
class Case:
    """One solve of a pass.  run(api) calls the program; check(out) verifies
    the output apart from the program and returns (value, certified bound)."""

    name: str
    run: object
    check: object
    cache: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# metrics and instances


def euclidean_metric(rng, n):
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(d, 0.0)
    return d


def closure_metric(rng, n):
    d = rng.uniform(0.1, 1.0, size=(n, n))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    for mid in range(n):  # shortest paths restore the triangle inequality
        d = np.minimum(d, d[:, mid][:, None] + d[mid, :][None, :])
    return d


def cluster_arrays(rng, nc, nf, metric, lo, hi, m):
    d = (euclidean_metric if metric == "euclidean" else closure_metric)(rng, nc + nf)
    return {"d": d, "cf": d[:nc, nc:].tolist(), "l": [lo] * nc, "r": [hi] * nc, "m": m,
            "nc": nc, "nf": nf}


def relabel_cluster(arrays, pc, pf):
    """The same instance with client i' = old pc[i'], facility j' = old pf[j']."""
    nc = arrays["nc"]
    idx = np.concatenate([pc, nc + pf])
    d = arrays["d"][np.ix_(idx, idx)]
    return {**arrays, "d": d, "cf": d[:nc, nc:].tolist()}


def cluster_instance(api, arrays, k):
    nc = arrays["nc"]
    return api.ClusterInstance(n_clients=nc, n_facilities=arrays["nf"], d=arrays["d"], k=k,
                               m=arrays["m"], l=np.array(arrays["l"]),
                               r=np.array(arrays["r"]))


def planted_sizes(rng, machines, jobs, pmax, radius, forbidden):
    """Integer sizes in [1, pmax] with a forbidden share of pairs.  Every job
    keeps one home machine below `radius`, except one planted job whose
    fastest machine takes exactly `radius`: the smallest radius at which
    all jobs fit is then `radius` on every seed, which pins where the guess
    scan starts."""
    p = rng.integers(1, pmax + 1, size=(machines, jobs)).astype(float)
    blocked = rng.random(size=p.shape) < forbidden
    home = rng.integers(0, machines, size=jobs)
    cols = np.arange(jobs)
    blocked[home, cols] = False
    p[home, cols] = rng.integers(1, radius, size=jobs)
    planted = int(rng.integers(0, jobs))
    p[:, planted] = rng.integers(radius + 1, pmax + 1, size=machines)
    p[home[planted], planted] = radius
    p[blocked] = np.inf
    return p


# ---------------------------------------------------------------------------
# cases


class Draw:
    """The instance numbers come from `rng`, fixed for the workload; the
    relabeling of each instance from `relabel`, seeded by --seed."""

    def __init__(self, base_seed, seed, index):
        self.rng = np.random.default_rng([base_seed, index])
        self.relabel = np.random.default_rng([seed, index])

    def perm(self, n):
        return self.relabel.permutation(n)


def _norm(api, spec):
    if spec[0] == "top":
        return api.top_norm(spec[1], spec[2])
    return api.max_ordered_norm(spec[1])


def kcenter_case(api, draw, name, nc, nf, k, metric, m, spec, budget_kind):
    rng = draw.rng
    arrays = cluster_arrays(rng, nc, nf, metric, 1, 2, m)
    pc, pf = draw.perm(nc), draw.perm(nf)
    new_label = {int(old): new for new, old in enumerate(pf)}
    arrays = relabel_cluster(arrays, pc, pf)
    if budget_kind == "cardinality":
        inst = cluster_instance(api, arrays, k)
        budget = ("cardinality", k)
        eps = EPS
        if spec[0] == "top":
            def run(api):
                return api.solve_topl_kcenter(inst, spec[1], spec[2], eps)
        else:
            def run(api):
                return api.solve_ordered_kcenter(inst, spec[1], eps)
    elif budget_kind == "partition":
        perm = [int(v) for v in rng.permutation(nf)]
        parts = (tuple(sorted(new_label[j] for j in perm[: nf // 2])),
                 tuple(sorted(new_label[j] for j in perm[nf // 2:])))
        caps = (k // 2, k - k // 2)
        inst = api.MatroidClusterInstance(base=cluster_instance(api, arrays, nf),
                                          parts=parts, capacities=caps)
        budget = ("partition", parts, caps)
        eps = EPS

        def run(api):
            return api.solve_matroid_center(inst, _norm(api, spec), eps)
    else:
        # one heavy facility (weight at least eps * W) among light ones, so
        # the heavy-set guess has two choices
        wt = rng.uniform(0.05, 0.3, size=nf)
        wt[rng.integers(0, nf)] = rng.uniform(0.55, 0.7)
        wt = wt[pf]
        limit = 1.0
        inst = api.KnapsackClusterInstance(base=cluster_instance(api, arrays, nf),
                                           wt=wt, budget=limit)
        budget = ("knapsack", wt.tolist(), limit)
        eps = KNAPSACK_EPS

        def run(api):
            return api.solve_knapsack_center(inst, _norm(api, spec), eps)

    bound_key = "chain_bound" if spec[0] == "ordered" and budget_kind == "cardinality" \
        else "per_client_bound"
    case = Case(name=name, run=run, check=None)

    def check(res):
        optimum = None
        if spec[0] == "top":
            if "opt" not in case.cache:
                case.cache["opt"] = checks.brute_force_kcenter(arrays, spec, budget)
            optimum = case.cache["opt"]
        sol = res.solution
        bound = res.certificate[bound_key]
        checks.check_kcenter(arrays, spec, budget, eps, res.value, bound,
                             sol.open_facilities, sol.assigned, optimum)
        return res.value, bound

    case.check = check
    return case


def makespan_case(api, draw, name, machines, jobs, spec, radius, pmax=100, forbidden=0.1):
    p = planted_sizes(draw.rng, machines, jobs, pmax, radius, forbidden)
    p = p[np.ix_(draw.perm(machines), draw.perm(jobs))]
    inst = api.LoadInstance(p=p)
    rows = p.tolist()
    if spec[0] == "top":
        bound_key = "per_machine_bound"

        def run(api):
            return api.solve_topl_makespan(inst, spec[1], spec[2], EPS)
    else:
        bound_key = "chain_bound"

        def run(api):
            return api.solve_ordered_makespan(inst, spec[1], EPS)

    def check(res):
        bound = res.certificate[bound_key]
        checks.check_makespan(rows, spec, res.value, bound, res.assignment.sigma)
        return res.value, bound

    return Case(name=name, run=run, check=check)


def fair_load_case(api, draw, name, machines, jobs, spec, pmax=10):
    rng = draw.rng
    p = rng.integers(1, pmax + 1, size=(machines, jobs)).astype(float)
    # the bound grid runs from the smallest to the largest size: pin both
    p[0, 0], p[-1, -1] = 1.0, float(pmax)
    # quarter-integral caps: an even share of the jobs plus a little slack,
    # with one random quarter moved between two machines
    quarters = [4 * jobs // machines] * machines
    quarters[0] += 4 * jobs - sum(quarters) + 1
    a, b = rng.choice(machines, size=2, replace=False)
    quarters[int(a)] += 1
    quarters[int(b)] -= 1
    pm = draw.perm(machines)
    p = p[np.ix_(pm, draw.perm(jobs))]
    e = tuple(Fraction(quarters[int(i)], 4) for i in pm)
    finst = api.FairLoadInstance(base=api.LoadInstance(p=p), e=e)
    rows = p.tolist()

    def run(api):
        return api.solve_fair(finst, _norm(api, spec), EPS)

    def check(res):
        dist = res.distribution
        checks.check_fair_load(rows, e, spec, res.bound, dist.cert_bound,
                               dist.support, dist.weights)
        return res.bound, dist.cert_bound

    return Case(name=name, run=run, check=check)


def fair_center_case(api, draw, name, nc, nf, k, spec):
    arrays = cluster_arrays(draw.rng, nc, nf, "random", 1, 2, 0)
    arrays = relabel_cluster(arrays, draw.perm(nc), draw.perm(nf))
    base = cluster_instance(api, arrays, k)
    e = (Fraction(3, 2),) * nc  # one and a half expected connections per client
    finst = api.FairClusterInstance(base=base, e=e)

    def run(api):
        return api.solve_fair(finst, _norm(api, spec), EPS)

    def check(res):
        dist = res.distribution
        checks.check_fair_center(arrays, k, e, spec, res.bound, dist.cert_bound,
                                 dist.support, dist.weights)
        return res.bound, dist.cert_bound

    return Case(name=name, run=run, check=check)


# ---------------------------------------------------------------------------
# workloads

TOP21 = ("top", 2, 1.0)
TOP11 = ("top", 1, 1.0)
TOP22 = ("top", 2, 2.0)
ORDERED_K = ("ordered", ((1.0, 0.5, 0.25), (0.75, 0.75)))
ORDERED_M = ("ordered", ((1.0, 0.5, 0.25, 0.125), (2.0, 0.5)))


def kcenter(api, draw):
    def card(name, n, k, metric, spec):
        return lambda i: kcenter_case(api, draw, f"{name}#{i}", n, n, k, metric, n, spec,
                                      "cardinality")

    def other(name, budget_kind, metric):
        return lambda i: kcenter_case(api, draw, f"{name}#{i}", 8, 8, 3, metric, 8, TOP21,
                                      budget_kind)

    # The ordered scans are short and many, so the median solve is an
    # ordered 10x10 one; the Top, matroid and knapsack scans carry most of
    # the time.
    return _repeat([
        (4, card("ordered-card-euc-8x8", 8, 3, "euclidean", ORDERED_K)),
        (6, card("ordered-card-euc-10x10", 10, 3, "euclidean", ORDERED_K)),
        (1, card("ordered-card-rand-12x12", 12, 4, "random", ORDERED_K)),
        (2, card("top21-card-euc-8x8", 8, 3, "euclidean", TOP21)),
        (2, card("top21-card-rand-8x8", 8, 3, "random", TOP21)),
        (2, other("top21-part-rand-8x8", "partition", "random")),
        (1, other("top21-knap-rand-8x8", "knapsack", "random")),
    ])


def makespan(api, draw):
    return _repeat([
        (3, lambda i: makespan_case(api, draw, f"top21-30x300#{i}", 30, 300, TOP21, 24)),
        (1, lambda i: makespan_case(api, draw, f"top22-24x240#{i}", 24, 240, TOP22, 24)),
        (1, lambda i: makespan_case(api, draw, f"ordered-10x100#{i}", 10, 100, ORDERED_M, 4,
                                    pmax=10)),
    ])


def fair(api, draw):
    return _repeat([
        (5, lambda i: fair_load_case(api, draw, f"load-top11-2x4#{i}", 2, 4, TOP11)),
        (3, lambda i: fair_load_case(api, draw, f"load-top21-3x4#{i}", 3, 4, TOP21)),
        (5, lambda i: fair_center_case(api, draw, f"center-top11-3x4#{i}", 3, 4, 2, TOP11)),
        (2, lambda i: fair_center_case(api, draw, f"center-top11-4x5#{i}", 4, 5, 2, TOP11)),
    ])


def _repeat(groups):
    return [make(i) for count, make in groups for i in range(count)]


WORKLOADS = {"kcenter": kcenter, "makespan": makespan, "fair": fair}
# the reference kernel (reference.py) whose work is most like each workload's
KERNEL = {"kcenter": "small", "makespan": "large", "fair": "small"}


def build(api, workload, seed):
    """The case list of one workload; the same seed gives the same inputs."""
    return WORKLOADS[workload](api, Draw(BASE_SEED, seed, list(WORKLOADS).index(workload)))


def warm_up(api):
    """One tiny solve per solver family, so lazy imports inside SciPy and
    NetworkX are paid during set-up, not by the first timed solve."""
    rng = np.random.default_rng(0)
    tiny = cluster_instance(api, cluster_arrays(rng, 2, 2, "euclidean", 1, 1, 0), 1)
    api.solve_topl_kcenter(tiny, 1, 1.0, EPS)
    api.solve_topl_makespan(api.LoadInstance(p=[[1.0, 2.0], [2.0, 1.0]]), 1, 1.0, EPS)
