"""Shows that each output check rejects a deliberately corrupted output.

    python3 perfbench/selftest.py

Small instances are solved by the program; each corruption is applied to a
copy of a correct output and must be rejected by the check that guards it,
recognised by its message.  run.py calls run() before every benchmark run
and reports correct = false unless every corruption was rejected.
"""

import math
from fractions import Fraction

import numpy as np

import checks
import workloads

TOP21 = workloads.TOP21
TOP11 = workloads.TOP11


def _rejects(check, expected):
    """True when check() raises CheckError with `expected` in its message."""
    try:
        check()
    except checks.CheckError as exc:
        return expected in str(exc)
    return False


def run(api):
    """Map each corruption to whether its check rejected it; the uncorrupted
    outputs must pass."""
    out = {}

    # makespan: job 0 may not run on machine 0
    p = [[math.inf, 2.0, 3.0, 1.0], [4.0, 1.0, 2.0, 5.0]]
    res = api.solve_topl_makespan(api.LoadInstance(p=np.array(p)), 2, 1.0, 0.1)
    bound = res.certificate["per_machine_bound"]
    sigma = list(res.assignment.sigma)
    checks.check_makespan(p, TOP21, res.value, bound, sigma)
    out["job moved to a forbidden machine"] = _rejects(
        lambda: checks.check_makespan(p, TOP21, res.value, bound, [0] + sigma[1:]),
        "forbidden machine")
    out["reported value changed in its last digit"] = _rejects(
        lambda: checks.check_makespan(p, TOP21, math.nextafter(res.value, math.inf),
                                      bound, sigma),
        "differs from recomputed")

    # k-center: one connection per client, two facilities open
    rng = np.random.default_rng(5)
    arrays = workloads.cluster_arrays(rng, 3, 4, "euclidean", 1, 1, 3)
    kres = api.solve_topl_kcenter(workloads.cluster_instance(api, arrays, 2), 1, 1.0, 0.1)
    sol = kres.solution
    kbound = kres.certificate["per_client_bound"]
    optimum = checks.brute_force_kcenter(arrays, TOP11, ("cardinality", 2))
    checks.check_kcenter(arrays, TOP11, ("cardinality", 2), 0.1, kres.value, kbound,
                         sol.open_facilities, sol.assigned, optimum)
    spare = next(i for i in sol.open_facilities if i not in sol.assigned[0])
    extra = (tuple(sol.assigned[0]) + (spare,),) + tuple(sol.assigned[1:])
    out["client given r_j + 1 connections"] = _rejects(
        lambda: checks.check_kcenter(arrays, TOP11, ("cardinality", 2), 0.1, kres.value,
                                     kbound, sol.open_facilities, extra, optimum),
        "connections, outside")

    # fair load: two machines, caps summing to the job count
    finst = api.FairLoadInstance(base=api.LoadInstance(p=np.array([[1.0, 2.0], [2.0, 1.0]])),
                                 e=(Fraction(1), Fraction(1)))
    fres = api.solve_fair(finst, api.top_norm(1, 1.0), 0.1)
    dist = fres.distribution
    frows = finst.base.p.tolist()
    checks.check_fair_load(frows, finst.e, TOP11, fres.bound, dist.cert_bound,
                           dist.support, dist.weights)
    nudged = (dist.weights[0] + Fraction(1, 10 ** 9),) + tuple(dist.weights[1:])
    out["distribution weight nudged off"] = _rejects(
        lambda: checks.check_fair_load(frows, finst.e, TOP11, fres.bound, dist.cert_bound,
                                       dist.support, nudged),
        "sum to 1")
    return out


def main():
    import run as bench
    results = run(bench.load_program())
    for name, ok in results.items():
        print(f"{'rejected' if ok else 'NOT REJECTED'}: {name}")
    raise SystemExit(0 if all(results.values()) else 1)


if __name__ == "__main__":
    main()
