"""Command-line front end.

Subcommands:
  gen         write a random instance file (load, cluster, fair-load,
              fair-cluster, tightness)
  solve       run the approximation solver on an instance file
  oracle      exact brute-force optimum (small instances)
  compare     solver vs. oracle over a seed range, CSV output
  fair-solve  round-and-cut distribution for a fair instance
  sample      draw from a distribution file with a seed

Exit codes: 0 ok, 2 infeasible instance, 3 invalid input, 4 resource cap,
5 solver error (an LP solve failed or an internal contract broke).
Outputs are byte-identical for identical inputs, flags, and seeds.
"""

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import fileio
from .cluster import (solve_knapsack_center, solve_matroid_center,
                      solve_ordered_kcenter, solve_topl_kcenter)
from .errors import (InfeasibleError, InvalidInputError, LpSolverError, MaxNormError,
                     ResourceCapError, SolverInternalError)
from .fair import center_marginals, load_marginals, sample_counts, solve_fair
from .generators import (gen_cluster, gen_fair_cluster, gen_fair_load, gen_load,
                         tightness_family)
from .instances import (ClusterInstance, FairClusterInstance, FairLoadInstance,
                        KnapsackClusterInstance, LoadInstance, MatroidClusterInstance,
                        eval_cluster_objective, eval_load_objective,
                        validate_cluster_solution)
from .load import solve_ordered_makespan, solve_topl_makespan
from .norms import TOP
from .oracle import brute_force_fair_opt, brute_force_kcenter, brute_force_makespan


def _write(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cmd_gen(args):
    if args.kind == "load":
        inst = gen_load(args.seed, machines=args.machines, jobs=args.jobs,
                        pmax=args.pmax, forbidden=args.forbidden)
    elif args.kind == "fair-load":
        inst = gen_fair_load(args.seed, machines=args.machines, jobs=args.jobs,
                             pmax=args.pmax)
    elif args.kind == "cluster":
        inst = gen_cluster(args.seed, clients=args.clients, facilities=args.facilities,
                           k=args.k, metric=args.metric)
    elif args.kind == "fair-cluster":
        inst = gen_fair_cluster(args.seed, clients=args.clients,
                                facilities=args.facilities, k=args.k,
                                metric=args.metric)
    elif args.kind == "tightness":
        fam = tightness_family(args.t)
        payload = {"kind": "tightness", "t": fam["t"], "r": fam["r"],
                   "weights": [repr(w) for w in fam["weights"]],
                   "tstar": [repr(fam["tstar"][ell]) for ell in range(1, fam["r"] + 1)],
                   "opt": 1.0}
        _write(fileio.dumps(payload), args.out)
        return 0
    else:
        raise InvalidInputError(f"unknown kind {args.kind!r}")
    _write(fileio.dumps(fileio.encode_instance(inst)), args.out)
    return 0


def _dispatch_solver(inst, norm, eps):
    if isinstance(inst, LoadInstance):
        if norm.kind == TOP:
            return solve_topl_makespan(inst, norm.ell, norm.q, eps)
        return solve_ordered_makespan(inst, norm.weights, eps)
    if isinstance(inst, MatroidClusterInstance):
        return solve_matroid_center(inst, norm, eps)
    if isinstance(inst, KnapsackClusterInstance):
        return solve_knapsack_center(inst, norm, eps)
    if isinstance(inst, ClusterInstance):
        if norm.kind == TOP:
            return solve_topl_kcenter(inst, norm.ell, norm.q, eps)
        return solve_ordered_kcenter(inst, norm.weights, eps)
    raise InvalidInputError("fair instances go through fair-solve")


def _base_and_variant(inst):
    """(the instance a solution is checked on, the matroid or knapsack
    instance around it or None)."""
    if isinstance(inst, (MatroidClusterInstance, KnapsackClusterInstance)):
        return inst.base, inst
    return inst, None


def _roundtrip_check(inst, norm, payload):
    sol = fileio.decode_solution(payload["solution"])
    base, variant = _base_and_variant(inst)
    if isinstance(base, LoadInstance):
        value = eval_load_objective(base, norm, sol)
    else:
        value = eval_cluster_objective(base, norm, sol)
        validate_cluster_solution(base, sol, check_cardinality=variant is None)
    if repr(value) != payload["value"]:
        raise MaxNormError("solution file does not reproduce its reported value")


def cmd_solve(args):
    inst = fileio.decode_instance(_load_json(args.instance))
    norm = fileio.parse_norm_spec(args.norm)
    result = _dispatch_solver(inst, norm, args.eps)
    payload = {"kind": "solve-result",
               "norm": fileio.encode_norm(norm),
               "value": repr(result.value),
               "certificate": {k: (repr(float(v)) if isinstance(v, float) else
                                   list(v) if isinstance(v, tuple) else v)
                               for k, v in result.certificate.items()}}
    if hasattr(result, "assignment"):
        payload["solution"] = fileio.encode_solution(result.assignment)
    else:
        payload["solution"] = fileio.encode_solution(result.solution)
    _roundtrip_check(inst, norm, payload)
    _write(fileio.dumps(payload), args.out)
    return 0


def cmd_oracle(args):
    inst = fileio.decode_instance(_load_json(args.instance))
    norm = fileio.parse_norm_spec(args.norm)
    if isinstance(inst, (FairLoadInstance, FairClusterInstance)):
        found = brute_force_fair_opt(inst, norm, args.eps, cap=args.cap)
        if found is None:
            raise InfeasibleError("no bound admits a fair distribution")
        bound, dist = found
        payload = {"kind": "oracle-result", "fair_opt": repr(float(bound)),
                   "distribution": fileio.encode_distribution(dist)}
        _write(fileio.dumps(payload), args.out)
        return 0
    if isinstance(inst, LoadInstance):
        opt = brute_force_makespan(inst, norm, cap=args.cap)
        sol = fileio.encode_solution(opt.assignment)
    else:
        base, variant = _base_and_variant(inst)
        opt = brute_force_kcenter(base, norm, cap=args.cap, variant=variant)
        sol = fileio.encode_solution(opt.solution)
    payload = {"kind": "oracle-result", "value": repr(opt.value), "solution": sol,
               "radius": repr(opt.radius),
               "thresholds": [repr(t) for t in opt.thresholds]}
    _write(fileio.dumps(payload), args.out)
    return 0


def _compare_row(task):
    kind, seed, params, norm_spec, eps, cap = task
    norm = fileio.parse_norm_spec(norm_spec)
    if kind == "load":
        inst = gen_load(seed, machines=params["machines"], jobs=params["jobs"],
                        pmax=params["pmax"])
        opt = brute_force_makespan(inst, norm, cap=cap)
    else:
        inst = gen_cluster(seed, clients=params["clients"],
                           facilities=params["facilities"], k=params["k"])
        opt = brute_force_kcenter(inst, norm, cap=cap)
    result = _dispatch_solver(inst, norm, eps)
    cert = result.certificate
    bound_key = "per_machine_bound" if "per_machine_bound" in cert else \
        "per_client_bound" if "per_client_bound" in cert else "chain_bound"
    ratio = result.value / opt.value if opt.value > 0 else \
        (1.0 if result.value == 0 else float("inf"))
    return {"seed": seed, "opt": repr(opt.value), "achieved": repr(result.value),
            "ratio": repr(ratio), "bound": repr(float(cert[bound_key])),
            "guess_radius": repr(cert.get("radius", 0.0)),
            "guess_bound": repr(cert.get("bound", 0.0)),
            "guess_threshold": repr(cert.get("threshold", 0.0))}


def cmd_compare(args):
    lo, hi = (int(v) for v in args.seeds.split(":"))
    params = {"machines": args.machines, "jobs": args.jobs, "pmax": args.pmax,
              "clients": args.clients, "facilities": args.facilities, "k": args.k}
    tasks = [(args.kind, seed, params, args.norm, args.eps, args.cap)
             for seed in range(lo, hi)]
    # a fork-started pool launches all its workers at the first submit
    workers = min(args.threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_compare_row, tasks))
    else:
        rows = [_compare_row(t) for t in tasks]
    buf = io.StringIO()
    fields = ["seed", "opt", "achieved", "ratio", "bound",
              "guess_radius", "guess_bound", "guess_threshold"]
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write(buf.getvalue(), args.out)
    return 0


def cmd_fair_solve(args):
    inst = fileio.decode_instance(_load_json(args.instance))
    if not isinstance(inst, (FairLoadInstance, FairClusterInstance)):
        raise InvalidInputError("fair-solve needs an instance with fairness targets")
    norm = fileio.parse_norm_spec(args.norm)
    result = solve_fair(inst, norm, args.eps, limit=args.cap)
    dist = result.distribution
    if dist.kind == "load":
        marg = load_marginals(dist, inst.base.machines)
    else:
        marg = center_marginals(dist, inst, norm)
    payload = fileio.encode_distribution(dist)
    payload["marginals"] = [f"{v.numerator}/{v.denominator}" for v in marg]
    _write(fileio.dumps(payload), args.out)
    return 0


def cmd_sample(args):
    dist = fileio.decode_distribution(_load_json(args.distribution))
    counts = {}
    for s, count in zip(dist.support, sample_counts(dist, seed=args.seed, n=args.n)):
        counts[s] = counts.get(s, 0) + count
    report = {"kind": "sample-report", "n": args.n, "seed": args.seed,
              "support": [list(s) for s in dist.support],
              "lambda": [{"num": w.numerator, "den": w.denominator}
                         for w in dist.weights],
              "counts": [counts.get(s, 0) for s in dist.support],
              "frequencies": [repr(counts.get(s, 0) / args.n) for s in dist.support]}
    _write(fileio.dumps(report), args.out)
    return 0


def build_parser():
    top = argparse.ArgumentParser(prog="maxnorm",
                                  description="max-of-norm load balancing and "
                                              "k-center approximation toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("kind", choices=["load", "cluster", "fair-load", "fair-cluster",
                                    "tightness"])
    g.add_argument("--machines", type=int, default=2)
    g.add_argument("--jobs", type=int, default=3)
    g.add_argument("--pmax", type=int, default=10)
    g.add_argument("--forbidden", type=float, default=0.0)
    g.add_argument("--clients", type=int, default=3)
    g.add_argument("--facilities", type=int, default=4)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--metric", choices=["euclidean", "random"], default="euclidean")
    g.add_argument("--t", type=int, default=4)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="run the approximation solver")
    s.add_argument("instance")
    s.add_argument("--norm", required=True, help="topl:ELL:Q or maxordered:FILE")
    s.add_argument("--eps", type=float, default=0.1)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_solve)

    o = sub.add_parser("oracle", help="exact optimum by enumeration")
    o.add_argument("instance")
    o.add_argument("--norm", required=True)
    o.add_argument("--eps", type=float, default=0.1,
                   help="bound grid used for fair instances")
    o.add_argument("--cap", type=int, default=10 ** 6)
    o.add_argument("--out", default=None)
    o.set_defaults(func=cmd_oracle)

    c = sub.add_parser("compare", help="solver vs oracle over seeds, CSV")
    c.add_argument("--kind", choices=["load", "cluster"], required=True)
    c.add_argument("--seeds", required=True, help="LO:HI (half-open range)")
    c.add_argument("--norm", required=True)
    c.add_argument("--eps", type=float, default=0.1)
    c.add_argument("--machines", type=int, default=2)
    c.add_argument("--jobs", type=int, default=4)
    c.add_argument("--pmax", type=int, default=10)
    c.add_argument("--clients", type=int, default=3)
    c.add_argument("--facilities", type=int, default=4)
    c.add_argument("--k", type=int, default=2)
    c.add_argument("--cap", type=int, default=10 ** 6)
    c.add_argument("--threads", type=int, default=1)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_compare)

    f = sub.add_parser("fair-solve", help="round-and-cut fair distribution")
    f.add_argument("instance")
    f.add_argument("--norm", required=True)
    f.add_argument("--eps", type=float, default=0.1)
    f.add_argument("--cap", type=int, default=None,
                   help="cutting-plane iteration cap")
    f.add_argument("--out", default=None)
    f.set_defaults(func=cmd_fair_solve)

    p = sub.add_parser("sample", help="draw from a distribution file")
    p.add_argument("distribution")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)
    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        sys.stderr.write(fileio.dumps({"error": "invalid-input", "detail": str(exc)}))
        return 3
    except InfeasibleError as exc:
        sys.stderr.write(fileio.dumps({"error": "infeasible", "detail": str(exc)}))
        return 2
    except ResourceCapError as exc:
        sys.stderr.write(fileio.dumps({"error": "resource-cap", "detail": str(exc)}))
        return 4
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        sys.stderr.write(fileio.dumps({"error": "invalid-input", "detail": str(exc)}))
        return 3
    except (LpSolverError, SolverInternalError) as exc:
        sys.stderr.write(fileio.dumps({"error": "solver-error", "detail": str(exc)}))
        return 5


if __name__ == "__main__":
    sys.exit(main())
