"""Self-describing JSON formats for instances, solutions, and distributions.

Conventions for byte-stable golden files: objects are serialized with sorted
keys and two-space indentation; distances are decimal strings (repr of the
float, which round-trips exactly); fairness targets and distribution weights
are exact rationals ("num/den" strings or {num, den} objects); forbidden
job-machine pairs are null.
"""

import functools
import json
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError
from .instances import (Assignment, ClusterInstance, ClusterSolution,
                        FairClusterInstance, FairLoadInstance,
                        KnapsackClusterInstance, LoadInstance, MatroidClusterInstance)
from .norms import TOP, max_ordered_norm, top_norm


def _shape_checked(what):
    """Report valid JSON of the wrong shape (a number where a list belongs, a
    missing field, a rational with a zero denominator, ...) as invalid
    input, not as whatever the decoder hit."""
    def wrap(decode):
        @functools.wraps(decode)
        def checked(data):
            try:
                return decode(data)
            except InvalidInputError:
                raise
            except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise InvalidInputError(f"malformed {what}: {exc}") from exc
        return checked
    return wrap


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _frac_str(f):
    return f"{f.numerator}/{f.denominator}"


def encode_instance(inst):
    if isinstance(inst, (FairLoadInstance, FairClusterInstance)):
        out = encode_instance(inst.base)
        out["e"] = [_frac_str(v) for v in inst.e]
        return out
    if isinstance(inst, MatroidClusterInstance):
        out = encode_instance(inst.base)
        out["parts"] = [list(p) for p in inst.parts]
        out["capacities"] = list(inst.capacities)
        return out
    if isinstance(inst, KnapsackClusterInstance):
        out = encode_instance(inst.base)
        out["wt"] = [repr(float(v)) for v in inst.wt]
        out["W"] = repr(float(inst.budget))
        return out
    if isinstance(inst, LoadInstance):
        p = [[None if not np.isfinite(v) else float(v) for v in row] for row in inst.p]
        return {"kind": "load", "machines": inst.machines, "jobs": inst.jobs, "p": p}
    if isinstance(inst, ClusterInstance):
        return {"kind": "cluster", "clients": inst.n_clients,
                "facilities": inst.n_facilities,
                "d": [[repr(float(v)) for v in row] for row in inst.d],
                "k": inst.k, "m": inst.m,
                "l": [int(v) for v in inst.l], "r": [int(v) for v in inst.r]}
    raise InvalidInputError(f"cannot encode {type(inst).__name__}")


@_shape_checked("instance")
def decode_instance(data):
    kind = data.get("kind")
    if kind == "load":
        p = [[np.inf if v is None else float(v) for v in row] for row in data["p"]]
        base = LoadInstance(p=np.array(p))
        if "e" in data:
            return FairLoadInstance(base=base, e=tuple(Fraction(s) for s in data["e"]))
        return base
    if kind == "cluster":
        d = np.array([[float(v) for v in row] for row in data["d"]])
        base = ClusterInstance(n_clients=data["clients"], n_facilities=data["facilities"], d=d,
                               k=data["k"], m=data["m"],
                               l=np.array(data["l"]), r=np.array(data["r"]))
        if "e" in data:
            return FairClusterInstance(base=base, e=tuple(Fraction(s) for s in data["e"]))
        if "parts" in data:
            return MatroidClusterInstance(base=base,
                                          parts=tuple(tuple(p) for p in data["parts"]),
                                          capacities=tuple(data["capacities"]))
        if "wt" in data:
            return KnapsackClusterInstance(base=base,
                                           wt=np.array([float(v) for v in data["wt"]]),
                                           budget=float(data["W"]))
        return base
    if kind == "tightness":
        return data
    raise InvalidInputError(f"unknown instance kind {kind!r}")


def encode_solution(sol):
    if isinstance(sol, Assignment):
        return {"kind": "assignment", "sigma": list(sol.sigma)}
    if isinstance(sol, ClusterSolution):
        return {"kind": "cluster-solution", "S": list(sol.open_facilities),
                "S_j": [list(a) for a in sol.assigned]}
    raise InvalidInputError(f"cannot encode {type(sol).__name__}")


@_shape_checked("solution")
def decode_solution(data):
    kind = data.get("kind")
    if kind == "assignment":
        return Assignment(tuple(data["sigma"]))
    if kind == "cluster-solution":
        return ClusterSolution(open_facilities=tuple(data["S"]),
                               assigned=tuple(tuple(a) for a in data["S_j"]))
    raise InvalidInputError(f"unknown solution kind {kind!r}")


def encode_distribution(dist):
    support = []
    for s in dist.support:
        if dist.kind == "load":
            support.append({"kind": "assignment", "sigma": list(s)})
        else:
            support.append({"kind": "open-set", "S": list(s)})
    return {"kind": "distribution", "problem": dist.kind,
            "bound": repr(float(dist.bound)), "cert_bound": repr(float(dist.cert_bound)),
            "support": support,
            "lambda": [{"num": w.numerator, "den": w.denominator} for w in dist.weights]}


@_shape_checked("distribution")
def decode_distribution(data):
    from .fair import SolutionDistribution

    if data.get("kind") != "distribution":
        raise InvalidInputError("not a distribution file")
    support = []
    for s in data["support"]:
        if data["problem"] == "load":
            support.append(tuple(s["sigma"]))
        else:
            support.append(tuple(s["S"]))
    weights = tuple(Fraction(w["num"], w["den"]) for w in data["lambda"])
    return SolutionDistribution(kind=data["problem"], support=tuple(support),
                                weights=weights, bound=float(data["bound"]),
                                cert_bound=float(data["cert_bound"]))


def parse_norm_spec(spec):
    """"topl:ELL:Q" or "maxordered:FILE" (JSON {"weights": [[...], ...]})."""
    parts = spec.split(":")
    if parts[0] == "topl" and len(parts) == 3:
        return top_norm(int(parts[1]), float(parts[2]))
    if parts[0] == "maxordered" and len(parts) >= 2:
        path = ":".join(parts[1:])
        with open(path, encoding="utf-8") as fh:
            return _decode_norm_weights(json.load(fh))
    raise InvalidInputError(f"cannot parse norm spec {spec!r}")


@_shape_checked("norm file")
def _decode_norm_weights(data):
    return max_ordered_norm(data["weights"])


def encode_norm(norm):
    if norm.kind == TOP:
        return {"kind": "topl", "ell": norm.ell, "q": norm.q}
    return {"kind": "maxordered", "weights": [list(w) for w in norm.weights]}
