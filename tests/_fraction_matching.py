"""Reference copy matching for the exact weighted rounding.

The machine-copy matching LP solved by the dense Fraction simplex: its
vertices are integral, so it yields a minimum-weight matching in exact
arithmetic.  maxnorm.load.shmoys_tardos_round(exact=True) matches on
integer-scaled weights instead; the tests check that both reach the same
weight.
"""

from fractions import Fraction

import numpy as np

from maxnorm.errors import SolverInternalError
from maxnorm.load import machine_copies
from maxnorm.lp import EQ, LE, OPTIMAL, simplex_solve


def fraction_simplex_round(x, p, edge_weights):
    """Job -> machine tuple of a minimum-weight copy matching."""
    x = np.asarray(x, float)
    m, n = p.shape
    copies = machine_copies(x, p)
    flat = [(i, ci) for i in range(m) for ci in range(len(copies[i]))]
    slot = {mc: t for t, mc in enumerate(flat)}
    edges = {(j, slot[(i, ci)]) for i in range(m) for ci, content in enumerate(copies[i])
             for j, _amt in content}
    weights = [Fraction(w) for w in edge_weights]
    edge_list = sorted(edges)
    col = {e: t for t, e in enumerate(edge_list)}
    rows = [({col[e]: 1 for e in edge_list if e[0] == j}, EQ, 1) for j in range(n)]
    for t in range(len(flat)):
        touching = {col[e]: 1 for e in edge_list if e[1] == t}
        if touching:
            rows.append((touching, LE, 1))
    objective = [weights[flat[e[1]][0]] for e in edge_list]
    status, z = simplex_solve(rows, len(edge_list), objective=objective)
    if status != OPTIMAL:
        raise SolverInternalError(f"matching LP ended {status}")
    sigma = [-1] * n
    for e, val in zip(edge_list, z):
        if val == 1:
            sigma[e[0]] = flat[e[1]][0]
        elif val != 0:
            raise SolverInternalError("matching LP vertex not integral")
    return tuple(sigma)
