"""The Shmoys-Tardos rounding entry by entry, as the test reference.

maxnorm.load builds each machine's copies from its positive entries only and
fills the copy graph's cost matrix in one indexed assignment; these loops
read every entry of the vertex and every edge one at a time.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from maxnorm.instances import Assignment
from maxnorm.load import _MASS_TOL
from maxnorm.lp import scaled_integers


def loop_machine_copies(x, p):
    """Per machine, its unit-capacity copies as [(job, amount), ...] lists,
    filled in non-decreasing size order (ties by job index)."""
    m, n = p.shape
    out = []
    for i in range(m):
        jobs = sorted((j for j in range(n) if x[i, j] > _MASS_TOL),
                      key=lambda j: (p[i, j], j))
        copies, current, room = [], [], 1.0
        for j in jobs:
            amt = float(x[i, j])
            while amt > _MASS_TOL:
                take = min(amt, room)
                current.append((j, take))
                amt -= take
                room -= take
                if room <= _MASS_TOL:
                    copies.append(current)
                    current, room = [], 1.0
        if current:
            copies.append(current)
        out.append(copies)
    return out


def loop_shmoys_tardos_round(x, p, edge_weights=None):
    """(assignment, copies) of the copy matching, with the cost matrix
    filled edge by edge."""
    x = np.asarray(x, float)
    m, n = p.shape
    copies = loop_machine_copies(x, p)
    flat = [(i, ci) for i in range(m) for ci in range(len(copies[i]))]
    slot = {mc: t for t, mc in enumerate(flat)}
    edges = {(j, slot[(i, ci)]) for i in range(m) for ci, content in enumerate(copies[i])
             for j, _amt in content}
    if edge_weights is None:
        w = np.zeros(m)
    else:
        scaled = scaled_integers(edge_weights)
        w = np.array(scaled if max(scaled) * n < 2 ** 53 else edge_weights, float)
    cost = np.full((n, len(flat)), np.inf)
    for j, t in edges:
        cost[j, t] = w[flat[t][0]]
    rows, cols = linear_sum_assignment(cost)
    sigma = [-1] * n
    for j, t in zip(rows, cols):
        sigma[j] = flat[t][0]
    return Assignment(tuple(sigma)), copies
