"""Reference max flow for the makespan count test.

maxnorm.load._count_feasible decides whether the forced jobs fit through
their machines' nested count caps by Hall counts and an augmenting-path
placement; the tests check every verdict against this flow, scipy's
maximum_flow on the same network.
"""

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_flow


def forced_flow(p, forced, routes, tops, caps):
    """The most forced jobs (columns of p) that fit through their machines'
    nested count caps, routes[i, k] marking machine i allowed for job
    forced[k]: a max flow whose nodes are the source, the forced jobs, one
    node per (machine, cap) along each machine's chain of caps, the sink."""
    m, f, depth = p.shape[0], forced.size, len(caps)
    sink = 1 + f + m * depth
    mi, fi = np.nonzero(routes)
    level = np.searchsorted(-tops, -p[mi, forced[fi]], side="right")  # innermost cap
    link = 1 + f + np.arange(m * depth)
    nxt = np.where(np.arange(m * depth) % depth == depth - 1, sink, link + 1)
    cap = np.tile([min(int(c), f) for c in caps], m)
    rows = np.concatenate([np.zeros(f, int), 1 + fi, link])
    cols = np.concatenate([1 + np.arange(f), 1 + f + mi * depth + level, nxt])
    vals = np.concatenate([np.ones(f + len(fi)), cap]).astype(np.int32)
    graph = csr_array((vals, (rows, cols)), shape=(sink + 1, sink + 1))
    return int(maximum_flow(graph, 0, sink).flow_value)
