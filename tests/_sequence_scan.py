"""The ordered radius loop visiting every threshold sequence, as the test
reference for maxnorm.guess.scan_sequence_rows, which visits each count key
once, at its first sequence in lower-key order, and takes the key's best
sequence at once.  Both must solve the same LPs, ask the same verdicts, in
the same order, and accept the same guess.
"""

import numpy as np

from maxnorm import guess
from maxnorm.lp import OPTIMAL
from maxnorm.sparsify import snap_to_grid


def sequence_scan_row(lps, ri, guesses, real_key, best=None, prune=True):
    """Branch-and-bound over (lower key, count key) pairs, one per sequence."""
    infeasible = []
    for lower, counts in sorted(guesses, key=lambda g: g[0]):
        if best is not None and lower >= best[0]:
            break
        if prune and any(guess._covers(counts, bad) for bad in infeasible):
            continue
        sol, sidx = lps(ri, counts) if not prune or lps.feasible(ri, counts) else (None, None)
        if sol is None or sol.status != OPTIMAL:
            if prune and guess._proven_feasible(lps, ri, counts):
                return sequence_scan_row(lps, ri, guesses, real_key, best, prune=False)
            infeasible.append(counts)
            continue
        cand = real_key(lower, sol, sidx)
        if cand is not None and (best is None or cand[0] < best[0]):
            best = cand
    return best


def sequence_scan_rows(lps, radii, wtop, grid_of, row, first=0):
    """scan_sequence_rows with every sequence's own lower and real key; the
    rows are the same SequenceRows, read one sequence at a time."""
    best = None
    for ri in range(first, len(radii)):
        radius = radii[ri]
        least = radius * wtop
        if best is not None and least > best[0][0]:
            break
        grid = None if grid_of is None else grid_of(radius)
        seqs = row(ri)
        keys = {int(s): key for key, members in zip(seqs.keys, seqs.members) for s in members}

        def chain(sidx, bound):
            return seqs.chain(bound, np.array([sidx]))[0]

        floor = least if grid is None else snap_to_grid(grid, least)
        guesses = [((floor, chain(sidx, floor), ri, sidx), keys[sidx]) for sidx in range(len(keys))]

        def real_key(lower, sol, svar):
            sidx = lower[3]
            bound = 0.0 if radius == 0.0 else max(max(sol.x[svar], 0.0), least)
            if grid is not None:
                bound = snap_to_grid(grid, bound)
                if bound is None:
                    return None
            return (bound, chain(sidx, bound), ri, sidx), (seqs.sequence(sidx), sol)

        best = sequence_scan_row(lps, ri, guesses, real_key, best)
    return best
