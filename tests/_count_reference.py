"""The makespan count verdict as it stood before the per-array job index:
every verdict recomputed the free-job masks over the whole machines x jobs
matrix, and the placement scanned every machine for every job.  Kept as the
reference load._count_feasible and load._placed are checked against, and
_free_jobs as the definition of free jobs and their home machines that the
reference builds (_load_builders._fix_free_jobs) use.
"""

import numpy as np


def _free_jobs(p, radius, lowest):
    """(allowed, home): the pairs the radius allows and, per job, its first
    allowed machine where it counts at no threshold (a size counts where it
    is finite and above the lowest), or -1 where it has none.  A job with a
    home is free, the others are forced."""
    allowed = ~(p > radius)
    uncounted = allowed & ~(np.isfinite(p) & (p > lowest))
    return allowed, np.where(uncounted.any(axis=0), uncounted.argmax(axis=0), -1)


def _count_feasible(inst, radius, thresholds, caps):
    """Whether the min-bound LP at this radius, with a count cap of caps[k] on
    each machine's jobs above thresholds[k], is feasible; None when a cap is
    not a non-negative integer (the placement below needs integral caps).
    The thresholds do not increase, so each cap's jobs include the previous
    cap's.

    Exact: a job with an allowed uncounted machine is placed there, and the
    other jobs (the forced ones) must fit through their machines' nested
    caps.  Two stages decide that:

      * Hall counts, one per cap level k, refute.  A forced job counted at
        level k on every allowed machine uses a slot of cap k and of every
        cap outside it, wherever it goes, so machine i takes at most the
        smaller of the number of those jobs allowed on it and min(caps[k:])
        (clipped at the forced job count).  More such jobs than the sum of
        those over the machines refute the guess.
      * The placement (_placed) decides the rest, both ways: what it places
        is an integral point of the LP, and where it fails no point exists.

    The Hall counts are a fast path: they refute most infeasible guesses
    for a few array operations.
    """
    if not all(float(c).is_integer() and c >= 0 for c in caps):
        return None
    p = inst.p
    tops = np.asarray(thresholds, float)
    allowed, home = _free_jobs(p, radius, tops[-1])
    forced = np.flatnonzero(home < 0)
    routes = allowed[:, forced]  # every allowed pair of a forced job is counted
    if not routes.any(axis=0).all():
        return False  # a job with no allowed machine
    if forced.size == 0:
        return True
    m, f, depth = p.shape[0], forced.size, len(caps)
    levels = np.full((m, f), -1)  # innermost cap of each allowed pair, -1 where forbidden
    levels[routes] = np.searchsorted(-tops, -p[:, forced][routes], side="right")
    outer = levels.max(axis=0)  # a job uses this cap and those outside it wherever it goes
    room = np.minimum.accumulate([min(int(c), f) for c in reversed(caps)])[::-1]
    # held[k, i]: the jobs using cap k wherever they go that machine i allows
    held = np.cumsum([np.count_nonzero(routes[:, outer == k], axis=1) for k in range(depth)],
                     axis=0)
    need = np.cumsum(np.bincount(outer, minlength=depth))
    if (np.minimum(held, room[:, None]).sum(axis=1) < need).any():
        return False  # a Hall count
    return _placed(levels, caps)


def _placed(levels, caps):
    """Whether every forced job fits within every cap, levels[i, k] being
    forced job k's innermost cap on machine i (-1 where forbidden).  Exact:
    each job is placed along an augmenting path of the flow network whose
    nodes are the jobs and one node per (machine, cap) along each machine's
    chain of caps.

    The job with the fewest allowed machines goes first, onto the allowed
    machine with the most room left at its level and every level outside it
    (the lowest such machine on ties).  Where no machine has room, it takes
    the place of a job on one of them whose level is at most the innermost
    full cap at or outside its own, and the displaced job moves on the same
    way, breadth first, until one finds room.  The jobs a search reaches on
    a machine depend on the full cap it enters at, so each machine keeps the
    outermost full cap searched and is searched again only for one further
    out: each (machine, cap) node is visited once per search.  Along a path
    a machine's full caps then only move outward, so the shifts keep every
    cap.
    """
    left = [[int(c) for c in caps] for _ in range(levels.shape[0])]  # slots left per machine
    where = {}  # the machine of each job placed
    choices = levels.T.tolist()
    for k in np.argsort((levels >= 0).sum(axis=0), kind="stable").tolist():
        searched, came, queue = [-1] * len(left), {k: None}, [k]  # came[j]: who takes j's place
        for job in queue:
            room = [min(slots[lv:]) if lv >= 0 else 0 for slots, lv in zip(left, choices[job])]
            at = room.index(max(room))
            if room[at]:
                break
            for i, level in enumerate(choices[job]):
                full = left[i].index(0, level) if level >= 0 else -1  # the innermost full cap
                if full > searched[i]:
                    searched[i] = full
                    for other, on in where.items():
                        if on == i and other not in came and choices[other][i] <= full:
                            came[other] = job
                            queue.append(other)
        else:
            return False
        # back along the path: each job moves to at, and the job that came for
        # it moves to the machine it leaves (prev, None for the job being placed)
        while job is not None:
            prev = where.get(job)
            for i, step in ((prev, 1), (at, -1)):
                if i is not None:
                    left[i][choices[job][i]:] = [v + step for v in left[i][choices[job][i]:]]
            where[job], at, job = at, prev, came[job]
    return True
