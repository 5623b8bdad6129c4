"""Fixed reference kernels that track how fast the machine runs right now.

The benchmark's machine changes speed in phases of seconds to minutes, by
up to a factor of two, and CPU time slows with wall time.  run.py times a
kernel between solves and scales each solve's wall time by the kernel's
nominal time over its local time: a "reference second" is a wall second on
a machine where the kernel takes its nominal time.  A kernel uses only
NumPy, SciPy and the interpreter, never the program, so a change to the
program cannot move it.  Each workload uses the kernel whose mix follows its
own, because the machine's slow phases do not slow every kind of work
alike:

- "small": small dense HiGHS LPs, interpreted loops and a pass over 8 MB
  (k-center and fair solves: thousands of small LPs);
- "large": a dense 20x200 assignment LP built in NumPy and solved by HiGHS
  (makespan solves: few LPs with thousands of columns and MB-sized matrices).

    python3 perfbench/reference.py      # times each kernel 30 times
"""

import time

import numpy as np
from scipy.optimize import linprog

_rng = np.random.default_rng(20110817)
_A = _rng.random((40, 120))
_B = _A.sum(axis=1) * 0.3
_C = _rng.random(120)
_BLOCK = _rng.random(1_000_000)
_MACHINES, _JOBS = 20, 200
_P = _rng.integers(1, 100, size=(_MACHINES, _JOBS)).astype(float)


def _small():
    for _ in range(4):
        linprog(_C, A_ub=-_A, b_ub=-_B, bounds=(0, 1), method="highs")
    acc = {}
    for i in range(30_000):
        acc[i % 97] = acc.get(i % 97, 0) + (i * i) % 7
    float(_BLOCK.copy().sum())


def _large():
    a_eq = np.zeros((_JOBS, _MACHINES * _JOBS))
    for j in range(_JOBS):
        a_eq[j, j::_JOBS] = 1.0
    a_ub = np.zeros((_MACHINES, _MACHINES * _JOBS))
    for i in range(_MACHINES):
        a_ub[i, i * _JOBS:(i + 1) * _JOBS] = _P[i]
    linprog(_P.ravel(), A_ub=a_ub, b_ub=np.full(_MACHINES, _P.sum() / _MACHINES / 3),
            A_eq=a_eq, b_eq=np.ones(_JOBS), bounds=(0, 1), method="highs")


# kind -> (kernel, nominal time): the kernel's median wall time on the 2-core
# x86-64 machine the bounds were set on, in its slow state (about 20 ms in its
# fast state); any fixed value works, it only sets the scale
KERNELS = {"small": (_small, 0.035), "large": (_large, 0.036)}


def timer(kind):
    """A function that runs the kernel once and returns its wall time."""
    run, _ = KERNELS[kind]

    def timed():
        t = time.perf_counter()
        run()
        return time.perf_counter() - t
    return timed


if __name__ == "__main__":
    import statistics
    for kind in KERNELS:
        timed = timer(kind)
        times = [timed() for _ in range(30)]
        print(f"{kind}: median {statistics.median(times) * 1000:.2f} ms, "
              f"min {min(times) * 1000:.2f} ms, max {max(times) * 1000:.2f} ms")
