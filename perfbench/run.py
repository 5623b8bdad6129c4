"""maxnorm benchmark: one workload per process, one caller in a closed loop.

    python3 perfbench/run.py --workload kcenter --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from ./src.
The process runs whole passes over the workload's cases, starting another
only while it is expected to end within --seconds, checks every output
apart from the program, and prints one JSON line last: the end-to-end
metrics with --trace 0, or the per-layer metrics of a traced run with
--trace 1.  End-to-end solve times are in reference seconds (reference.py),
which take out the machine's changes of speed; the wall-clock figures go to
the results file.  Results and traces are written under perfbench/results/.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# one thread for every BLAS the interpreter may load; set before NumPy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5


def load_program():
    if not (SRC / "maxnorm" / "__init__.py").is_file():
        sys.exit(f"no maxnorm package under {SRC}; run from the root of a source tree")
    sys.path.insert(0, str(SRC))
    import maxnorm
    return maxnorm


def set_up(workload, seed):
    """Everything done once before the first timed solve."""
    api = load_program()
    cases = workloads.build(api, workload, seed)
    workloads.warm_up(api)
    return api, cases


def setup_seconds(args, own):
    """Median set-up time of this process and of fresh processes that only
    set up, each measured from the top of this script to the end of set-up."""
    times = [own]
    for _ in range(SETUP_PROBES - 1):
        probe = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                                "--workload", args.workload, "--seed", str(args.seed)],
                               check=True, timeout=120, capture_output=True, text=True)
        times.append(float(probe.stdout))
    return statistics.median(times)


KERNEL_SHARE = 0.1  # kernel time after a solve, as a share of the solve's time


class Loop:
    """Closed loop over whole passes; records solve times and checks.  With a
    reference `kernel` kind, a block of that kernel runs before the first
    solve and after every solve (once, or for KERNEL_SHARE of the solve's
    time), and each solve also gets its time in reference seconds: its wall
    time times the kernel's nominal time over the mean kernel time of the two
    blocks around it."""

    def __init__(self, api, cases, kernel=None):
        self.api, self.cases = api, cases
        self.kernel = kernel and reference.timer(kernel)
        self.nominal_s = kernel and reference.KERNELS[kernel][1]
        self.kernel_s = []  # kernel times, in order
        self.block = None  # mean kernel time of the last block
        if self.kernel:
            self.kernel()  # the first call pays for cold caches
            self.run_block(0.0)
        self.solves = []  # (case, wall seconds) per completed solve
        self.ref_times = []  # reference seconds per completed solve, with a kernel
        self.attempted = self.failed = 0
        self.first = {}  # case name -> (value, bound) of its first solve
        self.consistent = True  # exact per-layer counts repeated on every traced pass

    def run_block(self, solve_s):
        block = [self.kernel()]
        while sum(block) < KERNEL_SHARE * solve_s:
            block.append(self.kernel())
        self.kernel_s.extend(block)
        self.block = statistics.fmean(block)

    @property
    def times(self):
        return [dt for _, dt in self.solves]

    def run_pass(self):
        solved = 0.0
        for case in self.cases:
            self.attempted += 1
            t = time.perf_counter()
            try:
                out = case.run(self.api)
            except Exception:  # a raising solve is a failed operation
                self.failed += 1
                traceback.print_exc()
                continue
            dt = time.perf_counter() - t
            self.solves.append((case, dt))
            solved += dt
            if self.kernel:
                before = self.block
                self.run_block(dt)
                self.ref_times.append(dt * self.nominal_s / ((before + self.block) / 2))
            try:
                got = case.check(out)
                checks.require(self.first.setdefault(case.name, got) == got,
                               f"{case.name}: {got} differs from its first solve")
            except checks.CheckError as exc:
                self.failed += 1
                print(f"check failed: {case.name}: {exc}", file=sys.stderr)
        return solved

    def run_for(self, seconds, after_pass=None):
        """Whole passes, at least one, while the next is expected to end
        within `seconds`; returns the time spent solving.  after_pass() is
        called after each pass."""
        solved, passes, t0 = 0.0, 0, time.perf_counter()
        while True:
            solved += self.run_pass()
            if after_pass is not None:
                after_pass()
            passes += 1
            elapsed = time.perf_counter() - t0
            if elapsed * (passes + 1) / passes > seconds:
                return solved

    def sums(self):
        values = [v for v, _ in self.first.values()]
        bounds = [b for _, b in self.first.values()]
        return sum(values), sum(bounds)


def end_to_end(args, api, cases, own_setup):
    """Solve times in reference seconds.  The median solve is the median over
    cases of each case's median over the passes, so that every case weighs
    alike and one solve caught by the machine's changes of state moves
    nothing.  Set-up time is scaled by the kernel's median over the run:
    set-up is too short to be bracketed by kernels, but the run's median
    follows the machine's drift over minutes."""
    setup_wall = setup_seconds(args, own_setup)
    loop = Loop(api, cases, kernel=workloads.KERNEL[args.workload])
    solved = loop.run_for(args.seconds)
    value_sum, bound_sum = loop.sums()
    per_case = {}
    for (case, _), ref in zip(loop.solves, loop.ref_times):
        per_case.setdefault(case.name, []).append(ref)
    kernel_median = statistics.median(loop.kernel_s)
    metrics = {
        "solves_per_ref_s": (len(loop.ref_times) / sum(loop.ref_times), "1/s"),
        "solve_ref_s.p50": (statistics.median(statistics.median(v) for v in per_case.values()),
                            "s"),
        "setup_s": (setup_wall * loop.nominal_s / kernel_median, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "value_sum": (value_sum, "objective"),
        "bound_sum": (bound_sum, "objective"),
    }
    wall = {"solves_per_s": len(loop.times) / solved,
            "solve_s.p50": statistics.median(loop.times),
            "setup_s": setup_wall,
            "kernel_s.median": kernel_median}
    return loop, metrics, {"wall": wall, "solve_times": loop.times,
                           "solve_ref_times": loop.ref_times, "kernel_times": loop.kernel_s}


def traced(args, api, cases):
    """Each case is solved untraced and then traced, back to back, so that
    the machine's drift falls on both alike.  Per-layer metrics average the
    traced solves per pass; exact counts must repeat on every pass."""
    tracer = tracing.Tracer()

    def with_tracer(case):
        def run(api):
            tracer.install(api)
            try:
                return case.run(api)
            finally:
                tracer.uninstall()
        return workloads.Case(name=case.name, run=run, check=case.check)

    traced_cases = [with_tracer(case) for case in cases]
    traced_ids = {id(case) for case in traced_cases}
    loop = Loop(api, [c for pair in zip(cases, traced_cases) for c in pair])
    passes, first_spans = [], []

    def record():
        spans, counts, matrix = tracer.take_pass()
        if not passes:
            first_spans.extend(spans)
        passes.append(tracing.layer_metrics(spans, counts, matrix))

    loop.run_for(args.seconds, after_pass=record)
    for name in tracing.EXACT_METRICS:
        if len({p[name] for p in passes}) != 1:
            loop.consistent = False
            print(f"exact count {name} differs between traced passes", file=sys.stderr)
    traced_s = sum(dt for case, dt in loop.solves if id(case) in traced_ids)
    untraced_s = sum(dt for case, dt in loop.solves if id(case) not in traced_ids)
    metrics = {name: (statistics.fmean(p[name] for p in passes), unit)
               for name, unit in tracing.LAYER_METRICS}
    metrics["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    extra = {"untraced_solve_s": untraced_s, "traced_solve_s": traced_s,
             "layers_per_traced_pass": passes, "spans_of_first_traced_pass": first_spans}
    return loop, metrics, extra


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["kcenter", "makespan", "fair"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    api, cases = set_up(args.workload, args.seed)
    own_setup = time.perf_counter() - START
    if args.setup_probe:
        print(own_setup)
        return
    rejected = selftest.run(api)
    if args.trace:
        loop, metrics, extra = traced(args, api, cases)
    else:
        loop, metrics, extra = end_to_end(args, api, cases, own_setup)
    result = {"correct": all(rejected.values()) and loop.consistent, "attempted": loop.attempted,
              "failed": loop.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "selftest": rejected,
                   "cases": [c.name for c in cases], "first_pass": loop.first, **extra}, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
