"""Spans around the program's layers, recorded from the benchmark's side.

Tracer.install() replaces each layer function under every name the program
looks it up by (modules bind many of them by name at import), so a span
opens wherever the call is made.  Spans are (name, start, end, parent)
tuples kept in memory; layer_metrics() turns one pass of them into the
per-layer metrics, where a layer's self time is its span time minus the
time its direct child spans cover.
"""

import time
from collections import Counter, defaultdict

import numpy as np

# (metric name, unit) in the order they are printed
LAYER_METRICS = [
    ("lp.solve_lp.calls", "count"),
    ("lp.solve_lp.optimal_share", "ratio"),
    ("lp.solve_lp.self_s", "s"),
    ("lp.linprog.s", "s"),
    ("lp.linprog.per_call_ms", "ms"),
    ("lp.check_residuals.s", "s"),
    ("lp.matrix_mb.max", "MiB"),
    ("lp.simplex_solve.calls", "count"),
    ("lp.simplex_solve.s", "s"),
    ("lp.simplex_solve.rows", "count"),
    ("lp.cutting_plane.iterations", "count"),
    ("lp.cutting_plane.self_s", "s"),
    ("fair.round_and_cut.calls", "count"),
    ("fair.separation.self_s", "s"),
    ("load.model_build.s", "s"),
    ("load.scan.self_s", "s"),
    ("load.shmoys_tardos_round.calls", "count"),
    ("load.shmoys_tardos_round.s", "s"),
    ("cluster.model_build.s", "s"),
    ("cluster.scan.self_s", "s"),
    ("cluster.split_and_normalize.s", "s"),
    ("cluster.build_bundles.s", "s"),
    ("bundlelp.flow.calls", "count"),
    ("bundlelp.flow.s", "s"),
    ("bundlelp.knapsack_lp.s", "s"),
    ("sparsify.threshold_sequences", "count"),
    ("sparsify.s", "s"),
    ("instances.finite_sizes.calls", "count"),
    ("instances.finite_sizes.s", "s"),
    ("instances.eval_objective.s", "s"),
    ("norms.eval_norm.calls", "count"),
]

# metrics that must repeat exactly from one traced pass (or run) to the next
EXACT_METRICS = [name for name, _ in LAYER_METRICS
                 if name.endswith((".calls", ".iterations", ".rows", ".optimal_share",
                                   ".max")) or name == "sparsify.threshold_sequences"]

SPARSIFY_NAMES = ("geometric_grid", "single_threshold_candidates", "snap_to_grid",
                  "sparsified_gap_bound", "sparsify_weights")


def _matrix_bytes(a):
    """Bytes of a constraint matrix as handed to linprog, dense or sparse."""
    if a is None:
        return 0
    if isinstance(a, np.ndarray):
        return a.nbytes
    return sum(getattr(a, part).nbytes for part in ("data", "indices", "indptr")
               if hasattr(a, part))


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.stack = []
        self.counts = Counter()
        self.matrix_bytes = 0
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(out)
            return out
        return traced

    def wrap_generator(self, fn, name, counter):
        """Spans around each step of a generator; counts what it yields."""
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts[counter] += 1
                yield item
        return traced

    # -- hooks -------------------------------------------------------------

    def _linprog_args(self, args, kwargs):
        size = _matrix_bytes(kwargs.get("A_ub")) + _matrix_bytes(kwargs.get("A_eq"))
        self.matrix_bytes = max(self.matrix_bytes, size)
        return args, kwargs

    def _solve_lp_result(self, sol):
        self.counts["lp.solve_lp.optimal"] += sol.status == "optimal"

    def _simplex_args(self, args, kwargs):
        rows = args[0] if args else kwargs["rows"]
        self.counts["lp.simplex_solve.rows"] += len(rows)
        return args, kwargs

    def _cutting_plane_args(self, args, kwargs):
        args = list(args)
        if len(args) > 2:
            args[2] = self._oracle(args[2])
        else:
            kwargs["oracle"] = self._oracle(kwargs["oracle"])
        return tuple(args), kwargs

    def _oracle(self, oracle):
        def counted(*a, **k):
            self.counts["lp.cutting_plane.iterations"] += 1
            return oracle(*a, **k)
        return self.wrap(counted, "fair.separation")

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, api):
        """Wrap every binding of every traced layer function."""
        from maxnorm import bundlelp, cluster, fair, instances, load, lp

        def bind(owners, attr, name, **hooks):
            for owner in owners:
                self._patch(owner, attr, self.wrap(getattr(owner, attr), name, **hooks))

        bind([lp], "linprog", "lp.linprog", before=self._linprog_args)
        bind([lp], "_check_residuals", "lp.check_residuals")
        bind([load, cluster, fair, bundlelp], "solve_lp", "lp.solve_lp",
             after=self._solve_lp_result)
        bind([lp, load, fair], "simplex_solve", "lp.simplex_solve", before=self._simplex_args)
        bind([fair], "cutting_plane", "lp.cutting_plane", before=self._cutting_plane_args)
        bind([fair], "round_and_cut", "fair.round_and_cut")
        bind([load, fair], "_topl_load_min_bound_lp", "load.model_build")
        bind([load], "_ordered_load_min_bound_lp", "load.model_build")
        bind([load, fair], "shmoys_tardos_round", "load.shmoys_tardos_round")
        bind([cluster, fair], "_center_lp", "cluster.model_build")
        bind([cluster, fair], "split_and_normalize", "cluster.split_and_normalize")
        bind([cluster, fair], "build_bundles", "cluster.build_bundles")
        bind([bundlelp], "_bundle_flow", "bundlelp.flow")
        bind([cluster], "solve_knapsack_basic", "bundlelp.knapsack_lp")
        bind([load, fair], "eval_load_objective", "instances.eval_objective")
        bind([cluster], "eval_cluster_objective", "instances.eval_objective")
        bind([instances, cluster, fair], "eval_norm", "norms.eval_norm")
        bind([instances.LoadInstance], "finite_sizes", "instances.finite_sizes")
        for owner in (load, cluster):
            for attr in SPARSIFY_NAMES:
                if hasattr(owner, attr):
                    bind([owner], attr, "sparsify")
            self._patch(owner, "enumerate_threshold_sequences", self.wrap_generator(
                owner.enumerate_threshold_sequences, "sparsify",
                "sparsify.threshold_sequences"))
        bind([api], "solve_topl_makespan", "load.scan")
        bind([api], "solve_ordered_makespan", "load.scan")
        for attr in ("solve_topl_kcenter", "solve_ordered_kcenter", "solve_matroid_center",
                     "solve_knapsack_center"):
            bind([api], attr, "cluster.scan")
        bind([api], "solve_fair", "fair.solve_fair")

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- one pass ----------------------------------------------------------

    def take_pass(self):
        """Hand over the spans, counts and largest matrix of the pass just
        run, and start afresh for the next."""
        spans, counts, matrix = self.spans, self.counts, self.matrix_bytes
        self.spans, self.counts, self.matrix_bytes = [], Counter(), 0
        return spans, counts, matrix


def layer_metrics(spans, counts, matrix_bytes):
    """Per-layer metrics of one traced pass."""
    calls, total, own = Counter(), defaultdict(float), defaultdict(float)
    for name, start, end, parent in spans:
        dur = end - start
        calls[name] += 1
        total[name] += dur
        own[name] += dur
        if parent >= 0:
            own[spans[parent][0]] -= dur
    lp_calls = calls["lp.solve_lp"]
    linprog_calls = calls["lp.linprog"]
    return {
        "lp.solve_lp.calls": lp_calls,
        "lp.solve_lp.optimal_share": counts["lp.solve_lp.optimal"] / lp_calls if lp_calls else 0.0,
        "lp.solve_lp.self_s": own["lp.solve_lp"],
        "lp.linprog.s": total["lp.linprog"],
        "lp.linprog.per_call_ms": 1e3 * total["lp.linprog"] / linprog_calls
        if linprog_calls else 0.0,
        "lp.check_residuals.s": total["lp.check_residuals"],
        "lp.matrix_mb.max": matrix_bytes / 2 ** 20,
        "lp.simplex_solve.calls": calls["lp.simplex_solve"],
        "lp.simplex_solve.s": total["lp.simplex_solve"],
        "lp.simplex_solve.rows": counts["lp.simplex_solve.rows"],
        "lp.cutting_plane.iterations": counts["lp.cutting_plane.iterations"],
        "lp.cutting_plane.self_s": own["lp.cutting_plane"],
        "fair.round_and_cut.calls": calls["fair.round_and_cut"],
        "fair.separation.self_s": own["fair.separation"],
        "load.model_build.s": total["load.model_build"],
        "load.scan.self_s": own["load.scan"],
        "load.shmoys_tardos_round.calls": calls["load.shmoys_tardos_round"],
        "load.shmoys_tardos_round.s": total["load.shmoys_tardos_round"],
        "cluster.model_build.s": total["cluster.model_build"],
        "cluster.scan.self_s": own["cluster.scan"],
        "cluster.split_and_normalize.s": total["cluster.split_and_normalize"],
        "cluster.build_bundles.s": total["cluster.build_bundles"],
        "bundlelp.flow.calls": calls["bundlelp.flow"],
        "bundlelp.flow.s": total["bundlelp.flow"],
        "bundlelp.knapsack_lp.s": total["bundlelp.knapsack_lp"],
        "sparsify.threshold_sequences": counts["sparsify.threshold_sequences"],
        "sparsify.s": total["sparsify"],
        "instances.finite_sizes.calls": calls["instances.finite_sizes"],
        "instances.finite_sizes.s": total["instances.finite_sizes"],
        "instances.eval_objective.s": total["instances.eval_objective"],
        "norms.eval_norm.calls": calls["norms.eval_norm"],
    }
