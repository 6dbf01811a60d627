"""In-memory span tracing of diluteu's layer entry points, from outside the package.

A Tracer records one span per call of a wrapped entry point: name, start,
end, parent span and run id. Spans stay in memory until the run ends. The
wrappers are installed under every name a caller can resolve the entry
point by (``diluteu.harness.sample_dilution`` is a separate binding from
``diluteu.sampling.sample_dilution``), and methods are wrapped on their
class. ``Tracer.install`` restores every original binding on exit.

Self time is a span's duration minus the part of it that its child spans
cover, so the self times of all spans under a top-level span sum to that
span's duration.
"""

from __future__ import annotations

import contextlib
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, attribute, span name). Dotted attributes are methods on a class.
ENTRY_POINTS = (
    ("sampling", "sample_row", "sampling.sample_row"),
    ("sampling", "sample_dilution", "sampling.sample_dilution"),
    ("sampling", "DilutionGraph.edges", "sampling.edges"),
    ("sampling", "DilutionGraph.edge_count", "sampling.edge_count"),
    ("sampling", "DilutionGraph.degrees", "sampling.degrees"),
    ("sampling", "DilutionGraph.lower", "sampling.lower"),
    ("sampling", "SeedPolicy.child", "sampling.seed"),
    ("kernels", "KernelSpec.pair_values", "kernels.pair_values"),
    ("decomposition", "compute_ustat", "decomposition.compute_ustat"),
    ("decomposition", "hoeffding_parts", "decomposition.hoeffding_parts"),
    ("decomposition", "sample_realization", "decomposition.sample_realization"),
    ("decomposition", "martingale_differences", "decomposition.martingale_differences"),
    ("moments", "moments_closed_form", "moments.moments_closed_form"),
    ("conditions", "sweep_condition", "conditions.sweep_condition"),
    ("conditions", "estimate_eta2", "conditions.estimate_eta2"),
    ("conditions", "estimate_eta1_mean", "conditions.estimate_eta1_mean"),
    ("conditions", "estimate_C1", "conditions.truncated"),
    ("conditions", "estimate_C2", "conditions.truncated"),
    ("conditions", "estimate_C3", "conditions.truncated"),
    ("conditions", "estimate_C4", "conditions.truncated"),
    ("conditions", "estimate_C4prime", "conditions.truncated"),
    ("conditions", "estimate_Cdoubleprime", "conditions.truncated"),
    ("harness", "run_clt_experiment", "harness.replicate_loop"),
    ("harness", "run_counterexample", "harness.replicate_loop"),
    ("harness", "ks_distance", "harness.ks_distance"),
    ("harness", "emit_report", "harness.emit_report"),
)

TOP_SPAN = "bench.workload"
PROBE_SPAN = "trace.memory_probe"

# Spans whose allocations feed sampling.graph_peak_mb.
_GRAPH_SPANS = ("sampling.sample_dilution", "sampling.edges")


class Tracer:
    """Spans and counters of one traced run.

    ``spans`` holds ``[name, start, end, parent, run_id]`` lists, parent
    being an index into ``spans`` or None. Counters: ``kernel_evals``
    (elements returned by ``KernelSpec.pair_values``), ``report_bytes``
    (UTF-8 size of emitted reports), ``graph_peak_bytes`` (largest
    tracemalloc peak inside one dilution or edge-extraction call) and the
    sampled graphs, whose edges are counted once the run ends.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self.kernel_evals = 0
        self.report_bytes = 0
        self.graph_peak_bytes = 0
        self.graphs: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.run_id]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "kernels.pair_values":
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    out = fn(*args, **kwargs)
                tracer.kernel_evals += int(out.size)
                return out
        elif name == "harness.emit_report":
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    text = fn(*args, **kwargs)
                tracer.report_bytes += len(text.encode("utf8"))
                return text
        elif name in _GRAPH_SPANS:
            # Starting and stopping tracemalloc gets its own span, so its
            # cost shows as tracer overhead instead of in the caller's layer.
            def wrapper(*args, **kwargs):
                with tracer.span(PROBE_SPAN):
                    started = not tracemalloc.is_tracing()
                    if started:
                        tracemalloc.start()
                try:
                    with tracer.span(name):
                        out = fn(*args, **kwargs)
                finally:
                    with tracer.span(PROBE_SPAN):
                        peak = tracemalloc.get_traced_memory()[1]
                        if started:
                            tracemalloc.stop()
                tracer.graph_peak_bytes = max(tracer.graph_peak_bytes, peak)
                if name == "sampling.sample_dilution":
                    tracer.graphs.append(out)
                return out
        else:
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextlib.contextmanager
    def install(self, package):
        """Wrap every ENTRY_POINTS binding reachable from ``package``."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        undo = []
        try:
            for module_name, attr, span_name in ENTRY_POINTS:
                home = getattr(package, module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(span_name, orig))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(home, attr)
                wrapped = self._wrap(span_name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, orig))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)


def self_times(spans) -> list:
    """Per-span duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for idx, (_, start, end, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans) -> dict:
    totals: dict = defaultdict(float)
    for (name, *_), t in zip(spans, self_times(spans)):
        totals[name] += t
    return dict(totals)


def calls_by_name(spans) -> dict:
    counts: dict = defaultdict(int)
    for name, *_ in spans:
        counts[name] += 1
    return dict(counts)


_SELF_TIME_SPANS = (
    "sampling.sample_row",
    "sampling.sample_dilution",
    "sampling.edges",
    "sampling.edge_count",
    "sampling.degrees",
    "sampling.lower",
    "sampling.seed",
    "kernels.pair_values",
    "decomposition.compute_ustat",
    "decomposition.hoeffding_parts",
    "decomposition.sample_realization",
    "decomposition.martingale_differences",
    "moments.moments_closed_form",
    "conditions.sweep_condition",
    "conditions.estimate_eta2",
    "conditions.estimate_eta1_mean",
    "conditions.truncated",
    "harness.replicate_loop",
    "harness.ks_distance",
    "harness.emit_report",
)

# (metric, unit, better) for every per-layer metric of the traced run.
LAYER_METRICS = tuple((s + ".self_s", "s", "lower") for s in _SELF_TIME_SPANS) + (
    ("sampling.graphs", "count", "lower"),
    ("sampling.edges_kept", "count", "lower"),
    ("sampling.graph_peak_mb", "MB", "lower"),
    ("kernels.pair_values.calls", "count", "lower"),
    ("kernels.evals", "count", "lower"),
    ("kernels.evals_per_edge", "ratio", "lower"),
    ("harness.report_bytes", "bytes", "lower"),
    ("trace.memory_probe_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("malloc_default.wall_s", "s", "lower"),
    ("malloc_default.sys_s", "s", "lower"),
    ("malloc_default.minor_faults", "count", "lower"),
)

# Per-layer metrics run.py adds from whole repetitions, not from spans.
RUN_LEVEL_METRICS = (
    "trace.overhead_s",
    "malloc_default.wall_s",
    "malloc_default.sys_s",
    "malloc_default.minor_faults",
)

# Metrics that count work; they repeat exactly for a given seed.
COUNT_METRICS = (
    "sampling.graphs",
    "sampling.edges_kept",
    "kernels.pair_values.calls",
    "kernels.evals",
    "harness.report_bytes",
)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one finished traced run (all but trace.overhead_s).

    Call after ``install`` has exited: edges are counted with the original
    ``DilutionGraph.edge_count``, outside every span.
    """
    selfs = self_time_by_name(tracer.spans)
    calls = calls_by_name(tracer.spans)
    tops = [(end - start) for name, start, end, parent, _ in tracer.spans if parent is None]
    edges = sum(g.edge_count() for g in tracer.graphs)
    out = {s + ".self_s": selfs.get(s, 0.0) for s in _SELF_TIME_SPANS}
    out.update(
        {
            "sampling.graphs": len(tracer.graphs),
            "sampling.edges_kept": edges,
            "sampling.graph_peak_mb": tracer.graph_peak_bytes / 2**20,
            "kernels.pair_values.calls": calls.get("kernels.pair_values", 0),
            "kernels.evals": tracer.kernel_evals,
            "kernels.evals_per_edge": tracer.kernel_evals / edges if edges else 0.0,
            "harness.report_bytes": tracer.report_bytes,
            "trace.memory_probe_s": selfs.get(PROBE_SPAN, 0.0),
            "trace.wall_s": sum(tops),
            "trace.unattributed_s": selfs.get(TOP_SPAN, 0.0),
        }
    )
    return out
