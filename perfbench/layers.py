"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each ``repro`` layer.
A wrapper records one span per call -- name, start, end, parent span --
in memory, plus the work counts the call carries (columns evaluated,
chips fabricated, bytes read).  Nothing inside the program changes: the
wrapper replaces the function on every ``repro`` module attribute that
is bound to it, because callers such as ``charstudy`` import entry
points by name.

Only calls made at most a few thousand times per run are wrapped; the
per-cycle and per-gate-group functions are not, so tracing stays cheap.
Spans are recorded on the main thread of the process that installed the
wrappers; fork workers inherit the wrappers but their spans are dropped.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from workloads import SCHEMES, rebind


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span store with a call stack for parent links."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()

    def _recording(self) -> bool:
        return os.getpid() == self._pid and threading.get_ident() == self._thread

    def span(self, name, fn, count=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``name`` may instead be a function of the call's first argument
        (a method's instance).  ``count(span, result, args, kwargs)`` may
        add work counts to the span's ``counts`` once the call returns.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._recording():
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            label = name(args[0]) if callable(name) else name
            span = Span(label, parent, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(span, result, args, kwargs)
            return result

        return wrapper

    def run(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a root-level span ``name``."""
        return self.span(name, fn)(*args)

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per-span duration minus the duration of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def summary(self) -> dict:
        """Per-name totals: calls, self seconds and summed work counts."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        counts: Counter = Counter()
        for span, own in zip(self.spans, self.self_times()):
            calls[span.name] += 1
            self_s[span.name] += own
            for key, value in span.counts.items():
                counts[f"{span.name}.{key}"] += value
        return {"calls": dict(calls), "self_s": dict(self_s), "counts": dict(counts)}

    def chrome_trace(self) -> dict:
        """The spans as a Chrome trace-event document (Perfetto-viewable)."""
        if not self.spans:
            return {"traceEvents": []}
        origin = self.spans[0].start
        events = [
            {
                "name": s.name,
                "ph": "X",
                "pid": self._pid,
                "tid": 0,
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "args": {"id": i, "parent": s.parent, **s.counts},
            }
            for i, s in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# work counters, one per wrapped entry point
# ----------------------------------------------------------------------
def _count_events(span, result, args, kwargs):
    span.counts["events"] = int(result is not None)


def _count_columns(span, result, args, kwargs):
    span.counts["columns"] = int(args[1].shape[1])


def _count_chip_cycles(span, result, args, kwargs):
    span.counts["chip_cycles"] = int(result.t_late.size)


def _count_one_chip(span, result, args, kwargs):
    span.counts["chips"] = 1


def _count_population(span, result, args, kwargs):
    span.counts["chips"] = len(result)


def _count_one_trace(span, result, args, kwargs):
    span.counts["traces"] = 1


def _count_traces(span, result, args, kwargs):
    span.counts["traces"] = len(result)


def _count_cycles(span, result, args, kwargs):
    span.counts["cycles"] = len(args[1])


def _count_load(span, result, args, kwargs):
    if result is not None:
        store, key = args[0], args[1]
        span.counts["hits"] = 1
        span.counts["bytes"] = store.path(key).stat().st_size


def _count_save(span, result, args, kwargs):
    store, key = args[0], args[1]
    if result:
        span.counts["bytes"] = store.path(key).stat().st_size


def _count_shm_bytes(span, result, args, kwargs):
    catalog = result[0]
    span.counts["bytes"] = sum(
        int(np.prod(spec.shape)) * np.dtype(spec.dtype).itemsize
        for _key, spec in (catalog.arrays if catalog is not None else ())
    )


def _rebind(old, new) -> None:
    if not rebind(old, new):
        raise RuntimeError(f"entry point {old.__qualname__} is bound nowhere")


def _wrap_method(tracer: Tracer, cls, method: str, name, count=None) -> None:
    setattr(cls, method, tracer.span(name, cls.__dict__[method], count))


def _scheme_span(scheme) -> str:
    key = scheme.name.split("[", 1)[0].lower()
    return f"scheme.{key}" if key in SCHEMES else "scheme.other"


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points in this process."""
    import repro.experiments.__main__  # noqa: F401  (loads every layer)
    from repro.arch import trace
    from repro.core import scheme_sim
    from repro.core.dcs import DcsScheme
    from repro.core.schemes import HfgScheme, OcstScheme, RazorScheme
    from repro.core.trident import TridentScheme
    from repro.experiments import registry, report, reportio, runner
    from repro.pv import chip, montecarlo
    from repro.runtime import checkpoint, parallel
    from repro.timing import choke, dta, logic_eval

    functions = (
        (choke.analyze_choke_event, "choke.analyze", _count_events),
        (dta.single_transition_arrivals, "dta.single", None),
        (logic_eval.evaluate_logic, "logic.eval", _count_columns),
        (dta.batch_cycle_timings, "dta.kernel", _count_chip_cycles),
        (trace.generate_trace, "arch.trace", None),
        (chip.fabricate_chip, "pv.fabricate", _count_one_chip),
        (montecarlo.fabricate_population, "pv.fabricate", _count_population),
        (scheme_sim.build_error_trace, "etrace.build", _count_one_trace),
        (scheme_sim.build_error_traces_batch, "etrace.build", _count_traces),
        (parallel.prefetch_artefacts, "runtime.prefetch", None),
        (parallel.run_many_parallel, "runtime.pool", None),
        (runner.build_shared_artefacts, "runtime.shm_publish", _count_shm_bytes),
        (reportio.render_report, "report.render", None),
    )
    for fn, name, count in functions:
        _rebind(fn, tracer.span(name, fn, count))

    _wrap_method(tracer, trace.InstructionTrace, "encode_inputs", "arch.encode")
    _wrap_method(tracer, report.ExperimentResult, "to_text", "report.render")
    _wrap_method(tracer, checkpoint.CheckpointStore, "load", "ckpt.load", _count_load)
    _wrap_method(tracer, checkpoint.CheckpointStore, "save", "ckpt.save", _count_save)
    for cls in (RazorScheme, HfgScheme, DcsScheme, OcstScheme, TridentScheme):
        _wrap_method(tracer, cls, "simulate", _scheme_span, _count_cycles)

    for experiment_id, (run, title) in list(registry.EXPERIMENTS.items()):
        registry.EXPERIMENTS[experiment_id] = (tracer.span("experiment", run), title)


# ----------------------------------------------------------------------
# layer metrics
# ----------------------------------------------------------------------
#: (metric, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("choke.analyze_s", "s"), ("choke.calls", "count"), ("choke.events", "count"),
    ("choke.yield", "ratio"),
    ("dta.single_s", "s"), ("dta.single_calls", "count"),
    ("logic.eval_s", "s"), ("logic.calls", "count"), ("logic.columns", "count"),
    ("dta.kernel_s", "s"), ("dta.calls", "count"), ("dta.chip_cycles", "count"),
    ("arch.trace_s", "s"), ("arch.encode_s", "s"),
    ("pv.fabricate_s", "s"), ("pv.chips", "count"),
    ("etrace.build_s", "s"), ("etrace.count", "count"),
    *(
        metric
        for name in SCHEMES
        for metric in (
            (f"scheme.{name}.s", "s"),
            (f"scheme.{name}.runs", "count"),
            (f"scheme.{name}.us_per_cycle", "us"),
        )
    ),
    ("ckpt.load_s", "s"), ("ckpt.loads", "count"), ("ckpt.save_s", "s"),
    ("ckpt.saves", "count"), ("ckpt.bytes_read", "B"), ("ckpt.bytes_written", "B"),
    ("ckpt.hit_ratio", "ratio"),
    ("runtime.prefetch_s", "s"), ("runtime.shm_publish_s", "s"),
    ("runtime.shm_bytes", "B"), ("runtime.pool_s", "s"), ("parallel.speedup", "x"),
    ("report.render_s", "s"), ("experiment.self_s", "s"),
    ("trace.unattributed_frac", "ratio"), ("trace.overhead", "x"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict, root: str = "cli") -> dict[str, float]:
    """Per-layer metric values from a :meth:`Tracer.summary`.

    ``parallel.speedup`` and ``trace.overhead`` need untraced runs, so
    they are left at 0 here for the caller to fill in.
    """
    calls = Counter(summary["calls"])
    self_s = Counter(summary["self_s"])
    counts = Counter(summary["counts"])
    out = {
        "choke.analyze_s": self_s["choke.analyze"],
        "choke.calls": calls["choke.analyze"],
        "choke.events": counts["choke.analyze.events"],
        "choke.yield": _ratio(counts["choke.analyze.events"], calls["choke.analyze"]),
        "dta.single_s": self_s["dta.single"],
        "dta.single_calls": calls["dta.single"],
        "logic.eval_s": self_s["logic.eval"],
        "logic.calls": calls["logic.eval"],
        "logic.columns": counts["logic.eval.columns"],
        "dta.kernel_s": self_s["dta.kernel"],
        "dta.calls": calls["dta.kernel"],
        "dta.chip_cycles": counts["dta.kernel.chip_cycles"],
        "arch.trace_s": self_s["arch.trace"],
        "arch.encode_s": self_s["arch.encode"],
        "pv.fabricate_s": self_s["pv.fabricate"],
        "pv.chips": counts["pv.fabricate.chips"],
        "etrace.build_s": self_s["etrace.build"],
        "etrace.count": counts["etrace.build.traces"],
        "ckpt.load_s": self_s["ckpt.load"],
        "ckpt.loads": calls["ckpt.load"],
        "ckpt.save_s": self_s["ckpt.save"],
        "ckpt.saves": calls["ckpt.save"],
        "ckpt.bytes_read": counts["ckpt.load.bytes"],
        "ckpt.bytes_written": counts["ckpt.save.bytes"],
        "ckpt.hit_ratio": _ratio(counts["ckpt.load.hits"], calls["ckpt.load"]),
        "runtime.prefetch_s": self_s["runtime.prefetch"],
        "runtime.shm_publish_s": self_s["runtime.shm_publish"],
        "runtime.shm_bytes": counts["runtime.shm_publish.bytes"],
        "runtime.pool_s": self_s["runtime.pool"],
        "parallel.speedup": 0.0,
        "report.render_s": self_s["report.render"],
        "experiment.self_s": self_s["experiment"],
        # self times partition the root span, so their sum is its length
        "trace.unattributed_frac": _ratio(
            self_s[root] + self_s["experiment"], sum(self_s.values())
        ),
        "trace.overhead": 0.0,
    }
    for name in SCHEMES:
        key = f"scheme.{name}"
        out[f"{key}.s"] = self_s[key]
        out[f"{key}.runs"] = calls[key]
        out[f"{key}.us_per_cycle"] = _ratio(self_s[key] * 1e6, counts[f"{key}.cycles"])
    return out


def write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
