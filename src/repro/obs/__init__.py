"""Experiment telemetry: metrics and phase tracing.

The instrumented layers (``pv``, ``timing``, ``runtime``,
``experiments``) call the module-level helpers below unconditionally;
whether anything is recorded depends on the process-global recorder:

* **Off (default).**  ``span()`` returns a shared no-op context manager
  and ``inc``/``observe``/``gauge`` return after one ``None`` check —
  instrumented code paths cost ~nothing, guarded by the overhead tests
  in ``tests/test_obs.py``.
* **On** (the CLI's ``--metrics-out`` / ``--trace-out`` / ``--ledger-dir``,
  or :func:`enable` in tests).  A :class:`TelemetryRecorder` accumulates
  counters/gauges/histograms and emits one Chrome trace event per span.

In parallel runs each pool task installs a fresh recorder and returns
its document with the task's result; the parent folds every accepted
document into its own recorder
(:meth:`TelemetryRecorder.absorb`), and :mod:`repro.obs.merge` renders
that one recorder as ``metrics.json`` + ``trace.json``.  The trace is
the one record of what ran, on which process, and for how long: each
pool task is a ``worker.task`` / ``worker.prefetch`` span on its
worker's pid.

Typical instrumentation::

    from repro import obs

    with obs.span("dta.cycle_timings", cycles=total):
        ...
    obs.inc("dta.evaluations")
    obs.observe("worker.queue_wait_s", waited)
"""

from __future__ import annotations

import os
from typing import Any

from repro.obs.dashboard import render_dashboard
from repro.obs.ledger import (
    LEDGER_FILENAME,
    LEDGER_VERSION,
    RunLedger,
    build_record,
    headline_metrics,
)
from repro.obs.merge import (
    SCHEDULE_INVARIANT_COUNTERS,
    determinism_view,
    metrics_document,
    summary_table,
    trace_document,
)
from repro.obs.metrics import Histogram, MetricsRegistry, labelled, quantile
from repro.obs.recorder import (
    NULL_SPAN,
    NullSpan,
    Span,
    TelemetryRecorder,
)
from repro.obs.trends import detect_drift, diff_records, flatten, history, robust_z

__all__ = [
    "Histogram",
    "LEDGER_FILENAME",
    "LEDGER_VERSION",
    "MetricsRegistry",
    "NullSpan",
    "RunLedger",
    "SCHEDULE_INVARIANT_COUNTERS",
    "Span",
    "TelemetryRecorder",
    "build_record",
    "determinism_view",
    "detect_drift",
    "diff_records",
    "disable",
    "enable",
    "enabled",
    "flatten",
    "gauge",
    "get_recorder",
    "headline_metrics",
    "history",
    "inc",
    "labelled",
    "metrics_document",
    "new_trace_id",
    "observe",
    "quantile",
    "render_dashboard",
    "robust_z",
    "span",
    "summary_table",
    "trace_document",
]

#: the process-global recorder; ``None`` means telemetry is off.
_recorder: TelemetryRecorder | None = None


def enable(recorder: TelemetryRecorder) -> TelemetryRecorder:
    """Install ``recorder`` as this process's telemetry sink."""
    global _recorder
    _recorder = recorder
    return recorder


def disable() -> None:
    """Turn telemetry off (the default state)."""
    global _recorder
    _recorder = None


def enabled() -> bool:
    return _recorder is not None


def get_recorder() -> TelemetryRecorder | None:
    return _recorder


def new_trace_id() -> str:
    """A 128-bit run-scoped trace id (hex, W3C traceparent sized).

    The CLI stamps it into the :class:`~repro.runtime.parallel.WorkerSpec`,
    workers stamp it into every span they record, and the trace document
    carries it as metadata — one id links the ledger record, the audit
    stream, and the trace.
    """
    return os.urandom(16).hex()


# ----------------------------------------------------------------------
# hot-path helpers: one global read + None check when telemetry is off
# ----------------------------------------------------------------------

def span(name: str, **attrs: Any):
    """A phase-tracing context manager (no-op while telemetry is off)."""
    recorder = _recorder
    if recorder is None:
        return NULL_SPAN
    return recorder.span(name, attrs)


def inc(name: str, value: float = 1, **labels: Any) -> None:
    recorder = _recorder
    if recorder is not None:
        recorder.metrics.inc(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    recorder = _recorder
    if recorder is not None:
        recorder.metrics.observe(name, value, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    recorder = _recorder
    if recorder is not None:
        recorder.metrics.gauge(name, value, **labels)
