"""Experiment telemetry: metrics, phase tracing, and profiling hooks.

The instrumented layers (``pv``, ``timing``, ``runtime``,
``experiments``) call the module-level helpers below unconditionally;
whether anything is recorded depends on the process-global recorder:

* **Off (default).**  ``span()`` returns a shared no-op context manager
  and ``inc``/``observe``/``gauge`` return after one ``None`` check —
  instrumented code paths cost ~nothing, guarded by the overhead tests
  in ``tests/test_obs.py``.
* **On** (the CLI's ``--metrics-out`` / ``--trace-out`` / ``--profile``,
  or :func:`enable` in tests).  A :class:`TelemetryRecorder` accumulates
  counters/gauges/histograms, emits Chrome trace events per span, and —
  with profiling on — captures ``cProfile`` stats for the slowest spans.

In parallel runs each pool task installs a fresh recorder and returns
its document with the task's result; the parent folds every accepted
document into its own recorder
(:meth:`TelemetryRecorder.absorb`), and :mod:`repro.obs.merge` renders
that one recorder as ``metrics.json`` + ``trace.json``.

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
from repro.obs.events import (
    EVENT_KINDS,
    EVENTS_VERSION,
    EventLog,
    format_event,
    iter_events,
    read_events,
)
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
    merge_shards,
    metrics_document,
    profile_report,
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
    "EVENT_KINDS",
    "EVENTS_VERSION",
    "EventLog",
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
    "disable_events",
    "emit",
    "enable",
    "enable_events",
    "enabled",
    "ensure_worker_events",
    "events_enabled",
    "flatten",
    "format_event",
    "gauge",
    "get_event_log",
    "get_recorder",
    "headline_metrics",
    "history",
    "inc",
    "iter_events",
    "labelled",
    "merge_shards",
    "metrics_document",
    "new_trace_id",
    "observe",
    "profile_report",
    "quantile",
    "read_events",
    "recent_events",
    "render_dashboard",
    "robust_z",
    "span",
    "summary_table",
    "trace_document",
]

#: the process-global recorder; ``None`` means telemetry is off.
_recorder: TelemetryRecorder | None = None

#: the process-global event log; ``None`` means the event stream is off.
_events: EventLog | None = None


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
    carries it as metadata — one id links the report, the ledger record,
    the event stream, and the trace.
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


def emit(kind: str, **fields: Any) -> None:
    """Record one lifecycle event (no-op while the event stream is off)."""
    log = _events
    if log is not None:
        log.emit(kind, **fields)


# ----------------------------------------------------------------------
# event-stream lifecycle
# ----------------------------------------------------------------------

def enable_events(log: EventLog) -> EventLog:
    """Install ``log`` as this process's event sink."""
    global _events
    _events = log
    return log


def disable_events() -> None:
    global _events
    if _events is not None:
        _events.close()
    _events = None


def events_enabled() -> bool:
    return _events is not None


def get_event_log() -> EventLog | None:
    return _events


def recent_events(n: int = 16) -> tuple[str, ...]:
    """The flight recorder's last ``n`` events (crash context)."""
    log = _events
    if log is None:
        return ()
    return tuple(log.recent(n))


def ensure_worker_events(path: str | None, trace_id: str = "") -> EventLog | None:
    """Point a worker process's event sink at the run's event file.

    Fork workers inherit the parent's :class:`EventLog` (same path, a
    shared ``O_APPEND`` descriptor — whole-line appends interleave
    safely), so an inherited log targeting the same file is kept.
    ``path=None`` (events off) drops any inherited log.
    """
    global _events
    if path is None:
        _events = None
        return None
    log = _events
    if log is not None and log.path == str(path):
        return log
    return enable_events(EventLog(path, trace_id=trace_id))
