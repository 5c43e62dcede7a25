"""Span recording and Chrome trace events.

A :class:`TelemetryRecorder` is the live end of the telemetry
subsystem: instrumented code opens spans through the module-level
helpers in :mod:`repro.obs`, and each completed span becomes

* one ``"ph": "X"`` (complete) Chrome trace event — the ``trace.json``
  the CLI writes loads directly in ``chrome://tracing`` / Perfetto,
* one sample in the ``span.<name>.s`` histogram, and
* one increment of the ``span.count{span=<name>}`` counter.

Spans are the run's one timing record: they say what ran, on which
process, and for how long.

Each pool task records into a fresh recorder and returns its
:meth:`TelemetryRecorder.snapshot_doc` with the task's result; the
parent folds every accepted document into its own recorder with
:meth:`TelemetryRecorder.absorb`.  Timestamps come from
``time.perf_counter`` against a module-import epoch — under the fork
start method every worker inherits the parent's epoch, so all documents
share one trace timeline.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

from repro.obs.metrics import MetricsRegistry

#: common timeline origin for trace timestamps; fork workers inherit it.
_EPOCH = time.perf_counter()


class NullSpan:
    """The shared do-nothing span returned while telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


NULL_SPAN = NullSpan()


class Span:
    """One live span; records a trace event + duration sample on exit."""

    __slots__ = ("_recorder", "name", "args", "_start")

    def __init__(self, recorder: "TelemetryRecorder", name: str,
                 args: dict[str, Any]) -> None:
        self._recorder = recorder
        self.name = name
        self.args = args
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        end = time.perf_counter()
        self._recorder._finish_span(self.name, self.args, self._start, end)
        return False


class TelemetryRecorder:
    """Metrics + trace events for one process."""

    def __init__(self, process: str = "main", trace_id: str = "") -> None:
        self.metrics = MetricsRegistry()
        self.events: list[dict[str, Any]] = []
        self.process = process
        self.trace_id = trace_id
        self.pid = os.getpid()
        #: pid -> process name of every worker whose document was absorbed
        self.workers: dict[int, str] = {}
        self.events.append({
            "name": "process_name", "ph": "M", "ts": 0, "pid": self.pid,
            "tid": 0, "args": {"name": f"{process}-{self.pid}"},
        })

    # ------------------------------------------------------------------
    def span(self, name: str, attrs: dict[str, Any]) -> Span:
        return Span(self, name, attrs)

    def _finish_span(self, name: str, attrs: dict[str, Any], start: float, end: float) -> None:
        duration = end - start
        args = {key: _jsonable(value) for key, value in attrs.items()}
        if self.trace_id:
            args.setdefault("trace_id", self.trace_id)
        self.events.append({
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": round((start - _EPOCH) * 1e6, 1),
            "dur": round(duration * 1e6, 1),
            "pid": self.pid,
            "tid": threading.get_native_id(),
            "args": args,
        })
        self.metrics.observe(f"span.{name}.s", duration)
        self.metrics.inc("span.count", span=name)

    # ------------------------------------------------------------------
    def processes(self) -> list[dict[str, Any]]:
        """This process and every absorbed worker, one entry per pid."""
        processes = {**self.workers, self.pid: self.process}
        return [{"pid": pid, "process": name} for pid, name in processes.items()]

    def snapshot_doc(self) -> dict[str, Any]:
        """Everything recorded so far (metrics with raw samples included)."""
        return {
            "process": self.process,
            "pid": self.pid,
            "trace_id": self.trace_id,
            "metrics": self.metrics.snapshot(include_values=True),
            "trace_events": list(self.events),
            "processes": self.processes(),
        }

    def absorb(self, doc: dict[str, Any]) -> None:
        """Fold a worker task's :meth:`snapshot_doc` into this recorder.

        Every task ships a fresh recorder's document, so a worker that
        ran several tasks sends its ``process_name`` event each time;
        only the first one per pid is kept.
        """
        self.metrics.merge(doc["metrics"])
        pid = doc["pid"]
        seen = pid in self.workers
        self.workers.setdefault(pid, doc["process"])
        self.events.extend(
            event for event in doc["trace_events"]
            if not (seen and event["ph"] == "M")
        )


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
