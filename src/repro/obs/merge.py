"""Telemetry document merging and rendering.

A telemetry run has one in-memory recorder, in the parent.  Pool
workers return a telemetry document with each task's result and the
parent folds every accepted one into that recorder
(:meth:`~repro.obs.recorder.TelemetryRecorder.absorb`), so a result
lost to a broken pool takes its counters with it.  This module renders
recorder documents into the two artefacts the CLI emits:

* ``metrics.json`` — merged counters/gauges/histogram summaries, keys
  sorted, values rounded; identical regardless of the order documents
  are merged in (counters add, gauges max, histogram samples re-sort).
* ``trace.json`` — a Chrome trace-event document (``traceEvents`` +
  ``displayTimeUnit``) that loads in ``chrome://tracing`` / Perfetto,
  events sorted on a stable key.

:func:`determinism_view` defines which part of ``metrics.json`` is
*schedule-invariant*: the same experiment set must produce the same
view at ``--jobs 1`` and ``--jobs 4``.  It keeps only the counter
families of :data:`SCHEDULE_INVARIANT_COUNTERS` (experiment outcomes,
artefact computations, DTA evaluations); timing histograms, gauges, and
every other counter are dropped.  The CI determinism test and
``benchmarks/check_regression.py`` both consume this view.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.metrics import MetricsRegistry

#: the counter families whose totals depend only on the experiment set,
#: never on the ``--jobs`` schedule: each is counted once per accepted
#: outcome or once per artefact computed.  Everything else — spans,
#: checkpoint and claim traffic, worker and shared-memory mechanics,
#: and the science counters a serial run memoises across experiments
#: while parallel workers recompute them per task — is left out.
SCHEDULE_INVARIANT_COUNTERS = (
    "dta.",
    "experiment.",
    "pv.chips_fabricated",
    "pv.characterizations",
    "runner.error_traces_computed",
)


def merge_shards(
    docs: Iterable[dict[str, Any]],
) -> tuple[MetricsRegistry, list[dict[str, Any]], list[dict[str, Any]],
           list[dict[str, Any]]]:
    """Fold recorder documents into (registry, trace events, profiles, processes)."""
    registry = MetricsRegistry()
    events: list[dict[str, Any]] = []
    profiles: list[dict[str, Any]] = []
    processes: list[dict[str, Any]] = []
    for doc in docs:
        registry.merge(doc.get("metrics", {}))
        events.extend(doc.get("trace_events", []))
        profiles.extend(doc.get("profiles", []))
        processes.extend(doc.get("processes", []))
    events.sort(key=lambda e: (e.get("ts", 0), e.get("pid", 0),
                               e.get("tid", 0), e.get("name", "")))
    profiles.sort(key=lambda p: (-p.get("duration_s", 0.0), p.get("span", "")))
    processes.sort(key=lambda p: (p["process"], p["pid"]))
    return registry, events, profiles, processes


def metrics_document(
    registry: MetricsRegistry, processes: list[dict[str, Any]] | None = None
) -> dict[str, Any]:
    """The ``metrics.json`` payload: summaries only, keys sorted."""
    snapshot = registry.snapshot(include_values=False)
    return {
        "version": snapshot["version"],
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": snapshot["histograms"],
        "processes": processes or [],
    }


def trace_document(
    events: list[dict[str, Any]], trace_id: str | None = None
) -> dict[str, Any]:
    """A Chrome trace-event JSON document (Perfetto-loadable).

    ``trace_id`` (when the run has one) rides in the top-level
    ``metadata`` object — Perfetto ignores unknown top-level keys, and
    it lets tooling link a trace file back to its ledger record and
    event stream.
    """
    doc: dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
    if trace_id:
        doc["metadata"] = {"trace_id": trace_id}
    return doc


def determinism_view(metrics_doc: dict[str, Any]) -> dict[str, Any]:
    """The schedule-invariant slice of a metrics document.

    Keeps only the counters of a :data:`SCHEDULE_INVARIANT_COUNTERS`
    family (histograms and gauges carry timing values); what is left
    must be bit-identical between ``--jobs 1`` and ``--jobs N`` runs of
    the same experiment set.
    """
    counters = {
        name: value
        for name, value in metrics_doc.get("counters", {}).items()
        if name.startswith(SCHEDULE_INVARIANT_COUNTERS)
    }
    return {"counters": counters}


def summary_table(metrics_doc: dict[str, Any], top: int = 12) -> str:
    """Human terminal summary: spans ranked by total wall-clock."""
    rows = []
    for name, entry in metrics_doc.get("histograms", {}).items():
        if not (name.startswith("span.") and name.endswith(".s")):
            continue
        rows.append((entry["sum"], name[len("span."):-len(".s")], entry))
    rows.sort(key=lambda row: (-row[0], row[1]))
    lines = ["== telemetry: spans by total wall-clock =="]
    if not rows:
        lines.append("  (no spans recorded)")
        return "\n".join(lines)
    width = max(len(name) for _, name, _ in rows[:top])
    header = (f"  {'span'.ljust(width)}  {'count':>6}  {'total_s':>9}"
              f"  {'mean_s':>9}  {'p95_s':>9}")
    lines.append(header)
    for total, name, entry in rows[:top]:
        lines.append(
            f"  {name.ljust(width)}  {entry['count']:>6d}  {total:>9.3f}"
            f"  {entry['mean']:>9.4f}  {entry['p95']:>9.4f}"
        )
    if len(rows) > top:
        lines.append(f"  ... and {len(rows) - top} more span(s)")
    return "\n".join(lines)


def profile_report(profiles: list[dict[str, Any]], top: int = 5) -> str:
    """Plain-text report of the slowest profiled spans."""
    if not profiles:
        return "no spans were profiled (was --profile set and any span run?)\n"
    sections = []
    for rank, entry in enumerate(profiles[:top], start=1):
        sections.append(
            f"== profile {rank}/{min(top, len(profiles))}: "
            f"{entry['span']} ({entry['duration_s']:.3f}s) ==\n"
            f"{entry['stats']}"
        )
    return "\n".join(sections)
