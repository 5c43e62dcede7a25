"""Telemetry rendering: the recorder's ``metrics.json`` and ``trace.json``.

A telemetry run has one in-memory recorder, in the parent.  Pool
workers return a telemetry document with each task's result and the
parent folds every accepted one into that recorder
(:meth:`~repro.obs.recorder.TelemetryRecorder.absorb`), so a result
lost to a broken pool takes its counters with it.  This module renders
that recorder into the two artefacts the CLI emits:

* ``metrics.json`` — merged counters/gauges/histogram summaries, keys
  sorted, values rounded; identical regardless of the order documents
  were absorbed in (counters add, gauges max, histogram samples
  re-sort), plus the contributing processes sorted by (name, pid).
* ``trace.json`` — a Chrome trace-event document (``traceEvents`` +
  ``displayTimeUnit``) that loads in ``chrome://tracing`` / Perfetto,
  events sorted on a stable key.  Each pool task is one
  ``worker.task`` / ``worker.prefetch`` span on its worker's pid, so
  the trace alone answers which worker ran what, and for how long.

:func:`determinism_view` defines which part of ``metrics.json`` is
*schedule-invariant*: the same experiment set must produce the same
view at ``--jobs 1`` and ``--jobs 4``.  It keeps only the counter
families of :data:`SCHEDULE_INVARIANT_COUNTERS` (experiment outcomes,
artefact computations, DTA chip-cycles); timing histograms, gauges, and
every other counter are dropped.  The CI determinism test and
``benchmarks/check_regression.py`` both consume this view.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import MetricsRegistry

#: the counter families whose totals depend only on the experiment set,
#: never on the ``--jobs`` schedule: each is counted once per accepted
#: outcome or once per artefact computed.  Everything else — spans,
#: checkpoint and claim traffic, worker and shared-memory mechanics,
#: and the science counters a serial run memoises across experiments
#: while parallel workers recompute them per task — is left out.  So
#: are the DTA kernel-call counters (``dta.evaluations``,
#: ``dta.cycles_analyzed``): the fleet prefetch times every chip that
#: shares (benchmark, corner, buffered) in one batch-kernel call where
#: a serial run makes one call per chip, so only the chip·cycle and
#: single-transition totals are schedule-free.
SCHEDULE_INVARIANT_COUNTERS = (
    "dta.chip_cycles",
    "dta.single_transitions",
    "experiment.",
    "pv.chips_fabricated",
    "pv.characterizations",
    "runner.error_traces_computed",
)


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
        "processes": sorted(processes or [], key=lambda p: (p["process"], p["pid"])),
    }


def trace_document(
    events: list[dict[str, Any]], trace_id: str | None = None
) -> dict[str, Any]:
    """A Chrome trace-event JSON document (Perfetto-loadable).

    ``trace_id`` (when the run has one) rides in the top-level
    ``metadata`` object — Perfetto ignores unknown top-level keys, and
    it lets tooling link a trace file back to its ledger record and
    audit stream.
    """
    events = sorted(
        events, key=lambda e: (e.get("ts", 0), e.get("pid", 0), e.get("tid", 0), e.get("name", ""))
    )
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
