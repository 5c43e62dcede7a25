"""Tests for the telemetry subsystem (:mod:`repro.obs`).

Covers the guarantees the observability layer claims: near-zero cost
while disabled, exact histogram quantiles, order-independent document
merging (the same ``metrics.json`` regardless of worker scheduling),
Perfetto-loadable trace documents that say which worker ran what, and
the schema validator the CI telemetry job runs.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from pathlib import Path

import pytest

from repro import obs
from repro.obs.metrics import MAX_HISTOGRAM_SAMPLES, Histogram, MetricsRegistry
from repro.obs.schema import check, validate

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "schemas"


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / name).read_text())


@pytest.fixture(autouse=True)
def telemetry_off_after_test():
    """Never leak a process-global recorder into the next test."""
    yield
    obs.disable()


# ----------------------------------------------------------------------
# metric names and quantiles
# ----------------------------------------------------------------------

def test_labelled_sorts_keys_canonically():
    assert obs.labelled("hits") == "hits"
    assert obs.labelled("out", b=2, a="x") == "out{a=x,b=2}"
    # the same labels in any kwarg order produce the same key
    assert obs.labelled("out", a="x", b=2) == obs.labelled("out", b=2, a="x")


def test_quantile_linear_interpolation():
    values = [1.0, 2.0, 3.0, 4.0]
    assert obs.quantile(values, 0.0) == 1.0
    assert obs.quantile(values, 1.0) == 4.0
    assert obs.quantile(values, 0.5) == pytest.approx(2.5)
    assert obs.quantile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        obs.quantile([], 0.5)
    with pytest.raises(ValueError):
        obs.quantile(values, 1.5)


def test_histogram_summary_statistics():
    histogram = Histogram()
    for value in [5.0, 1.0, 3.0, 2.0, 4.0]:
        histogram.observe(value)
    summary = histogram.summary()
    assert summary["count"] == 5
    assert summary["min"] == 1.0 and summary["max"] == 5.0
    assert summary["sum"] == pytest.approx(15.0)
    assert summary["mean"] == pytest.approx(3.0)
    assert summary["p50"] == pytest.approx(3.0)
    expected_p99 = obs.quantile(sorted(histogram.values), 0.99)
    assert summary["p99"] == pytest.approx(expected_p99)


def test_histogram_thinning_bounds_memory():
    histogram = Histogram()
    for index in range(MAX_HISTOGRAM_SAMPLES + 1):
        histogram.observe(float(index))
    assert len(histogram.values) <= MAX_HISTOGRAM_SAMPLES
    # thinning keeps the distribution representative, not truncated
    assert histogram.quantile(0.5) == pytest.approx(
        MAX_HISTOGRAM_SAMPLES / 2, rel=0.01
    )


# ----------------------------------------------------------------------
# merge semantics: order independence is what makes shards deterministic
# ----------------------------------------------------------------------

def make_registry(counter: float, gauge: float, samples: list[float]) -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.inc("runs", counter)
    registry.gauge("peak", gauge)
    for sample in samples:
        registry.observe("latency_s", sample)
    return registry


def test_merge_is_order_independent():
    shards = [
        make_registry(2, 5.0, [0.3, 0.1]).snapshot(include_values=True),
        make_registry(1, 9.0, [0.2]).snapshot(include_values=True),
        make_registry(4, 1.0, [0.5, 0.4, 0.6]).snapshot(include_values=True),
    ]
    forward = MetricsRegistry()
    backward = MetricsRegistry()
    for shard in shards:
        forward.merge(shard)
    for shard in reversed(shards):
        backward.merge(shard)
    assert forward.snapshot() == backward.snapshot()
    snapshot = forward.snapshot()
    assert snapshot["counters"]["runs"] == 7
    assert snapshot["gauges"]["peak"] == 9.0
    assert snapshot["histograms"]["latency_s"]["count"] == 6


def test_merge_skips_summary_only_histograms():
    source = make_registry(1, 1.0, [0.1, 0.2])
    target = MetricsRegistry()
    target.merge(source.snapshot(include_values=False))
    assert target.counters["runs"] == 1
    assert "latency_s" not in target.histograms  # samples were dropped


def test_recorder_renders_absorbed_documents_sorted():
    parent = obs.TelemetryRecorder(process="main")
    parent.pid = 1  # simulate distinct processes in one test
    for pid, process in [(30, "worker"), (10, "main"), (20, "worker")]:
        recorder = obs.TelemetryRecorder(process=process)
        recorder.pid = pid
        with recorder.span("unit.phase", {"pid": pid}):
            pass
        parent.absorb(recorder.snapshot_doc())
    metrics = obs.metrics_document(parent.metrics, parent.processes())
    assert metrics["processes"] == [
        {"pid": 1, "process": "main"},
        {"pid": 10, "process": "main"},
        {"pid": 20, "process": "worker"},
        {"pid": 30, "process": "worker"},
    ]
    assert metrics["counters"]["span.count{span=unit.phase}"] == 3
    events = obs.trace_document(parent.events)["traceEvents"]
    keys = [(event["ts"], event["pid"]) for event in events]
    assert keys == sorted(keys)


def test_determinism_view_drops_schedule_dependent_families():
    doc = {
        "counters": {
            "experiment.ok": 3,
            "dta.chip_cycles": 12,
            # kernel calls depend on how the schedule batches chips
            "dta.evaluations": 1,
            "dta.cycles_analyzed": 6,
            "checkpoint.hits": 5,
            "worker.tasks": 4,
            "span.count{span=worker.task}": 4,
            "sta.analyses": 2,
            "pv.chips_fabricated": 2,
            # a family nobody declared schedule-invariant stays out
            "newfamily.things": 7,
        },
        "gauges": {"parallel.jobs": 4},
        "histograms": {"span.experiment.run.s": {"count": 3}},
    }
    view = obs.determinism_view(doc)
    assert view == {"counters": {
        "experiment.ok": 3, "dta.chip_cycles": 12, "pv.chips_fabricated": 2,
    }}


# ----------------------------------------------------------------------
# recorder: spans and trace events
# ----------------------------------------------------------------------

def test_span_records_event_histogram_and_counter():
    recorder = obs.enable(obs.TelemetryRecorder(process="main"))
    with obs.span("unit.step", attempt=1, mode=None):
        obs.inc("unit.seen")
    events = [e for e in recorder.events if e["ph"] == "X"]
    assert len(events) == 1
    event = events[0]
    assert event["name"] == "unit.step"
    assert event["cat"] == "unit"
    assert event["args"] == {"attempt": 1, "mode": None}
    assert event["dur"] >= 0
    assert recorder.metrics.counters["span.count{span=unit.step}"] == 1
    assert recorder.metrics.histograms["span.unit.step.s"].count == 1


def test_trace_document_conforms_to_checked_in_schema():
    recorder = obs.enable(obs.TelemetryRecorder(process="main"))
    with obs.span("unit.outer", label="x"):
        with obs.span("unit.inner"):
            pass
    doc = obs.trace_document(recorder.events)
    check(doc, load_schema("trace.schema.json"), label="trace.json")
    # the metadata event names the process for Perfetto's track labels
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert meta and meta[0]["args"]["name"].startswith("main-")


def test_metrics_document_conforms_to_checked_in_schema():
    recorder = obs.enable(obs.TelemetryRecorder(process="main"))
    with obs.span("unit.step"):
        obs.inc("unit.seen", experiment="fig3_4")
        obs.gauge("unit.peak", 3.5)
    doc = obs.metrics_document(
        recorder.metrics, [{"pid": recorder.pid, "process": "main"}]
    )
    check(doc, load_schema("metrics.schema.json"), label="metrics.json")


# ----------------------------------------------------------------------
# disabled-path overhead: the reason instrumentation can stay always-on
# ----------------------------------------------------------------------

def test_disabled_telemetry_is_near_free():
    assert not obs.enabled()
    iterations = 50_000
    start = time.perf_counter()
    for _ in range(iterations):
        with obs.span("unit.hot", index=0):
            obs.inc("unit.hot")
    elapsed = time.perf_counter() - start
    # budget: 20µs per span+counter pair — an order of magnitude above
    # what the None-check fast path costs, so only a real regression
    # (e.g. allocating per-call spans while off) trips it.
    assert elapsed < iterations * 20e-6, f"{elapsed:.3f}s for {iterations} no-ops"
    assert obs.span("unit.hot") is obs.span("unit.hot")  # shared singleton


# ----------------------------------------------------------------------
# schema validator
# ----------------------------------------------------------------------

def test_validator_reports_each_violation():
    schema = {
        "type": "object",
        "required": ["version"],
        "properties": {"version": {"type": "integer", "minimum": 1}},
        "additionalProperties": False,
    }
    assert validate({"version": 1}, schema) == []
    errors = validate({"version": 0, "extra": True}, schema)
    assert any("minimum" in error for error in errors)
    assert any("extra" in error for error in errors)
    errors = validate({}, schema)
    assert any("version" in error for error in errors)


def test_validator_rejects_bool_as_number_and_bad_enum():
    assert validate(True, {"type": "number"})
    assert validate(2, {"type": "number"}) == []
    assert validate("ns", {"enum": ["ms", "ns"]}) == []
    assert validate("us", {"enum": ["ms", "ns"]})
    assert validate([1], {"type": "array", "minItems": 2})


def test_validator_refuses_unsupported_schema_keys():
    with pytest.raises(ValueError, match="unsupported schema keys"):
        validate({}, {"patternProperties": {}})


def test_check_raises_with_label():
    with pytest.raises(ValueError, match="metrics.json fails"):
        check([], {"type": "object"}, label="metrics.json")


# ----------------------------------------------------------------------
# end-to-end: the CLI's telemetry artifacts are deterministic and valid
# ----------------------------------------------------------------------

pytest_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel telemetry relies on cheap fork workers",
)


#: fig4_8 times several chips per (benchmark, corner): the fleet prefetch
#: batches them into one kernel call where a serial run makes one each.
TELEMETRY_EXPERIMENTS = ("fig3_4", "fig4_8", "tab3_ovh", "tab4_ovh")


def run_cli_with_telemetry(tmp_path, name, jobs):
    from repro.experiments.__main__ import main

    metrics = tmp_path / f"metrics-{name}.json"
    trace = tmp_path / f"trace-{name}.json"
    code = main([
        *TELEMETRY_EXPERIMENTS, "--fast", "--cycles", "200",
        "--jobs", str(jobs), "--checkpoint-dir", str(tmp_path / f"ckpt-{name}"),
        "--metrics-out", str(metrics), "--trace-out", str(trace),
    ])
    assert code == 0
    return json.loads(metrics.read_text()), json.loads(trace.read_text())


@pytest_fork
def test_cli_metrics_are_schedule_invariant_and_schema_valid(tmp_path, capsys):
    serial_metrics, serial_trace = run_cli_with_telemetry(tmp_path, "serial", 1)
    fleet_metrics, fleet_trace = run_cli_with_telemetry(tmp_path, "fleet", 4)

    # the documented determinism guarantee: --jobs 1 and --jobs 4 agree
    # on every schedule-invariant counter, bit for bit
    assert obs.determinism_view(serial_metrics) == obs.determinism_view(fleet_metrics)
    assert serial_metrics["counters"]["experiment.ok"] == 4

    for doc in (serial_metrics, fleet_metrics):
        check(doc, load_schema("metrics.schema.json"), label="metrics.json")
    for doc in (serial_trace, fleet_trace):
        check(doc, load_schema("trace.schema.json"), label="trace.json")

    # the fleet run folded in worker results: >1 process contributed,
    # and a worker that ran several tasks is listed once
    assert len(fleet_metrics["processes"]) > 1
    assert {p["process"] for p in fleet_metrics["processes"]} == {"main", "worker"}
    pids = [p["pid"] for p in fleet_metrics["processes"]]
    assert len(pids) == len(set(pids))

    # the trace answers "which worker ran what": one worker.task span
    # per experiment, each on a pid metrics.json lists as a worker
    tasks = [e for e in fleet_trace["traceEvents"] if e["name"] == "worker.task"]
    assert len(tasks) == len(TELEMETRY_EXPERIMENTS)
    assert sorted(e["args"]["experiment"] for e in tasks) == sorted(TELEMETRY_EXPERIMENTS)
    workers = {p["pid"] for p in fleet_metrics["processes"] if p["process"] == "worker"}
    assert {e["pid"] for e in tasks} <= workers

    # the terminal summary table rendered for the human
    out = capsys.readouterr().out
    assert "telemetry: spans by total wall-clock" in out
    assert "[checkpoints:" in out

    # telemetry off again after main() returns
    assert not obs.enabled()
