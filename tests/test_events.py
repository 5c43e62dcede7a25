"""Tests for the structured event stream.

Covers the crash-safe JSONL event log and its bounded flight recorder
(:class:`repro.obs.EventLog`) and the ``progress`` CLI's event-stream
summarisation.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro import obs
from repro.experiments.progress_cli import (
    progress_main,
    render_summary,
    summarize_events,
)
from repro.obs.schema import check

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "schemas"
EVENTS_SCHEMA = json.loads((SCHEMA_DIR / "events.schema.json").read_text())


@pytest.fixture(autouse=True)
def observability_off_after_test():
    """Never leak a recorder or event log into the next test."""
    yield
    obs.disable()
    obs.disable_events()


# ----------------------------------------------------------------------
# EventLog: crash-safe JSONL + bounded flight recorder
# ----------------------------------------------------------------------

def test_event_log_appends_schema_valid_events(tmp_path):
    path = tmp_path / "events.jsonl"
    log = obs.EventLog(path, trace_id="a" * 32)
    log.emit("run_start", jobs=2, experiments=3)
    log.emit("scheduled", experiment="fig3_4", worker="procpool")
    log.emit("started", experiment="fig3_4", worker="pid:7")
    log.emit("result", experiment="fig3_4", status="ok", elapsed_s=0.25)
    log.emit("run_end", status="ok", ok=3, total=3)
    log.close()

    events = obs.read_events(path)
    assert [e["kind"] for e in events] == [
        "run_start", "scheduled", "started", "result", "run_end",
    ]
    for index, event in enumerate(events):
        check(event, EVENTS_SCHEMA, label=f"event[{index}]")
        assert event["trace_id"] == "a" * 32
        assert event["v"] == obs.EVENTS_VERSION


def test_event_log_drops_none_fields(tmp_path):
    path = tmp_path / "events.jsonl"
    log = obs.EventLog(path)
    event = log.emit("scheduled", experiment="fig3_4", worker=None)
    assert "worker" not in event and "trace_id" not in event
    log.close()
    (replayed,) = obs.read_events(path)
    check(replayed, EVENTS_SCHEMA, label="event[0]")


def test_read_events_tolerates_truncated_tail_and_garbage(tmp_path):
    path = tmp_path / "events.jsonl"
    log = obs.EventLog(path)
    log.emit("run_start", jobs=1)
    log.emit("result", experiment="fig3_4", status="ok")
    log.close()
    with open(path, "a") as handle:
        handle.write("not json at all\n")
        handle.write('{"v": 1, "ts": 1.0, "pid": 2, "kind": "run_')  # died
    events = obs.read_events(path)
    assert [e["kind"] for e in events] == ["run_start", "result"]
    # a missing file is an empty replay, not an error
    assert obs.read_events(tmp_path / "nope.jsonl") == []


def test_flight_recorder_is_bounded_and_renders_compactly(tmp_path):
    log = obs.EventLog(None, flight_size=4)  # flight-only: no file
    for index in range(10):
        log.emit("started", experiment=f"e{index}", worker="w1")
    assert log.count == 10
    assert len(log.flight) == 4
    recent = log.recent(2)
    assert len(recent) == 2
    assert "started" in recent[-1] and "experiment=e9" in recent[-1]


def test_event_log_survives_unwritable_path(tmp_path):
    # a vanished directory degrades to flight-recorder-only, silently —
    # the event stream is telemetry, never a crash source
    log = obs.EventLog(tmp_path / "no" / "such" / "dir" / "events.jsonl")
    log.emit("run_start", jobs=1)
    log.emit("run_end", status="ok")
    assert log._dead
    assert len(log.flight) == 2
    log.close()


def test_emit_is_a_noop_until_enabled(tmp_path):
    assert not obs.events_enabled()
    obs.emit("run_start", jobs=1)  # must not raise
    assert obs.recent_events() == ()
    log = obs.enable_events(obs.EventLog(tmp_path / "events.jsonl"))
    obs.emit("scheduled", experiment="fig3_4")
    assert obs.get_event_log() is log and log.count == 1
    assert any("scheduled" in line for line in obs.recent_events())
    obs.disable_events()
    assert not obs.events_enabled()
    obs.emit("run_end", status="ok")  # off again: dropped
    assert obs.read_events(tmp_path / "events.jsonl") == [log.flight[0]]


def test_ensure_worker_events_keeps_inherited_same_path_log(tmp_path):
    path = str(tmp_path / "events.jsonl")
    inherited = obs.enable_events(obs.EventLog(path))
    assert obs.ensure_worker_events(path) is inherited  # fork worker
    # events off: a worker drops the inherited sink
    assert obs.ensure_worker_events(None) is None
    assert not obs.events_enabled()


def test_disabled_event_stream_is_near_free():
    # same budget rationale as the disabled-telemetry guard: emission
    # from scheduling hot paths must cost one global read when off
    assert not obs.events_enabled()
    iterations = 50_000
    start = time.perf_counter()
    for _ in range(iterations):
        obs.emit("started", experiment="fig3_4", worker="w1")
    elapsed = time.perf_counter() - start
    assert elapsed < iterations * 20e-6, f"{elapsed:.3f}s for {iterations} no-ops"


# ----------------------------------------------------------------------
# progress: event-stream summarisation and rendering
# ----------------------------------------------------------------------

def make_event(kind, ts=0.0, **fields):
    event = {"v": 1, "ts": ts, "pid": 1, "kind": kind}
    event.update({k: v for k, v in fields.items() if v is not None})
    return event


def test_summarize_events_folds_lifecycle_and_worker_health():
    trace_id = "b" * 32
    events = [
        make_event("run_start", 1.0, jobs=2, experiments=3,
                   trace_id=trace_id),
        make_event("scheduled", 1.1, experiment="fig3_4", worker="procpool"),
        make_event("scheduled", 1.1, experiment="tab3_ovh", worker="procpool"),
        make_event("scheduled", 1.1, experiment="tab4_ovh", worker="procpool"),
        make_event("started", 1.4, experiment="fig3_4", worker="w1"),
        make_event("started", 1.5, experiment="tab3_ovh", worker="w1"),
        make_event("started", 1.5, experiment="tab4_ovh", worker="w2"),
        make_event("result", 2.0, experiment="fig3_4", worker="w1",
                   status="ok", elapsed_s=0.6),
        make_event("crash", 2.1, experiment="tab4_ovh", worker="w2",
                   reason="worker died"),
    ]
    summary = summarize_events(events)
    assert summary["run"]["trace_id"] == trace_id
    assert summary["run"]["jobs"] == 2
    assert not summary["run"]["ended"]
    assert summary["experiments"]["fig3_4"]["status"] == "ok"
    assert summary["experiments"]["fig3_4"]["elapsed_s"] == 0.6
    assert summary["experiments"]["tab3_ovh"]["status"] == "started"
    assert summary["experiments"]["tab4_ovh"]["status"] == "crash"
    w1 = summary["workers"]["w1"]
    assert w1["completed"] == 1
    assert w1["inflight"] == {"tab3_ovh"}
    # the crash took the task off its worker's in-flight set
    assert summary["workers"]["w2"]["inflight"] == set()

    summary = summarize_events(
        events + [make_event("run_end", 2.1, status="ok", ok=2, total=2)]
    )
    assert summary["run"]["ended"] and summary["run"]["status"] == "ok"


def test_render_summary_shows_health_table():
    events = [
        make_event("run_start", 10.0, jobs=2, experiments=1),
        make_event("started", 10.1, experiment="fig3_4", worker="w1"),
        make_event("result", 10.9, experiment="fig3_4", worker="w1",
                   status="ok", elapsed_s=0.8),
        make_event("run_end", 11.0, status="ok", ok=1, total=1),
    ]
    text = render_summary(summarize_events(events), now=12.0)
    assert "1/1 experiment(s) finished" in text
    assert "jobs: 2" in text
    assert "ended (ok)" in text
    assert "worker health" in text
    assert "w1" in text and "1.1" in text  # age = now - last_ts


def test_progress_cli_renders_an_event_file(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    log = obs.EventLog(path)
    log.emit("run_start", jobs=1, experiments=1)
    log.emit("result", experiment="fig3_4", worker="inproc", status="ok",
             elapsed_s=0.1)
    log.emit("run_end", status="ok", ok=1, total=1)
    log.close()
    assert progress_main(["--events", str(path), "--tail", "2"]) == 0
    out = capsys.readouterr().out
    assert "1/1 experiment(s) finished" in out
    assert "worker health" in out
    assert "run_end" in out  # the --tail raw lines

    assert progress_main(["--events", str(tmp_path / "missing.jsonl")]) == 0
    assert "no events" in capsys.readouterr().out
