"""Tests for the parallel runtime: determinism, shared-store safety,
and crash containment.

Mirrors the chaos-driven style of test_runtime.py: every guarantee the
fan-out layer claims is proven by injecting the corresponding fault —
a murdered worker, two processes racing on one store.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro.experiments import FAST_CONFIG
from repro.experiments.runner import prefetch_plan
from repro.runtime import (
    CheckpointStore,
    WorkerSpec,
    prefetch_artefacts,
    run_fleet,
    run_many_parallel,
    run_serial,
)

TINY = replace(FAST_CONFIG, cycles=200)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel tests rely on cheap fork workers",
)


def tiny_spec(tmp_path=None, **overrides) -> WorkerSpec:
    checkpoint_dir = str(tmp_path / "ckpt") if tmp_path is not None else None
    defaults = dict(config=TINY, checkpoint_dir=checkpoint_dir)
    defaults.update(overrides)
    return WorkerSpec(**defaults)


# ----------------------------------------------------------------------
# (a) determinism: serial and parallel runs produce identical reports
# ----------------------------------------------------------------------

def run_cli(argv, tmp_path, name):
    from repro.experiments.__main__ import main

    out = tmp_path / f"{name}.json"
    code = main([*argv, "--out", str(out), "--format", "json"])
    return code, out.read_text()


def test_serial_and_parallel_reports_are_identical(tmp_path, capsys):
    argv = ["fig3_4", "tab3_ovh", "tab4_ovh", "--fast", "--cycles", "200"]
    code_s, serial = run_cli([*argv, "--jobs", "1"], tmp_path, "serial")
    code_p, parallel = run_cli([*argv, "--jobs", "2"], tmp_path, "parallel")
    assert code_s == 0 and code_p == 0
    # bit-identical: the report JSON carries no wall-clock fields
    assert serial == parallel
    # incremental output is flushed in submission order in both modes
    out = capsys.readouterr().out
    assert out.index("fig3_4:") < out.index("tab3_ovh:") < out.index("tab4_ovh:")


def test_parallel_run_shares_user_checkpoint_store(tmp_path, capsys):
    from repro.experiments.__main__ import main

    ckpt = str(tmp_path / "ckpt")
    argv = ["fig3_4", "--fast", "--cycles", "200", "--checkpoint-dir", ckpt]
    assert main([*argv, "--jobs", "2"]) == 0
    first = capsys.readouterr().out
    assert "stored" in first
    # the second parallel run must resume from the store: its workers
    # report hits and nothing new is stored
    assert main([*argv, "--jobs", "2"]) == 0
    second = capsys.readouterr().out
    assert ", 0 stored" in second and "0 hits" not in second


def report_digest(report) -> str:
    """Wall-clock-free JSON digest of a report."""
    rows = []
    for outcome in report.outcomes:
        row = {"id": outcome.experiment_id, "ok": outcome.ok}
        if outcome.result is not None:
            row["result"] = outcome.result.to_dict()
        if outcome.failure is not None:
            row["failure"] = {
                "kind": outcome.failure.kind,
                "error_type": outcome.failure.error_type,
            }
        rows.append(row)
    return json.dumps(rows, sort_keys=True)


def test_run_serial_and_run_fleet_reports_identical(tmp_path):
    ids = ["fig3_4", "tab3_ovh", "tab4_ovh"]
    seen_serial, seen_fleet = [], []
    ref, _ = run_serial(
        ids, tiny_spec(tmp_path / "a"),
        on_outcome=lambda o: seen_serial.append(o.experiment_id),
    )
    got, stats = run_fleet(
        ids, tiny_spec(tmp_path / "b"), jobs=2,
        on_outcome=lambda o: seen_fleet.append(o.experiment_id),
    )
    assert report_digest(ref) == report_digest(got)
    # on_outcome fires in submission order on both paths
    assert seen_serial == seen_fleet == ids
    assert stats.stores > 0  # the fleet really shared the store


def test_cli_jobs_1_and_2_text_reports_identical(tmp_path):
    from repro.experiments.__main__ import main

    out_1 = tmp_path / "jobs1.txt"
    out_2 = tmp_path / "jobs2.txt"
    argv = ["fig3_4", "tab3_ovh", "--fast", "--cycles", "200"]
    assert main([*argv, "--jobs", "1", "--out", str(out_1)]) == 0
    # the --jobs 2 side is also traced: telemetry never reaches the report
    assert main([*argv, "--jobs", "2", "--out", str(out_2),
                 "--trace-out", str(tmp_path / "trace.json")]) == 0
    assert out_1.read_bytes() == out_2.read_bytes()


# ----------------------------------------------------------------------
# (b) two processes sharing one store never corrupt an entry
# ----------------------------------------------------------------------

def _hammer_store(root, keys, results):
    store = CheckpointStore(root, claims=True, claim_stale_s=30.0)
    values = {}
    for key in keys:
        values[key] = store.fetch(key, lambda k=key: {"key": k, "blob": list(range(2000))})
    results.put((store.stats.as_dict(), {k: v["key"] for k, v in values.items()}))


def test_concurrent_processes_never_corrupt_shared_store(tmp_path):
    keys = [f"artefact-{i}" for i in range(8)]
    mp = multiprocessing.get_context("fork")
    results = mp.Queue()
    workers = [
        mp.Process(target=_hammer_store, args=(tmp_path, keys, results))
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    collected = [results.get(timeout=60) for _ in workers]
    for worker in workers:
        worker.join(timeout=60)
        assert worker.exitcode == 0
    # both processes saw every value, uncorrupted
    for stats, values in collected:
        assert stats["corrupt"] == 0
        assert values == {k: k for k in keys}
    # the store on disk is fully intact and claim files were cleaned up
    verify = CheckpointStore(tmp_path)
    for key in keys:
        assert verify.load(key)["key"] == key
    assert verify.stats.corrupt == 0
    assert not list(tmp_path.glob("*.claim"))


def test_claim_is_exclusive_and_stale_claims_break(tmp_path):
    store = CheckpointStore(tmp_path, claims=True, claim_stale_s=0.2)
    assert store.try_claim("k")
    other = CheckpointStore(tmp_path, claims=True, claim_stale_s=0.2)
    assert not other.try_claim("k")  # held, and fresh
    time.sleep(0.3)
    assert not other.try_claim("k")  # this attempt breaks the stale claim
    assert other.stats.claims_broken == 1
    assert other.try_claim("k")  # ...so the next one wins


def test_claim_of_dead_process_breaks_immediately(tmp_path):
    # A SIGKILL'd worker leaves its claim file behind; waiting out
    # claim_stale_s (10 min default) would wedge the retry.  The claim
    # records the owner pid, so a liveness probe must break it at once.
    child = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True,
        text=True,
        check=True,
    )
    dead_pid = int(child.stdout)
    store = CheckpointStore(tmp_path, claims=True, claim_stale_s=600.0)
    store.claim_path("k").write_text(f"{dead_pid}\n")
    assert not store.try_claim("k")  # this attempt breaks the orphan
    assert store.stats.claims_broken == 1
    assert store.try_claim("k")  # ...and the next one wins immediately

    # a claim held by a live process is NOT broken by the probe
    store.release("k")
    store.claim_path("k").write_text(f"{os.getpid()}\n")
    other = CheckpointStore(tmp_path, claims=True, claim_stale_s=600.0)
    assert not other.try_claim("k")
    assert other.stats.claims_broken == 0

    # garbage in the claim file falls back to the age rule
    store.claim_path("k").write_text("not-a-pid\n")
    assert not other.try_claim("k")
    assert other.stats.claims_broken == 0


def test_waiter_adopts_entry_computed_by_claim_holder(tmp_path):
    store = CheckpointStore(tmp_path, claims=True, claim_poll_s=0.01)
    holder = CheckpointStore(tmp_path, claims=True)
    assert holder.try_claim("k")

    computed = []

    def compute():
        computed.append(1)
        return "duplicate"

    import threading

    results: list = []
    waiter = threading.Thread(target=lambda: results.append(store.fetch("k", compute)))
    waiter.start()
    time.sleep(0.1)  # waiter is now polling behind the claim
    holder.save("k", "from-holder")
    holder.release("k")
    waiter.join(timeout=10)
    assert results == ["from-holder"]
    assert not computed  # the waiter never duplicated the work


# ----------------------------------------------------------------------
# (c) a chaos-killed worker yields a FailureRecord and exit code 1
# ----------------------------------------------------------------------

def test_killed_worker_becomes_crash_record_not_dead_run(tmp_path):
    spec = tiny_spec(tmp_path, chaos_kill=("tab4_ovh",))
    report, _ = run_many_parallel(
        ["tab3_ovh", "tab4_ovh", "fig3_4"], spec, jobs=2
    )
    assert [o.experiment_id for o in report.outcomes] == [
        "tab3_ovh", "tab4_ovh", "fig3_4",
    ]
    assert [o.ok for o in report.outcomes] == [True, False, True]
    failure = report.outcomes[1].failure
    assert failure.kind == "crash"
    assert failure.error_type == "WorkerCrash"
    assert report.exit_code() == 1
    assert "CRASH" in report.summary_text()


def test_cli_chaos_kill_exits_nonzero_and_isolates(tmp_path, capsys):
    from repro.experiments.__main__ import main

    code = main(["tab3_ovh", "tab4_ovh", "--fast", "--cycles", "200",
                 "--jobs", "2", "--chaos-kill", "tab4_ovh"])
    assert code == 1
    out = capsys.readouterr().out
    assert "1/2 experiments ok" in out
    assert "CRASH" in out and "WorkerCrash" in out


def test_cli_chaos_kill_counts_each_accepted_outcome_once(tmp_path, capsys):
    # A task that finishes while a co-resident kill breaks the pool loses
    # its result and is re-run; only the accepted run may be counted.
    metrics = tmp_path / "metrics.json"
    code, report = run_cli(
        ["fig3_4", "tab3_ovh", "tab4_ovh", "--fast", "--cycles", "200",
         "--jobs", "2", "--chaos-kill", "fig3_4",
         "--metrics-out", str(metrics)],
        tmp_path, "killed",
    )
    assert code == 1
    counters = json.loads(metrics.read_text())["counters"]
    ok_outcomes = len(json.loads(report))
    assert ok_outcomes == 2
    assert counters["experiment.ok"] == ok_outcomes
    outcome_ok = {
        name: value for name, value in counters.items()
        if name.startswith("experiment.outcome{") and "status=ok" in name
    }
    assert len(outcome_ok) == ok_outcomes
    assert all(value == 1 for value in outcome_ok.values()), outcome_ok


def test_cli_chaos_kill_requires_parallel_jobs(capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["tab3_ovh", "--fast", "--jobs", "1", "--chaos-kill", "tab3_ovh"])
    assert excinfo.value.code == 2
    assert "--jobs >= 2" in capsys.readouterr().err


def test_chaos_fail_propagates_into_workers(tmp_path):
    spec = tiny_spec(tmp_path, chaos_fail=("tab3_ovh",))
    report, _ = run_many_parallel(["tab3_ovh", "tab4_ovh"], spec, jobs=2)
    assert [o.ok for o in report.outcomes] == [False, True]
    failure = report.outcomes[0].failure
    assert failure.error_type == "InjectedFailure"
    assert "chaos-injected" in failure.message


def test_task_returns_only_its_own_telemetry_and_audit(tmp_path):
    from repro import obs
    from repro.obs import audit
    from repro.runtime.parallel import _run_experiment_task

    # a parent's history that an in-process (or forked) task must not carry
    parent = obs.enable(obs.TelemetryRecorder(process="main"))
    parent.metrics.inc("experiment.ok", 5)
    parent_sink = audit.enable(audit.AuditRecorder(policy="full"))
    parent_sink.begin_run(
        kind="scheme", scheme="parent", benchmark="b", corner="NTC",
        base_cycles=8, clock_period=1000.0, hold_constraint=120.0,
    ).finish()
    try:
        spec = tiny_spec(tmp_path, telemetry=True, audit_policy="full")
        result = _run_experiment_task(spec, "fig3_4")
        assert result.outcome.ok and result.stats is not None
        counters = result.telemetry["metrics"]["counters"]
        assert counters["experiment.ok"] == 1
        assert counters["experiment.outcome{experiment=fig3_4,status=ok}"] == 1
        assert result.telemetry["processes"] == [
            {"pid": os.getpid(), "process": "worker"}
        ]
        assert result.audit_runs
        assert all(run["scheme"] != "parent" for run in result.audit_runs)
        assert parent.metrics.counters["experiment.ok"] == 5

        # telemetry and audit off: nothing returned, nothing inherited kept
        obs.enable(parent)
        audit.enable(parent_sink)
        result = _run_experiment_task(tiny_spec(tmp_path), "tab3_ovh")
        assert result.outcome.ok
        assert result.telemetry is None and result.audit_runs is None
        assert obs.get_recorder() is None and audit.get() is None
    finally:
        obs.disable()
        audit.disable()


# ----------------------------------------------------------------------
# prefetch plan + artefact fan-out
# ----------------------------------------------------------------------

def test_prefetch_plan_covers_selected_experiments():
    chips, traces = prefetch_plan(TINY, ["fig3_4"])
    assert chips == (("stage", TINY.ch3_chip_seed, "NTC", True),)
    assert traces == (("vortex", TINY.ch3_chip_seed, "NTC", True),)

    chips, traces = prefetch_plan(TINY, ["fig3_8", "fig4_8"])
    assert ("stage", TINY.ch3_chip_seed, "NTC", True) in chips
    assert ("stage", TINY.ch4_chip_seed, "NTC", True) in chips
    assert len(traces) == 2 * len(TINY.benchmarks)
    # every trace's chip is staged by the chip phase
    chip_keys = {(seed, corner, buffered) for _, seed, corner, buffered in chips}
    for _, chip_seed, corner, buffered in traces:
        assert (chip_seed, corner, buffered) in chip_keys

    chips, traces = prefetch_plan(TINY, ["fig3_2"])
    assert not traces
    assert len(chips) == 2 * TINY.characterization_chips  # STC and NTC
    assert all(kind == "alu" for kind, *_ in chips)

    assert prefetch_plan(TINY, ["tab3_ovh"]) == ((), ())


def test_prefetch_fills_store_and_experiments_hit_it(tmp_path):
    spec = tiny_spec(tmp_path)
    stats = prefetch_artefacts(spec, ["fig3_4"], jobs=2)
    assert stats.stores >= 2  # the chip and its vortex error trace
    store = CheckpointStore(tmp_path / "ckpt")
    assert len(store) >= 2

    report, run_stats = run_many_parallel(["fig3_4"], spec, jobs=2)
    assert report.ok
    assert run_stats.hits >= 1  # the experiment resumed from the prefetch
    assert run_stats.stores == 0  # nothing was recomputed
