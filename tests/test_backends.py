"""Tests for the retry and claim machinery the executor relies on:
deterministic capped backoff between retries (``--retries``) and the
checkpoint store's cross-host claim rule for shared artefacts.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from dataclasses import replace

from repro.experiments import FAST_CONFIG
from repro.experiments.report import ExperimentResult
from repro.runtime import (
    CheckpointStore,
    backoff_delay,
    jitter_fraction,
    run_supervised,
)
from repro.runtime import chaos

TINY = replace(FAST_CONFIG, cycles=200)


def ok_run(experiment_id="exp_ok"):
    def run(ctx):
        return ExperimentResult(experiment_id, "a result")

    return run


# ----------------------------------------------------------------------
# retry backoff: deterministic, exponential, capped
# ----------------------------------------------------------------------

def test_backoff_is_deterministic_and_seed_sensitive():
    a = backoff_delay(2, 0.1, seed=("fig3_4",))
    assert a == backoff_delay(2, 0.1, seed=("fig3_4",))
    assert a != backoff_delay(2, 0.1, seed=("fig4_8",))


def test_backoff_envelope_doubles_and_caps():
    base = 0.1
    for attempt in range(1, 8):
        delay = backoff_delay(attempt, base, cap_s=1.0, seed=("x",))
        envelope = min(1.0, base * 2 ** (attempt - 1))
        assert envelope / 2 <= delay < envelope
    assert backoff_delay(50, base, cap_s=1.0, seed=("x",)) < 1.0


def test_backoff_disabled_and_jitter_range():
    assert backoff_delay(3, 0.0) == 0.0
    assert backoff_delay(0, 1.0) == 0.0
    for parts in (("a",), ("a", 1), (("h", 1234),)):
        assert 0.0 <= jitter_fraction(*parts) < 1.0


def test_executor_retries_apply_backoff(monkeypatch):
    slept = []
    monkeypatch.setattr(time, "sleep", lambda s: slept.append(s))

    class Ctx:
        config = TINY

    outcome = run_supervised(
        "t", chaos.flaky_run(ok_run("t"), failures=2), Ctx(),
        retries=2, retry_backoff_s=0.1,
    )
    assert outcome.ok and outcome.attempts == 3
    assert slept == [
        backoff_delay(1, 0.1, seed=("t", 2)),
        backoff_delay(2, 0.1, seed=("t", 3)),
    ]


# ----------------------------------------------------------------------
# checkpoint claims: pid + hostname, age rule for foreign hosts
# ----------------------------------------------------------------------

def test_claim_records_pid_and_hostname(tmp_path):
    store = CheckpointStore(tmp_path, claims=True)
    assert store.try_claim("artefact")
    pid, host = store.claim_path("artefact").read_text().split()
    assert int(pid) == os.getpid() and host == socket.gethostname()


def test_foreign_host_claim_falls_back_to_age_rule(tmp_path):
    # a dead-looking pid from another machine says nothing about our
    # pid space: the claim must NOT be broken by the liveness probe
    child = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True, text=True, check=True,
    )
    dead_pid = int(child.stdout)
    store = CheckpointStore(tmp_path, claims=True, claim_stale_s=60.0)
    store.claim_path("artefact").write_text(f"{dead_pid} elsewhere.example\n")
    assert not store.try_claim("artefact")  # age rule still protects it
    # the same dead pid from THIS host is provably orphaned: broken and
    # (on the next attempt) re-claimable
    store.claim_path("artefact").write_text(
        f"{dead_pid} {socket.gethostname()}\n"
    )
    assert not store.try_claim("artefact")  # this call breaks it...
    assert store.try_claim("artefact")  # ...freeing this one to win
