"""Tests of the benchmark itself, at a tiny size (``--cycles 200``).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from workloads import WORKLOADS, apply_seed_plan, seed_plan  # noqa: E402

CYCLES = "200"


def _env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str, dict | None]:
    """Run the benchmark; (exit code, stdout, parsed result line or None)."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, proc.stdout + proc.stderr, result


@pytest.fixture(scope="module")
def tiny_digests(tmp_path_factory) -> Path:
    """A digests file recording the 200-cycle sweep report."""
    tmp = tmp_path_factory.mktemp("digests")
    report = tmp / "report.txt"
    subprocess.run(
        [sys.executable, str(BENCH / "launch.py"), "cli", "--workload", "sweep_cold",
         "--", *WORKLOADS["sweep_cold"].cli_args(), "--cycles", CYCLES,
         "--out", str(report)],
        cwd=ROOT, env=_env(), check=True, capture_output=True, timeout=170,
    )
    path = tmp / "digests.json"
    path.write_text(json.dumps({
        "sweep": hashlib.sha256(report.read_bytes()).hexdigest(),
        "choke_char": "0" * 64,
    }))
    return path


def test_end_to_end_result_line(tiny_digests):
    rc, out, result = bench(
        "--workload", "sweep_cold", "--seed", "0", "--seconds", "1", "--trace", "0",
        "--cycles", CYCLES, "--digests", str(tiny_digests),
    )
    assert rc == 0, out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert name in out  # the human-readable lines name every metric
    assert "failed_frac" in out


def test_planted_digest_mismatch_counts_every_run_failed(tiny_digests, tmp_path):
    planted = tmp_path / "digests.json"
    digests = json.loads(tiny_digests.read_text())
    digests["sweep"] = hashlib.sha256(b"not the report").hexdigest()
    planted.write_text(json.dumps(digests))
    rc, out, result = bench(
        "--workload", "sweep_cold", "--seed", "0", "--seconds", "1", "--trace", "0",
        "--cycles", CYCLES, "--digests", str(planted),
    )
    assert rc != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "report sha256" in out


def test_traced_resume_run(tiny_digests):
    rc, out, result = bench(
        "--workload", "sweep_resume", "--seed", "0", "--seconds", "1", "--trace", "1",
        "--cycles", CYCLES, "--digests", str(tiny_digests),
    )
    assert rc == 0, out
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"]) for m in declared] == list(layers.LAYER_METRICS)
    assert list(metrics) == [name for name, _unit in layers.LAYER_METRICS]
    for scheme in ("razor", "hfg", "dcs-icslt", "dcs-acslt", "ocst", "trident"):
        assert metrics[f"scheme.{scheme}.runs"] > 0
    assert metrics["dta.calls"] == 0 and metrics["etrace.count"] == 0
    assert metrics["ckpt.loads"] > 0 and metrics["ckpt.hit_ratio"] == 1.0
    assert 0 <= metrics["trace.unattributed_frac"] < 1
    assert metrics["trace.overhead"] > 0
    trace = json.loads((ROOT / ".perfbench_work" / "trace-sweep_resume-seed0.json").read_text())
    events = trace["traceEvents"]
    assert events[0]["name"] == "cli" and events[0]["args"]["parent"] == -1
    assert all(e["args"]["parent"] < e["args"]["id"] for e in events)


def test_seeded_sweeps_agree_across_jobs_and_resume(tiny_digests):
    seed = "914"
    results = []
    for workload in ("sweep_cold", "sweep_fanout", "sweep_resume"):
        rc, out, result = bench(
            "--workload", workload, "--seed", seed, "--seconds", "1", "--trace", "0",
            "--cycles", CYCLES,
        )
        assert rc == 0, out
        results.append(result)
    assert all(r["failed"] == 0 for r in results)
    agreed = json.loads((ROOT / ".perfbench_work" / "agreement.json").read_text())
    digest = [v for k, v in agreed.items() if k.endswith(f"/sweep/{CYCLES}/{seed}")]
    assert digest
    # the seed reached the program: its report differs from seed 0's
    assert digest[0] != json.loads(tiny_digests.read_text())["sweep"]


_CHOKE_PROBE = """
import dataclasses, json, sys
import layers
from repro.experiments import fig3_02
from repro.experiments.config import FAST_CONFIG
from repro.experiments.runner import ExperimentContext

tracer = layers.Tracer()
layers.install(tracer)
config = dataclasses.replace(
    FAST_CONFIG, characterization_chips=1, characterization_vectors=30
)
tracer.run("cli", fig3_02.run, ExperimentContext(config))
json.dump(tracer.summary(), sys.stdout)
"""


def test_choke_layers_fire():
    """fig3_2 (shrunk to one chip) drives every choke-path wrapper."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHOKE_PROBE], cwd=ROOT, check=True,
        capture_output=True, text=True, timeout=170,
        env={**_env(), "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{BENCH}"},
    )
    doc = json.loads(proc.stdout)
    for name in ("choke.analyze", "dta.single", "logic.eval", "dta.kernel",
                 "pv.fabricate"):
        assert doc["calls"].get(name, 0) > 0, name
    metrics = layers.layer_metrics(doc)
    assert metrics["choke.calls"] == metrics["dta.single_calls"]
    assert 0 < metrics["choke.yield"] <= 1
    assert metrics["logic.calls"] >= metrics["dta.single_calls"] + metrics["dta.calls"]


def test_self_time_is_span_minus_children():
    tracer = layers.Tracer()
    tracer.spans = [
        layers.Span("cli", -1, 0.0, 10.0),
        layers.Span("experiment", 0, 1.0, 9.0),
        layers.Span("dta.kernel", 1, 2.0, 6.0, {"chip_cycles": 100}),
        layers.Span("logic.eval", 2, 3.0, 4.0, {"columns": 8}),
    ]
    assert tracer.self_times() == [2.0, 4.0, 3.0, 1.0]
    metrics = layers.layer_metrics(tracer.summary())
    assert metrics["dta.kernel_s"] == 3.0 and metrics["logic.eval_s"] == 1.0
    assert metrics["dta.chip_cycles"] == 100 and metrics["logic.columns"] == 8
    assert metrics["experiment.self_s"] == 4.0
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.6)


def test_seed_plan():
    cold, choke = WORKLOADS["sweep_cold"], WORKLOADS["choke_char"]
    names = ("bzip", "gap")
    assert seed_plan(cold, 0, names) == {}
    assert seed_plan(choke, 5, names) == {}  # the program exposes no seed
    assert seed_plan(cold, 5, names) == seed_plan(cold, 5, names)
    assert seed_plan(cold, 5, names) != seed_plan(cold, 6, names)
    apply_seed_plan(seed_plan(cold, 0, names))  # seed 0 changes nothing


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    rc, out, result = bench(
        "--workload", "sweep_cold", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert rc != 0
    assert result is None
