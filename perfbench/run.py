"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_cold --seed 0 --seconds 30 --trace 0

Every timed rep is one run of the experiments CLI in a fresh process
(``perfbench/launch.py cli``, which calls ``repro.experiments.__main__``).
Reps repeat until ``--seconds`` would be exceeded; the result reports
medians.  Each rep is checked: exit code 0, a run summary with every
experiment ok, and a report whose sha256 equals the digest recorded in
``digests.json`` (seed 0) or the digest every other sweep workload
produced for the same seed.

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``; ``failed_frac`` is the result's ``failed/attempted``).
``--trace 1`` adds one traced rep with every layer's entry points
wrapped and prints the per-layer metrics; its spans are written to
``.perfbench_work/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
#: fresh processes timed per run for ``setup_s``
SETUP_REPEATS = 5
#: a single child process may take no longer than this
CHILD_TIMEOUT_S = 170.0
_SUMMARY = re.compile(rb"== run summary: (\d+)/(\d+) experiments ok ==")


@dataclass
class Rep:
    """One CLI run: its cost and whether its output checked out."""

    wall_s: float
    rss_mb: float
    error: str | None

    @property
    def ok(self) -> bool:
        return self.error is None


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def _become_subreaper() -> None:
    """Adopt orphaned descendants (e.g. multiprocessing's resource
    tracker), so every process a rep starts can be waited for."""
    if sys.platform.startswith("linux"):
        PR_SET_CHILD_SUBREAPER = 36
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _settle(group: int, deadline_s: float = 10.0) -> None:
    """Wait until no process of session ``group`` is left, killing stragglers."""
    end = time.monotonic() + deadline_s
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(group, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > end:
            os.killpg(group, signal.SIGKILL)
        time.sleep(0.02)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(WORK)
    return env


def run_child(cmd: list[str], log: Path) -> tuple[int, float, float]:
    """Run ``cmd`` to completion: (exit code, wall seconds, peak RSS MB).

    The peak RSS is the largest of the child and every descendant it
    waited for (``wait4`` folds reaped descendants into the child's
    figure), which covers the fork workers of ``--jobs 2``.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=subprocess.STDOUT, env=_env(), cwd=ROOT,
            start_new_session=True,
        )
        watchdog = threading.Timer(
            CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL)
        )
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: take the rep's processes down too
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            _settle(proc.pid)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _settle(proc.pid)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def _source_digest() -> str:
    """Fingerprint of the program and the benchmark (keys the agreement file)."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class DigestGate:
    """The report digest every rep of one run must produce.

    Seed 0 (and unseeded workloads) use the digest recorded in
    ``digests.json``.  Other seeds have no recorded digest; there the
    gate is agreement: the first sweep workload run on a seed records
    its digest under ``.perfbench_work``, and every later rep of any
    sweep workload on that seed must match it.
    """

    def __init__(self, workload: Workload, seed: int, cycles: int | None,
                 digests: Path) -> None:
        self.agreement_key = None
        self.expected = None
        if seed == 0 or not workload.seeded:
            self.expected = json.loads(digests.read_text())[workload.digest_key]
            return
        self.agreement_file = WORK / "agreement.json"
        self.agreement_key = (
            f"{_source_digest()[:16]}/{workload.digest_key}/"
            f"{cycles or workload.cycles}/{seed}"
        )
        self.expected = self._agreed().get(self.agreement_key)

    def _agreed(self) -> dict:
        try:
            return json.loads(self.agreement_file.read_text())
        except FileNotFoundError:
            return {}

    def check(self, digest: str) -> str | None:
        if self.expected is None:
            self.expected = digest
            agreed = self._agreed()
            agreed[self.agreement_key] = digest
            self.agreement_file.write_text(json.dumps(agreed, indent=1, sort_keys=True))
        if digest != self.expected:
            return f"report sha256 {digest[:12]} != expected {self.expected[:12]}"
        return None


def check_output(rc: int, log: Path, report: Path, gate: DigestGate) -> str | None:
    """Why one CLI run failed, or None when its output checked out."""
    if rc != 0:
        return f"exit code {rc}"
    summary = _SUMMARY.search(log.read_bytes())
    if summary is None or summary.group(1) != summary.group(2):
        return "run summary missing or records a failed experiment"
    if not report.is_file():
        return "no report written"
    return gate.check(hashlib.sha256(report.read_bytes()).hexdigest())


# ----------------------------------------------------------------------
# one run of a workload
# ----------------------------------------------------------------------
class Runner:
    def __init__(self, workload: Workload, seed: int, cycles: int | None,
                 work: Path, gate: DigestGate) -> None:
        self.workload = workload
        self.seed = seed
        self.cycles = cycles
        self.work = work
        self.gate = gate
        self.reps: list[Rep] = []
        self._count = 0

    def cli_args(self, workload: Workload | None = None) -> list[str]:
        workload = workload or self.workload
        args = workload.cli_args()
        if self.cycles is not None and workload.cycles is not None:
            args[args.index("--cycles") + 1] = str(self.cycles)
        return args

    def rep(self, store: Path | None = None, workload: Workload | None = None,
            trace: tuple[Path, Path] | None = None) -> Rep:
        """One CLI run; ``store`` is its ``--checkpoint-dir``."""
        self._count += 1
        report = self.work / f"report-{self._count}.txt"
        log = self.work / f"log-{self._count}.txt"
        cmd = [sys.executable, str(HERE / "launch.py"), "cli",
               "--workload", self.workload.name, "--seed", str(self.seed)]
        if trace is not None:
            cmd += ["--trace-out", str(trace[0]), "--layers-out", str(trace[1])]
        cmd += ["--", *self.cli_args(workload), "--out", str(report)]
        if store is not None:
            cmd += ["--checkpoint-dir", str(store)]
        rc, wall, rss = run_child(cmd, log)
        error = check_output(rc, log, report, self.gate)
        if error is not None:
            tail = log.read_text(errors="replace").splitlines()[-5:]
            print(f"  rep {self._count} FAILED: {error}", *tail, sep="\n    ",
                  file=sys.stderr)
        rep = Rep(wall, rss, error)
        self.reps.append(rep)
        return rep

    def fresh_store(self) -> Path:
        store = self.work / "store"
        shutil.rmtree(store, ignore_errors=True)
        return store

    def store(self) -> Path | None:
        """The ``--checkpoint-dir`` of the workload's next rep."""
        if self.workload.fresh_store:
            return self.fresh_store()
        if self.workload.resume:
            return self.work / "store"
        return None

    def timed(self, seconds: float) -> list[Rep]:
        """Reps of the workload until the next would overrun ``seconds``."""
        if self.workload.resume:  # untimed fill, at --jobs 2 to save time
            self.rep(self.fresh_store(), WORKLOADS["sweep_fanout"])
        timed: list[Rep] = []
        spent = 0.0
        while True:
            rep = self.rep(self.store())
            timed.append(rep)
            spent += rep.wall_s
            if spent + statistics.median(r.wall_s for r in timed) > seconds:
                return timed

    def setup_seconds(self) -> list[float]:
        times = []
        for index in range(SETUP_REPEATS):
            log = self.work / f"setup-{index}.txt"
            cmd = [sys.executable, str(HERE / "launch.py"), "setup",
                   "--workload", self.workload.name]
            rc, _, _ = run_child(cmd, log)
            if rc != 0:
                raise RuntimeError(f"setup probe failed (exit {rc}); see {log}")
            times.append(float(log.read_text().split()[-1]))
        return times


def _median_ok(reps: list[Rep], attr: str) -> float:
    values = [getattr(r, attr) for r in reps if r.ok] or [getattr(r, attr) for r in reps]
    return statistics.median(values)


def end_to_end(runner: Runner, seconds: float) -> dict:
    setup = runner.setup_seconds()
    timed = runner.timed(seconds)
    walls = [r.wall_s for r in timed]
    return {
        "wall_s": (_median_ok(timed, "wall_s"), "s",
                   f"median of {len(timed)} runs ({min(walls):.3f} to {max(walls):.3f})"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh processes"),
        "peak_rss_mb": (_median_ok(timed, "rss_mb"), "MB",
                        f"median of {len(timed)} runs"),
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    """Per-layer metrics from one traced rep, after untraced timed reps.

    The traced rep fails its self-check when a layer the workload must
    exercise recorded no call (a renamed entry point) or a layer it must
    bypass recorded one.
    """
    workload = runner.workload
    untraced = _median_ok(runner.timed(seconds), "wall_s")
    chrome = WORK / f"trace-{workload.name}-seed{runner.seed}.json"
    summary_path = runner.work / "layers.json"
    traced = runner.rep(runner.store(), trace=(chrome, summary_path))
    if not traced.ok:
        return {}
    summary = json.loads(summary_path.read_text())
    calls = summary["calls"]
    problems = [f"span {name!r} recorded no call"
                for name in workload.must_fire if not calls.get(name)]
    problems += [f"span {name!r} recorded {calls[name]} calls"
                 for name in workload.must_not_fire if calls.get(name)]
    if problems:
        traced.error = "self-check: " + "; ".join(problems)
        print(f"  traced rep FAILED: {traced.error}", file=sys.stderr)
    metrics = layers.layer_metrics(summary)
    metrics["trace.overhead"] = traced.wall_s / untraced
    if workload.jobs > 1:
        serial = runner.rep(runner.fresh_store(), WORKLOADS["sweep_cold"])
        metrics["parallel.speedup"] = serial.wall_s / untraced
    units = dict(layers.LAYER_METRICS)
    return {name: (metrics[name], units[name], "") for name in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cycles", type=int,
                        help="override the sweep trace length (tests only)")
    parser.add_argument("--digests", type=Path, default=HERE / "digests.json",
                        help="recorded seed-0 report digests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "experiments" / "__main__.py").is_file():
        print(f"error: no repro program under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    _become_subreaper()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workload = WORKLOADS[args.workload]
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        gate = DigestGate(workload, args.seed, args.cycles, args.digests)
        runner = Runner(workload, args.seed, args.cycles, work, gate)
        if args.trace:
            metrics = per_layer(runner, args.seconds)
        else:
            metrics = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(runner.reps)
    failed = sum(not r.ok for r in runner.reps)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_frac':<28} {failed / attempted:>14.6g} {'':<6} "
          f"{failed} of {attempted} runs")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _note) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
