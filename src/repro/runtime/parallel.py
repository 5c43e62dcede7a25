"""Process-pool fan-out for artefacts and whole experiments.

The evaluation is embarrassingly parallel on two axes — chip
fabrication across (seed, corner) and error-trace construction across
(chip, benchmark) — and at the top level the 22 registered experiments
are independent once those artefacts exist.  This module fans all three
out across ``ProcessPoolExecutor`` workers while keeping every
guarantee the serial runtime makes:

* **Determinism.**  Workers only ever *compute* artefacts that are pure
  functions of (config, key) and publish them through the shared
  :class:`~repro.runtime.checkpoint.CheckpointStore` (atomic writes +
  claim files, so concurrent computation of one key is suppressed and a
  lost race is harmless).  Outcomes are merged in submission order, so
  a parallel run's report is bit-identical to a serial run's, modulo
  wall-clock fields.
* **Fault isolation.**  Each experiment runs under
  :func:`~repro.runtime.executor.run_supervised` *inside* its worker,
  so an exception becomes the same failure record as in a serial run.
  A worker that dies outright (SIGKILL, OOM, ``--chaos-kill``) breaks
  the pool; the orchestrator rebuilds the pool, re-runs tasks that
  never started, gives possibly-innocent started tasks
  :data:`CRASH_RETRIES` more chances, and converts repeat offenders
  into ``kind="crash"`` failure records — one murdered worker degrades
  to one failed experiment, never a dead run.  This is the only re-run
  in the runtime: a dead worker is transient, an exception is not.
* **One channel back.**  Every task returns a :class:`TaskResult`: its
  outcome, its store statistics, and — when the run records them — its
  own telemetry document and finished audit run blocks.  The parent
  folds each accepted result in where it receives it
  (:func:`_absorb`), so a result lost to a broken pool brings nothing
  back and a re-run task is counted once.  The absorbed trace is the
  run's record of which worker ran what: each task is one
  ``worker.task`` (or ``worker.prefetch``) span on its worker's pid.

This module owns *where* a batch runs: :func:`run_serial` runs it in
this process (the CLI's ``--jobs 1``, and the reference every parallel
run must match), :func:`run_fleet` prefetches shared artefacts and fans
out across a process pool (``--jobs`` > 1).  :func:`prefetch_artefacts`
and :func:`run_many_parallel` are the two halves of :func:`run_fleet`.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

from repro import obs
from repro.obs import audit
from repro.runtime.checkpoint import CheckpointStore, StoreStats, config_fingerprint
from repro.runtime.executor import FailureRecord, RunOutcome, RunReport, run_many
from repro.runtime.log import get_logger

logger = get_logger("parallel")

#: extra runs a started task gets after its worker died under it, before
#: the death is blamed on the task as a ``kind="crash"`` failure
CRASH_RETRIES = 1


def default_jobs() -> int:
    """The CLI's ``--jobs`` default: one worker per CPU."""
    return os.cpu_count() or 1


def _mp_context():
    # fork keeps worker start-up cheap (no numpy/scipy re-import) and is
    # available everywhere the tier-1 suite runs; fall back gracefully.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to rebuild its runtime.

    Must stay picklable: plain values only.  The chaos fields exist so
    fault injection crosses the process boundary — ``--chaos-fail`` (and
    friends) must misbehave *inside* the worker, not in the parent.
    """

    config: Any  # ExperimentConfig (a frozen dataclass of plain values)
    checkpoint_dir: str | None = None
    resume: bool = True
    chaos_fail: tuple[str, ...] = ()
    chaos_kill: tuple[str, ...] = ()
    verbose: int = 0
    #: parent-managed scratch dir for started-task markers
    scratch_dir: str | None = None
    #: record telemetry inside workers and return it with each result
    telemetry: bool = False
    #: shared-memory catalog of population artefacts (set by run_fleet;
    #: workers that cannot attach fall back to local computation)
    shm_catalog: Any = None
    #: run-scoped trace id propagated into every worker span (None =
    #: tracing off)
    trace_id: str | None = None
    #: audit sampling policy text (full / window:S:L / reservoir:K:SEED);
    #: set = audit on, and workers return their run blocks with each result
    audit_policy: str | None = None


class TaskResult(NamedTuple):
    """What every pool task hands back to the parent."""

    #: the supervised experiment's outcome (None for prefetch tasks)
    outcome: RunOutcome | None
    #: the task's checkpoint-store statistics (None without a store)
    stats: dict[str, int] | None
    #: the task's telemetry document (None = telemetry off)
    telemetry: dict[str, Any] | None
    #: the task's finished audit run blocks (None = audit off)
    audit_runs: list[dict[str, Any]] | None


# ----------------------------------------------------------------------
# worker side (top-level functions so the pool can pickle them)
# ----------------------------------------------------------------------

def _worker_context(spec: WorkerSpec):
    from repro.experiments.runner import ExperimentContext
    from repro.runtime.log import configure

    configure(spec.verbose)
    # A fresh recorder per task: its document holds this task alone, and
    # whatever a fork inherited from the parent is dropped either way.
    if spec.telemetry:
        obs.enable(obs.TelemetryRecorder(process="worker", trace_id=spec.trace_id or ""))
    else:
        obs.disable()
    if spec.audit_policy is not None:
        audit.enable(audit.AuditRecorder(policy=spec.audit_policy))
    else:
        audit.disable()
    store = None
    if spec.checkpoint_dir:
        store = CheckpointStore(spec.checkpoint_dir, resume=spec.resume, claims=True)
    shared = None
    if spec.shm_catalog is not None:
        from repro.runtime.shm import ShmReader

        # Attach lazily per array; a worker that cannot see the parent's
        # segments (parent gone) computes locally instead.
        shared = ShmReader(spec.shm_catalog)
    return ExperimentContext(spec.config, store=store, shared=shared)


def _worker_resolve(spec: WorkerSpec) -> Callable[[str], Callable]:
    from repro.experiments.registry import get_experiment
    from repro.runtime.chaos import chaos_resolve, killed_run

    resolve: Callable[[str], Callable] = get_experiment
    if spec.chaos_fail:
        resolve = chaos_resolve(set(spec.chaos_fail), resolve)
    if spec.chaos_kill:
        kill = set(spec.chaos_kill)
        base = resolve

        def resolve(experiment_id: str) -> Callable:
            if experiment_id in kill:
                logger.info("chaos: killing worker running %s", experiment_id)
                return killed_run()
            return base(experiment_id)

    return resolve


def _mark_started(spec: WorkerSpec, experiment_id: str) -> None:
    if not spec.scratch_dir:
        return
    try:
        Path(spec.scratch_dir, f"started-{experiment_id}").touch()
    except OSError:
        pass  # blame tracking degrades, containment still works


def _record_queue_wait(submitted_ts: float | None) -> None:
    """Submission-to-start latency (the queue-vs-run split in the trace).

    Valid because fork workers share the parent's ``perf_counter``
    timeline (CLOCK_MONOTONIC is system-wide on the platforms the fork
    path runs on).
    """
    if submitted_ts is not None:
        obs.observe(
            "worker.queue_wait_s", max(0.0, time.perf_counter() - submitted_ts)
        )


def _task_result(ctx, outcome: RunOutcome | None = None) -> TaskResult:
    recorder = obs.get_recorder()
    sink = audit.get()
    return TaskResult(
        outcome,
        ctx.store.stats.as_dict() if ctx.store is not None else None,
        recorder.snapshot_doc() if recorder is not None else None,
        sink.snapshot_runs() if sink is not None else None,
    )


def _run_experiment_task(
    spec: WorkerSpec, experiment_id: str, submitted_ts: float | None = None
) -> TaskResult:
    """Run one supervised experiment inside a worker process."""
    from repro.runtime.executor import run_supervised

    _mark_started(spec, experiment_id)
    ctx = _worker_context(spec)
    _record_queue_wait(submitted_ts)
    with obs.span("worker.task", experiment=experiment_id):
        resolve = _worker_resolve(spec)
        outcome = run_supervised(experiment_id, resolve(experiment_id), ctx)
    return _task_result(ctx, outcome)


def _prefetch_task(
    spec: WorkerSpec, kind: str, part: tuple, submitted_ts: float | None = None
) -> TaskResult:
    """Materialise one artefact into the shared store."""
    ctx = _worker_context(spec)
    _record_queue_wait(submitted_ts)
    with obs.span("worker.prefetch", kind=kind, part=repr(part)):
        obs.inc("prefetch.tasks")
        if kind == "chip":
            chip_kind, seed, corner, buffered = part
            if chip_kind == "alu":
                ctx.alu_chip(seed, corner)
            else:
                ctx.chip(seed, corner, buffered)
        elif kind == "etrace_batch":
            benchmark, seeds, corner, buffered = part
            ctx.error_traces_batch(benchmark, seeds, corner, buffered)
        else:
            benchmark, chip_seed, corner, buffered = part
            ctx.error_trace(benchmark, chip_seed, corner, buffered)
    return _task_result(ctx)


# ----------------------------------------------------------------------
# orchestrator side
# ----------------------------------------------------------------------

def _absorb(result: TaskResult, stats: StoreStats) -> None:
    """Fold one accepted task result into this process's stats and sinks."""
    if result.stats:
        stats.merge(result.stats)
    recorder = obs.get_recorder()
    if recorder is not None and result.telemetry is not None:
        recorder.absorb(result.telemetry)
    sink = audit.get()
    if sink is not None and result.audit_runs:
        sink.absorb(result.audit_runs)


def _crash_outcome(
    experiment_id: str, spec: WorkerSpec, message: str, attempts: int
) -> RunOutcome:
    obs.inc("parallel.crashes")
    failure = FailureRecord(
        experiment_id=experiment_id,
        kind="crash",
        error_type="WorkerCrash",
        message=message,
        traceback="",
        config_fingerprint=config_fingerprint(spec.config),
        elapsed_s=0.0,
        attempts=attempts,
    )
    return RunOutcome(experiment_id, None, failure, 0.0, attempts=attempts)


def prefetch_artefacts(
    spec: WorkerSpec, experiment_ids: Sequence[str], jobs: int
) -> StoreStats:
    """Fan the expensive artefacts out across workers ahead of the run.

    Two barrier phases — chips, then the error traces that consume them
    — each filling the shared checkpoint store.  Strictly best-effort: a
    failed or crashed prefetch is only logged, because any experiment
    can recompute its own artefacts through the claimed store.
    """
    from repro.experiments.runner import group_trace_specs, prefetch_plan

    stats = StoreStats()
    if not spec.checkpoint_dir:
        return stats  # nowhere shared to put artefacts
    chips, traces = prefetch_plan(spec.config, experiment_ids)
    # Traces sharing (benchmark, corner, buffered) collapse into one
    # batch-kernel task timing all their chips at once.
    trace_batches = group_trace_specs(traces)
    for phase, parts in (("chip", chips), ("etrace_batch", trace_batches)):
        if not parts:
            continue
        logger.info("prefetching %d %s artefact(s)", len(parts), phase)
        try:
            with obs.span("parallel.prefetch", phase=phase, parts=len(parts)), \
                    ProcessPoolExecutor(
                        max_workers=min(jobs, len(parts)),
                        mp_context=_mp_context(),
                    ) as pool:
                futures = [
                    pool.submit(
                        _prefetch_task, spec, phase, part, time.perf_counter()
                    )
                    for part in parts
                ]
                for future in as_completed(futures):
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        raise
                    except Exception as exc:
                        logger.warning("prefetch task failed: %s", exc)
                    else:
                        _absorb(result, stats)
        except BrokenProcessPool:
            logger.warning(
                "prefetch pool died; experiments will compute artefacts on demand"
            )
            return stats
    return stats


def run_many_parallel(
    experiment_ids: Sequence[str],
    spec: WorkerSpec,
    jobs: int | None = None,
    on_outcome: Callable[[RunOutcome], None] | None = None,
) -> tuple[RunReport, StoreStats]:
    """Supervise a batch across worker processes.

    The report lists outcomes in submission order regardless of
    completion order, and ``on_outcome`` fires in submission order too
    (held back until every earlier experiment has reported), so the
    incremental output of a parallel run is byte-comparable with a
    serial run's.

    Returns the report plus the workers' merged store statistics; the
    workers' telemetry and audit blocks land in this process's sinks.
    """
    ids = list(experiment_ids)
    jobs = jobs or default_jobs()
    outcomes: dict[str, RunOutcome] = {}
    crashes = dict.fromkeys(ids, 0)
    stats = StoreStats()
    emitted = 0

    def flush() -> None:
        nonlocal emitted
        while emitted < len(ids) and ids[emitted] in outcomes:
            if on_outcome is not None:
                on_outcome(outcomes[ids[emitted]])
            emitted += 1

    scratch = Path(tempfile.mkdtemp(prefix="repro-fleet-"))
    spec = dataclasses.replace(spec, scratch_dir=str(scratch))
    try:
        pending = list(ids)
        isolate: list[str] = []
        while pending or isolate:
            # quarantined suspects run one per round in a single-worker
            # pool: if that pool breaks, the sole started task is the
            # culprit beyond doubt
            if isolate:
                batch = [isolate.pop(0)]
            else:
                batch, pending = pending, []
            for marker in scratch.glob("started-*"):
                try:
                    marker.unlink()
                except OSError:
                    pass
            broken = False
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(batch)), mp_context=_mp_context()
            ) as pool:
                futures = {
                    pool.submit(
                        _run_experiment_task, spec, eid, time.perf_counter()
                    ): eid
                    for eid in batch
                }
                for future in as_completed(futures):
                    eid = futures[future]
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        # every not-yet-finished future fails instantly
                        # once the pool breaks; keep draining so results
                        # that DID complete are never thrown away
                        broken = True
                        continue
                    except Exception as exc:
                        # orchestration failure (e.g. unpicklable result):
                        # contained exactly like an in-experiment crash
                        outcome = _crash_outcome(
                            eid, spec, f"{type(exc).__name__}: {exc}",
                            attempts=crashes[eid] + 1,
                        )
                    else:
                        _absorb(result, stats)
                        outcome = result.outcome
                    outcomes[eid] = outcome
                    flush()
            unfinished = [eid for eid in batch if eid not in outcomes]
            if broken and unfinished:
                started = {
                    eid for eid in unfinished
                    if (scratch / f"started-{eid}").exists()
                }
                # a pool that died before any task began indicts everyone
                blamed = started or set(unfinished)
                if len(blamed) > 1:
                    # ambiguous: any of the started tasks may have killed
                    # the pool.  No strikes — quarantine the suspects so
                    # the next break has exactly one possible culprit,
                    # and an innocent co-resident is never failed out
                    logger.warning(
                        "worker pool died with %d tasks in flight (%s); "
                        "isolating them to identify the culprit",
                        len(blamed), ", ".join(sorted(blamed)),
                    )
                    isolate.extend(eid for eid in unfinished if eid in blamed)
                    pending.extend(
                        eid for eid in unfinished if eid not in blamed
                    )
                else:
                    for eid in unfinished:
                        if eid in blamed:
                            crashes[eid] += 1
                            if crashes[eid] > CRASH_RETRIES:
                                outcomes[eid] = _crash_outcome(
                                    eid, spec,
                                    "worker process died"
                                    " (killed or out of memory)",
                                    attempts=crashes[eid],
                                )
                                flush()
                                continue
                            logger.warning(
                                "worker running %s died; retrying (%d/%d)",
                                eid, crashes[eid], CRASH_RETRIES,
                            )
                            # a repeat offender re-runs quarantined
                            isolate.append(eid)
                        else:
                            pending.append(eid)
            else:
                pending.extend(unfinished)
    finally:
        for marker in scratch.glob("started-*"):
            try:
                marker.unlink()
            except OSError:
                pass
        try:
            scratch.rmdir()
        except OSError:
            pass

    report = RunReport()
    report.outcomes.extend(outcomes[eid] for eid in ids)
    return report, stats


def run_fleet(
    experiment_ids: Sequence[str],
    spec: WorkerSpec,
    jobs: int | None = None,
    on_outcome: Callable[[RunOutcome], None] | None = None,
) -> tuple[RunReport, StoreStats]:
    """Prefetch shared artefacts, then fan the experiments out.

    The CLI's path for ``--jobs`` > 1.  The parent first fabricates the
    run's chip populations and encoded input streams once, publishes
    them to shared-memory segments, and ships only the catalog inside
    the :class:`WorkerSpec` -- workers attach zero-copy views instead of
    pickling or recomputing whole chips.  Publishing is best-effort: on
    any failure the fleet computes artefacts through the store instead.
    """
    from repro.experiments.runner import build_shared_artefacts

    jobs = jobs or default_jobs()
    obs.gauge("parallel.jobs", jobs)
    stats = StoreStats()
    publisher = None
    try:
        catalog, publisher = build_shared_artefacts(spec.config, experiment_ids)
    except Exception as exc:
        logger.warning(
            "shared-memory publish failed (%s); workers will compute "
            "artefacts locally", exc,
        )
    else:
        if catalog is not None and len(catalog):
            spec = dataclasses.replace(spec, shm_catalog=catalog)
    try:
        stats.merge(prefetch_artefacts(spec, experiment_ids, jobs))
        with obs.span(
            "parallel.fanout", experiments=len(experiment_ids), jobs=jobs
        ):
            report, run_stats = run_many_parallel(
                experiment_ids, spec, jobs=jobs, on_outcome=on_outcome
            )
    finally:
        if publisher is not None:
            publisher.unlink()
    stats.merge(run_stats)
    return report, stats


def run_serial(
    experiment_ids: Sequence[str],
    spec: WorkerSpec,
    on_outcome: Callable[[RunOutcome], None] | None = None,
) -> tuple[RunReport, StoreStats]:
    """Run the batch in this process: the CLI's ``--jobs 1`` path.

    The reference every :func:`run_fleet` report must match byte for
    byte.  ``chaos_fail`` is honoured; ``chaos_kill`` is not -- its
    ``os._exit`` body would take this process down, which is why the
    CLI refuses ``--chaos-kill`` with ``--jobs 1``.
    """
    from repro.experiments.runner import ExperimentContext

    store = None
    if spec.checkpoint_dir:
        store = CheckpointStore(spec.checkpoint_dir, resume=spec.resume)
    ctx = ExperimentContext(spec.config, store=store)
    report = run_many(
        experiment_ids,
        ctx,
        resolve=_worker_resolve(dataclasses.replace(spec, chaos_kill=())),
        on_outcome=on_outcome,
    )
    return report, store.stats if store is not None else StoreStats()
