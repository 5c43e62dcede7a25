"""Workload definitions, seed derivation and per-workload expectations.

Every workload is one invocation of the experiments CLI
(``python -m repro.experiments``) on the ``--fast`` configuration: the
16-bit ALU and the FAST reference chips.  The three sweep workloads run
the same experiment list and must produce one identical report.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from dataclasses import dataclass

#: the scheme-simulation experiments shared by the three sweep workloads
SWEEP_EXPERIMENTS = (
    "fig3_4", "fig3_8", "fig3_9", "fig3_10", "fig3_11", "fig3_12", "tab3_ovh",
    "fig4_3", "fig4_4", "fig4_8", "fig4_9", "fig4_10", "fig4_11", "fig4_12",
    "tab4_ovh", "abl_tags",
)
SWEEP_CYCLES = 5_000

#: the six schemes whose state machines the sweeps run, as span keys
SCHEMES = ("razor", "hfg", "dcs-icslt", "dcs-acslt", "ocst", "trident")


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple[str, ...]
    cycles: int | None
    jobs: int
    #: each timed rep gets a fresh, empty ``--checkpoint-dir``
    fresh_store: bool
    #: timed reps read a store filled by one untimed pass first
    resume: bool
    #: the program exposes a seed for this workload's inputs
    seeded: bool
    #: key into digests.json; workloads sharing a key share a report
    digest_key: str
    #: span names that must record at least one call in the traced run
    must_fire: tuple[str, ...]
    #: span names that must record no call in the traced run
    must_not_fire: tuple[str, ...] = ()
    #: circuits the workload builds: ("alu",) and/or (corner, buffered)
    circuits: tuple = ()
    #: ``FAST_CONFIG`` fields the benchmark overrides for this workload
    config: tuple[tuple[str, int], ...] = ()

    def cli_args(self) -> list[str]:
        args = [*self.experiments, "--fast", "--jobs", str(self.jobs)]
        if self.cycles is not None:
            args += ["--cycles", str(self.cycles)]
        return args


_SCHEME_SPANS = tuple(f"scheme.{name}" for name in SCHEMES)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="choke_char",
            experiments=("fig3_2", "fig3_3", "fig4_2"),
            cycles=None,
            jobs=1,
            fresh_store=False,
            resume=False,
            seeded=False,
            digest_key="choke_char",
            must_fire=(
                "choke.analyze", "dta.single", "logic.eval", "dta.kernel",
                "pv.fabricate", "experiment", "report.render",
            ),
            must_not_fire=("etrace.build", "ckpt.load", *_SCHEME_SPANS),
            circuits=(("alu",), ("NTC", False), ("NTC", True),
                      ("STC", False), ("STC", True)),
            # One characterization chip instead of four: a rep takes about
            # 8 s instead of 20 s, so a run gets a median of three reps.
            # Each (op, chip, corner) still traces up to 40 events.
            config=(("characterization_chips", 1),),
        ),
        Workload(
            name="sweep_cold",
            experiments=SWEEP_EXPERIMENTS,
            cycles=SWEEP_CYCLES,
            jobs=1,
            fresh_store=True,
            resume=False,
            seeded=True,
            digest_key="sweep",
            must_fire=(
                "dta.kernel", "logic.eval", "arch.trace", "arch.encode",
                "pv.fabricate", "etrace.build", "ckpt.save", "experiment",
                "report.render", *_SCHEME_SPANS,
            ),
            must_not_fire=("choke.analyze", "runtime.pool"),
            circuits=(("NTC", True),),
        ),
        Workload(
            name="sweep_resume",
            experiments=SWEEP_EXPERIMENTS,
            cycles=SWEEP_CYCLES,
            jobs=1,
            fresh_store=False,
            resume=True,
            seeded=True,
            digest_key="sweep",
            must_fire=("ckpt.load", "experiment", "report.render", *_SCHEME_SPANS),
            must_not_fire=(
                "dta.kernel", "etrace.build", "ckpt.save", "choke.analyze",
            ),
            circuits=(("NTC", True),),
        ),
        Workload(
            name="sweep_fanout",
            experiments=SWEEP_EXPERIMENTS,
            cycles=SWEEP_CYCLES,
            jobs=2,
            fresh_store=True,
            resume=False,
            seeded=True,
            digest_key="sweep",
            # parent side only: the experiments themselves run in workers
            must_fire=(
                "runtime.shm_publish", "runtime.prefetch", "runtime.pool",
                "pv.fabricate", "arch.trace", "arch.encode", "report.render",
            ),
            must_not_fire=("choke.analyze",),
            circuits=(("NTC", True),),
        ),
    )
}


def seed_plan(workload: Workload, seed: int, benchmarks) -> dict[str, int]:
    """The synthetic-trace seed of each benchmark for workload seed ``seed``.

    Seed 0 (an empty plan) is the calibrated paper configuration.  The
    reference chips stay the calibrated FAST chips at every seed: they
    were chosen for their choke-error mix, and a random chip changes
    the error population and with it the scheme work (a 30% faster
    ``sweep_resume`` rep on one such chip), which would swamp the
    run-to-run bound.  ``choke_char`` ignores the seed: fig3_2, fig3_3
    and fig4_2 hard-code their chips (``1000 + i``) and derive operand
    streams from ``stable_seed``, so the program exposes nothing to vary.
    """
    if seed == 0 or not workload.seeded:
        return {}
    rng = random.Random(f"perfbench-{seed}")
    return {name: rng.randrange(1, 1_000_000) for name in benchmarks}


def rebind(old, new) -> int:
    """Point every ``repro`` module attribute bound to ``old`` at ``new``.

    Callers import entry points and configs by name, so replacing one
    means replacing every binding.  Returns how many were replaced.
    """
    bound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                bound += 1
    return bound


def apply_config(workload: Workload) -> None:
    """Install the workload's ``FAST_CONFIG`` overrides in the program."""
    if not workload.config:
        return
    import repro.experiments.__main__  # noqa: F401  (binds FAST_CONFIG by name)
    from repro.experiments import config

    old = config.FAST_CONFIG
    rebind(old, dataclasses.replace(old, **dict(workload.config)))


def apply_seed_plan(plan: dict[str, int]) -> None:
    """Install ``plan`` in the program's benchmark table.

    The trace seeds live in the ``BENCHMARKS`` table, which the
    experiments read by name; it is rewritten in place, and fork
    workers inherit it.  Each run uses its own checkpoint directory, so
    artefacts of different seeds never mix.
    """
    if not plan:
        return
    from repro.arch import trace

    for name, trace_seed in plan.items():
        trace.BENCHMARKS[name] = dataclasses.replace(
            trace.BENCHMARKS[name], seed=trace_seed
        )
