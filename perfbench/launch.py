"""Child-process entry points of the benchmark.

``launch.py cli --workload W --seed N [--trace-out T --layers-out L] -- ARGS``
    runs the experiments CLI (``repro.experiments.__main__.main``) on
    ``ARGS`` after installing the workload's config overrides and its
    seed's inputs.  With ``--trace-out`` it first wraps every layer's
    entry points, then writes the spans as a Chrome trace-event file and
    the per-layer totals as JSON.

``launch.py setup --workload W``
    prints the seconds this fresh process takes to import the CLI and
    build and levelize the circuits the workload uses.

``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS, apply_config, apply_seed_plan, seed_plan  # noqa: E402


def _cli(args) -> int:
    import repro.experiments.__main__ as cli
    from repro.experiments.config import FAST_CONFIG

    workload = WORKLOADS[args.workload]
    apply_config(workload)
    apply_seed_plan(seed_plan(workload, args.seed, FAST_CONFIG.benchmarks))
    if not args.trace_out:
        return cli.main(args.argv)

    import layers

    tracer = layers.Tracer()
    layers.install(tracer)
    status = tracer.run("cli", cli.main, args.argv)
    layers.write_json(args.trace_out, tracer.chrome_trace())
    layers.write_json(args.layers_out, tracer.summary())
    return status


def _setup(args) -> int:
    import repro.experiments.__main__  # noqa: F401
    from repro.experiments.config import FAST_CONFIG
    from repro.experiments.runner import ExperimentContext

    ctx = ExperimentContext(FAST_CONFIG)
    for circuit in WORKLOADS[args.workload].circuits:
        if circuit == ("alu",):
            ctx.bare_alu()
        else:
            ctx.stage(*circuit)
    print(f"{time.perf_counter() - _STARTED:.6f}")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    sub = parser.add_subparsers(dest="command", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    cli.add_argument("--seed", type=int, default=0)
    cli.add_argument("--trace-out")
    cli.add_argument("--layers-out")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    if args.command == "setup":
        return _setup(args)
    if args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return _cli(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
