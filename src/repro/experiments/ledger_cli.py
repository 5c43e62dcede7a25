"""The ``python -m repro.experiments ledger {record,list,diff,html}`` family.

Thin argparse front-end over :mod:`repro.obs.ledger` /
:mod:`repro.obs.trends` / :mod:`repro.obs.dashboard`:

* ``record`` — append one record built from a ``metrics.json`` (and
  optionally a ``--format json`` report) to a ledger, for runs driven
  outside the main CLI (benchmarks, CI steps).
* ``list`` — the run history as a table, newest last, with drift flags.
* ``diff A B`` — structural comparison of two runs (run-id, run-id
  prefix, or index; ``-1`` = newest).  ``--strict`` exits non-zero when
  determinism-view counters differ.
* ``html`` — render the self-contained dashboard file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.obs import dashboard, trends
from repro.obs.ledger import RunLedger, build_record, headline_metrics_from_dicts


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments ledger",
        description="Inspect and extend the append-only run ledger.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="append a record from telemetry files")
    record.add_argument("--ledger-dir", required=True)
    record.add_argument("--metrics", help="metrics.json from an instrumented run")
    record.add_argument("--report", help="--format json report (for science metrics)")
    record.add_argument("--rev", help="override the recorded git revision")
    record.add_argument("--notes", default="", help="free-form annotation")
    record.add_argument(
        "--keep", type=int, metavar="N",
        help="retention: atomically prune the ledger to the newest N records",
    )

    lister = sub.add_parser("list", help="show the run history")
    lister.add_argument("--ledger-dir", required=True)
    lister.add_argument("--limit", type=int, default=20, metavar="N",
                        help="show only the newest N runs (default: 20)")

    diff = sub.add_parser("diff", help="compare two runs")
    diff.add_argument("--ledger-dir", required=True)
    diff.add_argument("run_a", help="run id, unique prefix, or index (-1 = newest)")
    diff.add_argument("run_b", help="run id, unique prefix, or index")
    diff.add_argument(
        "--strict", action="store_true",
        help="exit non-zero if any determinism-view counter differs",
    )

    html = sub.add_parser("html", help="render the self-contained dashboard")
    html.add_argument("--ledger-dir", required=True)
    html.add_argument("--out", default="dashboard.html")
    html.add_argument("--trace", help="trace.json path to reference for drill-down")
    html.add_argument(
        "--events",
        help="events.jsonl from a --jobs N run; renders the fleet-lane timeline",
    )
    return parser


def _cmd_record(args: argparse.Namespace) -> int:
    metrics_doc = None
    if args.metrics:
        with open(args.metrics) as handle:
            metrics_doc = json.load(handle)
    record = build_record(metrics_doc=metrics_doc, rev=args.rev, notes=args.notes)
    if args.report:
        with open(args.report) as handle:
            record["science"] = headline_metrics_from_dicts(json.load(handle))
    ledger = RunLedger(args.ledger_dir)
    path = ledger.append(record)
    pruned = ledger.prune(args.keep) if args.keep is not None else 0
    suffix = f" ({pruned} pruned)" if pruned else ""
    print(f"recorded {record['run_id']} -> {path}{suffix}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments.report import Table

    records = RunLedger(args.ledger_dir).records()
    if not records:
        print("ledger is empty")
        return 0
    drifted = {
        f["metric"] for f in trends.detect_drift(records) if f["drifted"]
    }
    table = Table(
        title=f"ledger: {len(records)} run(s)",
        headers=["run_id", "rev", "ok", "total", "span_s", "trace", "drift"],
    )
    for record in records[-args.limit:]:
        experiments = record.get("experiments", {})
        ok = sum(1 for e in experiments.values() if e.get("status") == "ok")
        table.add_row(
            str(record.get("run_id", "?")),
            str(record.get("git_rev", "?"))[:12],
            ok,
            len(experiments),
            float(record.get("span_total_s", 0.0)),
            str(record.get("trace_id", ""))[:12] or "-",
            "latest" if record is records[-1] and drifted else "",
        )
    print(table.render())
    if drifted:
        print(f"{len(drifted)} metric(s) drifting in the newest run "
              f"(MAD z-score gate):")
        for name in sorted(drifted):
            print(f"  {name}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    ledger = RunLedger(args.ledger_dir)
    try:
        record_a = ledger.resolve(args.run_a)
        record_b = ledger.resolve(args.run_b)
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = trends.diff_records(record_a, record_b)
    print(f"diff {result['run_a']} -> {result['run_b']}")
    print(f"  same rev: {result['same_rev']}  same config: {result['same_config']}")
    print(f"  equal metrics: {result['equal']}")
    print(f"  counter drift (determinism view): {result['counter_drift']}")
    for name, entry in result["changed"].items():
        if entry["rel"] == float("inf"):
            rel = "new"
        else:
            sign = "+" if entry["delta"] >= 0 else "-"
            rel = f"{sign}{entry['rel']:.1%}"
        print(f"  ~ {name}: {entry['a']:g} -> {entry['b']:g} ({rel})")
    for name in result["only_in_a"]:
        print(f"  - {name} (only in {result['run_a']})")
    for name in result["only_in_b"]:
        print(f"  + {name} (only in {result['run_b']})")
    if not result["changed"] and not result["only_in_a"] and not result["only_in_b"]:
        print("  no metric differences")
    if args.strict and result["counter_drift"]:
        print(f"STRICT: {result['counter_drift']} determinism-view counter(s) "
              f"drifted", file=sys.stderr)
        return 1
    return 0


def _cmd_html(args: argparse.Namespace) -> int:
    from repro.experiments.reportio import atomic_write_text

    records = RunLedger(args.ledger_dir).records()
    payload = dashboard.render_dashboard(
        records, trace_path=args.trace, events_path=args.events
    )
    atomic_write_text(args.out, payload)
    print(f"dashboard written to {args.out} "
          f"({len(records)} run(s), {len(payload)} bytes)")
    return 0


def ledger_main(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "record": _cmd_record,
        "list": _cmd_list,
        "diff": _cmd_diff,
        "html": _cmd_html,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # the consumer went away (`... | head`); behave like a well-bred
        # filter: swallow the error and keep interpreter shutdown quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
