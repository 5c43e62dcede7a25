"""Fig. 3.3 -- CDL vs Operand Width Marker per operation at NTC.

For each ALU operation, operand streams are generated with the OWM
constraint set (at least one operand of high significant width) and
reset (both operands low), and the maximum CDL each achieves across the
chip population is recorded.

Expected shape: for every operation the OWM-set series reaches a higher
maximum CDL than the OWM-reset series (wide operands sensitise more
paths, so more PV-affected gates can participate).
"""

from __future__ import annotations

import numpy as np

from repro.circuits.alu import CH3_OPS
from repro.experiments.charstudy import op_vector_stream, stable_seed
from repro.experiments.report import ExperimentResult, Table
from repro.experiments.runner import ExperimentContext
from repro.pv.delaymodel import nominal_gate_delays
from repro.timing.dta import batch_cycle_timings

TITLE = "max CDL with OWM set vs reset, per operation (NTC)"


def run(ctx: ExperimentContext) -> ExperimentResult:
    config = ctx.config
    result = ExperimentResult("fig3_3", TITLE)
    alu, circuit = ctx.bare_alu()
    nominal = nominal_gate_delays(alu.netlist, ctx.corner("NTC"))

    chips = [
        ctx.alu_chip(seed=1000 + chip_index, corner="NTC")
        for chip_index in range(config.characterization_chips)
    ]

    best: dict[tuple, float] = {}
    for op in CH3_OPS:
        # One population call per (op, chip, OWM) stream: row 0 is the
        # PV-free timing, row 1 the chip's.  The worst row 0 over both
        # OWM populations is the operation's common CDL baseline (see
        # fig3_02 for the rationale).
        baseline = 0.0
        chip_worst: list[tuple[str, float]] = []
        for chip_index, chip in enumerate(chips):
            for owm, label in (("high", "set"), ("low", "reset")):
                rng = np.random.default_rng(
                    stable_seed("fig3_3", int(op), chip_index, owm)
                )
                inputs = op_vector_stream(
                    alu, op, config.characterization_vectors, rng, owm=owm
                )
                timings = batch_cycle_timings(
                    circuit, inputs, np.stack([nominal, chip.delays])
                )
                baseline = max(baseline, float(timings.t_late[0].max()))
                chip_worst.append((label, float(timings.t_late[1].max())))
        for label, worst in chip_worst:
            cdl = (worst - baseline) / baseline * 100.0
            key = (op.name, label)
            if key not in best or cdl > best[key]:
                best[key] = cdl

    table = Table(
        "max CDL% per operation and OWM state",
        ["op", "OWM_reset", "OWM_set"],
    )
    for op in CH3_OPS:
        table.add_row(
            op.name,
            round(max(best.get((op.name, "reset"), 0.0), 0.0), 2),
            round(max(best.get((op.name, "set"), 0.0), 0.0), 2),
        )
    result.tables.append(table)
    result.notes.append(
        "CDL floored at 0 (a negative value means the operation never "
        "exceeded the nominal critical path under that OWM constraint)."
    )
    return result
