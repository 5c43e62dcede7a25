"""Fig. 4.2 -- path-delay variation at STC/NTC, buffered/bufferless.

For each of the paper's 15 instructions, instruction-specific vector
streams are timed on fabricated chips of four EX-stage configurations
({STC, NTC} x {buffered, bufferless}).  Each cycle's sensitised maximum
and minimum path delays are normalised by the same cycle's *PV-free*
delays; the table reports the mean normalised delay plus the extremes
(the figure's error bars).

Expected shape: NTC variations far exceed STC; the buffered NTC stage
shows the deepest *minimum*-path droop (choke buffers shortening padded
paths), while at STC buffered and bufferless barely differ.
"""

from __future__ import annotations

import numpy as np

from repro.arch.isa import FIG4_2_INSTRS
from repro.experiments.charstudy import instr_vector_stream, stable_seed
from repro.experiments.report import ExperimentResult, Table
from repro.experiments.runner import ExperimentContext
from repro.timing.dta import batch_cycle_timings

TITLE = "normalized path-delay variation per instruction, 4 configurations"

CONFIGS = (
    ("NTC", False, "NTC-Bufferless"),
    ("NTC", True, "NTC-Buffered"),
    ("STC", False, "STC-Bufferless"),
    ("STC", True, "STC-Buffered"),
)


def _ratios(pv, nominal):
    """Per-cycle PV/PV-free ratios over cycles where both are finite."""
    mask = np.isfinite(pv) & np.isfinite(nominal) & (nominal > 0)
    return pv[mask] / nominal[mask] if mask.any() else np.array([1.0])


def run(ctx: ExperimentContext) -> ExperimentResult:
    config = ctx.config
    result = ExperimentResult("fig4_2", TITLE)
    chips_per_config = max(2, config.characterization_chips // 3)

    for corner, buffered, label in CONFIGS:
        stage = ctx.stage(corner, buffered)
        chips = [
            ctx.chip(
                seed=config.ch4_chip_seed + chip_index * 37,
                corner=corner,
                buffered=buffered,
            )
            for chip_index in range(chips_per_config)
        ]
        # Row 0 is the PV-free timing, rows 1.. the chips': every
        # instruction stream is timed in one population call.
        delay_rows = np.stack([stage.nominal_delays, *(chip.delays for chip in chips)])
        table = Table(
            f"{label}: normalized path delay (mean / min / max)",
            ["instr", "mean", "min", "max"],
        )
        for instr in FIG4_2_INSTRS:
            rng = np.random.default_rng(
                stable_seed("fig4_2", int(instr), corner, buffered)
            )
            inputs = instr_vector_stream(
                stage.alu, instr, config.characterization_vectors, rng
            )
            timings = batch_cycle_timings(stage.circuit, inputs, delay_rows)
            means, lows, highs = [], [], []
            for row in range(1, len(delay_rows)):
                late_ratio = _ratios(timings.t_late[row], timings.t_late[0])
                early_ratio = _ratios(timings.t_early[row], timings.t_early[0])
                means.append(float(late_ratio.mean()))
                lows.append(float(early_ratio.min()))
                highs.append(float(late_ratio.max()))
            table.add_row(
                instr.name,
                round(float(np.mean(means)), 3),
                round(float(np.min(lows)), 3),
                round(float(np.max(highs)), 3),
            )
        result.tables.append(table)

    result.notes.append(
        "min = deepest normalized minimum-path delay (early arrival), "
        "max = highest normalized maximum-path delay, over "
        f"{chips_per_config} chips per configuration."
    )
    return result
