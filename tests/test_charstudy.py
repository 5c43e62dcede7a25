"""Unit tests for the characterisation-study helpers."""

import numpy as np
import pytest

from repro.arch.isa import Instr
from repro.circuits.alu import AluOp
from repro.experiments.charstudy import (
    characterization_operands,
    collect_choke_events,
    instr_vector_stream,
    op_vector_stream,
)
from repro.pv.chip import fabricate_chip
from repro.pv.delaymodel import NTC, nominal_gate_delays
from repro.timing.choke import analyze_choke_event
from repro.timing.dta import (
    batch_cycle_timings,
    cycle_timings,
    single_transition_arrivals,
)
from repro.timing.sta import critical_path_delay


def _chip_t_late(circuit, chip, inputs):
    return cycle_timings(circuit, inputs, chip.delays).t_late


def test_operand_owm_constraints(rng):
    width = 16
    half = 1 << (width // 2)
    high = characterization_operands(rng, 200, width, "high")
    low = characterization_operands(rng, 200, width, "low")
    assert (high >= half).all()
    assert (low < half).all()


def test_operand_mixed_covers_both_classes(rng):
    width = 16
    half = 1 << (width // 2)
    values = characterization_operands(rng, 400, width, "mixed")
    assert (values < half).any()
    assert (values >= half).any()
    assert (values < (1 << width)).all()


def test_unknown_owm_constraint_rejected(rng):
    with pytest.raises(ValueError):
        characterization_operands(rng, 10, 16, "medium")


def test_op_vector_stream_selects_one_op(alu8, rng):
    inputs = op_vector_stream(alu8, AluOp.XOR, 20, rng)
    assert inputs.shape == (alu8.num_inputs, 20)
    select_rows = inputs[2 * alu8.width :, :]
    assert (select_rows.sum(axis=0) == 1).all()
    assert select_rows[int(AluOp.XOR)].all()


def test_instr_vector_stream_respects_roles(alu8, rng):
    # LUI: fixed shift amount = width/2
    inputs = instr_vector_stream(alu8, Instr.LUI, 10, rng)
    b_bits = inputs[alu8.width : 2 * alu8.width, :]
    b_values = (b_bits * (1 << np.arange(alu8.width))[:, None]).sum(axis=0)
    assert (b_values == alu8.width // 2).all()
    # fixed-shift SRL: b < width
    inputs = instr_vector_stream(alu8, Instr.SRL, 30, rng)
    b_bits = inputs[alu8.width : 2 * alu8.width, :]
    b_values = (b_bits * (1 << np.arange(alu8.width))[:, None]).sum(axis=0)
    assert (b_values < alu8.width).all()


def test_collect_choke_events_structure(alu8, alu8_circuit, rng):
    nominal = nominal_gate_delays(alu8.netlist, NTC)
    critical = critical_path_delay(alu8.netlist, nominal)
    found = []
    for seed in range(8):
        chip = fabricate_chip(alu8.netlist, NTC, seed=seed)
        inputs = op_vector_stream(alu8, AluOp.MULT, 60, rng)
        t_late = _chip_t_late(alu8_circuit, chip, inputs)
        found.extend(
            collect_choke_events(alu8_circuit, chip, inputs, t_late, critical * 0.9)
        )
    assert found, "expected at least one choke event across 8 NTC chips"
    for event in found:
        assert event.cdl_percent > 0
        assert event.num_choke_gates >= 1


def test_collect_choke_events_respects_traceback_cap(alu8, alu8_circuit, rng):
    chip = fabricate_chip(alu8.netlist, NTC, seed=3)
    inputs = op_vector_stream(alu8, AluOp.MULT, 120, rng)
    nominal = nominal_gate_delays(alu8.netlist, NTC)
    # absurdly low baseline: every cycle qualifies, cap must bound work
    t_late = _chip_t_late(alu8_circuit, chip, inputs)
    events = collect_choke_events(
        alu8_circuit, chip, inputs, t_late, nominal.max(), max_tracebacks=5
    )
    assert len(events) <= 5


def test_no_events_when_baseline_unreachable(alu8, alu8_circuit, rng):
    chip = fabricate_chip(alu8.netlist, NTC, seed=3)
    inputs = op_vector_stream(alu8, AluOp.BUFFER, 40, rng)
    t_late = _chip_t_late(alu8_circuit, chip, inputs)
    events = collect_choke_events(alu8_circuit, chip, inputs, t_late, 1e9)
    assert events == []


def _per_event_choke_events(circuit, chip, inputs, nominal_critical, max_tracebacks):
    """The unbatched path: single-chip timing, then one node-resolved
    timing and one analysis per picked cycle."""
    t_late = cycle_timings(circuit, inputs, chip.delays).t_late
    over = np.flatnonzero(t_late > nominal_critical)
    order = np.argsort(t_late[over])
    if len(over) > max_tracebacks:
        order = order[np.linspace(0, len(over) - 1, max_tracebacks).astype(int)]
    events = []
    for index in over[order]:
        late, _early, toggled = single_transition_arrivals(
            circuit, inputs[:, index], inputs[:, index + 1], chip.delays
        )
        event = analyze_choke_event(
            circuit, chip, late, toggled, nominal_critical, ratio_threshold=2.0
        )
        if event is not None:
            events.append(event)
    return events


@pytest.mark.parametrize("max_tracebacks", [40, 7])
def test_batched_events_equal_per_event_path(alu8, alu8_circuit, max_tracebacks):
    nominal = nominal_gate_delays(alu8.netlist, NTC)
    critical = critical_path_delay(alu8.netlist, nominal)
    total = 0
    for seed, op in ((1, AluOp.MULT), (4, AluOp.ADD), (6, AluOp.MULT)):
        chip = fabricate_chip(alu8.netlist, NTC, seed=seed)
        inputs = op_vector_stream(alu8, op, 90, np.random.default_rng(seed))
        population = batch_cycle_timings(
            alu8_circuit, inputs, np.stack([nominal, chip.delays])
        )
        batched = collect_choke_events(
            alu8_circuit, chip, inputs, population.t_late[1], critical * 0.9,
            max_tracebacks=max_tracebacks,
        )
        reference = _per_event_choke_events(
            alu8_circuit, chip, inputs, critical * 0.9, max_tracebacks
        )
        assert len(batched) == len(reference)
        for got, want in zip(batched, reference):
            assert got.category == want.category
            assert got.cdl_percent == want.cdl_percent
            assert got.cgl_percent == want.cgl_percent
            assert got.path.nodes == want.path.nodes
            assert got.choke_gate_ids == want.choke_gate_ids
        total += len(batched)
    assert total > 0, "the equivalence check needs at least one choke event"
