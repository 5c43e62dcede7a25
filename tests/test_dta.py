"""Unit tests for dynamic timing analysis on hand-built circuits."""

import numpy as np
import pytest

from repro import obs
from repro.gates.builder import NetlistBuilder
from repro.gates.celllib import GateKind
from repro.gates.netlist import Netlist
from repro.pv.chip import fabricate_chip
from repro.pv.delaymodel import NTC
from repro.timing.dta import (
    ERR_CE,
    ERR_NONE,
    ERR_SE_MAX,
    ERR_SE_MIN,
    CycleTimings,
    cycle_timings,
    single_transition_arrivals,
)
from repro.timing.levelize import levelize
from tests.util import chain_circuit as _chain_circuit  # canonical builder


def test_chain_arrival_time():
    circuit, delays = _chain_circuit(3)
    inputs = np.array([[0, 1]], dtype=bool)  # one toggle
    timings = cycle_timings(circuit, inputs, delays)
    assert timings.t_late[0] == pytest.approx(30.0)
    assert timings.t_early[0] == pytest.approx(30.0)
    assert timings.output_toggles[0] == 1


def test_no_toggle_means_no_transition():
    circuit, delays = _chain_circuit(3)
    inputs = np.array([[1, 1]], dtype=bool)
    timings = cycle_timings(circuit, inputs, delays)
    assert timings.t_late[0] == 0.0
    assert np.isinf(timings.t_early[0])
    assert timings.output_toggles[0] == 0


def test_diamond_takes_slowest_and_fastest_sensitised_branch():
    """a feeds both a slow and a fast branch into an XOR: when 'a'
    toggles, the XOR output transitions arrive through both branches --
    earliest via the fast one, latest via the slow one."""
    builder = NetlistBuilder()
    a = builder.input("a")
    b = builder.input("b")
    slow = builder.buf(builder.buf(a))  # 2 bufs
    fast = builder.buf(a)
    # OR them with b to keep both branches sensitisable
    left = builder.or_(slow, b)
    right = builder.or_(fast, b)
    out = builder.xor_(left, right)
    builder.output("y", out)
    netlist = builder.build()
    delays = np.zeros(netlist.num_nodes)
    for node in range(netlist.num_nodes):
        if netlist.fanins(node):
            delays[node] = 10.0

    circuit = levelize(netlist)
    # b stays 0; a toggles 0->1: left goes through 2 bufs + or (30 ps),
    # right through 1 buf + or (20 ps)
    inputs = np.array([[0, 1], [0, 0]], dtype=bool)
    late, early, toggled = single_transition_arrivals(
        circuit, inputs[:, 0], inputs[:, 1], delays
    )
    assert not toggled[out]  # XOR of two equal transitions ends equal
    # but left/right each transitioned:
    assert late[left] == pytest.approx(30.0)
    assert late[right] == pytest.approx(20.0)
    assert early[left] == pytest.approx(30.0)
    assert early[right] == pytest.approx(20.0)


def test_untoggled_nodes_carry_infinities():
    circuit, delays = _chain_circuit(2)
    late, early, toggled = single_transition_arrivals(
        circuit, np.array([1]), np.array([1]), delays
    )
    assert not toggled.any()
    assert np.isneginf(late[circuit.output_ids[0]])
    assert np.isposinf(early[circuit.output_ids[0]])


def test_chunked_equals_unchunked(alu8, alu8_circuit):
    rng = np.random.default_rng(21)
    ops = rng.integers(0, 13, size=64)
    a = rng.integers(0, 256, size=64, dtype=np.uint64)
    b = rng.integers(0, 256, size=64, dtype=np.uint64)
    inputs = alu8.encode_batch(ops, a, b)
    delays = np.where(
        [bool(alu8.netlist.fanins(n)) for n in range(alu8.netlist.num_nodes)],
        7.0,
        0.0,
    )
    big = cycle_timings(alu8_circuit, inputs, delays, chunk=1024)
    small = cycle_timings(alu8_circuit, inputs, delays, chunk=5)
    assert np.allclose(big.t_late, small.t_late)
    assert np.allclose(big.t_early, small.t_early, equal_nan=True)
    assert (big.output_toggles == small.output_toggles).all()


def test_single_transition_matches_batch(alu8, alu8_circuit):
    rng = np.random.default_rng(22)
    ops = rng.integers(0, 13, size=6)
    a = rng.integers(0, 256, size=6, dtype=np.uint64)
    b = rng.integers(0, 256, size=6, dtype=np.uint64)
    inputs = alu8.encode_batch(ops, a, b)
    delays = np.full(alu8.netlist.num_nodes, 5.0)
    for node in alu8.netlist.input_ids:
        delays[node] = 0.0
    batch = cycle_timings(alu8_circuit, inputs, delays)
    for t in range(5):
        late, early, _ = single_transition_arrivals(
            alu8_circuit, inputs[:, t], inputs[:, t + 1], delays
        )
        out = alu8_circuit.output_ids
        finite = np.isfinite(late[out])
        expected_late = late[out][finite].max() if finite.any() else 0.0
        assert batch.t_late[t] == pytest.approx(expected_late)


def _alu8_stream(alu8, count, seed):
    rng = np.random.default_rng(seed)
    ops = rng.integers(0, 13, size=count)
    a = rng.integers(0, 256, size=count, dtype=np.uint64)
    b = rng.integers(0, 256, size=count, dtype=np.uint64)
    return alu8.encode_batch(ops, a, b)


def test_batched_single_transitions_equal_single_pairs(alu8, alu8_circuit):
    inputs = _alu8_stream(alu8, 12, seed=23)
    delays = fabricate_chip(alu8.netlist, NTC, seed=5).delays
    # non-adjacent picks, a repeated pick (5 -> 6 twice) and a reversed
    # pick (3 -> 2)
    prev_cols = [0, 5, 9, 5, 3]
    curr_cols = [1, 6, 10, 6, 2]
    late, early, toggled = single_transition_arrivals(
        alu8_circuit, inputs[:, prev_cols], inputs[:, curr_cols], delays
    )
    num_nodes = alu8.netlist.num_nodes
    assert late.shape == early.shape == toggled.shape == (num_nodes, len(prev_cols))
    for e, (p, c) in enumerate(zip(prev_cols, curr_cols)):
        one_late, one_early, one_toggled = single_transition_arrivals(
            alu8_circuit, inputs[:, p], inputs[:, c], delays
        )
        # exact, infinities of untoggled nodes included
        assert np.array_equal(late[:, e], one_late)
        assert np.array_equal(early[:, e], one_early)
        assert np.array_equal(toggled[:, e], one_toggled)
    assert np.isneginf(late).any() and np.isposinf(early).any()


def test_single_pair_keeps_one_dimensional_results(alu8, alu8_circuit):
    inputs = _alu8_stream(alu8, 2, seed=24)
    delays = np.full(alu8.netlist.num_nodes, 5.0)
    late, early, toggled = single_transition_arrivals(
        alu8_circuit, inputs[:, 0], inputs[:, 1], delays
    )
    shape = (alu8.netlist.num_nodes,)
    assert late.shape == early.shape == toggled.shape == shape


def test_single_transition_counter_grows_by_pairs(alu8, alu8_circuit):
    inputs = _alu8_stream(alu8, 8, seed=25)
    delays = np.full(alu8.netlist.num_nodes, 5.0)
    recorder = obs.enable(obs.TelemetryRecorder(process="main"))
    try:
        single_transition_arrivals(
            alu8_circuit, inputs[:, :5], inputs[:, 1:6], delays
        )
        assert recorder.metrics.counters["dta.single_transitions"] == 5
        single_transition_arrivals(alu8_circuit, inputs[:, 6], inputs[:, 7], delays)
        assert recorder.metrics.counters["dta.single_transitions"] == 6
    finally:
        obs.disable()


def test_row_plan_orders_level_zero_first(alu8_circuit):
    plan = alu8_circuit.plan
    levels = alu8_circuit.node_levels
    assert np.array_equal(np.sort(plan.order), np.arange(alu8_circuit.num_nodes))
    assert np.array_equal(plan.row_of[plan.order], np.arange(alu8_circuit.num_nodes))
    assert np.all(levels[plan.order[: plan.num_sources]] == 0)
    assert np.all(levels[plan.order[plan.num_sources :]] > 0)
    assert np.array_equal(
        plan.order[: plan.num_inputs], alu8_circuit.input_ids.astype(np.intp)
    )


def test_row_plan_groups_read_only_lower_rows(alu8_circuit):
    plan = alu8_circuit.plan
    start = plan.num_sources
    for group in plan.groups:
        assert group.start == start and group.stop > group.start
        for fanin in group.fanins:
            assert len(fanin) == group.stop - group.start
            assert fanin.max() < group.start
        start = group.stop
    assert start == alu8_circuit.num_nodes


def test_row_plan_is_built_once(alu8_circuit):
    assert alu8_circuit.plan is alu8_circuit.plan


@pytest.mark.parametrize("batched", [False, True])
def test_propagate_rows_selects_full_result(alu8, alu8_circuit, batched):
    from repro.timing.dta import _propagate_arrivals
    from repro.timing.logic_eval import evaluate_logic

    rng = np.random.default_rng(5)
    inputs = rng.integers(0, 2, size=(len(alu8_circuit.input_ids), 33)).astype(bool)
    values = evaluate_logic(alu8_circuit, inputs)
    chips = [fabricate_chip(alu8.netlist, NTC, seed) for seed in (1, 2)]
    delays = np.stack([chip.delays for chip in chips])
    if not batched:
        delays = delays[0]
    ids = np.concatenate([alu8_circuit.output_ids, [0, 3, 3]])
    late, early = _propagate_arrivals(alu8_circuit, values, delays)
    some_late, some_early = _propagate_arrivals(alu8_circuit, values, delays, rows=ids)
    assert late.shape == (alu8_circuit.num_nodes, *delays.shape[:-1], 32)
    assert np.array_equal(some_late.view(np.uint32), late[ids].view(np.uint32))
    assert np.array_equal(some_early.view(np.uint32), early[ids].view(np.uint32))


def test_toggling_input_arrives_at_positive_zero():
    netlist = Netlist("wire")
    a = netlist.add(GateKind.INPUT, name="a")
    netlist.mark_output("y", a)
    netlist.mark_output("z", netlist.add(GateKind.BUF, (a,), name="z"))
    circuit = levelize(netlist)
    delays = np.array([0.0, 4.0])
    timings = cycle_timings(circuit, np.array([[0, 1, 1]], dtype=bool), delays)
    assert timings.t_late.tolist() == [4.0, 0.0]
    assert timings.t_early.view(np.uint32)[0] == np.float32(0.0).view(np.uint32)
    late, early, _ = single_transition_arrivals(
        circuit, np.array([0]), np.array([1]), delays
    )
    assert not np.signbit(early[a]) and not np.signbit(late[a])


def test_requires_two_vectors(alu8_circuit, alu8):
    inputs = alu8.encode(0, 1, 2).reshape(-1, 1)
    with pytest.raises(ValueError):
        cycle_timings(alu8_circuit, inputs, np.zeros(alu8.netlist.num_nodes))


def test_invalid_chunk_rejected(alu8, alu8_circuit):
    inputs = alu8.encode_batch(
        np.array([0, 1]), np.array([1, 2], dtype=np.uint64), np.array([3, 4], dtype=np.uint64)
    )
    with pytest.raises(ValueError):
        cycle_timings(alu8_circuit, inputs, np.zeros(alu8.netlist.num_nodes), chunk=0)


# ---------------------------------------------------------------------------
# CycleTimings classification
# ---------------------------------------------------------------------------


def _timings(t_late, t_early):
    n = len(t_late)
    return CycleTimings(
        t_late=np.array(t_late, dtype=np.float32),
        t_early=np.array(t_early, dtype=np.float32),
        output_toggles=np.ones(n, dtype=np.int32),
    )


def test_classify_all_classes():
    timings = _timings(
        t_late=[50.0, 50.0, 120.0, 120.0],
        t_early=[40.0, 5.0, 40.0, 5.0],
    )
    classes = timings.classify(clock_period=100.0, hold_constraint=10.0)
    assert list(classes) == [ERR_NONE, ERR_SE_MIN, ERR_SE_MAX, ERR_CE]


def test_violation_masks():
    timings = _timings([120.0, 80.0], [50.0, 2.0])
    assert list(timings.max_violations(100.0)) == [True, False]
    assert list(timings.min_violations(10.0)) == [False, True]
    assert len(timings) == 2


def test_boundary_is_not_a_violation():
    timings = _timings([100.0], [10.0])
    assert not timings.max_violations(100.0)[0]
    assert not timings.min_violations(10.0)[0]
