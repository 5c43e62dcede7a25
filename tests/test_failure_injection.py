"""Failure-injection tests: pathological inputs and corrupted state.

A production library must fail loudly and precisely on bad inputs, and
its behavioural models must stay sane under degenerate-but-legal
conditions (empty error populations, saturated tables, extreme delays).
"""

import numpy as np
import pytest

from repro.arch.trace import BENCHMARKS, generate_trace
from repro.core.dcs import DcsScheme
from repro.core.scheme_sim import build_error_trace
from repro.core.schemes import HfgScheme, OcstScheme, RazorScheme
from repro.core.trident import TridentScheme
from repro.timing.dta import ERR_SE_MAX, cycle_timings
from repro.timing.levelize import levelize

from tests.util import synthetic_error_trace


def test_single_cycle_error_trace():
    trace = synthetic_error_trace(np.array([ERR_SE_MAX], dtype=np.int8))
    for scheme in (RazorScheme(), HfgScheme(), OcstScheme(interval=10),
                   DcsScheme("icslt", 32), TridentScheme(32)):
        result = scheme.simulate(trace)
        assert result.base_cycles == 1
        assert result.penalty_cycles >= 0


def test_empty_like_trace_all_clean():
    trace = synthetic_error_trace(np.zeros(3, dtype=np.int8))
    for scheme in (RazorScheme(), DcsScheme("acslt", 16, 8), TridentScheme(32)):
        result = scheme.simulate(trace)
        assert result.penalty_cycles == 0
        assert result.errors_total == 0


def test_every_cycle_errant_saturates_but_terminates():
    n = 500
    classes = np.full(n, ERR_SE_MAX, dtype=np.int8)
    instr = (np.arange(n) % 200).astype(np.int16)  # more tags than capacity
    trace = synthetic_error_trace(classes, instr_sens=instr, instr_init=instr)
    result = DcsScheme("icslt", 32).simulate(trace)
    assert result.errors_total == n
    assert result.errors_predicted + result.errors_missed == n
    # the tiny table thrashes but never crashes or over-counts
    assert result.extra["capacity_misses"] > 0


def test_nan_free_timing_on_extreme_delays(alu8, alu8_circuit):
    rng = np.random.default_rng(0)
    ops = rng.integers(0, 13, size=10)
    a = rng.integers(0, 256, size=10, dtype=np.uint64)
    b = rng.integers(0, 256, size=10, dtype=np.uint64)
    inputs = alu8.encode_batch(ops, a, b)
    delays = np.zeros(alu8.netlist.num_nodes)
    for node in range(alu8.netlist.num_nodes):
        if alu8.netlist.fanins(node):
            delays[node] = 1e9  # absurd but finite
    timings = cycle_timings(alu8_circuit, inputs, delays)
    assert not np.isnan(timings.t_late).any()
    assert (timings.t_late >= 0).all()


def test_zero_delay_chip_is_legal(alu8, alu8_circuit):
    """All-zero delays (a degenerate corner) must yield zero arrivals."""
    rng = np.random.default_rng(1)
    ops = rng.integers(0, 13, size=5)
    a = rng.integers(0, 256, size=5, dtype=np.uint64)
    b = rng.integers(0, 256, size=5, dtype=np.uint64)
    inputs = alu8.encode_batch(ops, a, b)
    timings = cycle_timings(
        alu8_circuit, inputs, np.zeros(alu8.netlist.num_nodes)
    )
    assert (timings.t_late == 0).all()


def test_trace_stage_width_mismatch_raises(stage16_ntc, chip16):
    wrong = generate_trace(BENCHMARKS["gap"], 20, width=32)
    with pytest.raises(ValueError):
        build_error_trace(stage16_ntc, chip16, wrong)


def test_foreign_chip_delays_length_guard(stage16_ntc, alu8):
    """A chip fabricated from a different netlist cannot time this stage."""
    from repro.pv.chip import fabricate_chip
    from repro.pv.delaymodel import NTC

    foreign = fabricate_chip(alu8.netlist, NTC, seed=0)
    trace = generate_trace(BENCHMARKS["gap"], 20, width=16)
    with pytest.raises((ValueError, IndexError)):
        build_error_trace(stage16_ntc, foreign, trace)


def test_ocst_interval_larger_than_trace():
    classes = np.zeros(50, dtype=np.int8)
    classes[::5] = ERR_SE_MAX
    trace = synthetic_error_trace(classes)
    result = OcstScheme(interval=100_000).simulate(trace)
    # never reaches a tuning boundary: behaves exactly like Razor
    razor = RazorScheme().simulate(trace)
    assert result.penalty_cycles == razor.penalty_cycles
    assert result.effective_clock_period == pytest.approx(trace.clock_period)


def test_hfg_on_trace_without_late_arrivals():
    trace = synthetic_error_trace(
        np.zeros(10, dtype=np.int8), t_late=np.full(10, 100.0)
    )
    result = HfgScheme().simulate(trace)
    # guardband never goes below the nominal clock
    assert result.effective_clock_period >= trace.clock_period


def test_levelize_rejects_nothing_but_empty_netlists_work():
    from repro.gates.netlist import Netlist
    from repro.gates.celllib import GateKind

    netlist = Netlist("inputs-only")
    netlist.add(GateKind.INPUT, (), name="a")
    circuit = levelize(netlist)
    assert circuit.depth == 0


# ----------------------------------------------------------------------
# runtime chaos harness: the resilience layer under deliberate faults
# ----------------------------------------------------------------------

def test_corrupt_checkpoint_load_falls_back_to_recompute(tmp_path):
    """A damaged on-disk artefact must mean recomputation, not a crash."""
    from repro.runtime import CheckpointStore
    from repro.runtime.chaos import corrupt_entry

    store = CheckpointStore(tmp_path)
    store.save("etrace-deadbeef", np.arange(32))
    corrupt_entry(store, "etrace-deadbeef", mode="flip")
    assert store.load("etrace-deadbeef") is None
    assert store.stats.corrupt == 1
    recomputed = store.fetch("etrace-deadbeef", lambda: np.arange(32))
    assert (recomputed == np.arange(32)).all()


def test_injected_exception_isolated_from_siblings():
    """One errant experiment yields a FailureRecord; siblings still run."""
    from repro.experiments import FAST_CONFIG, ExperimentContext
    from repro.experiments.report import ExperimentResult
    from repro.runtime import run_many
    from repro.runtime.chaos import failing_run

    bodies = {
        "healthy_a": lambda ctx: ExperimentResult("healthy_a", "t"),
        "errant": failing_run("mid-experiment fault"),
        "healthy_b": lambda ctx: ExperimentResult("healthy_b", "t"),
    }
    report = run_many(
        list(bodies), ExperimentContext(FAST_CONFIG), resolve=bodies.__getitem__
    )
    assert [o.ok for o in report.outcomes] == [True, False, True]
    (failure,) = report.failures
    assert failure.experiment_id == "errant"
    assert "mid-experiment fault" in failure.message
    assert failure.traceback  # full traceback captured for triage

