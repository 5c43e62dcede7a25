"""Dynamic timing analysis: per-cycle sensitised transition arrivals.

This is the core of the paper's "in-house STA tool": for every pair of
consecutive input vectors (the *initialising* and *sensitising* vectors,
per Xin & Joseph's observation the paper builds on) it computes, at every
node, the latest and earliest possible arrival time of the node's output
transition -- but only along *sensitised* paths, i.e. through gates whose
values actually toggle between the two vectors.

Modelling notes (documented substitutions):

* Glitch-free transition-arrival semantics: a node is considered to
  transition iff its stable logic value differs between the two vectors;
  hazards from reconvergent fanout are not modelled.  The latest arrival
  is the max over toggling fanins plus the gate delay, the earliest is the
  min -- the standard dynamic-timing approximation.
* Non-toggling nodes carry -inf (latest) / +inf (earliest), so a
  non-toggling fanin never wins the max/min.

Batched execution model
-----------------------

The kernel is population-level: :func:`batch_cycle_timings` times *all
chips x all cycles* of a Monte Carlo population in one call.  Logic
values depend only on the input vectors -- never on delays -- so one
:func:`~repro.timing.logic_eval.evaluate_logic` pass is shared by every
chip, and the arrival propagation broadcasts a ``(num_chips, num_nodes)``
delay matrix over a chip axis: the inner loop is levels x gate-kinds
(the circuit's :class:`~repro.timing.levelize.RowPlan`), not chips x
levels x gates.  Late and -early arrivals travel in one array, so each
group is one max chain and two adds.  The single-chip
:func:`cycle_timings` is a thin view over the batch kernel -- same code
path, population of one.  :func:`scalar_cycle_timings` keeps an
independent direct propagation over ``circuit.levels``; the
``batch_vs_scalar`` QA oracle holds the two bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.timing.levelize import LevelizedCircuit
from repro.timing.logic_eval import evaluate_logic

_NEG = np.float32(-np.inf)
_POS = np.float32(np.inf)


@dataclass
class CycleTimings:
    """Per-cycle aggregate timing of a pipestage's combinational cloud.

    Entry ``t`` describes the transition from input vector ``t`` to input
    vector ``t+1`` (the paper's errant cycle is ``t+1``; vector ``t`` is
    the initialising vector).

    * ``t_late``: latest output transition arrival (ps); 0 when no output
      toggles (nothing can be late).
    * ``t_early``: earliest output transition arrival (ps); +inf when no
      output toggles (nothing can violate the hold constraint).
    * ``output_toggles``: number of primary outputs that toggle.
    """

    t_late: np.ndarray
    t_early: np.ndarray
    output_toggles: np.ndarray

    def __len__(self) -> int:
        return len(self.t_late)

    def max_violations(self, clock_period: float) -> np.ndarray:
        """Boolean mask of cycles with a setup (maximum timing) violation."""
        return self.t_late > clock_period

    def min_violations(self, hold_constraint: float) -> np.ndarray:
        """Boolean mask of cycles with a hold (minimum timing) violation."""
        return self.t_early < hold_constraint

    def classify(self, clock_period: float, hold_constraint: float) -> np.ndarray:
        """Per-cycle error class (:data:`ERR_NONE` .. :data:`ERR_CE`).

        CE (consecutive error) is a maximum violation immediately followed
        by a minimum violation within the same detection-clock cycle,
        which in this frame is a cycle exhibiting both violation kinds.
        """
        max_violation = self.max_violations(clock_period)
        min_violation = self.min_violations(hold_constraint)
        classes = np.zeros(len(self.t_late), dtype=np.int8)
        classes[min_violation] = ERR_SE_MIN
        classes[max_violation] = ERR_SE_MAX
        classes[max_violation & min_violation] = ERR_CE
        return classes


@dataclass
class BatchCycleTimings:
    """Population-level timing: one :class:`CycleTimings` row per chip.

    ``t_late`` / ``t_early`` have shape ``(num_chips, transitions)``.
    ``output_toggles`` is ``(transitions,)`` -- logic values are
    delay-independent, so toggle counts are shared by the whole
    population.  :meth:`chip` materialises the per-chip view.
    """

    t_late: np.ndarray
    t_early: np.ndarray
    output_toggles: np.ndarray

    @property
    def num_chips(self) -> int:
        return self.t_late.shape[0]

    def __len__(self) -> int:
        return self.t_late.shape[1]

    def chip(self, index: int) -> CycleTimings:
        """The single-chip view of population member ``index``."""
        return CycleTimings(
            t_late=self.t_late[index],
            t_early=self.t_early[index],
            output_toggles=self.output_toggles,
        )


#: Error classes produced by :meth:`CycleTimings.classify`.
ERR_NONE = 0
ERR_SE_MIN = 1
ERR_SE_MAX = 2
ERR_CE = 3


def _propagate_arrivals(
    circuit: LevelizedCircuit,
    values: np.ndarray,
    delays: np.ndarray,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Latest/earliest transition arrivals for each adjacent vector pair.

    ``values`` is (num_nodes, C), indexed by node id.  With a 1-D
    ``delays`` vector the result matrices are (n, C-1); with a 2-D
    ``(num_chips, num_nodes)`` delay matrix they gain a chip axis,
    (n, num_chips, C-1).  ``n`` covers every node in node-id order, or
    only the node ids in ``rows``, in that order.  Column ``t``
    describes the vector-t -> vector-t+1 transition; non-toggling nodes
    hold -inf / +inf.

    The kernel runs over the circuit's row plan and propagates ``late``
    and ``-early`` together in one ``(plan rows, 2 * chips, T)`` array:
    a group is one gather per fanin, a running ``np.maximum``, one add
    of the signed delay ``(+d, -d)`` and one add of the window's mask,
    ``-0.0`` where the node toggles and ``-inf`` where it does not.
    With non-negative delays this is bit-identical to a separate max/min
    pass masked by ``np.where``: float32 rounding is sign-symmetric, so
    ``-(a + d) == (-a) + (-d)`` and ``max(-x) == -min(x)``, and
    ``x + -0.0 == x`` for every ``x``, signed zeros included.  Toggling
    primary inputs start at ``(+0.0, -0.0)`` so ``early`` returns +0.0.
    1-D delays run as a population of one.
    """
    plan = circuit.plan
    delays32 = np.asarray(delays).astype(np.float32, copy=False)
    batched = delays32.ndim == 2
    if not batched:
        delays32 = delays32[None, :]
    chips = delays32.shape[0]
    ordered = values[plan.order]
    # The mask is built from its bits (np.where is ~6x slower here): the
    # sign bit is always set and the exponent is all ones where the node
    # holds still, so it reads -0.0 where it toggles, -inf where not.
    bits = (ordered[:, 1:] == ordered[:, :-1]).astype(np.uint32)
    bits *= np.uint32(0x7F800000)
    bits |= np.uint32(0x80000000)
    mask = bits.view(np.float32)
    # Signed delays (+d | -d) per row; primary inputs switch at the
    # launching clock edge, so the level-0 rows get (+0.0 | -0.0).
    signed = np.empty((circuit.num_nodes, 2 * chips), dtype=np.float32)
    late_delay = signed[:, :chips]
    late_delay[:] = delays32[:, plan.order].T
    late_delay[: plan.num_sources] = 0.0
    np.negative(late_delay, out=signed[:, chips:])

    arrivals = np.empty((circuit.num_nodes, 2 * chips, mask.shape[1]), np.float32)
    sources = slice(0, plan.num_sources)
    np.add(signed[sources, :, None], mask[sources, None, :], out=arrivals[sources])
    for group in plan.groups:
        span = slice(group.start, group.stop)
        out = arrivals[span]
        first, *rest = group.fanins
        if rest:
            np.maximum(arrivals[first], arrivals[rest[0]], out=out)
            for fanin in rest[1:]:
                np.maximum(out, arrivals[fanin], out=out)
            out += signed[span, :, None]
        else:
            np.add(arrivals[first], signed[span, :, None], out=out)
        out += mask[span, None, :]

    picked = arrivals[plan.row_of if rows is None else plan.row_of[rows]]
    late = picked[:, :chips]
    early = np.negative(picked[:, chips:])
    if not batched:
        return late[:, 0], early[:, 0]
    return late, early


def batch_cycle_timings(
    circuit: LevelizedCircuit,
    inputs: np.ndarray,
    delay_matrix: np.ndarray,
    chunk: int = 2048,
) -> BatchCycleTimings:
    """Time a whole chip population against one input-vector stream.

    ``inputs`` has shape (num_primary_inputs, C); ``delay_matrix`` has
    shape (num_chips, num_nodes) -- one per-node delay row per
    fabricated chip.  The result covers the C-1 vector-to-vector
    transitions for every chip.

    Work proceeds in windows of roughly ``chunk / num_chips``
    transitions so the population's working set stays close to the
    single-chip kernel's; chunking never changes results (each
    transition's arrivals are a pure function of its two vectors).
    Logic evaluation is shared across the population and the seam
    column of each window is carried over, never re-evaluated.
    """
    inputs = np.asarray(inputs, dtype=bool)
    delay_matrix = np.asarray(delay_matrix)
    if delay_matrix.ndim != 2:
        raise ValueError(
            f"delay_matrix must be (num_chips, num_nodes), got {delay_matrix.shape}"
        )
    num_chips = delay_matrix.shape[0]
    if num_chips < 1:
        raise ValueError("delay_matrix must hold at least one chip")
    total = inputs.shape[1]
    if total < 2:
        raise ValueError("need at least two input vectors")
    if chunk < 1:
        raise ValueError("chunk must be positive")

    with obs.span(
        "dta.batch_cycle_timings", cycles=total, chips=num_chips, chunk=chunk
    ):
        obs.inc("dta.evaluations")
        obs.inc("dta.cycles_analyzed", total - 1)
        obs.inc("dta.chip_cycles", num_chips * (total - 1))

        # The delay-matrix float32 view is computed once per call, not
        # once per window (the old per-call astype copy, hoisted).
        delays32 = delay_matrix.astype(np.float32, copy=False)
        window = max(1, chunk // num_chips)

        out_ids = circuit.output_ids
        t_late = np.empty((num_chips, total - 1), dtype=np.float32)
        t_early = np.empty((num_chips, total - 1), dtype=np.float32)
        toggles = np.empty(total - 1, dtype=np.int32)

        boundary: np.ndarray | None = None
        start = 0
        while start < total - 1:
            stop = min(start + window, total - 1)
            if boundary is None:
                values = evaluate_logic(circuit, inputs[:, start : stop + 1])
            else:
                # Chunk seam: the window's first column was the previous
                # window's last -- reuse it instead of re-evaluating the
                # whole circuit for that vector.
                fresh = evaluate_logic(circuit, inputs[:, start + 1 : stop + 1])
                values = np.concatenate([boundary, fresh], axis=1)
            boundary = values[:, -1:]
            late, early = _propagate_arrivals(circuit, values, delays32, rows=out_ids)
            # (num_outputs, num_chips, T) -> reduce over the output axis.
            out_late = late.max(axis=0)
            out_early = early.min(axis=0)
            out_toggled = (values[out_ids, 1:] != values[out_ids, :-1]).sum(axis=0)
            # No output transition: nothing arrives, so nothing is late and
            # nothing violates hold.
            t_late[:, start:stop] = np.where(np.isfinite(out_late), out_late, 0.0)
            t_early[:, start:stop] = out_early
            toggles[start:stop] = out_toggled
            start = stop

        if obs.enabled():
            # Arrival-time extremes of this evaluation: the late tail is
            # where setup violations (and choke paths) live, the early
            # minimum is what the hold constraint fights.  One sample per
            # call keeps the histogram cheap and order-free.
            obs.observe("dta.t_late_max_ps", float(t_late.max()))
            finite_early = t_early[np.isfinite(t_early)]
            if len(finite_early):
                obs.observe("dta.t_early_min_ps", float(finite_early.min()))

    return BatchCycleTimings(t_late=t_late, t_early=t_early, output_toggles=toggles)


def cycle_timings(
    circuit: LevelizedCircuit,
    inputs: np.ndarray,
    delays: np.ndarray,
    chunk: int = 2048,
) -> CycleTimings:
    """Compute per-cycle aggregate output timing for an input-vector stream.

    ``inputs`` has shape (num_primary_inputs, C); the result covers the
    C-1 vector-to-vector transitions.  A thin single-chip view over
    :func:`batch_cycle_timings` (population of one).
    """
    delays = np.asarray(delays)
    if delays.ndim != 1:
        raise ValueError(f"delays must be a per-node vector, got {delays.shape}")
    batch = batch_cycle_timings(circuit, inputs, delays[None, :], chunk=chunk)
    return batch.chip(0)


def _reference_arrivals(
    circuit: LevelizedCircuit,
    values: np.ndarray,
    delays: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Node-order arrivals for one chip by the direct algorithm.

    Per (level, kind) group in node ids: gather the fanins' arrivals,
    take their max (late) and min (early), add the gate delay and keep
    the result only where the node toggles (``np.where``), scattering
    it back by node id.  Shares no code with :func:`_propagate_arrivals`,
    so comparing the two checks the row plan, the fused late/-early
    array and the mask add against the plain definition.
    """
    delays32 = np.asarray(delays).astype(np.float32, copy=False)
    toggled = values[:, 1:] != values[:, :-1]
    late = np.full(toggled.shape, _NEG, dtype=np.float32)
    early = np.full(toggled.shape, _POS, dtype=np.float32)
    in_ids = circuit.input_ids
    late[in_ids] = np.where(toggled[in_ids], np.float32(0.0), _NEG)
    early[in_ids] = np.where(toggled[in_ids], np.float32(0.0), _POS)
    for level in circuit.levels:
        for group in level:
            cand_late = late[group.in0]
            cand_early = early[group.in0]
            for fanin in (group.in1, group.in2):
                if len(fanin):
                    np.maximum(cand_late, late[fanin], out=cand_late)
                    np.minimum(cand_early, early[fanin], out=cand_early)
            gate_delay = delays32[group.nodes][:, None]
            np.add(cand_late, gate_delay, out=cand_late)
            np.add(cand_early, gate_delay, out=cand_early)
            toggles = toggled[group.nodes]
            late[group.nodes] = np.where(toggles, cand_late, _NEG)
            early[group.nodes] = np.where(toggles, cand_early, _POS)
    return late, early


def scalar_cycle_timings(
    circuit: LevelizedCircuit,
    inputs: np.ndarray,
    delays: np.ndarray,
    chunk: int = 2048,
) -> CycleTimings:
    """The single-chip reference implementation, kept as a comparator.

    Windows re-run logic evaluation over ``chunk + 1`` columns and the
    arrivals come from :func:`_reference_arrivals`, an independent
    propagation over ``circuit.levels``.  The ``batch_vs_scalar`` QA
    oracle and the kernel-parity CI step diff :func:`batch_cycle_timings`
    against this path bit for bit; production code should call
    :func:`cycle_timings`.
    """
    inputs = np.asarray(inputs, dtype=bool)
    total = inputs.shape[1]
    if total < 2:
        raise ValueError("need at least two input vectors")
    if chunk < 1:
        raise ValueError("chunk must be positive")

    out_ids = circuit.output_ids
    t_late = np.empty(total - 1, dtype=np.float32)
    t_early = np.empty(total - 1, dtype=np.float32)
    toggles = np.empty(total - 1, dtype=np.int32)

    start = 0
    while start < total - 1:
        stop = min(start + chunk, total - 1)
        window = inputs[:, start : stop + 1]
        values = evaluate_logic(circuit, window)
        late, early = _reference_arrivals(circuit, values, delays)
        out_late = late[out_ids].max(axis=0)
        out_early = early[out_ids].min(axis=0)
        out_toggled = (values[out_ids, 1:] != values[out_ids, :-1]).sum(axis=0)
        t_late[start:stop] = np.where(np.isfinite(out_late), out_late, 0.0)
        t_early[start:stop] = out_early
        toggles[start:stop] = out_toggled
        start = stop

    return CycleTimings(t_late=t_late, t_early=t_early, output_toggles=toggles)


def single_transition_arrivals(
    circuit: LevelizedCircuit,
    vector_prev: np.ndarray,
    vector_curr: np.ndarray,
    delays: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node-resolved arrivals for one or many vector pairs.

    ``vector_prev``/``vector_curr`` are either two ``(num_inputs,)``
    vectors or two ``(num_inputs, E)`` matrices whose column ``e`` is
    one (prev, curr) pair.  Returns ``(late, early, toggled)`` arrays
    over all nodes -- ``(num_nodes,)`` for a single pair,
    ``(num_nodes, E)`` for E pairs; used by the choke-path trace-back,
    which needs per-node (not aggregate) timing.

    The E pairs are interleaved into one 2E-column stream, so logic
    evaluation and arrival propagation run once for all of them; the
    even transitions are the pairs (the odd ones, curr_e -> prev_e+1,
    are discarded).  Each column is elementwise work, so column ``e`` is
    bit-identical to timing pair ``e`` on its own.
    """
    prev = np.asarray(vector_prev, dtype=bool)
    curr = np.asarray(vector_curr, dtype=bool)
    single = prev.ndim == 1
    if single:
        prev, curr = prev[:, None], curr[:, None]
    pairs = prev.shape[1]
    obs.inc("dta.single_transitions", pairs)
    inputs = np.empty((prev.shape[0], 2 * pairs), dtype=bool)
    inputs[:, 0::2] = prev
    inputs[:, 1::2] = curr
    values = evaluate_logic(circuit, inputs)
    late, early = _propagate_arrivals(circuit, values, delays)
    late, early = late[:, 0::2], early[:, 0::2]
    toggled = values[:, 1::2] != values[:, 0::2]
    if single:
        return late[:, 0], early[:, 0], toggled[:, 0]
    return late, early, toggled
