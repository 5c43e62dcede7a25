"""Vectorised boolean evaluation of a levelised circuit.

Evaluates every node's logic value for a whole batch of input vectors at
once, group by group over the circuit's
:class:`~repro.timing.levelize.RowPlan` -- the same row order the
arrival propagation walks -- so each group's output is a slice.
Semantics must agree with the scalar reference
:func:`repro.gates.celllib.evaluate_gate` (property-tested).
"""

from __future__ import annotations

import numpy as np

from repro.gates.celllib import GateKind
from repro.timing.levelize import LevelizedCircuit, PlanGroup


def _evaluate_group(values: np.ndarray, group: PlanGroup) -> None:
    """Compute one plan group's rows in place from its fanin rows."""
    kind = group.kind
    a = values[group.fanins[0]]
    if kind is GateKind.BUF or kind is GateKind.DBUF:
        result = a
    elif kind is GateKind.INV:
        result = ~a
    else:
        b = values[group.fanins[1]]
        if kind is GateKind.AND2:
            result = a & b
        elif kind is GateKind.OR2:
            result = a | b
        elif kind is GateKind.NAND2:
            result = ~(a & b)
        elif kind is GateKind.NOR2:
            result = ~(a | b)
        elif kind is GateKind.XOR2:
            result = a ^ b
        elif kind is GateKind.XNOR2:
            result = ~(a ^ b)
        elif kind is GateKind.MUX2:
            sel = values[group.fanins[2]]
            result = np.where(sel, b, a)
        else:
            raise ValueError(f"cannot evaluate kind {kind!r}")
    values[group.start : group.stop] = result


def evaluate_logic(circuit: LevelizedCircuit, inputs: np.ndarray) -> np.ndarray:
    """Evaluate all nodes for a batch of input vectors.

    ``inputs`` has shape (num_primary_inputs, num_vectors), rows ordered
    like ``circuit.input_ids``.  Returns a boolean (num_nodes,
    num_vectors) matrix of node values, indexed by node id.  The work
    runs over the circuit's row plan and is un-permuted once at the end.
    """
    inputs = np.asarray(inputs, dtype=bool)
    if inputs.ndim != 2 or inputs.shape[0] != len(circuit.input_ids):
        raise ValueError(
            f"inputs must be ({len(circuit.input_ids)}, cycles), got {inputs.shape}"
        )
    plan = circuit.plan
    values = np.zeros((circuit.num_nodes, inputs.shape[1]), dtype=bool)
    values[: plan.num_inputs] = inputs
    values[plan.const1_rows] = True
    for group in plan.groups:
        _evaluate_group(values, group)
    return values[plan.row_of]


def output_values(circuit: LevelizedCircuit, values: np.ndarray) -> np.ndarray:
    """Extract the primary-output rows of a value matrix."""
    return values[circuit.output_ids]


def output_words(circuit: LevelizedCircuit, values: np.ndarray) -> np.ndarray:
    """Pack primary-output bits into unsigned integers per vector.

    Output ordering follows the netlist's output registration order, which
    for the ALU is LSB first.
    """
    bits = output_values(circuit, values)
    weights = np.left_shift(np.ones(bits.shape[0], dtype=np.uint64), np.arange(bits.shape[0], dtype=np.uint64))
    return (bits.astype(np.uint64) * weights[:, None]).sum(axis=0, dtype=np.uint64)
