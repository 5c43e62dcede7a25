"""Levelised circuit form for the vectorised logic/timing engines.

Nodes are grouped by (logic level, gate kind) so that each group can be
evaluated with a handful of numpy operations over all cycles at once.

Two views of the same ordering coexist:

* :class:`LevelGroup` / ``LevelizedCircuit.levels`` — the per-object
  view in node ids, walked by the exact reference propagation in
  :func:`repro.timing.dta.scalar_cycle_timings`.
* :class:`RowPlan` / ``LevelizedCircuit.plan`` — the row order the hot
  kernels (:func:`~repro.timing.logic_eval.evaluate_logic` and the
  arrival propagation) iterate.  Nodes are renumbered so that every
  group is one contiguous row range and fanins are row indices: a
  group's output is a slice written in place, not a scatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.gates.celllib import GateKind
from repro.gates.netlist import Netlist


@dataclass(frozen=True)
class LevelGroup:
    """All gates of one kind within one logic level."""

    kind: GateKind
    nodes: np.ndarray  # node ids, int32
    in0: np.ndarray
    in1: np.ndarray  # empty for 1-input kinds
    in2: np.ndarray  # empty unless MUX2

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class PlanGroup:
    """One (level, kind) group of a :class:`RowPlan`.

    The group's nodes own the contiguous rows ``start:stop``; ``fanins``
    holds one row-index array per gate input (``in0``, ``in1``, then
    the MUX2 select), aligned with those rows.
    """

    kind: GateKind
    start: int
    stop: int
    fanins: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class RowPlan:
    """The row order the logic and arrival kernels iterate.

    Row ``r`` holds node ``order[r]``; ``row_of`` is the inverse.  The
    first ``num_sources`` rows are the level-0 nodes, primary inputs
    first in ``input_ids`` order, then the constants.  Each
    :class:`PlanGroup` follows as one contiguous row range, level by
    level, so a kernel writes a group's output as a slice and reads its
    fanins, all in lower rows, by row index.  The plan is a pure
    reindexing of the netlist: it carries no per-chip data, so one plan
    drives the timing of a whole Monte Carlo population.
    """

    order: np.ndarray  # row -> node id, intp
    row_of: np.ndarray  # node id -> row, intp
    num_inputs: int
    num_sources: int
    const1_rows: np.ndarray
    groups: tuple[PlanGroup, ...]


def build_row_plan(circuit: LevelizedCircuit) -> RowPlan:
    """Lay ``circuit``'s nodes out in kernel row order."""
    input_ids = circuit.input_ids.astype(np.intp)
    is_source = circuit.node_levels == 0
    is_source[input_ids] = False
    sources = np.concatenate([input_ids, np.flatnonzero(is_source)])
    gates = [group for level in circuit.levels for group in level]
    order = np.concatenate([sources, *(group.nodes for group in gates)]).astype(np.intp)
    row_of = np.empty(circuit.num_nodes, dtype=np.intp)
    row_of[order] = np.arange(circuit.num_nodes, dtype=np.intp)

    groups: list[PlanGroup] = []
    start = len(sources)
    for group in gates:
        fanins = tuple(row_of[ids] for ids in (group.in0, group.in1, group.in2) if len(ids))
        groups.append(PlanGroup(group.kind, start, start + len(group), fanins))
        start += len(group)
    return RowPlan(
        order=order,
        row_of=row_of,
        num_inputs=len(input_ids),
        num_sources=len(sources),
        const1_rows=row_of[circuit.const1_ids],
        groups=tuple(groups),
    )


@dataclass
class LevelizedCircuit:
    """A netlist reorganised into per-level, per-kind gate groups."""

    netlist: Netlist
    num_nodes: int
    input_ids: np.ndarray
    output_ids: np.ndarray
    const0_ids: np.ndarray
    const1_ids: np.ndarray
    levels: list[list[LevelGroup]]  # levels[0] is the first *gate* level
    node_levels: np.ndarray

    @property
    def depth(self) -> int:
        """Number of gate levels."""
        return len(self.levels)

    @cached_property
    def plan(self) -> RowPlan:
        """The kernels' row plan (built on first use, then cached)."""
        return build_row_plan(self)


def levelize(netlist: Netlist) -> LevelizedCircuit:
    """Build the levelised form of ``netlist``."""
    node_levels = netlist.levels()
    kinds = [netlist.kind(node_id) for node_id in range(netlist.num_nodes)]

    input_ids = np.array(netlist.input_ids, dtype=np.int32)
    const0_ids = np.array(
        [i for i, kind in enumerate(kinds) if kind is GateKind.CONST0], dtype=np.int32
    )
    const1_ids = np.array(
        [i for i, kind in enumerate(kinds) if kind is GateKind.CONST1], dtype=np.int32
    )

    max_level = int(node_levels.max()) if netlist.num_nodes else 0
    levels: list[list[LevelGroup]] = []
    for level in range(1, max_level + 1):
        node_ids = np.flatnonzero(node_levels == level)
        by_kind: dict[GateKind, list[int]] = {}
        for node_id in node_ids:
            by_kind.setdefault(kinds[node_id], []).append(int(node_id))
        groups: list[LevelGroup] = []
        for kind, members in sorted(by_kind.items()):
            fanins = [netlist.fanins(node_id) for node_id in members]
            arity = len(fanins[0])
            in0 = np.array([f[0] for f in fanins], dtype=np.int32)
            in1 = (
                np.array([f[1] for f in fanins], dtype=np.int32)
                if arity > 1
                else np.array([], dtype=np.int32)
            )
            in2 = (
                np.array([f[2] for f in fanins], dtype=np.int32)
                if arity > 2
                else np.array([], dtype=np.int32)
            )
            groups.append(
                LevelGroup(
                    kind=kind,
                    nodes=np.array(members, dtype=np.int32),
                    in0=in0,
                    in1=in1,
                    in2=in2,
                )
            )
        levels.append(groups)

    return LevelizedCircuit(
        netlist=netlist,
        num_nodes=netlist.num_nodes,
        input_ids=input_ids,
        output_ids=np.array(netlist.output_ids, dtype=np.int32),
        const0_ids=const0_ids,
        const1_ids=const1_ids,
        levels=levels,
        node_levels=node_levels,
    )
