"""Data-flow graph (DFG) container.

A DFG is a directed graph whose vertices are operations and whose edges are
data dependencies (paper section 3.1).  Loop-carried dependencies are
captured as *back-edges*: ordinary data edges flagged so that validation and
depth analysis can treat the graph as a DAG plus feedback arcs.

The mapper-facing view of a DFG is in terms of *values* and *sinks*:

* every operation whose opcode produces a value defines one :class:`Value`;
* each use of that value at a consumer operand is one :class:`Sink`
  (the paper's *sub-value*: "a source to sink connection in a multi-fanout
  value").
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from typing import TYPE_CHECKING

from .opcodes import OpCode

if TYPE_CHECKING:
    import networkx


class DFGError(ValueError):
    """Raised for structurally invalid DFG manipulations."""


@dataclasses.dataclass(frozen=True)
class Sink:
    """One consumption point of a value: an operand slot of a consumer op."""

    op: str
    operand: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.op}[{self.operand}]"


@dataclasses.dataclass(frozen=True)
class Edge:
    """A data dependency from the value of ``src`` into ``dst``'s operand."""

    src: str
    dst: str
    operand: int
    back: bool = False


class Operation:
    """A vertex of the DFG.

    Attributes:
        name: unique identifier within the graph.
        opcode: the operation kind.
    """

    __slots__ = ("name", "opcode", "_operands")

    def __init__(self, name: str, opcode: OpCode):
        self.name = name
        self.opcode = opcode
        # One slot per operand; filled with (producer name, back flag).
        self._operands: list[tuple[str, bool] | None] = [None] * opcode.arity

    @property
    def operands(self) -> tuple[str | None, ...]:
        """Producer names per operand slot (``None`` where unconnected)."""
        return tuple(entry[0] if entry else None for entry in self._operands)

    def operand_is_back_edge(self, index: int) -> bool:
        entry = self._operands[index]
        return bool(entry and entry[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Operation({self.name!r}, {self.opcode})"


class Value:
    """The result of a producing operation together with its sinks."""

    __slots__ = ("producer", "sinks")

    def __init__(self, producer: str, sinks: tuple[Sink, ...]):
        self.producer = producer
        self.sinks = sinks

    @property
    def fanout(self) -> int:
        return len(self.sinks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Value({self.producer!r}, fanout={self.fanout})"


class DFG:
    """A named data-flow graph of operations and data dependencies."""

    def __init__(self, name: str = "dfg"):
        if not name:
            raise DFGError("DFG name must be non-empty")
        self.name = name
        self._ops: dict[str, Operation] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_op(self, name: str, opcode: OpCode | str) -> Operation:
        """Add an operation vertex.

        Args:
            name: unique operation name.
            opcode: an :class:`OpCode` or its mnemonic.

        Raises:
            DFGError: if the name is empty or already used.
        """
        if not name:
            raise DFGError("operation name must be non-empty")
        if name in self._ops:
            raise DFGError(f"duplicate operation name {name!r}")
        if isinstance(opcode, str):
            opcode = OpCode.from_name(opcode)
        op = Operation(name, opcode)
        self._ops[name] = op
        return op

    def connect(self, src: str, dst: str, operand: int, back: bool = False) -> None:
        """Connect the value produced by ``src`` into ``dst``'s operand slot.

        Args:
            src: producer operation name.
            dst: consumer operation name.
            operand: operand index at the consumer.
            back: mark the edge as loop-carried (a DFG back-edge).

        Raises:
            DFGError: for unknown ops, non-producing sources, bad operand
                indices or already-connected slots.
        """
        src_op = self._require(src)
        dst_op = self._require(dst)
        if not src_op.opcode.produces_value:
            raise DFGError(f"{src!r} ({src_op.opcode}) produces no value")
        if not 0 <= operand < dst_op.opcode.arity:
            raise DFGError(
                f"operand index {operand} out of range for {dst!r} "
                f"({dst_op.opcode}, arity {dst_op.opcode.arity})"
            )
        if dst_op._operands[operand] is not None:
            raise DFGError(f"operand {operand} of {dst!r} is already connected")
        dst_op._operands[operand] = (src, back)

    def disconnect(self, dst: str, operand: int) -> None:
        """Clear a previously connected operand slot."""
        dst_op = self._require(dst)
        if not 0 <= operand < dst_op.opcode.arity:
            raise DFGError(f"operand index {operand} out of range for {dst!r}")
        dst_op._operands[operand] = None

    def remove_op(self, name: str) -> None:
        """Remove an operation and disconnect all uses of its value."""
        self._require(name)
        del self._ops[name]
        for op in self._ops.values():
            for idx, entry in enumerate(op._operands):
                if entry and entry[0] == name:
                    op._operands[idx] = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _require(self, name: str) -> Operation:
        try:
            return self._ops[name]
        except KeyError:
            raise DFGError(f"no operation named {name!r} in DFG {self.name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def op(self, name: str) -> Operation:
        """Look up an operation by name (raises :class:`DFGError` if absent)."""
        return self._require(name)

    @property
    def ops(self) -> tuple[Operation, ...]:
        """All operations in insertion order."""
        return tuple(self._ops.values())

    @property
    def op_names(self) -> tuple[str, ...]:
        return tuple(self._ops)

    def edges(self) -> Iterator[Edge]:
        """Iterate all connected data edges."""
        for op in self._ops.values():
            for idx, entry in enumerate(op._operands):
                if entry is not None:
                    src, back = entry
                    yield Edge(src=src, dst=op.name, operand=idx, back=back)

    def values(self) -> tuple[Value, ...]:
        """All values with at least one sink, in producer insertion order.

        A produced-but-unused value has no routing obligation and therefore
        does not appear here; validation flags such dangling values.
        """
        # Straight from the operand slots, in :meth:`edges` order, without
        # an Edge per slot: screens and builds call this per request.
        sinks: dict[str, list[Sink]] = {}
        for op in self._ops.values():
            for idx, entry in enumerate(op._operands):
                if entry is not None:
                    sinks.setdefault(entry[0], []).append(Sink(op.name, idx))
        return tuple(
            Value(name, tuple(sinks[name])) for name in self._ops if name in sinks
        )

    def value_of(self, producer: str) -> Value:
        """The value produced by ``producer`` (raises if it has no sinks)."""
        for value in self.values():
            if value.producer == producer:
                return value
        raise DFGError(f"operation {producer!r} produces no consumed value")

    def consumers(self, name: str) -> tuple[str, ...]:
        """Names of operations consuming ``name``'s value (with duplicates)."""
        self._require(name)
        return tuple(e.dst for e in self.edges() if e.src == name)

    def producers(self, name: str) -> tuple[str | None, ...]:
        """Producer per operand slot of ``name``."""
        return self._require(name).operands

    def ops_by_opcode(self, *opcodes: OpCode) -> tuple[Operation, ...]:
        wanted = set(opcodes)
        return tuple(op for op in self._ops.values() if op.opcode in wanted)

    def generations(self) -> Iterator[list[str]]:
        """Topological generations of the forward (non-back) edges.

        A generation holds the ops whose forward producers all lie in
        earlier ones, so an op's generation is its longest forward path
        from a root.  The order is networkx 3.6's
        ``topological_generations`` on :meth:`to_networkx`: roots in op
        order, then each op's children in the order of its first forward
        edge to them, parallel edges counted.

        Raises:
            DFGError: after the last generation, when forward edges form
                a cycle.
        """
        indegree = dict.fromkeys(self._ops, 0)
        children: dict[str, dict[str, int]] = {name: {} for name in self._ops}
        for edge in self.edges():
            if not edge.back:
                indegree[edge.dst] += 1
                fanout = children[edge.src]
                fanout[edge.dst] = fanout.get(edge.dst, 0) + 1
        generation = [name for name, count in indegree.items() if count == 0]
        placed = 0
        while generation:
            yield generation
            placed += len(generation)
            following = []
            for name in generation:
                for child, count in children[name].items():
                    indegree[child] -= count
                    if indegree[child] == 0:
                        following.append(child)
            generation = following
        if placed < len(self._ops):
            raise DFGError(f"forward edges of DFG {self.name!r} form a cycle")

    # ------------------------------------------------------------------
    # conversions / comparisons
    # ------------------------------------------------------------------
    def to_networkx(self, include_back_edges: bool = True) -> networkx.MultiDiGraph:
        """Export as a :class:`networkx.MultiDiGraph`.

        Node attribute ``opcode`` carries the :class:`OpCode`; edge
        attributes carry ``operand`` and ``back``.
        """
        import networkx as nx  # here, so that importing repro does not load it

        graph = nx.MultiDiGraph(name=self.name)
        for op in self._ops.values():
            graph.add_node(op.name, opcode=op.opcode)
        for edge in self.edges():
            if edge.back and not include_back_edges:
                continue
            graph.add_edge(edge.src, edge.dst, operand=edge.operand, back=edge.back)
        return graph

    def copy(self, name: str | None = None) -> "DFG":
        """Deep-copy the graph, optionally renaming it."""
        clone = DFG(name or self.name)
        for op in self._ops.values():
            clone.add_op(op.name, op.opcode)
        for edge in self.edges():
            clone.connect(edge.src, edge.dst, edge.operand, back=edge.back)
        return clone

    def structurally_equal(self, other: "DFG") -> bool:
        """Name-for-name structural equality (ops, opcodes and edges)."""
        if set(self._ops) != set(other._ops):
            return False
        for name, op in self._ops.items():
            other_op = other._ops[name]
            if op.opcode is not other_op.opcode:
                return False
            if op._operands != other_op._operands:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DFG({self.name!r}, ops={len(self._ops)})"
