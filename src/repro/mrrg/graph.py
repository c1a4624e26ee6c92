"""Modulo Routing Resource Graph (MRRG) data structure.

The MRRG (paper section 3.2) is a directed graph with two vertex kinds:

* **FuncUnit** nodes — execution time-slots of physical functional units;
* **RouteRes** nodes — wires, multiplexers and registers at a time-slot.

The graph contains a replica of the device model per context; edges whose
endpoints live in different contexts model values crossing cycles
(registers, multi-cycle functional units), wrapping modulo the initiation
interval.  :meth:`MRRG.rotation_period` proves which context shifts map
the built graph onto itself, and :meth:`MRRG.unit_orbits` groups the
functional units under every automorphism found (DESIGN.md section 5.8).

Every mapping layer reads the same few facts off the graph; :class:`MRRG`
derives them once per graph, in a query index (DESIGN.md section 9.3).
"""

from __future__ import annotations

import dataclasses
import enum
from collections import deque
from collections.abc import Iterable, Iterator

from ..dfg.opcodes import OpCode
from . import symmetry


class MRRGError(ValueError):
    """Raised for invalid MRRG construction or queries."""


class NodeKind(enum.Enum):
    """Vertex kind: functional-unit slot or routing resource."""

    FUNCTION = "function"
    ROUTE = "route"


@dataclasses.dataclass
class MRRGNode:
    """One MRRG vertex.

    Attributes:
        node_id: unique id, ``"c<ctx>:<primitive path>.<tag>"``.
        kind: FUNCTION or ROUTE.
        context: the context (cycle slot) the node belongs to.
        path: hierarchical path of the originating primitive.
        tag: role within the primitive ("in0", "mux", "out", "fu", ...).
        ops: supported opcodes (FUNCTION nodes only).
        operand: for ROUTE nodes that are FU operand ports, the operand
            index they feed; None otherwise.
        fu: for FU operand-port ROUTE nodes, the id of the FUNCTION node
            they feed; None otherwise.
        operand_ports: for FUNCTION nodes, operand index -> port node id.
        output: for FUNCTION nodes, the id of the output ROUTE node.
    """

    node_id: str
    kind: NodeKind
    context: int
    path: str
    tag: str
    ops: frozenset[OpCode] | None = None
    operand: int | None = None
    fu: str | None = None
    operand_ports: dict[int, str] = dataclasses.field(default_factory=dict)
    output: str | None = None

    @property
    def is_function(self) -> bool:
        return self.kind is NodeKind.FUNCTION

    @property
    def is_route(self) -> bool:
        return self.kind is NodeKind.ROUTE

    def supports(self, opcode: OpCode) -> bool:
        return self.kind is NodeKind.FUNCTION and opcode in (self.ops or ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MRRGNode({self.node_id!r}, {self.kind.value})"


def node_id(context: int, path: str, tag: str) -> str:
    """Canonical node id format."""
    return f"c{context}:{path}.{tag}"


class _QueryIndex:
    """What the queries of one graph state derive, computed once.

    Adjacency and node tuples are built up front; the per-opcode,
    per-start-set, register-input, rotation-period and unit-orbit entries
    are memoized on first ask.
    """

    __slots__ = (
        "function_nodes", "route_nodes", "route_fanouts", "route_fanins",
        "supporting", "capable", "forward", "backward", "register_inputs",
        "rotation_period", "unit_orbits",
    )

    def __init__(
        self,
        nodes: dict[str, MRRGNode],
        fanouts: dict[str, list[str]],
        fanins: dict[str, list[str]],
    ):
        self.function_nodes = tuple(n for n in nodes.values() if n.is_function)
        self.route_nodes = tuple(n for n in nodes.values() if n.is_route)
        route = {n.node_id for n in self.route_nodes}
        self.route_fanouts = {
            nid: tuple([m for m in dsts if m in route])
            for nid, dsts in fanouts.items()
        }
        self.route_fanins = {
            nid: tuple([m for m in srcs if m in route])
            for nid, srcs in fanins.items()
        }
        self.supporting: dict[OpCode, tuple[MRRGNode, ...]] = {}
        self.capable: dict[tuple[OpCode, bool], tuple[MRRGNode, ...]] = {}
        self.forward: dict[frozenset[str], set[str]] = {}
        self.backward: dict[frozenset[str], set[str]] = {}
        self.register_inputs: frozenset[str] | None = None
        self.rotation_period: int | None = None
        self.unit_orbits: dict[str, str] | None = None


def _bfs(
    starts: Iterable[str], adjacency: dict[str, tuple[str, ...]]
) -> set[str]:
    """``starts`` plus every node reachable from them through ``adjacency``."""
    seen = set(starts)
    queue = deque(seen)
    while queue:
        for nxt in adjacency[queue.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


class MRRG:
    """The modulo routing resource graph.

    Queries read a private index built on the first one and dropped by
    :meth:`add_node`, :meth:`add_edge` and :meth:`remove_node`.  Node
    attributes (``ops``, ``output``, ``operand_ports``...) are set while
    the graph is built, before the first query, and the three mutators
    are the only edits: an attribute changed in place later is not seen.
    :meth:`copy`, :meth:`subgraph` and
    :func:`~repro.mrrg.analysis.prune` return fresh graphs with fresh
    indexes.
    """

    def __init__(self, name: str, ii: int):
        if ii < 1:
            raise MRRGError("initiation interval must be >= 1")
        self.name = name
        self.ii = ii
        self._nodes: dict[str, MRRGNode] = {}
        self._fanouts: dict[str, list[str]] = {}
        self._fanins: dict[str, list[str]] = {}
        self._index: _QueryIndex | None = None

    def _query(self) -> _QueryIndex:
        """The query index of the current graph, built on first use."""
        if self._index is None:
            self._index = _QueryIndex(self._nodes, self._fanouts, self._fanins)
        return self._index

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: MRRGNode) -> MRRGNode:
        if node.node_id in self._nodes:
            raise MRRGError(f"duplicate MRRG node {node.node_id!r}")
        if not 0 <= node.context < self.ii:
            raise MRRGError(
                f"node {node.node_id!r} context {node.context} outside II={self.ii}"
            )
        self._nodes[node.node_id] = node
        self._fanouts[node.node_id] = []
        self._fanins[node.node_id] = []
        self._index = None
        return node

    def add_edge(self, src: str, dst: str) -> None:
        if src not in self._nodes:
            raise MRRGError(f"edge source {src!r} does not exist")
        if dst not in self._nodes:
            raise MRRGError(f"edge target {dst!r} does not exist")
        if self._nodes[src].is_function and self._nodes[dst].is_function:
            raise MRRGError(f"illegal FuncUnit->FuncUnit edge {src!r} -> {dst!r}")
        if dst in self._fanouts[src]:
            raise MRRGError(f"duplicate edge {src!r} -> {dst!r}")
        self._fanouts[src].append(dst)
        self._fanins[dst].append(src)
        self._index = None

    def remove_node(self, node_id_: str) -> None:
        """Remove a node and all incident edges."""
        self.node(node_id_)  # raise if absent
        for dst in self._fanouts.pop(node_id_):
            self._fanins[dst].remove(node_id_)
        for src in self._fanins.pop(node_id_):
            self._fanouts[src].remove(node_id_)
        del self._nodes[node_id_]
        self._index = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, node_id_: str) -> bool:
        return node_id_ in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, node_id_: str) -> MRRGNode:
        try:
            return self._nodes[node_id_]
        except KeyError:
            raise MRRGError(f"no MRRG node {node_id_!r}") from None

    @property
    def nodes(self) -> Iterator[MRRGNode]:
        return iter(self._nodes.values())

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    def fanouts(self, node_id_: str) -> tuple[str, ...]:
        return tuple(self._fanouts[node_id_])

    def fanins(self, node_id_: str) -> tuple[str, ...]:
        return tuple(self._fanins[node_id_])

    def route_fanouts(self, node_id_: str) -> tuple[str, ...]:
        """The route-node fan-outs of a node, in fan-out order."""
        return self._query().route_fanouts[node_id_]

    def route_fanins(self, node_id_: str) -> tuple[str, ...]:
        """The route-node fan-ins of a node, in fan-in order."""
        return self._query().route_fanins[node_id_]

    def function_nodes(self) -> tuple[MRRGNode, ...]:
        """Every FuncUnit node, in insertion order."""
        return self._query().function_nodes

    def route_nodes(self) -> tuple[MRRGNode, ...]:
        """Every RouteRes node, in insertion order."""
        return self._query().route_nodes

    def function_nodes_supporting(self, opcode: OpCode) -> tuple[MRRGNode, ...]:
        """The FuncUnit nodes whose op set holds ``opcode``, in order."""
        index = self._query()
        held = index.supporting.get(opcode)
        if held is None:
            held = index.supporting[opcode] = tuple(
                n for n in index.function_nodes if n.supports(opcode)
            )
        return held

    def capable_units(
        self, opcode: OpCode, needs_output: bool
    ) -> tuple[MRRGNode, ...]:
        """The units that may host an op: the candidate rule, written once.

        A unit qualifies when it supports ``opcode``, has an output node
        when ``needs_output`` (the op produces a value), and has an
        operand port for every operand index ``0 .. arity-1``.  In
        insertion order; memoized per ``(opcode, needs_output)``.
        """
        index = self._query()
        key = (opcode, needs_output)
        held = index.capable.get(key)
        if held is None:
            operands = range(opcode.arity)
            held = index.capable[key] = tuple(
                fu
                for fu in self.function_nodes_supporting(opcode)
                if not (needs_output and fu.output is None)
                and all(o in fu.operand_ports for o in operands)
            )
        return held

    def forward_reach(self, starts: Iterable[str]) -> set[str]:
        """``starts`` plus every node reachable through route fan-outs.

        Memoized by ``frozenset(starts)``: the set returned is the memo
        itself, shared by every caller, and must not be mutated.
        """
        index = self._query()
        key = frozenset(starts)
        held = index.forward.get(key)
        if held is None:
            held = index.forward[key] = _bfs(key, index.route_fanouts)
        return held

    def backward_reach(self, starts: Iterable[str]) -> set[str]:
        """``starts`` plus every node reaching one through route fan-ins
        (memoized and shared as :meth:`forward_reach`)."""
        index = self._query()
        key = frozenset(starts)
        held = index.backward.get(key)
        if held is None:
            held = index.backward[key] = _bfs(key, index.route_fanins)
        return held

    def num_edges(self) -> int:
        return sum(len(v) for v in self._fanouts.values())

    def edges(self) -> Iterator[tuple[str, str]]:
        for src, dsts in self._fanouts.items():
            for dst in dsts:
                yield (src, dst)

    def register_inputs(self) -> frozenset[str]:
        """Route nodes that latch a register: the ``in`` of an in->out pair.

        Mirrors the :class:`~repro.mapper.simulate.FabricSimulator`
        register rule: an edge from an ``in``-tagged route node to an
        ``out``-tagged route node of the same primitive path crosses a
        register boundary.  Memoized in the query index.
        """
        index = self._query()
        if index.register_inputs is None:
            nodes = self._nodes
            index.register_inputs = frozenset(
                node.node_id
                for node in index.route_nodes
                if node.tag == "in"
                and any(
                    nodes[m].tag == "out" and nodes[m].path == node.path
                    for m in index.route_fanouts[node.node_id]
                )
            )
        return index.register_inputs

    def rotation_period(self) -> int:
        """The smallest context shift that maps this graph onto itself.

        Returns the smallest ``s >= 1`` dividing II for which
        :meth:`context_shift` is an automorphism (see
        :meth:`is_automorphism`), or II when no proper shift is one (so 1
        at II=1).  The proof runs on this graph, never on the
        architecture it came from: an unpipelined unit or a pruned node
        breaks the symmetry it would suggest.

        Memoized in the query index, so the three mutators reset it.
        """
        index = self._query()
        if index.rotation_period is None:
            index.rotation_period = next(
                (
                    shift
                    for shift in range(1, self.ii)
                    if self.ii % shift == 0
                    and self.is_automorphism(self.context_shift(shift))
                ),
                self.ii,
            )
        return index.rotation_period

    def context_shift(self, shift: int) -> dict[str, str]:
        """The node map ``node_id(c, path, tag) -> node_id((c + shift) % II,
        path, tag)``: an automorphism only where the graph proves it."""
        ii = self.ii
        return {
            nid: node_id((node.context + shift) % ii, node.path, node.tag)
            for nid, node in self._nodes.items()
        }

    def unit_orbits(self) -> dict[str, str]:
        """Each FuncUnit node's orbit representative under the graph's
        automorphisms.

        The group is generated by the proven context shift and the maps
        that colour refinement with individualisation finds and
        :meth:`is_automorphism` accepts (:mod:`repro.mrrg.symmetry`).  The
        representative is the member with the lowest context, then the
        earliest inserted.  A budget-bounded search may miss a twin, which
        only leaves an orbit split.  Memoized in the query index, so the
        three mutators reset it.
        """
        index = self._query()
        if index.unit_orbits is None:
            index.unit_orbits = symmetry.search(self)[1]
        return index.unit_orbits

    def is_automorphism(self, image: dict[str, str]) -> bool:
        """Whether the node map ``image`` maps this graph onto itself, in
        every fact the ILP formulation reads.

        Every node needs an image with the same kind, ops and operand, and
        no two nodes may share an image; ``fu``, ``output`` and
        ``operand_ports`` must map onto the image's; the image's fanouts
        must be exactly the images of the node's fanouts; and a register
        input (:meth:`register_inputs`) must map onto one.  Paths, tags
        and contexts may differ.
        """
        nodes = self._nodes
        if len(image) != len(nodes) or len(set(image.values())) != len(image):
            return False

        def mapped(ref: str | None) -> str | None:
            # A dangling reference has no image and matches nothing.
            return None if ref is None else image.get(ref, "")

        fanouts = self._fanouts
        registers = self.register_inputs()
        for nid, node in nodes.items():
            twin_id = image.get(nid, "")
            twin = nodes.get(twin_id)
            if (
                twin is None
                or twin.kind is not node.kind
                or twin.ops != node.ops
                or twin.operand != node.operand
                or twin.fu != mapped(node.fu)
                or twin.output != mapped(node.output)
                or twin.operand_ports
                != {i: mapped(p) for i, p in node.operand_ports.items()}
                or set(fanouts[twin_id]) != {image.get(m) for m in fanouts[nid]}
                or (twin_id in registers) != (nid in registers)
            ):
                return False
        return True

    def copy(self) -> "MRRG":
        clone = MRRG(self.name, self.ii)
        for node in self._nodes.values():
            clone.add_node(dataclasses.replace(
                node, operand_ports=dict(node.operand_ports)
            ))
        for src, dst in self.edges():
            clone.add_edge(src, dst)
        return clone

    def subgraph(self, keep: Iterable[str]) -> "MRRG":
        """Induced subgraph on ``keep`` (drops dangling FU port references)."""
        keep_set = set(keep)
        clone = MRRG(self.name, self.ii)
        for nid in self._nodes:
            if nid not in keep_set:
                continue
            node = self._nodes[nid]
            replacement = dataclasses.replace(
                node,
                operand_ports={
                    op: pid
                    for op, pid in node.operand_ports.items()
                    if pid in keep_set
                },
                output=node.output if node.output in keep_set else None,
                fu=node.fu if node.fu in keep_set else None,
            )
            clone.add_node(replacement)
        for src, dst in self.edges():
            if src in keep_set and dst in keep_set:
                clone.add_edge(src, dst)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MRRG({self.name!r}, ii={self.ii}, nodes={len(self._nodes)}, "
            f"edges={self.num_edges()})"
        )
