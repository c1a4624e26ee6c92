"""MRRG analysis: statistics, reachability and dead-resource pruning."""

from __future__ import annotations

import dataclasses
from collections import deque

from ..dfg.opcodes import OpCode
from .graph import MRRG


@dataclasses.dataclass(frozen=True)
class MRRGStats:
    """Size summary of an MRRG."""

    ii: int
    num_nodes: int
    num_edges: int
    num_function: int
    num_route: int
    ops_histogram: dict[OpCode, int]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MRRG ii={self.ii}: {self.num_nodes} nodes "
            f"({self.num_function} FU / {self.num_route} route), "
            f"{self.num_edges} edges"
        )


def stats(mrrg: MRRG) -> MRRGStats:
    """Compute :class:`MRRGStats`."""
    histogram: dict[OpCode, int] = {}
    num_function = 0
    for node in mrrg.nodes:
        if node.is_function:
            num_function += 1
            for op in node.ops or ():
                histogram[op] = histogram.get(op, 0) + 1
    return MRRGStats(
        ii=mrrg.ii,
        num_nodes=len(mrrg),
        num_edges=mrrg.num_edges(),
        num_function=num_function,
        num_route=len(mrrg) - num_function,
        ops_histogram=histogram,
    )


def prune(mrrg: MRRG) -> MRRG:
    """Remove RouteRes nodes that can never carry a mapped value.

    A route node is dead when it cannot be reached from any functional
    unit's output (nothing can drive it) or cannot reach any functional
    unit's operand port (constraint (5) of the formulation forbids routes
    from stopping anywhere else).  Removal iterates to a fixed point via
    forward/backward reachability.  Returns a new, pruned MRRG.
    """
    # The node list is read directly: the unpruned graph is discarded, so
    # building its query index would be wasted work.
    units = [node.node_id for node in mrrg.nodes if node.is_function]
    forward: set[str] = set(units)
    queue: deque[str] = deque(units)
    while queue:
        current = queue.popleft()
        for nxt in mrrg.fanouts(current):
            if nxt not in forward:
                forward.add(nxt)
                queue.append(nxt)

    backward: set[str] = set(units)
    queue.extend(units)
    while queue:
        current = queue.popleft()
        for prev in mrrg.fanins(current):
            if prev not in backward:
                backward.add(prev)
                queue.append(prev)

    keep = {
        node.node_id
        for node in mrrg.nodes
        if node.is_function
        or (node.node_id in forward and node.node_id in backward)
    }
    return mrrg.subgraph(keep)
