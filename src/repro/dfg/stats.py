"""Benchmark characteristics in the style of the paper's Table 1."""

from __future__ import annotations

import dataclasses

from .graph import DFG
from .opcodes import OpCode


@dataclasses.dataclass(frozen=True)
class DFGStats:
    """Structural characteristics of a DFG.

    The first three fields are exactly the columns of Table 1:

    Attributes:
        ios: number of INPUT/OUTPUT operations ("I/Os").
        internal_ops: non-I/O operations, including LOAD/STORE
            ("Operations").
        multiplies: number of MUL operations ("# Multiplies").
        values: number of consumed values.
        edges: number of data edges (including back-edges).
        back_edges: number of loop-carried edges.
        max_fanout: largest sink count of any value.
        depth: longest forward path in operations (a lower bound on any
            spatial mapping's route depth).
    """

    ios: int
    internal_ops: int
    multiplies: int
    values: int
    edges: int
    back_edges: int
    max_fanout: int
    depth: int

    @property
    def total_ops(self) -> int:
        """All operations, I/O included (what the mapper must place)."""
        return self.ios + self.internal_ops


def compute(dfg: DFG) -> DFGStats:
    """Compute :class:`DFGStats` for a DFG."""
    ios = sum(1 for op in dfg.ops if op.opcode.is_io)
    internal = sum(1 for op in dfg.ops if op.opcode.is_internal)
    multiplies = sum(1 for op in dfg.ops if op.opcode is OpCode.MUL)
    vals = dfg.values()
    all_edges = list(dfg.edges())
    back = sum(1 for e in all_edges if e.back)
    max_fanout = max((v.fanout for v in vals), default=0)
    depth = sum(1 for _ in dfg.generations())
    return DFGStats(
        ios=ios,
        internal_ops=internal,
        multiplies=multiplies,
        values=len(vals),
        edges=len(all_edges),
        back_edges=back,
        max_fanout=max_fanout,
        depth=depth,
    )
