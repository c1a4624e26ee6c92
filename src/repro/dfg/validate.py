"""Structural validation of DFGs.

A DFG is mappable only if it is *well-formed*:

* every operand slot of every op is connected;
* the graph restricted to forward (non-back) edges is acyclic;
* every produced value is consumed by at least one sink (a dangling value
  has no routing obligation and usually indicates a benchmark bug);
* sink ops (OUTPUT/STORE) terminate chains.

:func:`check` returns a list of human-readable issues; :func:`assert_valid`
raises on the first problem.
"""

from __future__ import annotations

from .graph import DFG


class DFGValidationError(ValueError):
    """Raised by :func:`assert_valid` when a DFG is not well-formed."""

    def __init__(self, issues: list[str]):
        super().__init__("; ".join(issues))
        self.issues = issues


def check(dfg: DFG, allow_dangling: bool = False) -> list[str]:
    """Collect structural problems of ``dfg`` (empty list = valid).

    Args:
        dfg: graph to check.
        allow_dangling: skip the produced-but-unused value check (useful
            while a graph is under construction).
    """
    issues: list[str] = []
    if len(dfg) == 0:
        issues.append("DFG has no operations")
        return issues

    consumed: set[str] = set()
    for op in dfg.ops:
        for idx, producer in enumerate(op.operands):
            if producer is None:
                issues.append(f"operand {idx} of {op.name!r} is unconnected")
            else:
                consumed.add(producer)

    if not allow_dangling:
        for op in dfg.ops:
            if op.opcode.produces_value and op.name not in consumed:
                issues.append(f"value of {op.name!r} is never consumed")

    children: dict[str, list[str]] = {op.name: [] for op in dfg.ops}
    for edge in dfg.edges():
        if not edge.back:
            children[edge.src].append(edge.dst)
    cycle = _first_cycle(children)
    if cycle is not None:
        path = " -> ".join(cycle)
        issues.append(f"forward-edge cycle (missing back-edge flag?): {path}")

    for op in dfg.ops:
        for idx, producer in enumerate(op.operands):
            if producer is not None and op.operand_is_back_edge(idx):
                # A back-edge must actually close a cycle; otherwise the flag
                # needlessly weakens validation.
                if producer != op.name and not (
                    op.name in _descendants(children, producer)
                    or producer in _descendants(children, op.name)
                ):
                    issues.append(
                        f"back-edge {producer!r} -> {op.name!r} does not "
                        "close a forward path"
                    )
    return issues


def _first_cycle(children: dict[str, list[str]]) -> list[str] | None:
    """The first cycle a depth-first search meets, as ``a -> ... -> a``
    nodes (roots in op order, children in edge order, as networkx's
    ``find_cycle`` walks them); None when the graph is acyclic."""
    finished: set[str] = set()
    for root in children:
        if root in finished:
            continue
        path = [root]
        on_path = {root}
        pending = [iter(children[root])]
        while pending:
            child = next(pending[-1], None)
            if child is None:
                pending.pop()
                finished.add(path[-1])
                on_path.discard(path.pop())
            elif child in on_path:
                return path[path.index(child):] + [child]
            elif child not in finished:
                path.append(child)
                on_path.add(child)
                pending.append(iter(children[child]))
    return None


def _descendants(children: dict[str, list[str]], start: str) -> set[str]:
    """Every node reachable from ``start`` through ``children``."""
    seen: set[str] = set()
    stack = [start]
    while stack:
        for child in children[stack.pop()]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def assert_valid(dfg: DFG, allow_dangling: bool = False) -> None:
    """Raise :class:`DFGValidationError` if ``dfg`` is not well-formed."""
    issues = check(dfg, allow_dangling=allow_dangling)
    if issues:
        raise DFGValidationError(issues)
