"""Independent mapping legality checker.

The verifier re-derives legality from first principles — it shares no code
with either mapper's constraint machinery, so a bug in a mapper cannot
silently vouch for itself.  Checks:

1. **Placement**: every op placed exactly once, on an existing FuncUnit
   node that supports its opcode; no two ops share a FuncUnit node.
2. **Routing connectivity**: every sub-value's route node set contains a
   directed path from the producer's output node to an operand port of the
   consumer's FuncUnit, using route nodes only.
3. **Operand correctness**: with strict operands, sub-value (q, o) must
   arrive at operand port ``o``; otherwise a perfect sink-to-port matching
   must exist per consumer (covers commutative-swap mappings and the
   ``x + x`` case needing both ports driven).
4. **Route exclusivity**: no route node carries two distinct values.
"""

from __future__ import annotations

from ..dfg.graph import Sink
from ..mrrg.graph import NodeKind
from .mapping import Mapping


def verify(mapping: Mapping, strict_operands: bool = False) -> list[str]:
    """Collect legality violations (empty list = legal mapping).

    Args:
        mapping: mapping to check.
        strict_operands: require sub-value (q, o) to land exactly on port
            ``o`` (the operand rule every mapper applies, DESIGN.md
            section 5.2).  When False, any consistent assignment of sinks
            to ports is accepted for commutative ops.
    """
    issues: list[str] = []
    dfg, mrrg = mapping.dfg, mapping.mrrg

    # 1. placement ------------------------------------------------------
    used_fus: dict[str, str] = {}
    for op in dfg.ops:
        fu_id = mapping.placement.get(op.name)
        if fu_id is None:
            issues.append(f"op {op.name!r} is not placed")
            continue
        if fu_id not in mrrg:
            issues.append(f"op {op.name!r} placed on missing node {fu_id!r}")
            continue
        node = mrrg.node(fu_id)
        if node.kind is not NodeKind.FUNCTION:
            issues.append(f"op {op.name!r} placed on non-FuncUnit node {fu_id!r}")
            continue
        if not node.supports(op.opcode):
            issues.append(
                f"op {op.name!r} ({op.opcode}) placed on {fu_id!r} which "
                f"does not support it"
            )
        if fu_id in used_fus:
            issues.append(
                f"FuncUnit {fu_id!r} hosts both {used_fus[fu_id]!r} and {op.name!r}"
            )
        else:
            used_fus[fu_id] = op.name

    # 2 & 3. routing ----------------------------------------------------
    arrivals: dict[str, dict[Sink, set[int]]] = {}
    for value in dfg.values():
        for sink in value.sinks:
            key = (value.producer, sink)
            route = mapping.routes.get(key)
            if route is None:
                issues.append(f"sub-value {value.producer}=>{sink} has no route")
                continue
            issues.extend(
                _check_route(mapping, value.producer, sink, route, arrivals)
            )

    for op in dfg.ops:
        per_sink = arrivals.get(op.name)
        if per_sink is None:
            continue
        # Operand order may only be permuted for commutative ops, and only
        # when the caller did not request strict operand checking.
        if strict_operands or not op.opcode.is_commutative:
            for sink, ports in per_sink.items():
                if sink.operand not in ports:
                    issues.append(
                        f"sub-value for {sink} does not arrive at operand "
                        f"port {sink.operand}"
                    )
        else:
            if not _has_perfect_port_matching(op.opcode.arity, per_sink):
                issues.append(
                    f"op {op.name!r}: no consistent assignment of arriving "
                    "sub-values to operand ports"
                )

    # 4. exclusivity ----------------------------------------------------
    for node_id, producers in mapping.nodes_used_by_value().items():
        if len(producers) > 1:
            names = ", ".join(sorted(producers))
            issues.append(f"route node {node_id!r} carries multiple values: {names}")
        if node_id in mrrg and mrrg.node(node_id).kind is not NodeKind.ROUTE:
            issues.append(f"route uses non-RouteRes node {node_id!r}")

    return issues


def _check_route(
    mapping: Mapping,
    producer: str,
    sink: Sink,
    route: frozenset[str],
    arrivals: dict[str, dict[Sink, set[int]]],
) -> list[str]:
    issues: list[str] = []
    mrrg = mapping.mrrg
    src_fu = mapping.placement.get(producer)
    dst_fu = mapping.placement.get(sink.op)
    if src_fu is None or dst_fu is None:
        return [f"sub-value {producer}=>{sink}: endpoint op unplaced"]
    for fu_id in (src_fu, dst_fu):
        if fu_id not in mrrg:
            return [
                f"sub-value {producer}=>{sink}: endpoint placed on "
                f"missing node {fu_id!r}"
            ]
    for node_id in sorted(route):
        if node_id not in mrrg:
            issues.append(f"sub-value {producer}=>{sink}: missing node {node_id!r}")
            return issues

    src_node = mrrg.node(src_fu)
    if src_node.output is None:
        return [f"sub-value {producer}=>{sink}: source FU {src_fu!r} has no output"]
    start = src_node.output
    if start not in route:
        return [
            f"sub-value {producer}=>{sink}: route does not include source "
            f"output {start!r}"
        ]

    dst_ports = {
        pid: operand
        for operand, pid in mrrg.node(dst_fu).operand_ports.items()
    }
    # BFS from the source output within the route set.
    reached: set[str] = {start}
    frontier = [start]
    hit_ports: set[int] = set()
    while frontier:
        current = frontier.pop()
        if current in dst_ports:
            hit_ports.add(dst_ports[current])
            continue  # a route may terminate at the port
        for nxt in mrrg.fanouts(current):
            if nxt in route and nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    if not hit_ports:
        issues.append(
            f"sub-value {producer}=>{sink}: no path from {start!r} to any "
            f"operand port of {dst_fu!r} within the route set"
        )
    else:
        arrivals.setdefault(sink.op, {}).setdefault(sink, set()).update(hit_ports)
    return issues


def _has_perfect_port_matching(
    arity: int, per_sink: dict[Sink, set[int]]
) -> bool:
    """Whether each operand sink can claim a distinct port it arrives at.

    Uses augmenting paths (tiny bipartite matching; arity <= 2 in practice
    but the algorithm is general).
    """
    sinks = list(per_sink)
    if len(sinks) != arity:
        return False
    match: dict[int, Sink] = {}

    def try_assign(sink: Sink, visited: set[int]) -> bool:
        for port in sorted(per_sink[sink]):
            if port in visited:
                continue
            visited.add(port)
            if port not in match or try_assign(match[port], visited):
                match[port] = sink
                return True
        return False

    return all(try_assign(sink, set()) for sink in sinks)
