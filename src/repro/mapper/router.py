"""Negotiated-congestion router over the MRRG (PathFinder-style).

Used by the simulated-annealing mapper: given a placement, each sub-value
is routed with Dijkstra over RouteRes nodes, where occupied nodes are not
forbidden but *penalized*.  Re-routing under growing penalties lets the
annealer escape congestion, as in DRESC/SPR.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import defaultdict

from ..dfg.graph import DFG, Sink
from ..mrrg.graph import MRRG
from .mapping import Mapping


@dataclasses.dataclass
class RouteRequest:
    """One sub-value to route: from a placed producer to a placed sink."""

    producer: str
    sink: Sink
    source_fu: str
    target_fu: str
    target_operand: int


@dataclasses.dataclass
class RoutingResult:
    """Outcome of routing all sub-values under a placement.

    Attributes:
        routes: per sub-value route node sets (empty set = unroutable).
        cost: total node usage plus congestion penalties.
        overuse: number of (node, extra value) conflicts.
        unrouted: sub-values for which no path exists at any cost.
    """

    routes: dict[tuple[str, Sink], frozenset[str]]
    cost: float
    overuse: int
    unrouted: list[tuple[str, Sink]]


def route_requests(dfg: DFG, placement: dict[str, str]) -> list[RouteRequest]:
    """Enumerate the sub-value routing problems implied by a placement."""
    requests = []
    for value in dfg.values():
        for sink in value.sinks:
            requests.append(
                RouteRequest(
                    producer=value.producer,
                    sink=sink,
                    source_fu=placement[value.producer],
                    target_fu=placement[sink.op],
                    target_operand=sink.operand,
                )
            )
    return requests


def route_all(
    dfg: DFG,
    placement: dict[str, str],
    mrrg: MRRG,
    overuse_penalty: float = 10.0,
) -> RoutingResult:
    """Route every sub-value with congestion-penalized shortest paths.

    Nodes already claimed by a *different* value cost
    ``1 + overuse_penalty * occupants``; nodes already claimed by the
    *same* value are nearly free, which naturally shares multi-fanout
    route trees.
    """
    occupants: dict[str, set[str]] = defaultdict(set)
    routes: dict[tuple[str, Sink], frozenset[str]] = {}
    unrouted: list[tuple[str, Sink]] = []

    for request in route_requests(dfg, placement):
        source = mrrg.node(request.source_fu).output
        port = mrrg.node(request.target_fu).operand_ports.get(request.target_operand)
        if source is None or port is None:
            unrouted.append((request.producer, request.sink))
            routes[(request.producer, request.sink)] = frozenset()
            continue
        path = _dijkstra(
            mrrg, source, {port}, request.producer, occupants, overuse_penalty
        )
        if path is None:
            unrouted.append((request.producer, request.sink))
            routes[(request.producer, request.sink)] = frozenset()
            continue
        for node in path:
            occupants[node].add(request.producer)
        routes[(request.producer, request.sink)] = frozenset(path)

    overuse = sum(len(vals) - 1 for vals in occupants.values() if len(vals) > 1)
    usage = sum(len(vals) for vals in occupants.values())
    cost = usage + overuse_penalty * overuse + 1000.0 * len(unrouted)
    return RoutingResult(routes=routes, cost=cost, overuse=overuse, unrouted=unrouted)


def _dijkstra(
    mrrg: MRRG,
    source: str,
    targets: set[str],
    value: str,
    occupants: dict[str, set[str]],
    overuse_penalty: float,
) -> list[str] | None:
    """Shortest route-node path from ``source`` to any of ``targets``."""

    def node_cost(node_id: str) -> float:
        users = occupants.get(node_id, ())
        if value in users:
            return 0.01  # reuse of our own tree is nearly free
        return 1.0 + overuse_penalty * len(users)

    dist: dict[str, float] = {source: node_cost(source)}
    prev: dict[str, str] = {}
    heap: list[tuple[float, str]] = [(dist[source], source)]
    visited: set[str] = set()
    while heap:
        d, current = heapq.heappop(heap)
        if current in visited:
            continue
        visited.add(current)
        if current in targets:
            path = [current]
            while current in prev:
                current = prev[current]
                path.append(current)
            path.reverse()
            return path
        for nxt in mrrg.route_fanouts(current):
            nd = d + node_cost(nxt)
            if nd < dist.get(nxt, float("inf")):
                dist[nxt] = nd
                prev[nxt] = current
                heapq.heappush(heap, (nd, nxt))
    return None


def mapping_from_routing(
    dfg: DFG, mrrg: MRRG, placement: dict[str, str], result: RoutingResult
) -> Mapping:
    """Package a congestion-free routing as a :class:`Mapping`."""
    return Mapping(dfg=dfg, mrrg=mrrg, placement=dict(placement), routes=dict(result.routes))
