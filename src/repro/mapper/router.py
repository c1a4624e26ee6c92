"""The one route search of the heuristics, and SA's congestion router.

Greedy and SA route each sub-value with :class:`RouteSearch`.  Greedy
forbids another value's node; SA's router (PathFinder-style) penalizes
occupied nodes instead, so re-routing under growing penalties lets the
annealer escape congestion, as in DRESC/SPR.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import defaultdict
from collections.abc import Callable

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


class RouteSearch:
    """Dijkstra from a source node to one operand port of an MRRG that
    expands only the port's route fan-in closure (the nodes that can
    still reach it), memoized per port for one ``map()`` call.  That is
    exact: a node that cannot reach the port is never the predecessor of
    one that can, so kept nodes get the same distances, predecessors and
    ``(dist, node id)`` pop order as unpruned, and the same path returns.
    """

    def __init__(self, mrrg: MRRG):
        self.mrrg = mrrg
        self._reach: dict[str, set[str]] = {}

    def route(
        self, source: str, port: str, entry_cost: Callable[[str], float | None], start_cost: float
    ) -> list[str] | None:
        """The cheapest path from ``source`` to ``port``, both included:
        ``entry_cost(node)`` prices a step onto a node (None forbids it)."""
        reach = self._reach.get(port)
        if reach is None:
            reach = self._reach[port] = {port}
            stack = [port]
            while stack:
                for node in self.mrrg.route_fanins(stack.pop()):
                    if node not in reach:
                        reach.add(node)
                        stack.append(node)
        if source not in reach or entry_cost(source) is None:
            return None
        dist = {source: start_cost}
        prev: dict[str, str] = {}
        heap = [(start_cost, source)]
        while heap:
            d, current = heapq.heappop(heap)
            if d > dist[current]:
                continue  # superseded by a cheaper entry, already expanded
            if current == port:
                path = [current]
                while current in prev:
                    current = prev[current]
                    path.append(current)
                path.reverse()
                return path
            for nxt in self.mrrg.route_fanouts(current):
                if nxt not in reach or (step := entry_cost(nxt)) is None:
                    continue
                nd = d + step
                if nd < dist.get(nxt, float("inf")):
                    dist[nxt] = nd
                    prev[nxt] = current
                    heapq.heappush(heap, (nd, nxt))
        return None

    def route_all(
        self, dfg: DFG, placement: dict[str, str], overuse_penalty: float = 10.0
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
            value = request.producer
            source = self.mrrg.node(request.source_fu).output
            port = self.mrrg.node(request.target_fu).operand_ports.get(request.target_operand)

            def node_cost(node_id: str) -> float:
                users = occupants.get(node_id, ())
                if value in users:
                    return 0.01  # reuse of our own tree is nearly free
                return 1.0 + overuse_penalty * len(users)

            path = None
            if source is not None and port is not None:
                path = self.route(source, port, node_cost, node_cost(source))
            if path is None:
                unrouted.append((value, request.sink))
                routes[(value, request.sink)] = frozenset()
                continue
            for node in path:
                occupants[node].add(value)
            routes[(value, request.sink)] = frozenset(path)

        overuse = sum(len(vals) - 1 for vals in occupants.values() if len(vals) > 1)
        usage = sum(len(vals) for vals in occupants.values())
        cost = usage + overuse_penalty * overuse + 1000.0 * len(unrouted)
        return RoutingResult(routes=routes, cost=cost, overuse=overuse, unrouted=unrouted)


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
    """:meth:`RouteSearch.route_all` on a fresh search of ``mrrg``."""
    return RouteSearch(mrrg).route_all(dfg, placement, overuse_penalty)


def mapping_from_routing(
    dfg: DFG, mrrg: MRRG, placement: dict[str, str], result: RoutingResult
) -> Mapping:
    """Package a congestion-free routing as a :class:`Mapping`."""
    return Mapping(dfg=dfg, mrrg=mrrg, placement=dict(placement), routes=dict(result.routes))
