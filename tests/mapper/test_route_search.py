"""The one route search of the greedy and SA mappers.

``RouteSearch.route`` expands only the target port's route fan-in
closure.  The pruning must be exact: under any occupancy it returns the
path, or None, that a plain Dijkstra over every route node reachable
from the source returns (``reference_route`` below).
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.arch.testsuite import PAPER_ARCHITECTURES, paper_architecture
from repro.explore import build_arch_mrrg
from repro.kernels.registry import kernel
from repro.mapper.greedy_mapper import GreedyMapper, GreedyMapperOptions
from repro.mapper.router import RouteSearch
from repro.mapper.sa_mapper import SAMapper, SAMapperOptions
from repro.mrrg import build_mrrg_from_module, prune

_PAPER = {arch.key: arch for arch in PAPER_ARCHITECTURES}
VALUES = ("v0", "v1", "v2", "v3")


def reference_route(mrrg, source, port, entry_cost, start_cost):
    """Unpruned Dijkstra: every route node reachable from ``source``."""
    if entry_cost(source) is None:
        return None
    dist = {source: start_cost}
    prev: dict[str, str] = {}
    heap = [(start_cost, source)]
    visited: set[str] = set()
    while heap:
        d, current = heapq.heappop(heap)
        if current in visited:
            continue
        visited.add(current)
        if current == port:
            path = [current]
            while current in prev:
                current = prev[current]
                path.append(current)
            path.reverse()
            return path
        for nxt in mrrg.route_fanouts(current):
            step = entry_cost(nxt)
            if step is None:
                continue
            nd = d + step
            if nd < dist.get(nxt, float("inf")):
                dist[nxt] = nd
                prev[nxt] = current
                heapq.heappush(heap, (nd, nxt))
    return None


def greedy_costs(rng, route_nodes, value):
    """Greedy's exclusive model: another value's node is forbidden."""
    occupied = {n: rng.choice(VALUES) for n in route_nodes if rng.random() < 0.3}

    def entry_cost(node_id):
        owner = occupied.get(node_id)
        if owner is None:
            return 1.0
        return 0.05 if owner == value else None

    return entry_cost, lambda source: 0.0


def sa_costs(rng, route_nodes, value):
    """SA's negotiated model: occupied nodes cost more, none is forbidden."""
    occupants = {
        n: set(rng.sample(VALUES, rng.randint(1, 2)))
        for n in route_nodes
        if rng.random() < 0.3
    }

    def entry_cost(node_id):
        users = occupants.get(node_id, ())
        if value in users:
            return 0.01
        return 1.0 + 10.0 * len(users)

    return entry_cost, entry_cost


def _fabric(name: str):
    if name in _PAPER:
        return build_arch_mrrg(_PAPER[name])
    loop_fabric = paper_architecture("homogeneous", "diagonal", rows=3, cols=3)
    return prune(build_mrrg_from_module(loop_fabric, int(name[-1])))


FABRICS = (
    "homoge_orth_ii1",
    "hetero_diag_ii1",
    "homoge_diag_ii2",
    "hetero_orth_ii2",
    "loops_3x3_ii1",
    "loops_3x3_ii2",
)


@pytest.mark.parametrize("model", [greedy_costs, sa_costs], ids=["greedy", "sa"])
@pytest.mark.parametrize("fabric", FABRICS)
def test_pruned_search_returns_what_the_full_search_returns(fabric, model):
    mrrg = _fabric(fabric)
    rng = random.Random(f"{fabric}/{model.__name__}")
    units = mrrg.function_nodes()
    outputs = [fu.output for fu in units if fu.output is not None]
    ports = [p for fu in units for p in fu.operand_ports.values()]
    route_nodes = [n.node_id for n in mrrg.route_nodes()]
    search = RouteSearch(mrrg)  # one memo across every query, as in one map()
    found = missed = 0
    for _ in range(150):
        # Unit outputs, as the mappers route from, and any route node,
        # which may lie outside the port's closure.
        source = rng.choice(outputs if rng.random() < 0.7 else route_nodes)
        port, value = rng.choice(ports), rng.choice(VALUES)
        entry_cost, start_cost = model(rng, route_nodes, value)
        expected = reference_route(mrrg, source, port, entry_cost, start_cost(source))
        assert search.route(source, port, entry_cost, start_cost(source)) == expected
        found += expected is not None
        missed += expected is None
    assert found and missed


def _reach_entries(mrrg) -> int:
    index = mrrg._query()
    return len(index.forward) + len(index.backward)


@pytest.mark.parametrize(
    "mapper",
    [
        GreedyMapper(GreedyMapperOptions(seed=7, restarts=4)),
        SAMapper(SAMapperOptions(seed=3, restarts=1)),
    ],
    ids=["greedy", "sa"],
)
def test_mappers_leave_no_reach_on_the_shared_graph(mapper):
    mrrg = build_arch_mrrg(_PAPER["hetero_orth_ii1"])
    before = _reach_entries(mrrg)
    assert mapper.map(kernel("mac"), mrrg).mapping is not None
    assert _reach_entries(mrrg) <= before
