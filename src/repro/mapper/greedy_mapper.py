"""Greedy list-scheduling mapper.

A third mapper tier below simulated annealing: operations are placed one
at a time in topological order (most-constrained first), each on the
candidate functional unit whose operand routes are cheapest *right now*,
with routes committed immediately and never ripped up.  This mirrors the
classic constructive heuristics the paper's related work discusses
(list-scheduling in Lee et al.) and gives the Fig. 8 comparison a second
heuristic data point: greedy <= SA <= ILP in mapping strength.

Routing is exclusive from the start (no negotiation): a route may only
use nodes that are free or already carry the same value.
"""

from __future__ import annotations

import dataclasses
import random
import time

from ..dfg.graph import DFG, Sink
from ..mrrg.graph import MRRG
from .base import Mapper, MapResult, MapStatus
from .mapping import Mapping
from .router import RouteSearch
from .sa_mapper import _candidates
from .verify import verify


@dataclasses.dataclass
class GreedyMapperOptions:
    """Knobs of the greedy mapper.

    Attributes:
        seed: tie-breaking RNG seed.
        restarts: independent attempts with shuffled tie-breaking.
        time_limit: overall wall-clock budget in seconds.
    """

    seed: int = 1
    restarts: int = 4
    time_limit: float | None = None


class GreedyMapper(Mapper):
    """Constructive topological placer with immediate exclusive routing."""

    name = "greedy"

    def __init__(self, options: GreedyMapperOptions | None = None):
        self.options = options or GreedyMapperOptions()

    def map(self, dfg: DFG, mrrg: MRRG) -> MapResult:
        start = time.perf_counter()
        options = self.options
        candidates = _candidates(dfg, mrrg)
        if candidates is None:
            return MapResult(
                status=MapStatus.GAVE_UP,
                solve_time=time.perf_counter() - start,
                detail="some operation has no hosting functional unit",
            )
        order = self._schedule_order(dfg, candidates)
        search = RouteSearch(mrrg)
        rng = random.Random(options.seed)
        last_failure = "no attempt"
        for _ in range(max(1, options.restarts)):
            if (
                options.time_limit is not None
                and time.perf_counter() - start > options.time_limit
            ):
                break
            outcome = self._attempt(dfg, search, candidates, order, rng)
            if isinstance(outcome, Mapping):
                issues = verify(outcome, strict_operands=True)
                if issues:
                    last_failure = f"verification: {issues[0]}"
                    continue
                return MapResult(
                    status=MapStatus.MAPPED,
                    mapping=outcome,
                    objective=float(outcome.routing_cost()),
                    solve_time=time.perf_counter() - start,
                )
            last_failure = outcome
        return MapResult(
            status=MapStatus.GAVE_UP,
            solve_time=time.perf_counter() - start,
            detail=last_failure,
        )

    # ------------------------------------------------------------------
    def _schedule_order(self, dfg: DFG, candidates) -> list[str]:
        """Topological order, most-constrained ops first within ties."""
        order: list[str] = []
        for generation in dfg.generations():
            order.extend(sorted(generation, key=lambda n: len(candidates[n])))
        return order

    def _attempt(self, dfg, search, candidates, order, rng):
        placement: dict[str, str] = {}
        taken: set[str] = set()
        # node id -> value producer currently occupying it.
        occupied: dict[str, str] = {}
        routes: dict[tuple[str, Sink], frozenset[str]] = {}

        for op_name in order:
            op = dfg.op(op_name)
            pending = []  # (producer, sink) edges into this op, non-back
            for idx, producer in enumerate(op.operands):
                assert producer is not None
                if not op.operand_is_back_edge(idx):
                    pending.append((producer, Sink(op_name, idx)))
            options = [fu for fu in candidates[op_name] if fu not in taken]
            rng.shuffle(options)
            best = None
            for fu_id in options:
                trial = self._route_operands(
                    search, placement, occupied, pending, fu_id
                )
                if trial is None:
                    continue
                cost = sum(len(nodes) for nodes in trial.values())
                if best is None or cost < best[0]:
                    best = (cost, fu_id, trial)
            if best is None:
                return f"could not place {op_name!r}"
            _, fu_id, trial = best
            placement[op_name] = fu_id
            taken.add(fu_id)
            for (producer, sink), nodes in trial.items():
                routes[(producer, sink)] = frozenset(nodes)
                for node in nodes:
                    occupied[node] = producer

        # Loop-carried operands route once both endpoints are placed.
        for op in dfg.ops:
            for idx, producer in enumerate(op.operands):
                if producer is None or not op.operand_is_back_edge(idx):
                    continue
                sink = Sink(op.name, idx)
                nodes = self._route_one(
                    search, occupied, producer,
                    placement[producer], placement[op.name], sink,
                )
                if nodes is None:
                    return f"could not route loop edge {producer}->{op.name}"
                routes[(producer, sink)] = frozenset(nodes)
                for node in nodes:
                    occupied[node] = producer
        return Mapping(dfg=dfg, mrrg=search.mrrg, placement=placement, routes=routes)

    def _route_operands(self, search, placement, occupied, pending, fu_id):
        """Route every pending operand to ``fu_id`` on a trial copy."""
        trial_occupied = dict(occupied)
        result: dict[tuple[str, Sink], list[str]] = {}
        for producer, sink in pending:
            nodes = self._route_one(
                search, trial_occupied, producer, placement[producer], fu_id, sink
            )
            if nodes is None:
                return None
            result[(producer, sink)] = nodes
            for node in nodes:
                trial_occupied[node] = producer
        return result

    def _route_one(self, search, occupied, value, src_fu, dst_fu, sink):
        """Exclusive route from src output to the exact operand port."""
        source = search.mrrg.node(src_fu).output
        port = search.mrrg.node(dst_fu).operand_ports.get(sink.operand)
        if source is None or port is None:
            return None

        def entry_cost(node_id: str) -> float | None:
            owner = occupied.get(node_id)
            if owner is None:
                return 1.0
            return 0.05 if owner == value else None

        return search.route(source, port, entry_cost, 0.0)
