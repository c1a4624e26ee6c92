"""Simulated-annealing CGRA mapper (the paper's baseline, cf. DRESC/SPR).

Random placement moves over FuncUnit nodes with a negotiated-congestion
router in the inner loop; the cost rewards fully-routed, congestion-free
mappings.  Unlike the ILP mapper this is a heuristic: a failure to map
says nothing about true feasibility — exactly the gap Fig. 8 of the paper
quantifies.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time

from ..dfg.graph import DFG
from ..mrrg.graph import MRRG
from .base import Mapper, MapResult, MapStatus
from .router import mapping_from_routing, route_all
from .verify import verify


@dataclasses.dataclass
class SAMapperOptions:
    """Annealing-schedule knobs ("moderate parameters" in the paper).

    Attributes:
        seed: RNG seed (results are deterministic given a seed).
        initial_temperature / final_temperature / cooling: geometric
            temperature schedule.
        moves_per_temperature: inner-loop moves at each temperature.
        overuse_penalty: congestion penalty handed to the router.
        restarts: independent annealing runs before giving up.
        time_limit: overall wall-clock budget in seconds (None = none).
    """

    seed: int = 1
    initial_temperature: float = 20.0
    final_temperature: float = 0.05
    cooling: float = 0.9
    moves_per_temperature: int = 64
    overuse_penalty: float = 10.0
    restarts: int = 2
    time_limit: float | None = None


class SAMapper(Mapper):
    """Simulated-annealing placer with congestion-negotiating router.

    Args:
        options: annealing-schedule knobs.
        telemetry: optional event sink — any object exposing
            ``emit(kind, duration=None, **fields)``.  Emits ``solve``,
            ``route`` and ``verify`` events.
    """

    name = "sa"

    def __init__(
        self, options: SAMapperOptions | None = None, telemetry=None
    ):
        self.options = options or SAMapperOptions()
        self.telemetry = telemetry

    def _emit(self, kind: str, duration: float | None = None, **fields) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(kind, duration=duration, **fields)

    def map(self, dfg: DFG, mrrg: MRRG) -> MapResult:
        opts = self.options
        start = time.perf_counter()
        rng = random.Random(opts.seed)

        candidates = _candidates(dfg, mrrg)
        if candidates is None:
            return MapResult(
                status=MapStatus.GAVE_UP,
                solve_time=time.perf_counter() - start,
                detail="some operation has no hosting functional unit",
            )

        best_cost = math.inf
        best: tuple[dict[str, str], object] | None = None
        for restart in range(max(1, opts.restarts)):
            if self._out_of_time(start):
                break
            outcome = self._anneal(dfg, mrrg, candidates, rng, start)
            if outcome is None:
                continue
            placement, routing = outcome
            if routing.cost < best_cost:
                best_cost = routing.cost
                best = (placement, routing)
            if routing.overuse == 0 and not routing.unrouted:
                break

        elapsed = time.perf_counter() - start
        self._emit(
            "solve",
            duration=elapsed,
            backend="sa",
            status="annealed" if best is not None else "no_attempt",
        )
        if best is None:
            return MapResult(
                status=MapStatus.GAVE_UP,
                solve_time=elapsed,
                detail="no placement attempt completed",
            )
        placement, routing = best
        if routing.overuse == 0 and not routing.unrouted:
            route_start = time.perf_counter()
            mapping = mapping_from_routing(dfg, mrrg, placement, routing)
            self._emit(
                "route",
                duration=time.perf_counter() - route_start,
                sub_values=len(mapping.routes),
                routing_cost=mapping.routing_cost(),
            )
            verify_start = time.perf_counter()
            issues = verify(mapping, strict_operands=True)
            self._emit(
                "verify",
                duration=time.perf_counter() - verify_start,
                issues=len(issues),
            )
            if issues:
                return MapResult(
                    status=MapStatus.ERROR,
                    solve_time=elapsed,
                    detail="SA mapping failed verification: " + "; ".join(issues[:5]),
                )
            return MapResult(
                status=MapStatus.MAPPED,
                mapping=mapping,
                objective=float(mapping.routing_cost()),
                proven_optimal=False,
                solve_time=elapsed,
            )
        return MapResult(
            status=MapStatus.GAVE_UP,
            solve_time=elapsed,
            detail=(
                f"best attempt left overuse={routing.overuse}, "
                f"unrouted={len(routing.unrouted)}"
            ),
        )

    # ------------------------------------------------------------------
    def _out_of_time(self, start: float) -> bool:
        limit = self.options.time_limit
        return limit is not None and time.perf_counter() - start > limit

    def _anneal(self, dfg, mrrg, candidates, rng, start):
        opts = self.options
        placement = _random_placement(dfg, candidates, rng)
        if placement is None:
            return None
        routing = route_all(
            dfg, placement, mrrg, overuse_penalty=opts.overuse_penalty
        )
        cost = routing.cost
        temperature = opts.initial_temperature
        op_names = [op.name for op in dfg.ops]

        while temperature > opts.final_temperature:
            for _ in range(opts.moves_per_temperature):
                if self._out_of_time(start):
                    return placement, routing
                if routing.overuse == 0 and not routing.unrouted:
                    return placement, routing
                op = rng.choice(op_names)
                new_placement = _move(placement, op, candidates, rng)
                if new_placement is None:
                    continue
                new_routing = route_all(
                    dfg, new_placement, mrrg, overuse_penalty=opts.overuse_penalty
                )
                delta = new_routing.cost - cost
                if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                    placement, routing, cost = new_placement, new_routing, new_routing.cost
            temperature *= opts.cooling
        return placement, routing


def _candidates(dfg: DFG, mrrg: MRRG) -> dict[str, list[str]] | None:
    """Per-op ids of :meth:`MRRG.capable_units`; None when an op has none."""
    produces = {v.producer for v in dfg.values()}
    result: dict[str, list[str]] = {}
    for op in dfg.ops:
        fus = mrrg.capable_units(op.opcode, op.name in produces)
        if not fus:
            return None
        result[op.name] = [fu.node_id for fu in fus]
    return result


def _random_placement(
    dfg: DFG, candidates: dict[str, list[str]], rng: random.Random
) -> dict[str, str] | None:
    """Greedy randomized placement: most-constrained ops first."""
    placement: dict[str, str] = {}
    taken: set[str] = set()
    for op_name in sorted(candidates, key=lambda name: len(candidates[name])):
        free = [fu for fu in candidates[op_name] if fu not in taken]
        if not free:
            return None
        choice = rng.choice(free)
        placement[op_name] = choice
        taken.add(choice)
    return placement


def _move(
    placement: dict[str, str],
    op: str,
    candidates: dict[str, list[str]],
    rng: random.Random,
) -> dict[str, str] | None:
    """Move ``op`` to a random candidate FU; swap when occupied."""
    target = rng.choice(candidates[op])
    if target == placement[op]:
        return None
    new_placement = dict(placement)
    occupant = next(
        (name for name, fu in placement.items() if fu == target), None
    )
    if occupant is not None:
        # Swap only when the displaced op can live on our current FU.
        source = placement[op]
        if source not in candidates[occupant]:
            return None
        new_placement[occupant] = source
    new_placement[op] = target
    return new_placement
