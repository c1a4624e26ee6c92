"""Sequential solver portfolio: an escalation ladder with budgets.

Exact CGRA mappers only become practical inside a budgeted search loop
(cf. SAT-MapIt's escalating II loop): cheap heuristics first, the exact
ILP last, every stage under a deadline, and the best feasible incumbent
returned when the exact stage runs out of time instead of failing the
request.  The ladder runs strictly sequentially — the deployment target
is a single-CPU container, where parallel stage racing would only add
contention.

Default ladder: ``greedy -> sa -> ilp(highs) -> ilp(bnb)``.

Escalation policy per stage outcome:

* heuristic ``MAPPED`` — feasible incumbent; the ladder stops when
  ``stop_at_first_feasible`` (the default) and otherwise keeps climbing
  toward an exact verdict while remembering the incumbent;
* ILP ``MAPPED`` / proven ``INFEASIBLE`` — definitive, always stops;
* ``TIMEOUT`` — retried with a ``budget_growth``-times larger budget
  while the stage has retries and the overall deadline has room, then
  the ladder moves on;
* ``GAVE_UP`` / ``ERROR`` — the ladder moves on.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Any

from ..analyze.bounds import first_bound_witness
from ..analyze.model_audit import first_witness
from ..dfg.graph import DFG
from ..mapper.base import Mapper, MapResult, MapStatus
from ..mapper.greedy_mapper import GreedyMapper, GreedyMapperOptions
from ..mapper.ilp_mapper import ILPMapper, ILPMapperOptions
from ..mapper.sa_mapper import SAMapper, SAMapperOptions
from ..mapper.sweep import FormulationCache
from ..mrrg.graph import MRRG

_MAPPER_NAMES = ("greedy", "sa", "ilp")


@dataclasses.dataclass(frozen=True)
class StageSpec:
    """One rung of the escalation ladder.

    Attributes:
        mapper: "greedy", "sa" or "ilp".
        backend: ILP backend ("highs" or "bnb"); ignored otherwise.
        time_limit: stage budget in seconds (None = unbounded).
        retries: extra attempts after a TIMEOUT, each with the budget
            multiplied by ``budget_growth``.
        budget_growth: budget multiplier per retry.
        seed: RNG seed for the heuristic mappers.
        restarts: heuristic restart count.
    """

    mapper: str
    backend: str = "highs"
    time_limit: float | None = 10.0
    retries: int = 0
    budget_growth: float = 2.0
    seed: int = 7
    restarts: int = 2

    def __post_init__(self):
        if self.mapper not in _MAPPER_NAMES:
            raise ValueError(f"unknown stage mapper {self.mapper!r}")
        if self.budget_growth < 1.0:
            raise ValueError("budget_growth must be >= 1.0")

    @property
    def label(self) -> str:
        return f"ilp-{self.backend}" if self.mapper == "ilp" else self.mapper

    @property
    def is_exact(self) -> bool:
        return self.mapper == "ilp"

    def describe(self) -> dict[str, Any]:
        """JSON-able semantic description (feeds the request fingerprint)."""
        return dataclasses.asdict(self)


def default_ladder(
    heuristic_budget: float = 5.0,
    exact_budget: float = 60.0,
    exact_retries: int = 1,
) -> tuple[StageSpec, ...]:
    """The standard greedy -> sa -> ilp(highs) -> ilp(bnb) ladder."""
    return (
        StageSpec(mapper="greedy", time_limit=heuristic_budget, restarts=4),
        StageSpec(mapper="sa", time_limit=2 * heuristic_budget),
        StageSpec(
            mapper="ilp",
            backend="highs",
            time_limit=exact_budget,
            retries=exact_retries,
        ),
        StageSpec(mapper="ilp", backend="bnb", time_limit=exact_budget / 2),
    )


def single_stage(
    mapper: str,
    backend: str = "highs",
    time_limit: float | None = 120.0,
    seed: int = 7,
) -> tuple[StageSpec, ...]:
    """A one-rung ladder (the classic one-shot ``map`` behaviour)."""
    return (
        StageSpec(
            mapper=mapper, backend=backend, time_limit=time_limit, seed=seed
        ),
    )


@dataclasses.dataclass(frozen=True)
class PortfolioConfig:
    """The ladder plus global solving policy.

    Attributes:
        stages: the rungs, tried in order.
        stop_at_first_feasible: accept a heuristic mapping as the final
            answer; False keeps escalating toward an exact verdict while
            holding the heuristic incumbent for graceful degradation.
        deadline: overall wall-clock budget across all stages (None =
            the stages' own budgets are the only limit).
        mip_rel_gap: relative-gap stop for ILP stages (1.0 = accept the
            first incumbent, i.e. pure feasibility; None = prove
            optimality).
    """

    stages: tuple[StageSpec, ...] = dataclasses.field(
        default_factory=default_ladder
    )
    stop_at_first_feasible: bool = True
    deadline: float | None = None
    mip_rel_gap: float | None = 1.0

    def __post_init__(self):
        if not self.stages:
            raise ValueError("portfolio needs at least one stage")

    def describe(self) -> dict[str, Any]:
        """JSON-able semantic description (feeds the request fingerprint).

        The config is frozen, so the document is built once per config
        object and shared by every call: read it, never modify it.
        """
        return self._description

    @functools.cached_property
    def _description(self) -> dict[str, Any]:
        return {
            "stages": [stage.describe() for stage in self.stages],
            "stop_at_first_feasible": self.stop_at_first_feasible,
            "deadline": self.deadline,
            "mip_rel_gap": self.mip_rel_gap,
        }


@dataclasses.dataclass(frozen=True)
class StageAttempt:
    """Audit row for one mapper invocation inside the ladder."""

    stage: str
    budget: float | None
    status: MapStatus
    objective: float | None
    wall_time: float


@dataclasses.dataclass
class PortfolioOutcome:
    """What the ladder produced.

    Attributes:
        result: the final verdict handed to the caller.
        stage: label of the stage that produced ``result`` (None when no
            stage produced anything usable).
        degraded: True when an exact stage failed to finish and the
            result fell back to an earlier feasible incumbent.
        attempts: every mapper invocation, in order.
    """

    result: MapResult
    stage: str | None
    degraded: bool = False
    attempts: list[StageAttempt] = dataclasses.field(default_factory=list)


def _build_mapper(
    stage: StageSpec,
    budget: float | None,
    config: PortfolioConfig,
    telemetry: Any = None,
    form_cache: FormulationCache | None = None,
) -> Mapper:
    if stage.mapper == "greedy":
        return GreedyMapper(
            GreedyMapperOptions(
                seed=stage.seed,
                restarts=max(1, stage.restarts),
                time_limit=budget,
            )
        )
    if stage.mapper == "sa":
        return SAMapper(
            SAMapperOptions(
                seed=stage.seed,
                restarts=max(1, stage.restarts),
                time_limit=budget,
            ),
            telemetry=telemetry,
        )
    return ILPMapper(
        ILPMapperOptions(
            backend=stage.backend,
            time_limit=budget,
            mip_rel_gap=config.mip_rel_gap,
        ),
        telemetry=telemetry,
        form_cache=form_cache,
    )


_STATUS_RANK = {
    MapStatus.MAPPED: 0,
    MapStatus.TIMEOUT: 1,
    MapStatus.GAVE_UP: 2,
    MapStatus.INFEASIBLE: 3,
    MapStatus.ERROR: 4,
}


def _better(
    candidate: tuple[MapResult, str], incumbent: tuple[MapResult, str] | None
) -> bool:
    if incumbent is None:
        return True
    cand, inc = candidate[0], incumbent[0]
    if _STATUS_RANK[cand.status] != _STATUS_RANK[inc.status]:
        return _STATUS_RANK[cand.status] < _STATUS_RANK[inc.status]
    if cand.status is MapStatus.MAPPED:
        cand_obj = cand.objective if cand.objective is not None else float("inf")
        inc_obj = inc.objective if inc.objective is not None else float("inf")
        return cand_obj < inc_obj
    return False


def run_portfolio(
    dfg: DFG,
    mrrg: MRRG,
    config: PortfolioConfig | None = None,
    telemetry: Any = None,
) -> PortfolioOutcome:
    """Run the escalation ladder over one (DFG, MRRG) instance.

    The capacity screen and the certified bounds prover run first: a
    refutation settles the request without running any stage (and,
    being a proven INFEASIBLE, is cached by the service layer).

    Args:
        dfg/mrrg: the mapping instance.
        config: ladder and policy (defaults to the standard ladder in
            feasibility mode).
        telemetry: optional event bus — any object with
            ``emit(kind, duration=None, **fields)``.
    """
    config = config or PortfolioConfig()
    start = time.perf_counter()
    attempts: list[StageAttempt] = []
    best: tuple[MapResult, str] | None = None
    # One formulation cache per request: the ilp-highs and ilp-bnb rungs
    # (and timeout retries) emit the same model, so build+compile runs
    # once and every later exact attempt goes straight to the solver.
    form_cache = FormulationCache()

    def remaining() -> float | None:
        if config.deadline is None:
            return None
        return config.deadline - (time.perf_counter() - start)

    def finish(
        result: MapResult, stage: str | None, degraded: bool = False
    ) -> PortfolioOutcome:
        if telemetry is not None:
            telemetry.emit(
                "result",
                duration=time.perf_counter() - start,
                status=result.status.value,
                stage=stage,
                degraded=degraded,
                objective=result.objective,
            )
        return PortfolioOutcome(
            result=result, stage=stage, degraded=degraded, attempts=attempts
        )

    witness = first_witness(dfg, mrrg)
    if telemetry is not None:
        telemetry.emit(
            "pre-audit",
            duration=time.perf_counter() - start,
            verdict="infeasible" if witness else "clean",
            rule=witness.rule if witness else None,
            message=witness.message if witness else None,
        )
    if witness is not None:
        # A pigeonhole witness is an infeasibility proof: no stage —
        # heuristic or exact — could ever find a mapping.
        return finish(
            MapResult(
                status=MapStatus.INFEASIBLE,
                detail=(
                    f"structural witness {witness.rule}: {witness.message}"
                ),
                proven_optimal=True,
            ),
            "pre-audit",
        )
    # The certified bounds prover (Hall matching, routability cuts,
    # saturation counts) refutes instances the counting screen
    # cannot; its certificate travels with the result into the
    # service cache and re-checks under repro.analyze.certify.
    screen_start = time.perf_counter()
    finding = first_bound_witness(dfg, mrrg)
    if telemetry is not None:
        telemetry.emit(
            "bounds-screen",
            duration=time.perf_counter() - screen_start,
            ii=mrrg.ii,
            verdict="infeasible" if finding else "unknown",
            rule=finding.rule if finding else None,
        )
    if finding is not None:
        return finish(
            MapResult(
                status=MapStatus.INFEASIBLE,
                detail=(
                    f"bounds screen {finding.rule}: {finding.message}"
                ),
                proven_optimal=True,
                certificate=finding.as_dict(),
            ),
            "bounds-screen",
        )

    for stage in config.stages:
        budget = stage.time_limit
        for attempt in range(stage.retries + 1):
            room = remaining()
            if room is not None and room <= 0:
                if telemetry is not None:
                    telemetry.emit(
                        "stage-skipped", stage=stage.label, reason="deadline"
                    )
                best_result = best[0] if best else _exhausted_result(attempts)
                return finish(
                    best_result,
                    best[1] if best else None,
                    degraded=best is not None
                    and best[0].status is MapStatus.MAPPED,
                )
            effective = budget
            if room is not None:
                effective = room if budget is None else min(budget, room)
            if telemetry is not None:
                telemetry.emit(
                    "stage-start",
                    stage=stage.label,
                    budget=effective,
                    attempt=attempt,
                )
            mapper = _build_mapper(
                stage, effective, config, telemetry, form_cache=form_cache
            )
            result = mapper.map(dfg, mrrg)
            attempts.append(
                StageAttempt(
                    stage=stage.label,
                    budget=effective,
                    status=result.status,
                    objective=result.objective,
                    wall_time=result.total_time,
                )
            )
            if telemetry is not None:
                telemetry.emit(
                    "stage-end",
                    duration=result.total_time,
                    stage=stage.label,
                    status=result.status.value,
                    objective=result.objective,
                    attempt=attempt,
                )
            if _better((result, stage.label), best):
                best = (result, stage.label)

            if result.status is MapStatus.MAPPED:
                if stage.is_exact or config.stop_at_first_feasible:
                    return finish(result, stage.label)
                break  # feasible incumbent held; escalate for exactness
            if result.status is MapStatus.INFEASIBLE and result.proven_optimal:
                # An exact infeasibility proof settles the request.
                return finish(result, stage.label)
            if result.status is MapStatus.TIMEOUT and attempt < stage.retries:
                if budget is not None:
                    budget = budget * stage.budget_growth
                continue
            break

    # Ladder exhausted without an exact verdict: degrade gracefully.
    if best is not None:
        degraded = best[0].status is MapStatus.MAPPED
        return finish(best[0], best[1], degraded=degraded)
    return finish(_exhausted_result(attempts), None)


def _exhausted_result(attempts: list[StageAttempt]) -> MapResult:
    tried = ", ".join(a.stage for a in attempts) or "no stages"
    return MapResult(
        status=MapStatus.GAVE_UP,
        detail=f"portfolio exhausted without a verdict (tried: {tried})",
    )
