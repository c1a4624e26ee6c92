"""The escalation ladder: stop policy, retries, graceful degradation."""

import pytest

from repro.arch import GridSpec, build_grid
from repro.dfg import DFGBuilder
from repro.mapper import MapStatus
from repro.mrrg import build_mrrg_from_module, prune
from repro.service.portfolio import (
    PortfolioConfig,
    StageSpec,
    default_ladder,
    run_portfolio,
    single_stage,
)
from repro.service.telemetry import EventBus, EventLog


def _bus():
    bus = EventBus()
    bus.log = EventLog()
    bus.subscribe(bus.log)
    return bus


class TestSpecs:
    def test_unknown_mapper_rejected(self):
        with pytest.raises(ValueError):
            StageSpec(mapper="quantum")

    def test_unknown_backend_rejected(self):
        # Rejected when the ladder is written, not by the first instance
        # that passes the screens and reaches the solver.
        with pytest.raises(ValueError, match="unknown ILP backend 'gurobi'"):
            StageSpec(mapper="ilp", backend="gurobi")

    def test_budget_growth_below_one_rejected(self):
        with pytest.raises(ValueError):
            StageSpec(mapper="ilp", budget_growth=0.5)

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            PortfolioConfig(stages=())

    def test_labels(self):
        assert StageSpec(mapper="greedy").label == "greedy"
        assert StageSpec(mapper="ilp", backend="bnb").label == "ilp-bnb"

    def test_default_ladder_shape(self):
        labels = [s.label for s in default_ladder()]
        assert labels == ["greedy", "sa", "ilp-highs"]

    def test_describe_is_json_able(self):
        import json

        json.dumps(PortfolioConfig().describe())


class TestPolicy:
    def test_stop_at_first_feasible(self, tiny_dfg, mrrg_2x2_ii1):
        config = PortfolioConfig(
            stages=(
                StageSpec(mapper="greedy", time_limit=10.0, seed=3,
                          restarts=4),
                StageSpec(mapper="ilp", backend="highs", time_limit=30.0),
            ),
        )
        outcome = run_portfolio(tiny_dfg, mrrg_2x2_ii1, config)
        assert outcome.result.status is MapStatus.MAPPED
        assert outcome.stage == "greedy"
        assert not outcome.degraded
        assert len(outcome.attempts) == 1  # the ILP rung never ran

    def test_degrades_to_heuristic_incumbent_on_exact_timeout(
        self, tiny_dfg, mrrg_2x2_ii1
    ):
        # The acceptance scenario: a deliberately tiny exact deadline must
        # fall back to the heuristic incumbent instead of failing.
        bus = _bus()
        config = PortfolioConfig(
            stages=(
                StageSpec(mapper="greedy", time_limit=10.0, seed=3,
                          restarts=4),
                StageSpec(mapper="ilp", backend="bnb", time_limit=0.0),
            ),
            stop_at_first_feasible=False,
        )
        outcome = run_portfolio(tiny_dfg, mrrg_2x2_ii1, config, telemetry=bus)
        assert outcome.result.status is MapStatus.MAPPED
        assert outcome.result.mapping is not None
        assert outcome.stage == "greedy"
        assert outcome.degraded
        assert [a.stage for a in outcome.attempts] == ["greedy", "ilp-bnb"]
        assert outcome.attempts[1].status is MapStatus.TIMEOUT
        # Every stage left a timed stage-end event.
        ends = bus.log.of_kind("stage-end")
        assert [e.fields["stage"] for e in ends] == ["greedy", "ilp-bnb"]
        assert all(e.duration is not None for e in ends)
        (final,) = bus.log.of_kind("result")
        assert final.fields["degraded"] is True
        assert final.fields["stage"] == "greedy"

    def test_timeout_retries_with_grown_budget(
        self, tiny_dfg, mrrg_2x2_ii1, monkeypatch
    ):
        # A stub mapper that always times out: the policy under test is
        # the retry/budget-growth loop, which must not depend on how
        # fast the real backend happens to be on this machine.
        from repro.mapper.base import Mapper, MapResult
        from repro.service import portfolio as portfolio_mod

        budgets = []

        class AlwaysTimeout(Mapper):
            def map(self, dfg, mrrg):
                return MapResult(status=MapStatus.TIMEOUT)

        def fake_build(stage, budget, config, telemetry=None, form_cache=None):
            budgets.append(budget)
            return AlwaysTimeout()

        monkeypatch.setattr(portfolio_mod, "_build_mapper", fake_build)
        config = PortfolioConfig(
            stages=(
                StageSpec(mapper="ilp", backend="bnb", time_limit=0.001,
                          retries=2, budget_growth=2.0),
            ),
        )
        outcome = run_portfolio(tiny_dfg, mrrg_2x2_ii1, config)
        assert [a.status for a in outcome.attempts] == [MapStatus.TIMEOUT] * 3
        assert budgets == [0.001, 0.002, 0.004]
        assert [a.budget for a in outcome.attempts] == [0.001, 0.002, 0.004]
        assert outcome.result.status is MapStatus.TIMEOUT
        assert not outcome.degraded

    def test_proven_infeasible_stops_the_ladder(self, monkeypatch):
        # A LOAD on a memory-less fabric is an instant structural proof.
        fabric = build_grid(
            GridSpec(rows=2, cols=2, with_memory=False), name="nomem"
        )
        mrrg = prune(build_mrrg_from_module(fabric, 1))
        b = DFGBuilder("loader")
        b.output(b.op("load", name="ld"), name="o")
        # The portfolio's own screens silenced, so the *stage's* proof is
        # what stops the ladder — the policy under test here.
        monkeypatch.setattr(
            "repro.service.portfolio.first_witness", lambda *a, **k: None
        )
        monkeypatch.setattr(
            "repro.service.portfolio.first_bound_witness", lambda *a, **k: None
        )
        config = PortfolioConfig(
            stages=(
                StageSpec(mapper="ilp", backend="highs", time_limit=30.0),
                StageSpec(mapper="ilp", backend="bnb", time_limit=30.0),
            ),
        )
        outcome = run_portfolio(b.build(), mrrg, config)
        assert outcome.result.status is MapStatus.INFEASIBLE
        assert outcome.result.proven_optimal
        assert len(outcome.attempts) == 1  # proof settles it; no second rung
        assert not outcome.degraded

    def test_overall_deadline_skips_remaining_stages(
        self, tiny_dfg, mrrg_2x2_ii1
    ):
        bus = _bus()
        config = PortfolioConfig(
            stages=(
                StageSpec(mapper="greedy", time_limit=10.0, seed=3,
                          restarts=4),
                StageSpec(mapper="ilp", backend="highs", time_limit=30.0),
            ),
            stop_at_first_feasible=False,
            deadline=0.0,
        )
        outcome = run_portfolio(tiny_dfg, mrrg_2x2_ii1, config, telemetry=bus)
        # Deadline already spent before the first rung: nothing ran.
        assert outcome.attempts == []
        assert outcome.result.status is MapStatus.GAVE_UP
        assert bus.log.of_kind("stage-skipped")

    def test_single_stage_helper(self, tiny_dfg, mrrg_2x2_ii1):
        config = PortfolioConfig(
            stages=single_stage("greedy", time_limit=10.0, seed=3)
        )
        outcome = run_portfolio(tiny_dfg, mrrg_2x2_ii1, config)
        assert outcome.result.status is MapStatus.MAPPED
        assert outcome.stage == "greedy"
