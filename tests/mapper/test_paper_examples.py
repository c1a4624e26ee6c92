"""The paper's Examples 1-3 (Section 4.2) as executable tests.

These tests reconstruct Fig. 4's MRRG fragments and Fig. 5's DFG
fragments and check that the formulation behaves exactly as the paper
argues: termination implies placement (Ex. 1), Multiplexer Input
Exclusivity kills self-reinforcing loops (Ex. 2), and per-sink sub-value
routing is required for multi-fanout correctness (Ex. 3).
"""

import pytest

from repro.dfg import DFGBuilder
from repro.mapper import ILPMapper, ILPMapperOptions, MapStatus, verify

from .helpers import mrrg_a, mrrg_c, mrrg_loop


def dfg_a():
    """Fig. 5 DFG A: Op1 -> (single-fanout value) -> Op2."""
    b = DFGBuilder("dfg_a")
    v = b.load("op1")
    b.store(v, name="op2")
    return b.build()


def dfg_b():
    """Fig. 5 DFG B: Op1's value fans out to Op2 and Op3."""
    b = DFGBuilder("dfg_b")
    v = b.load("op1")
    b.store(v, name="op2")
    b.store(v, name="op3")
    return b.build()


class TestExample1:
    """Routing terminates at FU2 or FU3, implying Op2's placement."""

    def test_mapping_found_and_placement_implied(self):
        result = ILPMapper().map(dfg_a(), mrrg_a())
        assert result.status is MapStatus.MAPPED
        mapping = result.mapping
        assert mapping.placement["op1"] == "fu1"
        # Op2 lands wherever the route terminated (fu2 or fu3).
        assert mapping.placement["op2"] in ("fu2", "fu3")
        route = mapping.route_of("op1", mapping.dfg.value_of("op1").sinks[0])
        terminal = mapping.placement["op2"] + ".in0"
        assert "fu1.out" in route and terminal in route

    def test_optimal_route_uses_two_nodes(self):
        result = ILPMapper().map(dfg_a(), mrrg_a())
        # fu1.out plus exactly one terminal port.
        assert result.objective == pytest.approx(2.0)
        assert result.proven_optimal


class TestExample2:
    """Without constraint (9) a routing loop absorbs the route."""

    def test_with_mux_exclusivity_route_reaches_sink(self):
        result = ILPMapper().map(dfg_a(), mrrg_loop())
        assert result.status is MapStatus.MAPPED
        route = result.mapping.route_of(
            "op1", result.mapping.dfg.value_of("op1").sinks[0]
        )
        assert "fu2.in0" in route
        # The loop-back node is never part of an optimal legal route.
        assert "b" not in route

    def test_without_mux_exclusivity_optimizer_prefers_broken_stop(self):
        options = ILPMapperOptions(mux_exclusivity=False)
        result = ILPMapper(options).map(dfg_a(), mrrg_loop())
        # The relaxed ILP accepts a cheaper self-reinforcing loop; our
        # independent verifier refuses the extracted mapping.
        assert result.status is MapStatus.ERROR
        assert "verification" in result.detail

    def test_loop_cost_really_is_lower(self):
        # Sanity: the honest route costs 5 + tail, the broken stop 5.
        honest = ILPMapper().map(dfg_a(), mrrg_loop(tail_length=3))
        # out, a, m, cc, q0, q1, q2, in0 = 8 resources.
        assert honest.objective == pytest.approx(8.0)

        relaxed = ILPMapper(ILPMapperOptions(mux_exclusivity=False)).map(
            dfg_a(), mrrg_loop(tail_length=3)
        )
        assert relaxed.objective == pytest.approx(5.0)  # out,a,m,cc,b


class TestExample3:
    """Whole-value routing cannot express two-sink fanout correctly."""

    def test_sub_value_routing_reaches_both_sinks(self):
        result = ILPMapper().map(dfg_b(), mrrg_c())
        assert result.status is MapStatus.MAPPED
        mapping = result.mapping
        placed = {mapping.placement["op2"], mapping.placement["op3"]}
        assert placed == {"fu2", "fu3"}
        assert verify(mapping) == []

    def test_whole_value_mode_produces_illegal_mapping(self):
        options = ILPMapperOptions(split_sub_values=False)
        result = ILPMapper(options).map(dfg_b(), mrrg_c())
        # The value-level relaxation claims feasibility but cannot route
        # to both sinks; extraction fails independent verification.
        assert result.status is MapStatus.ERROR
        assert "verification" in result.detail

    def test_whole_value_mode_is_fine_for_single_fanout(self):
        options = ILPMapperOptions(split_sub_values=False)
        result = ILPMapper(options).map(dfg_a(), mrrg_a())
        assert result.status is MapStatus.MAPPED
        assert verify(result.mapping) == []
