"""End-to-end ILP mapper tests on real fabrics."""

import pytest

from repro.dfg import DFGBuilder
from repro.kernels import accum, conv_2x2_f, kernel, mac
from repro.mapper import ILPMapper, ILPMapperOptions, MapStatus, verify

from .helpers import crossed_operand_mrrg


class TestOnGrid:
    def test_tiny_dfg_maps_optimally(self, tiny_dfg, mrrg_2x2_ii1):
        result = ILPMapper().map(tiny_dfg, mrrg_2x2_ii1)
        assert result.status is MapStatus.MAPPED
        assert result.proven_optimal
        assert verify(result.mapping, strict_operands=True) == []
        assert result.objective == result.mapping.routing_cost()

    def test_multi_fanout_routes_verified(self, fanout_dfg, mrrg_2x2_ii1):
        result = ILPMapper().map(fanout_dfg, mrrg_2x2_ii1)
        assert result.status is MapStatus.MAPPED
        assert verify(result.mapping, strict_operands=True) == []

    def test_accumulator_back_edge_maps(self, mrrg_2x2_ii1):
        b = DFGBuilder("loop")
        x = b.input("x")
        ph = b.defer()
        acc = b.add(x, ph, name="acc")
        b.bind_back(ph, acc)
        b.output(acc, name="o")
        result = ILPMapper().map(b.build(), mrrg_2x2_ii1)
        assert result.status is MapStatus.MAPPED
        # The loop-carried operand routes through the block's register
        # back to its own input.
        route = result.mapping.route_of(
            "acc", next(s for s in result.mapping.dfg.value_of("acc").sinks
                        if s.op == "acc")
        )
        assert any("reg" in node for node in route)

    def test_memory_ops_map_to_memory_ports(self, mrrg_2x2_ii1):
        b = DFGBuilder("mem")
        v = b.load("ld")
        b.store(b.add(v, v, name="s"), name="st")
        result = ILPMapper().map(b.build(), mrrg_2x2_ii1)
        assert result.status is MapStatus.MAPPED
        assert "mem_" in result.mapping.placement["ld"]
        assert "mem_" in result.mapping.placement["st"]

    def test_too_many_ops_is_proven_infeasible(self, mrrg_2x2_ii1):
        # 5 adds > 4 ALUs on a 2x2 single-context fabric.
        b = DFGBuilder("big")
        xs = [b.input(f"x{i}") for i in range(6)]
        level = [b.add(xs[i], xs[i + 1], name=f"a{i}") for i in range(5)]
        for i, node in enumerate(level):
            b.output(node, name=f"o{i}")
        result = ILPMapper().map(b.build(), mrrg_2x2_ii1)
        assert result.status is MapStatus.INFEASIBLE
        assert result.proven_optimal  # the verdict is a proof

    def test_second_context_doubles_capacity(self, mrrg_2x2_ii1, mrrg_2x2_ii2):
        # 5 adds > 4 ALUs per context, as above, but as a reduction tree:
        # only ALU results cross contexts (through the block register), so
        # the adds can split over two contexts.  Pads hold no value, so
        # adds sharing an input share its context; the chain above cannot
        # split and stays infeasible at II=2.
        b = DFGBuilder("big")
        xs = [b.input(f"x{i}") for i in range(6)]
        a0 = b.add(xs[0], xs[1], name="a0")
        a1 = b.add(xs[2], xs[3], name="a1")
        a2 = b.add(a0, a1, name="a2")
        a3 = b.add(a2, xs[4], name="a3")
        b.output(b.add(a3, xs[5], name="a4"), name="o")
        dfg = b.build()
        assert ILPMapper().map(dfg, mrrg_2x2_ii1).status is MapStatus.INFEASIBLE
        result = ILPMapper(ILPMapperOptions(time_limit=120)).map(dfg, mrrg_2x2_ii2)
        assert result.status is MapStatus.MAPPED

    def test_heterogeneous_multiplier_limit(self, mrrg_2x2_hetero_ii1):
        # 2x2 hetero has 2 multiplier ALUs; three muls cannot map.
        b = DFGBuilder("muls")
        xs = [b.input(f"x{i}") for i in range(4)]
        m0 = b.mul(xs[0], xs[1], name="m0")
        m1 = b.mul(xs[2], xs[3], name="m1")
        m2 = b.mul(m0, m1, name="m2")
        b.output(m2, name="o")
        result = ILPMapper().map(b.build(), mrrg_2x2_hetero_ii1)
        assert result.status is MapStatus.INFEASIBLE

    def test_bnb_backend_agrees_on_tiny_case(self, tiny_dfg, mrrg_2x2_ii1):
        highs = ILPMapper(ILPMapperOptions(backend="highs")).map(
            tiny_dfg, mrrg_2x2_ii1
        )
        bnb = ILPMapper(
            ILPMapperOptions(backend="bnb", time_limit=120)
        ).map(tiny_dfg, mrrg_2x2_ii1)
        assert bnb.status is MapStatus.MAPPED
        assert bnb.objective == pytest.approx(highs.objective)
        assert verify(bnb.mapping) == []

    def test_feasibility_mode_returns_usable_mapping(self, mrrg_3x3_ii1):
        result = ILPMapper(ILPMapperOptions(mip_rel_gap=1.0)).map(
            conv_2x2_f(), mrrg_3x3_ii1
        )
        assert result.status is MapStatus.MAPPED
        assert verify(result.mapping) == []

    def test_real_kernels_map_on_4x4(self, mrrg_4x4_ii1):
        for dfg in (accum(), mac(), kernel("2x2-p")):
            result = ILPMapper(
                ILPMapperOptions(mip_rel_gap=1.0, time_limit=120)
            ).map(dfg, mrrg_4x4_ii1)
            assert result.status is MapStatus.MAPPED, dfg.name
            assert verify(result.mapping, strict_operands=True) == []


class TestOperandModes:
    def test_strict_mode_rejects_crossed_wiring(self):
        """Each operand lands on its own port, even of a commutative op."""
        b = DFGBuilder("c")
        a = b.load("a")
        k = b.const("k")
        b.store(b.add(a, k, name="s"), name="st")
        result = ILPMapper().map(b.build(), crossed_operand_mrrg())
        assert result.status is MapStatus.INFEASIBLE

    def test_x_plus_x_drives_both_ports(self, mrrg_2x2_ii1):
        b = DFGBuilder("sq")
        x = b.input("x")
        b.output(b.add(x, x, name="d"), name="o")
        result = ILPMapper().map(b.build(), mrrg_2x2_ii1)
        assert result.status is MapStatus.MAPPED
        assert verify(result.mapping, strict_operands=True) == []


class TestResultMetadata:
    def test_times_reported(self, tiny_dfg, mrrg_2x2_ii1):
        result = ILPMapper().map(tiny_dfg, mrrg_2x2_ii1)
        assert result.formulation_time > 0
        assert result.solve_time > 0
        assert result.total_time == pytest.approx(
            result.formulation_time + result.solve_time
        )

    def test_table2_symbols(self):
        assert MapStatus.MAPPED.table2_symbol == "1"
        assert MapStatus.INFEASIBLE.table2_symbol == "0"
        assert MapStatus.TIMEOUT.table2_symbol == "T"
        assert MapStatus.ERROR.table2_symbol == "?"
