"""MRRG generation for full grids (Fig. 3's composed block and beyond)."""

from collections import Counter

import pytest

from repro.arch import GridSpec, build_grid, flatten, functional_block, paper_architecture
from repro.arch.module import Module
from repro.dfg import OpCode
from repro.mrrg import (
    assert_valid,
    build_mrrg,
    build_mrrg_from_module,
    node_id,
    prune,
    stats,
)


class TestFig3Block:
    """Fig. 3: functional block = FU (L=0) + register + input muxes."""

    @pytest.fixture(scope="class")
    def block_mrrg(self):
        fb = functional_block("fb", num_inputs=2, route_through="shared")
        wrapper = Module("w")
        wrapper.add_instance("fb", fb)
        wrapper.add_fu("gen0", [OpCode.LOAD])
        wrapper.add_fu("gen1", [OpCode.LOAD])
        wrapper.add_fu("sink", [OpCode.STORE])
        wrapper.connect("gen0.out", "fb.in0")
        wrapper.connect("gen1.out", "fb.in1")
        wrapper.connect("fb.out", "sink.in0")
        return build_mrrg(flatten(wrapper), 1)

    def test_alu_operands_come_from_muxes(self, block_mrrg):
        g = block_mrrg
        alu = g.node(node_id(0, "fb/alu", "fu"))
        in0 = g.node(alu.operand_ports[0])
        assert g.fanins(in0.node_id) == (node_id(0, "fb/mux_a", "mux"),)

    def test_alu_output_fans_to_register_and_bypass(self, block_mrrg):
        g = block_mrrg
        alu = g.node(node_id(0, "fb/alu", "fu"))
        fanouts = set(g.fanouts(alu.output))
        assert node_id(0, "fb/reg", "in") in fanouts
        assert node_id(0, "fb/bypass", "in0") in fanouts

    def test_register_output_reaches_bypass_and_feedback(self, block_mrrg):
        g = block_mrrg
        reg_out = node_id(0, "fb/reg", "out")
        fanouts = set(g.fanouts(reg_out))
        assert node_id(0, "fb/bypass", "in1") in fanouts
        # reg feedback into both operand muxes (their last input).
        assert any("mux_a" in f for f in fanouts)
        assert any("mux_b" in f for f in fanouts)

    def test_structurally_valid(self, block_mrrg):
        assert_valid(block_mrrg)


class TestGridMRRG:
    @pytest.mark.parametrize("ii", [1, 2, 3])
    def test_replication_is_exactly_linear(self, ii):
        top = build_grid(GridSpec(rows=2, cols=2), name="g")
        base = build_mrrg_from_module(top, 1)
        replicated = build_mrrg_from_module(top, ii)
        assert len(replicated) == ii * len(base)
        assert replicated.num_edges() == ii * base.num_edges()

    def test_contexts_evenly_populated(self):
        top = build_grid(GridSpec(rows=2, cols=2), name="g")
        g = build_mrrg_from_module(top, 2)
        usage = Counter(node.context for node in g.nodes)
        assert usage[0] == usage[1]

    def test_paper_archs_validate(self):
        for style in ("homogeneous", "heterogeneous"):
            for wires in ("orthogonal", "diagonal"):
                top = paper_architecture(style, wires, rows=2, cols=2)
                for ii in (1, 2):
                    assert_valid(build_mrrg_from_module(top, ii))

    def test_heterogeneous_mul_slot_count(self):
        top = paper_architecture("heterogeneous", "orthogonal")
        g = build_mrrg_from_module(top, 1)
        muls = g.function_nodes_supporting(OpCode.MUL)
        assert len(muls) == 8
        g2 = build_mrrg_from_module(top, 2)
        assert len(g2.function_nodes_supporting(OpCode.MUL)) == 16

    def test_io_and_memory_slots(self):
        top = paper_architecture("homogeneous", "orthogonal")
        g = build_mrrg_from_module(top, 1)
        assert len(g.function_nodes_supporting(OpCode.INPUT)) == 16
        assert len(g.function_nodes_supporting(OpCode.LOAD)) == 4

    def test_stats_summary(self):
        top = paper_architecture("homogeneous", "orthogonal")
        g = build_mrrg_from_module(top, 1)
        s = stats(g)
        assert s.num_function == 36  # 16 ALUs + 16 pads + 4 memory ports
        assert s.num_nodes == s.num_function + s.num_route
        assert s.ops_histogram[OpCode.ADD] == 16

    def test_prune_removes_nothing_on_clean_grid(self):
        top = paper_architecture("homogeneous", "orthogonal")
        g = build_mrrg_from_module(top, 1)
        assert len(prune(g)) == len(g)

    def test_prune_removes_dead_route_nodes(self):
        # A mux whose output feeds nothing is unusable and gets pruned.
        m = Module("m")
        m.add_fu("gen", [OpCode.LOAD])
        m.add_fu("sink", [OpCode.STORE])
        m.add_mux("dead", 2)
        m.connect("gen.out", "sink.in0")
        m.connect("gen.out", "dead.in0")
        g = build_mrrg(flatten(m), 1)
        pruned = prune(g)
        assert node_id(0, "dead", "mux") in g
        assert node_id(0, "dead", "mux") not in pruned
        assert_valid(pruned)
