"""Tests for MRRG analysis helpers."""

from collections import Counter

from repro.dfg import OpCode
from repro.mrrg import node_id, stats


def test_reachable_route_nodes_stops_at_functions(mrrg_2x2_ii1):
    g = mrrg_2x2_ii1
    alu = g.node(node_id(0, "fb_0_0/alu", "fu"))
    reach = g.forward_reach(g.route_fanouts(alu.output))
    assert alu.output not in reach or g.fanouts(alu.output)
    # Reachability never includes FUNCTION nodes.
    assert all(g.node(n).is_route for n in reach)
    # The block's own register input is directly downstream.
    assert node_id(0, "fb_0_0/reg", "in") in reach


def test_reachable_covers_neighbours(mrrg_2x2_ii1):
    g = mrrg_2x2_ii1
    alu = g.node(node_id(0, "fb_0_0/alu", "fu"))
    reach = g.forward_reach(g.route_fanouts(alu.output))
    # A neighbouring block's operand mux input is reachable.
    assert any("fb_0_1/mux_a" in n for n in reach)


def test_stats_histogram_counts_slots(mrrg_2x2_ii2):
    s = stats(mrrg_2x2_ii2)
    assert s.ii == 2
    # 4 ALUs x 2 contexts.
    assert s.ops_histogram[OpCode.MUL] == 8
    assert s.num_function == (4 + 8 + 2) * 2  # ALUs + pads + mem, x2 contexts


def test_contexts_used_partition(mrrg_2x2_ii2):
    usage = Counter(node.context for node in mrrg_2x2_ii2.nodes)
    assert set(usage) == {0, 1}
    assert sum(usage.values()) == len(mrrg_2x2_ii2)


def test_dot_export(mrrg_2x2_ii1):
    from repro.mrrg import to_dot

    dot = to_dot(mrrg_2x2_ii1, max_nodes=50)
    assert dot.startswith("digraph")
    assert "cluster_ctx0" in dot
    assert "->" in dot
