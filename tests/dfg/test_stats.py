"""Tests for DFG statistics (Table 1 characteristics)."""

from repro.dfg import DFGBuilder, compute
from repro.kernels import add_n


def test_tiny_stats(tiny_dfg):
    stats = compute(tiny_dfg)
    assert stats.ios == 3  # x, y, o
    assert stats.internal_ops == 1  # the add
    assert stats.multiplies == 0
    assert stats.total_ops == 4
    assert stats.values == 3
    assert stats.edges == 3
    assert stats.back_edges == 0
    assert stats.max_fanout == 1
    assert stats.depth == 3  # input -> add -> output


def test_fanout_and_depth(fanout_dfg):
    stats = compute(fanout_dfg)
    assert stats.max_fanout == 2  # x feeds s and sh
    assert stats.depth == 4


def test_back_edges_counted():
    b = DFGBuilder("acc")
    x = b.input("x")
    ph = b.defer()
    acc = b.add(x, ph, name="acc")
    b.bind_back(ph, acc)
    b.output(acc)
    stats = compute(b.build())
    assert stats.back_edges == 1
    # Depth ignores the back-edge (otherwise it would be infinite).
    assert stats.depth == 3


def test_store_counts_as_internal():
    dfg = add_n(4)
    stats = compute(dfg)
    assert stats.ios == 4
    assert stats.internal_ops == 4  # 3 adds + 1 store
