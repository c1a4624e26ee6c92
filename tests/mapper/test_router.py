"""Tests for the congestion-negotiating router used by the SA mapper."""

import pytest

from repro.dfg import DFGBuilder
from repro.mapper.router import route_all, route_requests

from .helpers import MRRGCraft, mrrg_a, mrrg_c


def two_path_mrrg(short=1, long=3):
    """Source and sink connected by a short and a long parallel path."""
    c = MRRGCraft("two_path")
    c.fu("src", ["load"], num_ports=0)
    c.fu("dst", ["store"], with_output=False)
    prev = "src.out"
    for i in range(short):
        node = c.route(f"s{i}")
        c.edge(prev, node)
        prev = node
    c.edge(prev, "dst.in0")
    prev = "src.out"
    for i in range(long):
        node = c.route(f"l{i}")
        c.edge(prev, node)
        prev = node
    c.edge(prev, "dst.in0")
    return c.build()


@pytest.fixture
def simple_case():
    b = DFGBuilder("d")
    v = b.load("op1")
    b.store(v, name="op2")
    return b.build()


def test_route_requests_enumerate_subvalues(simple_case):
    placement = {"op1": "fu1", "op2": "fu2"}
    requests = route_requests(simple_case, placement, mrrg_a())
    assert len(requests) == 1
    assert requests[0].source_fu == "fu1"
    assert requests[0].target_fu == "fu2"
    assert requests[0].target_operand == 0


def test_shortest_path_preferred(simple_case):
    mrrg = two_path_mrrg(short=1, long=3)
    result = route_all(simple_case, {"op1": "src", "op2": "dst"}, mrrg)
    assert result.overuse == 0 and not result.unrouted
    route = result.routes[("op1", simple_case.value_of("op1").sinks[0])]
    assert "s0" in route and "l0" not in route


def test_multi_fanout_shares_prefix():
    b = DFGBuilder("fan")
    v = b.load("op1")
    b.store(v, name="op2")
    b.store(v, name="op3")
    dfg = b.build()
    placement = {"op1": "fu1", "op2": "fu2", "op3": "fu3"}
    result = route_all(dfg, placement, mrrg_c())
    assert result.overuse == 0
    sinks = dfg.value_of("op1").sinks
    r2 = result.routes[("op1", sinks[0])]
    r3 = result.routes[("op1", sinks[1])]
    assert "fu1.out" in r2 and "fu1.out" in r3  # shared prefix, no conflict


def test_unroutable_reported(simple_case):
    c = MRRGCraft("disconnected")
    c.fu("src", ["load"], num_ports=0)
    c.fu("dst", ["store"], with_output=False)
    result = route_all(simple_case, {"op1": "src", "op2": "dst"}, c.build())
    assert result.unrouted == [("op1", simple_case.value_of("op1").sinks[0])]
    assert result.cost >= 1000.0


def test_congestion_detected_when_paths_collide():
    # Two values forced through one shared wire.
    c = MRRGCraft("narrow")
    c.fu("srca", ["load"], num_ports=0)
    c.fu("srcb", ["const"], num_ports=0)
    c.fu("dsta", ["store"], with_output=False)
    c.fu("dstb", ["output"], with_output=False)
    c.route("m_a")
    c.route("m_b")
    c.route("shared")
    c.edge("srca.out", "m_a")
    c.edge("srcb.out", "m_b")
    c.edge("m_a", "shared")
    c.edge("m_b", "shared")
    c.edge("shared", "dsta.in0")
    c.edge("shared", "dstb.in0")
    b = DFGBuilder("two")
    b.store(b.load("la"), name="sa")
    b.output(b.const("kb"), name="ob")
    dfg = b.build()
    placement = {"la": "srca", "sa": "dsta", "kb": "srcb", "ob": "dstb"}
    result = route_all(dfg, placement, c.build())
    assert result.overuse == 1  # both values need the 'shared' node
    assert result.cost > 10


def test_strict_operand_targets():
    # The router must hit the exact port index.
    c = MRRGCraft("ports")
    c.fu("src", ["load"], num_ports=0)
    c.fu("alu", ["shl"], num_ports=2)
    c.fu("k", ["const"], num_ports=0)
    c.fu("dst", ["store"], with_output=False)
    c.edge("src.out", "alu.in0")
    c.edge("k.out", "alu.in1")
    c.edge("alu.out", "dst.in0")
    mrrg = c.build()
    b = DFGBuilder("d")
    v = b.load("l")
    kk = b.const("c")
    b.store(b.shl(v, kk, name="s"), name="st")
    dfg = b.build()
    placement = {"l": "src", "c": "k", "s": "alu", "st": "dst"}
    result = route_all(dfg, placement, mrrg)
    assert result.overuse == 0 and not result.unrouted
    route = result.routes[("l", dfg.value_of("l").sinks[0])]
    assert "alu.in0" in route
