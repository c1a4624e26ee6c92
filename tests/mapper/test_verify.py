"""Tests for the independent mapping verifier.

Each test corrupts a known-good mapping in one specific way and checks
the verifier reports exactly that class of violation.
"""

import dataclasses

import pytest

from repro.dfg import DFGBuilder, Sink
from repro.mapper import ILPMapper, verify

from .helpers import mrrg_a, mrrg_c


@pytest.fixture
def good_mapping():
    b = DFGBuilder("dfg_a")
    v = b.load("op1")
    b.store(v, name="op2")
    result = ILPMapper().map(b.build(), mrrg_a())
    assert result.mapping is not None
    return result.mapping


@pytest.fixture
def fanout_mapping():
    b = DFGBuilder("dfg_b")
    v = b.load("op1")
    b.store(v, name="op2")
    b.store(v, name="op3")
    result = ILPMapper().map(b.build(), mrrg_c())
    assert result.mapping is not None
    return result.mapping


def test_good_mappings_verify_clean(good_mapping, fanout_mapping):
    assert verify(good_mapping, strict_operands=True) == []
    assert verify(fanout_mapping, strict_operands=True) == []


def test_missing_placement_reported(good_mapping):
    placement = dict(good_mapping.placement)
    del placement["op2"]
    broken = dataclasses.replace(good_mapping, placement=placement)
    issues = verify(broken)
    assert any("not placed" in issue for issue in issues)


def test_placement_on_missing_node_reported(good_mapping):
    placement = dict(good_mapping.placement)
    placement["op1"] = "ghost"
    broken = dataclasses.replace(good_mapping, placement=placement)
    assert any("missing node" in issue for issue in verify(broken))


def test_placement_on_route_node_reported(good_mapping):
    placement = dict(good_mapping.placement)
    placement["op1"] = "fu1.out"  # a RouteRes node
    broken = dataclasses.replace(good_mapping, placement=placement)
    assert any("non-FuncUnit" in issue for issue in verify(broken))


def test_unsupported_opcode_reported(good_mapping):
    placement = dict(good_mapping.placement)
    placement["op1"], placement["op2"] = placement["op2"], placement["op1"]
    broken = dataclasses.replace(good_mapping, placement=placement)
    issues = verify(broken)
    assert any("does not support" in issue for issue in issues)


def test_shared_fu_reported(fanout_mapping):
    placement = dict(fanout_mapping.placement)
    placement["op3"] = placement["op2"]
    broken = dataclasses.replace(fanout_mapping, placement=placement)
    issues = verify(broken)
    assert any("hosts both" in issue for issue in issues)


def test_missing_route_reported(good_mapping):
    broken = dataclasses.replace(good_mapping, routes={})
    issues = verify(broken)
    assert any("has no route" in issue for issue in issues)


def test_disconnected_route_reported(good_mapping):
    sink = good_mapping.dfg.value_of("op1").sinks[0]
    routes = dict(good_mapping.routes)
    # Drop the source output node: no path remains.
    routes[("op1", sink)] = frozenset(
        n for n in routes[("op1", sink)] if n != "fu1.out"
    )
    broken = dataclasses.replace(good_mapping, routes=routes)
    issues = verify(broken)
    assert any("source" in issue for issue in issues)


def test_route_not_reaching_sink_reported(fanout_mapping):
    sink3 = next(
        s for s in fanout_mapping.dfg.value_of("op1").sinks if s.op == "op3"
    )
    routes = dict(fanout_mapping.routes)
    terminal = fanout_mapping.placement["op3"] + ".in0"
    routes[("op1", sink3)] = frozenset(
        n for n in routes[("op1", sink3)] if n != terminal
    )
    broken = dataclasses.replace(fanout_mapping, routes=routes)
    issues = verify(broken)
    assert any("no path" in issue for issue in issues)


def test_route_exclusivity_violation_reported(fanout_mapping):
    # Force op1's two sub-values and a fake second value onto one node.
    sinks = fanout_mapping.dfg.value_of("op1").sinks
    routes = dict(fanout_mapping.routes)
    shared = routes[("op1", sinks[0])]
    # Fabricate a different producer using the same nodes.
    routes[("op2", Sink("op3", 0))] = shared
    broken = dataclasses.replace(fanout_mapping, routes=routes)
    issues = verify(broken)
    assert any("multiple values" in issue for issue in issues)


def test_strict_operand_check(fanout_mapping):
    # Moving op2's sub-value to terminate at op3's port violates strict
    # operand checking (the route reaches a port of the wrong FU).
    sinks = fanout_mapping.dfg.value_of("op1").sinks
    s2 = next(s for s in sinks if s.op == "op2")
    routes = dict(fanout_mapping.routes)
    routes[("op1", s2)] = routes[("op1", next(s for s in sinks if s.op == "op3"))]
    broken = dataclasses.replace(fanout_mapping, routes=routes)
    issues = verify(broken, strict_operands=True)
    assert issues
