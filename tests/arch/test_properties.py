"""Property-based tests for the architecture layer (hypothesis)."""

from __future__ import annotations

from collections import Counter

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.arch import (
    Architecture,
    GridSpec,
    build_grid,
    flatten,
    parse_architecture,
    serialize_architecture,
)
from repro.arch.grid import heterogeneous_ops, homogeneous_ops, io_adjacency
from repro.mrrg import assert_valid, build_mrrg


@st.composite
def grid_specs(draw) -> GridSpec:
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    with_io = draw(st.booleans())
    with_memory = draw(st.booleans())
    if rows == 1 and cols == 1 and not with_io and not with_memory:
        with_io = True  # a 1x1 grid needs some connectivity to exist
    return GridSpec(
        rows=rows,
        cols=cols,
        interconnect=draw(st.sampled_from(["orthogonal", "diagonal"])),
        ops_for=draw(st.sampled_from([homogeneous_ops, heterogeneous_ops])),
        with_io=with_io,
        with_memory=with_memory,
        reg_feedback=draw(st.booleans()),
        route_through=draw(st.sampled_from(["none", "shared", "dedicated"])),
        io_span=draw(st.integers(0, 2)),
    )


@given(grid_specs())
@settings(max_examples=25, deadline=None)
def test_every_grid_validates_and_flattens(spec):
    top = build_grid(spec, name="g")
    assert top.validate() == []
    netlist = flatten(top)
    assert netlist.primitives
    # Every net has exactly one driver by construction.
    for net in netlist.nets:
        assert net.sinks


@given(grid_specs(), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_mrrg_replication_invariants(spec, ii):
    top = build_grid(spec, name="g")
    mrrg = build_mrrg(flatten(top), ii)
    assert_valid(mrrg)
    usage = Counter(node.context for node in mrrg.nodes)
    # Modulo replication puts the same resources in every context.
    assert len({usage[c] for c in range(ii)}) == 1


@given(grid_specs())
@settings(max_examples=15, deadline=None)
def test_adl_round_trip_preserves_netlist(spec):
    top = build_grid(spec, name="g")
    arch = Architecture.from_top(top)
    again = parse_architecture(serialize_architecture(arch))
    original = flatten(top)
    reparsed = flatten(again.top_module)
    assert set(original.primitives) == set(reparsed.primitives)
    assert {(n.driver, n.sinks) for n in original.nets} == {
        (n.driver, n.sinks) for n in reparsed.nets
    }


@given(grid_specs())
@settings(max_examples=25, deadline=None)
def test_io_adjacency_within_bounds(spec):
    for blocks in io_adjacency(spec).values():
        assert blocks  # a pad always reaches at least its own edge block
        for r, c in blocks:
            assert 0 <= r < spec.rows
            assert 0 <= c < spec.cols
