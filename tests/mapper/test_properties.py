"""Property-based mapper tests: every claimed mapping must verify.

Random small DFGs are mapped onto a small fabric; whenever the ILP mapper
answers MAPPED, the independent verifier must accept the mapping, and the
reported objective must equal the mapping's recomputed routing cost.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.arch import GridSpec, build_grid
from repro.dfg import DFGBuilder, OpCode
from repro.mapper import ILPMapper, ILPMapperOptions, MapStatus, verify
from repro.mrrg import build_mrrg_from_module, prune

_BINARY = [OpCode.ADD, OpCode.SUB, OpCode.MUL, OpCode.SHL]


@st.composite
def small_dfgs(draw):
    num_inputs = draw(st.integers(min_value=1, max_value=3))
    num_internal = draw(st.integers(min_value=1, max_value=3))
    b = DFGBuilder("rand")
    refs = [b.input(f"x{i}") for i in range(num_inputs)]
    for i in range(num_internal):
        opcode = draw(st.sampled_from(_BINARY))
        a = refs[draw(st.integers(0, len(refs) - 1))]
        c = refs[draw(st.integers(0, len(refs) - 1))]
        refs.append(b.op(opcode, a, c, name=f"n{i}"))
    dfg = b._dfg
    consumed = {e.src for e in dfg.edges()}
    out_count = 0
    for ref in refs:
        if ref.name not in consumed:
            b.output(ref, name=f"o{out_count}")
            out_count += 1
    return b.build()


@pytest.fixture(scope="module")
def fabric():
    top = build_grid(GridSpec(rows=2, cols=2), name="prop_fab")
    return prune(build_mrrg_from_module(top, 2))


@given(small_dfgs())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_mapped_results_always_verify(fabric, dfg):
    options = ILPMapperOptions(time_limit=60)
    result = ILPMapper(options).map(dfg, fabric)
    assert result.status in (
        MapStatus.MAPPED,
        MapStatus.INFEASIBLE,
        MapStatus.TIMEOUT,
    )
    if result.status is MapStatus.MAPPED:
        assert verify(result.mapping, strict_operands=True) == []
        assert result.mapping.routing_cost() == pytest.approx(result.objective)


@given(small_dfgs())
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_feasibility_mode_agrees_with_optimal_mode(fabric, dfg):
    optimal = ILPMapper(ILPMapperOptions(time_limit=60)).map(dfg, fabric)
    feasible = ILPMapper(
        ILPMapperOptions(time_limit=60, mip_rel_gap=1.0)
    ).map(dfg, fabric)
    decided = (MapStatus.MAPPED, MapStatus.INFEASIBLE)
    if optimal.status in decided and feasible.status in decided:
        assert optimal.status == feasible.status
        if optimal.status is MapStatus.MAPPED:
            # The optimal cost lower-bounds any feasible mapping's cost.
            assert (
                feasible.mapping.routing_cost() >= optimal.objective - 1e-6
            )
