"""Ablation: MILP backend — HiGHS vs the from-scratch branch-and-bound.

The paper used Gurobi; our substrate offers HiGHS (via SciPy) and a
pure-Python B&B.  Both are exact: on the same formulation they must agree
on the verdict and on the optimal objective.  The bench records the
performance gap that justifies HiGHS as the default.
"""

import pytest

from repro.arch import GridSpec, build_grid
from repro.dfg import DFGBuilder
from repro.mapper import ILPMapper, ILPMapperOptions, MapStatus
from repro.mrrg import build_mrrg_from_module, mrrg_a, prune


def tiny_dfg():
    b = DFGBuilder("t")
    x, y = b.input("x"), b.input("y")
    b.output(b.add(x, y, name="s"), name="o")
    return b.build()


@pytest.fixture(scope="module")
def fabric_2x2():
    top = build_grid(GridSpec(rows=2, cols=2), name="fab2")
    return prune(build_mrrg_from_module(top, 1))


def test_highs_backend(benchmark, fabric_2x2):
    mapper = ILPMapper(ILPMapperOptions(backend="highs"))
    result = benchmark(lambda: mapper.map(tiny_dfg(), fabric_2x2))
    assert result.status is MapStatus.MAPPED
    assert result.proven_optimal


def test_bnb_backend(benchmark, fabric_2x2):
    mapper = ILPMapper(ILPMapperOptions(backend="bnb", time_limit=300))
    result = benchmark.pedantic(
        lambda: mapper.map(tiny_dfg(), fabric_2x2), rounds=1, iterations=1
    )
    assert result.status is MapStatus.MAPPED


def test_backends_agree_on_objective(fabric_2x2):
    highs = ILPMapper(ILPMapperOptions(backend="highs")).map(
        tiny_dfg(), fabric_2x2
    )
    bnb = ILPMapper(ILPMapperOptions(backend="bnb", time_limit=300)).map(
        tiny_dfg(), fabric_2x2
    )
    assert highs.objective == pytest.approx(bnb.objective)


def test_backends_agree_on_infeasibility(benchmark):
    # Two stores cannot both terminate on mrrg_a's... they can (fu2, fu3);
    # instead: two loads cannot both sit on the single load-capable unit.
    b = DFGBuilder("two_loads")
    b.store(b.load("l0"), name="s0")
    b.store(b.load("l1"), name="s1")
    dfg = b.build()
    fragment = mrrg_a()

    def run_both():
        return (
            ILPMapper(ILPMapperOptions(backend="highs")).map(dfg, fragment),
            ILPMapper(ILPMapperOptions(backend="bnb")).map(dfg, fragment),
        )

    highs, bnb = benchmark(run_both)
    assert highs.status is MapStatus.INFEASIBLE
    assert bnb.status is MapStatus.INFEASIBLE
