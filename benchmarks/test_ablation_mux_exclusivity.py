"""Ablation: constraint (9), Multiplexer Input Exclusivity.

Example 2 of the paper shows that without (9) the relaxation admits
self-reinforcing routing loops that "terminate fanout routing within the
loop instead of the required sink".  This bench reconstructs the
pathological fragment, measures both solves, and checks the verifier is
what stands between the relaxation and a wrong answer.
"""

import pytest

from repro.dfg import DFGBuilder
from repro.mrrg import mrrg_loop
from repro.mapper import ILPMapper, ILPMapperOptions, MapStatus


def loop_dfg():
    b = DFGBuilder("dfg_a")
    b.store(b.load("op1"), name="op2")
    return b.build()


def test_with_constraint9_route_is_honest(benchmark):
    mapper = ILPMapper(ILPMapperOptions())
    result = benchmark(lambda: mapper.map(loop_dfg(), mrrg_loop()))
    assert result.status is MapStatus.MAPPED
    assert result.objective == pytest.approx(8.0)  # the full honest route


def test_without_constraint9_loop_wins_and_is_caught(benchmark):
    mapper = ILPMapper(ILPMapperOptions(mux_exclusivity=False))
    result = benchmark(lambda: mapper.map(loop_dfg(), mrrg_loop()))
    assert result.status is MapStatus.ERROR
    assert "verification" in result.detail


def test_relaxation_objective_gap(benchmark, capsys):
    honest = ILPMapper(ILPMapperOptions()).map(loop_dfg(), mrrg_loop())
    relaxed = ILPMapper(ILPMapperOptions(mux_exclusivity=False)).map(
        loop_dfg(), mrrg_loop()
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert relaxed.objective < honest.objective  # the loop "looks" cheaper
    with capsys.disabled():
        print()
        print("ABLATION constraint (9) — objective on the Example-2 fragment:")
        print(f"  with (9):    {honest.objective:.0f} (legal route)")
        print(f"  without (9): {relaxed.objective:.0f} "
              "(self-reinforcing loop, illegal)")
