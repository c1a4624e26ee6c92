"""Bounds screen wired into the II sweep and minimum-II search."""

import pytest

from repro.analyze.bounds import finding_from_dict
from repro.analyze.certify import check_finding
from repro.arch import GridSpec, build_grid, paper_architecture
from repro.dfg import DFGBuilder
from repro.ilp.status import SolveStatus
from repro.kernels.registry import kernel
from repro.mapper import ILPMapper, ILPMapperOptions, MapStatus, find_min_ii
from repro.mapper.ilp_mapper import build_formulation
from repro.mapper.sweep import IISweep
from repro.mrrg import build_mrrg_from_module, prune
from repro.mrrg import graph as graph_module
from repro.service.telemetry import EventBus, EventLog

from .helpers import exact_verdict


@pytest.fixture(scope="module")
def fabric_2x2():
    return build_grid(GridSpec(rows=2, cols=2), name="bs2x2")


def small_dfg(num_adds: int):
    b = DFGBuilder(f"adds{num_adds}")
    xs = [b.input(f"x{i}") for i in range(num_adds + 1)]
    acc = xs[0]
    for i in range(num_adds):
        acc = b.add(acc, xs[i + 1], name=f"a{i}")
    b.output(acc, name="o")
    return b.build()


def fast_mapper():
    return ILPMapper(ILPMapperOptions(time_limit=60, mip_rel_gap=1.0))


def test_find_min_ii_skips_refuted_ii_with_certificate(fabric_2x2):
    result = find_min_ii(
        small_dfg(5), fabric_2x2, mapper_factory=fast_mapper
    )
    assert result.best_ii == 2
    assert result.screened_iis == (1,)
    refuted = result.attempts[1]
    assert refuted.status is MapStatus.INFEASIBLE
    assert refuted.proven_optimal
    assert refuted.certificate is not None
    assert "bounds screen B" in refuted.detail
    # The certificate re-verifies against an independently built MRRG.
    mrrg = prune(build_mrrg_from_module(fabric_2x2, 1))
    check_finding(finding_from_dict(refuted.certificate), small_dfg(5), mrrg=mrrg)


@pytest.mark.parametrize("name", ["accum", "add_16", "mult_10"])
def test_registry_kernels_skip_ii1_via_certificates(fabric_2x2, name):
    """Three Table-1 kernels provably skip II=1 without any solver."""
    dfg = kernel(name)
    result = find_min_ii(
        dfg, fabric_2x2, max_ii=1, mapper_factory=fast_mapper
    )
    assert result.best_ii is None
    assert result.screened_iis == (1,)
    refuted = result.attempts[1]
    assert refuted.solve_time == 0.0  # no solver ran
    mrrg = prune(build_mrrg_from_module(fabric_2x2, 1))
    check_finding(finding_from_dict(refuted.certificate), dfg, mrrg=mrrg)


def test_verdict_identical_with_and_without_screen(fabric_2x2):
    dfg = small_dfg(5)
    with_screen = find_min_ii(dfg, fabric_2x2, mapper_factory=fast_mapper)
    assert with_screen.best_ii == 2
    # The unscreened exact solver agrees at every II the search visited.
    unscreened = [
        exact_verdict(dfg, prune(build_mrrg_from_module(fabric_2x2, ii)))
        for ii in (1, 2)
    ]
    assert unscreened[0] is SolveStatus.INFEASIBLE
    assert unscreened[1].has_solution


def test_sweep_emits_bounds_screen_telemetry(fabric_2x2):
    bus, log = EventBus(), EventLog()
    bus.subscribe(log)
    sweep = IISweep(small_dfg(5), fabric_2x2, telemetry=bus)
    sweep.run(2, fast_mapper)
    events = log.of_kind("bounds-screen")
    assert len(events) == 2
    assert events[0].fields["ii"] == 1
    assert events[0].fields["verdict"] == "infeasible"
    assert events[0].fields["rule"].startswith("B")
    assert events[1].fields["verdict"] == "unknown"
    assert all(e.duration is not None and e.duration >= 0 for e in events)


def test_sweep_screen_shares_reach_cache(fabric_2x2, monkeypatch):
    """The screen's forward reach is memoized on the MRRG, so a later
    formulation build on it only searches backward from operand ports."""
    sweep = IISweep(small_dfg(5), fabric_2x2)
    assert sweep.screen(2) is None  # B003 ran and searched forward
    mrrg = sweep.mrrg(2)
    searched: list[frozenset[str]] = []
    real_bfs = graph_module._bfs

    def spying(starts, adjacency):
        searched.append(frozenset(starts))
        return real_bfs(starts, adjacency)

    monkeypatch.setattr(graph_module, "_bfs", spying)
    assert build_formulation(sweep.dfg, mrrg).infeasible_reason is None
    assert searched
    assert all(mrrg.node(n).operand is not None for s in searched for n in s)


def test_ilp_mapper_standalone_screen():
    """ILPMapper.map itself refuses an instance that the S-screen passes
    and the B-screen refutes: 2x2-f on the paper's 2x2 fabric at II=1."""
    dfg = kernel("2x2-f")
    top = paper_architecture("homogeneous", "orthogonal", rows=2, cols=2)
    mrrg = prune(build_mrrg_from_module(top, 1))
    bus, log = EventBus(), EventLog()
    bus.subscribe(log)
    result = ILPMapper(ILPMapperOptions(time_limit=30), telemetry=bus).map(
        dfg, mrrg
    )
    assert result.status is MapStatus.INFEASIBLE
    assert result.proven_optimal
    assert result.certificate is not None
    assert result.certificate["rule"] == "B001"
    assert "pre-audit" not in log.kinds()  # the S-screen passed
    assert "solve" not in log.kinds()
    # The unscreened solver agrees, the hard way.
    assert exact_verdict(dfg, mrrg, time_limit=30) is SolveStatus.INFEASIBLE
