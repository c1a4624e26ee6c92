"""Tests for the sweep runner (on tiny grids for speed)."""

import pytest

from repro.arch.testsuite import PaperArch
from repro.explore import (
    SweepConfig,
    build_arch_mrrg,
    compare_mappers,
    feasible_counts,
    run_sweep,
)
from repro.mapper import MapStatus

TINY_ARCHS = (
    PaperArch("homoge_orth_ii1", "homogeneous", "orthogonal", 1),
    PaperArch("homoge_orth_ii2", "homogeneous", "orthogonal", 2),
)


@pytest.fixture(scope="module")
def tiny_config():
    return SweepConfig(
        benchmarks=("2x2-f", "accum"),
        architectures=TINY_ARCHS,
        time_limit=120,
        rows=3,
        cols=3,
    )


@pytest.fixture(scope="module")
def tiny_mrrgs():
    return {a.key: build_arch_mrrg(a, 3, 3) for a in TINY_ARCHS}


def test_build_arch_mrrg_contexts():
    one = build_arch_mrrg(TINY_ARCHS[0], 2, 2)
    two = build_arch_mrrg(TINY_ARCHS[1], 2, 2)
    assert two.ii == 2
    assert len(two) == 2 * len(one)


def test_run_sweep_produces_full_grid(tiny_config, tiny_mrrgs):
    records = run_sweep(tiny_config, mrrgs=tiny_mrrgs)
    assert len(records) == 4  # 2 benchmarks x 2 architectures
    assert {r.benchmark for r in records} == {"2x2-f", "accum"}
    assert all(r.mapper == "ilp" for r in records)
    assert all(
        r.status in (MapStatus.MAPPED, MapStatus.INFEASIBLE, MapStatus.TIMEOUT)
        for r in records
    )


def test_progress_callback_fires(tiny_config, tiny_mrrgs):
    seen = []
    config = SweepConfig(
        benchmarks=("2x2-f",),
        architectures=TINY_ARCHS[:1],
        time_limit=120,
        rows=3,
        cols=3,
        progress=seen.append,
    )
    run_sweep(config, mrrgs=tiny_mrrgs)
    assert len(seen) == 1
    assert seen[0].benchmark == "2x2-f"


def test_feasible_counts(tiny_config, tiny_mrrgs):
    records = run_sweep(tiny_config, mrrgs=tiny_mrrgs)
    counts = feasible_counts(records)
    assert set(counts) == {a.key for a in TINY_ARCHS}
    # Dual context can never map fewer benchmarks than single context.
    assert counts["homoge_orth_ii2"] >= counts["homoge_orth_ii1"]


def test_greedy_sweep(tiny_mrrgs):
    config = SweepConfig(
        benchmarks=("2x2-f",),
        architectures=TINY_ARCHS[:1],
        time_limit=60,
        rows=3,
        cols=3,
    )
    records = run_sweep(config, mapper_name="greedy", mrrgs=tiny_mrrgs)
    assert records[0].mapper == "greedy"
    assert records[0].status in (MapStatus.MAPPED, MapStatus.GAVE_UP)


def test_sweep_resumes_from_store(tmp_path, tiny_mrrgs):
    from repro.explore import load_records
    from repro.mapper.greedy_mapper import GreedyMapper, GreedyMapperOptions

    calls = []

    def counting_factory(config):
        calls.append(1)
        return GreedyMapper(
            GreedyMapperOptions(seed=7, restarts=6, time_limit=30)
        )

    store = str(tmp_path / "records.jsonl")
    partial = SweepConfig(
        benchmarks=("accum",), architectures=TINY_ARCHS[:1], rows=3, cols=3
    )
    run_sweep(
        partial,
        mapper_factory=counting_factory,
        mapper_name="greedy",
        mrrgs=tiny_mrrgs,
        store_path=store,
    )
    assert len(calls) == 1
    assert len(load_records(store)) == 1

    # Re-running with a larger grid (as after an interrupt) must solve
    # only the missing cell and restore the finished one from the store.
    full = SweepConfig(
        benchmarks=("accum", "2x2-f"),
        architectures=TINY_ARCHS[:1],
        rows=3,
        cols=3,
    )
    records = run_sweep(
        full,
        mapper_factory=counting_factory,
        mapper_name="greedy",
        mrrgs=tiny_mrrgs,
        store_path=store,
    )
    assert len(calls) == 2  # one new solve, not two
    assert [r.benchmark for r in records] == ["accum", "2x2-f"]
    assert len(load_records(store)) == 2

    # A third run is a pure restore: no solver calls at all.
    again = run_sweep(
        full,
        mapper_factory=counting_factory,
        mapper_name="greedy",
        mrrgs=tiny_mrrgs,
        store_path=store,
    )
    assert len(calls) == 2
    assert len(again) == 2


def test_sweep_resumes_after_a_torn_last_line(tmp_path, tiny_mrrgs):
    """A sweep killed mid-write leaves half a record: the resume skips it,
    runs that cell again and stores it on a line of its own."""
    from repro.explore import load_records
    from repro.mapper.greedy_mapper import GreedyMapper, GreedyMapperOptions

    calls = []

    def counting_factory(config):
        calls.append(1)
        return GreedyMapper(
            GreedyMapperOptions(seed=7, restarts=6, time_limit=30)
        )

    store = tmp_path / "records.jsonl"
    config = SweepConfig(
        benchmarks=("accum", "2x2-f"),
        architectures=TINY_ARCHS[:1],
        rows=3,
        cols=3,
    )

    def sweep():
        return run_sweep(
            config,
            mapper_factory=counting_factory,
            mapper_name="greedy",
            mrrgs=tiny_mrrgs,
            store_path=str(store),
        )

    sweep()
    data = store.read_bytes()
    store.write_bytes(data[: len(data) - 10])
    assert [r.benchmark for r in load_records(str(store))] == ["accum"]

    records = sweep()
    assert len(calls) == 3  # two cells, then the torn one again
    assert [r.benchmark for r in records] == ["accum", "2x2-f"]
    cells = [r.cell for r in load_records(str(store))]
    assert sorted(cells) == sorted(r.cell for r in records)


def test_sweep_routes_through_service(tmp_path):
    from repro.service import MappingService, PortfolioConfig, single_stage

    service = MappingService(
        portfolio=PortfolioConfig(stages=single_stage("ilp", time_limit=120)),
        cache_dir=tmp_path / "cache",
    )
    config = SweepConfig(
        benchmarks=("accum",), architectures=TINY_ARCHS[:1], rows=3, cols=3
    )
    first = run_sweep(config, mapper_name="ilp", service=service)
    assert len(first) == 1
    assert first[0].status is MapStatus.MAPPED
    assert len(service.log.of_kind("stage-start")) == 1

    # The same sweep again is served entirely from the result cache.
    again = run_sweep(config, mapper_name="ilp", service=service)
    assert again[0].status is MapStatus.MAPPED
    assert len(service.log.of_kind("stage-start")) == 1
    assert len(service.log.of_kind("cache-hit")) == 1


def test_service_sweep_flattens_each_fabric_once(monkeypatch):
    import repro.mrrg.build as build
    from repro.service import MappingService, PortfolioConfig, single_stage

    flattened = []
    original = build.flatten

    def counting(top):
        flattened.append(top.name)
        return original(top)

    monkeypatch.setattr(build, "flatten", counting)
    service = MappingService(
        portfolio=PortfolioConfig(stages=single_stage("greedy", time_limit=10))
    )
    config = SweepConfig(benchmarks=("mac",), architectures=TINY_ARCHS, rows=2, cols=2)
    records = run_sweep(config, mapper_name="greedy", service=service)
    assert [r.arch_key for r in records] == [a.key for a in TINY_ARCHS]
    # Both context counts of the one spatial fabric share its flatten.
    assert len(flattened) == 1
    assert len(service.log.of_kind("mrrg-build")) == 2


def test_compare_mappers_runs_both(tiny_mrrgs):
    config = SweepConfig(
        benchmarks=("2x2-f",),
        architectures=TINY_ARCHS[:1],
        time_limit=60,
        rows=3,
        cols=3,
    )
    ilp, sa = compare_mappers(config)
    assert ilp[0].mapper == "ilp"
    assert sa[0].mapper == "sa"
    assert len(ilp) == len(sa) == 1
