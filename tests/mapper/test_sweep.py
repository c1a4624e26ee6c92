"""Tests for the shared II-sweep engine and formulation cache."""

import pytest

from repro.arch import GridSpec, build_grid
from repro.dfg import DFGBuilder
from repro.mapper import (
    FormulationCache,
    IISweep,
    ILPMapper,
    ILPMapperOptions,
    MapStatus,
)
from repro.mrrg import MRRGFactory, build_mrrg_from_module, prune


@pytest.fixture(scope="module")
def fabric_2x2():
    return build_grid(GridSpec(rows=2, cols=2), name="s2x2")


@pytest.fixture(scope="module")
def tiny_dfg():
    b = DFGBuilder("tiny")
    x, y = b.input("x"), b.input("y")
    b.output(b.add(x, y, name="s"), name="o")
    return b.build()


def fast_options(**overrides):
    defaults = dict(time_limit=60, mip_rel_gap=1.0)
    defaults.update(overrides)
    return ILPMapperOptions(**defaults)


class TestMRRGFactory:
    def test_flattens_once_and_memoizes(self, fabric_2x2):
        factory = MRRGFactory(fabric_2x2)
        flat = factory.flat
        assert factory.flat is flat
        assert factory.mrrg(1) is factory.mrrg(1)
        assert factory.mrrg(1) is not factory.mrrg(2)

    def test_matches_direct_build(self, fabric_2x2):
        factory = MRRGFactory(fabric_2x2)
        direct = prune(build_mrrg_from_module(fabric_2x2, 2))
        via_factory = factory.mrrg(2)
        assert via_factory.name == direct.name
        assert sorted(via_factory.node_ids) == sorted(direct.node_ids)
        assert via_factory.num_edges() == direct.num_edges()


class TestFormulationCache:
    def test_mapper_reuses_compiled_formulation(self, tiny_dfg, fabric_2x2):
        mrrg = prune(build_mrrg_from_module(fabric_2x2, 1))
        cache = FormulationCache()
        mapper = ILPMapper(fast_options(), form_cache=cache)

        first = mapper.map(tiny_dfg, mrrg)
        assert first.status is MapStatus.MAPPED
        assert cache.misses == 1
        assert cache.hits == 0
        assert len(cache) == 1

        second = mapper.map(tiny_dfg, mrrg)
        assert second.status is MapStatus.MAPPED
        assert cache.hits == 1
        assert len(cache) == 1
        assert second.objective == first.objective

    def test_key_includes_formulation_options(self, tiny_dfg, fabric_2x2):
        mrrg = prune(build_mrrg_from_module(fabric_2x2, 1))
        cache = FormulationCache()
        ILPMapper(fast_options(), form_cache=cache).map(tiny_dfg, mrrg)
        # Different formulation knob -> different entry.
        ILPMapper(
            fast_options(mux_exclusivity=False), form_cache=cache
        ).map(tiny_dfg, mrrg)
        assert len(cache) == 2
        # Solver-only knob -> same entry.
        ILPMapper(
            fast_options(backend="bnb"), form_cache=cache
        ).map(tiny_dfg, mrrg)
        assert len(cache) == 2
        assert cache.hits == 1

    def test_key_separates_optimality_mode(self, tiny_dfg, fabric_2x2):
        mrrg = prune(build_mrrg_from_module(fabric_2x2, 1))
        cache = FormulationCache()
        ILPMapper(fast_options(), form_cache=cache).map(tiny_dfg, mrrg)
        # Proving optimality adds the bound rows: its own entry.
        ILPMapper(fast_options(mip_rel_gap=None), form_cache=cache).map(
            tiny_dfg, mrrg
        )
        assert len(cache) == 2
        # Backend and budget stay solver-only on both sides of the gate.
        ILPMapper(
            fast_options(mip_rel_gap=None, backend="bnb"), form_cache=cache
        ).map(tiny_dfg, mrrg)
        ILPMapper(fast_options(time_limit=30), form_cache=cache).map(
            tiny_dfg, mrrg
        )
        assert len(cache) == 2
        assert cache.hits == 2

    def test_reach_cache_is_per_mrrg(self, fabric_2x2):
        """Route reach is memoized on each MRRG: one graph hands out the
        same set for the same starts, another graph one of its own."""
        mrrg1 = prune(build_mrrg_from_module(fabric_2x2, 1))
        mrrg2 = prune(build_mrrg_from_module(fabric_2x2, 2))
        starts = {fu.output for fu in mrrg1.function_nodes() if fu.output}
        assert starts and all(s in mrrg2 for s in starts)
        reach1 = mrrg1.forward_reach(starts)
        assert mrrg1.forward_reach(sorted(starts)) is reach1
        reach2 = mrrg2.forward_reach(starts)
        assert reach2 is not reach1
        assert mrrg2.forward_reach(starts) is reach2
        assert mrrg1.backward_reach(starts) is not mrrg2.backward_reach(starts)


class TestIISweep:
    def test_stops_at_first_mapped(self, tiny_dfg, fabric_2x2):
        sweep = IISweep(tiny_dfg, fabric_2x2)
        attempts = sweep.run(4, lambda: ILPMapper(fast_options()))
        assert len(attempts) == 1
        assert attempts[0].ii == 1
        assert attempts[0].result.status is MapStatus.MAPPED

    def test_continues_past_infeasible_ii(self, fabric_2x2):
        b = DFGBuilder("adds5")
        xs = [b.input(f"x{i}") for i in range(6)]
        acc = xs[0]
        for i in range(5):
            acc = b.add(acc, xs[i + 1], name=f"a{i}")
        b.output(acc, name="o")
        dfg = b.build()

        sweep = IISweep(dfg, fabric_2x2)
        attempts = sweep.run(4, lambda: ILPMapper(fast_options()))
        assert [a.ii for a in attempts] == [1, 2]
        assert attempts[0].result.status is MapStatus.INFEASIBLE
        assert attempts[1].result.status is MapStatus.MAPPED

    def test_memoizes_mrrg_per_ii(self, tiny_dfg, fabric_2x2):
        sweep = IISweep(tiny_dfg, fabric_2x2)
        assert sweep.mrrg(1) is sweep.mrrg(1)
        assert sweep.mrrg(1) is not sweep.mrrg(2)

    def test_max_ii_validation(self, tiny_dfg, fabric_2x2):
        sweep = IISweep(tiny_dfg, fabric_2x2)
        with pytest.raises(ValueError):
            sweep.run(0, lambda: ILPMapper(fast_options()))
