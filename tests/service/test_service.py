"""End-to-end service behaviour: caching, telemetry, degradation."""

import dataclasses

import pytest

from repro.arch import GridSpec, build_grid
from repro.arch.testsuite import paper_architecture
from repro.dfg import DFGBuilder
from repro.kernels.registry import kernel
from repro.mapper import MapStatus
from repro.service import (
    MapRequest,
    MappingService,
    PortfolioConfig,
    StageSpec,
    read_events,
    single_stage,
)
from repro.service.cache import CacheEntry, entry_from_result
from repro.service.fingerprint import fingerprint_request


def _arch():
    return build_grid(GridSpec(rows=2, cols=2), name="grid2x2")


def _tiny(name="tiny"):
    b = DFGBuilder(name)
    x, y = b.input("x"), b.input("y")
    b.output(b.add(x, y, name="s"), name="o")
    return b.build()


def _for_probe(mapping):
    return dict(mapping, dfg="probe")


#: Stored mappings the probe request cannot load, by what is wrong.
STALE_SHAPES = {
    "other-dfg": lambda m: m,
    "payload-list": lambda m: [_for_probe(m)],
    "placement-list": lambda m: dict(
        _for_probe(m), placement=sorted(m["placement"].items())
    ),
    "nodes-int": lambda m: dict(
        _for_probe(m), routes=[dict(m["routes"][0], nodes=7)]
    ),
    "node-object": lambda m: dict(
        _for_probe(m),
        routes=[dict(m["routes"][0], nodes=[{"id": m["routes"][0]["nodes"][0]}])],
    ),
}


def _greedy_portfolio():
    return PortfolioConfig(
        stages=(
            StageSpec(mapper="greedy", time_limit=10.0, seed=3, restarts=4),
        )
    )


class TestCaching:
    def test_second_identical_request_is_served_from_cache(self, tmp_path):
        service = MappingService(
            portfolio=_greedy_portfolio(), cache_dir=tmp_path / "cache"
        )
        first = service.map_request(MapRequest(_tiny(), _arch(), contexts=1))
        assert first.result.status is MapStatus.MAPPED
        assert not first.cache_hit
        assert first.stage == "greedy"
        assert service.log.of_kind("cache-miss")
        assert service.log.of_kind("cache-store")

        second = service.map_request(MapRequest(_tiny(), _arch(), contexts=1))
        assert second.cache_hit
        assert second.fingerprint == first.fingerprint
        assert second.stage == "greedy"
        assert second.result.status is MapStatus.MAPPED
        assert (
            second.result.mapping.placement == first.result.mapping.placement
        )
        # The solver never ran for the second request.
        assert len(service.log.of_kind("stage-start")) == 1
        assert len(service.log.of_kind("cache-hit")) == 1

    def test_cache_survives_service_restart(self, tmp_path):
        root = tmp_path / "cache"
        MappingService(
            portfolio=_greedy_portfolio(), cache_dir=root
        ).map_request(MapRequest(_tiny(), _arch(), contexts=1))

        fresh = MappingService(portfolio=_greedy_portfolio(), cache_dir=root)
        served = fresh.map_request(MapRequest(_tiny(), _arch(), contexts=1))
        assert served.cache_hit
        assert not fresh.log.of_kind("stage-start")

    def test_different_portfolio_config_misses(self, tmp_path):
        root = tmp_path / "cache"
        MappingService(
            portfolio=_greedy_portfolio(), cache_dir=root
        ).map_request(MapRequest(_tiny(), _arch(), contexts=1))

        other = MappingService(
            portfolio=PortfolioConfig(
                stages=(
                    StageSpec(mapper="greedy", time_limit=10.0, seed=5,
                              restarts=4),
                )
            ),
            cache_dir=root,
        )
        served = other.map_request(MapRequest(_tiny(), _arch(), contexts=1))
        assert not served.cache_hit

    @pytest.mark.parametrize("shape", sorted(STALE_SHAPES))
    def test_stale_entry_degrades_to_miss_and_resolves(self, tmp_path, shape):
        service = MappingService(
            portfolio=_greedy_portfolio(), cache_dir=tmp_path / "cache"
        )
        # Seed the store with a mapping that does not load for the probe
        # request under the fingerprint the probe will look up.
        donor = service.map_request(MapRequest(_tiny(), _arch(), contexts=1))
        assert donor.result.status is MapStatus.MAPPED
        probe_fp = fingerprint_request(
            _arch(), _tiny("probe"), 1, service.portfolio.describe()
        )
        stored = entry_from_result(probe_fp, donor.result, stage="greedy")
        service.cache.put(
            dataclasses.replace(
                stored, mapping=STALE_SHAPES[shape](stored.mapping)
            )
        )

        served = service.map_request(
            MapRequest(_tiny("probe"), _arch(), contexts=1)
        )
        assert not served.cache_hit
        assert served.result.status is MapStatus.MAPPED
        stale = [
            e for e in service.log.of_kind("cache-miss")
            if "stale entry" in e.fields.get("reason", "")
        ]
        assert stale
        # Re-solved and re-stored: the next identical request is a hit.
        assert [
            e for e in service.log.of_kind("cache-store")
            if e.fields["fingerprint"] == probe_fp
        ]
        again = service.map_request(
            MapRequest(_tiny("probe"), _arch(), contexts=1)
        )
        assert again.cache_hit

    def test_indefinite_verdicts_are_not_cached(self, tmp_path, monkeypatch):
        fabric = build_grid(
            GridSpec(rows=2, cols=2, with_memory=False), name="nomem"
        )
        b = DFGBuilder("loader")
        b.output(b.op("load", name="ld"), name="o")
        dfg = b.build()
        # The portfolio's screens would prove this instance infeasible (a
        # cacheable verdict); silenced, the heuristic's indefinite
        # GAVE_UP answers, and that must NOT be cached.
        monkeypatch.setattr(
            "repro.service.portfolio.first_witness", lambda *a, **k: None
        )
        monkeypatch.setattr(
            "repro.service.portfolio.first_bound_witness", lambda *a, **k: None
        )
        service = MappingService(
            portfolio=_greedy_portfolio(), cache_dir=tmp_path / "cache"
        )
        first = service.map_request(MapRequest(dfg, fabric, contexts=1))
        assert first.result.status is MapStatus.GAVE_UP
        assert not service.log.of_kind("cache-store")
        assert len(service.cache) == 0
        # A retry therefore solves again instead of hitting the store.
        again = service.map_request(MapRequest(dfg, fabric, contexts=1))
        assert not again.cache_hit
        assert len(service.log.of_kind("stage-start")) == 2


#: Stored lines no solve writes, by what is wrong with the verdict.
UNSERVABLE = {
    "mapped-without-mapping": dict(status="mapped", objective=5.0),
    "unproven-infeasible": dict(status="infeasible", proven_optimal=False),
    "timeout": dict(status="timeout"),
}


class TestServedVerdicts:
    """Only a MAPPED entry with its mapping or a proven INFEASIBLE is
    served; any other stored line is a stale entry, solved again."""

    @staticmethod
    def _request(contexts):
        # 2x2-f on the 2x2 fabric: refuted by the bounds screen at one
        # context, mapped by SA at two.
        return MapRequest(
            kernel("2x2-f"),
            paper_architecture("homogeneous", "orthogonal", rows=2, cols=2),
            contexts=contexts,
        )

    @pytest.mark.parametrize("shape", sorted(UNSERVABLE))
    def test_entry_no_solve_stores_is_solved_again(self, tmp_path, shape):
        service = MappingService(PortfolioConfig(), cache_dir=tmp_path / "cache")
        request = self._request(contexts=1)
        fingerprint = fingerprint_request(
            request.arch, request.dfg, 1, service.portfolio.describe()
        )
        service.cache.put(CacheEntry(fingerprint=fingerprint, **UNSERVABLE[shape]))

        served = service.map_request(request)
        assert not served.cache_hit
        assert served.result.status is MapStatus.INFEASIBLE
        assert served.result.certificate is not None
        assert [
            e for e in service.log.of_kind("cache-miss")
            if "not a definitive verdict" in e.fields.get("reason", "")
        ]
        again = service.map_request(request)
        assert again.cache_hit
        assert again.result.status is MapStatus.INFEASIBLE

    @pytest.mark.parametrize(
        "contexts, status", [(1, MapStatus.INFEASIBLE), (2, MapStatus.MAPPED)]
    )
    def test_definitive_verdicts_round_trip(self, tmp_path, contexts, status):
        root = tmp_path / "cache"
        first = MappingService(PortfolioConfig(), cache_dir=root).map_request(
            self._request(contexts)
        )
        assert not first.cache_hit
        assert first.result.status is status

        served = MappingService(PortfolioConfig(), cache_dir=root).map_request(
            self._request(contexts)
        )
        assert served.cache_hit
        assert served.stage == first.stage
        assert served.result.status is status
        assert served.result.objective == first.result.objective
        assert served.result.certificate == first.result.certificate
        if status is MapStatus.MAPPED:
            assert (
                served.result.mapping.placement
                == first.result.mapping.placement
            )
        else:
            assert served.result.certificate is not None


class TestServicePipeline:
    def test_mrrg_is_memoized_per_architecture(self):
        service = MappingService(portfolio=_greedy_portfolio())
        # Graphs are shared while an architecture of the digest is alive.
        first, second = _arch(), _arch()
        service.map_request(MapRequest(_tiny(), first, contexts=1))
        service.map_request(MapRequest(_tiny("probe"), second, contexts=1))
        assert len(service.log.of_kind("mrrg-build")) == 1
        # A different context count is a different MRRG.
        service.map_request(MapRequest(_tiny(), _arch(), contexts=2))
        assert len(service.log.of_kind("mrrg-build")) == 2

    def test_telemetry_jsonl_records_every_phase(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with MappingService(
            portfolio=PortfolioConfig(
                stages=single_stage("ilp", time_limit=60.0)
            ),
            cache_dir=tmp_path / "cache",
            telemetry_path=path,
        ) as service:
            served = service.map_request(
                MapRequest(_tiny(), _arch(), contexts=1, label="tiny@2x2")
            )
        assert served.result.status is MapStatus.MAPPED

        events = read_events(path)
        kinds = {e.kind for e in events}
        assert {
            "request", "mrrg-build", "cache-miss", "stage-start",
            "model-build", "solve", "route", "verify", "stage-end",
            "cache-store", "result",
        } <= kinds
        # Timed phases carry durations.
        for kind in ("mrrg-build", "model-build", "solve", "stage-end"):
            assert all(
                e.duration is not None for e in events if e.kind == kind
            )
        (req,) = [e for e in events if e.kind == "request"]
        assert req.fields["label"] == "tiny@2x2"

    def test_degraded_answer_flows_through_service(self, tmp_path):
        service = MappingService(
            portfolio=PortfolioConfig(
                stages=(
                    StageSpec(mapper="greedy", time_limit=10.0, seed=3,
                              restarts=4),
                    StageSpec(mapper="ilp", backend="bnb", time_limit=0.0),
                ),
                stop_at_first_feasible=False,
            ),
            cache_dir=tmp_path / "cache",
        )
        served = service.map_request(MapRequest(_tiny(), _arch(), contexts=1))
        assert served.result.status is MapStatus.MAPPED
        assert served.degraded
        assert served.stage == "greedy"
        # The feasible incumbent is still a definitive mapping: cached.
        hit = service.map_request(MapRequest(_tiny(), _arch(), contexts=1))
        assert hit.cache_hit
        assert hit.stage == "greedy"
