"""Pre-audit wiring: portfolio skip, cache storage, fingerprint coupling."""

import pytest

from repro.arch.testsuite import paper_architecture
from repro.kernels.registry import kernel
from repro.mapper.base import MapStatus
from repro.mrrg import build_mrrg_from_module, prune
from repro.service import fingerprint as fingerprint_mod
from repro.service.core import MapRequest, MappingService
from repro.service.fingerprint import fingerprint_request
from repro.service.portfolio import PortfolioConfig, run_portfolio
from repro.service.telemetry import EventBus, EventLog


@pytest.fixture
def oversized_instance():
    """accum (18 ops) on a 2x2 homogeneous fabric at II=1 (14 FU slots)."""
    dfg = kernel("accum")
    top = paper_architecture("homogeneous", "orthogonal", rows=2, cols=2)
    mrrg = prune(build_mrrg_from_module(top, 1))
    return dfg, top, mrrg


def _bus():
    bus, log = EventBus(), EventLog()
    bus.subscribe(log)
    return bus, log


def test_portfolio_skips_all_stages_on_structural_witness(oversized_instance):
    dfg, _top, mrrg = oversized_instance
    bus, log = _bus()
    outcome = run_portfolio(dfg, mrrg, PortfolioConfig(), telemetry=bus)
    assert outcome.result.status is MapStatus.INFEASIBLE
    assert outcome.result.proven_optimal
    assert outcome.stage == "pre-audit"
    assert outcome.attempts == []
    kinds = log.kinds()
    assert "pre-audit" in kinds
    assert "stage-start" not in kinds and "solve" not in kinds
    (event,) = log.of_kind("pre-audit")
    assert event.fields["rule"] == "S001"


def test_service_caches_structural_infeasible_verdict(
    oversized_instance, tmp_path
):
    dfg, top, _mrrg = oversized_instance
    request = MapRequest(dfg=dfg, arch=top, contexts=1, label="accum-2x2")
    with MappingService(cache_dir=tmp_path / "cache") as service:
        first = service.map_request(request)
        assert first.result.status is MapStatus.INFEASIBLE
        assert first.stage == "pre-audit"
        assert not first.cache_hit
        second = service.map_request(request)
        assert second.cache_hit
        assert second.result.status is MapStatus.INFEASIBLE


def test_fingerprint_tracks_analyzer_ruleset(oversized_instance, monkeypatch):
    dfg, top, _mrrg = oversized_instance
    before = fingerprint_request(top, dfg, 1, {})
    monkeypatch.setattr(
        fingerprint_mod, "RULESET_VERSION", fingerprint_mod.RULESET_VERSION + 1
    )
    after = fingerprint_request(top, dfg, 1, {})
    assert before != after


# ----------------------------------------------------------------------
# Bounds-screen wiring (B-rules): portfolio, service cache, ruleset v3
# ----------------------------------------------------------------------
@pytest.fixture
def hall_refuted_instance():
    """extreme on hetero 4x4 at II=1: counting screens (S001-S003) are
    silent, the Hall matching (B001) refutes."""
    dfg = kernel("extreme")
    top = paper_architecture("heterogeneous", "orthogonal", rows=4, cols=4)
    mrrg = prune(build_mrrg_from_module(top, 1))
    return dfg, top, mrrg


def test_portfolio_bounds_screen_settles_hall_instance(hall_refuted_instance):
    from repro.mapper.base import MapStatus

    dfg, _top, mrrg = hall_refuted_instance
    bus, log = _bus()
    outcome = run_portfolio(dfg, mrrg, PortfolioConfig(), telemetry=bus)
    assert outcome.result.status is MapStatus.INFEASIBLE
    assert outcome.result.proven_optimal
    assert outcome.stage == "bounds-screen"
    assert outcome.attempts == []
    assert outcome.result.certificate is not None
    (pre,) = log.of_kind("pre-audit")
    assert pre.fields["verdict"] == "clean"  # S-rules saw nothing
    (screen,) = log.of_kind("bounds-screen")
    assert screen.fields["rule"] == "B001"
    assert "stage-start" not in log.kinds()


def test_service_caches_bounds_certificate(hall_refuted_instance, tmp_path):
    from repro.analyze.bounds import finding_from_dict
    from repro.analyze.certify import check_finding
    from repro.mapper.base import MapStatus

    dfg, top, mrrg = hall_refuted_instance
    request = MapRequest(dfg=dfg, arch=top, contexts=1, label="extreme-het")
    with MappingService(cache_dir=tmp_path / "cache") as service:
        first = service.map_request(request)
        assert first.result.status is MapStatus.INFEASIBLE
        assert first.stage == "bounds-screen"
        assert not first.cache_hit
        second = service.map_request(request)
        assert second.cache_hit
        assert second.result.certificate == first.result.certificate
        # The cached certificate still proves the verdict from scratch.
        finding = finding_from_dict(second.result.certificate)
        check_finding(finding, dfg, mrrg=mrrg)


def test_v2_cache_entries_not_aliased_by_v3_requests(
    hall_refuted_instance, tmp_path, monkeypatch
):
    """RULESET_VERSION 2 -> 3 migration: entries stored under the v2
    fingerprint must be invisible to v3 requests (B-rule verdicts did
    not exist under v2)."""
    from repro.analyze import RULESET_VERSION

    assert RULESET_VERSION == 3
    dfg, top, _mrrg = hall_refuted_instance
    request = MapRequest(dfg=dfg, arch=top, contexts=1, label="extreme-het")
    with MappingService(cache_dir=tmp_path / "cache") as service:
        with monkeypatch.context() as patch:
            patch.setattr(fingerprint_mod, "RULESET_VERSION", 2)
            v2_fp = fingerprint_request(top, dfg, 1, service.portfolio.describe())
            stored = service.map_request(request)
            assert not stored.cache_hit
        v3_fp = fingerprint_request(top, dfg, 1, service.portfolio.describe())
        assert v2_fp != v3_fp
        fresh = service.map_request(request)
        assert not fresh.cache_hit  # the v2 entry must not alias
        again = service.map_request(request)
        assert again.cache_hit
