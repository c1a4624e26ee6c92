"""The service's architecture key: one canonicalization per edit of the
module tree, never a stale one, and request hashes byte-identical to
hashing the whole request document."""

from __future__ import annotations

import gc
import hashlib
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.service.core as core
from repro.analyze import RULESET_VERSION
from repro.arch import GridSpec, Module, build_grid
from repro.arch.ports import Direction
from repro.arch.testsuite import PAPER_ARCHITECTURES, build_paper_arch
from repro.dfg import DFGBuilder
from repro.kernels.registry import kernel
from repro.mapper import MapStatus
from repro.service import MapRequest, MappingService, PortfolioConfig, StageSpec
from repro.service.fingerprint import (
    ArchKey,
    canonical_dfg,
    canonical_module,
    fingerprint_document,
    fingerprint_request,
)


def whole_document_fingerprint(arch, dfg, contexts, config) -> str:
    """The request hash as defined before the architecture encoding was
    kept per architecture: SHA-256 of the whole request document."""
    document = {
        "version": 2,
        "analyze_ruleset": RULESET_VERSION,
        "arch": canonical_module(arch),
        "dfg": canonical_dfg(dfg),
        "contexts": contexts,
        "config": config or {},
    }
    encoding = json.dumps(
        document, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(encoding.encode("utf-8")).hexdigest()


def _tiny(name: str = "tiny"):
    b = DFGBuilder(name)
    x, y = b.input("x"), b.input("y")
    b.output(b.add(x, y, name="s"), name="o")
    return b.build()


def _greedy_service(**kwargs) -> MappingService:
    portfolio = PortfolioConfig(
        stages=(StageSpec(mapper="greedy", time_limit=10.0, seed=3, restarts=4),)
    )
    return MappingService(portfolio=portfolio, **kwargs)


# ----------------------------------------------------------------------
# byte identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("column", PAPER_ARCHITECTURES, ids=lambda c: c.key)
def test_key_fingerprint_is_byte_identical(column):
    arch = build_paper_arch(column)
    document = canonical_module(arch)
    key = ArchKey.of(document, fingerprint_document(document))
    assert key.digest == fingerprint_document(document)
    configs = (None, {}, PortfolioConfig().describe())
    for name in ("accum", "mac", "2x2-f", "extreme"):
        dfg = kernel(name)
        for contexts in (1, 2):
            for config in configs:
                expected = whole_document_fingerprint(arch, dfg, contexts, config)
                assert fingerprint_request(key, dfg, contexts, config) == expected
                assert fingerprint_request(arch, dfg, contexts, config) == expected


# ----------------------------------------------------------------------
# stale keys: every mutator, on the top module and on a shared definition
# ----------------------------------------------------------------------
def _prepared_grid() -> Module:
    """The 2x2 grid with a spare register in the top module and in the
    functional-block definition all four blocks share, so that one
    ``connect`` is a legal edit of either."""
    top = build_grid(GridSpec(rows=2, cols=2), name="grid2x2")
    top.add_reg("spare")
    _shared(top).add_reg("spare")
    return top


def _shared(top: Module) -> Module:
    return top.element("fb_0_0")


MUTATORS = {
    "add_port": lambda m: m.add_port("probe", Direction.IN),
    "add_input": lambda m: m.add_input("probe_in"),
    "add_output": lambda m: m.add_output("probe_out"),
    "add_fu": lambda m: m.add_fu("probe_fu", ["add"]),
    "add_mux": lambda m: m.add_mux("probe_mux", 2),
    "add_reg": lambda m: m.add_reg("probe_reg"),
    "add_instance": lambda m: m.add_instance("probe_sub", Module("probe_leaf")),
}
#: A source each target can legally drive ``spare.in`` from.
CONNECT_SOURCES = {"top": "fb_0_0.out", "shared": "this.in0"}


@pytest.mark.parametrize("target", ["top", "shared"])
@pytest.mark.parametrize("mutator", [*sorted(MUTATORS), "connect"])
def test_mutation_invalidates_the_key(tmp_path, mutator, target):
    top = _prepared_grid()
    dfg = _tiny()
    service = _greedy_service(cache_dir=tmp_path / "cache")
    request = MapRequest(dfg, top, contexts=1)
    stored = service.map_request(request)
    assert stored.result.status is MapStatus.MAPPED
    assert service.map_request(request).cache_hit

    module = top if target == "top" else _shared(top)
    revision = module.revision
    if mutator == "connect":
        module.connect(CONNECT_SOURCES[target], "spare.in")
    else:
        MUTATORS[mutator](module)
    assert module.revision > revision

    answer = service.map_request(request)
    fresh = fingerprint_request(top, dfg, 1, service.portfolio.describe())
    assert answer.fingerprint == fresh != stored.fingerprint
    assert not answer.cache_hit
    assert answer.result.status is MapStatus.MAPPED
    assert answer.result.mapping.mrrg is service.mrrg_for(top, 1)
    assert service.map_request(request).cache_hit


# ----------------------------------------------------------------------
# property: random edits interleaved with requests
# ----------------------------------------------------------------------
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["key", "add_port", "add_fu", "add_mux", "add_reg",
                         "add_instance", "connect"]),
        st.sampled_from(["top", "shared"]),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=30, deadline=None)
@given(edits=EDITS)
def test_key_always_agrees_with_a_fresh_canonicalization(edits):
    top = _prepared_grid()
    dfg = _tiny()
    service = MappingService()
    for step, (edit, target) in enumerate(edits):
        module = top if target == "top" else _shared(top)
        name = f"e{step}"
        if edit == "add_port":
            module.add_input(name)
        elif edit == "add_fu":
            module.add_fu(name, ["add", "mul"], latency=step % 2)
        elif edit == "add_mux":
            module.add_mux(name, 1 + step % 3)
        elif edit == "add_reg":
            module.add_reg(name)
        elif edit == "add_instance":
            module.add_instance(name, Module(f"leaf_{name}"))
        elif edit == "connect":
            module.add_reg(name)
            module.connect(CONNECT_SOURCES[target], f"{name}.in")
        document = canonical_module(top)
        key = service._arch_key(top)
        assert key.digest == fingerprint_document(document)
        assert fingerprint_request(key, dfg, 1) == fingerprint_request(top, dfg, 1)


# ----------------------------------------------------------------------
# cost and lifetime
# ----------------------------------------------------------------------
def test_unchanged_architecture_is_canonicalized_once(tmp_path, monkeypatch):
    calls = []
    original = core.canonical_module

    def counting(arch):
        calls.append(arch)
        return original(arch)

    monkeypatch.setattr(core, "canonical_module", counting)
    top = build_grid(GridSpec(rows=2, cols=2), name="grid2x2")
    service = _greedy_service(cache_dir=tmp_path / "cache")
    service.mrrg_for(top, 1)
    for name in ("a", "b", "a", "b", "c"):
        service.map_request(MapRequest(_tiny(name), top, contexts=1))
    service.mrrg_for(top, 2)
    assert calls == [top]


def test_dropped_architecture_leaves_the_memo():
    service = _greedy_service()
    kept = build_grid(GridSpec(rows=2, cols=2), name="grid2x2")
    service.map_request(MapRequest(_tiny(), kept, contexts=1))
    dropped = build_grid(GridSpec(rows=2, cols=2), name="grid2x2")
    answer = service.map_request(MapRequest(_tiny(), dropped, contexts=1))
    assert answer.result.status is MapStatus.MAPPED
    assert len(service._arch_keys) == 2
    del dropped, answer
    gc.collect()
    assert list(service._arch_keys.keys()) == [kept]
