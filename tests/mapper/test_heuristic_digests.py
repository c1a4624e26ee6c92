"""Golden digests of the greedy and simulated-annealing mappings.

Both heuristics are deterministic given a seed.  Each cell maps one
instance and compares the SHA-256 of its (status, objective, placement,
routes) with the recorded value, so a change to the route search, the
schedule order or a tie-break cannot move a mapping unnoticed.

The cells are the 14 Table-2 cells and 5 ``examples/loops`` kernels that
the default ladder's greedy rung maps when a service store is pre-filled
(greedy seed 7, 4 restarts, as the rung runs it), plus a handful of SA
cells (seed 3, one restart, no budget).  Routes are hashed as sorted
node ids, so the digests do not depend on ``PYTHONHASHSEED``.
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.arch.testsuite import PAPER_ARCHITECTURES, paper_architecture
from repro.explore import build_arch_mrrg
from repro.frontend import compile as frontend_compile
from repro.kernels.registry import kernel
from repro.mapper.greedy_mapper import GreedyMapper, GreedyMapperOptions
from repro.mapper.sa_mapper import SAMapper, SAMapperOptions
from repro.mrrg import build_mrrg_from_module, prune

LOOPS = Path(__file__).resolve().parents[2] / "examples" / "loops"
_PAPER = {arch.key: arch for arch in PAPER_ARCHITECTURES}


def mapping_digest(result) -> str:
    """SHA-256 of a result's status, objective, placement and routes."""
    mapping = result.mapping
    document = {
        "status": result.status.value,
        "objective": repr(result.objective),
        "placement": sorted(mapping.placement.items()) if mapping else None,
        "routes": sorted(
            [producer, sink.op, sink.operand, sorted(nodes)]
            for (producer, sink), nodes in mapping.routes.items()
        )
        if mapping
        else None,
    }
    return hashlib.sha256(json.dumps(document).encode("utf-8")).hexdigest()


@functools.cache
def _mrrg(fabric: str):
    if fabric == "loops":
        arch = paper_architecture("homogeneous", "diagonal")
        return prune(build_mrrg_from_module(arch, 1))
    return build_arch_mrrg(_PAPER[fabric])


def _instance(cell: str):
    """(dfg, mrrg) of ``kernel@column`` or of a loop kernel's name."""
    if "@" in cell:
        name, column = cell.split("@")
        return kernel(name), _mrrg(column)
    source = (LOOPS / f"{cell}.py").read_text(encoding="utf-8")
    return frontend_compile.compile_source(source).coalesced_dfg(), _mrrg("loops")


GREEDY = {
    "accum@hetero_diag_ii1": "8b4dc743fa24b7e98f7dd3ae0c7ad14e59b663b76be204933d5179453265ebc3",
    "accum@hetero_diag_ii2": "3ae308b058c5a0c0b66d5ab38a300ed1188af12fb1e94b326ad6c034c4927320",
    "mac@hetero_orth_ii1": "38c800e824a9e9c2fac75a168bcaaedefec11ba4d5434bcc3d8291bf8188ea70",
    "mac@hetero_diag_ii1": "decff34a0ba345f0aa664d1c1f4bc40e00cd3011820826157dff04b8d65625d5",
    "mac@homoge_diag_ii1": "09f9661f45acc110fc9f4616bd0ea8c66a6f61b8cd3dd710df55428284a30bc2",
    "mac@hetero_orth_ii2": "2a3736f58796ba81ae2b72faac618537f0e0a37d0b9ba8f04963617691397744",
    "mac@hetero_diag_ii2": "acffe3687d0422f95b8571e37c0bcd394f57bcdb410fb5964b4d7a6076fd1f2c",
    "2x2-f@hetero_diag_ii1": "3fd23e8be0a72f34ceb6833d136f1ad9c16ddec4d30f97bd2e961da946672403",
    "2x2-f@homoge_orth_ii1": "71ffc8ae9dc8608c12cd3805e48bdf140ba9921e9e78c142cfe851c20358f176",
    "2x2-f@homoge_diag_ii1": "95a90ae36d5cf00fca118dabcaa6653a1139568f3c22b786d8b916ea3681b63b",
    "2x2-f@hetero_diag_ii2": "998254279681e3e3ac40dfcd123e739022934fce4b6d4a60cd67a3270881be8b",
    "2x2-f@homoge_diag_ii2": "cb737bd1f2e4c245a464f2c78e928e25fec7666060689c1d5c14c13688493261",
    "2x2-p@hetero_diag_ii1": "270bd1bdb5d5b50e88d05e777bbe14fdf09148f9b9b354fe01a0859acdd9b58b",
    "2x2-p@homoge_diag_ii1": "6c8cfa5e27cc01bdba90e6dae851644a000d2c7c6ec7daf325e6db3d18b9683f",
    "clipacc": "cc1f804294f155e7d8d99fd499eda4349f18550cf51c0ec5931d09261fb6a67c",
    "dot": "16db0361bef42e54522f5852e78d15755fa6abcfebb24e082dc326e3413135ea",
    "gather2": "9341d5ec79a7cfc76aeb90feb1a19347c6397f250836aabf62ff754255fe547c",
    "saxpy": "c90fb2cc9c34975d7c6715644d69ea5d71b53609e77c30bd29b453c1a42f2afa",
    "window3": "68145c4a71b4b068ae48aca1309543f652364cd5a4489182d771bb6f9753f46c",
}

SA = {
    "mac@hetero_orth_ii1": "03af08e135e9c6d87639d2d441289ef9b32d0225ec080240f7ecfb00ceaf86f3",
    "2x2-f@homoge_orth_ii1": "d864481fadc96e2593f7af75e77353bfc3ee9b11e338d47762a70b873985c9d7",
    "accum@hetero_diag_ii1": "e17cca28542855dc3601931f0e6c0f5fe075cc6595d56e52610a2f604ac26349",
    "2x2-p@homoge_diag_ii1": "123d84c0ed5e9e88b9ef6a997c8b34f726cb9824de1c05571abf9232cdfcb415",
    "mac@hetero_diag_ii2": "9d0500eca7a4966eab646e0efcc2b59ba4573e03bcdbaea6428f49ef31f2d9e8",
    "2x2-f@hetero_diag_ii2": "5d4fbbae45c27283f2b23b556c1a0efbdfb9f9a27910efaef19702ae7a424f52",
    "dot": "2a19fe2eff3840437457f80d2594472287b5389b4039f29cdde1a7932827dfd4",
}


@pytest.mark.parametrize("cell", sorted(GREEDY))
def test_greedy_mapping_digest(cell):
    result = GreedyMapper(GreedyMapperOptions(seed=7, restarts=4)).map(*_instance(cell))
    assert mapping_digest(result) == GREEDY[cell]


@pytest.mark.parametrize("cell", sorted(SA))
def test_sa_mapping_digest(cell):
    result = SAMapper(SAMapperOptions(seed=3, restarts=1)).map(*_instance(cell))
    assert mapping_digest(result) == SA[cell]
