"""Shared fixtures: small fabrics and MRRGs reused across the suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.arch import GridSpec, build_grid, paper_architecture
from repro.arch.grid import heterogeneous_ops
from repro.dfg import DFGBuilder
from repro.mrrg import build_mrrg_from_module, prune

# Property tests check the same examples on every run: each draws from a
# seed derived from the test itself, so tier-1's runtime and coverage do
# not change from run to run.  derandomize also turns the .hypothesis/
# example database off (nothing is saved or replayed).  Each test keeps
# its own max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def grid_2x2():
    """A 2x2 homogeneous orthogonal grid (small but complete fabric)."""
    return build_grid(GridSpec(rows=2, cols=2), name="grid2x2")


@pytest.fixture(scope="session")
def mrrg_2x2_ii1(grid_2x2):
    return prune(build_mrrg_from_module(grid_2x2, 1))


@pytest.fixture(scope="session")
def mrrg_2x2_ii2(grid_2x2):
    return prune(build_mrrg_from_module(grid_2x2, 2))


@pytest.fixture(scope="session")
def grid_3x3():
    """A 3x3 grid: enough ALUs for the five-op 2x2-f/2x2-p kernels."""
    return build_grid(GridSpec(rows=3, cols=3), name="grid3x3")


@pytest.fixture(scope="session")
def mrrg_3x3_ii1(grid_3x3):
    return prune(build_mrrg_from_module(grid_3x3, 1))


@pytest.fixture(scope="session")
def mrrg_3x3_ii2(grid_3x3):
    return prune(build_mrrg_from_module(grid_3x3, 2))


@pytest.fixture(scope="session")
def grid_2x2_hetero():
    spec = GridSpec(rows=2, cols=2, ops_for=heterogeneous_ops)
    return build_grid(spec, name="grid2x2het")


@pytest.fixture(scope="session")
def mrrg_2x2_hetero_ii1(grid_2x2_hetero):
    return prune(build_mrrg_from_module(grid_2x2_hetero, 1))


@pytest.fixture(scope="session")
def paper_arch_4x4():
    """One full-size paper architecture (homogeneous orthogonal)."""
    return paper_architecture("homogeneous", "orthogonal")


@pytest.fixture(scope="session")
def mrrg_4x4_ii1(paper_arch_4x4):
    return prune(build_mrrg_from_module(paper_arch_4x4, 1))


@pytest.fixture
def tiny_dfg():
    """output(add(x, y)) — the smallest interesting DFG."""
    b = DFGBuilder("tiny")
    x, y = b.input("x"), b.input("y")
    b.output(b.add(x, y, name="s"), name="o")
    return b.build()


@pytest.fixture
def fanout_dfg():
    """One value consumed by two ops (exercises sub-value routing)."""
    b = DFGBuilder("fanout")
    x, y = b.input("x"), b.input("y")
    s = b.add(x, y, name="s")
    b.output(b.shl(s, x, name="sh"), name="o1")
    b.output(b.add(s, y, name="t"), name="o2")
    return b.build()
