"""``DFG.generations`` and the checks built on it, against networkx.

The DFG layer orders and checks forward edges without networkx, so that
importing ``repro`` does not load it.  These tests use networkx's
algorithms as references: the generations must come in networkx 3.6's
order (greedy's schedule order and the interpreter's evaluation order
follow it), and ``check`` must report the same cycle and back-edge
issues.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import networkx as nx
import pytest
from hypothesis import given, settings

from repro.dfg import DFG, OpCode, check, compute
from repro.dfg.graph import DFGError
from repro.frontend import compile as frontend_compile
from repro.kernels.registry import BENCHMARK_NAMES, kernel

ROOT = Path(__file__).resolve().parents[2]
LOOPS = sorted((ROOT / "examples" / "loops").glob("*.py"))


def reference_generations(dfg: DFG) -> list[list[str]]:
    return [list(g) for g in nx.topological_generations(dfg.to_networkx(False))]


def reference_issues(dfg: DFG) -> list[str]:
    """The cycle and back-edge issues as networkx found them."""
    issues = []
    forward = dfg.to_networkx(include_back_edges=False)
    if not nx.is_directed_acyclic_graph(forward):
        cycle = nx.find_cycle(forward)
        path = " -> ".join(edge[0] for edge in cycle) + f" -> {cycle[-1][1]}"
        issues.append(f"forward-edge cycle (missing back-edge flag?): {path}")
    for op in dfg.ops:
        for idx, producer in enumerate(op.operands):
            if producer is not None and op.operand_is_back_edge(idx):
                if producer not in nx.ancestors(forward, op.name) and producer != op.name:
                    if not nx.has_path(forward, op.name, producer):
                        issues.append(
                            f"back-edge {producer!r} -> {op.name!r} does not "
                            "close a forward path"
                        )
    return issues


def structural_issues(dfg: DFG) -> list[str]:
    return [i for i in check(dfg) if "cycle" in i or "back-edge" in i]


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_table1_kernel_generations_match_networkx(name):
    dfg = kernel(name)
    assert list(dfg.generations()) == reference_generations(dfg)
    assert compute(dfg).depth == nx.dag_longest_path_length(dfg.to_networkx(False)) + 1


@pytest.mark.parametrize("path", LOOPS, ids=lambda p: p.stem)
def test_loop_kernel_generations_match_networkx(path):
    loop = frontend_compile.compile_source(path.read_text(encoding="utf-8"))
    for dfg in (loop.dfg, loop.coalesced_dfg()):
        assert list(dfg.generations()) == reference_generations(dfg)
        assert structural_issues(dfg) == reference_issues(dfg) == []


@st.composite
def wired_graphs(draw) -> DFG:
    """Any wiring of binary ops fed by inputs: operands may come from
    later ops or the op itself (forward cycles), repeat a producer
    (parallel edges), or be flagged as back-edges at random."""
    dfg = DFG("drawn")
    inputs = draw(st.integers(min_value=1, max_value=3))
    internal = draw(st.integers(min_value=1, max_value=9))
    names = [f"x{i}" for i in range(inputs)] + [f"n{i}" for i in range(internal)]
    for name in names[:inputs]:
        dfg.add_op(name, OpCode.INPUT)
    for name in names[inputs:]:
        dfg.add_op(name, OpCode.ADD)
    for position, name in enumerate(names[inputs:], start=inputs):
        for operand in range(2):
            # Mostly an earlier op, so that acyclic graphs are common too.
            pool = names if draw(st.integers(0, 3)) == 0 else names[:position]
            producer = draw(st.sampled_from(pool))
            back = draw(st.integers(0, 4)) == 0
            dfg.connect(producer, name, operand, back=back)
    return dfg


@given(wired_graphs())
@settings(max_examples=300, deadline=None)
def test_drawn_generations_and_checks_match_networkx(dfg):
    generations = dfg.generations()
    try:
        expected = reference_generations(dfg)
    except nx.NetworkXUnfeasible:
        with pytest.raises(DFGError):
            list(generations)
    else:
        assert list(generations) == expected
        assert compute(dfg).depth == nx.dag_longest_path_length(dfg.to_networkx(False)) + 1
    assert structural_issues(dfg) == reference_issues(dfg)


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_import_leaves_networkx_unloaded(module):
    script = f"import sys, {module}; print('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "False"
