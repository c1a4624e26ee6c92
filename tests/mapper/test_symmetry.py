"""Context-rotation symmetry: the proven MRRG automorphism and the pinned solve.

The MRRG repeats the device once per context and wraps its edges modulo
II, so shifting every context by the graph's rotation period maps each
mapping onto another one of equal route usage.  ``ILPMapper`` therefore
hands the solver a copy of the compiled form in which one anchor op may
only sit in contexts ``[0, period)`` (DESIGN.md section 5.8).  These
tests check the period proof on built and hand-made graphs, the rotation
property on integer solutions of the paper's rows, and that pinned and
unpinned solves give one verdict and one optimum.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.arch import GridSpec, build_grid
from repro.arch.module import Module
from repro.arch.netlist import flatten
from repro.arch.testsuite import PAPER_ARCHITECTURES, paper_architecture
from repro.dfg import DFGBuilder
from repro.dfg.opcodes import OpCode
from repro.explore import build_arch_mrrg
from repro.frontend import compile_path
from repro.ilp import SolveStatus, compile_model
from repro.ilp.solve import solve_form
from repro.kernels.registry import kernel
from repro.mapper import ILPMapper, ILPMapperOptions, MapStatus
from repro.mapper.ilp_mapper import build_formulation
from repro.mrrg import build_mrrg, build_mrrg_from_module, prune
from repro.mrrg.graph import MRRG, MRRGNode, NodeKind, node_id
from repro.service.telemetry import EventBus, EventLog

from .helpers import MRRGCraft

LOOPS = Path(__file__).parents[2] / "examples" / "loops"


def _chain(k: int):
    """``a_i = x_i + x_(i+1)``: adds linked by shared inputs."""
    b = DFGBuilder(f"chain{k}")
    xs = [b.input(f"x{i}") for i in range(k + 1)]
    for i in range(k):
        b.output(b.add(xs[i], xs[i + 1], name=f"a{i}"), name=f"o{i}")
    return b.build()


def _dfg(name: str):
    if name.startswith("chain"):
        return _chain(int(name[len("chain"):]))
    path = LOOPS / f"{name}.py"
    return compile_path(path).dfg if path.exists() else kernel(name)


def _mrrg(fabric: str, size: str, ii: int) -> MRRG:
    """``fabric``: "grid" (the plain test grid) or a paper interconnect;
    ``size``: "<rows>x<cols>"."""
    rows, cols = map(int, size.split("x"))
    if fabric == "grid":
        arch = build_grid(GridSpec(rows=rows, cols=cols), name=f"grid{size}")
    else:
        arch = paper_architecture("homogeneous", fabric, rows=rows, cols=cols)
    return prune(build_mrrg_from_module(arch, ii))


def _map(dfg, mrrg, **options):
    """(result, the ``solve`` event's fields) of one ILPMapper run."""
    bus, log = EventBus(), EventLog()
    bus.subscribe(log)
    options.setdefault("time_limit", 60)
    result = ILPMapper(ILPMapperOptions(**options), telemetry=bus).map(dfg, mrrg)
    [solve] = log.of_kind("solve")
    return result, solve.fields


# ----------------------------------------------------------------------
# the period proof
# ----------------------------------------------------------------------
@pytest.mark.parametrize("arch", PAPER_ARCHITECTURES, ids=lambda a: a.key)
def test_period_is_one_on_paper_columns(arch):
    assert build_arch_mrrg(arch).rotation_period() == 1


@pytest.mark.parametrize("ii", [2, 3, 4])
def test_period_is_one_on_3x3_diagonal_fabric(ii):
    assert _mrrg("diagonal", "3x3", ii).rotation_period() == 1


def _unpipelined(ii: int) -> MRRG:
    """Fig. 2's unpipelined multiplier (latency 2, initiation interval 2)
    between two loads and a store."""
    m = Module("m")
    m.add_fu("gen", [OpCode.LOAD])
    m.add_fu("gen2", [OpCode.LOAD])
    m.add_fu("mul", [OpCode.MUL], latency=2, ii=2)
    m.add_fu("sink", [OpCode.STORE])
    m.connect("gen.out", "mul.in0")
    m.connect("gen2.out", "mul.in1")
    m.connect("mul.out", "sink.in0")
    return build_mrrg(flatten(m), ii)


@pytest.mark.parametrize("ii,period", [(1, 1), (2, 2), (3, 3), (4, 2)])
def test_unpipelined_unit_sets_the_period(ii, period):
    """The multiplier issues only at even contexts: a shift by 2 maps it
    onto itself at II=4, and no proper shift does at II=2 or 3."""
    assert _unpipelined(ii).rotation_period() == period


def test_craft_graph_without_context_ids_has_no_rotation():
    c = MRRGCraft("asym", ii=2)
    c.fu("ld", [OpCode.LOAD], ctx=0, num_ports=0)
    c.fu("st", [OpCode.STORE], ctx=1, with_output=False)
    c.edge("ld.out", "st.in0")
    assert c.build().rotation_period() == 2


def _two_context_unit() -> MRRG:
    """One adder per context (port -> unit -> output): period 1."""
    g = MRRG("unit", 2)
    for ctx in range(2):
        unit = g.add_node(MRRGNode(
            node_id(ctx, "u", "fu"), NodeKind.FUNCTION, ctx, "u", "fu",
            ops=frozenset({OpCode.ADD}),
        ))
        port = g.add_node(MRRGNode(
            node_id(ctx, "u", "in0"), NodeKind.ROUTE, ctx, "u", "in0",
            operand=0, fu=unit.node_id,
        ))
        out = g.add_node(
            MRRGNode(node_id(ctx, "u", "out"), NodeKind.ROUTE, ctx, "u", "out")
        )
        g.add_edge(port.node_id, unit.node_id)
        g.add_edge(unit.node_id, out.node_id)
        unit.operand_ports[0] = port.node_id
        unit.output = out.node_id
    return g


def _break_ops(g):
    g.node(node_id(1, "u", "fu")).ops = frozenset({OpCode.MUL})


def _break_operand(g):
    g.node(node_id(1, "u", "in0")).operand = 1


def _break_fu(g):
    g.node(node_id(1, "u", "in0")).fu = None


def _break_output(g):
    g.node(node_id(1, "u", "fu")).output = None


def _break_operand_ports(g):
    g.node(node_id(1, "u", "fu")).operand_ports = {1: node_id(1, "u", "in0")}


@pytest.mark.parametrize(
    "breaker",
    [_break_ops, _break_operand, _break_fu, _break_output, _break_operand_ports],
    ids=lambda f: f.__name__[len("_break_"):],
)
def test_each_node_attribute_must_map(breaker):
    assert _two_context_unit().rotation_period() == 1
    # A fresh graph: editing a node in place does not reset the memo.
    g = _two_context_unit()
    breaker(g)
    assert g.rotation_period() == 2


def test_period_is_recomputed_after_each_mutator():
    g = _two_context_unit()
    assert g.rotation_period() == 1
    stray = [node_id(ctx, "w", "wire") for ctx in range(2)]
    g.add_node(MRRGNode(stray[0], NodeKind.ROUTE, 0, "w", "wire"))
    assert g.rotation_period() == 2
    g.add_node(MRRGNode(stray[1], NodeKind.ROUTE, 1, "w", "wire"))
    assert g.rotation_period() == 1
    # Only the fanouts differ from here on.
    g.add_edge(node_id(0, "u", "out"), stray[0])
    assert g.rotation_period() == 2
    g.add_edge(node_id(1, "u", "out"), stray[1])
    assert g.rotation_period() == 1
    g.remove_node(stray[1])
    assert g.rotation_period() == 2
    g.remove_node(stray[0])
    assert g.rotation_period() == 1


# ----------------------------------------------------------------------
# the rotation maps integer solutions onto integer solutions
# ----------------------------------------------------------------------
_NODE_COLUMN = re.compile(r"^(\w+)\[c(\d+):")


def _rotate(form, x: np.ndarray, shift: int, ii: int) -> np.ndarray:
    """Move ``x`` ``shift`` contexts on: the value of each F/R/R3 column
    goes to the column of the same op or value at the shifted node."""
    column = {name: j for j, name in enumerate(form.var_names)}
    rotated = np.zeros_like(x)
    for j, name in enumerate(form.var_names):
        match = _NODE_COLUMN.match(name)
        assert match, name
        context = (int(match[2]) + shift) % ii
        rotated[column[f"{match[1]}[c{context}:{name[match.end():]}"]] = x[j]
    return rotated


# Each case: kernel (Table 1, examples/loops or an add chain), fabric,
# size, II, operand mode, registered feedback.
ROTATION_CASES = [
    ("mac", "grid", "2x2", 2, "commutative", False),
    ("accum", "grid", "2x2", 2, "strict", False),
    ("2x2-f", "orthogonal", "2x2", 2, "strict", False),
    ("chain2", "grid", "1x2", 3, "commutative", False),
    ("gather2", "diagonal", "2x2", 3, "strict", True),
    ("saxpy", "grid", "2x2", 2, "strict", True),
    ("window3", "diagonal", "3x3", 2, "commutative", True),
    ("dot", "orthogonal", "3x3", 2, "strict", False),
]


@pytest.mark.parametrize(
    "name,fabric,size,ii,mode,feedback",
    ROTATION_CASES,
    ids=["-".join(map(str, case)) for case in ROTATION_CASES],
)
def test_rotated_solution_is_a_solution_of_equal_cost(
    name, fabric, size, ii, mode, feedback
):
    """Every shift of an integer solution satisfies every row and bound
    and keeps the route-usage objective.

    The optimality-mode form carries every row family: (1)-(9),
    registered feedback when on, arrival and in-flow.  The solve stops
    at its first incumbent; any integer solution will do.
    """
    mrrg = _mrrg(fabric, size, ii)
    period = mrrg.rotation_period()
    assert period == 1
    formulation = build_formulation(
        _dfg(name),
        mrrg,
        ILPMapperOptions(operand_mode=mode, require_registered_feedback=feedback),
    )
    assert formulation.infeasible_reason is None
    form = compile_model(formulation.model)
    solution = solve_form(form, time_limit=60, mip_rel_gap=1.0)
    assert solution.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)
    x = np.zeros(form.num_vars)
    for j, value in solution.values.items():
        x[j] = round(value)
    assert form.is_feasible(x)
    for shift in range(period, ii, period):
        rotated = _rotate(form, x, shift, ii)
        assert not np.array_equal(rotated, x)
        assert form.is_feasible(rotated)
        assert form.c @ rotated == pytest.approx(form.c @ x)


# ----------------------------------------------------------------------
# pinned and unpinned solves agree
# ----------------------------------------------------------------------
# Each case: kernel, fabric, size, II, registered feedback, backend,
# proven optimum (None: proven infeasible, checked in feasibility mode).
# chain3 needs three adders in one context, since only ALU results cross
# contexts, and the 1x2 grid has two: the screens pass it and the solver
# proves it.
PIN_CASES = [
    ("gather2", "diagonal", "2x2", 2, True, "highs", 18.0),
    ("gather2", "diagonal", "2x2", 3, True, "highs", 18.0),
    ("window3", "diagonal", "2x2", 2, True, "highs", 32.0),
    ("chain2", "grid", "2x2", 2, False, "highs", 27.0),
    ("chain3", "grid", "1x2", 2, False, "highs", None),
    ("chain2", "grid", "1x2", 2, False, "bnb", 27.0),
]


@pytest.mark.parametrize(
    "name,fabric,size,ii,feedback,backend,optimum",
    PIN_CASES,
    ids=["-".join(map(str, case)) for case in PIN_CASES],
)
def test_pinned_solve_keeps_verdict_and_optimum(
    name, fabric, size, ii, feedback, backend, optimum
):
    """The mapper's pinned solve and a solve of the paper's unpinned
    form give one verdict and one optimum, and the mapping puts the
    anchor in contexts [0, period)."""
    dfg, mrrg = _dfg(name), _mrrg(fabric, size, ii)
    options = dict(
        require_registered_feedback=feedback,
        backend=backend,
        mip_rel_gap=1.0 if optimum is None else None,
    )
    result, solve = _map(dfg, mrrg, **options)
    period = mrrg.rotation_period()
    assert solve["rotation_period"] == period < ii
    anchor = solve["anchor"]
    assert anchor is not None
    assert result.proven_optimal

    formulation = build_formulation(dfg, mrrg, ILPMapperOptions(**options))
    unpinned = solve_form(
        compile_model(formulation.model),
        backend=backend,
        time_limit=60,
        mip_rel_gap=options["mip_rel_gap"],
    )
    if optimum is None:
        assert unpinned.status is SolveStatus.INFEASIBLE
        assert result.status is MapStatus.INFEASIBLE
    else:
        assert unpinned.status is SolveStatus.OPTIMAL
        assert unpinned.objective == pytest.approx(optimum)
        assert result.status is MapStatus.MAPPED
        assert result.objective == pytest.approx(optimum)
        assert mrrg.node(result.mapping.placement[anchor]).context < period


def test_weighted_objective_is_not_pinned():
    """Node weights may depend on the context, so nothing is pinned."""
    dfg, mrrg = _dfg("gather2"), _mrrg("diagonal", "2x2", 2)
    result, solve = _map(
        dfg, mrrg,
        objective="weighted",
        node_weights=lambda node: 1.0 + node.context,
    )
    assert result.status is MapStatus.MAPPED
    assert solve["rotation_period"] == 1
    assert solve["anchor"] is None


def test_asymmetric_graph_is_not_pinned():
    """Both units sit in context 1 only: pinning the anchor (the load,
    first of two ops with one F column each) to context 0 would leave it
    no unit, so the instance must stay unpinned and MAPPED."""
    b = DFGBuilder("copy")
    b.store(b.load("ld"), name="st")
    c = MRRGCraft("context1", ii=2)
    c.fu("ldu", [OpCode.LOAD], ctx=1, num_ports=0)
    c.fu("stu", [OpCode.STORE], ctx=1, with_output=False)
    c.edge("ldu.out", "stu.in0")
    mrrg = c.build()
    assert mrrg.rotation_period() == 2
    result, solve = _map(b.build(), mrrg)
    assert result.status is MapStatus.MAPPED
    assert result.mapping.placement == {"ld": "ldu", "st": "stu"}
    assert solve["anchor"] is None


def test_solve_event_reports_nodes_period_and_anchor():
    """The solve event says how many nodes the solver explored, the
    proven period and the pinned op (None when unpinned)."""
    dfg = _dfg("gather2")
    fields = {}
    for ii in (1, 2):
        result, fields[ii] = _map(dfg, _mrrg("diagonal", "2x2", ii))
        assert result.status is MapStatus.MAPPED
        assert isinstance(fields[ii]["nodes"], int) and fields[ii]["nodes"] >= 0
        assert fields[ii]["rotation_period"] == 1
    assert fields[1]["anchor"] is None
    assert fields[2]["anchor"] == "load0"
