"""MRRG symmetry: the proven automorphisms and the orbit-pinned solve.

The MRRG repeats the device once per context and wraps its edges modulo
II, and the paper fabrics are mirror-symmetric in space, so each
automorphism of the graph maps a mapping onto another one of equal route
usage.  ``ILPMapper`` therefore hands the solver a copy of the compiled
form in which one anchor op may only sit on one unit per orbit
(DESIGN.md section 5.8): under the whole group when the solve proves
optimality, under the context shift alone otherwise.  These tests check
the period proof and the exact automorphism check on built and hand-made
graphs, the orbits of the paper fabrics, that every generator maps
integer solutions of the paper's rows onto solutions of equal cost, and
that pinned and unpinned solves give one verdict and one optimum.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from pathlib import Path

import networkx as nx
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
from repro.mapper import ilp_mapper
from repro.mapper.ilp_mapper import build_formulation
from repro.mrrg import build_mrrg, build_mrrg_from_module, prune
from repro.mrrg.graph import MRRG, MRRGNode, NodeKind, node_id
from repro.mrrg.symmetry import rotation_orbits, search
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
    """``fabric``: "grid" (the plain test grid), a paper interconnect
    (homogeneous blocks) or "checkerboard" (the heterogeneous orthogonal
    fabric); ``size``: "<rows>x<cols>"."""
    rows, cols = map(int, size.split("x"))
    if fabric == "grid":
        arch = build_grid(GridSpec(rows=rows, cols=cols), name=f"grid{size}")
    elif fabric == "checkerboard":
        arch = paper_architecture(
            "heterogeneous", "orthogonal", rows=rows, cols=cols
        )
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
    """One adder per context (port -> unit -> output) whose result a
    register ``r`` carries into the other context's operand: period 1."""
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
        for tag in ("in", "out"):
            g.add_node(
                MRRGNode(node_id(ctx, "r", tag), NodeKind.ROUTE, ctx, "r", tag)
            )
        g.add_edge(port.node_id, unit.node_id)
        g.add_edge(unit.node_id, out.node_id)
        unit.operand_ports[0] = port.node_id
        unit.output = out.node_id
    for ctx in range(2):
        g.add_edge(node_id(ctx, "u", "out"), node_id(ctx, "r", "in"))
        g.add_edge(node_id(ctx, "r", "in"), node_id(1 - ctx, "r", "out"))
        g.add_edge(node_id(ctx, "r", "out"), node_id(ctx, "u", "in0"))
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


def _break_register(g):
    # c0's register input now feeds a node of another primitive, so it
    # latches no register while its c1 twin still does.
    g.node(node_id(1, "r", "out")).path = "s"


BREAKERS = [
    _break_ops,
    _break_operand,
    _break_fu,
    _break_output,
    _break_operand_ports,
    _break_register,
]


@pytest.mark.parametrize(
    "breaker", BREAKERS, ids=lambda f: f.__name__[len("_break_"):]
)
def test_each_node_attribute_must_map(breaker):
    assert _two_context_unit().rotation_period() == 1
    # A fresh graph: editing a node in place does not reset the memo.
    g = _two_context_unit()
    breaker(g)
    assert g.rotation_period() == 2


@pytest.mark.parametrize(
    "breaker", BREAKERS, ids=lambda f: f.__name__[len("_break_"):]
)
def test_exact_check_rejects_each_broken_candidate(breaker):
    """The shift of the intact graph is a candidate that agrees with the
    broken graph on every node id and edge: only the broken fact may
    reject it."""
    g = _two_context_unit()
    shift = g.context_shift(1)
    assert g.is_automorphism(shift)
    g = _two_context_unit()
    breaker(g)
    assert not g.is_automorphism(shift)


def test_exact_check_rejects_non_bijections():
    g = _two_context_unit()
    identity = {nid: nid for nid in g.node_ids}
    assert g.is_automorphism(identity)
    fold = dict(identity, **{node_id(1, "r", "in"): node_id(0, "r", "in")})
    assert not g.is_automorphism(fold)
    missing = dict(identity)
    del missing[node_id(0, "u", "fu")]
    assert not g.is_automorphism(missing)


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
# the orbits of the paper fabrics
# ----------------------------------------------------------------------
def _alu_classes(mrrg: MRRG) -> set[frozenset[str]]:
    """The ALU orbits, each as the block names ``fb_<row>_<col>`` of its
    members (contexts merged)."""
    classes: dict[str, set[str]] = {}
    for unit, rep in mrrg.unit_orbits().items():
        if unit.endswith("/alu.fu"):
            block = unit.split(":", 1)[1].split("/", 1)[0]
            classes.setdefault(rep, set()).add(block)
    return {frozenset(blocks) for blocks in classes.values()}


def _blocks(*cells: tuple[int, int]) -> frozenset[str]:
    return frozenset(f"fb_{r}_{c}" for r, c in cells)


@pytest.mark.parametrize(
    "arch",
    [a for a in PAPER_ARCHITECTURES if a.fb_style == "homogeneous"],
    ids=lambda a: a.key,
)
def test_homogeneous_alus_fall_into_four_mirror_classes(arch):
    """Both mirrors, and no transpose (the memory ports serve rows)."""
    mrrg = build_arch_mrrg(arch)
    assert _alu_classes(mrrg) == {
        _blocks((0, 0), (0, 3), (3, 0), (3, 3)),
        _blocks((0, 1), (0, 2), (3, 1), (3, 2)),
        _blocks((1, 0), (2, 0), (1, 3), (2, 3)),
        _blocks((1, 1), (1, 2), (2, 1), (2, 2)),
    }
    # Each class holds one ALU per block and context.
    reps = Counter(
        rep for unit, rep in mrrg.unit_orbits().items()
        if unit.endswith("/alu.fu")
    )
    assert sorted(reps.values()) == [4 * mrrg.ii] * 4


@pytest.mark.parametrize(
    "arch",
    [a for a in PAPER_ARCHITECTURES if a.fb_style == "heterogeneous"],
    ids=lambda a: a.key,
)
def test_checkerboard_alus_pair_under_the_half_turn(arch):
    """The checkerboard breaks both mirrors and keeps the 180-degree
    turn, which no ALU is fixed by."""
    assert _alu_classes(build_arch_mrrg(arch)) == {
        _blocks((r, c), (3 - r, 3 - c)) for r in range(4) for c in range(4)
    }


@pytest.mark.parametrize("ii", [1, 2])
def test_3x3_fabric_keeps_a_singleton_centre(ii):
    assert _alu_classes(_mrrg("diagonal", "3x3", ii)) == {
        _blocks((0, 0), (0, 2), (2, 0), (2, 2)),
        _blocks((0, 1), (2, 1)),
        _blocks((1, 0), (1, 2)),
        _blocks((1, 1)),
    }


def _frucht_units() -> MRRG:
    """One unit per vertex of the Frucht graph, each output wired to its
    three neighbours' operand ports.  Every unit looks alike to colour
    refinement (the graph is 3-regular), yet the Frucht graph has no
    automorphism but the identity."""
    frucht = nx.frucht_graph()
    matcher = nx.algorithms.isomorphism.GraphMatcher(frucht, frucht)
    assert sum(1 for _ in matcher.isomorphisms_iter()) == 1
    c = MRRGCraft("frucht")
    for v in frucht:
        c.fu(f"u{v}", [OpCode.ADD], num_ports=1)
    for a, b in frucht.edges():
        c.edge(f"u{a}.out", f"u{b}.in0")
        c.edge(f"u{b}.out", f"u{a}.in0")
    return c.build()


def test_unsplit_cell_without_automorphism_keeps_singleton_orbits():
    mrrg = _frucht_units()
    assert mrrg.unit_orbits() == {f"u{v}": f"u{v}" for v in range(12)}
    assert search(mrrg) == ([], mrrg.unit_orbits())


@pytest.mark.parametrize("ii", [2, 3, 4])
def test_rotation_orbits_follow_the_proven_period(ii):
    """Under the shift alone a unit's representative is its twin at
    context ``c % period``; the unpipelined unit has none below II=4."""
    mrrg = _unpipelined(ii)
    period = mrrg.rotation_period()
    for unit, rep in rotation_orbits(mrrg).items():
        node = mrrg.node(unit)
        assert rep == node_id(node.context % period, node.path, node.tag)


def test_rotation_orbits_keep_contexts_below_the_period():
    mrrg = _mrrg("grid", "2x2", 2)
    orbits = rotation_orbits(mrrg)
    for unit, rep in orbits.items():
        node = mrrg.node(unit)
        assert rep == node_id(0, node.path, node.tag)
    # The whole group merges more: the mirrors act on top.
    assert len(set(mrrg.unit_orbits().values())) < len(set(orbits.values()))


# ----------------------------------------------------------------------
# every generator maps integer solutions onto integer solutions
# ----------------------------------------------------------------------
def _permute(formulation, x: np.ndarray, image: dict[str, str]) -> np.ndarray:
    """Move ``x`` along a node map: the value of each F/R/R3 column goes
    to the column of the same op, value or sub-value at the image node
    (a KeyError means the map does not carry the column set onto
    itself)."""
    moved = np.full_like(x, np.nan)
    for (unit, op), var in formulation.f_vars.items():
        moved[formulation.f_vars[(image[unit], op)].index] = x[var.index]
    for (node, producer), var in formulation.r_vars.items():
        moved[formulation.r_vars[(image[node], producer)].index] = x[var.index]
    for (node, producer, snk), var in formulation.r3_vars.items():
        target = formulation.r3_vars[(image[node], producer, snk)]
        moved[target.index] = x[var.index]
    assert not np.isnan(moved).any()
    return moved


def _power(image: dict[str, str], k: int) -> dict[str, str]:
    result = {nid: nid for nid in image}
    for _ in range(k):
        result = {nid: image[m] for nid, m in result.items()}
    return result


# Each case: kernel (Table 1, examples/loops or an add chain), fabric,
# size, II, registered feedback.
ROTATION_CASES = [
    ("mac", "grid", "2x2", 2, False),
    ("accum", "grid", "2x2", 2, False),
    ("2x2-f", "orthogonal", "2x2", 2, False),
    ("chain2", "grid", "1x2", 3, False),
    ("gather2", "diagonal", "2x2", 3, True),
    ("saxpy", "grid", "2x2", 2, True),
    ("window3", "diagonal", "3x3", 2, True),
    ("dot", "orthogonal", "3x3", 2, False),
    ("clipacc", "diagonal", "3x3", 1, True),
    ("saxpy", "diagonal", "3x3", 1, True),
    ("mac", "orthogonal", "4x4", 1, False),
    ("2x2-f", "checkerboard", "4x4", 1, False),
]


@pytest.mark.parametrize(
    "name,fabric,size,ii,feedback",
    ROTATION_CASES,
    ids=["-".join(map(str, case)) for case in ROTATION_CASES],
)
def test_rotated_solution_is_a_solution_of_equal_cost(
    name, fabric, size, ii, feedback
):
    """Every power of the context shift and every other generator of the
    unit orbits takes an integer solution to one that satisfies every row
    and bound and keeps the route-usage objective.

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
        ILPMapperOptions(require_registered_feedback=feedback),
    )
    assert formulation.infeasible_reason is None
    form = compile_model(formulation.model)
    solution = solve_form(form, time_limit=60, mip_rel_gap=1.0)
    assert solution.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)
    x = np.zeros(form.num_vars)
    for j, value in solution.values.items():
        x[j] = round(value)
    assert form.is_feasible(x)

    def moved_along(image):
        moved = _permute(formulation, x, image)
        assert form.is_feasible(moved)
        assert form.c @ moved == pytest.approx(form.c @ x)
        return moved

    shift = mrrg.context_shift(period)
    for k in range(1, ii):
        assert not np.array_equal(moved_along(_power(shift, k)), x)
    found = search(mrrg)[0]
    # Every fabric here is mirror-symmetric: a map besides the shift.
    assert len(found) > (period < ii)
    for image in found:
        moved_along(image)


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
    ("gather2", "diagonal", "2x2", 1, True, "highs", 20.0),
    ("chain2", "grid", "2x2", 1, False, "highs", 27.0),
    ("chain2", "grid", "1x2", 1, False, "bnb", 27.0),
    ("clipacc", "diagonal", "3x3", 1, True, "highs", 27.0),
    ("saxpy", "diagonal", "3x3", 1, True, "highs", 28.0),
]


def _unpinned(dfg, mrrg, backend: str, **options):
    formulation = build_formulation(dfg, mrrg, ILPMapperOptions(**options))
    return solve_form(
        compile_model(formulation.model),
        backend=backend,
        time_limit=60,
        mip_rel_gap=options["mip_rel_gap"],
    )


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
    anchor on its orbit's representative: under the whole group when
    proving optimality, under the context shift alone otherwise."""
    dfg, mrrg = _dfg(name), _mrrg(fabric, size, ii)
    options = dict(
        require_registered_feedback=feedback,
        mip_rel_gap=1.0 if optimum is None else None,
    )
    result, solve = _map(dfg, mrrg, backend=backend, **options)
    period = mrrg.rotation_period()
    assert solve["rotation_period"] == period
    anchor = solve["anchor"]
    assert anchor is not None and solve["pinned"] > 0
    assert result.proven_optimal

    unpinned = _unpinned(dfg, mrrg, backend, **options)
    if optimum is None:
        assert unpinned.status is SolveStatus.INFEASIBLE
        assert result.status is MapStatus.INFEASIBLE
    else:
        assert unpinned.status is SolveStatus.OPTIMAL
        assert unpinned.objective == pytest.approx(optimum)
        assert result.status is MapStatus.MAPPED
        assert result.objective == pytest.approx(optimum)
        unit = result.mapping.placement[anchor]
        assert mrrg.unit_orbits()[unit] == unit
        assert mrrg.node(unit).context < period


def test_orbit_pin_keeps_a_solver_proven_infeasible_optimality_verdict():
    """chain3 on the 1x2 grid at II=2, proving optimality: the screens
    pass it, the orbit-pinned and the unpinned solves both prove it
    infeasible."""
    dfg, mrrg = _dfg("chain3"), _mrrg("grid", "1x2", 2)
    result, solve = _map(dfg, mrrg)
    assert solve["anchor"] is not None and solve["pinned"] > 0
    assert solve["status"] == SolveStatus.INFEASIBLE.value
    assert result.status is MapStatus.INFEASIBLE and result.proven_optimal
    unpinned = _unpinned(dfg, mrrg, "highs", mip_rel_gap=None)
    assert unpinned.status is SolveStatus.INFEASIBLE


def _ub_digest(dfg, mrrg) -> str:
    """SHA-256 (16 hex) of the column upper bounds a feasibility solve
    of the mapper receives."""


    class Captured(Exception):
        pass

    def capture(form, **_kwargs):
        raise Captured(form)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ilp_mapper, "solve_form", capture)
        with pytest.raises(Captured) as caught:
            ILPMapper(ILPMapperOptions(mip_rel_gap=1.0)).map(dfg, mrrg)
    form = caught.value.args[0]
    var_ub = np.ascontiguousarray(form.var_ub, dtype=np.float64)
    return hashlib.sha256(var_ub.tobytes()).hexdigest()[:16]


# The 15 pool cells of the table2-ilp benchmark workload, with the digest
# of the solver's upper bounds as the context-rotation pin left them.
# The feasibility mode keeps that pin byte for byte; the three II=2
# cells are the ones it bounds.
FEASIBILITY_UB_DIGESTS = {
    ("2x2-f", "hetero_orth_ii1"): "22eaeb74a6287e58",
    ("2x2-f", "homoge_orth_ii1"): "ff7e6d80d1c0c83c",
    ("2x2-f", "hetero_orth_ii2"): "2a0d8230565ac65f",
    ("2x2-f", "hetero_diag_ii1"): "1c29569a92875a4b",
    ("2x2-f", "homoge_diag_ii1"): "3705e4fe40127f09",
    ("2x2-p", "hetero_orth_ii1"): "7828d46fe9d420b3",
    ("2x2-f", "homoge_orth_ii2"): "a5d639b2506cabdb",
    ("mac", "homoge_orth_ii1"): "843c93a121578051",
    ("2x2-p", "homoge_orth_ii1"): "057f32708ac4335e",
    ("accum", "homoge_orth_ii1"): "3f7735a29e1a5d5a",
    ("2x2-p", "hetero_diag_ii1"): "8744f0b1d42572f7",
    ("2x2-f", "hetero_diag_ii2"): "94e13acae4dddc65",
    ("mult_14", "homoge_orth_ii1"): "22eb7bb714b43b48",
    ("mult_16", "homoge_orth_ii1"): "8775f399bd6f09c0",
    ("weighted_sum", "hetero_orth_ii1"): "cbabe680377db947",
}


@pytest.mark.parametrize(
    "name,column",
    list(FEASIBILITY_UB_DIGESTS),
    ids=[f"{n}@{c}" for n, c in FEASIBILITY_UB_DIGESTS],
)
def test_feasibility_solves_keep_the_rotation_pin(name, column):
    arch = next(a for a in PAPER_ARCHITECTURES if a.key == column)
    digest = _ub_digest(kernel(name), build_arch_mrrg(arch))
    assert digest == FEASIBILITY_UB_DIGESTS[(name, column)]


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
    for gap in (None, 1.0):
        result, solve = _map(b.build(), mrrg, mip_rel_gap=gap)
        assert result.status is MapStatus.MAPPED
        assert result.mapping.placement == {"ld": "ldu", "st": "stu"}
        assert solve["anchor"] is None
        assert solve["pinned"] == 0


def test_solve_event_reports_nodes_period_and_anchor():
    """The solve event says how many nodes the solver explored, the
    proven period, the pinned op (None when unpinned), how many of its F
    columns the pin bounds to 0 and how long the orbit search took."""
    dfg = _dfg("gather2")
    fields = {}
    for ii in (1, 2):
        for gap in (None, 1.0):
            result, event = _map(dfg, _mrrg("diagonal", "2x2", ii), mip_rel_gap=gap)
            assert result.status is MapStatus.MAPPED
            assert isinstance(event["nodes"], int) and event["nodes"] >= 0
            assert event["rotation_period"] == 1
            assert event["symmetry_s"] >= 0.0
            fields[ii, gap] = (event["anchor"], event["pinned"])
    # gather2's loads may use either row's memory port, in each context.
    # Proving optimality pins one to a single port under the mirrors and
    # the shift; a first-incumbent solve pins to one context only.
    assert fields == {
        (1, None): ("load0", 1),
        (2, None): ("load0", 3),
        (1, 1.0): (None, 0),
        (2, 1.0): ("load0", 2),
    }
