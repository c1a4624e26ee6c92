"""The MRRG query index: the same answers as a rescan, built once per graph.

Every indexed query is checked against the expression it replaced,
written out here, order included, on the paper's eight columns, the 3x3
homogeneous-diagonal fabric at II 1-3 and the hand-built fragments, each
pruned and unpruned.  The mutators must drop the index, unit orbits
included; a whole mapping pipeline must build it once, and no caller may
change a memoized reach set.
"""

from collections import deque

import pytest

from repro.analyze.bounds import first_bound_witness, prove_bounds
from repro.analyze.model_audit import first_witness
from repro.arch.testsuite import (
    PAPER_ARCHITECTURES,
    build_paper_arch,
    paper_architecture,
)
from repro.dfg import DFGBuilder
from repro.dfg.opcodes import OpCode
from repro.mapper import GreedyMapper, ILPMapperOptions, MapStatus
from repro.mapper.ilp_mapper import build_formulation
from repro.mrrg import (
    MRRG,
    MRRGCraft,
    MRRGNode,
    NodeKind,
    build_mrrg_from_module,
    crossed_operand_mrrg,
    mrrg_a,
    mrrg_c,
    mrrg_loop,
    node_id,
    prune,
)
from repro.mrrg import graph as graph_module
from repro.mrrg import symmetry


def _two_context_craft() -> MRRG:
    c = MRRGCraft("craft_ii2", ii=2)
    for ctx in range(2):
        c.fu(f"alu{ctx}", [OpCode.ADD, OpCode.MUL], ctx=ctx, num_ports=2)
        c.fu(f"st{ctx}", [OpCode.STORE], ctx=ctx, with_output=False)
        c.route(f"w{ctx}", ctx=ctx)
    c.chain("alu0.out", "w0", "alu1.in0")
    c.chain("alu1.out", "w1", "alu0.in1")
    c.edge("alu0.out", "st0.in0")
    return c.build()


CRAFTS = {
    "mrrg_a": mrrg_a,
    "mrrg_loop": mrrg_loop,
    "mrrg_c": mrrg_c,
    "crossed": crossed_operand_mrrg,
    "craft_ii2": _two_context_craft,
}


def _unpruned(name: str) -> MRRG:
    for arch in PAPER_ARCHITECTURES:
        if arch.key == name:
            return build_mrrg_from_module(build_paper_arch(arch), arch.contexts)
    if name.startswith("homoge_diag_3x3_ii"):
        top = paper_architecture("homogeneous", "diagonal", rows=3, cols=3)
        return build_mrrg_from_module(top, int(name[-1]))
    return CRAFTS[name]()


GRAPHS = (
    [arch.key for arch in PAPER_ARCHITECTURES]
    + [f"homoge_diag_3x3_ii{ii}" for ii in (1, 2, 3)]
    + sorted(CRAFTS)
)


@pytest.fixture(
    scope="module",
    params=[(name, pruned) for name in GRAPHS for pruned in (False, True)],
    ids=lambda p: f"{p[0]}-{'pruned' if p[1] else 'unpruned'}",
)
def graph(request):
    name, pruned = request.param
    mrrg = _unpruned(name)
    return prune(mrrg) if pruned else mrrg


# ----------------------------------------------------------------------
# the expressions the index replaced
# ----------------------------------------------------------------------
def _route_fanouts(g, n):
    return tuple(m for m in g.fanouts(n) if g.node(m).is_route)


def _route_fanins(g, n):
    return tuple(m for m in g.fanins(n) if g.node(m).is_route)


def _function_nodes(g):
    return tuple(n for n in g.nodes if n.is_function)


def _route_nodes(g):
    return tuple(n for n in g.nodes if n.is_route)


def _supporting(g, opcode):
    return tuple(n for n in _function_nodes(g) if n.supports(opcode))


def _candidate_loop(g, opcode, needs_output):
    """The candidate rule as build_formulation, op_candidates and the SA
    mapper each wrote it out."""
    nodes = []
    for fu in _supporting(g, opcode):
        if needs_output and fu.output is None:
            continue
        if any(o not in fu.operand_ports for o in range(opcode.arity)):
            continue
        nodes.append(fu)
    return tuple(nodes)


def _register_inputs(g):
    """The register rule as build_formulation wrote it out."""
    regs = set()
    for node in _route_nodes(g):
        if node.tag != "in":
            continue
        for nxt in _route_fanouts(g, node.node_id):
            peer = g.node(nxt)
            if peer.is_route and peer.tag == "out" and peer.path == node.path:
                regs.add(node.node_id)
                break
    return frozenset(regs)


def _plain_bfs(starts, neighbors):
    seen = set(starts)
    queue = deque(starts)
    while queue:
        for nxt in neighbors(queue.popleft()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _reach_starts(g):
    """Forward starts (unit outputs) and backward starts (operand ports):
    one per unit, and all of them at once."""
    outputs = [{fu.output} for fu in _function_nodes(g) if fu.output in g]
    ports = [
        set(fu.operand_ports.values())
        for fu in _function_nodes(g)
        if fu.operand_ports and all(p in g for p in fu.operand_ports.values())
    ]
    forward = outputs + [set().union(*outputs)] if outputs else []
    backward = ports + [set().union(*ports)] if ports else []
    return forward, backward


def _answers(g, indexed: bool) -> dict:
    """Every query's answer, through the index or through the rescan."""
    forward, backward = _reach_starts(g)
    answers = {
        "function_nodes": g.function_nodes() if indexed else _function_nodes(g),
        "route_nodes": g.route_nodes() if indexed else _route_nodes(g),
        "rotation_period": g.rotation_period(),
        "register_inputs": (
            g.register_inputs() if indexed else _register_inputs(g)
        ),
    }
    for n in g.node_ids:
        answers[("fanouts", n)] = (
            g.route_fanouts(n) if indexed else _route_fanouts(g, n)
        )
        answers[("fanins", n)] = (
            g.route_fanins(n) if indexed else _route_fanins(g, n)
        )
    for opcode in OpCode:
        answers[("supporting", opcode)] = (
            g.function_nodes_supporting(opcode)
            if indexed
            else _supporting(g, opcode)
        )
        for needs_output in (False, True):
            answers[("capable", opcode, needs_output)] = (
                g.capable_units(opcode, needs_output)
                if indexed
                else _candidate_loop(g, opcode, needs_output)
            )
    for starts in forward:
        answers[("forward", frozenset(starts))] = (
            g.forward_reach(starts)
            if indexed
            else _plain_bfs(starts, lambda n: _route_fanouts(g, n))
        )
    for starts in backward:
        answers[("backward", frozenset(starts))] = (
            g.backward_reach(starts)
            if indexed
            else _plain_bfs(starts, lambda n: _route_fanins(g, n))
        )
    return answers


# ----------------------------------------------------------------------
# equivalence, order included
# ----------------------------------------------------------------------
def test_every_query_equals_the_rescan(graph):
    indexed = _answers(graph, indexed=True)
    assert indexed == _answers(graph, indexed=False)
    # Tuples compare in order, so node order is checked too; the
    # candidate rule must hold somewhere for the check to mean anything.
    assert any(
        answer for key, answer in indexed.items() if key[0] == "capable"
    )


def test_repeated_queries_hand_out_the_memo(graph):
    forward, backward = _reach_starts(graph)
    assert graph.function_nodes() is graph.function_nodes()
    assert graph.capable_units(OpCode.ADD, True) is graph.capable_units(
        OpCode.ADD, True
    )
    for starts in forward:
        assert graph.forward_reach(starts) is graph.forward_reach(sorted(starts))
    for starts in backward:
        assert graph.backward_reach(starts) is graph.backward_reach(set(starts))


def test_copies_index_afresh(graph):
    graph.function_nodes()
    for clone in (graph.copy(), graph.subgraph(graph.node_ids), prune(graph)):
        assert clone.function_nodes() is not graph.function_nodes()
        assert _answers(clone, indexed=True) == _answers(clone, indexed=False)


# ----------------------------------------------------------------------
# invalidation
# ----------------------------------------------------------------------
def _two_context_graph() -> MRRG:
    """Per context: an ADD/MUL unit ``u`` whose output reaches operand 0
    through ``w``, and a lone wire ``y`` into operand 1 (period 1)."""
    g = MRRG("pair", 2)
    for ctx in range(2):
        unit = g.add_node(MRRGNode(
            node_id(ctx, "u", "fu"), NodeKind.FUNCTION, ctx, "u", "fu",
            ops=frozenset({OpCode.ADD, OpCode.MUL}),
        ))
        for tag in ("out", "in0", "in1"):
            g.add_node(MRRGNode(
                node_id(ctx, "u", tag), NodeKind.ROUTE, ctx, "u", tag,
                operand=int(tag[-1]) if tag != "out" else None,
                fu=unit.node_id if tag != "out" else None,
            ))
        for path in ("w", "y"):
            g.add_node(MRRGNode(
                node_id(ctx, path, "wire"), NodeKind.ROUTE, ctx, path, "wire"
            ))
        unit.operand_ports.update(
            {0: node_id(ctx, "u", "in0"), 1: node_id(ctx, "u", "in1")}
        )
        unit.output = node_id(ctx, "u", "out")
        g.add_edge(node_id(ctx, "u", "in0"), unit.node_id)
        g.add_edge(node_id(ctx, "u", "in1"), unit.node_id)
        g.add_edge(unit.node_id, node_id(ctx, "u", "out"))
        g.add_edge(node_id(ctx, "u", "out"), node_id(ctx, "w", "wire"))
        g.add_edge(node_id(ctx, "w", "wire"), node_id(ctx, "u", "in0"))
        g.add_edge(node_id(ctx, "y", "wire"), node_id(ctx, "u", "in1"))
    return g


def _second_unit(g):
    g.add_node(MRRGNode(
        node_id(1, "v", "fu"), NodeKind.FUNCTION, 1, "v", "fu",
        ops=frozenset({OpCode.ADD}),
        operand_ports={0: node_id(1, "u", "in0"), 1: node_id(1, "u", "in1")},
        output=node_id(1, "u", "out"),
    ))


MUTATIONS = {
    "add_node-route": lambda g: g.add_node(
        MRRGNode(node_id(1, "x", "wire"), NodeKind.ROUTE, 1, "x", "wire")
    ),
    "add_node-function": _second_unit,
    "add_edge": lambda g: g.add_edge(node_id(1, "u", "out"), node_id(1, "y", "wire")),
    "remove_node-route": lambda g: g.remove_node(node_id(1, "w", "wire")),
    "remove_node-function": lambda g: g.remove_node(node_id(1, "u", "fu")),
}


def _pinned_reach(g) -> dict:
    """Reach from starts every mutation keeps, so the memo is exercised."""
    return {
        starts: (
            g.forward_reach(starts),
            g.backward_reach(starts),
        )
        for starts in (
            frozenset({node_id(1, "u", "out")}),
            frozenset({node_id(1, "u", "in0"), node_id(1, "u", "in1")}),
        )
    }


def _pinned_reference(g) -> dict:
    return {
        starts: (
            _plain_bfs(starts, lambda n: _route_fanouts(g, n)),
            _plain_bfs(starts, lambda n: _route_fanins(g, n)),
        )
        for starts in _pinned_reach(g)
    }


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_each_query_reflects_each_mutator(mutation):
    g = _two_context_graph()
    before = _answers(g, indexed=True)
    pinned_before = _pinned_reach(g)
    assert before == _answers(g, indexed=False)
    assert before["rotation_period"] == 1
    MUTATIONS[mutation](g)
    after = _answers(g, indexed=True)
    assert after == _answers(g, indexed=False)
    assert after["rotation_period"] == 2
    assert _pinned_reach(g) == _pinned_reference(g)
    changed = {key for key in after if before.get(key) != after[key]}
    assert changed - {"rotation_period"}, "the mutation changed no query"
    if mutation in ("add_edge", "remove_node-route"):
        assert _pinned_reach(g) != pinned_before


# Each unit's orbit representative after each mutation.  The isolated
# wire breaks the context shift, yet swapping the two contexts' copies
# and fixing the wire still maps the graph onto itself: refinement ignores
# contexts and finds it.
_U0, _U1 = node_id(0, "u", "fu"), node_id(1, "u", "fu")
ORBITS_AFTER = {
    "add_node-route": {_U0: _U0, _U1: _U0},
    "add_node-function": {
        _U0: _U0, _U1: _U1, node_id(1, "v", "fu"): node_id(1, "v", "fu")
    },
    "add_edge": {_U0: _U0, _U1: _U1},
    "remove_node-route": {_U0: _U0, _U1: _U1},
    "remove_node-function": {_U0: _U0},
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_unit_orbits_reset_after_each_mutator(mutation):
    g = _two_context_graph()
    before = g.unit_orbits()
    assert before == {_U0: _U0, _U1: _U0}
    assert g.unit_orbits() is before
    MUTATIONS[mutation](g)
    after = g.unit_orbits()
    assert after is not before
    assert after == ORBITS_AFTER[mutation] == symmetry.search(g)[1]


# ----------------------------------------------------------------------
# one build per graph, and no caller edits the memo
# ----------------------------------------------------------------------
def _chain_dfg():
    b = DFGBuilder("chain")
    x, y, z = b.input("x"), b.input("y"), b.input("z")
    b.output(b.mul(b.add(x, y, name="s"), z, name="m"), name="o")
    return b.build()


def _fresh_3x3() -> MRRG:
    top = paper_architecture("homogeneous", "diagonal", rows=3, cols=3)
    return prune(build_mrrg_from_module(top, 1))


def test_a_mapping_pipeline_builds_the_index_once(monkeypatch):
    mrrg = _fresh_3x3()
    dfg = _chain_dfg()
    builds = []
    real_index = graph_module._QueryIndex

    def counting(*args):
        builds.append(args)
        return real_index(*args)

    monkeypatch.setattr(graph_module, "_QueryIndex", counting)
    assert first_witness(dfg, mrrg) is None
    assert first_bound_witness(dfg, mrrg) is None
    assert build_formulation(dfg, mrrg).infeasible_reason is None
    assert GreedyMapper().map(dfg, mrrg).status is MapStatus.MAPPED
    assert len(builds) == 1


def test_reach_sets_survive_builds_and_screens(monkeypatch):
    mrrg = _fresh_3x3()
    dfg = _chain_dfg()
    made = []
    real_bfs = graph_module._bfs

    def recording(starts, adjacency):
        reached = real_bfs(starts, adjacency)
        made.append((reached, frozenset(reached)))
        return reached

    monkeypatch.setattr(graph_module, "_bfs", recording)
    prove_bounds(dfg, mrrg)
    for options in (ILPMapperOptions(), ILPMapperOptions(mip_rel_gap=1.0)):
        assert build_formulation(dfg, mrrg, options).infeasible_reason is None
    prove_bounds(dfg, mrrg)
    assert made
    assert all(reached == snapshot for reached, snapshot in made)
