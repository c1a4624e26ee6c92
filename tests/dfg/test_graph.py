"""Tests for the DFG container."""

from pathlib import Path

import pytest

from repro.dfg import DFG, DFGError, OpCode, Sink
from repro.frontend import compile_path
from repro.kernels.registry import BENCHMARK_NAMES, kernel

LOOPS = Path(__file__).parents[2] / "examples" / "loops"


def build_small() -> DFG:
    dfg = DFG("small")
    dfg.add_op("x", OpCode.INPUT)
    dfg.add_op("y", OpCode.INPUT)
    dfg.add_op("s", OpCode.ADD)
    dfg.add_op("o", OpCode.OUTPUT)
    dfg.connect("x", "s", 0)
    dfg.connect("y", "s", 1)
    dfg.connect("s", "o", 0)
    return dfg


class TestConstruction:
    def test_add_and_lookup(self):
        dfg = build_small()
        assert len(dfg) == 4
        assert dfg.op("s").opcode is OpCode.ADD
        assert "x" in dfg and "zz" not in dfg

    def test_opcode_accepts_mnemonic(self):
        dfg = DFG("d")
        op = dfg.add_op("m", "mul")
        assert op.opcode is OpCode.MUL

    def test_duplicate_name_rejected(self):
        dfg = DFG("d")
        dfg.add_op("a", OpCode.INPUT)
        with pytest.raises(DFGError, match="duplicate"):
            dfg.add_op("a", OpCode.INPUT)

    def test_empty_names_rejected(self):
        with pytest.raises(DFGError):
            DFG("")
        with pytest.raises(DFGError):
            DFG("d").add_op("", OpCode.ADD)

    def test_connect_unknown_ops(self):
        dfg = build_small()
        with pytest.raises(DFGError, match="no operation"):
            dfg.connect("nope", "s", 0)

    def test_connect_out_of_range_operand(self):
        dfg = build_small()
        dfg.add_op("z", OpCode.INPUT)
        with pytest.raises(DFGError, match="out of range"):
            dfg.connect("z", "o", 1)

    def test_connect_occupied_slot(self):
        dfg = build_small()
        dfg.add_op("z", OpCode.INPUT)
        with pytest.raises(DFGError, match="already connected"):
            dfg.connect("z", "s", 0)

    def test_sink_op_cannot_be_source(self):
        dfg = build_small()
        dfg.add_op("o2", OpCode.OUTPUT)
        with pytest.raises(DFGError, match="produces no value"):
            dfg.connect("o", "o2", 0)

    def test_disconnect_then_reconnect(self):
        dfg = build_small()
        dfg.disconnect("s", 0)
        assert dfg.op("s").operands[0] is None
        dfg.connect("y", "s", 0)
        assert dfg.op("s").operands == ("y", "y")

    def test_remove_op_clears_uses(self):
        dfg = build_small()
        dfg.remove_op("x")
        assert "x" not in dfg
        assert dfg.op("s").operands[0] is None


class TestValuesAndEdges:
    def test_edges_carry_operand_indices(self):
        dfg = build_small()
        edges = {(e.src, e.dst, e.operand) for e in dfg.edges()}
        assert edges == {("x", "s", 0), ("y", "s", 1), ("s", "o", 0)}

    def test_values_and_sinks(self):
        dfg = build_small()
        values = {v.producer: v for v in dfg.values()}
        assert set(values) == {"x", "y", "s"}
        assert values["s"].sinks == (Sink("o", 0),)
        assert values["s"].fanout == 1

    def test_multi_fanout_value(self):
        dfg = build_small()
        dfg.add_op("t", OpCode.ADD)
        dfg.connect("s", "t", 0)
        dfg.connect("x", "t", 1)
        dfg.add_op("o2", OpCode.OUTPUT)
        dfg.connect("t", "o2", 0)
        value = dfg.value_of("s")
        assert value.fanout == 2
        assert Sink("t", 0) in value.sinks

    def test_same_value_both_operands(self):
        # x + x: one value, two sinks at the same consumer.
        dfg = DFG("sq")
        dfg.add_op("x", OpCode.INPUT)
        dfg.add_op("d", OpCode.ADD)
        dfg.add_op("o", OpCode.OUTPUT)
        dfg.connect("x", "d", 0)
        dfg.connect("x", "d", 1)
        dfg.connect("d", "o", 0)
        value = dfg.value_of("x")
        assert value.sinks == (Sink("d", 0), Sink("d", 1))

    def test_value_of_unconsumed_raises(self):
        dfg = DFG("d")
        dfg.add_op("x", OpCode.INPUT)
        with pytest.raises(DFGError, match="no consumed value"):
            dfg.value_of("x")

    def test_consumers_and_producers(self):
        dfg = build_small()
        assert dfg.consumers("x") == ("s",)
        assert dfg.producers("s") == ("x", "y")

    def test_ops_by_opcode(self):
        dfg = build_small()
        assert [op.name for op in dfg.ops_by_opcode(OpCode.INPUT)] == ["x", "y"]


class TestBackEdges:
    def test_back_edge_flag_preserved(self):
        dfg = DFG("loop")
        dfg.add_op("x", OpCode.INPUT)
        dfg.add_op("acc", OpCode.ADD)
        dfg.add_op("o", OpCode.OUTPUT)
        dfg.connect("x", "acc", 0)
        dfg.connect("acc", "acc", 1, back=True)
        dfg.connect("acc", "o", 0)
        assert dfg.op("acc").operand_is_back_edge(1)
        assert not dfg.op("acc").operand_is_back_edge(0)
        back = [e for e in dfg.edges() if e.back]
        assert len(back) == 1

    def test_networkx_export_can_drop_back_edges(self):
        dfg = DFG("loop")
        dfg.add_op("x", OpCode.INPUT)
        dfg.add_op("acc", OpCode.ADD)
        dfg.add_op("o", OpCode.OUTPUT)
        dfg.connect("x", "acc", 0)
        dfg.connect("acc", "acc", 1, back=True)
        dfg.connect("acc", "o", 0)
        full = dfg.to_networkx()
        forward = dfg.to_networkx(include_back_edges=False)
        assert full.number_of_edges() == 3
        assert forward.number_of_edges() == 2


class TestCopyAndEquality:
    def test_copy_is_structurally_equal(self):
        dfg = build_small()
        clone = dfg.copy()
        assert clone.structurally_equal(dfg)
        clone.disconnect("s", 0)
        assert not clone.structurally_equal(dfg)

    def test_copy_rename(self):
        assert build_small().copy(name="renamed").name == "renamed"

    def test_structural_inequality_on_opcode(self):
        a = build_small()
        b = DFG("small")
        b.add_op("x", OpCode.INPUT)
        b.add_op("y", OpCode.INPUT)
        b.add_op("s", OpCode.MUL)
        b.add_op("o", OpCode.OUTPUT)
        b.connect("x", "s", 0)
        b.connect("y", "s", 1)
        b.connect("s", "o", 0)
        assert not a.structurally_equal(b)


def _values_from_edges(dfg: DFG) -> list[tuple[str, tuple[Sink, ...]]]:
    """Values as an edge walk builds them: one sink per edge, producers in
    op order."""
    sinks: dict[str, list[Sink]] = {}
    for edge in dfg.edges():
        sinks.setdefault(edge.src, []).append(Sink(edge.dst, edge.operand))
    return [(name, tuple(sinks[name])) for name in dfg.op_names if name in sinks]


@pytest.mark.parametrize(
    "name",
    list(BENCHMARK_NAMES) + sorted(p.stem for p in LOOPS.glob("*.py")),
)
def test_values_equal_the_edge_construction(name):
    """Values read straight off the operand slots keep the edge walk's
    producers, sinks and order, on every Table-1 and loop kernel."""
    path = LOOPS / f"{name}.py"
    dfg = compile_path(path).dfg if path.exists() else kernel(name)
    values = [(value.producer, value.sinks) for value in dfg.values()]
    assert values == _values_from_edges(dfg)
