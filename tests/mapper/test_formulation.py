"""Tests for the ILP formulation builder (paper section 4)."""

import dataclasses
import inspect

import pytest

from repro.dfg import DFGBuilder, OpCode
from repro.explore import SweepConfig
from repro.mapper import ILPMapperOptions, SAMapperOptions, build_formulation
from repro.mapper.router import route_all, route_requests

from .helpers import MRRGCraft, mrrg_c


def line_mrrg(num_fus=2, ops=(OpCode.ADD,)):
    """gen0,gen1 -> alu(s) -> sink, with simple wire connectivity."""
    c = MRRGCraft("line")
    c.fu("gen0", [OpCode.INPUT], num_ports=0)
    c.fu("gen1", [OpCode.INPUT], num_ports=0)
    for i in range(num_fus):
        c.fu(f"alu{i}", ops, num_ports=2)
        c.edge("gen0.out", f"alu{i}.in0")
        c.edge("gen0.out", f"alu{i}.in1")
        c.edge("gen1.out", f"alu{i}.in0")
        c.edge("gen1.out", f"alu{i}.in1")
    c.fu("sink", [OpCode.OUTPUT], with_output=False)
    for i in range(num_fus):
        c.edge(f"alu{i}.out", "sink.in0")
    return c.build()


@pytest.fixture
def add_dfg():
    b = DFGBuilder("add")
    x, y = b.input("x"), b.input("y")
    b.output(b.add(x, y, name="s"), name="o")
    return b.build()


class TestVariableCreation:
    def test_f_vars_only_for_legal_pairs(self, add_dfg):
        f = build_formulation(add_dfg, line_mrrg())
        op_names = {op for (_fu, op) in f.f_vars}
        assert op_names == {"x", "y", "s", "o"}
        # The add op can only sit on the two ALUs.
        alu_hosts = {fu for (fu, op) in f.f_vars if op == "s"}
        assert alu_hosts == {"alu0", "alu1"}
        # INPUT ops only on generator pads.
        x_hosts = {fu for (fu, op) in f.f_vars if op == "x"}
        assert x_hosts == {"gen0", "gen1"}

    def test_constraint_3_realized_by_omission(self, add_dfg):
        f = build_formulation(add_dfg, line_mrrg())
        assert ("alu0", "x") not in f.f_vars  # ALU cannot host INPUT

    def test_single_sink_values_share_one_variable(self, add_dfg):
        f = build_formulation(add_dfg, line_mrrg())
        assert f.stats()["r3_vars_distinct"] == 0
        assert f.r3_vars
        for (node_id, producer, _snk), var in f.r3_vars.items():
            assert var is f.r_vars[(node_id, producer)]

    def test_multi_fanout_values_get_sink_specific_vars(self):
        b = DFGBuilder("fan")
        v = b.load("op1")
        b.store(v, name="op2")
        b.store(v, name="op3")
        f = build_formulation(b.build(), mrrg_c())
        assert f.stats()["r3_vars_distinct"] > 0

    def test_route_vars_pruned_by_reachability(self, add_dfg):
        f = build_formulation(add_dfg, line_mrrg())
        # gen outputs cannot carry the add's result value "s".
        assert ("gen0.out", "s") not in f.r_vars
        assert ("alu0.out", "s") in f.r_vars


class TestConstraintFamilies:
    def families(self, formulation):
        names = {}
        for c in formulation.model.constraints:
            names.setdefault(c.name.split("[")[0], 0)
            names[c.name.split("[")[0]] += 1
        return names

    def test_all_paper_families_present(self, add_dfg):
        f = build_formulation(add_dfg, line_mrrg())
        families = self.families(f)
        assert "placement" in families  # (1)
        assert "fu_excl" in families  # (2)
        assert "fanout" in families  # (5)
        assert "implied" in families  # (6)
        assert "initial" in families  # (7)
        # (4) route_excl appears once >= 2 values share a node.
        assert "route_excl" in families

    def test_placement_count_equals_ops(self, add_dfg):
        f = build_formulation(add_dfg, line_mrrg())
        assert self.families(f)["placement"] == len(add_dfg)

    def test_mux_exclusivity_toggle(self):
        # mrrg_c has no multi-fan-in route nodes, so craft one via fu with
        # a mux in front.
        c = MRRGCraft("muxed")
        c.fu("g0", [OpCode.LOAD], num_ports=0)
        c.fu("g1", [OpCode.LOAD], num_ports=0)
        c.route("m_in0")
        c.route("m_in1")
        c.route("m")
        c.fu("st", [OpCode.STORE], with_output=False)
        c.edge("g0.out", "m_in0")
        c.edge("g1.out", "m_in1")
        c.edge("m_in0", "m")
        c.edge("m_in1", "m")
        c.edge("m", "st.in0")
        mrrg = c.build()
        b = DFGBuilder("two")
        b.store(b.load("l"), name="st")
        with_mux = build_formulation(b.build(), mrrg, ILPMapperOptions())
        without = build_formulation(
            b.build(), mrrg, ILPMapperOptions(mux_exclusivity=False)
        )
        assert self.families(with_mux).get("mux_excl", 0) > 0
        assert self.families(without).get("mux_excl", 0) == 0

    def test_usage_rows_only_for_distinct_subvalue_vars(self):
        b = DFGBuilder("fan")
        v = b.load("op1")
        b.store(v, name="op2")
        b.store(v, name="op3")
        f = build_formulation(b.build(), mrrg_c())
        assert self.families(f).get("usage", 0) > 0


class TestEarlyInfeasibility:
    def test_unsupported_op_short_circuits(self):
        b = DFGBuilder("m")
        x, y = b.input("x"), b.input("y")
        b.output(b.mul(x, y), name="o")
        f = build_formulation(b.build(), line_mrrg(ops=(OpCode.ADD,)))
        assert f.infeasible_reason is not None
        assert "mul" in f.infeasible_reason

    def test_unreachable_sink_short_circuits(self):
        c = MRRGCraft("disc")
        c.fu("g", [OpCode.LOAD], num_ports=0)
        c.fu("st", [OpCode.STORE], with_output=False)
        # no edge from g.out to st.in0 at all
        b = DFGBuilder("d")
        b.store(b.load("l"), name="st")
        f = build_formulation(b.build(), c.build())
        assert f.infeasible_reason is not None

    def test_objective_modes(self, add_dfg):
        # Eq. (10), route usage: every R column at coefficient 1.0.
        f = build_formulation(add_dfg, line_mrrg())
        assert f.r_vars
        assert f.model.objective.terms == {
            var.index: 1.0 for var in f.r_vars.values()
        }


def test_unknown_backend_rejected_when_options_are_made():
    # Not after the screens, the build and the audit of the first
    # instance that reaches the solver.
    with pytest.raises(ValueError, match="unknown ILP backend 'gurobi'"):
        ILPMapperOptions(backend="gurobi")
    assert ILPMapperOptions(backend="bnb").backend == "bnb"


def test_option_surface():
    """The mapper options are the paper's formulation plus its two
    ablations; re-adding a knob means editing this test."""
    assert [field.name for field in dataclasses.fields(ILPMapperOptions)] == [
        "backend",
        "time_limit",
        "split_sub_values",
        "mux_exclusivity",
        "mip_rel_gap",
        "require_registered_feedback",
    ]
    sa_fields = {field.name for field in dataclasses.fields(SAMapperOptions)}
    assert "strict_operands" not in sa_fields
    sweep_fields = {field.name for field in dataclasses.fields(SweepConfig)}
    assert "feasibility_only" not in sweep_fields
    for router_fn in (route_all, route_requests):
        assert "strict_operands" not in inspect.signature(router_fn).parameters
