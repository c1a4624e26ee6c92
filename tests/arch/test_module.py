"""Tests for hierarchical module composition."""

import pytest

from repro.arch import ArchError, Module
from repro.dfg import OpCode


def tiny_pe() -> Module:
    pe = Module("pe")
    pe.add_input("din")
    pe.add_output("dout")
    pe.add_mux("m", 2)
    pe.add_fu("alu", [OpCode.ADD], latency=0)
    pe.add_reg("r")
    pe.connect("this.din", "m.in0")
    pe.connect("r.out", "m.in1")
    pe.connect("m.out", "alu.in0")
    pe.connect("this.din", "alu.in1")
    pe.connect("alu.out", "r.in")
    pe.connect("r.out", "this.dout")
    return pe


class TestConstruction:
    def test_tiny_pe_is_valid(self):
        assert tiny_pe().validate() == []

    def test_duplicate_port_rejected(self):
        m = Module("m")
        m.add_input("a")
        with pytest.raises(ArchError, match="duplicate port"):
            m.add_output("a")

    def test_duplicate_element_rejected(self):
        m = Module("m")
        m.add_reg("r")
        with pytest.raises(ArchError, match="duplicate element"):
            m.add_mux("r", 2)

    def test_reserved_this_name_rejected(self):
        with pytest.raises(ArchError):
            Module("m").add_reg("this")

    def test_self_instantiation_rejected(self):
        m = Module("m")
        with pytest.raises(ArchError, match="cannot instantiate itself"):
            m.add_instance("inner", m)


class TestConnect:
    def test_source_sink_direction_enforced(self):
        m = Module("m")
        m.add_input("a")
        m.add_output("b")
        m.add_reg("r")
        # element input is not a source
        with pytest.raises(ArchError, match="not a legal source"):
            m.connect("r.in", "this.b")
        # module input is not a sink
        with pytest.raises(ArchError, match="not a legal sink"):
            m.connect("r.out", "this.a")

    def test_unknown_references(self):
        m = Module("m")
        with pytest.raises(ArchError, match="no port"):
            m.connect("this.ghost", "this.ghost2")
        m.add_input("a")
        m.add_reg("r")
        with pytest.raises(ArchError, match="no element"):
            m.connect("this.a", "ghost.in")
        with pytest.raises(ArchError, match="has no port"):
            m.connect("this.a", "r.nonport")

    def test_instance_port_directions(self):
        inner = tiny_pe()
        outer = Module("outer")
        outer.add_instance("pe0", inner)
        outer.add_instance("pe1", inner)
        outer.connect("pe0.dout", "pe1.din")  # out -> in: legal
        with pytest.raises(ArchError, match="not a legal source"):
            outer.connect("pe0.din", "pe1.din")


class TestValidate:
    def test_multiple_drivers_flagged(self):
        m = Module("m")
        m.add_input("a")
        m.add_input("b")
        m.add_reg("r")
        m.connect("this.a", "r.in")
        m.connect("this.b", "r.in")
        issues = m.validate()
        assert any("2 drivers" in issue for issue in issues)

    def test_unconnected_fu_operand_flagged(self):
        m = Module("m")
        m.add_fu("alu", [OpCode.ADD])
        issues = m.validate()
        assert any("alu.in0 is unconnected" in issue for issue in issues)
        assert any("alu.in1 is unconnected" in issue for issue in issues)

    def test_validate_strict_raises(self):
        m = Module("m")
        m.add_fu("alu", [OpCode.ADD])
        with pytest.raises(ArchError):
            m.validate_strict()

    def test_validation_recurses_into_instances(self):
        broken = Module("broken")
        broken.add_fu("alu", [OpCode.ADD])
        outer = Module("outer")
        outer.add_instance("b", broken)
        assert outer.validate()


class TestReferencedModules:
    def test_collects_transitively(self):
        inner = tiny_pe()
        mid = Module("mid")
        mid.add_instance("pe", inner)
        top = Module("top")
        top.add_instance("m0", mid)
        top.add_instance("m1", mid)
        refs = top.referenced_modules()
        assert set(refs) == {"top", "mid", "pe"}

    def test_name_collision_detected(self):
        a1, a2 = Module("dup"), Module("dup")
        top = Module("top")
        top.add_instance("x", a1)
        top.add_instance("y", a2)
        with pytest.raises(ArchError, match="two distinct module definitions"):
            top.referenced_modules()


class TestRevision:
    def test_every_mutator_bumps_the_revision(self):
        pe = Module("pe")
        revisions = [pe.revision]
        pe.add_input("a")
        pe.add_output("o")
        pe.add_fu("alu", [OpCode.ADD])
        pe.add_mux("m", 2)
        pe.add_reg("r")
        pe.add_instance("sub", Module("sub"))
        pe.connect("this.a", "alu.in0")
        revisions.append(pe.revision)
        assert revisions == [0, 7]

    def test_rejected_edit_keeps_the_revision(self):
        pe = tiny_pe()
        revision = pe.revision
        with pytest.raises(ArchError):
            pe.add_reg("r")
        with pytest.raises(ArchError):
            pe.connect("this.dout", "r.in")
        assert pe.revision == revision

    @pytest.mark.parametrize(
        "owner, attribute, value",
        [
            ("module", "name", "other"),
            ("fu", "latency", 3),
            ("fu", "ii", 2),
            ("fu", "ops", frozenset({OpCode.MUL})),
            ("mux", "num_inputs", 4),
        ],
    )
    def test_parameters_are_read_only(self, owner, attribute, value):
        pe = tiny_pe()
        target = {"module": pe, "fu": pe.element("alu"), "mux": pe.element("m")}[owner]
        before = getattr(target, attribute)
        with pytest.raises(AttributeError):
            setattr(target, attribute, value)
        assert getattr(target, attribute) == before
