"""Tests for primitive resources."""

import pytest

from repro.arch import ArchError, Direction, FunctionalUnit, Multiplexer, Register
from repro.dfg import IO_OPS, MEMORY_OPS, OpCode


class TestFunctionalUnit:
    def test_binary_alu_ports(self):
        fu = FunctionalUnit([OpCode.ADD, OpCode.MUL])
        ports = fu.ports()
        assert set(ports) == {"in0", "in1", "out"}
        assert ports["in0"].direction is Direction.IN
        assert ports["out"].direction is Direction.OUT

    def test_io_pad_has_one_operand_port(self):
        fu = FunctionalUnit(IO_OPS)
        assert fu.num_operand_ports == 1  # OUTPUT takes one operand
        assert fu.produces_output  # INPUT produces a value

    def test_memory_port_shape(self):
        fu = FunctionalUnit(MEMORY_OPS)
        assert set(fu.ports()) == {"in0", "out"}

    def test_sink_only_fu_has_no_output(self):
        fu = FunctionalUnit([OpCode.STORE])
        assert not fu.produces_output
        assert "out" not in fu.ports()

    def test_source_only_fu_has_no_inputs(self):
        fu = FunctionalUnit([OpCode.LOAD])
        assert fu.num_operand_ports == 0
        assert set(fu.ports()) == {"out"}

    def test_supports(self):
        fu = FunctionalUnit([OpCode.ADD])
        assert fu.supports(OpCode.ADD)
        assert not fu.supports(OpCode.MUL)

    def test_validation(self):
        with pytest.raises(ArchError, match="at least one opcode"):
            FunctionalUnit([])
        with pytest.raises(ArchError, match="latency"):
            FunctionalUnit([OpCode.ADD], latency=-1)
        with pytest.raises(ArchError, match="initiation interval"):
            FunctionalUnit([OpCode.ADD], ii=0)

    def test_unknown_port_rejected(self):
        with pytest.raises(ArchError, match="no port"):
            FunctionalUnit([OpCode.ADD]).port("in9")


class TestMultiplexer:
    def test_ports(self):
        mux = Multiplexer(3)
        assert set(mux.ports()) == {"in0", "in1", "in2", "out"}

    def test_needs_at_least_one_input(self):
        with pytest.raises(ArchError):
            Multiplexer(0)


class TestRegister:
    def test_ports(self):
        reg = Register()
        ports = reg.ports()
        assert ports["in"].direction is Direction.IN
        assert ports["out"].direction is Direction.OUT
