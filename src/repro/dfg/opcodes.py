"""Operation taxonomy for data-flow graphs.

The opcode set mirrors the RISC-like operations the paper's functional
blocks execute ("add, mul, shl, etc."), plus the I/O and memory-access
operations that CGRA-ME benchmarks contain.  Memory accesses are internal
operations (Table 1 of the paper: "Load/Stores are considered to be
internal operations"); INPUT/OUTPUT are the I/O operations counted in the
"I/Os" column.

Modeling choices (documented in DESIGN.md section 2):

* ``LOAD`` is a source operation (no data operands; its address is part of
  the configuration), producing one value.
* ``STORE`` consumes one data operand and produces nothing.
* ``CONST`` materializes an immediate; it is a compute op an ALU can host.
"""

from __future__ import annotations

import enum


class OpCode(enum.Enum):
    """An operation kind appearing in a data-flow graph.

    Each opcode has a fixed operand count (:attr:`arity`) and produces at
    most one value (:attr:`produces_value`).
    """

    INPUT = "input"
    OUTPUT = "output"
    CONST = "const"
    LOAD = "load"
    STORE = "store"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    SHL = "shl"
    SHR = "shr"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def arity(self) -> int:
        """Number of data operands this operation consumes."""
        return _ARITY[self]

    @property
    def produces_value(self) -> bool:
        """Whether the operation defines a value other ops may consume."""
        return self not in _SINK_OPS

    @property
    def is_commutative(self) -> bool:
        """Whether swapping the two operands preserves semantics."""
        return self in _COMMUTATIVE

    @property
    def is_io(self) -> bool:
        """Whether the op is external I/O (the "I/Os" column of Table 1)."""
        return self in (OpCode.INPUT, OpCode.OUTPUT)

    @property
    def is_internal(self) -> bool:
        """Whether Table 1 counts the op in its "Operations" column."""
        return not self.is_io

    @classmethod
    def from_name(cls, name: str) -> "OpCode":
        """Parse an opcode from its lowercase mnemonic.

        Raises:
            ValueError: if ``name`` is not a known mnemonic.
        """
        try:
            return cls(name.lower())
        except ValueError:
            known = ", ".join(sorted(op.value for op in cls))
            raise ValueError(f"unknown opcode {name!r}; known opcodes: {known}") from None


_ARITY = {
    OpCode.INPUT: 0,
    OpCode.OUTPUT: 1,
    OpCode.CONST: 0,
    OpCode.LOAD: 0,
    OpCode.STORE: 1,
    OpCode.ADD: 2,
    OpCode.SUB: 2,
    OpCode.MUL: 2,
    OpCode.DIV: 2,
    OpCode.SHL: 2,
    OpCode.SHR: 2,
    OpCode.AND: 2,
    OpCode.OR: 2,
    OpCode.XOR: 2,
    OpCode.NOT: 1,
}

_SINK_OPS = frozenset({OpCode.OUTPUT, OpCode.STORE})
_COMMUTATIVE = frozenset({OpCode.ADD, OpCode.MUL, OpCode.AND, OpCode.OR, OpCode.XOR})

#: Opcodes a full ALU (Homogeneous block) supports.
ALU_OPS = frozenset(
    {
        OpCode.CONST,
        OpCode.ADD,
        OpCode.SUB,
        OpCode.MUL,
        OpCode.DIV,
        OpCode.SHL,
        OpCode.SHR,
        OpCode.AND,
        OpCode.OR,
        OpCode.XOR,
        OpCode.NOT,
    }
)

#: Opcodes of a reduced ALU without a multiplier (Heterogeneous blocks).
ALU_OPS_NO_MUL = frozenset(ALU_OPS - {OpCode.MUL, OpCode.DIV})

#: Opcodes a memory access port supports.
MEMORY_OPS = frozenset({OpCode.LOAD, OpCode.STORE})

#: Opcodes an I/O block supports.
IO_OPS = frozenset({OpCode.INPUT, OpCode.OUTPUT})
