"""Primitive architecture resources.

Primitives are the leaves of the hierarchical module model.  Each one
lowers to a small MRRG fragment per context (paper Figs. 1-2):

* :class:`FunctionalUnit` — operand-port route nodes, one FuncUnit node per
  issue slot, and an output route node ``latency`` cycles later.
* :class:`Multiplexer` — one dedicated route node per input plus an
  internal node that guarantees single-input exclusivity.
* :class:`Register` — a "special wire" whose output node lives one cycle
  after its input node.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..dfg.opcodes import OpCode
from .ports import ArchError, Direction, Port, valid_name


class Primitive:
    """Base class for leaf resources."""

    kind: str = "primitive"

    def ports(self) -> dict[str, Port]:
        """Port name -> :class:`Port` for this primitive."""
        raise NotImplementedError

    def port(self, name: str) -> Port:
        try:
            return self.ports()[name]
        except KeyError:
            raise ArchError(f"{self.kind} has no port {name!r}") from None


class FunctionalUnit(Primitive):
    """An execution resource supporting a set of operations.

    Args:
        ops: opcodes the unit can execute (e.g. a full ALU, an ALU without
            a multiplier, a memory port's load/store, an I/O pad's
            input/output).
        latency: cycles from operand consumption to result availability.
        ii: initiation interval of the unit itself; an ``ii``-cycle unit
            accepts new operands every ``ii`` cycles (Fig 2's unpipelined
            multiplier has ``latency=2, ii=2``).
    """

    kind = "fu"

    def __init__(self, ops: Iterable[OpCode], latency: int = 0, ii: int = 1):
        self._ops = frozenset(ops)
        if not self._ops:
            raise ArchError("functional unit must support at least one opcode")
        if latency < 0:
            raise ArchError("latency must be non-negative")
        if ii < 1:
            raise ArchError("initiation interval must be >= 1")
        self._latency = latency
        self._ii = ii

    # Read-only, so every edit of an architecture goes through a Module
    # mutator, which counts it (Module.revision).
    @property
    def ops(self) -> frozenset[OpCode]:
        return self._ops

    @property
    def latency(self) -> int:
        return self._latency

    @property
    def ii(self) -> int:
        return self._ii

    @property
    def num_operand_ports(self) -> int:
        """Number of operand input ports (max arity over supported ops)."""
        return max(op.arity for op in self.ops)

    @property
    def produces_output(self) -> bool:
        """Whether any supported op defines a value (needs an out port)."""
        return any(op.produces_value for op in self.ops)

    def supports(self, opcode: OpCode) -> bool:
        return opcode in self.ops

    def ports(self) -> dict[str, Port]:
        result = {
            f"in{i}": Port(f"in{i}", Direction.IN)
            for i in range(self.num_operand_ports)
        }
        if self.produces_output:
            result["out"] = Port("out", Direction.OUT)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ops = ",".join(sorted(op.value for op in self.ops))
        return f"FunctionalUnit([{ops}], latency={self.latency}, ii={self.ii})"


class Multiplexer(Primitive):
    """A dynamically reconfigurable N-to-1 routing multiplexer."""

    kind = "mux"

    def __init__(self, num_inputs: int):
        if num_inputs < 1:
            raise ArchError("multiplexer needs at least one input")
        self._num_inputs = num_inputs

    @property
    def num_inputs(self) -> int:
        return self._num_inputs

    def ports(self) -> dict[str, Port]:
        result = {
            f"in{i}": Port(f"in{i}", Direction.IN) for i in range(self.num_inputs)
        }
        result["out"] = Port("out", Direction.OUT)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Multiplexer({self.num_inputs})"


class Register(Primitive):
    """A register: moves a value from one cycle to the next (Fig 1)."""

    kind = "reg"

    def ports(self) -> dict[str, Port]:
        return {
            "in": Port("in", Direction.IN),
            "out": Port("out", Direction.OUT),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Register()"


__all__ = [
    "FunctionalUnit",
    "Multiplexer",
    "Primitive",
    "Register",
    "valid_name",
]
