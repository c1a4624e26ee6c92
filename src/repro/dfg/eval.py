"""Reference interpreter for DFGs (32-bit wrapping semantics).

Used to validate mappings end-to-end: the fabric simulator
(:mod:`repro.mapper.simulate`) executes a mapped configuration and its
outputs are compared against this interpreter's results.

Semantics:

* all values are unsigned 32-bit integers with wraparound;
* shifts use the low 5 bits of the shift amount (RISC-like);
* division by zero yields zero (a common accelerator convention);
* ``INPUT`` ops read from the provided environment, ``LOAD`` ops read
  from a per-op stream (one value per iteration, last value repeating);
* loop-carried operands (back-edges) read the previous iteration's value
  (zero on the first iteration).
"""

from __future__ import annotations

import dataclasses

from .graph import DFG
from .opcodes import OpCode

MASK = 0xFFFFFFFF


def _binop(opcode: OpCode, a: int, b: int) -> int:
    if opcode is OpCode.ADD:
        return (a + b) & MASK
    if opcode is OpCode.SUB:
        return (a - b) & MASK
    if opcode is OpCode.MUL:
        return (a * b) & MASK
    if opcode is OpCode.DIV:
        return (a // b) & MASK if b else 0
    if opcode is OpCode.SHL:
        return (a << (b & 31)) & MASK
    if opcode is OpCode.SHR:
        return (a >> (b & 31)) & MASK
    if opcode is OpCode.AND:
        return a & b
    if opcode is OpCode.OR:
        return a | b
    if opcode is OpCode.XOR:
        return a ^ b
    raise ValueError(f"not a binary opcode: {opcode}")


def apply_op(opcode: OpCode, operands: list[int], immediate: int = 0) -> int:
    """Evaluate one operation on already-resolved operand values."""
    if opcode in (OpCode.CONST,):
        return immediate & MASK
    if opcode is OpCode.NOT:
        return ~operands[0] & MASK
    if opcode.arity == 2:
        return _binop(opcode, operands[0], operands[1])
    raise ValueError(f"cannot apply {opcode} here")


@dataclasses.dataclass
class Environment:
    """Runtime bindings for a DFG evaluation.

    Attributes:
        inputs: INPUT op name -> value (constant over iterations).
        constants: CONST op name -> immediate value (default 1).
        load_streams: LOAD op name -> iteration value stream (the last
            element repeats when iterations outrun the stream).
    """

    inputs: dict[str, int] = dataclasses.field(default_factory=dict)
    constants: dict[str, int] = dataclasses.field(default_factory=dict)
    load_streams: dict[str, list[int]] = dataclasses.field(default_factory=dict)

    def input_value(self, name: str) -> int:
        return self.inputs.get(name, 0) & MASK

    def const_value(self, name: str) -> int:
        return self.constants.get(name, 1) & MASK

    def load_value(self, name: str, iteration: int) -> int:
        stream = self.load_streams.get(name, [0])
        index = min(iteration, len(stream) - 1)
        return stream[index] & MASK


@dataclasses.dataclass
class EvalTrace:
    """Evaluation result over ``iterations`` loop iterations.

    Attributes:
        outputs: OUTPUT op name -> per-iteration values.
        stores: STORE op name -> per-iteration stored values.
        values: op name -> final-iteration value (producing ops only).
    """

    outputs: dict[str, list[int]]
    stores: dict[str, list[int]]
    values: dict[str, int]


def evaluate(dfg: DFG, env: Environment | None = None, iterations: int = 1) -> EvalTrace:
    """Interpret ``dfg`` for a number of loop iterations.

    Back-edge operands read the value their producer had in the previous
    iteration (0 before the first); everything else evaluates in forward
    topological order within each iteration.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    env = env or Environment()
    order = [name for generation in dfg.generations() for name in generation]
    outputs: dict[str, list[int]] = {
        op.name: [] for op in dfg.ops if op.opcode is OpCode.OUTPUT
    }
    stores: dict[str, list[int]] = {
        op.name: [] for op in dfg.ops if op.opcode is OpCode.STORE
    }
    previous: dict[str, int] = {}
    current: dict[str, int] = {}

    for iteration in range(iterations):
        current = {}
        for name in order:
            op = dfg.op(name)
            operand_values = []
            for idx, producer in enumerate(op.operands):
                assert producer is not None, "validated DFGs have no holes"
                if op.operand_is_back_edge(idx):
                    operand_values.append(previous.get(producer, 0))
                else:
                    operand_values.append(current[producer])
            if op.opcode is OpCode.INPUT:
                current[name] = env.input_value(name)
            elif op.opcode is OpCode.CONST:
                current[name] = env.const_value(name)
            elif op.opcode is OpCode.LOAD:
                current[name] = env.load_value(name, iteration)
            elif op.opcode is OpCode.OUTPUT:
                outputs[name].append(operand_values[0])
            elif op.opcode is OpCode.STORE:
                stores[name].append(operand_values[0])
            else:
                current[name] = apply_op(op.opcode, operand_values)
        previous = current

    final_values = dict(current)
    return EvalTrace(outputs=outputs, stores=stores, values=final_values)
