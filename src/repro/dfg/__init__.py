"""Data-flow graph representation of application kernels (paper sec. 3.1)."""

from .build import DFGBuilder, Deferred, Ref
from .dot import to_dot
from .eval import MASK, Environment, EvalTrace, apply_op, evaluate
from .graph import DFG, DFGError, Edge, Operation, Sink, Value
from .opcodes import (
    ALU_OPS,
    ALU_OPS_NO_MUL,
    IO_OPS,
    MEMORY_OPS,
    OpCode,
)
from .parse import DFGParseError, load, parse, save, serialize
from .stats import DFGStats, compute
from .validate import DFGValidationError, assert_valid, check

__all__ = [
    "ALU_OPS",
    "ALU_OPS_NO_MUL",
    "DFG",
    "DFGBuilder",
    "DFGError",
    "DFGParseError",
    "DFGStats",
    "DFGValidationError",
    "Deferred",
    "Environment",
    "EvalTrace",
    "MASK",
    "Edge",
    "IO_OPS",
    "MEMORY_OPS",
    "OpCode",
    "Operation",
    "Ref",
    "Sink",
    "Value",
    "apply_op",
    "assert_valid",
    "check",
    "compute",
    "evaluate",
    "load",
    "parse",
    "save",
    "serialize",
    "to_dot",
]
