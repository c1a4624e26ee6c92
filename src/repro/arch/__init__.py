"""Generic CGRA architecture modeling (modules, primitives, ADL, grids)."""

from .adl import (
    ADLError,
    Architecture,
    load,
    parse_architecture,
    save,
    serialize_architecture,
)
from .blocks import functional_block, io_block, memory_port
from .cost import CostReport, estimate_cost, estimate_module_cost
from .grid import GridSpec, build_grid, heterogeneous_ops, homogeneous_ops
from .module import Module
from .netlist import FlatNetlist, Net, flatten
from .ports import THIS, ArchError, Direction, Port, PortRef
from .primitives import FunctionalUnit, Multiplexer, Primitive, Register
from .testsuite import (
    PAPER_ARCHITECTURES,
    PaperArch,
    build_paper_arch,
    paper_architecture,
)

__all__ = [
    "ADLError",
    "ArchError",
    "Architecture",
    "CostReport",
    "Direction",
    "FlatNetlist",
    "FunctionalUnit",
    "GridSpec",
    "Module",
    "Multiplexer",
    "Net",
    "PAPER_ARCHITECTURES",
    "PaperArch",
    "Port",
    "PortRef",
    "Primitive",
    "Register",
    "THIS",
    "build_grid",
    "build_paper_arch",
    "estimate_cost",
    "estimate_module_cost",
    "flatten",
    "functional_block",
    "heterogeneous_ops",
    "homogeneous_ops",
    "io_block",
    "load",
    "memory_port",
    "paper_architecture",
    "parse_architecture",
    "save",
    "serialize_architecture",
]
