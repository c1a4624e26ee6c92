"""Modulo Routing Resource Graph modeling and generation (paper sec. 3.2)."""

from .analysis import MRRGStats, prune, stats
from .build import MRRGFactory, build_mrrg, build_mrrg_from_module
from .dot import to_dot
from .fragments import MRRGCraft, crossed_operand_mrrg, mrrg_a, mrrg_c, mrrg_loop
from .graph import MRRG, MRRGError, MRRGNode, NodeKind, node_id
from .validate import MRRGValidationError, assert_valid, check

__all__ = [
    "MRRG",
    "MRRGCraft",
    "MRRGError",
    "MRRGFactory",
    "MRRGNode",
    "MRRGStats",
    "MRRGValidationError",
    "NodeKind",
    "assert_valid",
    "build_mrrg",
    "build_mrrg_from_module",
    "check",
    "crossed_operand_mrrg",
    "mrrg_a",
    "mrrg_c",
    "mrrg_loop",
    "node_id",
    "prune",
    "stats",
    "to_dot",
]
