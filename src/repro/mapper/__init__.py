"""CGRA mappers: the ILP mapper (the paper's contribution), the
simulated-annealing baseline, and an independent legality verifier."""

from .base import Mapper, MapResult, MapStatus
from .config import ConfigError, Configuration, extract_configuration
from .greedy_mapper import GreedyMapper, GreedyMapperOptions
from .ilp_mapper import (
    Formulation,
    ILPMapper,
    ILPMapperOptions,
    build_formulation,
    extract_mapping,
)
from .mapping import Mapping, order_route
from .router import RoutingResult, route_all
from .simulate import FabricSimulator, SimTrace, SimulationError, simulate_mapping
from .sa_mapper import SAMapper, SAMapperOptions
from .search import IISearchResult, find_min_ii
from .sweep import FormulationCache, IISweep, SweepAttempt
from .serialize import (
    MappingFormatError,
    load_mapping,
    mapping_from_json,
    mapping_to_json,
    save_mapping,
)
from .verify import assert_legal, verify

__all__ = [
    "ConfigError",
    "Configuration",
    "FabricSimulator",
    "Formulation",
    "FormulationCache",
    "GreedyMapper",
    "GreedyMapperOptions",
    "IISearchResult",
    "IISweep",
    "ILPMapper",
    "ILPMapperOptions",
    "MapResult",
    "MapStatus",
    "Mapper",
    "Mapping",
    "MappingFormatError",
    "RoutingResult",
    "SAMapper",
    "SAMapperOptions",
    "SimTrace",
    "SweepAttempt",
    "SimulationError",
    "assert_legal",
    "build_formulation",
    "extract_configuration",
    "extract_mapping",
    "find_min_ii",
    "load_mapping",
    "mapping_from_json",
    "mapping_to_json",
    "simulate_mapping",
    "order_route",
    "route_all",
    "save_mapping",
    "verify",
]
