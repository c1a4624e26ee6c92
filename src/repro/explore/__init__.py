"""Architecture-evaluation driver: sweeps, records and table/figure
renderers reproducing the paper's evaluation (Tables 1-2, Fig. 8)."""

from .figures import figure8_series, render_figure8
from .floorplan import render_floorplan
from .records import (
    RunRecord,
    append_record,
    fraction_within,
    load_records,
    save_records,
)
from .runner import (
    SweepConfig,
    build_arch_mrrg,
    default_greedy_mapper,
    default_ilp_mapper,
    default_sa_mapper,
    feasible_counts,
    run_sweep,
)
from .tables import (
    PAPER_TABLE2,
    PAPER_TOTAL_FEASIBLE,
    render_table1,
    render_table2,
    table2_matrix,
    total_feasible,
)

__all__ = [
    "PAPER_TABLE2",
    "PAPER_TOTAL_FEASIBLE",
    "RunRecord",
    "append_record",
    "SweepConfig",
    "build_arch_mrrg",
    "default_greedy_mapper",
    "default_ilp_mapper",
    "default_sa_mapper",
    "feasible_counts",
    "figure8_series",
    "fraction_within",
    "load_records",
    "render_figure8",
    "render_floorplan",
    "render_table1",
    "render_table2",
    "run_sweep",
    "save_records",
    "table2_matrix",
    "total_feasible",
]
