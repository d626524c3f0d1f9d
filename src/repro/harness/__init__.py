"""Experiment harness: paper data, scale configs, drivers, rendering."""

from importlib import import_module

from . import paperdata
from .experiments import (
    CHECKPOINT_TABLE, CONDOR_TABLE, OVERHEAD_TABLE, RESTART_TABLE,
    ablation_blocking_vs_nonblocking, ablation_initiation,
    ablation_logging_phases, ablation_piggyback, campaign_restart_rows,
    table1_rows, table2_rows, table3_rows, table4_rows,
    table5_rows, table6_rows, table7_rows,
)
from .jobs import (
    STORAGE_CHOICES, Table, open_store, render_markdown, render_text,
    write_artifact,
)
from .platforms import (
    LEMIEUX_CODES, OverheadConfig, PLATFORMS, PlatformConfig, RESTART_CODES,
    SIZE_SCALE, ScalePoint, TABLE1_CODES, VELOCITY2_CODES,
)
from .parallel import Cell, default_workers, run_cells
from .runner import (
    c3_cell, measure_c3, measure_original, measure_recovery, measure_restart,
    original_cell, recovery_cell, restart_cell,
)

__all__ = [
    "Cell", "run_cells", "default_workers",
    "original_cell", "c3_cell", "restart_cell", "recovery_cell",
    "paperdata",
    "campaign_restart_rows",
    "table1_rows", "table2_rows", "table3_rows", "table4_rows",
    "table5_rows", "table6_rows", "table7_rows",
    "CONDOR_TABLE", "OVERHEAD_TABLE", "CHECKPOINT_TABLE", "RESTART_TABLE",
    "Table", "render_text", "render_markdown",
    "STORAGE_CHOICES", "open_store", "write_artifact",
    "ablation_initiation", "ablation_logging_phases", "ablation_piggyback",
    "ablation_blocking_vs_nonblocking",
    "measure_original", "measure_c3", "measure_restart", "measure_recovery",
    "LEMIEUX_CODES", "VELOCITY2_CODES", "TABLE1_CODES", "RESTART_CODES",
    "SIZE_SCALE",
    "PLATFORMS", "PlatformConfig", "ScalePoint", "OverheadConfig",
]

#: Study-module exports resolve lazily (PEP 562) so ``python -m
#: repro.harness.<study>`` does not import its module twice (once via
#: this package, once as ``__main__``) and trip runpy's warning.
_LAZY_EXPORTS = {
    "campaign": ("Scenario", "CampaignReport", "build_matrix",
                 "smoke_matrix", "full_matrix", "run_campaign",
                 "render_campaign"),
    "scaling": ("SCALING_APPS", "SCALING_PLATFORMS", "SCALING_RANKS",
                "check_flatness", "measure_scaling_point", "render_scaling",
                "scaling_cell", "scaling_rows"),
    "sizes": ("SIZES_PARAMS", "SIZES_PLATFORMS", "measure_kernel_sizes",
              "render_sizes", "table_sizes_rows"),
    "overlap": ("OVERLAP_KERNELS", "OVERLAP_PLATFORMS", "fault_rows",
                "overhead_rows", "render_overlap"),
    "loadgen": ("build_mix", "percentile", "run_loadgen"),
}
_LAZY = {name: module for module, names in _LAZY_EXPORTS.items()
         for name in names}
__all__ += sorted(_LAZY)


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
