"""Benchmark harness: OSU-style sweeps and paper-figure reporting."""

from repro.bench.microbench import (
    OSU_SIZES,
    SweepPoint,
    sweep_hierarchical,
    sweep_nonhierarchical,
)
from repro.bench.ascii_plot import bar_chart, line_chart
from repro.bench.fabric import (
    FabricError,
    FabricMergeResult,
    FabricStatus,
    FabricWorker,
    WorkerStats,
    fabric_merge,
    fabric_status,
    run_fabric_worker,
)
from repro.bench.report import format_sweep_table, size_label
from repro.bench.suite import QUICK_SIZES, SuiteResult, run_suite

__all__ = [
    "OSU_SIZES",
    "SweepPoint",
    "sweep_nonhierarchical",
    "sweep_hierarchical",
    "format_sweep_table",
    "size_label",
    "line_chart",
    "bar_chart",
    "run_suite",
    "SuiteResult",
    "QUICK_SIZES",
    "FabricError",
    "FabricMergeResult",
    "FabricStatus",
    "FabricWorker",
    "WorkerStats",
    "fabric_merge",
    "fabric_status",
    "run_fabric_worker",
]
