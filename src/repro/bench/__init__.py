"""Benchmark harness: workloads, runner, reporting."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.bench.workloads": (
        "ENGINE_NAMES", "prepare_graph", "pick_source", "cached_partition",
        "algorithm_params",
    ),
    "repro.facade": ("make_engine",),
    "repro.bench.runner": ("Cell", "run_cell", "run_matrix"),
    "repro.bench.calibration": ("calibration_summary", "format_calibration"),
    "repro.bench.reporting": (
        "format_table", "format_breakdown", "format_series", "switch_points",
    ),
})
