"""Distributed BSP runtime: frontiers, schedulers, engine, metrics."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.runtime.frontier": ("Frontier",),
    "repro.runtime.metrics": ("TimeBreakdown", "IterationRecord", "RunResult"),
    "repro.runtime.scheduler": (
        "IterationPlan", "RunContext", "Scheduler", "StaticScheduler",
        "realize_plan", "select_vertices",
    ),
    "repro.runtime.bsp": ("BSPEngine", "EngineOptions"),
    "repro.runtime.trace": (
        "trace_records", "save_trace", "load_trace", "render_timeline",
        "utilization_report",
    ),
})
