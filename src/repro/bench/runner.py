"""Experiment runner: execute (engine x algorithm x graph x GPUs) cells.

Every benchmark file reduces to a handful of :func:`run_cell` calls
plus a reporting call, so the experiment scripts stay declarative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.core import GumConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.runtime import EngineOptions, RunResult
from repro.bench.workloads import (
    algorithm_params,
    cached_partition,
    prepare_graph,
)
from repro.facade import make_engine

__all__ = ["Cell", "run_cell", "run_matrix"]


@dataclass(frozen=True)
class Cell:
    """One benchmark cell identifier."""

    engine: str
    algorithm: str
    graph: str
    num_gpus: int = 8
    partitioner: str = "random"

    def label(self) -> str:
        """Human-readable cell id."""
        return (
            f"{self.engine}/{self.algorithm}/{self.graph}"
            f"@{self.num_gpus}gpu/{self.partitioner}"
        )


def run_cell(
    cell: Cell,
    gum_config: Optional[GumConfig] = None,
    options: Optional[EngineOptions] = None,
    max_iterations: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    chaos=None,
    topology=None,
) -> RunResult:
    """Execute one benchmark cell and return its result."""
    graph = prepare_graph(cell.graph, cell.algorithm)
    partition = cached_partition(
        graph, cell.num_gpus, partitioner=cell.partitioner
    )
    engine = make_engine(
        cell.engine, cell.num_gpus, gum_config=gum_config, options=options,
        tracer=tracer, metrics=metrics, chaos=chaos, topology=topology,
    )
    params = algorithm_params(cell.algorithm, cell.graph)
    return engine.run(
        graph, partition, cell.algorithm,
        max_iterations=max_iterations, **params,
    )


def run_matrix(
    engines: Iterable[str],
    algorithms: Iterable[str],
    graphs: Iterable[str],
    num_gpus: int = 8,
    partitioner: str = "random",
    gum_config: Optional[GumConfig] = None,
) -> Dict[Cell, RunResult]:
    """Run the full cross product, keyed by :class:`Cell`."""
    results: Dict[Cell, RunResult] = {}
    for algorithm in algorithms:
        for graph in graphs:
            for engine in engines:
                cell = Cell(engine, algorithm, graph, num_gpus, partitioner)
                results[cell] = run_cell(cell, gum_config=gum_config)
    return results
