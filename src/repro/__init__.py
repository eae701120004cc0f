"""repro — a reproduction of GUM (ICDE 2023) on a simulated multi-GPU machine.

GUM ("Efficient Multi-GPU Graph Processing with Remote Work Stealing",
Meng et al., ICDE 2023) attacks two utilization killers in multi-GPU
graph analytics — dynamic load imbalance (DLB) and the long tail (LT)
— with two NVLink-topology-aware stealing mechanisms:

* **FSteal** (frontier stealing): a per-iteration min-max MILP
  redistributes frontier edges across GPUs using learned cost
  coefficients ``c_ij = 1/B_ij + g(W_i)``;
* **OSteal** (ownership stealing): a reduction tree folds the worker
  group when synchronization overhead ``p*m`` dominates tiny tail
  iterations.

This package implements the complete system — graph substrate,
edge-cut partitioners, a calibrated virtual multi-GPU machine with
asymmetric NVLink topology, a BSP runtime, the GUM arbitrator, and
behavioural models of the Gunrock and Groute baselines — in pure
Python/NumPy. See DESIGN.md for the hardware-substitution rationale
and EXPERIMENTS.md for paper-vs-measured results.

Quick start::

    import repro

    graph = repro.datasets.load("LJ")
    partition = repro.random_partition(graph, 8)
    engine = repro.GumEngine(repro.dgx1(8))
    result = engine.run(graph, partition, "bfs", source=0)
    print(f"{result.total_ms:.1f} virtual ms, "
          f"stall {result.stall_fraction():.0%}")
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.config": ("config",),
    "repro.graph.datasets": ("datasets",),
    "repro.errors": (
        "ReproError", "GraphError", "PartitionError", "TopologyError",
        "SolverError", "EngineError", "ConvergenceError",
        "CostModelError", "FaultInjectionError", "DegradedModeError",
    ),
    "repro.chaos": (
        "ChaosScenario", "FaultSpec", "ChaosController", "FallbackSolver",
    ),
    "repro.graph": (
        "CSRGraph", "from_edges", "from_edge_arrays", "load_edge_list",
        "load_matrix_market", "symmetrize", "rmat", "web_graph",
        "road_network", "with_random_weights",
    ),
    "repro.partition": (
        "Partition", "random_partition", "segmented_partition",
        "metis_like_partition", "make_partition",
    ),
    "repro.hardware": (
        "GPUSpec", "Topology", "dgx1", "ring_topology", "fully_connected",
        "single_gpu", "DeviceModel", "TimingModel",
    ),
    "repro.runtime": (
        "Frontier", "BSPEngine", "EngineOptions", "StaticScheduler",
        "RunResult", "TimeBreakdown",
    ),
    "repro.algorithms": ("ALGORITHMS", "make_algorithm"),
    "repro.core": (
        "GumEngine", "GumConfig", "GumScheduler", "HubCache",
        "ReductionTree", "pretrained_default",
    ),
    "repro.baselines": ("GunrockEngine", "GrouteEngine"),
    "repro.obs": (
        "Tracer", "MetricsRegistry", "InMemorySink", "JsonlSink",
        "ChromeTraceSink", "write_chrome_trace", "NULL_TRACER",
        "NULL_METRICS",
    ),
    "repro.facade": ("run",),
})
__all__.append("__version__")
