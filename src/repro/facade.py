"""One-call convenience API.

For users who want an answer, not an experiment::

    import repro

    result = repro.run(my_graph, "sssp", source=3)           # GUM, 8 GPUs
    result = repro.run(my_graph, "wcc", engine="groute",
                       num_gpus=4, partitioner="metis")

Handles algorithm prerequisites automatically (symmetrization for WCC,
unit weights for SSSP on unweighted graphs) and returns the usual
:class:`~repro.runtime.metrics.RunResult`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Optional, Union

from repro.algorithms import GASAlgorithm, make_algorithm
from repro.baselines import GrouteEngine, GunrockEngine, PeekStealScheduler
from repro.core import GumConfig, GumEngine
from repro.errors import EngineError
from repro.graph.csr import CSRGraph
from repro.hardware.topology import Topology, dgx1, parse_topology
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.partition.partitioners import make_partition
from repro.runtime import BSPEngine, EngineOptions, RunResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.costmodel import CostModel

__all__ = ["run", "make_engine"]


def run(
    graph: CSRGraph,
    algorithm: Union[str, GASAlgorithm],
    engine: str = "gum",
    num_gpus: int = 8,
    partitioner: str = "random",
    gum_config: Optional[GumConfig] = None,
    cost_model: Optional[Union[str, "CostModel"]] = None,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    chaos=None,
    topology: Optional[Union[str, Topology]] = None,
    **params,
) -> RunResult:
    """Partition, schedule, and execute one algorithm in a single call.

    Parameters
    ----------
    graph:
        Input graph; prerequisites (symmetric edges for WCC) are
        derived automatically.
    algorithm:
        Registered name (``bfs``/``sssp``/``wcc``/``pr``/``dpr``) or an
        instance.
    engine:
        ``gum`` (default), ``gunrock``, ``groute``, or an ablation arm
        (``gum-nosteal``, ``bsp``, ``peeksteal``) — every name
        :func:`make_engine`, and so the CLI's ``--engine``, accepts.
    num_gpus:
        Virtual GPU count (1..8, DGX-1 sub-topology).
    partitioner:
        ``random`` / ``seg`` / ``metis``.
    gum_config:
        Arbitrator overrides (GUM only).
    cost_model:
        Shorthand for ``gum_config.cost_model`` (GUM only): a model
        name (``default``/``oracle``/``uniform``), a
        :class:`~repro.core.costmodel.CostModel` instance, or a path
        to a ``repro-costmodel/1`` artifact written by
        ``repro costmodel fit`` — so a freshly fitted model plugs in
        as ``repro.run(graph, "bfs", cost_model="model.json")``.
        Overrides any ``gum_config.cost_model`` already set.
    tracer / metrics:
        Observability hooks (:mod:`repro.obs`): pass a
        :class:`~repro.obs.tracer.Tracer` and/or
        :class:`~repro.obs.metrics.MetricsRegistry` to record the run.
    chaos:
        A :class:`~repro.chaos.ChaosController` to inject faults into
        the run (BSP-style engines only; see ``docs/robustness.md``).
    topology:
        Machine shape: ``None`` (the ``num_gpus``-GPU DGX-1
        sub-topology), a :class:`~repro.hardware.Topology`, or a
        selector string like ``"nodes=2x4"`` (a 2-node cluster of
        4-GPU servers; the worker count then comes from the topology
        and two-level hierarchical stealing activates).
    params:
        Algorithm init parameters (``source=...`` etc.).

    With the default GUM engine the returned result also carries a
    per-decision explainability ledger (``result.ledger``, a
    :class:`~repro.obs.ledger.Ledger`): every OSteal/FSteal decision
    with its features, predicted vs measured cost, and drift analytics.
    """
    if cost_model is not None:
        if engine != "gum":
            raise EngineError(
                "cost_model= only applies to the gum engine; "
                f"engine={engine!r} has no cost model"
            )
        gum_config = replace(
            gum_config or GumConfig(), cost_model=cost_model
        )
    if isinstance(algorithm, str):
        algorithm = make_algorithm(algorithm)
    if algorithm.needs_symmetric and graph.directed:
        graph = graph.symmetrized()
    if topology is None:
        topology = parse_topology(None, num_gpus)
    else:
        # an explicit topology defines the worker count; num_gpus is
        # ignored (its default of 8 can't be told apart from a request)
        topology = parse_topology(topology)
        num_gpus = topology.num_gpus
    runner = make_engine(
        engine, num_gpus, gum_config=gum_config, tracer=tracer,
        metrics=metrics, chaos=chaos, topology=topology,
    )
    partition = make_partition(partitioner, graph, num_gpus, seed=seed)
    return runner.run(graph, partition, algorithm, **params)


def make_engine(
    name: str,
    num_gpus: int = 8,
    gum_config: Optional[GumConfig] = None,
    options: Optional[EngineOptions] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    chaos=None,
    topology: Optional[Topology] = None,
):
    """The one engine table: :func:`run`, the CLI and the bench matrix.

    Names: ``gum``, ``gunrock``, ``groute``, plus the ablation arms
    ``gum-nosteal`` (GUM plumbing, stealing off), ``bsp`` (plain static
    BSP engine without any Gunrock algorithm tricks) and ``peeksteal``
    (BSP under the PeekSteal policy). A tracer and/or metrics registry
    attaches to any of them; a :class:`~repro.chaos.ChaosController`
    attaches to every BSP-based engine (Groute's asynchronous runtime
    has no superstep boundary to inject at, so it rejects a controller).
    An explicit ``topology`` (e.g. a :func:`repro.hardware.cluster`
    preset) replaces the default ``num_gpus``-GPU DGX-1 sub-topology;
    its GPU count must equal ``num_gpus`` since the partition is built
    for that many workers.
    """
    if topology is None:
        topology = dgx1(num_gpus)
    elif topology.num_gpus != num_gpus:
        raise EngineError(
            f"topology {topology.name!r} carries {topology.num_gpus} "
            f"GPUs but {num_gpus} were asked for"
        )
    obs = {"tracer": tracer, "metrics": metrics}
    if name == "groute":
        if chaos is not None:
            raise EngineError(
                "fault injection requires a BSP-style engine; groute's "
                "asynchronous runtime is not supported"
            )
        return GrouteEngine(topology, **obs)
    obs.update(options=options, chaos=chaos)
    if name == "gum":
        return GumEngine(topology, config=gum_config, **obs)
    if name == "gum-nosteal":
        solver = (gum_config or GumConfig()).solver
        config = GumConfig(
            fsteal=False, osteal=False, hub_cache=False,
            cost_model="uniform", solver=solver,
        )
        return GumEngine(topology, config=config, **obs)
    if name == "gunrock":
        return GunrockEngine(topology, **obs)
    if name in ("bsp", "peeksteal"):
        scheduler = PeekStealScheduler() if name == "peeksteal" else None
        return BSPEngine(topology, scheduler=scheduler, name=name, **obs)
    raise EngineError(
        f"unknown engine {name!r}; known: gum, gunrock, groute, "
        "gum-nosteal, bsp, peeksteal"
    )
