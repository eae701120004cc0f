"""Behavioural model of Gunrock's multi-GPU execution (the baseline).

Gunrock [Wang et al., TOPC'17; Pan et al., IPDPS'17] is a BSP system:
static edge-cut ownership, every GPU synchronizes every iteration, no
work stealing. Its strength is heavily-optimized *single-GPU* kernels
with algorithm-specific tricks; its weakness — which the paper's Exp-2
demonstrates — is that those tricks do not scale out.

This model runs the same virtual machine and the same algorithms as
GUM, but with Gunrock's policy:

* :class:`~repro.runtime.scheduler.StaticScheduler` — no stealing, all
  GPUs in every synchronization round (DLB + LT exposed in full);
* **direction-optimized BFS** [Beamer]: when the frontier's out-edges
  exceed ``|E| / alpha``, the iteration switches to pull mode and
  processes the (cheaper) in-edges of still-unvisited vertices — a big
  win on low-diameter social graphs, none on road networks;
* **near-far SSSP** [Davidson et al.]: each iteration splits
  relaxations into near/far buckets — modelled as a work discount
  (fewer redundant relaxations) that *decays with GPU count* (the
  near pile fragments across distributed frontiers and boundary
  exchanges re-activate far vertices), at the price of an extra
  synchronization phase per iteration. On one GPU the discount wins;
  on eight GPUs it has evaporated while the doubled ``p * m``
  remains — reproducing the paper's observation that near-far "runs
  faster on a single GPU while hard to scale out".

The knobs are explicit constructor parameters so tests and ablations
can probe each modelling assumption.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.hardware.spec import MachineSpec
from repro.hardware.topology import Topology
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.partition.base import Partition
from repro.runtime.bsp import BSPEngine, EngineOptions
from repro.runtime.scheduler import StaticScheduler

__all__ = ["GunrockEngine"]


class GunrockEngine(BSPEngine):
    """BSP baseline with Gunrock-style algorithm-specific optimizations.

    Parameters
    ----------
    topology:
        Machine layout.
    near_far_sssp:
        Enable the near-far bucket model for SSSP (default True).
    near_far_work_factor:
        Fraction of frontier edges actually relaxed under near-far.
    near_far_sync_factor:
        Synchronization phases per logical SSSP iteration.
    """

    def __init__(
        self,
        topology: Topology,
        machine: Optional[MachineSpec] = None,
        options: Optional[EngineOptions] = None,
        near_far_sssp: bool = True,
        near_far_work_factor: float = 0.65,
        near_far_sync_factor: float = 2.0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        chaos=None,
    ) -> None:
        super().__init__(
            topology,
            scheduler=StaticScheduler(),
            machine=machine,
            options=options,
            name="gunrock",
            tracer=tracer,
            metrics=metrics,
            chaos=chaos,
        )
        self._near_far = bool(near_far_sssp)
        self._nf_work = float(near_far_work_factor)
        self._nf_sync = float(near_far_sync_factor)

    # ------------------------------------------------------------------
    def _effective_workloads(
        self,
        graph: CSRGraph,
        partition: Partition,
        algorithm,
        state,
        workloads: np.ndarray,
    ) -> np.ndarray:
        if algorithm.name == "sssp" and self._near_far:
            # the single-GPU discount decays as frontiers fragment
            saving = (1.0 - self._nf_work) / self._topology.num_gpus
            discounted = np.rint(
                workloads * (1.0 - saving)
            ).astype(np.int64)
            # never discount below one edge per non-empty fragment
            return np.where(workloads > 0, np.maximum(discounted, 1), 0)
        # direction-optimized BFS is inherited from the base engine
        return super()._effective_workloads(
            graph, partition, algorithm, state, workloads
        )

    def _sync_multiplier(self, algorithm, state) -> float:
        if algorithm.name == "sssp" and self._near_far:
            return self._nf_sync
        return 1.0
