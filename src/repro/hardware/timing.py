"""Virtual-time accounting for the simulated machine.

:class:`TimingModel` converts *work* (edges processed, bytes moved,
workers synchronized) into *virtual seconds*, combining:

* the topology's effective bandwidth matrix (the ``1/B_ij`` term of the
  paper's cost coefficient ``c_ij``),
* the device model's ground-truth per-edge compute cost ``g*(W)``,
* the synchronization model ``p * m`` responsible for the long tail.

Engines never invent timing constants; they ask this object. The
stealing algorithms use the *same* object via measured bandwidth and a
*learned* ``g`` — so an inaccurate cost model really does produce worse
policies (Exp-7's "slowdown" column measures exactly that gap).
"""

from __future__ import annotations

from typing import Optional

from repro import config
from repro.graph.features import FrontierFeatures
from repro.hardware.device import DeviceModel
from repro.hardware.spec import MachineSpec, SyncSpec
from repro.hardware.topology import Topology

__all__ = ["TimingModel"]


class TimingModel:
    """Charges virtual time for compute, communication, and sync.

    Parameters
    ----------
    topology:
        Machine layout; supplies effective bandwidths.
    machine:
        Device + sync specs; defaults to the V100/DGX-1 calibration.
    device_model:
        Ground-truth compute-cost model; constructed from the machine's
        GPU spec when omitted.
    """

    def __init__(
        self,
        topology: Topology,
        machine: Optional[MachineSpec] = None,
        device_model: Optional[DeviceModel] = None,
    ) -> None:
        self._topology = topology
        self._machine = machine or MachineSpec(gpu=topology.gpu)
        self._device = device_model or DeviceModel(self._machine.gpu)
        # seconds per edge moved between each pair (bytes / bandwidth)
        # and the effective bandwidths in bytes/s, as nested lists
        rate = topology.effective_bandwidth_matrix() * 1e9
        self._rows = ((config.BYTES_PER_EDGE / rate).tolist(), rate.tolist())

    # ------------------------------------------------------------------
    @property
    def topology(self) -> Topology:
        """The machine layout this model charges for."""
        return self._topology

    @property
    def device_model(self) -> DeviceModel:
        """The ground-truth compute-cost model."""
        return self._device

    @property
    def sync(self) -> SyncSpec:
        """The synchronization-overhead spec."""
        return self._machine.sync

    # ------------------------------------------------------------------
    # Compute & communication
    # ------------------------------------------------------------------
    def compute_seconds(
        self, num_edges: int, features: FrontierFeatures
    ) -> float:
        """Time for one GPU to process ``num_edges`` edges locally."""
        return num_edges * self._device.true_edge_cost(features)

    def comm_seconds_per_edge(self, owner: int, worker: int) -> float:
        """The ``1/B_ij`` term: seconds to move one edge's data.

        ``owner == worker`` prices local HBM access.
        """
        return self._rows[0][owner][worker]

    def pricing_rows(self) -> tuple:
        """``(comm seconds per edge, effective bytes/s)`` of every pair
        as nested lists, made once per model (what the engine's chunk
        pricing indexes)."""
        return self._rows

    # ------------------------------------------------------------------
    # Synchronization & serialization (the LT ingredients)
    # ------------------------------------------------------------------
    def sync_seconds(self, num_workers: int) -> float:
        """Per-iteration synchronization cost with ``m`` active workers.

        The paper's ``p * m`` (Equation 4) plus a fixed barrier cost.
        Zero workers means the iteration did not happen.
        """
        if num_workers <= 0:
            return 0.0
        spec = self._machine.sync
        return (
            spec.per_worker_us * num_workers + spec.barrier_us
        ) * 1e-6

    def kernel_launch_seconds(self, num_kernels: int = 1) -> float:
        """Latency of launching ``num_kernels`` kernels on one GPU."""
        return num_kernels * self._machine.gpu.kernel_launch_us * 1e-6

    def serialization_seconds(self, num_messages: int) -> float:
        """Packing scattered updates into contiguous send buffers."""
        nbytes = num_messages * config.BYTES_PER_MESSAGE
        return nbytes * self._machine.sync.serialization_ns_per_byte * 1e-9

    def transfer_seconds(self, owner: int, peer: int, nbytes: int) -> float:
        """Bulk transfer of ``nbytes`` between two GPUs."""
        if owner == peer:
            bandwidth = self._topology.gpu.local_bandwidth_gbps
        else:
            bandwidth = self._topology.effective_bandwidth(owner, peer)
        return nbytes / (bandwidth * 1e9)
