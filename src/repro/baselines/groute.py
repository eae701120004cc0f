"""Behavioural model of Groute's asynchronous execution (the baseline).

Groute [Ben-Nun et al., PPoPP'17] abandons BSP: each GPU processes its
local work to a fixed point and exchanges boundary updates over a
*single communication ring* chosen from the NVLink topology. Two
consequences the paper leans on (Exp-1/Exp-2):

* **asynchronous wins on long diameters** — a fragment collapses to its
  local fixed point in one round, so WCC on road networks finishes in a
  handful of rounds where BSP needs thousands of supersteps;
* **the ring wastes the topology** — all traffic shares one ring
  (unused NVLinks idle), and GPU counts that cannot form an NVLink ring
  (odd sub-topologies of the cube mesh) must route hops over PCIe,
  which is why Groute degrades at odd GPU counts.

Mechanics of one round for monotone algorithms (BFS/SSSP/WCC):

1. every fragment repeatedly relaxes its *intra-fragment* edges until
   no local value changes (sub-steps priced per fragment);
2. every vertex updated this round pushes its *cross-fragment* edges;
   messages travel the ring along the shorter arc, and the round's
   communication time is the most-loaded ring link;
3. a lightweight (non-barrier) coordination charge replaces the BSP
   ``p * m`` sync.

PageRank is not monotone, so local-fixed-point execution is unsound;
Groute's async PR instead re-propagates deltas eagerly. We model it as
synchronous rounds whose edge work is inflated by
``pr_extra_work`` (the redundant re-propagation), keeping semantics
exact — this is the documented substitution for Groute's PR behaviour
and reproduces its poor PR numbers in Table III.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro import config as repro_config
from repro.errors import EngineError
from repro.graph.csr import CSRGraph
from repro.graph.gather import distinct_vertices
from repro.hardware.spec import MachineSpec
from repro.hardware.timing import TimingModel
from repro.hardware.topology import Topology
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.partition.base import Partition
from repro.runtime.envelope import RunEnvelope
from repro.runtime.frontier import Frontier
from repro.runtime.metrics import IterationRecord, RunResult, TimeBreakdown

__all__ = ["GrouteEngine"]


class GrouteEngine:
    """Asynchronous ring baseline.

    Parameters
    ----------
    topology:
        Machine layout; the engine extracts its communication ring.
    async_sync_factor:
        Fraction of the BSP per-round synchronization cost Groute pays
        (no global barrier, but rounds still coordinate).
    pr_extra_work:
        Work inflation for the (non-monotone) PageRank path.
    local_substeps:
        Cap on local relaxation waves per round. Groute's soft-priority
        scheduling keeps a GPU from speculating arbitrarily far ahead
        of incoming remote corrections; an uncapped local fixed point
        would model a pathological amount of redundant relaxation on
        weighted graphs.
    max_rounds:
        Safety bound on rounds.
    tracer / metrics:
        Observability hooks (:mod:`repro.obs`); both default to the
        zero-overhead null implementations.
    """

    def __init__(
        self,
        topology: Topology,
        machine: Optional[MachineSpec] = None,
        async_sync_factor: float = 0.4,
        pr_extra_work: float = 2.0,
        local_substeps: int = 4,
        max_rounds: int = 10_000,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._topology = topology
        self._timing = TimingModel(topology, machine=machine)
        self._async_sync = float(async_sync_factor)
        self._pr_extra = float(pr_extra_work)
        self._local_substeps = int(local_substeps)
        self._max_rounds = int(max_rounds)
        self._ring, self._ring_bandwidth = self._build_ring(topology)
        self._tracer = tracer or NULL_TRACER
        self._metrics = metrics or NULL_METRICS

    # ------------------------------------------------------------------
    @property
    def topology(self) -> Topology:
        """The machine this engine simulates."""
        return self._topology

    @property
    def ring(self) -> List[int]:
        """GPU order of the communication ring."""
        return list(self._ring)

    @property
    def timing(self) -> TimingModel:
        """The engine's ground-truth timing model."""
        return self._timing

    @property
    def tracer(self) -> Tracer:
        """The attached tracer (null when disabled)."""
        return self._tracer

    @property
    def metrics(self) -> MetricsRegistry:
        """The attached metrics registry (null when disabled)."""
        return self._metrics

    @staticmethod
    def _build_ring(topology: Topology) -> tuple[List[int], np.ndarray]:
        """The ring order and per-ring-link bandwidth (GB/s).

        Prefers an all-NVLink Hamiltonian ring; when none exists (odd
        cube-mesh subsets), falls back to id order with PCIe on the
        missing links — the modelled source of Groute's odd-GPU
        penalty.
        """
        ring = topology.find_ring()
        if ring is None:
            ring = list(range(topology.num_gpus))
        n = len(ring)
        bandwidth = np.empty(max(n, 1))
        if n == 1:
            bandwidth[0] = topology.gpu.local_bandwidth_gbps
            return ring, bandwidth
        for idx in range(n):
            a, b = ring[idx], ring[(idx + 1) % n]
            bandwidth[idx] = topology.direct_bandwidth(a, b)
        return ring, bandwidth

    # ------------------------------------------------------------------
    def run(
        self,
        graph: CSRGraph,
        partition: Partition,
        algorithm: Union[str, object],
        max_iterations: Optional[int] = None,
        **params,
    ) -> RunResult:
        """Execute to convergence under the asynchronous ring model."""
        from repro.algorithms import make_algorithm

        if isinstance(algorithm, str):
            algorithm = make_algorithm(algorithm)
        if partition.num_fragments != self._topology.num_gpus:
            raise EngineError(
                "partition fragment count does not match the machine"
            )
        limit = max_iterations or self._max_rounds
        # monotone algorithms run local fixed points over the intra /
        # cross edge split; PageRank takes the synchronous path
        edge_sets = (self._edge_sets(graph, partition)
                     if algorithm.monotonic else None)
        state = algorithm.init(graph, **params)
        envelope = RunEnvelope(
            "groute", algorithm, graph, self._topology.num_gpus, state,
            self._tracer, self._metrics,
        )
        with envelope.span():
            while state.frontier and envelope.rounds < limit:
                if edge_sets is None:
                    record = self._synchronous_round(
                        graph, partition, algorithm, state
                    )
                else:
                    record = self._monotonic_round(
                        graph, partition, algorithm, state,
                        envelope.rounds, *edge_sets,
                    )
                envelope.fold(record)
        return envelope.close()

    # ------------------------------------------------------------------
    @staticmethod
    def _edge_sets(graph: CSRGraph, partition: Partition) -> tuple:
        """(intra, cross): the intra- and cross-fragment edges as two
        graphs over the same vertices in CSR order, split once per run."""
        n = graph.num_vertices
        sources = np.repeat(np.arange(n), np.diff(graph.indptr))
        intra = partition.owner[sources] == partition.owner[graph.indices]
        edge_sets = []
        for keep in (intra, ~intra):
            degrees = np.bincount(sources[keep], minlength=n)
            edge_sets.append(CSRGraph(
                np.concatenate(([0], np.cumsum(degrees))),
                graph.indices[keep],
                None if graph.weights is None else graph.weights[keep],
            ))
        return tuple(edge_sets)

    def _ring_comm_seconds(self, messages: np.ndarray) -> float:
        """Time for a round's cross messages to traverse the ring.

        ``messages[i, j]`` counts the messages from ring position ``i``
        to ring position ``j``. Each message travels the shorter arc
        between its endpoints (one inside a fragment travels no link);
        the round's communication time is the byte load of the most
        congested ring link divided by that link's bandwidth.
        """
        n = len(self._ring)
        if n <= 1 or not messages.any():
            return 0.0
        # a message's route depends only on its endpoints' ring
        # positions, so pairs are routed instead of messages
        messages = messages.ravel()
        src_pos, dst_pos = np.divmod(np.arange(n * n), n)
        forward = (dst_pos - src_pos) % n
        backward = (src_pos - dst_pos) % n
        go_forward = forward <= backward
        hops = np.where(go_forward, forward, backward)
        link_messages = np.zeros(n, dtype=np.int64)
        for step in range(n // 2):
            live = hops > step
            links = np.where(
                go_forward[live],
                (src_pos[live] + step) % n,
                (src_pos[live] - step - 1) % n,
            )
            np.add.at(link_messages, links, messages[live])
        # integer counts times the integer-valued message size: exact
        link_bytes = link_messages * float(repro_config.BYTES_PER_MESSAGE)
        with np.errstate(divide="ignore"):
            times = link_bytes / (self._ring_bandwidth * 1e9)
        return float(times.max())

    # ------------------------------------------------------------------
    def _monotonic_round(
        self,
        graph: CSRGraph,
        partition: Partition,
        algorithm,
        state,
        round_index: int,
        intra: CSRGraph,
        cross: CSRGraph,
    ) -> IterationRecord:
        """One asynchronous round: local fixed points over ``intra``,
        then ``cross`` over the ring. Virtual time reads ``graph``."""
        num_workers = self._topology.num_gpus
        round_frontier: Frontier = state.frontier
        busy = np.zeros(num_workers)
        features = round_frontier.split_by_owner(
            partition.owner, num_workers, graph
        ).features
        # --- phase 1: local relaxation waves --------------------------
        # Weighted relaxation can speculate past the values remote
        # corrections will deliver (redundant work), so it runs under
        # the soft-priority substep cap; unweighted monotone
        # propagation (BFS levels, WCC labels) settles to its true
        # local fixed point.
        substep_cap = (
            self._local_substeps
            if algorithm.needs_weights
            else self._max_rounds
        )
        updated_parts: List[np.ndarray] = []
        frontier = round_frontier
        local_edges = 0
        substep = 0
        while frontier and substep < substep_cap:
            updated_parts.append(frontier.vertices)
            parts = frontier.split_by_owner(partition.owner, num_workers)
            for fragment, part in enumerate(parts):
                if part:
                    busy[fragment] += self._local_seconds(
                        fragment, part.work(graph), features[fragment],
                        launches=1,
                    )
            local_edges += frontier.work(graph)
            frontier = algorithm.local_step(intra, state, frontier, None)
            substep += 1
        deferred = frontier
        if deferred:
            # soft-priority cutoff: defer the rest to the next round
            updated_parts.append(deferred.vertices)
        # --- phase 2: push cross edges over the ring ------------------
        all_updated = Frontier.from_sorted(distinct_vertices(
            np.concatenate(updated_parts), graph.num_vertices
        ))
        comm, cross_count = self._ring_exchange(
            cross, partition, all_updated
        )
        # the cross relaxations themselves run on the receiving side;
        # deferred local work resumes next round
        state.frontier = algorithm.local_step(
            cross, state, all_updated, None
        ).union(deferred)
        return self._round_record(
            round_index, round_frontier.size, local_edges + cross_count,
            busy, comm, cross_count,
        )

    def _synchronous_round(
        self, graph: CSRGraph, partition: Partition, algorithm, state
    ) -> IterationRecord:
        """Non-monotone path (PageRank): sync rounds + async work tax."""
        num_workers = self._topology.num_gpus
        frontier: Frontier = state.frontier
        busy = np.zeros(num_workers)
        parts = frontier.split_by_owner(partition.owner, num_workers, graph)
        for fragment, part in enumerate(parts):
            if part:
                busy[fragment] += self._local_seconds(
                    fragment, int(part.work(graph) * self._pr_extra),
                    part.features(graph), launches=2,
                )
        comm, cross_count = self._ring_exchange(graph, partition, frontier)
        record = self._round_record(
            state.iteration, frontier.size, int(frontier.work(graph)),
            busy, comm * self._pr_extra, cross_count,
        )
        state.frontier = algorithm.step(graph, state)
        state.iteration += 1
        return record

    def _local_seconds(
        self, fragment: int, edges: int, features, launches: int
    ) -> float:
        """One fragment's kernel(s) over ``edges`` of its own edges."""
        return (
            self._timing.compute_seconds(edges, features)
            + edges * self._timing.comm_seconds_per_edge(fragment, fragment)
            + self._timing.kernel_launch_seconds(launches)
        )

    def _ring_exchange(
        self, graph: CSRGraph, partition: Partition, frontier: Frontier
    ) -> tuple[float, int]:
        """Ring seconds and cross-fragment message count of pushing
        every out-edge of ``frontier`` in ``graph`` (or its cross set)."""
        sources, destinations, __ = frontier.gather(graph)
        owner = partition.owner
        num_fragments = self._topology.num_gpus
        # one fused (source, destination) fragment key per edge, in a
        # dtype that holds F * F keys, counted into the F x F matrix
        keys = owner[sources].astype(
            np.min_scalar_type(num_fragments * num_fragments - 1)
        )
        keys *= num_fragments
        keys += owner[destinations]
        messages = np.bincount(
            keys, minlength=num_fragments * num_fragments
        ).reshape(num_fragments, num_fragments)
        ring = self._ring
        return (
            self._ring_comm_seconds(messages[np.ix_(ring, ring)]),
            int(keys.size - np.trace(messages)),
        )

    def _round_record(
        self,
        iteration: int,
        frontier_size: int,
        frontier_edges: int,
        busy: np.ndarray,
        comm: float,
        cross_count: int,
    ) -> IterationRecord:
        """Price one round from per-GPU busy seconds, ring seconds and
        the cross-message count: every GPU takes part, stall is the wait
        for the slowest, and a lightweight coordination charge stands
        in for the BSP barrier."""
        num_workers = busy.size
        critical = float(busy.max()) if busy.size else 0.0
        stall = np.where(busy > 0, critical - busy, 0.0)
        breakdown = TimeBreakdown(
            compute=float(busy.mean()),
            communication=comm + float(stall.mean()),
            serialization=self._timing.serialization_seconds(cross_count),
            sync=self._timing.sync_seconds(num_workers) * self._async_sync,
            overhead=0.0,
        )
        return IterationRecord(
            iteration=iteration,
            frontier_size=frontier_size,
            frontier_edges=frontier_edges,
            active_workers=list(range(num_workers)),
            busy_seconds=busy,
            stall_seconds=stall,
            wall_seconds=breakdown.total,
            breakdown=breakdown,
        )
