"""Asymmetric interconnect topology for the virtual multi-GPU machine.

Models the NVLink layouts the paper exploits (Section I, Figure 2):

* links between GPU pairs are *asymmetric* — two lanes (50 GB/s), one
  lane (25 GB/s), or none (PCIe fallback through the host);
* multiple *stealing paths* may exist between a pair, routing through a
  transit GPU.

:class:`Topology` stores the lane matrix and answers the two questions
the stealing algorithms ask: *what is the effective bandwidth between
i and j* (best direct-or-multi-hop path, store-and-forward penalized
per hop), and *what ring should a ring-based system (Groute) use*.

The shipped preset is the DGX-1V hybrid cube mesh — two fully-connected
quads bridged by doubled links, six lanes per GPU — which is the
8xV100 server class used in the paper's evaluation.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import TopologyError
from repro.hardware.spec import (
    ETHERNET_GBPS,
    GPUSpec,
    IB_LANE_GBPS,
    LinkSpec,
    NVLINK_LANE_GBPS,
    PCIE_GBPS,
)

__all__ = [
    "Topology",
    "dgx1",
    "ring_topology",
    "fully_connected",
    "single_gpu",
    "cluster",
    "parse_topology",
]


def _maximin_over_hops(lanes_gbps: np.ndarray) -> np.ndarray:
    """Best store-and-forward bandwidth per pair over a lane graph.

    ``lanes_gbps`` is the symmetric direct-bandwidth matrix (zero where
    no link). A path through ``h`` hops is store-and-forward: its
    effective bandwidth is the bottleneck link bandwidth divided by
    ``h``. Entries with no path at all come back ``-inf`` so callers
    can apply their fallback floor.
    """
    n = lanes_gbps.shape[0]
    best = np.full((n, n), -np.inf)
    hop_widest = np.where(lanes_gbps > 0, lanes_gbps, -np.inf)
    current = hop_widest.copy()
    for hops in range(1, n):
        if hops > 1:
            # extend every (hops-1)-path by one direct hop
            extended = np.full((n, n), -np.inf)
            for mid in range(n):
                cand = np.minimum.outer(current[:, mid], hop_widest[mid])
                np.maximum(extended, cand, out=extended)
            current = extended
        np.maximum(best, current / hops, out=best)
    return best


class Topology:
    """A set of GPUs plus a symmetric lane matrix.

    Parameters
    ----------
    num_gpus:
        Number of devices.
    links:
        Point-to-point :class:`LinkSpec` entries. Pairs not listed
        communicate over PCIe (``PCIE_GBPS``).
    gpu:
        Per-device spec (homogeneous machine).
    node_of:
        Optional GPU -> node assignment for multi-node clusters. Node
        ids must be ``0..num_nodes-1`` with every node non-empty.
        NVLink links never cross nodes; unlisted *intra-node* pairs
        fall back to PCIe while unlisted *inter-node* pairs fall back
        to Ethernet.
    inter_node_links:
        :class:`LinkSpec` entries over **node** ids counting modeled
        InfiniBand rails between node pairs (``IB_LANE_GBPS`` each).
    """

    def __init__(
        self,
        num_gpus: int,
        links: Sequence[LinkSpec] = (),
        gpu: Optional[GPUSpec] = None,
        name: str = "custom",
        node_of: Optional[Sequence[int]] = None,
        inter_node_links: Sequence[LinkSpec] = (),
    ) -> None:
        if num_gpus < 1:
            raise TopologyError("need at least one GPU")
        self._n = int(num_gpus)
        self._gpu = gpu or GPUSpec()
        self._name = name
        if node_of is None:
            nodes = np.zeros(self._n, dtype=np.int64)
        else:
            nodes = np.asarray(list(node_of), dtype=np.int64)
            if nodes.shape != (self._n,):
                raise TopologyError(
                    f"node_of must assign all {self._n} GPUs"
                )
            if nodes.min() < 0:
                raise TopologyError("node ids cannot be negative")
            expected = np.arange(int(nodes.max()) + 1)
            if not np.isin(expected, nodes).all():
                raise TopologyError(
                    "node ids must be contiguous 0..num_nodes-1 with "
                    "every node non-empty"
                )
        nodes.setflags(write=False)
        self._node_of = nodes
        self._num_nodes = int(nodes.max()) + 1
        lanes = np.zeros((self._n, self._n), dtype=np.int64)
        for link in links:
            if not (0 <= link.a < self._n and 0 <= link.b < self._n):
                raise TopologyError(
                    f"link ({link.a},{link.b}) out of range for "
                    f"{self._n} GPUs"
                )
            if nodes[link.a] != nodes[link.b]:
                raise TopologyError(
                    f"NVLink link ({link.a},{link.b}) crosses nodes "
                    f"{int(nodes[link.a])} and {int(nodes[link.b])}; "
                    "inter-node traffic uses inter_node_links"
                )
            lanes[link.a, link.b] += link.lanes
            lanes[link.b, link.a] += link.lanes
        lanes.setflags(write=False)
        self._lanes = lanes
        inter = np.zeros((self._num_nodes, self._num_nodes),
                         dtype=np.int64)
        if inter_node_links and self._num_nodes == 1:
            raise TopologyError(
                "inter_node_links require a multi-node node_of grouping"
            )
        for link in inter_node_links:
            if not (0 <= link.a < self._num_nodes
                    and 0 <= link.b < self._num_nodes):
                raise TopologyError(
                    f"inter-node link ({link.a},{link.b}) out of range "
                    f"for {self._num_nodes} nodes"
                )
            inter[link.a, link.b] += link.lanes
            inter[link.b, link.a] += link.lanes
        inter.setflags(write=False)
        self._inter_lanes = inter
        self._bandwidth_cache: Optional[np.ndarray] = None
        self._ring_cache: Optional[List[int]] = None
        #: aggregate_bandwidth by member tuple; the lane arrays are
        #: write-protected, so an entry can never go stale
        self._aggregate_cache: Dict[tuple, float] = {}

    # ------------------------------------------------------------------
    @property
    def num_gpus(self) -> int:
        """Number of devices in the machine."""
        return self._n

    @property
    def gpu(self) -> GPUSpec:
        """The per-device specification."""
        return self._gpu

    @property
    def name(self) -> str:
        """Topology preset name, for reports."""
        return self._name

    @property
    def lane_matrix(self) -> np.ndarray:
        """Symmetric ``n x n`` matrix of direct NVLink lane counts."""
        return self._lanes

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the cluster (1 for a single server)."""
        return self._num_nodes

    @property
    def node_assignment(self) -> np.ndarray:
        """Read-only GPU -> node id array."""
        return self._node_of

    @property
    def inter_node_lane_matrix(self) -> np.ndarray:
        """Symmetric ``nodes x nodes`` matrix of IB rail counts."""
        return self._inter_lanes

    def node_of(self, i: int) -> int:
        """Node hosting GPU ``i``."""
        return int(self._node_of[i])

    def node_members(self, node: int) -> List[int]:
        """GPU ids hosted on ``node``, ascending."""
        return [int(g) for g in np.flatnonzero(self._node_of == node)]

    def __repr__(self) -> str:
        return f"Topology(name={self._name!r}, num_gpus={self._n})"

    # ------------------------------------------------------------------
    def direct_bandwidth(self, i: int, j: int) -> float:
        """Bandwidth of the direct link i-j in GB/s.

        ``i == j`` returns local HBM bandwidth; zero-lane intra-node
        pairs return the PCIe fallback. Pairs on different nodes use
        the node pair's IB rails, or the Ethernet floor without any.
        """
        if i == j:
            return self._gpu.local_bandwidth_gbps
        u, v = int(self._node_of[i]), int(self._node_of[j])
        if u != v:
            rails = int(self._inter_lanes[u, v])
            return rails * IB_LANE_GBPS if rails else ETHERNET_GBPS
        lanes = int(self._lanes[i, j])
        return lanes * NVLINK_LANE_GBPS if lanes else PCIE_GBPS

    def direct_bandwidth_matrix(self) -> np.ndarray:
        """Matrix of :meth:`direct_bandwidth` for all pairs."""
        bw = np.where(
            self._lanes > 0, self._lanes * NVLINK_LANE_GBPS, PCIE_GBPS
        ).astype(np.float64)
        node_bw = np.where(
            self._inter_lanes > 0,
            self._inter_lanes * IB_LANE_GBPS,
            ETHERNET_GBPS,
        ).astype(np.float64)
        cross = self._node_of[:, None] != self._node_of[None, :]
        bw[cross] = node_bw[
            self._node_of[:, None], self._node_of[None, :]
        ][cross]
        np.fill_diagonal(bw, self._gpu.local_bandwidth_gbps)
        return bw

    def effective_bandwidth_matrix(self) -> np.ndarray:
        """Best achievable bandwidth per pair, allowing transit GPUs.

        A path through ``h`` hops is store-and-forward: its effective
        bandwidth is the bottleneck link bandwidth divided by ``h``.
        The matrix entry is the max over direct PCIe and every NVLink
        path of at most ``n-1`` hops — this is the paper's observation
        that GPU0 may steal from GPU7 through GPU1 or GPU6 when the
        transit path beats the fallback.
        """
        if self._bandwidth_cache is not None:
            return self._bandwidth_cache
        nvlink = (self._lanes * NVLINK_LANE_GBPS).astype(np.float64)
        # widest[i, j] = best bottleneck bandwidth over NVLink-only paths
        # of at most k hops; a maximin Floyd-Warshall variant tracked
        # per hop count. NVLink lanes never cross nodes, so intra-node
        # entries are independent of the inter-node fabric by
        # construction.
        best = _maximin_over_hops(nvlink)
        eff = np.maximum(best, PCIE_GBPS)
        # node-level fabric: maximin over IB rails with the same
        # store-and-forward penalty, floored at the Ethernet management
        # network. Every cross-node GPU pair sees its node pair's
        # effective rate.
        ib = (self._inter_lanes * IB_LANE_GBPS).astype(np.float64)
        node_eff = np.maximum(_maximin_over_hops(ib), ETHERNET_GBPS)
        cross = self._node_of[:, None] != self._node_of[None, :]
        eff[cross] = node_eff[
            self._node_of[:, None], self._node_of[None, :]
        ][cross]
        np.fill_diagonal(eff, self._gpu.local_bandwidth_gbps)
        eff.setflags(write=False)
        self._bandwidth_cache = eff
        return eff

    def effective_bandwidth(self, i: int, j: int) -> float:
        """Effective (possibly multi-hop) bandwidth between i and j."""
        return float(self.effective_bandwidth_matrix()[i, j])

    def aggregate_bandwidth(self, members: Sequence[int]) -> float:
        """Sum of direct NVLink bandwidth among a subset of GPUs.

        The OSteal reduction tree keeps the *residual network with the
        largest aggregated bandwidth* (Section IV-A); this is the
        quantity it maximizes. Memoized per member tuple: the engine
        prices every superstep's message transfer with it.
        """
        members = tuple(members)
        cached = self._aggregate_cache.get(members)
        if cached is not None:
            return cached
        total = 0.0
        for idx, i in enumerate(members):
            for j in members[idx + 1:]:
                total += float(self._lanes[i, j]) * NVLINK_LANE_GBPS
        # an IB rail is shared by every GPU pair spanning its two
        # nodes, so each node pair contributes its rails once
        present = sorted({int(self._node_of[g]) for g in members})
        for idx, u in enumerate(present):
            for v in present[idx + 1:]:
                total += float(self._inter_lanes[u, v]) * IB_LANE_GBPS
        self._aggregate_cache[members] = total
        return total

    # ------------------------------------------------------------------
    def find_ring(self) -> Optional[List[int]]:
        """Find a Hamiltonian NVLink ring, preferring wide links.

        Returns the GPU order of a ring using only direct NVLink links,
        or ``None`` if no such ring exists (e.g. odd sub-topologies of
        the cube mesh) — the case where Groute degrades in the paper's
        Exp-2.
        """
        if self._ring_cache is not None:
            return list(self._ring_cache)
        n = self._n
        if n == 1:
            self._ring_cache = [0]
            return [0]
        if n == 2:
            if self._lanes[0, 1] > 0:
                self._ring_cache = [0, 1]
                return [0, 1]
            return None

        order = [0]
        used = [False] * n
        used[0] = True

        def backtrack() -> bool:
            if len(order) == n:
                return bool(self._lanes[order[-1], 0] > 0)
            last = order[-1]
            # try wide links first so the chosen ring is the fast one
            candidates = sorted(
                (v for v in range(n) if not used[v] and self._lanes[last, v]),
                key=lambda v: -int(self._lanes[last, v]),
            )
            for v in candidates:
                used[v] = True
                order.append(v)
                if backtrack():
                    return True
                order.pop()
                used[v] = False
            return False

        if backtrack():
            self._ring_cache = list(order)
            return list(order)
        return None

    def with_degraded_link(
        self, a: int, b: int, lanes: int = 0, name: str = ""
    ) -> "Topology":
        """Copy of this topology with the direct link ``a``-``b`` set to
        ``lanes`` lanes.

        ``lanes=0`` models a lost link (the pair falls back to PCIe or a
        multi-hop NVLink path); a positive count below the current one
        models partial lane degradation. The effective-bandwidth matrix
        of the returned topology is recomputed from scratch, so
        multi-hop steal paths reroute around the damage.

        When ``a`` and ``b`` live on different nodes the degradation
        applies to that node pair's IB rails instead: ``lanes`` is the
        remaining rail count and 0 drops the pair to the Ethernet
        floor. Node groupings are preserved either way, so chaos
        ``degrade_link`` composes with hierarchical topologies.
        """
        if a == b:
            raise TopologyError("cannot degrade a device's local link")
        if not (0 <= a < self._n and 0 <= b < self._n):
            raise TopologyError(
                f"link ({a},{b}) out of range for {self._n} GPUs"
            )
        if lanes < 0:
            raise TopologyError("lane count cannot be negative")
        node_a, node_b = int(self._node_of[a]), int(self._node_of[b])
        links = []
        for i in range(self._n):
            for j in range(i + 1, self._n):
                degraded = node_a == node_b and {i, j} == {a, b}
                count = lanes if degraded else int(self._lanes[i, j])
                if count:
                    links.append(LinkSpec(i, j, count))
        inter_links = []
        for u in range(self._num_nodes):
            for v in range(u + 1, self._num_nodes):
                degraded = node_a != node_b and {u, v} == {node_a, node_b}
                count = lanes if degraded else int(self._inter_lanes[u, v])
                if count:
                    inter_links.append(LinkSpec(u, v, count))
        return Topology(
            self._n,
            links,
            gpu=self._gpu,
            name=name or f"{self._name}-degraded",
            node_of=self._node_of,
            inter_node_links=inter_links,
        )

    def subset(self, members: Sequence[int], name: str = "") -> "Topology":
        """Topology induced on a subset of GPUs (ids are renumbered).

        Node groupings survive the cut: each member keeps its node,
        represented nodes are renumbered compactly in ascending
        original order, and IB rails are induced on the surviving node
        pairs.
        """
        members = list(members)
        if len(set(members)) != len(members):
            raise TopologyError("subset members must be distinct")
        remap = {g: i for i, g in enumerate(members)}
        links = []
        for idx, i in enumerate(members):
            for j in members[idx + 1:]:
                lanes = int(self._lanes[i, j])
                if lanes:
                    links.append(LinkSpec(remap[i], remap[j], lanes))
        member_nodes = [int(self._node_of[g]) for g in members]
        present = sorted(set(member_nodes))
        node_remap = {u: i for i, u in enumerate(present)}
        inter_links = []
        for idx, u in enumerate(present):
            for v in present[idx + 1:]:
                rails = int(self._inter_lanes[u, v])
                if rails:
                    inter_links.append(
                        LinkSpec(node_remap[u], node_remap[v], rails)
                    )
        return Topology(
            len(members),
            links,
            gpu=self._gpu,
            name=name or f"{self._name}[{len(members)}]",
            node_of=[node_remap[u] for u in member_nodes],
            inter_node_links=inter_links,
        )


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

#: DGX-1V hybrid cube mesh: two quads {0..3} / {4..7}, six lanes per GPU.
_DGX1_LINKS: Tuple[Tuple[int, int, int], ...] = (
    (0, 1, 1), (0, 2, 1), (0, 3, 2), (0, 4, 2),
    (1, 2, 2), (1, 3, 1), (1, 5, 2),
    (2, 3, 1), (2, 6, 2),
    (3, 7, 2),
    (4, 5, 1), (4, 6, 1), (4, 7, 2),
    (5, 6, 2), (5, 7, 1),
    (6, 7, 1),
)


def dgx1(num_gpus: int = 8, gpu: Optional[GPUSpec] = None) -> Topology:
    """The paper's platform: 8x V100 hybrid cube mesh (Figure 2 class).

    ``num_gpus < 8`` returns the induced sub-topology on GPUs
    ``0..num_gpus-1``, the configuration used in the scaling
    experiments (Exp-2).
    """
    if not 1 <= num_gpus <= 8:
        raise TopologyError("dgx1 preset supports 1..8 GPUs")
    links = [LinkSpec(a, b, lanes) for a, b, lanes in _DGX1_LINKS]
    full = Topology(8, links, gpu=gpu, name="dgx1")
    if num_gpus == 8:
        return full
    return full.subset(range(num_gpus), name=f"dgx1[{num_gpus}]")


def ring_topology(
    num_gpus: int, lanes: int = 2, gpu: Optional[GPUSpec] = None
) -> Topology:
    """Simple ring of ``num_gpus`` devices with ``lanes`` lanes per link."""
    if num_gpus < 1:
        raise TopologyError("need at least one GPU")
    links = [
        LinkSpec(i, (i + 1) % num_gpus, lanes)
        for i in range(num_gpus)
        if num_gpus > 1 and i != (i + 1) % num_gpus
    ]
    # a 2-GPU "ring" is a single link, not a double one
    if num_gpus == 2:
        links = [LinkSpec(0, 1, lanes)]
    return Topology(num_gpus, links, gpu=gpu, name=f"ring{num_gpus}")


def fully_connected(
    num_gpus: int, lanes: int = 1, gpu: Optional[GPUSpec] = None
) -> Topology:
    """All-to-all NVLink (NVSwitch-like), ``lanes`` lanes per pair."""
    links = [
        LinkSpec(i, j, lanes)
        for i in range(num_gpus)
        for j in range(i + 1, num_gpus)
    ]
    return Topology(num_gpus, links, gpu=gpu, name=f"full{num_gpus}")


def single_gpu(gpu: Optional[GPUSpec] = None) -> Topology:
    """A machine with a single device (the scaling baseline)."""
    return Topology(1, (), gpu=gpu, name="single")


def cluster(
    num_nodes: int,
    gpus_per_node: int,
    ib_rails: int = 1,
    gpu: Optional[GPUSpec] = None,
) -> Topology:
    """A multi-node cluster of DGX-1-class servers over an IB fabric.

    Each node carries the first ``gpus_per_node`` GPUs of the hybrid
    cube mesh (exactly :func:`dgx1`'s sub-topology), and every node
    pair is joined by ``ib_rails`` InfiniBand rails — the flat fabric
    of a small GPU cluster. ``cluster(1, k)`` is bit-identical to
    ``dgx1(k)`` apart from the preset name; ``--topology nodes=2x4``
    style CLI selectors resolve here.
    """
    if num_nodes < 1:
        raise TopologyError("need at least one node")
    if not 1 <= gpus_per_node <= 8:
        raise TopologyError("cluster nodes carry 1..8 GPUs (dgx1 class)")
    if ib_rails < 0:
        raise TopologyError("IB rail count cannot be negative")
    node_links = [
        (a, b, lanes)
        for a, b, lanes in _DGX1_LINKS
        if a < gpus_per_node and b < gpus_per_node
    ]
    links = [
        LinkSpec(node * gpus_per_node + a, node * gpus_per_node + b, lanes)
        for node in range(num_nodes)
        for a, b, lanes in node_links
    ]
    inter_links = [
        LinkSpec(u, v, ib_rails)
        for u in range(num_nodes)
        for v in range(u + 1, num_nodes)
    ]
    return Topology(
        num_nodes * gpus_per_node,
        links,
        gpu=gpu,
        name=f"cluster{num_nodes}x{gpus_per_node}",
        node_of=[
            node for node in range(num_nodes) for __ in range(gpus_per_node)
        ],
        inter_node_links=inter_links,
    )


def parse_topology(
    spec: Optional[Union["Topology", str]],
    num_gpus: Optional[int] = None,
    gpu: Optional[GPUSpec] = None,
) -> "Topology":
    """Resolve a topology selector to a :class:`Topology`.

    Accepted forms:

    * ``None`` — the default single-node DGX-1 sub-topology over
      ``num_gpus`` devices (8 when unspecified);
    * a :class:`Topology` instance — returned as-is;
    * ``"dgx1"`` — same as ``None``;
    * ``"nodes=NxG"`` (e.g. ``nodes=2x4``) — an N-node cluster of
      G-GPU servers via :func:`cluster`; total worker count N*G.

    This is the single resolution point for the CLI's ``--topology``
    flag and the facade's ``topology=`` parameter.
    """
    if spec is None:
        return dgx1(8 if num_gpus is None else num_gpus, gpu=gpu)
    if isinstance(spec, Topology):
        return spec
    text = str(spec).strip().lower()
    if text in ("dgx1", "default"):
        return dgx1(8 if num_gpus is None else num_gpus, gpu=gpu)
    match = re.fullmatch(r"nodes=(\d+)x(\d+)", text)
    if match is None:
        raise TopologyError(
            f"unknown topology selector {spec!r}; expected 'dgx1' or "
            f"'nodes=NxG' (e.g. nodes=2x4)"
        )
    num_nodes, gpus_per_node = int(match.group(1)), int(match.group(2))
    topology = cluster(num_nodes, gpus_per_node, gpu=gpu)
    if num_gpus is not None and num_gpus != topology.num_gpus:
        raise TopologyError(
            f"topology {text!r} carries {topology.num_gpus} GPUs but "
            f"num_gpus={num_gpus} was requested"
        )
    return topology
