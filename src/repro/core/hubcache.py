"""Hub-vertex caching (Section V-B, Example 6).

High in-degree ("hub") vertices are activated over and over — they
receive the most messages — so GUM replicates their adjacency lists on
every GPU up front and marks them in a bitmap. When a stolen frontier
contains hubs, their neighbor expansions hit the local cache instead of
NVLink, cutting the dominant remote-access cost of FSteal.

The cache is a *pricing* structure here: the engine charges hub edges
at local-bandwidth cost. Capacity accounting (how much device memory
the replicas cost) is exposed so callers can budget ``t4``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import config
from repro.graph.csr import CSRGraph
from repro.obs.metrics import MetricsRegistry, NULL_METRICS

__all__ = ["HubCache"]


class HubCache:
    """Bitmap of hub vertices with cached adjacency lists.

    Parameters
    ----------
    graph:
        The processed graph.
    in_degree_threshold:
        The paper's ``t4``: vertices with in-degree above it are hubs.
    metrics:
        Observability registry; lookups and served hub edges are
        published so hit rates show up in profile snapshots.
    """

    def __init__(
        self,
        graph: CSRGraph,
        in_degree_threshold: int,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._threshold = int(in_degree_threshold)
        in_degrees = graph.in_degrees()
        self._bitmap = in_degrees > self._threshold
        self._bitmap.setflags(write=False)
        out_degrees = graph.out_degrees()
        self._cached_edges = int(out_degrees[self._bitmap].sum())
        self._metrics = metrics or NULL_METRICS
        self._metrics.gauge("hubcache.num_hubs").set(self.num_hubs)
        self._metrics.gauge("hubcache.cached_edges").set(self._cached_edges)

    @property
    def threshold(self) -> int:
        """The in-degree threshold ``t4``."""
        return self._threshold

    @property
    def bitmap(self) -> np.ndarray:
        """Read-only boolean mask of hub vertices."""
        return self._bitmap

    @property
    def num_hubs(self) -> int:
        """Number of cached vertices."""
        return int(self._bitmap.sum())

    @property
    def cached_edges(self) -> int:
        """Total adjacency entries replicated per GPU."""
        return self._cached_edges

    def memory_bytes_per_gpu(self) -> int:
        """Replica footprint on each device."""
        return self._cached_edges * config.BYTES_PER_EDGE

    def hub_edges(self, graph: CSRGraph, vertices: np.ndarray) -> int:
        """Edges of ``vertices`` servable from the local cache."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if self._metrics.enabled:
            self._metrics.counter("hubcache.lookups").inc()
        if vertices.size == 0:
            return 0
        hubs = vertices[self._bitmap[vertices]]
        if hubs.size == 0:
            return 0
        served = int(graph.out_degrees(hubs).sum())
        if self._metrics.enabled:
            self._metrics.counter("hubcache.hit_vertices").inc(hubs.size)
        return served

    def __repr__(self) -> str:
        return (
            f"HubCache(threshold={self._threshold}, hubs={self.num_hubs}, "
            f"cached_edges={self._cached_edges})"
        )
