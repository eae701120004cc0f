"""The in-process execution backend (default).

This is the engine's historical execution path behind the
:class:`~repro.backend.base.ExecutionSession` interface: the gather is
memoized on the frontier (so the message-cost scan and the algorithm
step share one adjacency walk), and the superstep runs on the
coordinator's arrays. Bit-for-bit identical to the pre-backend engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.backend.base import ExecutionSession
from repro.graph.gather import distinct_vertices
from repro.runtime.frontier import Frontier

if TYPE_CHECKING:
    from repro.algorithms.base import AlgorithmState, GASAlgorithm
    from repro.graph.csr import CSRGraph
    from repro.partition.base import Partition
    from repro.runtime.scheduler import RunContext

__all__ = ["SerialSession", "count_messages"]


def count_messages(
    graph: "CSRGraph",
    owner: np.ndarray,
    worker: np.ndarray,
    frontier: Frontier,
    aggregate: bool,
    seen: np.ndarray,
) -> int:
    """Cross-worker message count from the memoized frontier gather.

    One pass over the frontier's edges: endpoints are mapped vertex →
    fragment (``owner``) → worker (``worker``) by indexing (never a
    ``V``-long worker-of-vertex array, so a one-vertex tail superstep
    costs its own edges) — the sources once per frontier vertex,
    repeated over its out-edges as the gather lays them out. Under
    ``aggregate`` the distinct remote destinations are counted with the
    same bitmap kernel the algorithm step uses
    (:func:`~repro.graph.gather.distinct_vertices`, ``seen`` being its
    reusable all-``False`` bitmap).
    """
    __, destinations, __ = frontier.gather(graph)
    if destinations.size == 0:
        return 0
    vertices = frontier.vertices
    source_worker = np.repeat(
        worker[owner[vertices]], graph.out_degrees(vertices)
    )
    cross = source_worker != worker[owner[destinations]]
    if not aggregate:
        return int(np.count_nonzero(cross))
    # np.compress: ~3x faster than boolean-mask indexing here
    return int(distinct_vertices(
        np.compress(cross, destinations), seen.size, seen
    ).size)


class SerialSession(ExecutionSession):
    """Runs every superstep in the coordinator process.

    ``algorithm`` and ``state`` are accepted for the common session
    signature; the serial step gets both from the engine each call.
    """

    def __init__(
        self,
        graph: "CSRGraph",
        partition: "Partition",
        algorithm: "Optional[GASAlgorithm]" = None,
        state: "Optional[AlgorithmState]" = None,
    ) -> None:
        self._graph = graph
        self._partition = partition
        #: distinct_vertices' reusable bitmap, one per run
        self._seen = np.zeros(graph.num_vertices, dtype=bool)
        #: (frontier, (aggregate, worker-map bytes), count), last call
        self._last_count: tuple = (None, None, 0)

    def message_count(
        self,
        iteration: int,
        frontier: Frontier,
        aggregate: bool,
        context: "RunContext",
    ) -> int:
        """:func:`count_messages`, memoized on the last call.

        A frontier that stays active unchanged (PageRank's full one)
        asks the same question every round. The key is the frontier
        object and the worker map's *value*: OSteal folds and a killed
        worker rewrite ``fragment_worker`` in place.
        """
        worker = context.fragment_worker
        key = (aggregate, worker.tobytes())
        last = self._last_count
        if last[0] is not frontier or last[1] != key:
            last = self._last_count = (frontier, key, count_messages(
                self._graph, self._partition.owner, worker, frontier,
                aggregate, self._seen,
            ))
        return last[2]

    def step(
        self,
        iteration: int,
        algorithm: "GASAlgorithm",
        graph: "CSRGraph",
        state: "AlgorithmState",
    ) -> Frontier:
        """One in-process superstep (reuses the memoized gather)."""
        return algorithm.step(graph, state)

    def stats(self) -> Optional[dict]:
        """Shard-cache counters when the graph is out-of-core."""
        cache_stats = getattr(self._graph, "cache_stats", None)
        if cache_stats is None:
            return None
        return {"backend": "serial", "shard_cache": cache_stats()}

