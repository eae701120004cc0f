"""Delta-stepping SSSP (extension algorithm).

The bucketed shortest-path algorithm [Meyer & Sanders] that Gunrock's
"near-far" optimization approximates with two buckets. Vertices are
processed in distance buckets of width ``delta``: each superstep
relaxes the current bucket's out-edges; once the bucket drains, the
algorithm advances to the next non-empty one.

Compared to the plain Bellman-Ford frontier (:class:`~repro.algorithms.
sssp.SSSP`), delta-stepping performs fewer redundant relaxations on
weighted graphs at the cost of more, smaller supersteps — exactly the
trade-off the paper discusses for near-far (work saved vs extra
synchronization), which makes it a natural workload for studying the
LT problem. Registered as ``"dsssp"``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.base import AlgorithmState, GASAlgorithm
from repro.algorithms.minprop import MinScatter
from repro.errors import EngineError
from repro.graph.csr import CSRGraph
from repro.runtime.frontier import Frontier

__all__ = ["DeltaSteppingSSSP"]


class DeltaSteppingSSSP(GASAlgorithm):
    """Bucketed SSSP. ``init`` params: ``source``, ``delta``.

    ``delta`` defaults to twice the mean edge weight, the standard
    heuristic. Produces distances identical to Dijkstra; validated
    against the scipy oracle in the tests.
    """

    name = "dsssp"
    needs_weights = True
    # not flagged monotonic: bucket advancement makes masked local
    # fixed points unsound for the async engine model

    def init(self, graph: CSRGraph, **params: Any) -> AlgorithmState:
        """Create the initial state (see the class docstring
        for parameters)."""
        source = int(params.pop("source", 0))
        delta = params.pop("delta", None)
        if params:
            raise EngineError(
                f"unknown delta-stepping params: {sorted(params)}"
            )
        if not 0 <= source < graph.num_vertices:
            raise EngineError(f"source {source} out of range")
        if delta is None:
            if graph.weights is not None and graph.weights.size:
                delta = 2.0 * float(graph.weights.mean())
            else:
                delta = 2.0
        delta = float(delta)
        if delta <= 0:
            raise EngineError("delta must be positive")
        values = np.full(graph.num_vertices, np.inf)
        values[source] = 0.0
        pending = np.zeros(graph.num_vertices, dtype=bool)
        pending[source] = True
        state = AlgorithmState(
            values=values,
            frontier=Frontier(np.array([source], dtype=np.int64)),
        )
        state.aux.update(delta=delta, bucket=0, pending=pending)
        return state

    def _current_bucket_frontier(
        self, state: AlgorithmState
    ) -> Frontier:
        """Pending vertices inside the current bucket (advancing it
        to the next non-empty bucket if needed)."""
        aux = state.aux
        pending = aux["pending"]
        candidates = np.flatnonzero(pending)
        if candidates.size == 0:
            return Frontier.empty()
        distances = state.values[candidates]
        # advance the bucket index to the lowest pending distance
        lowest = int(distances.min() // aux["delta"])
        aux["bucket"] = max(aux["bucket"], lowest)
        limit = (aux["bucket"] + 1) * aux["delta"]
        in_bucket = candidates[distances < limit]
        if in_bucket.size == 0:
            # everything pending lies beyond this bucket: jump ahead
            aux["bucket"] = int(distances.min() // aux["delta"])
            limit = (aux["bucket"] + 1) * aux["delta"]
            in_bucket = candidates[distances < limit]
        return Frontier.from_sorted(in_bucket)

    def step(self, graph: CSRGraph, state: AlgorithmState) -> Frontier:
        """Relax the current bucket; return the next bucket frontier."""
        aux = state.aux
        frontier = state.frontier
        if frontier:
            sources, destinations, weights = frontier.gather(graph)
            aux["pending"][frontier.vertices] = False
            if destinations.size:
                if weights is None:
                    weights = np.ones(destinations.size)
                cand = state.values[sources] + weights
                improved = MinScatter.of(graph, aux).relax(
                    state.values, destinations, cand
                )
                aux["pending"][improved] = True
        return self._current_bucket_frontier(state)
