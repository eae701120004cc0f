"""Shared machinery for monotone min-propagation algorithms.

BFS, SSSP, and WCC are all instances of the same pattern: every vertex
holds a value that only ever *decreases*, and a superstep relaxes the
frontier's out-edges, activating every vertex whose value improved.
:class:`MinPropagation` implements the pattern once — including the
masked ``local_step`` the asynchronous (Groute-model) engine uses to
run a fragment to its local fixed point, which is sound precisely
because the propagation is monotone. Its :class:`MinScatter` is the
one min-relax: the serial step applies it to the whole frontier, and
a threaded superstep (:mod:`repro.backend`) reduces each fragment with
it on a thread and applies the concatenated minima with it on the
coordinator.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.algorithms.base import AlgorithmState, GASAlgorithm
from repro.graph.csr import CSRGraph
from repro.graph.gather import distinct_vertices
from repro.runtime.frontier import Frontier

__all__ = ["MinPropagation", "MinScatter"]


class MinScatter:
    """Per-destination minimum of edge candidates, buffers reused.

    Holds the two ``V``-sized scratch arrays one min-reduction needs —
    the ``inf``-filled minima and the :func:`distinct_vertices` bitmap
    — and restores both where they were touched before returning, so
    one instance serves every superstep of a run (or every task of a
    fragment thread) at O(edges) per call.
    """

    __slots__ = ("_minima", "_seen")

    def __init__(self, num_vertices: int) -> None:
        self._minima = np.full(num_vertices, np.inf)
        self._seen = np.zeros(num_vertices, dtype=bool)

    @staticmethod
    def of(graph: CSRGraph, aux: dict) -> "MinScatter":
        """The instance kept in ``aux`` (created on first use)."""
        scatter = aux.get("scatter")
        if scatter is None:
            scatter = aux["scatter"] = MinScatter(graph.num_vertices)
        return scatter

    def reduce(
        self, destinations: np.ndarray, candidates: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(touched, minima)``: sorted distinct destinations and the
        smallest candidate each one was offered."""
        minima = self._minima
        touched = distinct_vertices(destinations, minima.size, self._seen)
        np.minimum.at(minima, destinations, candidates)
        mins = minima[touched]
        minima[touched] = np.inf  # reset for the next call
        return touched, mins

    def relax(
        self,
        values: np.ndarray,
        destinations: np.ndarray,
        candidates: np.ndarray,
    ) -> np.ndarray:
        """Lower ``values`` to the offered minima; return the (sorted)
        vertices whose value improved."""
        touched, mins = self.reduce(destinations, candidates)
        better = mins < values[touched]
        improved = touched[better]
        values[improved] = mins[better]
        return improved


class MinPropagation(GASAlgorithm):
    """Base class: min-aggregation over out-edges.

    Subclasses implement :meth:`candidates` (the value each edge
    offers its destination) and :meth:`init`.
    """

    monotonic = True

    def candidates(
        self,
        values: np.ndarray,
        sources: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> np.ndarray:
        """Candidate value delivered along each edge."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _relax(
        self,
        graph: CSRGraph,
        state: AlgorithmState,
        sources: np.ndarray,
        destinations: np.ndarray,
        weights: Optional[np.ndarray],
    ) -> Frontier:
        """Apply min-relaxation along the given edges; return activated."""
        if sources.size == 0:
            return Frontier.empty()
        cand = self.candidates(state.values, sources, weights)
        return Frontier.from_sorted(
            MinScatter.of(graph, state.aux).relax(
                state.values, destinations, cand
            )
        )

    # ------------------------------------------------------------------
    def step(self, graph: CSRGraph, state: AlgorithmState) -> Frontier:
        """Relax all out-edges of the frontier.

        The gather is memoized on the frontier, so when the engine's
        message-cost model already expanded this frontier neither the
        adjacency walk nor the edge-array lookups are repeated.
        """
        return self._relax(graph, state, *state.frontier.gather(graph))

    def local_step(
        self,
        graph: CSRGraph,
        state: AlgorithmState,
        frontier: Frontier,
        allowed_mask: np.ndarray,
    ) -> Frontier:
        """Relax only edges selected by ``allowed_mask`` (CSR order)."""
        __, positions = frontier.edge_positions(graph)
        keep = allowed_mask[positions]
        sources, destinations, weights = frontier.gather(graph)
        return self._relax(
            graph, state, sources[keep], destinations[keep],
            None if weights is None else weights[keep],
        )

    # ------------------------------------------------------------------
    def _initial_state(
        self, graph: CSRGraph, values: np.ndarray, frontier: Frontier
    ) -> AlgorithmState:
        return AlgorithmState(values=values, frontier=frontier)

    def init(self, graph: CSRGraph, **params: Any) -> AlgorithmState:
        """Create the initial state (see the class docstring
        for parameters)."""
        raise NotImplementedError
