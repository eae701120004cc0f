"""k-core decomposition by iterative peeling (extension algorithm).

A vertex belongs to the k-core if it survives repeatedly deleting all
vertices of (undirected) degree < k. Each superstep peels the current
layer of sub-``k`` vertices and decrements their neighbors — a
frontier whose size *decays* over rounds, another natural long-tail
workload for the engines.

Final vertex value: the vertex's remaining degree if it is in the
k-core, else ``-1``. Registered as ``"kcore"``; validated against
networkx's ``k_core`` in the tests.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.base import AlgorithmState, GASAlgorithm
from repro.errors import EngineError
from repro.graph.csr import CSRGraph
from repro.runtime.frontier import Frontier

__all__ = ["KCore"]


class KCore(GASAlgorithm):
    """k-core membership via peeling. ``init`` params: ``k``."""

    name = "kcore"
    needs_symmetric = True

    def init(self, graph: CSRGraph, **params: Any) -> AlgorithmState:
        """Create the initial state (see the class docstring
        for parameters)."""
        k = int(params.pop("k", 2))
        if params:
            raise EngineError(f"unknown k-core params: {sorted(params)}")
        if k < 1:
            raise EngineError("k must be at least 1")
        degrees = graph.out_degrees().astype(np.float64)
        removed = np.zeros(graph.num_vertices, dtype=bool)
        first_layer = np.flatnonzero(degrees < k).astype(np.int64)
        state = AlgorithmState(
            values=degrees.copy(),
            frontier=Frontier.from_sorted(first_layer),
        )
        state.aux.update(k=k, removed=removed)
        return state

    def step(self, graph: CSRGraph, state: AlgorithmState) -> Frontier:
        """Peel the current sub-k layer; activate newly sub-k vertices."""
        aux = state.aux
        k = aux["k"]
        removed = aux["removed"]
        layer = state.frontier.vertices
        if layer.size == 0:
            return Frontier.empty()
        removed[layer] = True
        state.values[layer] = -1.0
        __, destinations, __ = state.frontier.gather(graph)
        if destinations.size == 0:
            return Frontier.empty()
        decrements = np.bincount(destinations, minlength=graph.num_vertices)
        alive = ~removed
        state.values[alive] -= decrements[alive]
        newly_sub_k = np.flatnonzero(
            alive & (state.values < k) & (decrements > 0)
        )
        return Frontier.from_sorted(newly_sub_k.astype(np.int64))
