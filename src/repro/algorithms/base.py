"""The GAS (Gather-Apply-Scatter) algorithm interface.

The paper runs GAS algorithms in BSP mode (Section II): each superstep
scatters the frontier's values along out-edges, gathers incoming
messages with an aggregator, applies them, and emits the next frontier.

Implementations here are *vectorized single-address-space* versions:
the engine owns distribution and timing, the algorithm owns semantics.
This split mirrors the paper's design, where FSteal/OSteal reassign
work without changing what is computed — a property our metamorphic
tests verify directly.

Contract for :meth:`GASAlgorithm.step`:

* read ``state.frontier``, mutate ``state.values`` (and aux buffers),
* return the next frontier,
* be deterministic and independent of how the engine scheduled work.

On the session's thread path (:mod:`repro.backend`) a
:class:`~repro.algorithms.minprop.MinPropagation` superstep runs as
per-fragment reduces of its ``candidates`` applied with one
``MinScatter.relax``, so a subclass's ``step`` must stay exactly that
relax of the frontier's out-edges. Every other algorithm's ``step``
always runs on the coordinator.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from repro.graph.csr import CSRGraph
from repro.runtime.frontier import Frontier

__all__ = ["AlgorithmState", "GASAlgorithm"]


@dataclass
class AlgorithmState:
    """Mutable per-run state of a GAS algorithm."""

    values: np.ndarray
    frontier: Frontier
    iteration: int = 0
    aux: Dict[str, Any] = field(default_factory=dict)


class GASAlgorithm(abc.ABC):
    """Base class for vertex programs.

    Class attributes describe requirements the benchmark runner honors:

    ``needs_weights``
        The algorithm reads edge weights (SSSP); unweighted input gets
        unit weights.
    ``needs_symmetric``
        The algorithm's semantics assume an undirected edge set (WCC);
        the runner symmetrizes directed inputs first.
    ``monotonic``
        Vertex values only ever improve in one direction (min-style
        propagation). Asynchronous engines (the Groute model) may run
        such algorithms to a local fixed point safely.
    """

    name: str = "abstract"
    needs_weights: bool = False
    needs_symmetric: bool = False
    monotonic: bool = False

    @abc.abstractmethod
    def init(self, graph: CSRGraph, **params: Any) -> AlgorithmState:
        """Create initial values and the starting frontier."""

    @abc.abstractmethod
    def step(self, graph: CSRGraph, state: AlgorithmState) -> Frontier:
        """Run one superstep; mutate values, return the next frontier."""

    def local_step(
        self,
        graph: CSRGraph,
        state: AlgorithmState,
        frontier: Frontier,
        allowed_mask: np.ndarray,
    ) -> Frontier:
        """One superstep restricted to edges allowed by a mask.

        Used by the asynchronous engine model: ``allowed_mask`` is a
        per-edge boolean (CSR order) selecting intra-fragment edges.
        Only meaningful for ``monotonic`` algorithms; the default
        raises for the rest.

        Returns the frontier of vertices activated by allowed edges.
        """
        raise NotImplementedError(
            f"{self.name} does not support masked local steps"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
