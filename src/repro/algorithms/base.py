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
    #: the superstep can be computed as independent per-fragment
    #: partials merged by an *exact* associative reduction (see
    #: :meth:`fragment_step`); required for process-parallel execution
    supports_fragment_step: bool = False

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

    def fragment_step(
        self,
        graph: CSRGraph,
        values: np.ndarray,
        vertices: np.ndarray,
        aux: dict = None,
        edges: "tuple[np.ndarray, np.ndarray, np.ndarray]" = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Stateless partial superstep over one fragment's frontier slice.

        Runs on a fragment thread of the ``shmem`` backend: reads
        ``values`` (never writes), expands the out-edges of
        ``vertices``, and returns the partial aggregates the thread
        scatters into its fragment's row for :meth:`merge_fragment_rows`
        to combine in the coordinator. The
        split is only offered when the aggregation is *exactly*
        associative (``supports_fragment_step``), so the merged result
        is bit-identical to :meth:`step` on the whole frontier.

        ``aux`` is the calling fragment's counterpart of
        :attr:`AlgorithmState.aux`: a dict the algorithm may keep
        reusable buffers in between tasks. ``edges`` optionally passes
        the caller's already-gathered ``(sources, destinations,
        weights)`` out-edges of ``vertices``
        (:func:`~repro.graph.gather.gather_edges`) — tasks share one
        adjacency walk between the message-cost scan and the relax,
        like the frontier memo does in-process.
        """
        raise NotImplementedError(
            f"{self.name} does not support fragment steps"
        )

    def merge_fragment_rows(
        self,
        graph: CSRGraph,
        state: AlgorithmState,
        rows: np.ndarray,
    ) -> Frontier:
        """Merge dense per-fragment partial rows; mutate ``state``.

        ``rows`` is a ``(num_fragments, num_vertices)`` array where row
        ``i`` holds fragment ``i``'s :meth:`fragment_step` partial
        scattered over the vertex axis (identity element — ``inf`` for
        min — everywhere untouched). The ``shmem`` backend has each
        fragment thread write its row of one ``(fragments, V)`` array,
        so the coordinator reduces columns in one pass. Exactness
        contract: the merged values and frontier must be bit-identical
        to :meth:`step` over the undivided frontier.
        """
        raise NotImplementedError(
            f"{self.name} does not support fragment steps"
        )

    def is_converged(self, state: AlgorithmState) -> bool:
        """Whether the run may stop (default: empty frontier)."""
        return not state.frontier

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
