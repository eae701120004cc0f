"""PageRank: synchronous power iteration and delta (incremental) push.

* :class:`PageRank` — the classic dense BSP formulation the paper
  benchmarks: every vertex is active every iteration (so FSteal has
  little to rebalance — the paper's Exp-5 observes exactly this), and
  the run ends when the L1 residual drops below ``tol``.
* :class:`DeltaPageRank` — the incremental push formulation the paper
  cites as an LT-afflicted workload: only vertices holding enough
  residual stay active, so late iterations shrink to a trickle and
  synchronization overhead dominates.

Both converge to the same ranking (up to tolerance), which the tests
check against a reference power iteration.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.algorithms.base import AlgorithmState, GASAlgorithm
from repro.errors import EngineError
from repro.graph.csr import CSRGraph
from repro.runtime.frontier import Frontier

__all__ = ["PageRank", "DeltaPageRank"]


class PageRank(GASAlgorithm):
    """Power-iteration PageRank.

    ``init`` params: ``damping`` (default 0.85), ``tol`` (default
    1e-9 L1 residual), ``max_rounds`` (default 100; reaching it simply
    stops the run — the values are still a valid approximation), and
    ``redistribute_dangling`` (default True; set False to match the
    push-based :class:`DeltaPageRank` fixed point, which — like most
    GPU implementations — lets dangling mass decay).
    """

    name = "pr"

    def init(self, graph: CSRGraph, **params: Any) -> AlgorithmState:
        """Create the initial state (see the class docstring
        for parameters)."""
        damping = float(params.pop("damping", 0.85))
        tol = float(params.pop("tol", 1e-9))
        max_rounds = int(params.pop("max_rounds", 100))
        redistribute = bool(params.pop("redistribute_dangling", True))
        if params:
            raise EngineError(f"unknown PageRank params: {sorted(params)}")
        if not 0 < damping < 1:
            raise EngineError("damping must be in (0, 1)")
        n = graph.num_vertices
        values = np.full(n, 1.0 / max(1, n))
        state = AlgorithmState(values=values, frontier=Frontier.full(n))
        out_deg = graph.out_degrees().astype(np.float64)
        state.aux.update(
            damping=damping,
            tol=tol,
            max_rounds=max_rounds,
            out_deg=out_deg,
            dangling=out_deg == 0,
            redistribute=redistribute,
            residual=np.inf,
        )
        return state

    def step(self, graph: CSRGraph, state: AlgorithmState) -> Frontier:
        """One synchronous power-iteration round."""
        aux = state.aux
        n = graph.num_vertices
        damping = aux["damping"]
        out_deg = aux["out_deg"]
        rank = state.values
        contrib = np.where(aux["dangling"], 0.0, rank / np.maximum(out_deg, 1))
        # Dense round: every edge carries its source's contribution.
        iter_shards = getattr(graph, "iter_edge_shards", None)
        if iter_shards is not None:
            # out-of-core graph: stream the edge scan shard by shard.
            # np.add.at accumulates element-by-element in edge order,
            # so consecutive per-shard applications are bit-identical
            # to one pass over the concatenated arrays.
            sums = np.zeros(n)
            for v_start, v_stop, __, indices, __w in iter_shards():
                sources = np.repeat(
                    np.arange(v_start, v_stop, dtype=np.int64),
                    np.diff(graph.indptr[v_start: v_stop + 1]),
                )
                np.add.at(sums, indices, contrib[sources])
        else:
            # bincount adds in edge order from 0.0, as np.add.at does:
            # the same bits
            sources, destinations, __ = state.frontier.gather(graph)
            sums = np.bincount(
                destinations, weights=contrib[sources], minlength=n
            )
        if aux["redistribute"]:
            dangling_mass = float(rank[aux["dangling"]].sum())
            sums = sums + dangling_mass / max(1, n)
        new_rank = (1.0 - damping) / max(1, n) + damping * sums
        aux["residual"] = float(np.abs(new_rank - rank).sum())
        state.values[:] = new_rank
        done = (
            aux["residual"] < aux["tol"]
            or state.iteration + 1 >= aux["max_rounds"]
        )
        # the same full frontier every round: its gather, owner split
        # and message count are memoized on it once per run
        return Frontier.empty() if done else state.frontier


class DeltaPageRank(GASAlgorithm):
    """Residual-push PageRank (sparse, incremental).

    ``init`` params: ``damping`` (default 0.85), ``epsilon`` (default
    1e-8: residual threshold below which a vertex goes inactive),
    ``max_rounds`` (default 1000).
    """

    name = "dpr"

    def init(self, graph: CSRGraph, **params: Any) -> AlgorithmState:
        """Create the initial state (see the class docstring
        for parameters)."""
        damping = float(params.pop("damping", 0.85))
        epsilon = float(params.pop("epsilon", 1e-8))
        max_rounds = int(params.pop("max_rounds", 1000))
        if params:
            raise EngineError(
                f"unknown DeltaPageRank params: {sorted(params)}"
            )
        n = graph.num_vertices
        values = np.zeros(n)
        residual = np.full(n, (1.0 - damping) / max(1, n))
        state = AlgorithmState(values=values, frontier=Frontier.full(n))
        state.aux.update(
            damping=damping,
            epsilon=epsilon,
            max_rounds=max_rounds,
            residual=residual,
            out_deg=graph.out_degrees().astype(np.float64),
        )
        return state

    def step(self, graph: CSRGraph, state: AlgorithmState) -> Frontier:
        """Push the frontier's residual mass to its out-neighbors."""
        aux = state.aux
        if state.iteration >= aux["max_rounds"]:
            return Frontier.empty()
        active = state.frontier.vertices
        residual = aux["residual"]
        damping = aux["damping"]
        out_deg = aux["out_deg"]
        # Absorb residual into the rank, then push the damped share.
        push = residual[active].copy()
        state.values[active] += push
        residual[active] = 0.0
        # memoized on the frontier — shared with the engine's
        # message-cost gather of the same frontier
        sources, destinations, __ = state.frontier.gather(graph)
        if destinations.size:
            share = damping * push / np.maximum(out_deg[active], 1.0)
            lookup = np.zeros(graph.num_vertices)
            lookup[active] = share
            np.add.at(residual, destinations, lookup[sources])
        next_active = np.flatnonzero(residual > aux["epsilon"])
        return Frontier.from_sorted(next_active.astype(np.int64))
