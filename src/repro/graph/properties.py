"""Structural graph properties.

Implements the degree-distribution statistics the paper's cost model
consumes (Table I: average/range of in/out degree, Gini coefficient,
degree-distribution entropy) at whole-graph granularity, plus BFS
levels and a diameter estimator used by the dataset registry and tests
(weak components: :func:`repro.algorithms.validate.reference_wcc`).
Frontier-granularity features live in :mod:`repro.graph.features`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "gini_coefficient",
    "degree_entropy",
    "DegreeSummary",
    "degree_summary",
    "bfs_levels",
    "pseudo_diameter",
]


def gini_coefficient(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, →1 = skewed).

    Uses the sorted-rank formula from Kunegis & Preusse (the paper's
    reference [31]): ``G = 2 Σ_u u·d(u) / (|V| Σ_u d(u)) - (|V|+1)/|V|``
    with ``d`` sorted ascending and ranks ``u`` starting at 1.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        return 0.0
    if np.any(values < 0):
        raise ValueError("gini_coefficient requires non-negative values")
    total = values.sum()
    if total == 0:
        return 0.0
    sorted_vals = np.sort(values)
    n = values.size
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float(2.0 * (ranks * sorted_vals).sum() / (n * total) - (n + 1) / n)


def degree_entropy(degrees: np.ndarray, num_edges: Optional[int] = None) -> float:
    """Normalized degree-distribution entropy in ``[0, 1]``.

    Implements the paper's ``H_er`` (Table I):
    ``H = (1/ln|V|) Σ_u -(d(u)/2|E|) ln(d(u)/2|E|)`` — the entropy of the
    degree-share distribution, normalized by ``ln |V|``. Zero-degree
    vertices contribute nothing.
    """
    degrees = np.asarray(degrees, dtype=np.float64).ravel()
    n = degrees.size
    if n <= 1:
        return 0.0
    total = degrees.sum() if num_edges is None else float(2 * num_edges)
    if total <= 0:
        return 0.0
    shares = degrees[degrees > 0] / total
    return float(-(shares * np.log(shares)).sum() / np.log(n))


@dataclass(frozen=True)
class DegreeSummary:
    """Degree-distribution statistics of a graph (Table I, graph level)."""

    avg_in_degree: float
    avg_out_degree: float
    in_degree_range: int
    out_degree_range: int
    max_out_degree: int
    gini: float
    entropy: float

    def as_dict(self) -> dict:
        """Plain-dict view for reporting."""
        return {
            "avg_in_degree": self.avg_in_degree,
            "avg_out_degree": self.avg_out_degree,
            "in_degree_range": self.in_degree_range,
            "out_degree_range": self.out_degree_range,
            "max_out_degree": self.max_out_degree,
            "gini": self.gini,
            "entropy": self.entropy,
        }


def degree_summary(graph: CSRGraph) -> DegreeSummary:
    """Compute the whole-graph :class:`DegreeSummary`."""
    out_deg = graph.out_degrees()
    in_deg = graph.in_degrees()
    if graph.num_vertices == 0:
        return DegreeSummary(0.0, 0.0, 0, 0, 0, 0.0, 0.0)
    return DegreeSummary(
        avg_in_degree=float(in_deg.mean()),
        avg_out_degree=float(out_deg.mean()),
        in_degree_range=int(in_deg.max() - in_deg.min()),
        out_degree_range=int(out_deg.max() - out_deg.min()),
        max_out_degree=int(out_deg.max()),
        gini=gini_coefficient(out_deg),
        entropy=degree_entropy(out_deg, num_edges=graph.num_edges),
    )


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """Unweighted BFS levels from ``source`` (-1 for unreachable).

    Vectorized level-synchronous BFS used by property estimators and as
    the reference oracle for the BFS algorithm tests.
    """
    n = graph.num_vertices
    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    depth = 0
    indptr, indices = graph.indptr, graph.indices
    while frontier.size:
        depth += 1
        starts = indptr[frontier]
        stops = indptr[frontier + 1]
        total = int((stops - starts).sum())
        if total == 0:
            break
        neighbor_chunks = [
            indices[s:e] for s, e in zip(starts, stops) if e > s
        ]
        neighbors = np.concatenate(neighbor_chunks)
        fresh = neighbors[levels[neighbors] == -1]
        if fresh.size == 0:
            break
        fresh = np.unique(fresh)
        levels[fresh] = depth
        frontier = fresh
    return levels


def pseudo_diameter(graph: CSRGraph, seed: int = 0, sweeps: int = 4) -> int:
    """Lower-bound diameter estimate via repeated double-sweep BFS.

    Starts from a pseudo-random vertex, repeatedly jumps to the farthest
    vertex found, and returns the largest eccentricity observed. Exact on
    trees; a good lower bound in general and sufficient for classifying
    graphs into the paper's short/long-diameter regimes.
    """
    if graph.num_vertices == 0:
        return 0
    # Start from a high-out-degree vertex: a uniformly random start often
    # lands on a low-degree or isolated vertex and grossly underestimates.
    del seed  # kept for signature stability
    start = int(np.argmax(graph.out_degrees()))
    best = 0
    current = start
    for __ in range(max(1, sweeps)):
        levels = bfs_levels(graph, current)
        reachable = levels >= 0
        farthest = int(levels[reachable].max()) if reachable.any() else 0
        if farthest <= best and current != start:
            break
        best = max(best, farthest)
        current = int(np.argmax(np.where(reachable, levels, -1)))
    return best

