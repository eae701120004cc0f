"""Frontier characteristics (Table I of the paper).

The cost model estimates the per-edge processing cost of a frontier
from six statistics of the frontier's degree structure: average in/out
degree, in/out degree range, Gini coefficient, and degree-distribution
entropy. This module computes them for an arbitrary vertex subset of a
graph — cheaply, with one vectorized scan over the *frontier* (not the
edges), exactly as the paper requires for the FSteal overhead budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["FrontierFeatures", "frontier_features", "FEATURE_NAMES"]

#: Order of :meth:`FrontierFeatures.vector` entries.
FEATURE_NAMES = (
    "avg_in_degree",
    "avg_out_degree",
    "in_degree_range",
    "out_degree_range",
    "gini",
    "entropy",
)


@dataclass(frozen=True)
class FrontierFeatures:
    """The metric-variable set ``W`` of Table I, for one frontier.

    ``size`` and ``total_edges`` are carried along for workload
    accounting but are not part of the regression feature vector.
    """

    avg_in_degree: float
    avg_out_degree: float
    in_degree_range: float
    out_degree_range: float
    gini: float
    entropy: float
    size: int
    total_edges: int

    def vector(self) -> np.ndarray:
        """The 6-entry feature vector in :data:`FEATURE_NAMES` order.

        Built once and cached (the instance is immutable, and the
        scheduler's audit, pricing, and fingerprinting all re-read it
        every iteration); the returned array is marked read-only.
        """
        cached = self.__dict__.get("_vector")
        if cached is None:
            cached = np.array(
                [
                    self.avg_in_degree,
                    self.avg_out_degree,
                    self.in_degree_range,
                    self.out_degree_range,
                    self.gini,
                    self.entropy,
                ],
                dtype=np.float64,
            )
            cached.flags.writeable = False
            object.__setattr__(self, "_vector", cached)
        return cached

    @staticmethod
    def empty() -> "FrontierFeatures":
        """Features of an empty frontier (all zeros)."""
        return FrontierFeatures(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0)


def frontier_features(
    graph: CSRGraph,
    vertices: np.ndarray,
    boundaries: Optional[np.ndarray] = None,
) -> Union[FrontierFeatures, List[FrontierFeatures]]:
    """Compute :class:`FrontierFeatures` for a vertex subset.

    With ``boundaries`` (``S + 1`` ascending offsets), ``vertices`` is
    ``S`` subsets laid end to end — a frontier sorted by owning
    fragment, ``boundaries[0] == 0`` and ``boundaries[-1] ==
    len(vertices)`` — and the result is one :class:`FrontierFeatures`
    per segment ``vertices[boundaries[i]:boundaries[i + 1]]``, all from
    a single pass; without it the whole array is the one segment and its
    features are returned bare. Either way every field is bit-identical
    to evaluating the subset alone: sums, extrema and the Gini
    rank-weighted sum are integer reductions (``reduceat``, exact in
    any order), while the entropy terms — non-integer floats, whose
    pairwise summation order depends on the operand count — are summed
    per segment over that segment's own contiguous slice.

    Complexity is O(|frontier|) plus one cached O(|E|) in-degree
    computation per graph — the paper's "features can be collected with
    a scan over active vertices rather than edges" (Exp-3).
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if boundaries is None:
        return _segment_features(
            graph, vertices, np.array([0, vertices.size])
        )[0]
    return _segment_features(
        graph, vertices, np.asarray(boundaries, dtype=np.int64)
    )


def _segment_features(
    graph: CSRGraph, vertices: np.ndarray, boundaries: np.ndarray
) -> List[FrontierFeatures]:
    sizes = np.diff(boundaries)
    result = [FrontierFeatures.empty()] * sizes.size
    live = np.flatnonzero(sizes)
    if live.size == 0:
        return result
    out_deg = graph.out_degrees(vertices)
    in_deg = graph.in_degrees()[vertices]
    # empty segments own no elements, so consecutive live starts
    # delimit exactly the live segments
    starts = boundaries[live]
    counts = sizes[live]
    out_total = np.add.reduceat(out_deg, starts)
    out_range = (
        np.maximum.reduceat(out_deg, starts)
        - np.minimum.reduceat(out_deg, starts)
    )
    in_range = (
        np.maximum.reduceat(in_deg, starts)
        - np.minimum.reduceat(in_deg, starts)
    )
    # Gini: ascending degrees within each segment (one sort of a
    # segment-major key), ranks from 1
    segment_key = np.repeat(
        np.arange(live.size) * (int(out_deg.max()) + 1), counts
    )
    ordered = np.sort(segment_key + out_deg) - segment_key
    ranks = np.arange(1, vertices.size + 1) - np.repeat(starts, counts)
    weighted = np.add.reduceat(ranks * ordered, starts)
    totals = out_total.astype(np.float64)
    has_edges = out_total > 0
    gini = np.where(
        has_edges,
        2.0 * weighted / np.where(has_edges, counts * totals, 1.0)
        - (counts + 1) / counts,
        0.0,
    )
    # entropy: elementwise terms for all segments at once, then one
    # contiguous-slice sum per segment (see the docstring)
    positive = out_deg > 0
    shares = out_deg[positive] / np.repeat(totals, counts)[positive]
    terms = shares * np.log(shares)
    term_ends = np.cumsum(
        np.add.reduceat(positive, starts, dtype=np.int64)
    )
    fields = zip(
        live.tolist(),
        counts.tolist(),
        out_total.tolist(),
        (np.add.reduceat(in_deg, starts) / counts).tolist(),
        (totals / counts).tolist(),
        in_range.astype(np.float64).tolist(),
        out_range.astype(np.float64).tolist(),
        gini.tolist(),
        term_ends.tolist(),
    )
    term_start = 0
    for (index, size, edges, avg_in, avg_out, in_rng, out_rng, g,
         term_end) in fields:
        entropy = 0.0
        if size > 1 and edges > 0:
            entropy = float(
                -terms[term_start:term_end].sum() / np.log(size)
            )
        term_start = term_end
        result[index] = FrontierFeatures(
            avg_in_degree=avg_in,
            avg_out_degree=avg_out,
            in_degree_range=in_rng,
            out_degree_range=out_rng,
            gini=g,
            entropy=entropy,
            size=size,
            total_edges=edges,
        )
    return result
