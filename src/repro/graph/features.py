"""Frontier characteristics (Table I of the paper).

The cost model estimates the per-edge processing cost of a frontier
from six statistics of the frontier's degree structure: average in/out
degree, in/out degree range, Gini coefficient, and degree-distribution
entropy. This module computes them for an arbitrary vertex subset of a
graph — cheaply, with one vectorized scan over the *frontier* (not the
edges), exactly as the paper requires for the FSteal overhead budget.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["FrontierFeatures", "frontier_features", "segment_features",
           "FEATURE_NAMES"]

#: Order of :meth:`FrontierFeatures.vector` entries.
FEATURE_NAMES = (
    "avg_in_degree",
    "avg_out_degree",
    "in_degree_range",
    "out_degree_range",
    "gini",
    "entropy",
)


class _Fields(NamedTuple):
    avg_in_degree: float
    avg_out_degree: float
    in_degree_range: float
    out_degree_range: float
    gini: float
    entropy: float
    size: int
    total_edges: int


class FrontierFeatures(_Fields):
    """The metric-variable set ``W`` of Table I, for one frontier.

    ``size`` and ``total_edges`` are carried along for workload
    accounting but are not part of the regression feature vector.

    An immutable named tuple: equal features compare and hash equal
    field by field, in C, which is what the prediction memo keyed on
    them pays every superstep.
    """

    def vector(self) -> np.ndarray:
        """The 6-entry feature vector in :data:`FEATURE_NAMES` order,
        built once (the ledger's samples re-read it), read-only."""
        cached = self.__dict__.get("_vector")
        if cached is None:
            cached = np.array(self[:6], dtype=np.float64)
            cached.flags.writeable = False
            self.__dict__["_vector"] = cached
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

    With ``boundaries`` (``S + 1`` ascending offsets from 0 to
    ``len(vertices)``), ``vertices`` is ``S`` subsets laid end to end
    and the result is one :class:`FrontierFeatures` per segment, from
    one :func:`segment_features` pass; without it, the features of the
    whole array. O(|frontier|) plus one cached O(|E|) in-degree count
    per graph: the paper's "scan over active vertices rather than
    edges" (Exp-3).
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    bounds = (
        [0, int(vertices.size)] if boundaries is None
        else np.asarray(boundaries, dtype=np.int64).tolist()
    )
    features = segment_features(
        graph.out_degrees(vertices), graph.in_degrees()[vertices], bounds
    )
    return features[0] if boundaries is None else features


def segment_features(
    out_deg: np.ndarray, in_deg: np.ndarray, bounds: Sequence[int]
) -> List[FrontierFeatures]:
    """Table-I features of every segment of a degree table, one pass.

    ``out_deg``/``in_deg`` are the degrees of vertex subsets laid end
    to end, segment ``i`` being ``[bounds[i], bounds[i + 1])``. Every
    field is bit-identical to evaluating a subset alone: sums, extrema
    and the Gini rank-weighted sum are integer reductions (exact in any
    order); the entropy terms are floats whose pairwise summation order
    depends on the operand count, so each segment sums its own slice.
    Per-segment scalars leave NumPy as lists once and combine in Python
    floats (IEEE-identical to NumPy's ``+ - * /``); logarithms stay
    NumPy's, which differs from :func:`math.log` in the last ulp.
    """
    sizes = [stop - start for start, stop in zip(bounds, bounds[1:])]
    result = [_EMPTY] * len(sizes)
    live = [index for index, size in enumerate(sizes) if size]
    if not live:
        return result
    # empty segments own no elements, so consecutive live starts
    # delimit exactly the live segments
    starts = [bounds[index] for index in live]
    counts = [sizes[index] for index in live]
    starts_at = np.array(starts)
    positive = out_deg > 0
    totals, in_totals, term_counts = np.add.reduceat(
        np.array((out_deg, in_deg, positive), dtype=np.int64), starts_at,
        axis=1,
    ).tolist()
    in_highs = np.maximum.reduceat(in_deg, starts_at).tolist()
    in_lows = np.minimum.reduceat(in_deg, starts_at).tolist()
    # Gini: ascending degrees within each segment (one sort of a
    # segment-major key, whose first and last entries are the segment's
    # out-degree extrema); the global rank i + 1 exceeds the in-segment
    # one by the segment start, so the rank-weighted sum is
    # sum((i + 1) * d) - start * total, exactly, in integers
    stride = int(out_deg.max()) + 1
    segment_key = np.repeat(
        np.arange(0, len(live) * stride, stride), counts
    )
    ordered = np.sort(segment_key + out_deg) - segment_key
    extrema = ordered[starts + [start + count - 1 for start, count
                                in zip(starts, counts)]].tolist()
    out_lows, out_highs = extrema[:len(live)], extrema[len(live):]
    weighted = np.add.reduceat(
        np.arange(1, out_deg.size + 1) * ordered, starts_at
    ).tolist()
    # entropy: elementwise terms for all segments at once (each
    # positive degree over its segment's total), then one
    # contiguous-slice sum per segment (see the docstring)
    shares = np.compress(positive, out_deg) / np.repeat(
        np.array(totals, dtype=np.float64), term_counts
    )
    terms = shares * np.log(shares)
    logs = np.log(np.array(counts, dtype=np.float64)).tolist()
    add = np.add.reduce
    term_start = 0
    for (index, start, size, edges, in_total, out_high, in_high, out_low,
         in_low, weight, term_count, log_size) in zip(
            live, starts, counts, totals, in_totals, out_highs, in_highs,
            out_lows, in_lows, weighted, term_counts, logs):
        gini = entropy = 0.0
        if edges:
            gini = (2.0 * (weight - start * edges) / (size * float(edges))
                    - (size + 1) / size)
        term_end = term_start + term_count
        if size > 1 and edges:
            entropy = -float(add(terms[term_start:term_end])) / log_size
        term_start = term_end
        result[index] = FrontierFeatures(
            in_total / size, edges / size, float(in_high - in_low),
            float(out_high - out_low), gini, entropy, size, edges,
        )
    return result


_EMPTY = FrontierFeatures.empty()
