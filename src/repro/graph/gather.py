"""Vectorized adjacency expansion — the engine's hot path.

Given a frontier (vertex subset), produce the flattened arrays of all
their out-edges in one shot, without Python-level per-vertex loops.
Every superstep of every engine funnels through :func:`gather_edges`,
and every "which vertices did those edges reach" question through
:func:`distinct_vertices`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "gather_edges",
    "gather_edge_positions",
    "expand_indices",
    "distinct_vertices",
]

#: Below ``num_vertices / SPARSE_DIVISOR`` ids a sort beats the bitmap's
#: O(V) scan (measured crossover ~V/6 at V=32k, ~V/8 at V=1M).
SPARSE_DIVISOR = 8


def expand_indices(
    starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Flatten ranges ``[starts[i], starts[i]+counts[i])`` into one array.

    Output position ``k`` of range ``i`` holds ``starts[i]`` plus its
    offset into the range, ``k`` minus the range's first output
    position: one ``arange`` plus each range's repeated shift.
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.arange(total, dtype=np.int64)
    out += np.repeat(starts - (ends - counts), counts)
    return out


def gather_edge_positions(
    graph: CSRGraph, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR edge positions of all out-edges of ``vertices``.

    Returns ``(sources, positions)``: ``positions[k]`` indexes into
    ``graph.indices``/``graph.weights`` and ``sources[k]`` is the
    frontier vertex owning that edge.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    indptr = graph.indptr
    starts = indptr[vertices]
    counts = indptr[vertices + 1] - starts
    positions = expand_indices(starts, counts)
    sources = np.repeat(vertices, counts)
    return sources, positions


def gather_edges(
    graph: CSRGraph, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """All out-edges of ``vertices`` as flat parallel arrays.

    Returns ``(sources, destinations, weights)`` where ``sources[k]``
    repeats each frontier vertex once per out-edge, in CSR order, and
    ``weights`` is ``None`` for unweighted graphs.
    """
    sources, positions = gather_edge_positions(graph, vertices)
    destinations = graph.indices[positions]
    weights = None
    if graph.weights is not None:
        weights = graph.weights[positions]
    return sources, destinations, weights


def distinct_vertices(
    ids: np.ndarray,
    num_vertices: int,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sorted distinct vertex ids of ``ids`` — ``np.unique`` for ids.

    A vertex set drawn from ``[0, num_vertices)`` de-duplicates through
    a ``num_vertices``-byte bitmap (mark, scan, clear) instead of
    ``np.unique``'s hash table — 0.9 ms against 27 ms on a 403k-edge
    superstep. ``scratch`` is the caller's reusable all-``False``
    bitmap; it is cleared again only where it was marked, so callers
    keep one per run. A set much smaller than the vertex range is
    sorted instead and never touches the bitmap, which keeps a
    one-vertex tail superstep O(edges) rather than O(V).
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size * SPARSE_DIVISOR < num_vertices:
        ordered = np.sort(ids)
        if ordered.size < 2:
            return ordered
        keep = np.empty(ordered.size, dtype=bool)
        keep[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
        return ordered[keep]
    if scratch is None:
        scratch = np.zeros(num_vertices, dtype=bool)
    scratch[ids] = True
    distinct = np.flatnonzero(scratch)
    scratch[distinct] = False
    return distinct
