"""Constructing :class:`~repro.graph.csr.CSRGraph` from edge data.

Builders accept edges in the most common interchange forms — arrays of
``(src, dst[, weight])``, Python iterables, whitespace-separated edge-list
files, and MatrixMarket coordinate files — and normalize them into a
validated CSR structure. All builders are deterministic: CSR order is
``(src, dst)``-sorted unless noted.
"""

from __future__ import annotations

import gzip
import io
import math
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, _as_index_array

__all__ = [
    "from_edges",
    "from_edge_arrays",
    "symmetrize",
    "remove_self_loops",
    "coalesce_duplicates",
    "load_edge_list",
    "load_matrix_market",
    "save_edge_list",
]

EdgeLike = Union[Tuple[int, int], Tuple[int, int, float], Sequence[float]]

#: The largest vertex count whose fused edge keys fit in int64.
_MAX_VERTICES = math.isqrt(2**63)

#: How parallel edge weights combine: ufunc and identity.
_REDUCE = {"min": (np.minimum, np.inf), "max": (np.maximum, -np.inf),
           "sum": (np.add, 0.0)}


def from_edge_arrays(
    sources: np.ndarray,
    destinations: np.ndarray,
    num_vertices: Optional[int] = None,
    weights: Optional[np.ndarray] = None,
    directed: bool = True,
    name: str = "graph",
    sort: bool = True,
) -> CSRGraph:
    """Build a CSR graph from parallel source/destination arrays.

    Parameters
    ----------
    sources, destinations:
        Parallel integer arrays of edge endpoints.
    num_vertices:
        Explicit vertex count; inferred as ``max id + 1`` when ``None``.
        At most ``isqrt(2**63)``, so that the fused sort key
        ``src * num_vertices + dst`` fits in int64.
    weights:
        Optional parallel weight array.
    directed:
        Interpretation flag stored on the graph (no edges are added).
    sort:
        Sort edges by ``(src, dst)`` for a canonical CSR layout; parallel
        edges keep their input order. Disable only when the sources
        already ascend (destinations within a source keep their order);
        descending sources raise :class:`GraphError`.
    """
    src = _as_index_array(sources, "sources").ravel()
    dst = _as_index_array(destinations, "destinations").ravel()
    if src.shape != dst.shape:
        raise GraphError("sources and destinations must be parallel arrays")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.shape != src.shape:
            raise GraphError("weights must be parallel to the edge arrays")
    if src.size:
        lo = min(int(src.min()), int(dst.min()))
        hi = max(int(src.max()), int(dst.max()))
        if lo < 0:
            raise GraphError("vertex ids must be non-negative")
    else:
        hi = -1
    if num_vertices is None:
        num_vertices = hi + 1
    elif hi >= num_vertices:
        raise GraphError(
            f"edge endpoint {hi} out of range for num_vertices={num_vertices}"
        )
    if num_vertices > _MAX_VERTICES:
        raise GraphError(
            f"num_vertices={num_vertices} exceeds {_MAX_VERTICES}: the "
            "fused edge key src * num_vertices + dst would overflow int64"
        )

    if sort and src.size:
        keys = src * num_vertices + dst
        if weights is None:
            # equal keys are identical edges: any sort gives one layout
            keys.sort()
        else:
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            weights = weights[order]
        return _keys_csr(keys, num_vertices, weights, directed, name)
    if np.any(src[1:] < src[:-1]):
        raise GraphError("sort=False needs ascending sources")
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_vertices), out=indptr[1:])
    return CSRGraph(indptr, dst, weights=weights, directed=directed, name=name)


def from_edges(
    edges: Iterable[EdgeLike],
    num_vertices: Optional[int] = None,
    directed: bool = True,
    name: str = "graph",
) -> CSRGraph:
    """Build a CSR graph from an iterable of ``(src, dst[, weight])``.

    Weights are used only if *every* edge carries one; a mix of weighted
    and unweighted tuples raises :class:`GraphError`.
    """
    src, dst, weights = _edge_columns(
        ((None, edge) for edge in edges), lambda _, edge: f"edge {edge!r}"
    )
    return from_edge_arrays(
        src, dst, num_vertices=num_vertices, weights=weights,
        directed=directed, name=name,
    )


def _edge_columns(rows, where):
    """``(src, dst, weights)`` arrays of ``(key, fields)`` rows.

    Each row's fields are ``src dst`` or ``src dst weight``; weights are
    kept only if every row carries one. ``where(key, fields)`` names a
    bad row in the error.
    """
    srcs: list[int] = []
    dsts: list[int] = []
    wts: list[float] = []
    saw_weight = None
    for key, fields in rows:
        if len(fields) not in (2, 3):
            raise GraphError(f"{where(key, fields)}: expected 2 or 3 "
                             f"fields, got {len(fields)}")
        has_weight = len(fields) == 3
        if saw_weight is None:
            saw_weight = has_weight
        elif saw_weight != has_weight:
            raise GraphError(f"{where(key, fields)}: mixed weighted and "
                             "unweighted edges")
        srcs.append(int(fields[0]))
        dsts.append(int(fields[1]))
        if has_weight:
            wts.append(float(fields[2]))
    weights = np.asarray(wts, dtype=np.float64) if saw_weight else None
    return (np.asarray(srcs, dtype=np.int64),
            np.asarray(dsts, dtype=np.int64), weights)


def remove_self_loops(graph: CSRGraph) -> CSRGraph:
    """Return a copy of ``graph`` with all self-loop edges dropped.

    The remaining edges keep their CSR order.
    """
    src, dst = graph.edge_array()
    keep = src != dst
    weights = graph.weights[keep] if graph.weights is not None else None
    return from_edge_arrays(
        src[keep], dst[keep], num_vertices=graph.num_vertices,
        weights=weights, directed=graph.directed, name=graph.name,
        sort=False,
    )


def coalesce_duplicates(graph: CSRGraph, reduce: str = "min") -> CSRGraph:
    """Merge parallel edges, combining weights by ``min``/``max``/``sum``.

    Unweighted graphs simply deduplicate the edge set.
    """
    return _distinct_edges(
        _edge_keys(graph), graph.weights, reduce, graph.num_vertices,
        graph.directed, graph.name,
    )


def symmetrize(graph: CSRGraph, reduce: str = "min") -> CSRGraph:
    """Return the undirected closure: every edge gets a reverse twin.

    Duplicates created by the union are coalesced with ``reduce``. The
    result is flagged ``directed=False``.
    """
    weights = graph.weights
    if weights is not None:
        weights = np.concatenate([weights, weights])
    return _distinct_edges(
        _with_twins(_edge_keys(graph), graph.num_vertices), weights,
        reduce, graph.num_vertices, False, graph.name,
    )


def _simple_graph(
    keys: np.ndarray,
    num_vertices: int,
    name: str,
    undirected: bool = False,
) -> CSRGraph:
    """The CSR of the distinct non-loop edges of fused ``keys``, one sort.

    ``keys`` holds ``src * num_vertices + dst`` per drawn edge and is
    consumed. ``undirected`` adds every reverse twin first, which is
    what :func:`symmetrize` of the directed result would give.
    """
    if undirected:
        keys = _with_twins(keys, num_vertices)
    return _distinct_edges(
        keys, None, "min", num_vertices, not undirected, name, loops=False
    )


def _edge_keys(graph: CSRGraph) -> np.ndarray:
    """The fused key ``src * num_vertices + dst`` of every edge, in CSR
    order."""
    n = graph.num_vertices
    keys = np.repeat(
        np.arange(n, dtype=np.int64) * n, np.diff(graph.indptr)
    )
    keys += graph.indices
    return keys


def _with_twins(keys: np.ndarray, num_vertices: int) -> np.ndarray:
    """``keys`` followed by the key of each edge's reverse twin."""
    m = keys.size
    out = np.empty(2 * m, dtype=np.int64)
    forward, twins = out[:m], out[m:]
    np.divmod(keys, num_vertices, out=(twins, forward))
    forward *= num_vertices
    twins += forward
    forward[:] = keys
    return out


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal sorted ``keys``."""
    starts = np.empty(keys.size, dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


def _distinct_edges(
    keys: np.ndarray,
    weights: Optional[np.ndarray],
    reduce: str,
    num_vertices: int,
    directed: bool,
    name: str,
    loops: bool = True,
) -> CSRGraph:
    """The CSR of the distinct edges of fused ``keys``, by one sort.

    ``keys`` is consumed. Unweighted, it is sorted in place and the
    first key of each run is kept (``np.unique`` hashes first, several
    times slower); ``loops=False`` also drops self-loops, the keys
    divisible by ``num_vertices + 1``. Weighted, one stable argsort
    orders it, so parallel weights are combined with ``reduce`` in
    their input order.
    """
    if reduce not in _REDUCE:
        raise GraphError(f"unknown reduce mode {reduce!r}")
    if weights is None:
        keys.sort()
        starts = _run_starts(keys)
        if not loops:
            starts &= keys % (num_vertices + 1) != 0
        keys = keys[starts]
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = _run_starts(keys)
        keys = keys[starts]
        ufunc, identity = _REDUCE[reduce]
        sorted_weights = weights[order]
        weights = np.full(keys.size, identity)
        ufunc.at(weights, np.cumsum(starts) - 1, sorted_weights)
    return _keys_csr(keys, num_vertices, weights, directed, name)


def _keys_csr(
    keys: np.ndarray,
    num_vertices: int,
    weights: Optional[np.ndarray],
    directed: bool,
    name: str,
) -> CSRGraph:
    """The CSR of sorted fused ``keys``, whose buffer it consumes:
    ``indices = keys % n``, and ``indptr`` counts ``keys // n``."""
    indices = keys % num_vertices
    np.floor_divide(keys, num_vertices, out=keys)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=num_vertices), out=indptr[1:])
    return CSRGraph(
        indptr, indices, weights=weights, directed=directed, name=name
    )


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------
def _open_text(path: Union[str, Path]) -> io.TextIOBase:
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"))
    return open(path, "r")


def load_edge_list(
    path: Union[str, Path],
    directed: bool = True,
    comment_chars: str = "#%",
    name: Optional[str] = None,
) -> CSRGraph:
    """Load a whitespace-separated edge-list file (optionally gzipped).

    Lines are ``src dst`` or ``src dst weight``; lines starting with any
    character in ``comment_chars`` are skipped. Vertex ids are arbitrary
    non-negative integers and are kept as-is (the vertex count is the max
    id + 1).
    """
    with _open_text(path) as handle:
        rows = enumerate((line.split() for line in handle), start=1)
        src, dst, weights = _edge_columns(
            ((lineno, parts) for lineno, parts in rows
             if parts and parts[0][0] not in comment_chars),
            lambda lineno, _: f"{path}:{lineno}",
        )
    return from_edge_arrays(
        src, dst, weights=weights, directed=directed,
        name=name or Path(path).stem,
    )


def load_matrix_market(
    path: Union[str, Path], name: Optional[str] = None
) -> CSRGraph:
    """Load a MatrixMarket ``coordinate`` file as a graph.

    Supports ``pattern`` (unweighted) and ``real``/``integer`` (weighted)
    fields, and expands ``symmetric`` storage into both edge directions.
    Vertex ids are converted from 1-based to 0-based.
    """
    with _open_text(path) as handle:
        header = handle.readline()
        if not header.startswith("%%MatrixMarket"):
            raise GraphError(f"{path}: missing MatrixMarket header")
        tokens = header.strip().split()
        if len(tokens) < 5 or tokens[2] != "coordinate":
            raise GraphError(f"{path}: only coordinate format is supported")
        field, symmetry = tokens[3], tokens[4]
        if field not in ("pattern", "real", "integer"):
            raise GraphError(f"{path}: unsupported field {field!r}")
        line = handle.readline()
        while line.startswith("%"):
            line = handle.readline()
        dims = line.split()
        if len(dims) != 3:
            raise GraphError(f"{path}: malformed size line")
        rows, cols, __ = (int(x) for x in dims)
        n = max(rows, cols)

        srcs: list[int] = []
        dsts: list[int] = []
        wts: list[float] = []
        for raw in handle:
            raw = raw.strip()
            if not raw or raw.startswith("%"):
                continue
            parts = raw.split()
            u, v = int(parts[0]) - 1, int(parts[1]) - 1
            srcs.append(u)
            dsts.append(v)
            if field != "pattern":
                wts.append(float(parts[2]))
    weights = np.asarray(wts, dtype=np.float64) if field != "pattern" else None
    src = np.asarray(srcs, dtype=np.int64)
    dst = np.asarray(dsts, dtype=np.int64)
    directed = symmetry != "symmetric"
    if symmetry == "symmetric":
        off_diag = src != dst
        src, dst = (
            np.concatenate([src, dst[off_diag]]),
            np.concatenate([dst, src[off_diag]]),
        )
        if weights is not None:
            weights = np.concatenate([weights, weights[off_diag]])
    return from_edge_arrays(
        src,
        dst,
        num_vertices=n,
        weights=weights,
        directed=directed,
        name=name or Path(path).stem,
    )


def save_edge_list(graph: CSRGraph, path: Union[str, Path]) -> None:
    """Write the graph as a whitespace-separated edge-list file."""
    src, dst = graph.edge_array()
    with open(path, "w") as handle:
        handle.write(f"# {graph.name}: {graph.num_vertices} vertices, "
                     f"{graph.num_edges} edges\n")
        if graph.weights is not None:
            for u, v, w in zip(src, dst, graph.weights):
                handle.write(f"{u} {v} {w:g}\n")
        else:
            for u, v in zip(src, dst):
                handle.write(f"{u} {v}\n")
