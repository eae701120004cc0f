"""Immutable CSR graph representation.

:class:`CSRGraph` is the core data structure of the library: a directed
graph stored in Compressed Sparse Row form (``indptr``/``indices`` plus an
optional parallel ``weights`` array). Every engine, partitioner, and
algorithm operates on this structure.

The CSC (reverse) view needed for pull-style gathers and for in-degree
features (Table I of the paper) is built lazily and cached.

Design notes
------------
* Vertex ids are dense integers ``0..num_vertices-1``; the builders module
  handles relabelling from arbitrary ids.
* Arrays are validated once at construction and then never mutated; all
  accessors return read-only views or fresh arrays.
* Degrees are O(1) vectorized lookups, which the runtime relies on for
  frontier workload computation (``work = sum of out-degrees``).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphError

__all__ = ["CSRGraph"]


def _as_index_array(array: np.ndarray, label: str) -> np.ndarray:
    """Normalize a CSR index array to contiguous ``int64``, losslessly.

    Construction paths hand us whatever a loader produced — ``int32``
    from a matrix-market reader, a strided slice, or (by accident) a
    float array. Silent truncation of a fractional value would corrupt
    the topology, and the gather kernels index a contiguous ``int64``
    buffer, so both are rejected or normalized here, once, at
    construction.
    """
    source = np.asarray(array)
    out = np.ascontiguousarray(source, dtype=np.int64)
    if source.dtype != np.int64 and source.size:
        if not np.array_equal(out, source):
            raise GraphError(
                f"{label} cannot be losslessly converted to int64 "
                f"(source dtype {source.dtype})"
            )
    return out


class CSRGraph:
    """A directed graph in CSR form with optional edge weights.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; monotonically
        non-decreasing, ``indptr[0] == 0`` and ``indptr[-1] == num_edges``.
    indices:
        ``int64`` array of length ``num_edges``; destination vertex of each
        edge, in ``[0, num_vertices)``.
    weights:
        Optional ``float64`` array parallel to ``indices``. ``None`` means
        the graph is unweighted (algorithms treat every edge as weight 1).
    directed:
        Metadata flag recording whether the edge set is meant to be read as
        directed. Symmetrized graphs built by the builders carry
        ``directed=False`` even though both edge directions are stored.
    name:
        Human-readable label used in benchmark reports.
    """

    __slots__ = (
        "_indptr",
        "_indices",
        "_weights",
        "_directed",
        "_name",
        "_csc_cache",
        "_csc_order_cache",
        "_in_degrees_cache",
        "_symmetric_cache",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
        directed: bool = True,
        name: str = "graph",
    ) -> None:
        indptr = _as_index_array(indptr, "indptr")
        indices = _as_index_array(indices, "indices")
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphError("indptr and indices must be 1-D arrays")
        if indptr.size == 0:
            raise GraphError("indptr must have at least one entry")
        if indptr[0] != 0:
            raise GraphError("indptr[0] must be 0")
        if indptr[-1] != indices.size:
            raise GraphError(
                f"indptr[-1] ({indptr[-1]}) must equal len(indices) "
                f"({indices.size})"
            )
        if indptr.size > 1 and np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        num_vertices = indptr.size - 1
        if indices.size and (
            indices.min() < 0 or indices.max() >= num_vertices
        ):
            raise GraphError("edge destination out of range")
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
            if weights.ndim != 1 or weights.shape != indices.shape:
                raise GraphError("weights must be parallel to indices")
            weights.setflags(write=False)
        indptr.setflags(write=False)
        indices.setflags(write=False)

        self._indptr = indptr
        self._indices = indices
        self._weights = weights
        self._directed = bool(directed)
        self._name = str(name)
        self._csc_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._csc_order_cache: Optional[np.ndarray] = None
        self._in_degrees_cache: Optional[np.ndarray] = None
        self._symmetric_cache: Optional["CSRGraph"] = None

    # ------------------------------------------------------------------
    # Pickling (a pickled partition carries its graph). Lazy caches
    # are dropped — the copy rebuilds them on demand — and the
    # read-only flags, which numpy does not preserve across pickling,
    # are restored.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {
            "indptr": self._indptr,
            "indices": self._indices,
            "weights": self._weights,
            "directed": self._directed,
            "name": self._name,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            state["indptr"],
            state["indices"],
            weights=state["weights"],
            directed=state["directed"],
            name=state["name"],
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self._indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of stored (directed) edges ``|E|``."""
        return self._indices.size

    @property
    def indptr(self) -> np.ndarray:
        """Read-only CSR row-pointer array, length ``|V| + 1``."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Read-only CSR column-index array, length ``|E|``."""
        return self._indices

    @property
    def weights(self) -> Optional[np.ndarray]:
        """Read-only edge-weight array, or ``None`` if unweighted."""
        return self._weights

    @property
    def is_weighted(self) -> bool:
        """Whether the graph carries an explicit weight per edge."""
        return self._weights is not None

    @property
    def directed(self) -> bool:
        """Whether the edge set should be interpreted as directed."""
        return self._directed

    @property
    def name(self) -> str:
        """Human-readable graph label."""
        return self._name

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        return (
            f"CSRGraph(name={self._name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, {kind}, "
            f"weighted={self.is_weighted})"
        )

    # ------------------------------------------------------------------
    # Degrees and neighborhoods
    # ------------------------------------------------------------------
    def out_degree(self, v: int) -> int:
        """Out-degree of a single vertex."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def out_degrees(self, vertices: Optional[np.ndarray] = None) -> np.ndarray:
        """Out-degrees of ``vertices`` (or of all vertices if ``None``)."""
        if vertices is None:
            return np.diff(self._indptr)
        vertices = np.asarray(vertices, dtype=np.int64)
        return self._indptr[vertices + 1] - self._indptr[vertices]

    def in_degrees(self) -> np.ndarray:
        """In-degrees of all vertices (cached)."""
        if self._in_degrees_cache is None:
            counts = np.bincount(
                self._indices, minlength=self.num_vertices
            ).astype(np.int64)
            counts.setflags(write=False)
            self._in_degrees_cache = counts
        return self._in_degrees_cache

    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of ``v`` as a read-only array view."""
        return self._indices[self._indptr[v]: self._indptr[v + 1]]

    def edge_weights_of(self, v: int) -> np.ndarray:
        """Weights of the out-edges of ``v`` (all-ones if unweighted)."""
        lo, hi = self._indptr[v], self._indptr[v + 1]
        if self._weights is None:
            return np.ones(int(hi - lo), dtype=np.float64)
        return self._weights[lo:hi]

    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(src, dst, weight)`` triples in CSR order.

        This is a convenience for tests and small graphs; hot paths use
        the vectorized array accessors instead.
        """
        for v in range(self.num_vertices):
            lo, hi = int(self._indptr[v]), int(self._indptr[v + 1])
            for k in range(lo, hi):
                w = 1.0 if self._weights is None else float(self._weights[k])
                yield v, int(self._indices[k]), w

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(sources, destinations)`` arrays of all edges."""
        sources = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64),
            np.diff(self._indptr),
        )
        return sources, self._indices.copy()

    # ------------------------------------------------------------------
    # Reverse (CSC) view
    # ------------------------------------------------------------------
    def _build_csc(self) -> Tuple[np.ndarray, np.ndarray]:
        """Build the reverse adjacency (in-neighbors) arrays."""
        n = self.num_vertices
        in_deg = np.bincount(self._indices, minlength=n).astype(np.int64)
        rindptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(in_deg, out=rindptr[1:])
        order = self._csc_order()
        sources, __ = self.edge_array()
        rindices = sources[order]
        rindptr.setflags(write=False)
        rindices.setflags(write=False)
        return rindptr, rindices

    def _csc_order(self) -> np.ndarray:
        """The stable CSR→CSC edge permutation (cached).

        ``reversed()`` permutes weights with exactly this array, so the
        reversed weights are aligned with the cached CSC view by
        construction rather than by recomputing (and trusting) a second
        argsort.
        """
        if self._csc_order_cache is None:
            order = np.argsort(self._indices, kind="stable")
            order.setflags(write=False)
            self._csc_order_cache = order
        return self._csc_order_cache

    def reverse_adjacency(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return cached ``(rindptr, rindices)`` CSC arrays.

        ``rindices[rindptr[v]:rindptr[v+1]]`` are the in-neighbors of
        ``v``. Built on first use; subsequent calls are O(1).
        """
        if self._csc_cache is None:
            self._csc_cache = self._build_csc()
        return self._csc_cache

    def in_neighbors(self, v: int) -> np.ndarray:
        """In-neighbors of ``v`` (builds the CSC view on first use)."""
        rindptr, rindices = self.reverse_adjacency()
        return rindices[rindptr[v]: rindptr[v + 1]]

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reversed(self) -> "CSRGraph":
        """Return a new graph with every edge direction flipped."""
        rindptr, rindices = self.reverse_adjacency()
        rweights = None
        if self._weights is not None:
            rweights = self._weights[self._csc_order()]
        return CSRGraph(
            rindptr.copy(),
            rindices.copy(),
            weights=rweights,
            directed=self._directed,
            name=f"{self._name}-rev",
        )

    def symmetrized(self) -> "CSRGraph":
        """:func:`~repro.graph.builders.symmetrize` of this graph, cached.

        WCC runs on the undirected closure of a directed input; built
        on first use, it is shared by every later run on this graph.
        """
        if self._symmetric_cache is None:
            # builders imports this module; resolve it on first use
            from repro.graph.builders import symmetrize

            self._symmetric_cache = symmetrize(self)
        return self._symmetric_cache

    def with_name(self, name: str) -> "CSRGraph":
        """Return a shallow copy carrying a different label."""
        g = CSRGraph.__new__(CSRGraph)
        g._indptr = self._indptr
        g._indices = self._indices
        g._weights = self._weights
        g._directed = self._directed
        g._name = str(name)
        g._csc_cache = self._csc_cache
        g._csc_order_cache = self._csc_order_cache
        g._in_degrees_cache = self._in_degrees_cache
        # the cached closure carries the old label
        g._symmetric_cache = None
        return g

    def with_unit_weights(self) -> "CSRGraph":
        """Return a copy whose every edge weight is 1.0."""
        return CSRGraph(
            self._indptr.copy(),
            self._indices.copy(),
            weights=np.ones(self.num_edges, dtype=np.float64),
            directed=self._directed,
            name=self._name,
        )
