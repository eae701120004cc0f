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

from collections import OrderedDict
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphError

__all__ = ["CSRGraph", "ShardedCSRGraph"]


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
            # asarray first: ascontiguousarray applied directly to an
            # np.memmap copies even when the mapping is already
            # contiguous float64, defeating mmap-mode loads
            weights = np.ascontiguousarray(
                np.asarray(weights), dtype=np.float64
            )
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


class _ShardedEdgeArray:
    """Array-like view over one edge-axis field of a sharded graph.

    Supports exactly the access patterns the engines use on
    ``graph.indices`` / ``graph.weights``: fancy indexing with a 1-D
    position array (the gather hot path), slices, and scalars. Every
    access routes through the owning graph's budgeted shard cache, so
    only the touched shards are resident.
    """

    __slots__ = ("_graph", "_field")

    def __init__(self, graph: "ShardedCSRGraph", field: str) -> None:
        self._graph = graph
        self._field = field

    @property
    def dtype(self) -> np.dtype:
        """Element dtype (``int64`` indices, ``float64`` weights)."""
        return self._graph._field_dtype(self._field)

    @property
    def size(self) -> int:
        """Total number of edges."""
        return self._graph.num_edges

    @property
    def shape(self) -> Tuple[int, ...]:
        """1-D shape over the edge axis."""
        return (self._graph.num_edges,)

    @property
    def ndim(self) -> int:
        """Always 1 — edge arrays are flat."""
        return 1

    def __len__(self) -> int:
        return self._graph.num_edges

    def __getitem__(self, key):
        return self._graph._edge_take(self._field, key)

    def __array__(self, dtype=None, copy=None):
        # full materialization escape hatch for generic numpy code;
        # streams shard-by-shard through the cache (the concatenated
        # result itself is E-sized, like any full gather)
        full = self._graph._edge_take(
            self._field, slice(0, self._graph.num_edges)
        )
        if dtype is not None:
            full = full.astype(dtype, copy=False)
        return full

    def min(self):
        """Streaming minimum over all edges (min is exactly associative)."""
        return self._reduce(np.minimum)

    def max(self):
        """Streaming maximum over all edges (max is exactly associative)."""
        return self._reduce(np.maximum)

    def _reduce(self, op):
        best = None
        graph = self._graph
        for shard in range(graph.num_shards):
            array = graph._shard_array(shard, self._field)
            if array.size == 0:
                continue
            value = op.reduce(array)
            best = value if best is None else op(best, value)
        if best is None:
            raise ValueError("zero-size array reduction")
        return best

    def mean(self):
        """Mean over all edges.

        Materializes once: NumPy's pairwise summation is order
        dependent, so a streamed per-shard mean would not be
        bit-identical to ``ndarray.mean`` on the concatenated array.
        """
        return np.asarray(self).mean()

    def __repr__(self) -> str:
        return (
            f"_ShardedEdgeArray(field={self._field!r}, "
            f"size={self.size}, shards={self._graph.num_shards})"
        )


class ShardedCSRGraph:
    """Out-of-core CSR graph backed by on-disk vertex-range shards.

    Duck-types the :class:`CSRGraph` surface the engines, algorithms,
    partitioners, and feature scans touch — ``indptr`` (resident),
    ``indices``/``weights`` (lazy :class:`_ShardedEdgeArray` views),
    degree accessors — while only materializing the shards a superstep
    actually reads. Shards live in an LRU cache bounded by
    ``resident_bytes``; loads, hits, evictions, and the resident
    high-water mark are counted and optionally published through a
    :class:`~repro.obs.metrics.MetricsRegistry`.

    The hard invariant mirrors the threaded superstep's: a sharded
    graph changes *where bytes live*, never results or virtual time —
    every accessor returns bit-identical values to an in-core
    :class:`CSRGraph` over the same arrays (the sharded equivalence
    tests pin this).

    Parameters
    ----------
    indptr:
        Global row-pointer array (always resident; ``8 * (|V|+1)``
        bytes — the out-of-core budget governs the edge shards).
    shard_loader:
        ``(shard_id, field) -> np.ndarray`` callable materializing one
        shard's ``"indices"`` or ``"weights"`` payload.
    vertex_starts / edge_starts:
        Shard boundaries: shard ``s`` owns vertices
        ``[vertex_starts[s], vertex_starts[s+1])`` and the edge range
        ``[edge_starts[s], edge_starts[s+1])``; both length
        ``num_shards + 1``.
    weighted:
        Whether shards carry a ``weights`` payload.
    resident_bytes:
        Shard-cache budget. Eviction runs *before* a load, so the
        resident total only exceeds the budget when a single shard is
        larger than the whole budget.
    metrics:
        Optional registry receiving the cache counters; ``None``
        keeps counting purely local (``cache_stats()``).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        shard_loader: Callable[[int, str], np.ndarray],
        vertex_starts: np.ndarray,
        edge_starts: np.ndarray,
        weighted: bool,
        directed: bool = True,
        name: str = "graph",
        resident_bytes: int = 256 << 20,
        metrics=None,
    ) -> None:
        self._indptr = _as_index_array(indptr, "indptr")
        self._indptr.setflags(write=False)
        self._vertex_starts = _as_index_array(
            vertex_starts, "vertex_starts"
        )
        self._edge_starts = _as_index_array(edge_starts, "edge_starts")
        if self._vertex_starts.size != self._edge_starts.size:
            raise GraphError(
                "vertex_starts and edge_starts must be parallel"
            )
        if self._vertex_starts.size < 2:
            raise GraphError("need at least one shard")
        if (
            self._vertex_starts[0] != 0
            or self._vertex_starts[-1] != self._indptr.size - 1
            or np.any(np.diff(self._vertex_starts) < 0)
        ):
            raise GraphError("vertex_starts must tile 0..num_vertices")
        if not np.array_equal(
            self._edge_starts, self._indptr[self._vertex_starts]
        ):
            raise GraphError(
                "edge_starts must equal indptr at the shard boundaries"
            )
        self._loader = shard_loader
        self._weighted = bool(weighted)
        self._directed = bool(directed)
        self._name = str(name)
        self._budget = int(resident_bytes)
        if self._budget <= 0:
            raise GraphError("resident_bytes must be positive")
        self._cache: "OrderedDict[Tuple[int, str], np.ndarray]" = (
            OrderedDict()
        )
        self._resident = 0
        self._stats = {
            "shards": self.num_shards,
            "budget_bytes": self._budget,
            "loads": 0,
            "hits": 0,
            "evictions": 0,
            "resident_bytes": 0,
            "peak_resident_bytes": 0,
        }
        self._in_degrees_cache: Optional[np.ndarray] = None
        #: directory this graph was opened from (set by
        #: ``open_graph_sharded``); the parallel backend reopens it once
        #: per fragment thread, since the shard cache is not thread-safe
        self.source_path: Optional[str] = None
        self._indices_view = _ShardedEdgeArray(self, "indices")
        self._weights_view = (
            _ShardedEdgeArray(self, "weights") if self._weighted else None
        )
        self._m_loads = self._m_hits = self._m_evictions = None
        self._m_resident = self._m_peak = None
        if metrics is not None and getattr(metrics, "enabled", False):
            self._m_loads = metrics.counter(
                "shard_cache.loads",
                "CSR shards materialized from disk",
            )
            self._m_hits = metrics.counter(
                "shard_cache.hits",
                "shard-cache lookups served from resident shards",
            )
            self._m_evictions = metrics.counter(
                "shard_cache.evictions",
                "shards evicted to respect the resident-byte budget",
            )
            self._m_resident = metrics.gauge(
                "shard_cache.resident_bytes",
                "bytes of CSR shards currently resident",
            )
            self._m_peak = metrics.gauge(
                "shard_cache.peak_resident_bytes",
                "high-water resident bytes of the shard cache",
            )

    # ------------------------------------------------------------------
    # Basic properties (CSRGraph surface)
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self._indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of stored (directed) edges ``|E|``."""
        return int(self._edge_starts[-1])

    @property
    def num_shards(self) -> int:
        """Number of on-disk shards."""
        return self._vertex_starts.size - 1

    @property
    def resident_budget_bytes(self) -> int:
        """The shard cache's resident-byte budget."""
        return self._budget

    @property
    def indptr(self) -> np.ndarray:
        """Read-only global CSR row-pointer array (resident)."""
        return self._indptr

    @property
    def indices(self) -> _ShardedEdgeArray:
        """Lazy edge-destination view routed through the shard cache."""
        return self._indices_view

    @property
    def weights(self) -> Optional[_ShardedEdgeArray]:
        """Lazy edge-weight view, or ``None`` if unweighted."""
        return self._weights_view

    @property
    def is_weighted(self) -> bool:
        """Whether the graph carries an explicit weight per edge."""
        return self._weighted

    @property
    def directed(self) -> bool:
        """Whether the edge set should be interpreted as directed."""
        return self._directed

    @property
    def name(self) -> str:
        """Human-readable graph label."""
        return self._name

    @property
    def vertex_starts(self) -> np.ndarray:
        """Shard vertex boundaries (length ``num_shards + 1``)."""
        return self._vertex_starts

    @property
    def edge_starts(self) -> np.ndarray:
        """Shard edge boundaries (length ``num_shards + 1``)."""
        return self._edge_starts

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        return (
            f"ShardedCSRGraph(name={self._name!r}, "
            f"|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"shards={self.num_shards}, {kind}, "
            f"weighted={self._weighted})"
        )

    # ------------------------------------------------------------------
    # Shard cache
    # ------------------------------------------------------------------
    def _field_dtype(self, field: str) -> np.dtype:
        return np.dtype(
            np.int64 if field == "indices" else np.float64
        )

    def _shard_array(self, shard: int, field: str) -> np.ndarray:
        """One shard's payload, via the budgeted LRU cache."""
        key = (shard, field)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self._stats["hits"] += 1
            if self._m_hits is not None:
                self._m_hits.inc()
            return cached
        array = np.asarray(self._loader(shard, field))
        if array.dtype != self._field_dtype(field):
            array = array.astype(self._field_dtype(field))
        size = int(array.nbytes)
        # make room first so the peak honors the budget whenever any
        # single shard fits in it
        while self._cache and self._resident + size > self._budget:
            __, evicted = self._cache.popitem(last=False)
            self._resident -= int(evicted.nbytes)
            self._stats["evictions"] += 1
            if self._m_evictions is not None:
                self._m_evictions.inc()
        array.setflags(write=False)
        self._cache[key] = array
        self._resident += size
        self._stats["loads"] += 1
        self._stats["resident_bytes"] = self._resident
        if self._resident > self._stats["peak_resident_bytes"]:
            self._stats["peak_resident_bytes"] = self._resident
            if self._m_peak is not None:
                self._m_peak.set(float(self._resident))
        if self._m_loads is not None:
            self._m_loads.inc()
        if self._m_resident is not None:
            self._m_resident.set(float(self._resident))
        return array

    def cache_stats(self) -> dict:
        """Snapshot of the shard cache's counters."""
        stats = dict(self._stats)
        stats["resident_bytes"] = self._resident
        return stats

    def drop_cache(self) -> None:
        """Release every resident shard (counters are kept)."""
        self._cache.clear()
        self._resident = 0
        self._stats["resident_bytes"] = 0
        if self._m_resident is not None:
            self._m_resident.set(0.0)

    # ------------------------------------------------------------------
    # Edge-axis access (the _ShardedEdgeArray backend)
    # ------------------------------------------------------------------
    def _edge_take(self, field: str, key):
        num_edges = self.num_edges
        if isinstance(key, slice):
            start, stop, step = key.indices(num_edges)
            if step == 1:
                return self._take_range(field, start, stop)
            key = np.arange(start, stop, step, dtype=np.int64)
        if isinstance(key, (int, np.integer)):
            position = int(key)
            if position < 0:
                position += num_edges
            if not 0 <= position < num_edges:
                raise IndexError(
                    f"edge position {key} out of range 0..{num_edges}"
                )
            shard = int(np.searchsorted(
                self._edge_starts, position, side="right"
            )) - 1
            local = position - int(self._edge_starts[shard])
            return self._shard_array(shard, field)[local]
        positions = np.asarray(key, dtype=np.int64)
        if positions.ndim != 1:
            raise GraphError(
                "sharded edge arrays support 1-D indexing only"
            )
        if positions.size == 0:
            return np.empty(0, dtype=self._field_dtype(field))
        if np.any(np.diff(positions) < 0):
            # the gather hot path always hands us sorted positions;
            # restore order for anything else
            order = np.argsort(positions, kind="stable")
            gathered = self._take_sorted(field, positions[order])
            out = np.empty_like(gathered)
            out[order] = gathered
            return out
        return self._take_sorted(field, positions)

    def _take_sorted(
        self, field: str, positions: np.ndarray
    ) -> np.ndarray:
        """Fancy-index with ascending positions, shard by shard."""
        starts = self._edge_starts
        if positions[0] < 0 or positions[-1] >= self.num_edges:
            raise IndexError("edge positions out of range")
        first = int(np.searchsorted(
            starts, positions[0], side="right"
        )) - 1
        last = int(np.searchsorted(
            starts, positions[-1], side="right"
        )) - 1
        out = np.empty(positions.size, dtype=self._field_dtype(field))
        lo = 0
        for shard in range(first, last + 1):
            hi = int(np.searchsorted(
                positions, starts[shard + 1], side="left"
            ))
            if hi > lo:
                out[lo:hi] = self._shard_array(shard, field)[
                    positions[lo:hi] - starts[shard]
                ]
            lo = hi
        return out

    def _take_range(self, field: str, start: int, stop: int) -> np.ndarray:
        """Contiguous edge range ``[start, stop)``, shard by shard."""
        if stop <= start:
            return np.empty(0, dtype=self._field_dtype(field))
        starts = self._edge_starts
        first = int(np.searchsorted(starts, start, side="right")) - 1
        last = int(np.searchsorted(starts, stop - 1, side="right")) - 1
        if first == last:
            base = int(starts[first])
            return self._shard_array(first, field)[
                start - base: stop - base
            ].copy()
        pieces = []
        for shard in range(first, last + 1):
            lo = max(start, int(starts[shard])) - int(starts[shard])
            hi = min(stop, int(starts[shard + 1])) - int(starts[shard])
            pieces.append(self._shard_array(shard, field)[lo:hi])
        return np.concatenate(pieces)

    def iter_edge_shards(self):
        """Yield ``(v_start, v_stop, e_start, indices, weights)`` per shard.

        The streaming-superstep hook: dense edge scans (PageRank's
        power iteration, in-degree accumulation) walk shards in edge
        order, so applying an accumulation per shard is bit-identical
        to one pass over the concatenated arrays.
        """
        for shard in range(self.num_shards):
            indices = self._shard_array(shard, "indices")
            weights = (
                self._shard_array(shard, "weights")
                if self._weighted else None
            )
            yield (
                int(self._vertex_starts[shard]),
                int(self._vertex_starts[shard + 1]),
                int(self._edge_starts[shard]),
                indices,
                weights,
            )

    # ------------------------------------------------------------------
    # Degrees and neighborhoods (CSRGraph surface)
    # ------------------------------------------------------------------
    def out_degree(self, v: int) -> int:
        """Out-degree of a single vertex."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def out_degrees(
        self, vertices: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Out-degrees of ``vertices`` (or of all vertices if ``None``)."""
        if vertices is None:
            return np.diff(self._indptr)
        vertices = np.asarray(vertices, dtype=np.int64)
        return self._indptr[vertices + 1] - self._indptr[vertices]

    def in_degrees(self) -> np.ndarray:
        """In-degrees of all vertices (one streaming pass, cached).

        Per-shard ``bincount`` partial sums add exactly (integer
        addition is associative), so the result is bit-identical to a
        single global ``bincount``.
        """
        if self._in_degrees_cache is None:
            counts = np.zeros(self.num_vertices, dtype=np.int64)
            for __, __, __, indices, __ in self.iter_edge_shards():
                if indices.size:
                    counts += np.bincount(
                        indices, minlength=self.num_vertices
                    )
            counts.setflags(write=False)
            self._in_degrees_cache = counts
        return self._in_degrees_cache

    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of ``v`` (materialized from its shard)."""
        return self._take_range(
            "indices", int(self._indptr[v]), int(self._indptr[v + 1])
        )

    def edge_weights_of(self, v: int) -> np.ndarray:
        """Weights of the out-edges of ``v`` (all-ones if unweighted)."""
        lo, hi = int(self._indptr[v]), int(self._indptr[v + 1])
        if not self._weighted:
            return np.ones(hi - lo, dtype=np.float64)
        return self._take_range("weights", lo, hi)

    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(src, dst, weight)`` triples in CSR order."""
        for v_start, v_stop, e_start, indices, weights in (
            self.iter_edge_shards()
        ):
            for v in range(v_start, v_stop):
                lo = int(self._indptr[v]) - e_start
                hi = int(self._indptr[v + 1]) - e_start
                for k in range(lo, hi):
                    w = 1.0 if weights is None else float(weights[k])
                    yield v, int(indices[k]), w
