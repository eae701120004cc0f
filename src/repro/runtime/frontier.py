"""Frontier representation and algebra.

A frontier is the subset of vertices active in one BSP iteration —
the paper's ``f_k`` and the unit of work FSteal redistributes. We keep
frontiers as *sorted unique* ``int64`` arrays: cheap set algebra via
merges, and the sorted order is what Algorithm 1's prefix-sum /
sorted-search vertex selection expects.

Frontiers also memoize their per-graph derived quantities — workload,
Table-I features, and the flattened out-edge gather. Several consumers
touch the same frontier every superstep (the stealing arbitrator, the
engine's plan pricing, the message-cost model, and the algorithm step
itself); the cache makes each derived quantity a once-per-frontier
cost instead of a per-consumer one — once per *run* for a frontier
that stays active unchanged, like PageRank's full one.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
# features imports nothing from runtime; cycle-safe
from repro.graph.features import (
    FrontierFeatures,
    frontier_features,
    segment_features,
)
from repro.graph.gather import gather_edge_positions

__all__ = ["Frontier", "FragmentTable"]


class Frontier:
    """A sorted set of active vertices with workload helpers."""

    __slots__ = ("_vertices", "_cache")

    def __init__(self, vertices: np.ndarray | Iterable[int] = ()) -> None:
        array = np.asarray(list(vertices) if not isinstance(
            vertices, np.ndarray) else vertices, dtype=np.int64)
        if array.size:
            array = np.unique(array)
        array.setflags(write=False)
        self._vertices = array
        self._cache: dict = {}

    # ------------------------------------------------------------------
    @staticmethod
    def from_sorted(vertices: np.ndarray) -> "Frontier":
        """Wrap an already-sorted-unique array without re-sorting."""
        array = np.ascontiguousarray(vertices, dtype=np.int64)
        array.setflags(write=False)
        return Frontier._wrap(array)

    @staticmethod
    def _wrap(vertices: np.ndarray, memo: Optional[dict] = None) -> "Frontier":
        """Wrap a read-only sorted-unique int64 array as is."""
        frontier = Frontier.__new__(Frontier)
        frontier._vertices = vertices
        frontier._cache = {} if memo is None else memo
        return frontier

    @staticmethod
    def from_mask(mask: np.ndarray) -> "Frontier":
        """Frontier of all vertices where ``mask`` is true."""
        return Frontier.from_sorted(np.flatnonzero(mask).astype(np.int64))

    @staticmethod
    def full(num_vertices: int) -> "Frontier":
        """Frontier containing every vertex (dense algorithms like PR)."""
        return Frontier.from_sorted(np.arange(num_vertices, dtype=np.int64))

    @staticmethod
    def empty() -> "Frontier":
        """The empty frontier."""
        return Frontier.from_sorted(np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------
    @property
    def vertices(self) -> np.ndarray:
        """Read-only sorted vertex array."""
        return self._vertices

    @property
    def size(self) -> int:
        """Number of active vertices."""
        return int(self._vertices.size)

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frontier):
            return NotImplemented
        return np.array_equal(self._vertices, other._vertices)

    def __hash__(self) -> int:  # frontiers are value-like but unhashable
        raise TypeError("Frontier is not hashable")

    def __repr__(self) -> str:
        preview = self._vertices[:8].tolist()
        suffix = "..." if self.size > 8 else ""
        return f"Frontier(size={self.size}, {preview}{suffix})"

    # ------------------------------------------------------------------
    # Pickle support (a pickled state or plan carries its frontiers):
    # store only the vertex array — the memo cache pins whole graphs —
    # and restore the read-only invariant on load.
    # ------------------------------------------------------------------
    def __getstate__(self) -> np.ndarray:
        return np.array(self._vertices)

    def __setstate__(self, state: np.ndarray) -> None:
        array = np.ascontiguousarray(state, dtype=np.int64)
        array.setflags(write=False)
        self._vertices = array
        self._cache = {}

    # ------------------------------------------------------------------
    # Memoized per-graph derived quantities
    # ------------------------------------------------------------------
    def _memo(self, key: str, graph: CSRGraph, compute):
        """Per-(key, graph) memo; entries pin the graph they belong to."""
        entry = self._cache.get(key)
        if entry is not None and entry[0] is graph:
            return entry[1]
        value = compute()
        self._cache[key] = (graph, value)
        return value

    def work(self, graph: CSRGraph) -> int:
        """Total out-edges of the frontier — the workload ``l`` of FSteal."""
        if self.size == 0:
            return 0
        return self._memo(
            "work", graph,
            lambda: int(graph.out_degrees(self._vertices).sum()),
        )

    def features(self, graph: CSRGraph) -> FrontierFeatures:
        """Table-I features of this frontier, computed at most once (a
        part of a :class:`FragmentTable` arrives with it seeded)."""
        return self._memo(
            "features", graph,
            lambda: frontier_features(graph, self._vertices),
        )

    def gather(
        self, graph: CSRGraph
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Memoized flattened out-edges: (sources, destinations,
        weights). The CSR positions they were read at are dropped."""

        def compute():
            sources, positions = gather_edge_positions(graph, self._vertices)
            weights = graph.weights
            return (sources, graph.indices[positions],
                    None if weights is None else weights[positions])

        return self._memo("gather", graph, compute)

    def union(self, other: "Frontier") -> "Frontier":
        """Set union."""
        if not self:
            return other
        if not other:
            return self
        return Frontier.from_sorted(
            np.union1d(self._vertices, other._vertices)
        )

    def intersection(self, other: "Frontier") -> "Frontier":
        """Set intersection."""
        return Frontier.from_sorted(
            np.intersect1d(self._vertices, other._vertices,
                           assume_unique=True)
        )

    def difference(self, other: "Frontier") -> "Frontier":
        """Set difference (vertices in self but not other)."""
        return Frontier.from_sorted(
            np.setdiff1d(self._vertices, other._vertices,
                         assume_unique=True)
        )

    def contains(self, vertex: int) -> bool:
        """Membership test via binary search."""
        idx = np.searchsorted(self._vertices, vertex)
        return bool(
            idx < self._vertices.size and self._vertices[idx] == vertex
        )

    def split_by_owner(
        self,
        owner: np.ndarray,
        num_fragments: int,
        graph: Optional[CSRGraph] = None,
    ) -> List["Frontier"]:
        """Partition the frontier by an ownership array.

        Returns one frontier per fragment, their disjoint union being
        ``self``: the distributed frontier the engines and stealing
        policies operate on. Given the ``graph`` it is the superstep's
        :class:`FragmentTable`. Memoized per (``graph``, ``owner``
        array, ``num_fragments``), so a frontier that lives for many
        rounds (PageRank's full one) hands back the same parts, seeded
        memos included, every round.
        """
        entry = self._cache.get("split")
        if (entry is not None and entry[0] is graph and entry[1] is owner
                and entry[2] == num_fragments):
            return entry[3].copy()
        owners = owner[self._vertices]
        # stable: each owner's run keeps the frontier's ascending order
        ordered = self._vertices[np.argsort(owners, kind="stable")]
        ordered.setflags(write=False)
        bounds = [0, *accumulate(
            np.bincount(owners, minlength=num_fragments).tolist()
        )]
        parts = (
            FragmentTable(graph, ordered, bounds) if graph is not None
            else [Frontier._wrap(ordered[start:stop])
                  for start, stop in zip(bounds, bounds[1:])]
        )
        self._cache["split"] = (graph, owner, num_fragments, parts)
        return parts.copy()


class FragmentTable(Sequence):
    """One superstep's distributed frontier, one row per fragment.

    A sequence of the fragment frontiers that also holds the columns
    the plan, its validation, the pricing and the arbitrator read, all
    from one pass over the owner-sorted frontier: ``vertices`` (the
    parts end to end, part ``i`` being ``vertices[bounds[i]:bounds[i +
    1]]``), ``bounds``, and every part's ``work``, ``features`` and
    (:meth:`edge_costs`) ``g*``, as Python lists. The part objects,
    their ``work``/``features`` memos seeded, are made on first access
    (the engine reads only columns); copies share columns and parts,
    which must not be mutated.
    """

    __slots__ = ("graph", "vertices", "bounds", "work", "features",
                 "_degrees", "_shared")

    def __init__(self, graph: CSRGraph, vertices: np.ndarray,
                 bounds: List[int], parts=None) -> None:
        self.graph, self.vertices, self.bounds = graph, vertices, bounds
        self._degrees = graph.out_degrees(vertices)
        self.features = segment_features(
            self._degrees, graph.in_degrees()[vertices], bounds
        )
        self.work = [features.total_edges for features in self.features]
        self._shared = {"parts": parts}
        for part, features in zip(parts or (), self.features):
            part._cache["work"] = (graph, features.total_edges)
            part._cache["features"] = (graph, features)

    @staticmethod
    def of(graph: CSRGraph, parts: Sequence["Frontier"]) -> "FragmentTable":
        """``parts`` as a table on ``graph`` (itself when it is one)."""
        if isinstance(parts, FragmentTable) and parts.graph is graph:
            return parts
        vertices = np.concatenate(
            [part.vertices for part in parts] or [np.empty(0, np.int64)]
        )
        vertices.setflags(write=False)
        bounds = [0, *accumulate(part.size for part in parts)]
        return FragmentTable(graph, vertices, bounds, list(parts))

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, index):
        parts = self._shared["parts"]
        if parts is None:  # the fragment frontiers, made once
            graph, vertices, bounds = self.graph, self.vertices, self.bounds
            parts = self._shared["parts"] = [
                Frontier._wrap(vertices[start:stop], {
                    "work": (graph, features.total_edges),
                    "features": (graph, features),
                })
                for start, stop, features
                in zip(bounds, bounds[1:], self.features)
            ]
        return parts[index]

    def copy(self) -> "FragmentTable":
        """Another table object over the same columns and parts."""
        table = FragmentTable.__new__(FragmentTable)
        for name in FragmentTable.__slots__:
            setattr(table, name, getattr(self, name))
        return table

    def edge_costs(self, device) -> List[float]:
        """``device.edge_costs(features)``, the ``g*`` column, made on
        first use and shared by the pricing, the audit and copies."""
        memo = self._shared.get("g*")
        if memo is None or memo[0] is not device:
            memo = self._shared["g*"] = device, device.edge_costs(
                self.features)
        return memo[1]

    def edge_prefix(self) -> np.ndarray:
        """Inclusive running out-edge count over ``vertices``, the D of
        Algorithm 1's SortedSearch, made on first use."""
        prefix = self._shared.get("prefix")
        if prefix is None:
            prefix = self._shared["prefix"] = np.cumsum(self._degrees)
        return prefix
