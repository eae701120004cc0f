"""Edge-cut graph partitions.

The paper (Section II) uses edge-cut partitioning: every vertex — and
with it, its out-adjacency list — is owned by exactly one fragment.
"Inner" vertices are the owned ones; destinations of cross-fragment
edges are kept as "outer" (ghost) vertices for message aggregation.

:class:`Partition` is a validated owner map plus cached per-fragment
views. Ownership is *initial* placement: at runtime OSteal reassigns
whole fragments to other workers, which is tracked by the engines, not
by mutating this object.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph

__all__ = ["Partition"]


class Partition:
    """An n-way edge-cut partition of a graph's vertex set.

    Parameters
    ----------
    graph:
        The partitioned graph (kept by reference for edge accounting).
    owner:
        Integer array mapping every vertex to a fragment id in
        ``[0, num_fragments)``. It is stored in the narrowest unsigned
        dtype that holds ``num_fragments - 1`` (``uint8`` up to 256
        fragments): every per-edge owner lookup of a run then costs one
        byte per edge instead of eight.
    num_fragments:
        Number of fragments (workers). Fragments may be empty.
    name:
        Label of the producing partitioner, for reports.
    """

    def __init__(
        self,
        graph: CSRGraph,
        owner: np.ndarray,
        num_fragments: int,
        name: str = "partition",
    ) -> None:
        owner = np.asarray(owner)
        if owner.shape != (graph.num_vertices,):
            raise PartitionError(
                f"owner array has shape {owner.shape}, expected "
                f"({graph.num_vertices},)"
            )
        if num_fragments < 1:
            raise PartitionError("need at least one fragment")
        if owner.size and (owner.min() < 0 or owner.max() >= num_fragments):
            raise PartitionError("owner ids out of range")
        # the one place the owner dtype is decided
        owner = owner.astype(np.min_scalar_type(num_fragments - 1))
        owner.setflags(write=False)
        self._graph = graph
        self._owner = owner
        self._k = int(num_fragments)
        self._name = str(name)
        self._vertices_cache: List[np.ndarray] | None = None
        self._edges_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        """The partitioned graph."""
        return self._graph

    @property
    def owner(self) -> np.ndarray:
        """Read-only vertex → fragment owner array."""
        return self._owner

    @property
    def num_fragments(self) -> int:
        """Number of fragments ``n``."""
        return self._k

    @property
    def name(self) -> str:
        """Partitioner label."""
        return self._name

    def __repr__(self) -> str:
        return (
            f"Partition(name={self._name!r}, k={self._k}, "
            f"|V|={self._graph.num_vertices})"
        )

    # ------------------------------------------------------------------
    def vertices_of(self, fragment: int) -> np.ndarray:
        """Inner vertices of one fragment (sorted, cached)."""
        if self._vertices_cache is None:
            order = np.argsort(self._owner, kind="stable")
            boundaries = np.searchsorted(
                self._owner[order], np.arange(self._k + 1)
            )
            self._vertices_cache = [
                order[boundaries[i]: boundaries[i + 1]]
                for i in range(self._k)
            ]
        return self._vertices_cache[fragment]

    def fragment_sizes(self) -> np.ndarray:
        """Number of inner vertices per fragment."""
        return np.bincount(self._owner, minlength=self._k).astype(np.int64)

    def fragment_edges(self) -> np.ndarray:
        """Number of owned out-edges per fragment (cached)."""
        if self._edges_cache is None:
            degrees = self._graph.out_degrees()
            counts = np.zeros(self._k, dtype=np.int64)
            np.add.at(counts, self._owner, degrees)
            counts.setflags(write=False)
            self._edges_cache = counts
        return self._edges_cache

    def outer_vertices_of(self, fragment: int) -> np.ndarray:
        """Ghost vertices: cross-edge destinations not owned locally."""
        inner = self.vertices_of(fragment)
        if inner.size == 0:
            return inner
        indptr, indices = self._graph.indptr, self._graph.indices
        chunks = [
            indices[indptr[v]: indptr[v + 1]] for v in inner.tolist()
        ]
        if not chunks:
            return np.empty(0, dtype=np.int64)
        destinations = np.unique(np.concatenate(chunks))
        return destinations[self._owner[destinations] != fragment]

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the cover/disjoint invariants; raise on violation.

        Edge-cut invariants hold by construction (single owner array),
        so this only re-checks ranges — exposed for tests and for
        partitions deserialized from user input.
        """
        if self._owner.size and (
            self._owner.min() < 0 or self._owner.max() >= self._k
        ):
            raise PartitionError("owner ids out of range")
