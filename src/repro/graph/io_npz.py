"""Fast binary persistence for graphs and partitions (NumPy ``.npz``).

Text edge lists are interchangeable but slow; these round-trips store
the validated CSR arrays directly, making dataset caching across
processes cheap. Format: one compressed ``.npz`` per object with a
``format_version`` guard.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import GraphError, PartitionError
from repro.graph.csr import CSRGraph
from repro.partition.base import Partition

__all__ = [
    "save_graph",
    "load_graph",
    "save_partition",
    "load_partition",
]

_GRAPH_VERSION = 1
_PARTITION_VERSION = 1


def save_graph(graph: CSRGraph, path: Union[str, Path]) -> None:
    """Write a graph as a compressed ``.npz`` archive."""
    arrays = {
        "format_version": np.array([_GRAPH_VERSION]),
        "indptr": graph.indptr,
        "indices": graph.indices,
        "directed": np.array([1 if graph.directed else 0]),
        "name": np.array([graph.name]),
    }
    if graph.weights is not None:
        arrays["weights"] = graph.weights
    np.savez_compressed(path, **arrays)


def load_graph(path: Union[str, Path]) -> CSRGraph:
    """Read a graph written by :func:`save_graph`."""
    with np.load(path, allow_pickle=False) as data:
        if "format_version" not in data:
            raise GraphError(f"{path}: not a repro graph archive")
        version = int(data["format_version"][0])
        if version != _GRAPH_VERSION:
            raise GraphError(
                f"{path}: unsupported graph format version {version}"
            )
        return CSRGraph(
            data["indptr"],
            data["indices"],
            weights=data["weights"] if "weights" in data else None,
            directed=bool(int(data["directed"][0])),
            name=str(data["name"][0]),
        )


def save_partition(partition: Partition, path: Union[str, Path]) -> None:
    """Write a partition's owner map as a compressed ``.npz`` archive.

    The graph itself is not embedded; loading requires the same graph
    (checked by vertex count).
    """
    np.savez_compressed(
        path,
        format_version=np.array([_PARTITION_VERSION]),
        owner=partition.owner,
        num_fragments=np.array([partition.num_fragments]),
        name=np.array([partition.name]),
    )


def load_partition(path: Union[str, Path], graph: CSRGraph) -> Partition:
    """Read a partition written by :func:`save_partition` for ``graph``."""
    with np.load(path, allow_pickle=False) as data:
        if "format_version" not in data:
            raise PartitionError(f"{path}: not a repro partition archive")
        version = int(data["format_version"][0])
        if version != _PARTITION_VERSION:
            raise PartitionError(
                f"{path}: unsupported partition format version {version}"
            )
        owner = data["owner"]
        if owner.shape != (graph.num_vertices,):
            raise PartitionError(
                f"{path}: partition covers {owner.shape[0]} vertices but "
                f"the graph has {graph.num_vertices}"
            )
        return Partition(
            graph,
            owner,
            int(data["num_fragments"][0]),
            name=str(data["name"][0]),
        )
