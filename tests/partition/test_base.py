"""Unit tests for the Partition structure."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.partition import Partition
from repro.runtime import Frontier


def make_partition(graph, owners):
    return Partition(
        graph, np.asarray(owners, dtype=np.int64),
        int(max(owners)) + 1 if len(owners) else 1,
    )


def test_basic(tiny_graph):
    partition = make_partition(tiny_graph, [0, 0, 1, 1, 0, 1])
    assert partition.num_fragments == 2
    assert partition.vertices_of(0).tolist() == [0, 1, 4]
    assert partition.vertices_of(1).tolist() == [2, 3, 5]
    assert partition.fragment_sizes().tolist() == [3, 3]


def test_fragment_edges(tiny_graph):
    partition = make_partition(tiny_graph, [0, 0, 1, 1, 0, 1])
    # fragment 0 owns vertices 0,1,4 with out-degrees 2,1,1
    assert partition.fragment_edges().tolist() == [4, 3]
    assert int(partition.fragment_edges().sum()) == tiny_graph.num_edges


def test_outer_vertices(tiny_graph):
    partition = make_partition(tiny_graph, [0, 0, 1, 1, 0, 1])
    # fragment 0 edges: 0->1 (inner), 0->2 (outer), 1->3 (outer), 4->5 (outer)
    assert partition.outer_vertices_of(0).tolist() == [2, 3, 5]
    assert partition.outer_vertices_of(1).tolist() == [0, 4]


def test_frontier_splits_by_owner(tiny_graph):
    partition = make_partition(tiny_graph, [0, 0, 1, 1, 0, 1])
    parts = Frontier([0, 2, 3, 4]).split_by_owner(partition.owner, 2)
    assert parts[0].vertices.tolist() == [0, 4]
    assert parts[1].vertices.tolist() == [2, 3]


def test_empty_frontier_splits_into_empty_parts(tiny_graph):
    partition = make_partition(tiny_graph, [0, 0, 1, 1, 0, 1])
    parts = Frontier.empty().split_by_owner(partition.owner, 2)
    assert len(parts) == 2 and all(p.size == 0 for p in parts)


def test_empty_fragment_allowed(tiny_graph):
    partition = Partition(
        tiny_graph, np.zeros(6, dtype=np.int64), num_fragments=3
    )
    assert partition.vertices_of(2).size == 0
    assert partition.fragment_edges().tolist() == [7, 0, 0]


def test_validation_errors(tiny_graph):
    with pytest.raises(PartitionError, match="shape"):
        Partition(tiny_graph, np.zeros(3, dtype=np.int64), 1)
    with pytest.raises(PartitionError, match="range"):
        Partition(tiny_graph, np.full(6, 5, dtype=np.int64), 2)
    with pytest.raises(PartitionError, match="fragment"):
        Partition(tiny_graph, np.zeros(6, dtype=np.int64), 0)


def test_owner_readonly(tiny_graph):
    partition = make_partition(tiny_graph, [0, 1, 0, 1, 0, 1])
    with pytest.raises(ValueError):
        partition.owner[0] = 1


def test_validate_passes(tiny_graph):
    partition = make_partition(tiny_graph, [0, 1, 0, 1, 0, 1])
    partition.validate()  # must not raise


@pytest.mark.parametrize("fragments, dtype", [
    (1, np.uint8), (256, np.uint8), (257, np.uint16),
])
def test_owner_is_stored_in_the_narrowest_unsigned_dtype(
        tiny_graph, fragments, dtype):
    owner = np.full(tiny_graph.num_vertices, fragments - 1, dtype=np.int64)
    partition = Partition(tiny_graph, owner, fragments)
    assert partition.owner.dtype == dtype
    assert partition.owner.tolist() == owner.tolist()
    assert not partition.owner.flags.writeable
    assert partition.fragment_sizes()[-1] == tiny_graph.num_vertices
    assert partition.vertices_of(fragments - 1).size == \
        tiny_graph.num_vertices


def test_owner_range_is_checked_before_narrowing(tiny_graph):
    # 256 and -1 would both wrap into a byte
    for bad in (256, -1):
        owner = np.zeros(tiny_graph.num_vertices, dtype=np.int64)
        owner[0] = bad
        with pytest.raises(PartitionError, match="out of range"):
            Partition(tiny_graph, owner, 256)
