"""Unit tests for the Frontier set type."""

import numpy as np
import pytest

from repro.runtime import Frontier


def test_construction_dedups_and_sorts():
    frontier = Frontier([5, 1, 3, 1, 5])
    assert frontier.vertices.tolist() == [1, 3, 5]
    assert frontier.size == 3
    assert len(frontier) == 3
    assert bool(frontier)


def test_empty():
    frontier = Frontier.empty()
    assert not frontier
    assert frontier.size == 0


def test_full():
    frontier = Frontier.full(4)
    assert frontier.vertices.tolist() == [0, 1, 2, 3]


def test_from_mask():
    mask = np.array([True, False, True, False])
    assert Frontier.from_mask(mask).vertices.tolist() == [0, 2]


def test_from_sorted_trusts_input():
    frontier = Frontier.from_sorted(np.array([2, 4, 9], dtype=np.int64))
    assert frontier.vertices.tolist() == [2, 4, 9]


def test_equality():
    assert Frontier([1, 2]) == Frontier([2, 1])
    assert Frontier([1]) != Frontier([2])
    with pytest.raises(TypeError):
        hash(Frontier([1]))


def test_set_algebra():
    a = Frontier([1, 2, 3])
    b = Frontier([3, 4])
    assert a.union(b) == Frontier([1, 2, 3, 4])
    assert a.intersection(b) == Frontier([3])
    assert a.difference(b) == Frontier([1, 2])
    assert a.union(Frontier.empty()) == a
    assert Frontier.empty().union(b) == b


def test_contains():
    frontier = Frontier([2, 4, 8])
    assert frontier.contains(4)
    assert not frontier.contains(5)
    assert not frontier.contains(100)


def test_work(tiny_graph):
    frontier = Frontier([0, 3])
    assert frontier.work(tiny_graph) == 3  # out-degrees 2 + 1
    assert Frontier.empty().work(tiny_graph) == 0


def test_split_by_owner():
    owner = np.array([0, 1, 0, 1, 2], dtype=np.int64)
    frontier = Frontier([0, 1, 3, 4])
    parts = frontier.split_by_owner(owner, 3)
    assert parts[0].vertices.tolist() == [0]
    assert parts[1].vertices.tolist() == [1, 3]
    assert parts[2].vertices.tolist() == [4]
    # disjoint union recovers the original
    merged = parts[0].union(parts[1]).union(parts[2])
    assert merged == frontier


def test_split_empty():
    owner = np.zeros(5, dtype=np.int64)
    parts = Frontier.empty().split_by_owner(owner, 2)
    assert len(parts) == 2
    assert all(not p for p in parts)


def test_vertices_readonly():
    frontier = Frontier([1, 2])
    with pytest.raises(ValueError):
        frontier.vertices[0] = 9


def test_repr_truncates():
    text = repr(Frontier(range(100)))
    assert "size=100" in text
    assert "..." in text


def test_split_by_owner_with_graph_seeds_work_and_features(skewed_graph):
    from repro.graph.features import frontier_features

    rng = np.random.default_rng(3)
    owner = rng.integers(0, 4, size=skewed_graph.num_vertices)
    owner[owner == 2] = 3  # fragment 2 owns nothing
    frontier = Frontier(rng.integers(0, skewed_graph.num_vertices, size=80))
    seeded = frontier.split_by_owner(owner, 4, skewed_graph)
    plain = frontier.split_by_owner(owner, 4)
    assert [p.vertices.tolist() for p in seeded] == \
        [p.vertices.tolist() for p in plain]
    for part in seeded:
        # the memo is already there: no per-part scan happens later
        assert part._cache["features"][0] is skewed_graph
        assert part.features(skewed_graph) == frontier_features(
            skewed_graph, part.vertices
        )
        assert part.work(skewed_graph) == int(
            skewed_graph.out_degrees(part.vertices).sum()
        )
    assert not seeded[2] and seeded[2].work(skewed_graph) == 0


def test_split_by_owner_memoizes_parts_per_graph_and_owner(skewed_graph):
    rng = np.random.default_rng(4)
    owner = rng.integers(0, 4, size=skewed_graph.num_vertices)
    frontier = Frontier.full(skewed_graph.num_vertices)
    first = frontier.split_by_owner(owner, 4, skewed_graph)
    again = frontier.split_by_owner(owner, 4, skewed_graph)
    # the same part objects, so their seeded memos are reused
    assert all(a is b for a, b in zip(first, again))
    assert again is not first  # callers get their own list
    # another owner array (even an equal one), another graph or another
    # fragment count is another split
    for other in (
        frontier.split_by_owner(owner.copy(), 4, skewed_graph),
        frontier.split_by_owner(owner, 4),
        frontier.split_by_owner(owner, 5, skewed_graph),
    ):
        assert not any(a is b for a, b in zip(first, other))
    assert [p.vertices.tolist() for p in first] == [
        p.vertices.tolist()
        for p in frontier.split_by_owner(owner.copy(), 4, skewed_graph)
    ]
