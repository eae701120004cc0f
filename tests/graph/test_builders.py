"""Unit tests for graph builders and file I/O."""

import gzip

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    coalesce_duplicates,
    from_edge_arrays,
    from_edges,
    load_edge_list,
    load_matrix_market,
    remove_self_loops,
    save_edge_list,
    symmetrize,
)


def test_from_edges_weighted():
    graph = from_edges([(0, 1, 2.5), (1, 0, 1.5)])
    assert graph.is_weighted
    assert graph.weights.tolist() == [2.5, 1.5]


def test_from_edges_mixed_weights_rejected():
    with pytest.raises(GraphError, match="mix"):
        from_edges([(0, 1), (1, 0, 2.0)])


def test_from_edges_bad_arity():
    with pytest.raises(GraphError, match="2 or 3"):
        from_edges([(0, 1, 2.0, 3.0)])


def test_from_edge_arrays_sorting():
    graph = from_edge_arrays(
        np.array([2, 0, 1]), np.array([0, 1, 2])
    )
    src, dst = graph.edge_array()
    assert src.tolist() == [0, 1, 2]
    assert dst.tolist() == [1, 2, 0]


def test_from_edge_arrays_explicit_vertices():
    graph = from_edge_arrays(np.array([0]), np.array([1]), num_vertices=10)
    assert graph.num_vertices == 10
    with pytest.raises(GraphError, match="out of range"):
        from_edge_arrays(np.array([0]), np.array([5]), num_vertices=3)


def test_unsorted_build_rejects_descending_sources():
    # bincount lays rows out by ascending id, so grouped-but-descending
    # sources would hand vertex 0 vertex 1's first neighbour
    with pytest.raises(GraphError, match="ascending"):
        from_edge_arrays([1, 1, 0], [2, 3, 1], num_vertices=4, sort=False)


def test_unsorted_build_keeps_each_row_in_input_order():
    graph = from_edge_arrays(
        [0, 0, 0, 2], [3, 1, 3, 0], num_vertices=4, weights=[1, 2, 3, 4],
        sort=False,
    )
    assert graph.indptr.tolist() == [0, 3, 3, 4, 4]
    assert graph.neighbors(0).tolist() == [3, 1, 3]
    assert graph.weights.tolist() == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("num_vertices, dst", [(2**32, 1), (None, 2**32)])
def test_vertex_count_whose_fused_key_overflows_is_rejected(
    num_vertices, dst
):
    with pytest.raises(GraphError, match="overflow int64"):
        from_edge_arrays([0], [dst], num_vertices=num_vertices)


def test_negative_ids_rejected():
    with pytest.raises(GraphError, match="non-negative"):
        from_edge_arrays(np.array([-1]), np.array([0]))


def test_remove_self_loops():
    graph = from_edges([(0, 0), (0, 1), (1, 1), (1, 0)])
    clean = remove_self_loops(graph)
    assert clean.num_edges == 2
    src, dst = clean.edge_array()
    assert np.all(src != dst)


def test_coalesce_unweighted():
    graph = from_edges([(0, 1), (0, 1), (1, 0)])
    merged = coalesce_duplicates(graph)
    assert merged.num_edges == 2


@pytest.mark.parametrize(
    "mode, expected", [("min", 1.0), ("max", 3.0), ("sum", 4.0)]
)
def test_coalesce_weight_modes(mode, expected):
    graph = from_edges([(0, 1, 1.0), (0, 1, 3.0)])
    merged = coalesce_duplicates(graph, reduce=mode)
    assert merged.num_edges == 1
    assert merged.weights[0] == expected


def test_coalesce_bad_mode():
    graph = from_edges([(0, 1)])
    with pytest.raises(GraphError, match="reduce"):
        coalesce_duplicates(graph, reduce="avg")


def test_symmetrize():
    graph = from_edges([(0, 1), (1, 2)])
    sym = symmetrize(graph)
    assert not sym.directed
    assert sym.num_edges == 4
    assert sorted(sym.neighbors(1).tolist()) == [0, 2]


def test_symmetrize_weights_min():
    graph = from_edges([(0, 1, 5.0), (1, 0, 2.0)])
    sym = symmetrize(graph, reduce="min")
    assert sym.num_edges == 2
    assert sym.weights.tolist() == [2.0, 2.0]


def test_symmetrize_idempotent_edge_count(skewed_graph):
    once = symmetrize(skewed_graph)
    twice = symmetrize(once)
    assert once.num_edges == twice.num_edges


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------
def test_edge_list_roundtrip(tmp_path, tiny_graph):
    path = tmp_path / "g.txt"
    save_edge_list(tiny_graph, path)
    loaded = load_edge_list(path)
    assert loaded.num_vertices == tiny_graph.num_vertices
    assert loaded.num_edges == tiny_graph.num_edges
    assert np.array_equal(loaded.indices, tiny_graph.indices)


def test_edge_list_weighted_roundtrip(tmp_path):
    graph = from_edges([(0, 1, 2.5), (1, 2, 0.5)])
    path = tmp_path / "w.txt"
    save_edge_list(graph, path)
    loaded = load_edge_list(path)
    assert loaded.is_weighted
    assert loaded.weights.tolist() == [2.5, 0.5]


def test_edge_list_gzip(tmp_path):
    path = tmp_path / "g.txt.gz"
    with gzip.open(path, "wt") as handle:
        handle.write("# comment\n0 1\n1 2\n")
    loaded = load_edge_list(path)
    assert loaded.num_edges == 2


def test_edge_list_comments_and_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("% skipped\n0 1\n0 1 2 3\n")
    with pytest.raises(GraphError, match="fields"):
        load_edge_list(path)
    path.write_text("0 1\n1 2 5.0\n")
    with pytest.raises(GraphError, match="mixed"):
        load_edge_list(path)


def test_matrix_market_pattern(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "% comment\n"
        "3 3 2\n"
        "1 2\n"
        "3 1\n"
    )
    graph = load_matrix_market(path)
    assert graph.num_vertices == 3
    assert graph.num_edges == 2
    assert graph.neighbors(0).tolist() == [1]  # 1-based -> 0-based


def test_matrix_market_symmetric_real(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 1\n"
        "1 2 4.5\n"
    )
    graph = load_matrix_market(path)
    assert graph.num_edges == 2  # both directions
    assert not graph.directed
    assert graph.weights.tolist() == [4.5, 4.5]


def test_matrix_market_rejects_bad_header(tmp_path):
    path = tmp_path / "x.mtx"
    path.write_text("not a matrix\n1 1 0\n")
    with pytest.raises(GraphError, match="header"):
        load_matrix_market(path)


def test_matrix_market_rejects_dense(tmp_path):
    path = tmp_path / "d.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n")
    with pytest.raises(GraphError, match="coordinate"):
        load_matrix_market(path)
