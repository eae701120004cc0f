"""The CSR builders against a lexsort reference written here.

Each builder sorts a fused ``src * num_vertices + dst`` key; the
reference sorts ``(src, dst)`` with ``np.lexsort`` (stable) and folds
parallel weights in Python. Generated edge sets include empty arrays,
isolated vertices (``num_vertices`` past ``max id + 1``), self-loops
and duplicate edges carrying distinct weights, so a builder that
reorders parallel edges changes a weight or a floating-point sum.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import (
    coalesce_duplicates,
    from_edge_arrays,
    remove_self_loops,
    symmetrize,
)

#: left folds, in input order (``np.add.at`` starts from 0.0)
FOLD = {"min": min, "max": max, "sum": lambda values: sum(values, 0.0)}


@st.composite
def edge_sets(draw, max_ids=8, max_edges=40):
    """``(num_vertices, src, dst, weights)``; ``weights`` may be None."""
    ids = draw(st.integers(min_value=1, max_value=max_ids))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    endpoints = st.lists(st.integers(0, ids - 1), min_size=m, max_size=m)
    src = np.asarray(draw(endpoints), dtype=np.int64)
    dst = np.asarray(draw(endpoints), dtype=np.int64)
    weights = None
    if draw(st.booleans()):
        weights = np.asarray(draw(st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
            min_size=m, max_size=m,
        )), dtype=np.float64)
    num_vertices = ids + draw(st.integers(min_value=0, max_value=3))
    return num_vertices, src, dst, weights


def _reference_csr(num_vertices, src, dst, weights, sort=True):
    """``(indptr, indices, weights)`` of a stable ``(src, dst)`` sort."""
    order = np.lexsort((dst, src)) if sort else np.arange(src.size)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_vertices), out=indptr[1:])
    return indptr, dst[order], None if weights is None else weights[order]


def _reference_coalesced(num_vertices, src, dst, weights, reduce):
    """Distinct ``(src, dst)`` edges; weights folded in input order."""
    groups = {}
    for k in np.lexsort((dst, src)):
        groups.setdefault((int(src[k]), int(dst[k])), []).append(k)
    pairs = list(groups)
    new_src = np.asarray([u for u, _ in pairs], dtype=np.int64)
    new_dst = np.asarray([v for _, v in pairs], dtype=np.int64)
    new_weights = None
    if weights is not None:
        new_weights = np.asarray(
            [FOLD[reduce]([weights[k] for k in ks])
             for ks in groups.values()],
            dtype=np.float64,
        )
    return _reference_csr(num_vertices, new_src, new_dst, new_weights)


def _assert_csr(graph, expected, directed):
    indptr, indices, weights = expected
    assert graph.directed is directed
    assert graph.indptr.tolist() == indptr.tolist()
    assert graph.indices.tolist() == indices.tolist()
    if weights is None:
        assert graph.weights is None
    else:
        assert graph.weights.tolist() == weights.tolist()


@settings(max_examples=100, deadline=None)
@given(edge_sets(), st.booleans())
def test_from_edge_arrays_matches_lexsort(edges, infer):
    num_vertices, src, dst, weights = edges
    if infer:
        num_vertices = int(max(src.max(), dst.max())) + 1 if src.size else 0
    graph = from_edge_arrays(
        src, dst, num_vertices=None if infer else num_vertices,
        weights=weights,
    )
    assert graph.num_vertices == num_vertices
    _assert_csr(
        graph, _reference_csr(num_vertices, src, dst, weights), True
    )


@settings(max_examples=100, deadline=None)
@given(edge_sets(), st.sampled_from(sorted(FOLD)))
def test_coalesce_duplicates_matches_lexsort(edges, reduce):
    num_vertices, src, dst, weights = edges
    graph = from_edge_arrays(
        src, dst, num_vertices=num_vertices, weights=weights
    )
    _assert_csr(
        coalesce_duplicates(graph, reduce=reduce),
        _reference_coalesced(num_vertices, src, dst, weights, reduce),
        True,
    )


@settings(max_examples=100, deadline=None)
@given(edge_sets())
def test_remove_self_loops_filters_in_csr_order(edges):
    num_vertices, src, dst, weights = edges
    # ascending sources, destinations left unsorted within a row
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    weights = None if weights is None else weights[order]
    graph = from_edge_arrays(
        src, dst, num_vertices=num_vertices, weights=weights, sort=False
    )
    keep = src != dst
    kept = None if weights is None else weights[keep]
    _assert_csr(
        remove_self_loops(graph),
        _reference_csr(num_vertices, src[keep], dst[keep], kept, sort=False),
        True,
    )


@settings(max_examples=100, deadline=None)
@given(edge_sets(), st.sampled_from(sorted(FOLD)))
def test_symmetrize_matches_lexsort(edges, reduce):
    num_vertices, src, dst, weights = edges
    graph = from_edge_arrays(
        src, dst, num_vertices=num_vertices, weights=weights
    )
    # the union is both directions of the graph's CSR order, in turn
    __, csr_dst, csr_weights = _reference_csr(num_vertices, src, dst, weights)
    csr_src = np.sort(src)
    union_weights = None
    if weights is not None:
        union_weights = np.concatenate([csr_weights, csr_weights])
    expected = _reference_coalesced(
        num_vertices,
        np.concatenate([csr_src, csr_dst]),
        np.concatenate([csr_dst, csr_src]),
        union_weights,
        reduce,
    )
    _assert_csr(symmetrize(graph, reduce=reduce), expected, False)
