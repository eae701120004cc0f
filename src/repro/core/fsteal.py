"""Frontier stealing — Algorithm 1 of the paper (Section III-C).

Given the touched-edges matrix ``X`` from the MILP (``x_ij`` = edges
homed on fragment ``i`` that worker ``j`` must process), select *which
vertices* realize each ``x_ij``: compute the prefix sum of the
frontier's out-degrees and run a sorted search of the cumulative
targets, yielding consecutive vertex ranges per destination worker —
exactly lines 9-18 of Algorithm 1. Consecutive ranges avoid splitting
adjacency lists (no extra atomics) and make the stolen-status copy a
single contiguous transfer.

The module also builds the cost-coefficient matrix
``c_ij = 1/B_ij + g(W_i)`` (Section III-B) from measured bandwidth and
a learned cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.costmodel import CostModel
from repro.errors import SolverError
from repro.graph.csr import CSRGraph
from repro.graph.features import FrontierFeatures
from repro.runtime.frontier import Frontier

__all__ = ["VertexAssignment", "build_cost_matrix", "select_vertices"]


@dataclass(frozen=True)
class VertexAssignment:
    """Realized slice of one fragment's frontier for one worker."""

    owner: int
    worker: int
    vertices: np.ndarray
    edges: int


def build_cost_matrix(
    comm_cost: np.ndarray,
    fragment_features: Sequence[FrontierFeatures],
    cost_model: CostModel,
    fragment_home: np.ndarray,
    allowed_workers: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """The paper's cost coefficients ``c_ij = 1/B_ij + g(W_i)``.

    Parameters
    ----------
    comm_cost:
        ``(num_gpus, num_gpus)`` measured seconds-per-edge matrix
        (from :func:`repro.hardware.microbench.measure_comm_cost_matrix`).
    fragment_features:
        Table-I features of each fragment's current frontier; the
        estimated ``g(W_i)`` is shared by every worker processing that
        fragment's edges.
    cost_model:
        The learned (or oracle) ``g``.
    fragment_home:
        Fragment -> GPU physically holding its data.
    allowed_workers:
        Workers eligible to receive work; others get ``inf`` columns
        (how OSteal's evictions are enforced — Section V, Step 3).
        The two-level multi-node policy is applied on top by
        :meth:`~repro.core.reduction_tree.ReductionTree.restrict`.
    """
    num_fragments = len(fragment_features)
    num_workers = comm_cost.shape[1]
    costs = np.full((num_fragments, num_workers), np.inf)
    allowed = (
        np.asarray(sorted(allowed_workers), dtype=np.int64)
        if allowed_workers is not None
        else np.arange(num_workers, dtype=np.int64)
    )
    if allowed.size == 0:
        raise SolverError("no allowed workers")
    for i, features in enumerate(fragment_features):
        if features.total_edges == 0:
            costs[i, allowed] = comm_cost[int(fragment_home[i]), allowed]
            continue
        g_i = cost_model.edge_cost_seconds(features)
        home = int(fragment_home[i])
        costs[i, allowed] = comm_cost[home, allowed] + g_i
    return costs


def select_vertices(
    graph: CSRGraph,
    fragment: int,
    frontier: Frontier,
    x_row: np.ndarray,
) -> List[VertexAssignment]:
    """Algorithm 1, lines 9-18: split one frontier by edge quotas.

    ``x_row[j]`` is the target number of edges worker ``j`` should
    process from this fragment. Vertices are assigned as consecutive
    runs (in vertex-id order) whose out-degree prefix sums best match
    the cumulative quotas; actual per-worker edge counts may deviate by
    at most one adjacency list, and the union is exactly the frontier.
    """
    x_row = np.asarray(x_row, dtype=np.int64)
    total = int(x_row.sum())
    vertices = frontier.vertices
    if vertices.size == 0:
        if total != 0:
            raise SolverError("quota assigned to an empty frontier")
        return []
    degrees = graph.out_degrees(vertices)
    if int(degrees.sum()) != total:
        raise SolverError(
            f"quotas ({total}) do not match frontier edges "
            f"({int(degrees.sum())})"
        )
    # D = PrefixSum(out-degrees); F = PrefixSum(X_i); SortedSearch(F, D)
    degree_prefix = np.cumsum(degrees)
    quota_prefix = np.cumsum(x_row)
    boundaries = np.searchsorted(degree_prefix, quota_prefix, side="left")
    boundaries = np.minimum(boundaries + 1, vertices.size)
    # worker j receives vertices[start_j : boundaries[j]]
    last_quota = int(np.max(np.nonzero(x_row)[0], initial=-1))
    assignments: List[VertexAssignment] = []
    start = 0
    for j in range(x_row.size):
        stop = int(boundaries[j]) if x_row[j] > 0 else start
        if j == last_quota:
            stop = vertices.size  # last quota absorbs rounding remainder
        if stop > start:
            chunk = vertices[start:stop]
            assignments.append(
                VertexAssignment(
                    owner=fragment,
                    worker=j,
                    vertices=chunk,
                    edges=int(degrees[start:stop].sum()),
                )
            )
            start = stop
    return assignments

