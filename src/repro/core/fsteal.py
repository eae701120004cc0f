"""Frontier stealing — the cost coefficients of Algorithm 1.

Builds the cost-coefficient matrix ``c_ij = 1/B_ij + g(W_i)``
(Section III-B) from measured bandwidth and a learned cost model; the
MILP over it decides the touched-edges matrix ``X``. Realizing ``X``
as consecutive vertex ranges (lines 9-18 of Algorithm 1) belongs to
the engine's one realizer,
:func:`repro.runtime.scheduler.realize_plan`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.core.costmodel import CostModel
from repro.errors import SolverError
from repro.graph.features import FrontierFeatures

__all__ = ["build_cost_matrix"]


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
    num_workers = comm_cost.shape[1]
    allowed = (
        sorted(allowed_workers) if allowed_workers is not None
        else range(num_workers)
    )
    if not allowed:
        raise SolverError("no allowed workers")
    comm = comm_cost.tolist()  # few cells: floats beat fancy indexing
    rows = []
    for features, home in zip(fragment_features, fragment_home.tolist()):
        home_row = comm[home]
        row = [math.inf] * num_workers
        if features.total_edges == 0:
            for j in allowed:
                row[j] = home_row[j]
        else:
            g_i = cost_model.edge_cost_seconds(features)
            for j in allowed:
                row[j] = home_row[j] + g_i
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(len(rows), num_workers)
