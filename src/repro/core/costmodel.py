"""Learned per-edge compute-cost models (Section III-B, Table V).

The FSteal cost coefficient is ``c_ij = 1/B_ij + g(W_i)``; this module
is the run-time side of ``g`` — everything the arbitrator, the replay
simulator and the CLI need to *have* a model, none of what fits one
from a corpus (that is :mod:`repro.core.costmodel_fit`, offline).

Four model families match the paper's Exp-7:

* :class:`LinearSGDModel` — linear regression (degree-1 polynomial),
* :class:`PolynomialSGDModel` — the paper's choice: degree-4 polynomial
  trained with SGD under the RMSRE loss (Equation 3),
* :class:`DecisionTreeModel` — CART regression tree (our own),
* :class:`KernelRidgeModel` — RBF kernel ridge regression, the stand-in
  for the paper's RBF-kernel SVR (same hypothesis class family;
  sklearn is unavailable offline).

All models share :class:`CostModel`'s contract: ``fit`` on seconds,
``predict`` seconds, report training wall-time and train RMSRE. Targets
are converted to nanoseconds internally for numerical conditioning.

A fitted model persists as a versioned, digest-checked
``repro-costmodel/1`` JSON artifact (:func:`save_artifact` /
:func:`load_artifact`). There is one way to obtain a model from a
``cost_model=`` / ``--cost-model`` operand, :func:`resolve_cost_model`,
and one name for it in ledgers and fingerprints, :func:`model_label`;
the shipped default (:func:`pretrained_default`) is itself a packaged
artifact, loaded, never retrained.
"""

from __future__ import annotations

import abc
import functools
import itertools
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.documents import load_document
from repro.errors import CostModelError, EngineError
from repro.graph.features import FrontierFeatures
from repro.hardware.device import DeviceModel
from repro.obs.ledger import OnlineRMSRE

__all__ = [
    "rmsre",
    "OnlineRMSRE",
    "FitReport",
    "CostModel",
    "LinearSGDModel",
    "PolynomialSGDModel",
    "DecisionTreeModel",
    "KernelRidgeModel",
    "UniformCostModel",
    "OracleCostModel",
    "MODEL_FAMILIES",
    "COSTMODEL_SCHEMA",
    "model_to_params",
    "model_from_params",
    "save_artifact",
    "load_artifact",
    "artifact_label",
    "DEFAULT_ARTIFACT",
    "pretrained_default",
    "resolve_cost_model",
    "model_label",
]

COSTMODEL_SCHEMA = "repro-costmodel/1"

_NS = 1e9  # targets are scaled to nanoseconds for conditioning


def rmsre(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Root mean squared *relative* error (paper Equation 3's loss)."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if actual.size == 0:
        raise CostModelError("rmsre of an empty sample")
    if np.any(actual == 0):
        raise CostModelError("rmsre undefined for zero actuals")
    return float(np.sqrt(np.mean(((predicted - actual) / actual) ** 2)))


@dataclass(frozen=True)
class FitReport:
    """What Table V reports per model: loss and training time."""

    model: str
    train_seconds: float
    train_rmsre: float


class _Standardizer:
    """Column-wise (mean, std) normalization fitted on training data."""

    def __init__(self) -> None:
        self.mean: Optional[np.ndarray] = None
        self.std: Optional[np.ndarray] = None

    def fit(self, matrix: np.ndarray) -> None:
        """Train on feature rows and per-edge costs (seconds)."""
        self.mean = matrix.mean(axis=0)
        self.std = matrix.std(axis=0)
        self.std[self.std == 0] = 1.0

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        """Apply the fitted normalization."""
        if self.mean is None:
            raise CostModelError("standardizer used before fit")
        return (matrix - self.mean) / self.std


#: (num_features, degree) -> per-degree (first column, parent columns,
#: features) recurrences.
_EXPAND_PLANS: Dict[Tuple[int, int], Tuple[tuple, ...]] = {}


def _expand_plan(d: int, degree: int) -> Tuple[tuple, ...]:
    """Column recurrences of the polynomial basis, one entry per degree.

    Every monomial of degree ``k`` extends a degree ``k-1`` prefix by
    its last feature, so column ``j`` is ``column[parent] * feature``
    — the same left-to-right multiplication chain the naive
    ``combinations_with_replacement`` loop performs, term for term.
    Columns are emitted degree by degree, so a whole degree's parents
    already exist when it is computed.
    """
    plan = _EXPAND_PLANS.get((d, degree))
    if plan is None:
        index: Dict[Tuple[int, ...], int] = {(): 0}
        levels = []
        for deg in range(1, degree + 1):
            first = len(index)
            parents, features = [], []
            for combo in itertools.combinations_with_replacement(
                range(d), deg
            ):
                index[combo] = len(index)
                parents.append(index[combo[:-1]])
                features.append(combo[-1])
            levels.append((
                first,
                np.array(parents, dtype=np.int64),
                np.array(features, dtype=np.int64),
            ))
        plan = _EXPAND_PLANS[(d, degree)] = tuple(levels)
    return plan


#: Rows :meth:`PolynomialSGDModel.edge_costs_seconds` designs at once:
#: a degree-4 block is under 1 MiB whatever the batch.
_PREDICT_BLOCK_ROWS = 512

#: Rows expanded together: a block's gathered parent columns stay
#: cache-resident (level-wise beats column-at-a-time below ~190 rows).
_EXPAND_BLOCK_ROWS = 128


def _polynomial_expand(matrix: np.ndarray, degree: int) -> np.ndarray:
    """Full polynomial basis (with cross terms) up to ``degree``.

    Each column multiplies its degree ``k-1`` parent column by one
    feature — the identical IEEE-754 operation sequence (``1*a``,
    ``(1*a)*b``, ...) the combination-by-combination rebuild performs,
    so results are bit-identical while each product is computed once.
    A degree's columns are one gathered multiply per block of rows
    (``degree`` NumPy calls for a decision's handful of fragments),
    which is what makes one batch cheaper than row-at-a-time expansion.
    """
    plan = _expand_plan(matrix.shape[1], degree)
    first, parents, __ = plan[-1]
    out = np.empty((matrix.shape[0], first + parents.size))
    out[:, 0] = 1.0
    for lo in range(0, matrix.shape[0], _EXPAND_BLOCK_ROWS):
        block = out[lo: lo + _EXPAND_BLOCK_ROWS]
        rows = matrix[lo: lo + _EXPAND_BLOCK_ROWS]
        for first, parents, features in plan:
            np.multiply(
                block.take(parents, axis=1), rows.take(features, axis=1),
                out=block[:, first: first + parents.size],
            )
    return out


def _squash(rows: np.ndarray) -> np.ndarray:
    """``sign(x) * log1p(|x|)`` of every entry of feature rows.

    Log-compresses the heavy-tailed degree features: degree ranges span
    four orders of magnitude, and raising raw z-scores to the 4th power
    would blow SGD up, so features are squashed before standardization
    (and clipped after). Evaluated entry by entry with libm's
    :func:`math.log1p`, so every host and SIMD level gets the same bits.
    """
    logs = np.fromiter(map(math.log1p, np.abs(rows).ravel().tolist()),
                       np.float64, rows.size).reshape(rows.shape)
    return np.where(rows < 0, -logs, logs)


# ----------------------------------------------------------------------
class CostModel(abc.ABC):
    """Estimator of per-edge compute cost from frontier features."""

    name: str = "abstract"
    #: set by :func:`load_artifact`; what :func:`model_label` prefers
    artifact_label: Optional[str] = None

    @abc.abstractmethod
    def fit(self, features: np.ndarray, costs: np.ndarray) -> FitReport:
        """Train on feature rows and per-edge costs (seconds)."""

    @abc.abstractmethod
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict per-edge costs (seconds) for feature rows."""

    def edge_cost_seconds(self, features: FrontierFeatures) -> float:
        """Predict for one frontier (convenience for the scheduler)."""
        return float(self.predict(features.vector()[None, :])[0])

    def edge_costs_seconds(
        self, frontiers: Sequence[FrontierFeatures]
    ) -> List[float]:
        """:meth:`edge_cost_seconds` of every frontier of one decision.

        The contract is bit-identity with the one-at-a-time calls — a
        batch may only be cheaper, never different, because FSteal's
        coefficients and the ledger's audit are built from these
        numbers. Families whose batched arithmetic provably keeps that
        (see :class:`PolynomialSGDModel`) override this loop.
        """
        return [self.edge_cost_seconds(f) for f in frontiers]

    def _check_training_set(
        self, features: np.ndarray, costs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        features = np.asarray(features, dtype=np.float64)
        costs = np.asarray(costs, dtype=np.float64)
        if features.ndim != 2 or costs.ndim != 1:
            raise CostModelError("expected 2-D features and 1-D costs")
        if features.shape[0] != costs.size or costs.size == 0:
            raise CostModelError("empty or mismatched training set")
        if np.any(costs <= 0):
            raise CostModelError("costs must be positive")
        return features, costs


class PolynomialSGDModel(CostModel):
    """Degree-``d`` polynomial trained by mini-batch SGD on RMSRE.

    The paper's model: polynomial regression (degree 4 in Exp-7),
    SGD optimizer, relative-error loss. Momentum and a 1/t learning
    rate decay keep it stable on standardized features.
    """

    name = "polynomial"

    def __init__(
        self,
        degree: int = 4,
        epochs: int = 120,
        batch_size: int = 64,
        learning_rate: float = 0.02,
        momentum: float = 0.5,
        seed: int = 0,
    ) -> None:
        if degree < 1:
            raise CostModelError("polynomial degree must be >= 1")
        self._degree = int(degree)
        self._epochs = int(epochs)
        self._batch = int(batch_size)
        self._lr = float(learning_rate)
        self._momentum = float(momentum)
        self._seed = int(seed)
        self._scaler = _Standardizer()
        self._design_scaler = _Standardizer()
        self._weights: Optional[np.ndarray] = None
        #: (weights, folded weights): see _folded_weights
        self._folded: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if degree == 1:
            self.name = "linear"

    def _basis(self, rows: np.ndarray, fitting: bool = False) -> np.ndarray:
        """The polynomial basis of feature rows, before the design
        standardizer: squashed, standardized, clipped, expanded."""
        squashed = _squash(rows)
        if fitting:
            self._scaler.fit(squashed)
        scaled = np.clip(self._scaler.transform(squashed), -4.0, 4.0)
        return _polynomial_expand(scaled, self._degree)

    def _design(self, features: np.ndarray) -> np.ndarray:
        """The standardized design matrix SGD fits, fitting both
        standardizers."""
        design = self._basis(features, fitting=True)
        self._design_scaler.fit(design)
        self._design_scaler.std[0] = 1.0  # keep the bias column
        self._design_scaler.mean[0] = 0.0
        return self._design_scaler.transform(design)

    def _folded_weights(self) -> np.ndarray:
        """The weights with the design standardizer folded in, made
        once per model: ``w / sigma``, and the constant column (whose
        basis entry is exactly 1) also carries the bias
        ``-mu . w / sigma``, summed exactly (:func:`math.fsum`)."""
        weights = self._weights
        if weights is None:
            raise CostModelError("model used before fit")
        if self._folded is None or self._folded[0] is not weights:
            folded = weights / self._design_scaler.std
            folded[0] -= math.fsum(
                (self._design_scaler.mean * folded).tolist()
            )
            self._folded = (weights, folded)
        return self._folded[1]

    def fit(self, features: np.ndarray, costs: np.ndarray) -> FitReport:
        """Mini-batch SGD on the RMSRE objective (Equation 3).

        The loss ``mean(((w . phi(x) - t)/t)^2)`` is exactly plain
        least squares on target-normalized rows ``phi(x)/t`` against
        the constant 1 — that reformulation is what SGD optimizes
        here, with per-column scale normalization (folded back into
        the weights afterwards) for conditioning. Identical objective,
        far better convergence than the raw weighted gradient.
        """
        features, costs = self._check_training_set(features, costs)
        start = time.perf_counter()
        design = self._design(features)
        target = costs * _NS
        normalized = design / target[:, None]
        column_scale = normalized.std(axis=0)
        column_scale[column_scale == 0] = 1.0
        normalized = normalized / column_scale

        rng = np.random.default_rng(self._seed)
        num_samples, num_params = normalized.shape
        weights = np.zeros(num_params)
        velocity = np.zeros(num_params)
        # small corpora get extra epochs so the optimizer always takes
        # a comparable number of steps; the decay horizon tracks it
        batches_per_epoch = max(1, -(-num_samples // self._batch))
        epochs = max(self._epochs, -(-4000 // batches_per_epoch))
        total_steps = epochs * batches_per_epoch
        step = 0
        for __ in range(epochs):
            order = rng.permutation(num_samples)
            for lo in range(0, num_samples, self._batch):
                batch = order[lo: lo + self._batch]
                a = normalized[batch]
                residual = a @ weights - 1.0
                grad = 2.0 * residual @ a / batch.size
                norm = float(np.linalg.norm(grad))
                if norm > 1.0:  # clip runaway outlier batches
                    grad = grad / norm
                step += 1
                lr = self._lr / (1.0 + 3.0 * step / total_steps)
                velocity = self._momentum * velocity - lr * grad
                weights = weights + velocity
        self._weights = weights / column_scale
        train_time = time.perf_counter() - start
        return FitReport(
            self.name, train_time, rmsre(self.predict(features), costs)
        )

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict per-edge costs (seconds) for feature rows."""
        return self._predict_rows(
            np.atleast_2d(np.asarray(features, dtype=np.float64))
        )

    def edge_costs_seconds(
        self, frontiers: Sequence[FrontierFeatures]
    ) -> List[float]:
        """:meth:`predict` of every frontier's feature row at once."""
        rows = np.array([f[:6] for f in frontiers], dtype=np.float64)
        return self._predict_rows(rows.reshape(-1, 6)).tolist()

    def _predict_rows(self, rows: np.ndarray) -> np.ndarray:
        """Per-edge seconds of feature rows, one block at a time.

        Every step is elementwise (the squash, the feature
        standardization, the clip, the expansion, the product with the
        folded weights) except the last: one sum of each row's products
        along the
        contiguous axis, whose pairwise order depends on the row length
        only. So a row's prediction is the same bits in any batch, and
        no BLAS kernel (whose summation order depends on the batch
        shape and the CPU) is involved.
        """
        weights = self._folded_weights()
        raw = np.empty(rows.shape[0])
        for lo in range(0, raw.size, _PREDICT_BLOCK_ROWS):
            block = rows[lo: lo + _PREDICT_BLOCK_ROWS]
            terms = self._basis(block)
            np.add.reduce(np.multiply(terms, weights, out=terms), axis=1,
                          out=raw[lo: lo + len(block)])
        # costs are physically positive; clamp runaway extrapolations
        np.maximum(raw, 0.01, out=raw)
        raw /= _NS
        return raw


class LinearSGDModel(PolynomialSGDModel):
    """Linear regression under the same SGD/RMSRE training loop."""

    name = "linear"

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("degree", 1)
        if kwargs["degree"] != 1:
            raise CostModelError("LinearSGDModel must have degree 1")
        super().__init__(**kwargs)


# ----------------------------------------------------------------------
class DecisionTreeModel(CostModel):
    """CART regression tree on the log-cost (geometric-mean leaves).

    Splitting on the log target makes leaf means optimal for relative
    error, matching the RMSRE evaluation.
    """

    name = "tree"

    def __init__(
        self,
        max_depth: int = 8,
        min_leaf: int = 8,
        num_thresholds: int = 16,
    ) -> None:
        self._max_depth = int(max_depth)
        self._min_leaf = int(min_leaf)
        self._num_thresholds = int(num_thresholds)
        self._nodes: List[tuple] = []  # (feature, threshold, left, right)
        #   leaves are (-1, value, -1, -1)
        # columnar mirror of _nodes for batched prediction
        self._node_feature: Optional[np.ndarray] = None
        self._node_value: Optional[np.ndarray] = None
        self._node_left: Optional[np.ndarray] = None
        self._node_right: Optional[np.ndarray] = None

    def fit(self, features: np.ndarray, costs: np.ndarray) -> FitReport:
        """Train on feature rows and per-edge costs (seconds)."""
        features, costs = self._check_training_set(features, costs)
        start = time.perf_counter()
        log_target = np.log(costs * _NS)
        self._nodes = []
        self._build(features, log_target, depth=0)
        self._columnize()
        train_time = time.perf_counter() - start
        return FitReport(
            self.name, train_time, rmsre(self.predict(features), costs)
        )

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> int:
        node_id = len(self._nodes)
        self._nodes.append(None)  # placeholder
        if depth >= self._max_depth or y.size < 2 * self._min_leaf:
            self._nodes[node_id] = (-1, float(y.mean()), -1, -1)
            return node_id
        best = None  # (sse, feature, threshold, mask)
        base_sse = float(((y - y.mean()) ** 2).sum())
        for feature in range(x.shape[1]):
            column = x[:, feature]
            thresholds = np.unique(
                np.quantile(
                    column,
                    np.linspace(0.05, 0.95, self._num_thresholds),
                )
            )
            for threshold in thresholds:
                mask = column <= threshold
                n_left = int(mask.sum())
                if n_left < self._min_leaf or y.size - n_left < self._min_leaf:
                    continue
                left, right = y[mask], y[~mask]
                sse = float(
                    ((left - left.mean()) ** 2).sum()
                    + ((right - right.mean()) ** 2).sum()
                )
                if best is None or sse < best[0]:
                    best = (sse, feature, threshold, mask)
        if best is None or best[0] >= base_sse - 1e-12:
            self._nodes[node_id] = (-1, float(y.mean()), -1, -1)
            return node_id
        __, feature, threshold, mask = best
        left_id = self._build(x[mask], y[mask], depth + 1)
        right_id = self._build(x[~mask], y[~mask], depth + 1)
        self._nodes[node_id] = (feature, float(threshold), left_id, right_id)
        return node_id

    def _columnize(self) -> None:
        """Mirror ``_nodes`` into parallel arrays for batched traversal."""
        nodes = self._nodes
        self._node_feature = np.array(
            [n[0] for n in nodes], dtype=np.int64
        )
        self._node_value = np.array([n[1] for n in nodes])
        self._node_left = np.array([n[2] for n in nodes], dtype=np.int64)
        self._node_right = np.array([n[3] for n in nodes], dtype=np.int64)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict per-edge costs (seconds) for feature rows.

        All rows descend the tree together, one level per pass: rows
        still at internal nodes compare their split feature and hop to
        a child, rows at leaves stay put. At most ``max_depth`` passes
        of O(rows) numpy work instead of a Python loop per row.
        """
        if not self._nodes:
            raise CostModelError("model used before fit")
        if self._node_feature is None:
            self._columnize()  # tree built before columnar mirror existed
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        num_rows = features.shape[0]
        position = np.zeros(num_rows, dtype=np.int64)
        rows = np.arange(num_rows)
        while True:
            split = self._node_feature[position]
            active = split >= 0
            if not np.any(active):
                break
            at = position[active]
            go_left = (
                features[rows[active], split[active]]
                <= self._node_value[at]
            )
            position[active] = np.where(
                go_left, self._node_left[at], self._node_right[at]
            )
        return np.exp(self._node_value[position]) / _NS


# ----------------------------------------------------------------------
class KernelRidgeModel(CostModel):
    """RBF kernel ridge regression on the log-cost (SVR stand-in).

    Same hypothesis family as the paper's RBF SVR; ridge instead of
    epsilon-insensitive loss keeps the solver a dense linear system.
    Training data is capped to keep the O(n^3) solve bounded.
    """

    name = "svr"

    def __init__(
        self,
        alpha: float = 1e-3,
        max_train: int = 1500,
        seed: int = 0,
    ) -> None:
        self._alpha = float(alpha)
        self._max_train = int(max_train)
        self._seed = int(seed)
        self._scaler = _Standardizer()
        self._support: Optional[np.ndarray] = None
        self._coef: Optional[np.ndarray] = None
        self._gamma: float = 1.0

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = (
            (a**2).sum(axis=1)[:, None]
            + (b**2).sum(axis=1)[None, :]
            - 2.0 * a @ b.T
        )
        return np.exp(-self._gamma * np.maximum(sq, 0.0))

    def _preprocess(self, features: np.ndarray) -> np.ndarray:
        """Log-squash heavy-tailed degree features, then standardize.

        Without the squash, frontiers slightly outside the training
        degree range land far from every support vector and the kernel
        collapses to its prior — catastrophic extrapolation.
        """
        return self._scaler.transform(_squash(features))

    def fit(self, features: np.ndarray, costs: np.ndarray) -> FitReport:
        """Train on feature rows and per-edge costs (seconds)."""
        features, costs = self._check_training_set(features, costs)
        start = time.perf_counter()
        rng = np.random.default_rng(self._seed)
        if features.shape[0] > self._max_train:
            keep = rng.choice(
                features.shape[0], self._max_train, replace=False
            )
            sub_x, sub_y = features[keep], costs[keep]
        else:
            sub_x, sub_y = features, costs
        self._scaler.fit(_squash(sub_x))
        scaled = self._preprocess(sub_x)
        # median heuristic for the RBF width
        sample = scaled[rng.choice(scaled.shape[0],
                                   min(256, scaled.shape[0]),
                                   replace=False)]
        dists = (
            (sample**2).sum(axis=1)[:, None]
            + (sample**2).sum(axis=1)[None, :]
            - 2.0 * sample @ sample.T
        )
        positive = dists[dists > 0]
        # all-duplicate rows leave no positive distances; the median of
        # the empty slice is nan (which is truthy — `or 1.0` won't fire)
        median_sq = float(np.median(positive)) if positive.size else 1.0
        if not np.isfinite(median_sq) or median_sq <= 0.0:
            median_sq = 1.0
        self._gamma = 1.0 / median_sq
        gram = self._kernel(scaled, scaled)
        gram[np.diag_indices_from(gram)] += self._alpha
        self._support = scaled
        self._coef = np.linalg.solve(gram, np.log(sub_y * _NS))
        train_time = time.perf_counter() - start
        return FitReport(
            self.name, train_time, rmsre(self.predict(features), costs)
        )

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict per-edge costs (seconds) for feature rows."""
        if self._coef is None or self._support is None:
            raise CostModelError("model used before fit")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        scaled = self._preprocess(features)
        return np.exp(self._kernel(scaled, self._support) @ self._coef) / _NS


# ----------------------------------------------------------------------
class UniformCostModel(CostModel):
    """Degenerate baseline: a single constant cost (the ablation's
    "no cost model" arm — ``c_ij`` reduces to pure bandwidth)."""

    name = "uniform"

    def __init__(self, cost_seconds: float = 0.75e-9) -> None:
        self._cost = float(cost_seconds)

    def fit(self, features: np.ndarray, costs: np.ndarray) -> FitReport:
        """Train on feature rows and per-edge costs (seconds)."""
        features, costs = self._check_training_set(features, costs)
        start = time.perf_counter()
        self._cost = float(np.exp(np.mean(np.log(costs))))
        return FitReport(
            self.name,
            time.perf_counter() - start,
            rmsre(self.predict(features), costs),
        )

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict per-edge costs (seconds) for feature rows."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        return np.full(features.shape[0], self._cost)


class OracleCostModel(CostModel):
    """Wraps the ground-truth device model (Exp-7's 'exact values')."""

    name = "oracle"

    def __init__(self, device: Optional[DeviceModel] = None) -> None:
        self._device = device or DeviceModel()

    def fit(self, features: np.ndarray, costs: np.ndarray) -> FitReport:
        """Train on feature rows and per-edge costs (seconds)."""
        features, costs = self._check_training_set(features, costs)
        return FitReport(self.name, 0.0, rmsre(self.predict(features), costs))

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict per-edge costs (seconds) for feature rows."""
        rows = np.atleast_2d(np.asarray(features, dtype=np.float64))
        return np.array(self._device.edge_costs([
            FrontierFeatures(*row, size=1, total_edges=1)
            for row in rows.tolist()
        ]))

    def edge_cost_seconds(self, features: FrontierFeatures) -> float:
        return self._device.true_edge_cost(features)

    def edge_costs_seconds(
        self, frontiers: Sequence[FrontierFeatures]
    ) -> List[float]:
        return self._device.edge_costs(frontiers)


#: Table V's model families, by name.
MODEL_FAMILIES: dict[str, Callable[[], CostModel]] = {
    "linear": LinearSGDModel,
    "polynomial": PolynomialSGDModel,
    "tree": DecisionTreeModel,
    "svr": KernelRidgeModel,
}


# ----------------------------------------------------------------------
# The repro-costmodel/1 artifact
# ----------------------------------------------------------------------
def _require(params: dict, *keys: str) -> list:
    missing = [key for key in keys if key not in params]
    if missing:
        raise CostModelError(
            f"cost-model artifact parameters missing {missing}"
        )
    return [params[key] for key in keys]


def model_to_params(model: CostModel) -> Tuple[str, dict]:
    """``(family, parameters)`` of a fitted model, JSON-ready."""
    if isinstance(model, PolynomialSGDModel):  # LinearSGD subclasses it
        if model._weights is None:
            raise CostModelError("cannot serialize an unfitted model")
        family = "linear" if model._degree == 1 else "polynomial"
        return family, {
            "degree": int(model._degree),
            "weights": model._weights.tolist(),
            "scaler_mean": model._scaler.mean.tolist(),
            "scaler_std": model._scaler.std.tolist(),
            "design_mean": model._design_scaler.mean.tolist(),
            "design_std": model._design_scaler.std.tolist(),
        }
    if isinstance(model, DecisionTreeModel):
        if not model._nodes:
            raise CostModelError("cannot serialize an unfitted model")
        if model._node_feature is None:
            model._columnize()
        return "tree", {
            "node_feature": model._node_feature.tolist(),
            "node_value": model._node_value.tolist(),
            "node_left": model._node_left.tolist(),
            "node_right": model._node_right.tolist(),
        }
    if isinstance(model, KernelRidgeModel):
        if model._coef is None or model._support is None:
            raise CostModelError("cannot serialize an unfitted model")
        return "svr", {
            "support": model._support.tolist(),
            "coef": model._coef.tolist(),
            "gamma": float(model._gamma),
            "scaler_mean": model._scaler.mean.tolist(),
            "scaler_std": model._scaler.std.tolist(),
        }
    if isinstance(model, UniformCostModel):
        return "uniform", {"cost_seconds": float(model._cost)}
    raise CostModelError(
        f"cannot serialize a {type(model).__name__} into a "
        f"{COSTMODEL_SCHEMA} artifact"
    )


def model_from_params(family: str, params: dict) -> CostModel:
    """Rebuild a fitted model from artifact parameters."""
    if family in ("polynomial", "linear"):
        (degree, weights, scaler_mean, scaler_std, design_mean,
         design_std) = _require(
            params, "degree", "weights", "scaler_mean", "scaler_std",
            "design_mean", "design_std",
        )
        model = (LinearSGDModel() if int(degree) == 1
                 else PolynomialSGDModel(degree=int(degree)))
        model._weights = np.asarray(weights, dtype=np.float64)
        model._scaler.mean = np.asarray(scaler_mean, dtype=np.float64)
        model._scaler.std = np.asarray(scaler_std, dtype=np.float64)
        model._design_scaler.mean = np.asarray(
            design_mean, dtype=np.float64
        )
        model._design_scaler.std = np.asarray(
            design_std, dtype=np.float64
        )
        return model
    if family == "tree":
        feature, value, left, right = _require(
            params, "node_feature", "node_value", "node_left",
            "node_right",
        )
        model = DecisionTreeModel()
        model._node_feature = np.asarray(feature, dtype=np.int64)
        model._node_value = np.asarray(value, dtype=np.float64)
        model._node_left = np.asarray(left, dtype=np.int64)
        model._node_right = np.asarray(right, dtype=np.int64)
        model._nodes = [
            (int(f), float(v), int(lo), int(hi))
            for f, v, lo, hi in zip(
                model._node_feature, model._node_value,
                model._node_left, model._node_right,
            )
        ]
        return model
    if family == "svr":
        support, coef, gamma, scaler_mean, scaler_std = _require(
            params, "support", "coef", "gamma", "scaler_mean",
            "scaler_std",
        )
        model = KernelRidgeModel()
        model._support = np.asarray(support, dtype=np.float64)
        model._coef = np.asarray(coef, dtype=np.float64)
        model._gamma = float(gamma)
        model._scaler.mean = np.asarray(scaler_mean, dtype=np.float64)
        model._scaler.std = np.asarray(scaler_std, dtype=np.float64)
        return model
    if family == "uniform":
        (cost_seconds,) = _require(params, "cost_seconds")
        return UniformCostModel(cost_seconds=float(cost_seconds))
    raise CostModelError(
        f"unsupported cost-model artifact family {family!r}"
    )


def _params_digest(family: str, params: dict) -> str:
    import hashlib  # one digest per artifact: not worth a load-time import

    payload = json.dumps(
        {"family": family, "parameters": params}, sort_keys=True
    )
    return hashlib.sha1(payload.encode()).hexdigest()


def artifact_label(artifact: dict) -> str:
    """Stable identity string: ``artifact:<family>@<digest8>``.

    Derived from the serialized parameters only — two machines that
    fit the same model get the same label, and the label (not the
    filesystem path) joins a run's workload fingerprint so recorded
    runs stay comparable across checkouts.
    """
    return (
        f"artifact:{artifact['family']}"
        f"@{artifact['digest'][:8]}"
    )


def save_artifact(model: CostModel, path,
                  provenance: Optional[dict] = None) -> dict:
    """Write a fitted model as a ``repro-costmodel/1`` JSON artifact.

    Returns the artifact dict that was written. ``provenance`` is an
    arbitrary JSON block (``FitOutcome.report()`` in the CLI flow).
    """
    family, params = model_to_params(model)
    artifact = {
        "schema": COSTMODEL_SCHEMA,
        "family": family,
        "digest": _params_digest(family, params),
        "parameters": params,
        "provenance": dict(provenance or {}),
    }
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return artifact


def load_artifact(path) -> CostModel:
    """Load a ``repro-costmodel/1`` artifact into a usable model.

    The returned model carries ``artifact`` (the full payload) and
    ``artifact_label`` attributes, so ledgers and workload
    fingerprints can name it stably.
    """
    artifact = load_document(
        path, COSTMODEL_SCHEMA, CostModelError, "cost-model artifact"
    )
    family = artifact.get("family")
    params = artifact.get("parameters")
    if not isinstance(params, dict):
        raise CostModelError(
            f"{path}: cost-model artifact has no parameters object"
        )
    digest = artifact.get("digest")
    expected = _params_digest(family, params)
    if digest != expected:
        raise CostModelError(
            f"{path}: artifact digest mismatch (stored {digest!r}, "
            f"parameters hash to {expected!r}) — corrupted or "
            "hand-edited artifact"
        )
    model = model_from_params(family, params)
    model.artifact = artifact
    model.artifact_label = artifact_label(artifact)
    return model


# ----------------------------------------------------------------------
# Obtaining a model
# ----------------------------------------------------------------------
#: The packaged default, written by ``costmodel_fit.train_default``
#: (``docs/costmodel.md`` has the regeneration one-liner).
DEFAULT_ARTIFACT = Path(__file__).with_name("default_costmodel.json")


@functools.cache
def pretrained_default() -> CostModel:
    """The library's default learned ``g``: degree-4 polynomial, cached.

    Loaded (digest-checked) from the packaged ``default_costmodel.json``
    — the committed output of
    :func:`repro.core.costmodel_fit.train_default`. It is labelled by
    role rather than by digest, so ledgers and workload fingerprints
    of default-model runs stay comparable when the file is regenerated.
    """
    model = load_artifact(DEFAULT_ARTIFACT)
    model.artifact_label = "default"
    return model


def resolve_cost_model(spec: Union[str, CostModel]) -> CostModel:
    """The model a ``cost_model=`` / ``--cost-model`` operand names.

    ``"default"`` (the shipped polynomial), ``"oracle"`` (ground truth
    — Exp-7's upper bound), ``"uniform"`` (bandwidth only), a
    :class:`CostModel` instance (returned as is), or a path to a
    ``repro-costmodel/1`` artifact. An operand that looks like a path
    (a separator, a dot, or something that exists) goes to
    :func:`load_artifact`, so a missing file says so; any other name
    is an :class:`EngineError` listing what is accepted.
    """
    if isinstance(spec, CostModel):
        return spec
    if spec == "default":
        return pretrained_default()
    if spec == "oracle":
        return OracleCostModel()
    if spec == "uniform":
        return UniformCostModel()
    spec = os.fspath(spec)
    if os.sep in spec or "." in spec or os.path.exists(spec):
        return load_artifact(spec)
    raise EngineError(
        f"unknown cost model {spec!r}; expected 'default', 'oracle', "
        "'uniform', a CostModel instance, or a path to a "
        "repro-costmodel/1 artifact"
    )


def model_label(model: CostModel) -> str:
    """What ledgers, fingerprints and replay reports call ``model``.

    Artifact-backed models carry a content-addressed label that stays
    stable across filesystem paths; anything else is its family name.
    """
    return model.artifact_label or model.name
