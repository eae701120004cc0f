"""Learned per-edge compute-cost models (Section III-B, Table V).

The FSteal cost coefficient is ``c_ij = 1/B_ij + g(W_i)``; this module
learns ``g`` from running logs — pairs of (Table-I frontier features,
observed per-edge cost). Four model families match the paper's Exp-7:

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

Training data comes from :func:`collect_training_data`, which replays
GAS algorithms over a corpus of generated graphs and logs per-fragment
frontier features with ground-truth costs — the reproduction of the
paper's "624 graphs from network repository" corpus at laptop scale.
"""

from __future__ import annotations

import abc
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import make_algorithm
from repro.errors import CostModelError
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.graph.features import FrontierFeatures, frontier_features
from repro.hardware.device import DeviceModel
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.partition.partitioners import random_partition

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
    "collect_training_data",
    "default_training_corpus",
    "pretrained_default",
]

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


class OnlineRMSRE:
    """Streaming RMSRE over (predicted, actual) pairs.

    The deployment-time counterpart of :func:`rmsre`: the arbitrator
    feeds it one sample per fragment per iteration, so observability
    can report how well the learned ``g`` tracks ground truth *during*
    a run (Exp-7's accuracy/policy-quality link, live).
    """

    __slots__ = ("count", "skipped", "_sum_sq")

    def __init__(self) -> None:
        self.count = 0
        self.skipped = 0
        self._sum_sq = 0.0

    def update(self, predicted: float, actual: float) -> None:
        """Add one sample; non-positive actuals are counted as skipped.

        A relative error against a zero (or negative) ground truth is
        undefined, so such samples cannot enter the statistic — but
        they are not silently lost: ``skipped`` counts them for the
        run summary and the decision ledger.
        """
        if actual <= 0:
            self.skipped += 1
            return
        self.count += 1
        self._sum_sq += ((predicted - actual) / actual) ** 2

    @property
    def value(self) -> float:
        """Current RMSRE (0.0 before any sample)."""
        if self.count == 0:
            return 0.0
        return float(np.sqrt(self._sum_sq / self.count))

    def __repr__(self) -> str:
        return (
            f"OnlineRMSRE(value={self.value:.4f}, n={self.count}, "
            f"skipped={self.skipped})"
        )


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


#: (num_features, degree) -> ((parent column, feature), ...) recurrences.
_EXPAND_PLANS: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {}


def _expand_plan(d: int, degree: int) -> Tuple[Tuple[int, int], ...]:
    """Column recurrences of the polynomial basis, in emission order.

    Every monomial of degree ``k`` extends a degree ``k-1`` prefix by
    its last feature, so column ``j`` is ``column[parent] * feature``
    — the same left-to-right multiplication chain the naive
    ``combinations_with_replacement`` loop performs, term for term.
    """
    plan = _EXPAND_PLANS.get((d, degree))
    if plan is None:
        index: Dict[Tuple[int, ...], int] = {(): 0}
        steps = []
        for deg in range(1, degree + 1):
            for combo in itertools.combinations_with_replacement(
                range(d), deg
            ):
                index[combo] = len(steps) + 1
                steps.append((index[combo[:-1]], combo[-1]))
        plan = _EXPAND_PLANS[(d, degree)] = tuple(steps)
    return plan


def _polynomial_expand(matrix: np.ndarray, degree: int) -> np.ndarray:
    """Full polynomial basis (with cross terms) up to ``degree``.

    Each column multiplies its degree ``k-1`` parent column by one
    feature — the identical IEEE-754 operation sequence (``1*a``,
    ``(1*a)*b``, ...) the combination-by-combination rebuild performs,
    so results are bit-identical while each product is computed once.
    Single rows (the scheduler's per-frontier predictions) run the
    recurrence on scalars instead of 1-element arrays.
    """
    n, d = matrix.shape
    plan = _expand_plan(d, degree)
    out = np.empty((n, len(plan) + 1))
    if n == 1:
        row = matrix[0]
        values = [1.0]
        append = values.append
        for parent, feature in plan:
            append(values[parent] * row[feature])
        out[0] = values
        return out
    out[:, 0] = 1.0
    for column, (parent, feature) in enumerate(plan, start=1):
        np.multiply(
            out[:, parent], matrix[:, feature], out=out[:, column]
        )
    return out


# ----------------------------------------------------------------------
class CostModel(abc.ABC):
    """Estimator of per-edge compute cost from frontier features."""

    name: str = "abstract"

    @abc.abstractmethod
    def fit(self, features: np.ndarray, costs: np.ndarray) -> FitReport:
        """Train on feature rows and per-edge costs (seconds)."""

    @abc.abstractmethod
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict per-edge costs (seconds) for feature rows."""

    def edge_cost_seconds(self, features: FrontierFeatures) -> float:
        """Predict for one frontier (convenience for the scheduler)."""
        return float(self.predict(features.vector()[None, :])[0])

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
        if degree == 1:
            self.name = "linear"

    @staticmethod
    def _squash(features: np.ndarray) -> np.ndarray:
        """Log-compress the heavy-tailed degree features.

        Degree ranges span four orders of magnitude; raising raw
        z-scores to the 4th power would blow SGD up, so features are
        squashed before standardization and clipped after.
        """
        return np.sign(features) * np.log1p(np.abs(features))

    def _design(self, features: np.ndarray, fitting: bool = False) -> np.ndarray:
        squashed = self._squash(features)
        if fitting:
            self._scaler.fit(squashed)
        scaled = np.clip(self._scaler.transform(squashed), -4.0, 4.0)
        design = _polynomial_expand(scaled, self._degree)
        if fitting:
            self._design_scaler.fit(design)
            self._design_scaler.std[0] = 1.0  # keep the bias column
            self._design_scaler.mean[0] = 0.0
        return self._design_scaler.transform(design)

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
        design = self._design(features, fitting=True)
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
        if self._weights is None:
            raise CostModelError("model used before fit")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        raw = self._design(features) @ self._weights
        # costs are physically positive; clamp runaway extrapolations
        return np.maximum(raw, 0.01) / _NS


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
        squashed = np.sign(features) * np.log1p(np.abs(features))
        return self._scaler.transform(squashed)

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
        self._scaler.fit(np.sign(sub_x) * np.log1p(np.abs(sub_x)))
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
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        out = np.empty(features.shape[0])
        for row in range(features.shape[0]):
            f = features[row]
            out[row] = self._device.true_edge_cost(
                FrontierFeatures(
                    avg_in_degree=f[0], avg_out_degree=f[1],
                    in_degree_range=f[2], out_degree_range=f[3],
                    gini=f[4], entropy=f[5], size=1, total_edges=1,
                )
            )
        return out

    def edge_cost_seconds(self, features: FrontierFeatures) -> float:
        return self._device.true_edge_cost(features)


#: Table V's model families, by name.
MODEL_FAMILIES: dict[str, Callable[[], CostModel]] = {
    "linear": LinearSGDModel,
    "polynomial": PolynomialSGDModel,
    "tree": DecisionTreeModel,
    "svr": KernelRidgeModel,
}


# ----------------------------------------------------------------------
# Training-log collection
# ----------------------------------------------------------------------
def collect_training_data(
    graphs: Sequence[CSRGraph],
    algorithms: Sequence[str] = ("bfs", "sssp", "wcc", "pr"),
    num_fragments: int = 8,
    device: Optional[DeviceModel] = None,
    seed: int = 0,
    max_iterations: int = 300,
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay algorithms over graphs and log (features, observed cost).

    Each iteration of each algorithm on each graph contributes one
    sample per fragment with a non-empty frontier, exactly as the paper
    treats "the running log of each iteration as independent training
    samples". Observed cost is the device model's ground truth —
    including its measurement pseudo-noise.
    """
    device = device or DeviceModel()
    rows: List[np.ndarray] = []
    targets: List[float] = []
    for graph in graphs:
        weighted = (
            graph
            if graph.is_weighted
            else generators.with_random_weights(graph, seed=seed)
        )
        partition = random_partition(weighted, num_fragments, seed=seed)
        for algorithm_name in algorithms:
            algorithm = make_algorithm(algorithm_name)
            state = algorithm.init(weighted)
            while state.frontier and state.iteration < max_iterations:
                per_fragment = state.frontier.split_by_owner(
                    partition.owner, num_fragments
                )
                for fragment in per_fragment:
                    if not fragment:
                        continue
                    feats = frontier_features(weighted, fragment.vertices)
                    rows.append(feats.vector())
                    targets.append(device.true_edge_cost(feats))
                state.frontier = algorithm.step(weighted, state)
                state.iteration += 1
    if not rows:
        raise CostModelError("training corpus produced no samples")
    return np.stack(rows), np.asarray(targets)


def default_training_corpus(seed: int = 7) -> List[CSRGraph]:
    """A small, diverse generator zoo standing in for the paper's
    624-graph training corpus.

    Spans the three benchmark domains *including benchmark-scale
    instances* — training only on tiny graphs would leave deployment
    frontiers out of distribution, which degrades interpolating
    models (kernel methods especially) far more than their held-out
    RMSRE suggests.
    """
    return [
        generators.rmat(10, 8, seed=seed),
        generators.rmat(11, 16, seed=seed + 1, a=0.62,
                        b=0.19 / 1.1, c=0.19 / 1.1),
        generators.rmat(12, 4, seed=seed + 2),
        generators.rmat(13, 10, seed=seed + 10),
        generators.rmat(14, 6, seed=seed + 11, a=0.6,
                        b=0.2, c=0.15),
        generators.erdos_renyi(3000, 24000, seed=seed + 3),
        generators.web_graph(4000, 10, seed=seed + 4),
        generators.web_graph(8000, 6, locality=0.95, window=64,
                             seed=seed + 5),
        generators.web_graph(20000, 12, seed=seed + 12),
        generators.road_network(40, 40, seed=seed + 6),
        generators.road_network(80, 25, seed=seed + 7),
        generators.road_network(8, 300, seed=seed + 13),
        generators.small_world(4000, k=4, seed=seed + 8),
        generators.star(2000),
        generators.grid_2d(50, 40, seed=seed + 9),
    ]


_PRETRAINED: Optional[PolynomialSGDModel] = None


def pretrained_default(
    force_retrain: bool = False,
    tracer: Tracer = NULL_TRACER,
) -> PolynomialSGDModel:
    """The library's default learned ``g``: degree-4 polynomial, cached.

    Trains once per process on :func:`default_training_corpus`
    (a couple of seconds); later calls reuse the cached model. Pass a
    tracer to span the corpus replay and the SGD fit — by far the
    largest host-time cost of a cold first run.
    """
    global _PRETRAINED
    if _PRETRAINED is None or force_retrain:
        with tracer.span("costmodel.collect", cat="costmodel"):
            features, costs = collect_training_data(
                default_training_corpus()
            )
        model = PolynomialSGDModel()
        with tracer.span("costmodel.fit", cat="costmodel",
                         model=model.name,
                         samples=int(costs.size)) as fit_span:
            report = model.fit(features, costs)
            fit_span.set(train_rmsre=report.train_rmsre,
                         train_seconds=report.train_seconds)
        _PRETRAINED = model
    return _PRETRAINED
