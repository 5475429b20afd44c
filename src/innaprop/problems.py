"""Differentiable objectives with hand-written gradients, synthetic data,
CSV ingestion and minibatching.

Shipped objective kinds: a diagonal quadratic, the chained Rosenbrock
function, logistic regression (weights + bias) and a small dense network
with a softmax cross-entropy head and manual backprop. Every analytic
gradient is held to agreement with central finite differences by a standing
check.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ContractViolation, ParseError
from .numerics import ParamVector, RngStream


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Feature rows with labels and a disjoint, seed-deterministic split."""

    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,)
    train_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise ContractViolation("features must be (n, d) with one label per row")
        if np.intersect1d(self.train_idx, self.test_idx).size:
            raise ContractViolation("train/test split must be disjoint")

    @property
    def n_train(self) -> int:
        return self.train_idx.size

    @property
    def n_test(self) -> int:
        return self.test_idx.size

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def train_xy(self):
        return self.features[self.train_idx], self.labels[self.train_idx]

    def test_xy(self):
        return self.features[self.test_idx], self.labels[self.test_idx]


def _split_indices(n: int, split_fraction: float, rng: np.random.Generator):
    if not 0 < split_fraction <= 1:
        raise ContractViolation("split_fraction must lie in (0, 1]")
    perm = rng.permutation(n)
    n_train = int(round(split_fraction * n))
    n_train = max(1, min(n, n_train))
    return perm[:n_train], perm[n_train:]


def generate_synthetic(kind: str, n: int, dim: int, seed: int,
                       split_fraction: float = 0.75, separation: float = 6.0,
                       noise: float = 0.0) -> Dataset:
    """Seed-deterministic synthetic datasets.

    ``two_gaussians``: balanced binary labels (counts differ by at most one),
    class means ``separation`` apart along a fixed direction, unit-variance
    noise. ``linear_regression``: gaussian features, targets from a hidden
    weight vector plus optional gaussian noise.
    """
    if n <= 0 or dim <= 0:
        raise ContractViolation("n and dim must be positive")
    rng = RngStream(seed, 0).generator()
    if kind == "two_gaussians":
        n0 = n // 2
        labels = np.concatenate([np.zeros(n0), np.ones(n - n0)])
        direction = np.zeros(dim)
        direction[0] = 1.0
        centers = np.where(labels[:, None] > 0, 0.5 * separation, -0.5 * separation)
        features = centers * direction + rng.standard_normal((n, dim))
    elif kind == "linear_regression":
        features = rng.standard_normal((n, dim))
        w_star = rng.standard_normal(dim)
        labels = features @ w_star
        if noise:
            labels = labels + noise * rng.standard_normal(n)
    else:
        raise ContractViolation(f"unknown synthetic dataset kind {kind!r}")
    shuffle = rng.permutation(n)
    features, labels = features[shuffle], labels[shuffle]
    train_idx, test_idx = _split_indices(n, split_fraction, rng)
    return Dataset(features=features, labels=labels, train_idx=train_idx, test_idx=test_idx)


def load_csv_dataset(path, label_column: str, split_fraction: float = 0.75,
                     seed: int = 0) -> Dataset:
    """Parse a numeric CSV with a header row into a split dataset.

    Malformed cells raise ``ParseError`` naming the row and column; a missing
    label column raises ``ConfigError``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise ConfigError(f"{path}: label column {label_column!r} not in header {header}")
        label_pos = header.index(label_column)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}")
            parsed = []
            for col, cell in zip(header, row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: row {lineno}, column {col!r}: non-numeric cell {cell.strip()!r}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    labels = data[:, label_pos]
    features = np.delete(data, label_pos, axis=1)
    if np.all(labels == np.round(labels)):
        labels = labels.astype(np.int64).astype(np.float64)
    rng = RngStream(seed, 0).generator()
    train_idx, test_idx = _split_indices(len(rows), split_fraction, rng)
    return Dataset(features=features, labels=labels, train_idx=train_idx, test_idx=test_idx)


class MiniBatchSampler:
    """Deterministic batch index source over a dataset's training rows.

    ``shuffled-epoch`` visits every training example exactly once per epoch;
    ``iid-with-replacement`` draws each batch independently. A sampler is
    single-owner mutable state; do not share one across runs.
    """

    ORDERS = ("shuffled-epoch", "iid-with-replacement")

    def __init__(self, n_examples: int, batch_size: int,
                 order: str = "shuffled-epoch", rng: RngStream = RngStream(0)):
        if n_examples <= 0:
            raise ContractViolation("sampler needs a nonempty dataset")
        if batch_size <= 0:
            raise ContractViolation("batch_size must be positive")
        if order not in self.ORDERS:
            raise ContractViolation(f"unknown batch order {order!r}")
        self.n = n_examples
        self.batch_size = min(batch_size, n_examples)
        self.order = order
        self._gen = rng.generator()
        self._perm = None
        self._cursor = 0
        self.epoch = 0

    def next_batch(self) -> np.ndarray:
        """Positions into the training set for the next batch."""
        if self.order == "iid-with-replacement":
            return self._gen.integers(0, self.n, size=self.batch_size)
        if self._perm is None or self._cursor >= self.n:
            self._perm = self._gen.permutation(self.n)
            self._cursor = 0
            self.epoch += 1
        batch = self._perm[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return batch


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Problem:
    """Objective with loss, analytic gradient, optional test metric and data.

    ``loss`` and ``grad`` take a raw parameter array plus an optional array
    of training-set positions (None means full batch).
    """

    name: str
    dim: int
    loss: Callable[..., float]
    grad: Callable[..., np.ndarray]
    init_theta: Callable[[np.random.Generator], np.ndarray]
    test_metric: Optional[Callable[[np.ndarray], float]] = None
    dataset: Optional[Dataset] = None


def _as_array(theta) -> np.ndarray:
    if isinstance(theta, ParamVector):
        return np.asarray(theta.data, dtype=np.float64)
    return np.asarray(theta, dtype=np.float64)


def minibatch_grad(problem: Problem, theta, sampler: MiniBatchSampler):
    """Mean gradient over the next sampled batch; returns (grad, batch)."""
    if problem.dataset is None or problem.dataset.n_train == 0:
        raise ContractViolation("minibatch_grad needs a problem with a nonempty dataset")
    batch = sampler.next_batch()
    arr = _as_array(theta)
    g = problem.grad(arr, batch)
    precision = theta.precision if isinstance(theta, ParamVector) else "f64"
    return ParamVector(g, precision), batch


def _quadratic(spectrum) -> Problem:
    a = np.asarray(spectrum, dtype=np.float64).reshape(-1)
    if a.size == 0 or np.any(a <= 0):
        raise ContractViolation("quadratic spectrum must be positive")

    def loss(theta, batch=None):
        theta = np.asarray(theta, dtype=np.float64)
        return float(0.5 * np.sum(a * theta * theta))

    def grad(theta, batch=None):
        return a * np.asarray(theta, dtype=np.float64)

    def init_theta(rng):
        return rng.standard_normal(a.size)

    return Problem(name="quadratic", dim=a.size, loss=loss, grad=grad, init_theta=init_theta)


def _rosenbrock(dim: int = 2) -> Problem:
    if dim < 2:
        raise ContractViolation("rosenbrock needs dim >= 2")

    def loss(theta, batch=None):
        x = np.asarray(theta, dtype=np.float64)
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    def grad(theta, batch=None):
        x = np.asarray(theta, dtype=np.float64)
        g = np.zeros_like(x)
        g[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
        return g

    def init_theta(rng):
        theta0 = np.ones(dim)
        theta0[::2] = -1.2
        return theta0

    return Problem(name="rosenbrock", dim=dim, loss=loss, grad=grad, init_theta=init_theta)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _logistic_regression(dataset: Dataset) -> Problem:
    d = dataset.dim
    x_train, y_train = dataset.train_xy()
    sign = 2.0 * y_train - 1.0

    def _margins(theta, batch):
        w, b = theta[:d], theta[d]
        if batch is None:
            return x_train @ w + b, sign, x_train
        return x_train[batch] @ w + b, sign[batch], x_train[batch]

    def loss(theta, batch=None):
        theta = np.asarray(theta, dtype=np.float64)
        z, s, _ = _margins(theta, batch)
        return float(np.mean(np.logaddexp(0.0, -s * z)))

    def grad(theta, batch=None):
        theta = np.asarray(theta, dtype=np.float64)
        z, s, x = _margins(theta, batch)
        dz = -s * _sigmoid(-s * z) / z.size
        g = np.empty(d + 1)
        g[:d] = x.T @ dz
        g[d] = np.sum(dz)
        return g

    def test_metric(theta):
        theta = np.asarray(theta, dtype=np.float64)
        x_test, y_test = dataset.test_xy()
        z = x_test @ theta[:d] + theta[d]
        return float(np.mean((z > 0) == (y_test > 0.5)))

    def init_theta(rng):
        return 0.1 * rng.standard_normal(d + 1)

    return Problem(
        name="logistic_regression",
        dim=d + 1,
        loss=loss,
        grad=grad,
        init_theta=init_theta,
        test_metric=test_metric,
        dataset=dataset,
    )


class _MlpLayout:
    """Offsets for flattening (W, b) pairs of a dense network."""

    def __init__(self, widths):
        self.widths = list(widths)
        self.slices = []
        offset = 0
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            w = slice(offset, offset + fan_in * fan_out)
            offset += fan_in * fan_out
            b = slice(offset, offset + fan_out)
            offset += fan_out
            self.slices.append((w, b, fan_in, fan_out))
        self.dim = offset

    def unpack(self, theta):
        return [
            (theta[w].reshape(fan_in, fan_out), theta[b])
            for w, b, fan_in, fan_out in self.slices
        ]


def _tiny_mlp(dataset: Dataset, hidden=(8,), activation: str = "tanh") -> Problem:
    if activation not in ("tanh", "relu"):
        raise ContractViolation(f"unknown activation {activation!r}")
    x_train, y_train = dataset.train_xy()
    labels = y_train.astype(np.int64)
    n_classes = int(labels.max()) + 1 if labels.size else 2
    n_classes = max(n_classes, 2)
    widths = [dataset.dim, *hidden, n_classes]
    if any(w <= 0 for w in widths):
        raise ContractViolation("layer widths must be positive")
    layout = _MlpLayout(widths)

    def _forward(theta, x):
        params = layout.unpack(theta)
        acts = [x]
        pre = []
        a = x
        for i, (w, b) in enumerate(params):
            z = a @ w + b
            pre.append(z)
            if i < len(params) - 1:
                a = np.tanh(z) if activation == "tanh" else np.maximum(z, 0.0)
            else:
                a = z
            acts.append(a)
        return params, acts, pre

    def _batch_xy(batch):
        if batch is None:
            return x_train, labels
        return x_train[batch], labels[batch]

    def _ce(logits, y):
        shifted = logits - logits.max(axis=1, keepdims=True)
        logz = np.log(np.sum(np.exp(shifted), axis=1))
        return float(np.mean(logz - shifted[np.arange(y.size), y]))

    def loss(theta, batch=None):
        theta = np.asarray(theta, dtype=np.float64)
        x, y = _batch_xy(batch)
        _, acts, _ = _forward(theta, x)
        return _ce(acts[-1], y)

    def grad(theta, batch=None):
        theta = np.asarray(theta, dtype=np.float64)
        x, y = _batch_xy(batch)
        params, acts, pre = _forward(theta, x)
        logits = acts[-1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        ez = np.exp(shifted)
        softmax = ez / ez.sum(axis=1, keepdims=True)
        delta = softmax
        delta[np.arange(y.size), y] -= 1.0
        delta /= y.size

        g = np.zeros(layout.dim)
        for i in reversed(range(len(params))):
            w, _ = params[i]
            w_sl, b_sl, fan_in, fan_out = layout.slices[i]
            g[w_sl] = (acts[i].T @ delta).reshape(-1)
            g[b_sl] = delta.sum(axis=0)
            if i > 0:
                upstream = delta @ w.T
                if activation == "tanh":
                    delta = upstream * (1.0 - acts[i] ** 2)
                else:
                    delta = upstream * (pre[i - 1] > 0)
        return g

    def test_metric(theta):
        theta = np.asarray(theta, dtype=np.float64)
        x_test, y_test = dataset.test_xy()
        _, acts, _ = _forward(theta, x_test)
        return float(np.mean(acts[-1].argmax(axis=1) == y_test.astype(np.int64)))

    def init_theta(rng):
        theta0 = np.zeros(layout.dim)
        for w_sl, b_sl, fan_in, fan_out in layout.slices:
            lim = 1.0 / np.sqrt(fan_in)
            theta0[w_sl] = rng.uniform(-lim, lim, fan_in * fan_out)
        return theta0

    return Problem(
        name="tiny_mlp",
        dim=layout.dim,
        loss=loss,
        grad=grad,
        init_theta=init_theta,
        test_metric=test_metric,
        dataset=dataset,
    )


PROBLEM_KINDS = ("quadratic", "rosenbrock", "logistic_regression", "tiny_mlp")


def make_problem(kind: str, **params) -> Problem:
    """Build one of the shipped objectives.

    quadratic            spectrum=[positive eigenvalues]
    rosenbrock           dim=2
    logistic_regression  dataset=Dataset
    tiny_mlp             dataset=Dataset, hidden=(8,), activation="tanh"|"relu"
    """
    if kind == "quadratic":
        return _quadratic(params.pop("spectrum", (1.0, 10.0)))
    if kind == "rosenbrock":
        return _rosenbrock(params.pop("dim", 2))
    if kind == "logistic_regression":
        dataset = params.pop("dataset", None)
        if dataset is None:
            raise ContractViolation("logistic_regression needs dataset=")
        return _logistic_regression(dataset)
    if kind == "tiny_mlp":
        dataset = params.pop("dataset", None)
        if dataset is None:
            raise ContractViolation("tiny_mlp needs dataset=")
        return _tiny_mlp(dataset, params.pop("hidden", (8,)), params.pop("activation", "tanh"))
    raise ContractViolation(f"unknown problem kind {kind!r}")


def shipped_problems(seed: int = 7) -> list[Problem]:
    """The canonical instances every standing verification suite runs over."""
    data = generate_synthetic("two_gaussians", n=200, dim=2, seed=seed)
    return [
        make_problem("quadratic", spectrum=(1.0, 10.0)),
        make_problem("rosenbrock", dim=2),
        make_problem("logistic_regression", dataset=data),
        make_problem("tiny_mlp", dataset=data, hidden=(8,), activation="tanh"),
    ]
