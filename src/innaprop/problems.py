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
import io
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ContractViolation, ParseError
from .numerics import _SHARED, RngStream, share_blocks


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
    # The file bytes a CSV dataset was parsed from, which its content hash covers.
    source: Optional[bytes] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise ContractViolation("features must be (n, d) with one label per row")
        if np.intersect1d(self.train_idx, self.test_idx).size:
            raise ContractViolation("train/test split must be disjoint")

    @property
    def n_train(self) -> int:
        return self.train_idx.size

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


SYNTHETIC_KINDS = ("two_gaussians",)


def generate_synthetic(kind: str, n: int, dim: int, seed: int,
                       split_fraction: float = 0.75, separation: float = 6.0) -> Dataset:
    """Seed-deterministic synthetic datasets.

    ``two_gaussians``: balanced binary labels (counts differ by at most one),
    class means ``separation`` apart along a fixed direction, unit-variance
    noise.
    """
    if n <= 0 or dim <= 0:
        raise ContractViolation("n and dim must be positive")
    if kind not in SYNTHETIC_KINDS:
        raise ContractViolation(f"unknown synthetic dataset kind {kind!r}")
    rng = RngStream(seed, 0).generator()
    n0 = n // 2
    labels = np.concatenate([np.zeros(n0), np.ones(n - n0)])
    direction = np.zeros(dim)
    direction[0] = 1.0
    centers = np.where(labels[:, None] > 0, 0.5 * separation, -0.5 * separation)
    features = centers * direction + rng.standard_normal((n, dim))
    shuffle = rng.permutation(n)
    features, labels = features[shuffle], labels[shuffle]
    train_idx, test_idx = _split_indices(n, split_fraction, rng)
    return Dataset(features=features, labels=labels, train_idx=train_idx, test_idx=test_idx)


def load_csv_dataset(path, label_column: str, split_fraction: float = 0.75,
                     seed: int = 0) -> Dataset:
    """Parse a numeric CSV with a header row into a split dataset.

    Malformed cells, non-numeric or non-finite (``nan``, ``inf``), raise
    ``ParseError`` naming the row and column, and so does a column name the
    header repeats; a missing label column raises ``ConfigError``; bytes
    that are not UTF-8 raise ``ParseError``, and a byte-order mark is
    skipped. The file is read once, and the dataset keeps the bytes it
    parsed as ``source``.
    """
    with open(path, "rb") as fh:
        source = fh.read()
    try:
        text = source.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from None
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        seen = set()
        for col in header:
            if col in seen:
                raise ParseError(f"{path}: column {col!r} appears twice in the header")
            seen.add(col)
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
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {lineno}, column {col!r}: non-numeric cell {cell.strip()!r}"
                    ) from None
                # float() reads 'nan' and 'inf', which no step could train on.
                if not math.isfinite(value):
                    raise ParseError(
                        f"{path}: row {lineno}, column {col!r}: non-finite cell {cell.strip()!r}")
                parsed.append(value)
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
    return Dataset(features=features, labels=labels, train_idx=train_idx, test_idx=test_idx,
                   source=source)


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
    of training-set positions (None means full batch). The parameter array
    is one vector of ``dim`` entries, or a ``(cells, dim)`` stack of them:
    a vector gives a float loss and metric and a ``(dim,)`` gradient, a stack
    gives ``(cells,)`` losses and metrics and a ``(cells, dim)`` gradient.
    A vector is evaluated as it is, with no cells axis, and so is a one-row
    stack. Each row of a stack gives bit for bit the numbers of its own 1-D
    call, because every operation maps cells to cells with the same BLAS
    call per cell and reduces along the last axis only. ``grad`` returns a
    fresh array, which the run loop takes over without a copy.
    ``test_metric`` is None when there is no test split to measure.
    """

    name: str
    dim: int
    loss: Callable[..., float]
    grad: Callable[..., np.ndarray]
    init_theta: Callable[[np.random.Generator], np.ndarray]
    test_metric: Optional[Callable[[np.ndarray], float]] = None
    dataset: Optional[Dataset] = None


# Element budget of one chunk of a stacked evaluation: the cells of a
# (cells, dim) parameter array are evaluated a chunk at a time, so that the
# largest intermediate of a chunk holds about this many elements however
# many cells there are. 1 << 16 f64 elements are 512 KiB per intermediate:
# the default 81-cell grid's test metric and minibatch gradient take one
# chunk each and its full-batch loss two (17, 5 and 3 chunks at 1 << 13),
# for 0.5 MB more peak RSS. At 1 << 17 the loss takes one chunk, but its
# 81 x 180 x 8 hidden activations alone are 0.93 MB, and the grid's peak RSS
# rose by 1.0 MB. A chunk holds at least one cell. Not to be confused with
# ``numerics._BLOCK``, the block of an optimizer step and of a large
# quadratic gradient.
_CHUNK = 1 << 16

# numpy adds fewer than this many elements left to right, and pairwise from
# this many on; it is a fact of numpy's sum, not a setting.
_PAIRWISE_MIN = 8


def _last_axis(ufunc, z: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(z, axis=-1)``, bit for bit, for ``np.add`` or
    ``np.maximum``. numpy reduces a short last axis one output at a time; a
    last axis of 2 to ``_PAIRWISE_MIN - 1`` entries is folded column by
    column instead, left to right as numpy adds them, one call a column."""
    if not 2 <= z.shape[-1] < _PAIRWISE_MIN:
        return ufunc.reduce(z, axis=-1)
    out = ufunc(z[..., 0], z[..., 1])
    for c in range(2, z.shape[-1]):
        ufunc(out, z[..., c], out=out)
    return out


# Rows from which a 2-wide last axis is handled one column at a time.
# numpy's elementwise calls and argmax loop over such an axis one row at a
# time. Measured on a 2-vCPU Xeon (numpy 2.4): columns cost about the same
# as numpy's own call at 1024 rows, a third to a half of it at the default
# grid's 81 x 180 rows, and two to three times as much at one cell's 32 to
# 180 rows. With 3 to 7 columns they were slower up to 2048 rows, and
# argmax by columns slower at every row count.
_COLUMN_ROWS = 1024


def _two_columns(z: np.ndarray) -> bool:
    """Whether ``_by_columns`` and ``_argmax_last`` go by columns for ``z``."""
    return z.shape[-1] == 2 and z.size >= 2 * _COLUMN_ROWS


def _by_columns(ufunc, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``ufunc(a, b, out=out)``, bit for bit, for arrays that broadcast to
    ``out``, where ``a`` has ``out``'s last axis; with ``_two_columns(out)``,
    one call a column. A ``b`` with a last axis of one entry goes against
    both columns."""
    if not _two_columns(out):
        return ufunc(a, b, out=out)
    for c in (0, 1):
        ufunc(a[..., c], b[..., 0 if b.shape[-1] == 1 else c], out=out[..., c])
    return out


def _argmax_last(z: np.ndarray) -> np.ndarray:
    """``z.argmax(axis=-1)``: the index of each row's first maximum, or of
    its first NaN if it has one; with ``_two_columns(z)``, from the two
    columns. numpy moves to the second entry where it is not ``<=`` the
    first, unless the first is NaN."""
    if not _two_columns(z):
        return z.argmax(axis=-1)
    first, second = z[..., 0], z[..., 1]
    return (~(second <= first) & (first == first)).astype(np.intp)


def _over_cells(fn, width: int, n_rows: int):
    """Lift ``fn(theta, batch)``, written for a (..., dim) f64 array and
    returning one result per vector, to the ``Problem`` calling convention.

    A 1-D parameter vector, or the row of a one-row stack, goes to ``fn`` as
    it is: no cells axis, so 2-D activations. A per-vector scalar comes back
    a float for a vector. Only a real stack is cut into chunks, and each of
    its rows gives bit for bit its vector's numbers; a cell's largest
    intermediate holds ``width`` values per data row, of the batch or of all
    ``n_rows`` when ``batch`` is None, and sets how many cells make a chunk.
    """
    def lifted(theta, batch=None):
        arr = np.asarray(theta, dtype=np.float64)
        if arr.ndim == 1:
            out = fn(arr, batch)
            return float(out) if out.ndim == 0 else out
        if len(arr) == 1:
            return fn(arr[0], batch)[None]
        step = max(1, _CHUNK // (width * (n_rows if batch is None else batch.size)))
        if len(arr) <= step:
            return fn(arr, batch)
        return np.concatenate([fn(arr[lo:lo + step], batch)
                               for lo in range(0, len(arr), step)])
    return lifted


def _dataset_problem(name: str, dataset: Dataset, dim: int, width: int, loss, grad,
                     test_metric, init_theta) -> Problem:
    """A ``Problem`` over ``dataset`` from functions written for a (..., dim)
    array, each lifted by ``_over_cells`` with ``width`` values per data row;
    without test rows there is no test metric."""
    n_test = dataset.test_idx.size
    return Problem(name=name, dim=dim, loss=_over_cells(loss, width, dataset.n_train),
                   grad=_over_cells(grad, width, dataset.n_train), init_theta=init_theta,
                   test_metric=_over_cells(test_metric, width, n_test) if n_test else None,
                   dataset=dataset)


def _per_cell_float(theta: np.ndarray, out):
    """A per-cell scalar as the 1-D convention wants it: a float for one
    parameter vector, the (cells,) array for a stack."""
    return float(out) if theta.ndim == 1 else out


# The quadratic and Rosenbrock objectives are elementwise over the last axis,
# so they take a vector or a stack as it is, with no chunks: no intermediate
# is larger than the parameters.


def _quadratic(spectrum) -> Problem:
    a = np.asarray(spectrum, dtype=np.float64).reshape(-1)
    if a.size == 0 or not np.all((a > 0) & np.isfinite(a)):
        raise ContractViolation("quadratic spectrum must be positive and finite")

    def loss(theta, batch=None):
        theta = np.asarray(theta, dtype=np.float64)
        return _per_cell_float(theta, 0.5 * (a * theta * theta).sum(axis=-1))

    if a.size <= _SHARED:
        def grad(theta, batch=None):
            return a * np.asarray(theta, dtype=np.float64)
    else:
        # Shared with the block runner's worker thread: one new output, and
        # no whole-array f64 copy of the input (``_scaled_blocks``).
        def grad(theta, batch=None):
            x = np.asarray(theta)
            out = np.empty(np.broadcast_shapes(a.shape, x.shape))
            share_blocks(_scaled_blocks, a.size, a, np.broadcast_to(x, out.shape), out)
            return out

    def init_theta(rng):
        return rng.standard_normal(a.size)

    return Problem(name="quadratic", dim=a.size, loss=loss, grad=grad, init_theta=init_theta)


def _scaled_blocks(job):
    """``out = a * x`` in f64 on the column blocks ``share_blocks`` hands
    out, bit for bit as ``a * np.asarray(x, np.float64)``: numpy widens an
    f32 ``x`` to f64 exactly, a block at a time."""
    blocks, a, x, out = job
    for lo, hi in blocks:
        np.multiply(a[lo:hi], x[..., lo:hi], out[..., lo:hi])


def _rosenbrock(dim: int = 2) -> Problem:
    if dim < 2:
        raise ContractViolation("rosenbrock needs dim >= 2")

    def loss(theta, batch=None):
        x = np.asarray(theta, dtype=np.float64)
        head, tail = x[..., :-1], x[..., 1:]
        return _per_cell_float(x, (100.0 * (tail - head ** 2) ** 2
                                   + (1.0 - head) ** 2).sum(axis=-1))

    def grad(theta, batch=None):
        x = np.asarray(theta, dtype=np.float64)
        head, tail = x[..., :-1], x[..., 1:]
        gap = tail - head ** 2
        g = np.zeros_like(x)
        g[..., :-1] = -400.0 * head * gap - 2.0 * (1.0 - head)
        g[..., 1:] += 200.0 * gap
        return g

    def init_theta(rng):
        theta0 = np.ones(dim)
        theta0[::2] = -1.2
        return theta0

    return Problem(name="rosenbrock", dim=dim, loss=loss, grad=grad, init_theta=init_theta)


def _sigmoid(x):
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so that
    # exp never overflows.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _logistic_regression(dataset: Dataset) -> Problem:
    if not np.isin(dataset.labels, (0.0, 1.0)).all():
        raise ContractViolation("logistic_regression needs labels in {0, 1}")
    d = dataset.dim
    x_train, y_train = dataset.train_xy()
    # Each margin is taken with the sign -1 for label 1 and +1 for label 0,
    # negated once here (exactly) and not on every call.
    flip = -(2.0 * y_train - 1.0)

    def _margins(x, theta):
        # One gemv per cell: a single (cells, d) @ (d, n) gemm would round
        # differently from the 1-D call's gemv.
        return (x @ theta[..., :d, None])[..., 0] + theta[..., d, None]

    def _batch(batch):
        # The features are gathered on their own, contiguous: OpenBLAS's
        # gemv rounds a strided view of wider rows differently.
        if batch is None:
            return x_train, flip
        return x_train.take(batch, 0), flip.take(batch)

    def loss(theta, batch):
        x, f = _batch(batch)
        return np.logaddexp(0.0, f * _margins(x, theta)).sum(axis=-1) / f.size

    def grad(theta, batch):
        x, f = _batch(batch)
        z = _margins(x, theta)
        dz = f * _sigmoid(f * z) / z.shape[-1]
        g = np.empty(theta.shape)
        np.matmul(x.T, dz[..., None], out=g[..., :d, None])
        np.add.reduce(dz, axis=-1, out=g[..., d])
        return g

    x_test, y_test = dataset.test_xy()

    def test_metric(theta, batch):
        hits = (_margins(x_test, theta) > 0) == (y_test > 0.5)
        return hits.sum(axis=-1) / hits.shape[-1]

    def init_theta(rng):
        return 0.1 * rng.standard_normal(d + 1)

    return _dataset_problem("logistic_regression", dataset, d + 1, 1, loss, grad, test_metric,
                            init_theta)


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
            self.slices.append((w, b, (fan_in, fan_out)))
        self.dim = offset

    def unpack(self, theta):
        """Per-layer (W, b) views of a (..., dim) array: W is
        (..., fan_in, fan_out) and b is (..., 1, fan_out)."""
        lead = theta.shape[:-1]
        return [(theta[..., w].reshape(lead + shape), theta[..., None, b])
                for w, b, shape in self.slices]


ACTIVATIONS = ("tanh", "relu")


def _tiny_mlp(dataset: Dataset, hidden=(8,), activation: str = "tanh") -> Problem:
    if activation not in ACTIVATIONS:
        raise ContractViolation(f"unknown activation {activation!r}")
    y = dataset.labels
    if not np.all(np.isfinite(y) & (y >= 0) & (y == np.round(y))):
        raise ContractViolation("tiny_mlp needs non-negative integer class labels")
    x_train, y_train = dataset.train_xy()
    labels = y_train.astype(np.int64)
    # Over every label, so that a class seen only in the test split has a logit.
    n_classes = int(y.max(initial=1)) + 1
    widths = [dataset.dim, *hidden, n_classes]
    if any(w <= 0 for w in widths):
        raise ContractViolation("layer widths must be positive")
    layout = _MlpLayout(widths)
    widest = max(widths[1:])
    tanh = activation == "tanh"

    def _forward(params, x):
        """Every layer's output: ``x`` first, the logits last. One gemm per
        cell, as ``x @ W`` broadcasts the shared rows over the cells (one in
        all for a vector, which has no cells axis). The logits' bias may go
        on by columns (``_by_columns``); a hidden layer's stays a broadcast,
        which was faster at width 8."""
        acts = [x]
        for w, b in params[:-1]:
            z = acts[-1] @ w
            z += b
            if tanh:
                np.tanh(z, out=z)
            else:
                np.maximum(z, 0.0, out=z)
            acts.append(z)
        w, b = params[-1]
        z = acts[-1] @ w
        acts.append(_by_columns(np.add, z, b, out=z))
        return acts

    all_rows = np.arange(labels.size)  # the full batch's row index, built once
    # One 1.0 per row, at its label, in (rows, classes) values:
    # np.eye(n_classes)[labels] would first build n_classes ** 2 of them.
    one_hot = np.zeros((labels.size, n_classes))
    one_hot[all_rows, labels] = 1.0

    def loss(theta, batch):
        if batch is None:
            x, y, rows = x_train, labels, all_rows
        else:
            x, y, rows = x_train.take(batch, 0), labels.take(batch), np.arange(batch.size)
        logits = _forward(layout.unpack(theta), x)[-1]
        shifted = _by_columns(np.subtract, logits, _last_axis(np.maximum, logits)[..., None],
                              out=logits)
        logz = np.log(_last_axis(np.add, np.exp(shifted)))
        return (logz - shifted[..., rows, y]).sum(axis=-1) / y.size

    def grad(theta, batch):
        # The labels only as one-hot rows, their one use here; x is gathered
        # on its own, contiguous, as in logistic regression's ``_batch`` (a
        # product with d = 1 or a layer of width 1 goes through gemv).
        if batch is None:
            x, y_hot = x_train, one_hot
        else:
            x, y_hot = x_train.take(batch, 0), one_hot.take(batch, 0)
        params = layout.unpack(theta)
        acts = _forward(params, x)
        z = acts[-1]  # the logits, shifted, exponentiated and normalized in place
        _by_columns(np.subtract, z, _last_axis(np.maximum, z)[..., None], out=z)
        np.exp(z, out=z)
        delta = _by_columns(np.divide, z, _last_axis(np.add, z)[..., None], out=z)  # softmax
        delta -= y_hot  # minus 1 at each row's label, minus 0 elsewhere: exact
        delta /= len(y_hot)

        # Each layer's gradient is written straight into its slices of g, and
        # a hidden layer's activations, read for the last time, become its
        # derivative in place. acts[0] is x, the training rows themselves.
        g = np.empty(theta.shape)
        lead = theta.shape[:-1]
        for i in range(len(params) - 1, -1, -1):
            w_sl, b_sl, shape = layout.slices[i]
            np.matmul(acts[i].swapaxes(-1, -2), delta, out=g[..., w_sl].reshape(lead + shape))
            np.add.reduce(delta, axis=-2, out=g[..., b_sl])
            if i > 0:
                upstream = delta @ params[i][0].swapaxes(-1, -2)
                a = acts[i]
                if tanh:  # upstream * (1 - a**2)
                    np.multiply(a, a, out=a)
                    np.subtract(1.0, a, out=a)
                    delta = np.multiply(upstream, a, out=upstream)
                else:  # relu: its output is > 0 exactly where its input is
                    delta = np.multiply(upstream, a > 0, out=upstream)
        return g

    x_test, y_test = dataset.test_xy()
    test_labels = y_test.astype(np.int64)

    def test_metric(theta, batch):
        logits = _forward(layout.unpack(theta), x_test)[-1]
        return (_argmax_last(logits) == test_labels).sum(axis=-1) / test_labels.size

    def init_theta(rng):
        theta0 = np.zeros(layout.dim)
        for w_sl, _, (fan_in, fan_out) in layout.slices:
            lim = 1.0 / np.sqrt(fan_in)
            theta0[w_sl] = rng.uniform(-lim, lim, fan_in * fan_out)
        return theta0

    return _dataset_problem("tiny_mlp", dataset, layout.dim, widest, loss, grad, test_metric,
                            init_theta)


# Every problem kind, and the keyword arguments ``make_problem`` takes for it.
_KEYWORDS = {"quadratic": {"spectrum"}, "rosenbrock": {"dim"},
             "logistic_regression": {"dataset"}, "tiny_mlp": {"dataset", "hidden", "activation"}}
PROBLEM_KINDS = tuple(_KEYWORDS)


def make_problem(kind: str, **params) -> Problem:
    """Build one of the shipped objectives.

    quadratic            spectrum=[positive eigenvalues]
    rosenbrock           dim=2
    logistic_regression  dataset=Dataset
    tiny_mlp             dataset=Dataset, hidden=(8,), activation="tanh"|"relu"

    A keyword argument that the kind does not take raises ``ContractViolation``.
    """
    if kind not in _KEYWORDS:
        raise ContractViolation(f"unknown problem kind {kind!r}")
    stray = sorted(params.keys() - _KEYWORDS[kind])
    if stray:
        raise ContractViolation(f"{kind} takes no keyword argument {', '.join(stray)}")
    if kind == "quadratic":
        return _quadratic(params.get("spectrum", (1.0, 10.0)))
    if kind == "rosenbrock":
        return _rosenbrock(params.get("dim", 2))
    dataset = params.get("dataset")
    if dataset is None:
        raise ContractViolation(f"{kind} needs dataset=")
    if kind == "tiny_mlp":
        return _tiny_mlp(dataset, params.get("hidden", (8,)), params.get("activation", "tanh"))
    return _logistic_regression(dataset)


def shipped_problems(seed: int = 7) -> list[Problem]:
    """The canonical instances every standing verification suite runs over."""
    data = generate_synthetic("two_gaussians", n=200, dim=2, seed=seed)
    return [
        make_problem("quadratic", spectrum=(1.0, 10.0)),
        make_problem("rosenbrock", dim=2),
        make_problem("logistic_regression", dataset=data),
        make_problem("tiny_mlp", dataset=data, hidden=(8,), activation="tanh"),
    ]
