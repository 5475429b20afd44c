"""Objectives, datasets, samplers and their standing gradient checks."""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from innaprop.errors import ConfigError, ContractViolation, ParseError
from innaprop.harness.checks import gradient_fidelity
from innaprop.harness.config import build_problem, load_preset, parse_config_dict
from innaprop.harness.runner import run_experiment
import innaprop.numerics as numerics
import innaprop.problems as problems
from innaprop.numerics import _BLOCK, ParamVector, RngStream
from innaprop.problems import (
    _CHUNK,
    MiniBatchSampler,
    _COLUMN_ROWS,
    _argmax_last,
    _by_columns,
    _last_axis,
    _two_columns,
    generate_synthetic,
    load_csv_dataset,
    make_problem,
    shipped_problems,
)


class TestQuadratic:
    def test_loss_and_grad_values(self):
        prob = make_problem("quadratic", spectrum=(1.0, 10.0))
        assert prob.loss(np.array([1.0, 1.0])) == pytest.approx(5.5, abs=1e-15)
        np.testing.assert_array_equal(prob.grad(np.array([1.0, 1.0])), [1.0, 10.0])
        assert prob.loss(np.zeros(2)) == 0.0

    @pytest.mark.parametrize("bad", [-2.0, 0.0, np.nan, np.inf])
    def test_spectrum_must_be_positive_and_finite(self, bad):
        with pytest.raises(ContractViolation):
            make_problem("quadratic", spectrum=(1.0, bad))


class TestLargeQuadraticGrad:
    """Above two blocks the quadratic's gradient is filled block by block
    through ``numerics.share_blocks``, with the bits of ``a * x`` in f64."""

    @staticmethod
    def problem_and_point(dim, precision, rows, seed=5):
        rng = RngStream(dim, seed).generator()
        prob = make_problem("quadratic", spectrum=rng.uniform(0.5, 50.0, dim))
        x = rng.standard_normal((rows, dim) if rows else dim).astype(precision)
        return prob, x

    @pytest.mark.parametrize("threads", ["serial", "shared"])
    @pytest.mark.parametrize("rows", [0, 3], ids=["vector", "stack"])
    @pytest.mark.parametrize("precision", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("dim", [2 * _BLOCK + 1, 4 * _BLOCK + 3, 10**6])
    def test_bits_of_the_whole_array_product(self, dim, precision, rows, threads, sharing,
                                             monkeypatch):
        if threads == "serial":
            monkeypatch.setattr(numerics, "_block_pool", lambda: None)
        prob, x = self.problem_and_point(dim, precision, rows)
        a = prob.grad(np.ones(dim))
        g = prob.grad(x)
        expected = a * np.asarray(x, np.float64)
        assert g.dtype == np.float64 and g.shape == x.shape
        assert g.tobytes() == expected.tobytes()
        # The Gate hands the worker the first block and the caller the next.
        assert {by_caller for _, by_caller in sharing.taken} == (
            set() if threads == "serial" else {True, False})

    def test_at_most_two_blocks_never_reach_the_block_runner(self, monkeypatch):
        monkeypatch.setattr(problems, "share_blocks", None)
        prob, x = self.problem_and_point(2 * _BLOCK, np.float64, 3)
        assert prob.grad(x).tobytes() == (prob.grad(np.ones(2 * _BLOCK)) * x).tobytes()

    def test_overflow_follows_the_callers_errstate(self, sharing):
        # The worker takes the first block, where a * x overflows.
        prob, x = self.problem_and_point(10**6, np.float64, 0)
        x[7] = 1e308 / prob.grad(np.ones(10**6))[7] * 4.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise"):
                with pytest.raises(FloatingPointError, match="overflow"):
                    prob.grad(x)
            with np.errstate(over="ignore"):
                g = prob.grad(x)
        assert np.isposinf(g[7]) and np.count_nonzero(np.isfinite(g)) == g.size - 1
        assert (0, False) in sharing.taken

    @pytest.mark.parametrize("precision", [np.float32, np.float64], ids=["f32", "f64"])
    def test_allocates_only_its_output(self, precision):
        # No whole-array f64 copy of an f32 input: one f64 output, numpy's
        # cast buffer of getbufsize() f64 elements (64 KiB) in each thread
        # that runs blocks of an f32 input, and small change.
        prob, x = self.problem_and_point(10**6, precision, 0)
        prob.grad(x)  # the pool, if any, is made before measuring
        tracemalloc.start()
        try:
            g = prob.grad(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cast = 0 if precision is np.float64 else 2 * np.getbufsize() * 8
        assert peak <= g.nbytes + cast + 16 * 1024


class TestRosenbrock:
    def test_needs_two_dims(self):
        with pytest.raises(ContractViolation):
            make_problem("rosenbrock", dim=1)

    def test_global_minimum(self):
        prob = make_problem("rosenbrock", dim=2)
        assert prob.loss(np.array([1.0, 1.0])) == 0.0
        np.testing.assert_array_equal(prob.grad(np.array([1.0, 1.0])), [0.0, 0.0])

    def test_nonnegative_and_unique_zero_on_million_probes(self):
        prob = make_problem("rosenbrock", dim=2)
        rng = RngStream(13, 0).generator()
        x = rng.uniform(-2.0, 2.0, size=(1_000_000, 2))
        # Independent vectorized evaluation of the same surface.
        vals = 100.0 * (x[:, 1] - x[:, 0] ** 2) ** 2 + (1.0 - x[:, 0]) ** 2
        assert np.all(vals >= 0.0)
        assert np.min(vals) > 0.0
        sample = rng.integers(0, len(x), 100)
        for i in sample:
            assert prob.loss(x[i]) == pytest.approx(vals[i], rel=1e-12)

    def test_higher_dimensional_gradient(self):
        prob = make_problem("rosenbrock", dim=5)
        from innaprop.numerics import fd_gradient

        point = RngStream(14, 0).generator().uniform(-2, 2, 5)
        fd = fd_gradient(prob, ParamVector(point)).data
        an = prob.grad(point)
        assert np.max(np.abs(fd - an)) / np.max(np.abs(an)) < 1e-6

    @pytest.mark.parametrize("shape", [(2,), (5,), (3, 2), (4, 5)])
    def test_gradient_bytes_match_the_two_expression_formula(self, shape):
        # The gradient as written before ``tail - head**2`` was computed once
        # per call: the same ufuncs on the same operands give the same bytes.
        x = RngStream(15, shape[-1]).generator().uniform(-2.0, 2.0, shape)
        head, tail = x[..., :-1], x[..., 1:]
        want = np.zeros_like(x)
        want[..., :-1] = -400.0 * head * (tail - head ** 2) - 2.0 * (1.0 - head)
        want[..., 1:] += 200.0 * (tail - head ** 2)
        got = make_problem("rosenbrock", dim=shape[-1]).grad(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestGradientFidelity:
    def test_all_shipped_problems(self):
        worst = gradient_fidelity(n_points=100)
        assert set(worst) == {"quadratic", "rosenbrock", "logistic_regression", "tiny_mlp"}
        for name, err in worst.items():
            assert err < 1e-6, f"{name}: {err}"

    def test_mlp_validates_architecture(self):
        data = generate_synthetic("two_gaussians", n=20, dim=2, seed=0)
        with pytest.raises(ContractViolation):
            make_problem("tiny_mlp", dataset=data, hidden=(0,))
        with pytest.raises(ContractViolation):
            make_problem("tiny_mlp", dataset=data, activation="swish")

    def test_relu_mlp_at_kink_free_point(self):
        data = generate_synthetic("two_gaussians", n=80, dim=2, seed=5)
        prob = make_problem("tiny_mlp", dataset=data, hidden=(6,), activation="relu")
        from innaprop.numerics import fd_gradient

        point = 0.5 * RngStream(15, 0).generator().standard_normal(prob.dim)
        fd = fd_gradient(prob, ParamVector(point), h=1e-6).data
        an = prob.grad(point)
        assert np.max(np.abs(fd - an)) / max(np.max(np.abs(an)), 1e-12) < 1e-4


class TestSyntheticData:
    def test_two_gaussians_deterministic(self):
        a = generate_synthetic("two_gaussians", n=200, dim=3, seed=7)
        b = generate_synthetic("two_gaussians", n=200, dim=3, seed=7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_two_gaussians_balanced_within_one(self):
        for n in (200, 201):
            data = generate_synthetic("two_gaussians", n=n, dim=2, seed=3)
            ones = int(np.sum(data.labels))
            assert abs(ones - (n - ones)) <= 1

    def test_bayes_separator_accuracy(self):
        # Means 6 sigma apart: a logistic model fit by plain full-batch
        # gradient descent (the oracle) scores > 99% train accuracy.
        data = generate_synthetic("two_gaussians", n=200, dim=2, seed=7, separation=6.0)
        prob = make_problem("logistic_regression", dataset=data)
        theta = np.zeros(prob.dim)
        for _ in range(800):
            theta = theta - 0.5 * prob.grad(theta)
        x, y = data.train_xy()
        z = x @ theta[:-1] + theta[-1]
        train_acc = np.mean((z > 0) == (y > 0.5))
        assert train_acc > 0.99

    def test_split_disjoint(self):
        data = generate_synthetic("two_gaussians", n=100, dim=2, seed=1, split_fraction=0.7)
        assert data.n_train == 70
        assert len(np.intersect1d(data.train_idx, data.test_idx)) == 0

    @pytest.mark.parametrize("kind", ["spiral", "linear_regression"])
    def test_unknown_kind(self, kind):
        with pytest.raises(ContractViolation, match="unknown synthetic dataset kind"):
            generate_synthetic(kind, n=10, dim=2, seed=0)


class TestCsvLoading:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_four_row_even_split(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n1,2,0\n3,4,1\n5,6,0\n7,8,1\n")
        d1 = load_csv_dataset(path, "y", split_fraction=0.5, seed=0)
        d2 = load_csv_dataset(path, "y", split_fraction=0.5, seed=0)
        assert d1.n_train == 2
        assert np.array_equal(d1.train_idx, d2.train_idx)
        assert d1.dim == 2

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n1,2,0\n3,oops,1\n")
        with pytest.raises(ParseError, match=r"row 3.*'b'"):
            load_csv_dataset(path, "y")

    @pytest.mark.parametrize("cell,row,column", [("nan", 3, "b"), ("inf", 2, "a"),
                                                 ("-inf", 3, "y"), (" NaN ", 2, "y"),
                                                 ("Infinity", 3, "a")])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell, row, column):
        cells = [["1", "2", "0"], ["3", "4", "1"]]
        cells[row - 2]["aby".index(column)] = cell
        path = self._write(tmp_path, "a,b,y\n" + "".join(",".join(r) + "\n" for r in cells))
        with pytest.raises(ParseError, match=rf"row {row}, column '{column}': non-finite"):
            load_csv_dataset(path, "y")

    def test_missing_label_column(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ConfigError, match="label column"):
            load_csv_dataset(path, "target")

    @pytest.mark.parametrize("header,column", [("a,y,y", "y"), ("a,a,y", "a"),
                                               ("a, y,y ", "y")])
    def test_repeated_column_name_is_rejected(self, tmp_path, header, column):
        # A repeated label name would train on the label as a feature.
        path = self._write(tmp_path, f"{header}\n1,0,0\n2,1,1\n")
        with pytest.raises(ParseError, match=f"column '{column}' appears twice"):
            load_csv_dataset(path, "y")

    def test_ragged_row(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n1,2,0\n1,2\n")
        with pytest.raises(ParseError, match="row 3"):
            load_csv_dataset(path, "y")

    def test_class_seen_only_in_test_split_has_a_logit(self, tmp_path):
        labels = [i % 2 for i in range(19)] + [2]
        path = self._write(tmp_path, "a,b,y\n" + "".join(
            f"{0.1 * i},{1.0 - 0.05 * i},{y}\n" for i, y in enumerate(labels)))
        data = load_csv_dataset(path, "y", split_fraction=0.75, seed=1)
        assert 19 in data.test_idx and 2.0 not in data.labels[data.train_idx]
        # 2 -> 4 -> 3: 2*4 + 4 weights and biases, then 4*3 + 3
        assert make_problem("tiny_mlp", dataset=data, hidden=(4,)).dim == 27


class TestSamplerAndBatches:
    def test_full_ordered_batch_equals_full_gradient_exactly(self):
        data = generate_synthetic("two_gaussians", n=64, dim=2, seed=2)
        prob = make_problem("logistic_regression", dataset=data)
        theta = 0.3 * RngStream(16, 0).generator().standard_normal(prob.dim)
        full = prob.grad(theta)
        ordered = prob.grad(theta, np.arange(data.n_train))
        assert np.array_equal(full, ordered)

    def test_full_gradient_is_mean_of_singletons(self):
        data = generate_synthetic("two_gaussians", n=40, dim=2, seed=2)
        prob = make_problem("tiny_mlp", dataset=data, hidden=(4,))
        theta = 0.3 * RngStream(17, 0).generator().standard_normal(prob.dim)
        singles = np.mean([prob.grad(theta, np.array([i])) for i in range(data.n_train)], axis=0)
        full = prob.grad(theta)
        assert np.max(np.abs(singles - full)) < 1e-12

    def test_duplicated_example_same_gradient(self):
        # A dataset holding the same example twice yields identical
        # single-example gradients for the two copies.
        from innaprop.problems import Dataset

        features = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, -1.0], [3.0, 0.5]])
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        data = Dataset(features=features, labels=labels,
                       train_idx=np.arange(4), test_idx=np.array([], dtype=int))
        prob = make_problem("logistic_regression", dataset=data)
        theta = 0.3 * RngStream(19, 0).generator().standard_normal(prob.dim)
        g1 = prob.grad(theta, np.array([0]))
        g2 = prob.grad(theta, np.array([1]))
        assert np.array_equal(g1, g2)

    def test_shuffled_epoch_visits_every_example_once(self):
        sampler = MiniBatchSampler(10, 3, "shuffled-epoch", RngStream(4, 0))
        seen = np.concatenate([sampler.next_batch() for _ in range(4)])
        assert sorted(seen.tolist()) == list(range(10))
        assert sampler.epoch == 1

    def test_fixed_seed_identical_batch_sequence(self):
        runs = []
        for _ in range(2):
            sampler = MiniBatchSampler(32, 8, "shuffled-epoch", RngStream(5, 1))
            runs.append([sampler.next_batch().tolist() for _ in range(12)])
        assert runs[0] == runs[1]

    def test_iid_with_replacement_deterministic(self):
        a = MiniBatchSampler(32, 8, "iid-with-replacement", RngStream(6, 0))
        b = MiniBatchSampler(32, 8, "iid-with-replacement", RngStream(6, 0))
        for _ in range(5):
            assert np.array_equal(a.next_batch(), b.next_batch())


class TestStackedCells:
    """A (cells, dim) stack is evaluated in one call, bit for bit as each of
    its rows on its own, whether its cells take one chunk of the stacked
    evaluation or several. At one cell this holds a one-row stack to its
    vector: both are evaluated without a cells axis."""

    # The shipped problems, then tiny_mlp on a 3-class and a 9-class CSV: 3
    # logits are reduced a column at a time, 9 by numpy's own reduction;
    # last a relu tiny_mlp with two hidden layers on the 3-class CSV.
    CASES = ("quadratic", "rosenbrock", "logistic_regression", "tiny_mlp",
             "tiny_mlp_3_classes", "tiny_mlp_9_classes", "tiny_mlp_relu_3_classes")

    @classmethod
    def _problem(cls, class_csv, name):
        index = cls.CASES.index(name)
        if index < 4:
            return shipped_problems()[index]
        dataset = load_csv_dataset(class_csv(int(name.split("_")[-2])), "y")
        if "relu" in name:
            return make_problem("tiny_mlp", dataset=dataset, hidden=(8, 5), activation="relu")
        return make_problem("tiny_mlp", dataset=dataset)

    @staticmethod
    def _assert_rows(problem, theta, batches):
        cells = len(theta)
        for batch in batches:
            losses, grads = problem.loss(theta, batch), problem.grad(theta, batch)
            assert losses.shape == (cells,) and grads.shape == (cells, problem.dim)
            for row, loss, g in zip(theta, losses, grads):
                one = problem.loss(row, batch)
                assert type(one) is float
                assert np.float64(one).tobytes() == loss.tobytes()
                assert problem.grad(row, batch).tobytes() == g.tobytes()
        if problem.test_metric is not None:
            metrics = problem.test_metric(theta)
            assert metrics.shape == (cells,)
            assert [problem.test_metric(row) for row in theta] == metrics.tolist()

    @pytest.mark.parametrize("cells", [1, 3, 81])
    @pytest.mark.parametrize("name", CASES)
    def test_stack_equals_row_by_row(self, class_csv, name, cells):
        problem = self._problem(class_csv, name)
        rng = RngStream(cells, self.CASES.index(name)).generator()
        theta = 0.7 * rng.standard_normal((cells, problem.dim))
        batches = [None]
        if problem.dataset is not None:
            batches.append(rng.integers(0, problem.dataset.n_train, 32))
        self._assert_rows(problem, theta, batches)

    # sha256 over run.csv in f32 then f64 for runs no shipped preset covers,
    # recorded before a vector was evaluated without a cells axis: a relu
    # tiny_mlp with minibatches on the 3-class CSV, and a full-batch
    # logistic regression.
    RUN_CSV = {
        "tiny_mlp_relu_3_classes": (
            {"problem": "tiny_mlp", "activation": "relu", "hidden": [8, 5],
             "label_column": "y", "batch_size": 16, "alpha": 0.5, "beta": 0.5, "lr": 0.01,
             "steps": 60, "log_every": 4},
            "29828822a38a379498f0493bbc44c550483d6e2d4f047b86749801c471848839"),
        "logistic_full_batch": (
            {"problem": "logistic_regression", "dataset": "two_gaussians", "dim": 3,
             "n_samples": 120, "separation": 2.0, "alpha": 0.5, "beta": 0.5, "lr": 0.05,
             "steps": 60, "log_every": 4},
            "9df2f0b6d847213a82fdcb201a3083bdff6d1c3a3e81f9b16d5b42cb93fdd3f8"),
    }

    @pytest.mark.parametrize("name", sorted(RUN_CSV))
    def test_run_csv_pinned(self, tmp_path, class_csv, name):
        raw, want = self.RUN_CSV[name]
        if raw["problem"] == "tiny_mlp":
            raw = {**raw, "dataset": str(class_csv(3))}
        digest = hashlib.sha256()
        for precision in ("f32", "f64"):
            out = tmp_path / precision
            run_experiment(parse_config_dict({**raw, "precision": precision}), out_dir=out)
            digest.update((out / "run.csv").read_bytes())
        assert digest.hexdigest() == want

    def test_stack_over_several_chunks(self):
        # The shipped tiny_mlp's full-batch loss and gradient hold 8 hidden
        # units x 150 training rows = 1200 elements a cell, so a chunk takes
        # _CHUNK // 1200 cells: one cell more than three chunks' worth spans
        # four chunks.
        problem = shipped_problems()[3]
        assert problem.dataset.n_train == 150
        cells = 3 * (_CHUNK // (8 * 150)) + 1
        theta = 0.7 * RngStream(cells, 3).generator().standard_normal((cells, problem.dim))
        self._assert_rows(problem, theta, [None])

    def test_stacked_loss_peak_is_bounded_by_the_chunk(self):
        # The default grid's problem: 8 hidden units x 180 training rows, so
        # a chunk takes 45 cells and their hidden activations are 0.5 MB of
        # f64. Unchunked, 400 cells' activations alone would be 4.6 MB.
        problem = build_problem(load_preset("cifar_small"))
        theta = 0.7 * RngStream(400, 4).generator().standard_normal((400, problem.dim))
        want = problem.loss(theta)
        tracemalloc.start()
        try:
            got = problem.loss(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak < 2**20

    def test_f32_stack_evaluated_in_f64(self):
        problem = shipped_problems()[3]
        theta = RngStream(3, 1).generator().standard_normal((3, problem.dim))
        low = theta.astype(np.float32)
        np.testing.assert_array_equal(problem.grad(low), problem.grad(low.astype(np.float64)))


def reference_mlp_grad(theta, x, labels, widths, activation):
    """The tiny_mlp gradient written plainly: contiguous rows, a fresh array
    for every intermediate, the same ufuncs in the same order. numpy's own
    max and sum give the bits of ``_last_axis`` (``TestLastAxis``)."""
    params, offset = [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        w = theta[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        params.append((w, theta[None, offset:offset + fan_out]))
        offset += fan_out
    acts = [x]
    for i, (w, b) in enumerate(params):
        z = acts[-1] @ w + b
        if i < len(params) - 1:
            z = np.tanh(z) if activation == "tanh" else np.maximum(z, 0.0)
        acts.append(z)
    shifted = acts[-1] - acts[-1].max(axis=-1)[:, None]
    ez = np.exp(shifted)
    delta = (ez / ez.sum(axis=-1)[:, None] - np.eye(widths[-1])[labels]) / labels.size
    parts = []  # each layer's (W, b) gradient, last layer first
    for i in reversed(range(len(params))):
        parts[:0] = [(acts[i].T @ delta).reshape(-1), delta.sum(axis=0)]
        if i > 0:
            upstream = delta @ params[i][0].T
            if activation == "tanh":
                delta = upstream * (1.0 - acts[i] ** 2)
            else:
                delta = upstream * (acts[i] > 0)
    return np.concatenate(parts)


def reference_logistic_grad(theta, x, labels):
    d = x.shape[1]
    s = 2.0 * labels - 1.0
    z = x @ theta[:d] + theta[d]
    e = np.exp(-np.abs(-s * z))
    dz = -s * (np.where(-s * z >= 0, 1.0, e) / (1.0 + e)) / z.size
    return np.concatenate([x.T @ dz, [dz.sum()]])


class TestGradientBytes:
    """Each gradient gives the bytes of its plain reference, for one vector,
    full batch and minibatch, at the shapes where BLAS takes another path:
    one feature, a layer of width 1, no hidden layer, one-row batches."""

    @pytest.mark.parametrize("hidden", [(8,), (1,), (4, 1), (1, 3), ()])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_tiny_mlp(self, dim, activation, hidden):
        data = generate_synthetic("two_gaussians", n=90, dim=dim, seed=dim)
        problem = make_problem("tiny_mlp", dataset=data, hidden=hidden, activation=activation)
        x_train, y_train = data.train_xy()
        widths = [dim, *hidden, 2]
        rng = RngStream(dim, len(hidden)).generator()
        for batch in (None, rng.integers(0, data.n_train, 32), rng.integers(0, data.n_train, 1)):
            rows = slice(None) if batch is None else batch
            theta = 0.7 * rng.standard_normal(problem.dim)
            want = reference_mlp_grad(theta, x_train[rows], y_train[rows].astype(np.int64),
                                      widths, activation)
            assert problem.grad(theta, batch).tobytes() == want.tobytes()

    def test_tiny_mlp_many_classes(self):
        data = problems.Dataset(features=RngStream(4, 0).generator().standard_normal((90, 2)),
                                labels=np.arange(90) * 3.0, train_idx=np.arange(60),
                                test_idx=np.arange(60, 90))
        problem = make_problem("tiny_mlp", dataset=data, hidden=(4,))
        x_train, y_train = data.train_xy()
        rng = RngStream(4, 1).generator()
        for batch in (None, rng.integers(0, data.n_train, 32)):
            rows = slice(None) if batch is None else batch
            theta = 0.7 * rng.standard_normal(problem.dim)
            want = reference_mlp_grad(theta, x_train[rows], y_train[rows].astype(np.int64),
                                      [2, 4, 268], "tanh")
            assert problem.grad(theta, batch).tobytes() == want.tobytes()

    def test_one_hot_labels_hold_rows_times_classes(self):
        # 2,926 classes over 30 training rows: the build holds the 30 x 2,926
        # one-hot values (0.7 MB), not a 2,926 x 2,926 identity (68 MB).
        data = problems.Dataset(features=RngStream(5, 0).generator().standard_normal((40, 2)),
                                labels=np.arange(40) * 75.0, train_idx=np.arange(30),
                                test_idx=np.arange(30, 40))
        make_problem("tiny_mlp", dataset=data)
        tracemalloc.start()
        try:
            make_problem("tiny_mlp", dataset=data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30 * 2926 * 8 + 64 * 1024

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_logistic_regression(self, dim):
        data = generate_synthetic("two_gaussians", n=90, dim=dim, seed=dim)
        problem = make_problem("logistic_regression", dataset=data)
        x_train, y_train = data.train_xy()
        rng = RngStream(dim, 9).generator()
        for batch in (None, rng.integers(0, data.n_train, 32), rng.integers(0, data.n_train, 1)):
            rows = slice(None) if batch is None else batch
            theta = 0.7 * rng.standard_normal(problem.dim)
            want = reference_logistic_grad(theta, x_train[rows], y_train[rows])
            assert problem.grad(theta, batch).tobytes() == want.tobytes()


class TestLastAxis:
    """``_last_axis`` gives the bits of numpy's own last-axis reduction at
    every width: a column fold below 8 columns, numpy's reduce from 8 on."""

    @staticmethod
    def _same_bits(got, want):
        nan = np.isnan(want)
        assert got.shape == want.shape and np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("shape", [(1, 32), (5, 180), (81, 180)])
    @pytest.mark.parametrize("width", range(2, 13))
    def test_equals_numpy_reduce(self, width, shape):
        rng = RngStream(width, shape[0]).generator()
        # Rounded to one decimal, so that most rows hold ties; some signed
        # zeros and a NaN in about one entry in fifty.
        z = np.round(rng.standard_normal((*shape, width)), 1)
        z[rng.random(z.shape) < 0.05] = -0.0
        z[rng.random(z.shape) < 0.02] = np.nan
        self._same_bits(_last_axis(np.maximum, z), z.max(axis=-1))
        e = np.exp(z + rng.standard_normal(z.shape))
        self._same_bits(_last_axis(np.add, e), e.sum(axis=-1))


def class_axis_values(width, shape, seed):
    """A (*shape, width) array rounded to one decimal, so that most rows hold
    ties, with signed zeros, +-inf and NaN in a few entries each."""
    rng = RngStream(width, seed).generator()
    z = np.round(rng.standard_normal((*shape, width)), 1)
    z[rng.random(z.shape) < 0.05] = -0.0
    z[rng.random(z.shape) < 0.03] = np.inf
    z[rng.random(z.shape) < 0.03] = -np.inf
    z[rng.random(z.shape) < 0.02] = np.nan
    return z


class TestClassAxisByColumns:
    """The class-axis operations give numpy's own answer, bit for bit, at
    every width and row count: by columns for two classes and at least
    _COLUMN_ROWS rows, numpy's own call otherwise."""

    def test_columns_only_for_two_classes_and_many_rows(self):
        def columns(*shape):
            return _two_columns(np.empty(shape))
        assert columns(81, 60, 2) and columns(1, _COLUMN_ROWS, 2)
        assert not columns(1, 180, 2) and not columns(1, _COLUMN_ROWS - 1, 2)
        assert not any(columns(81, 60, width) for width in (1, *range(3, 13)))

    @pytest.mark.parametrize("shape", [(1, 32), (81, 60)])
    @pytest.mark.parametrize("width", range(2, 13))
    def test_argmax_equals_numpy(self, width, shape):
        z = class_axis_values(width, shape, shape[0])
        got = _argmax_last(z)
        assert got.dtype == np.intp and np.array_equal(got, z.argmax(axis=-1))

    @pytest.mark.parametrize("rows", [4, _COLUMN_ROWS])
    @pytest.mark.parametrize("width", range(2, 13))
    def test_argmax_first_nan_and_first_tie(self, width, rows):
        z = np.zeros((1, 4, width))
        z[0, 0, -1] = np.nan  # a NaN in the last column wins
        z[0, 1, 1:] = np.nan  # the first of several NaNs wins
        z[0, 2, [0, -1]] = np.inf  # the first of tied maxima wins
        z[0, 3, 1:] = -np.inf
        z[0, 3, -1] = np.nan  # a NaN wins over a larger value before it
        z = np.tile(z, (1, rows // 4, 1))
        want = [width - 1, 1, 0, width - 1] * (rows // 4)
        assert _argmax_last(z).tolist() == z.argmax(axis=-1).tolist() == [want]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("shape", [(1, 32), (81, 60)])
    @pytest.mark.parametrize("width", range(2, 13))
    def test_broadcast_ops_equal_numpy(self, width, shape):
        z = class_axis_values(width, shape, 7)
        bias = class_axis_values(width, (shape[0], 1), 8)
        column = class_axis_values(1, shape, 9)
        for ufunc in (np.add, np.subtract, np.divide):
            for a, b in ((z, bias), (z, column)):
                want = ufunc(a, b)
                TestLastAxis._same_bits(_by_columns(ufunc, a, b, out=np.empty_like(want)),
                                        want)
        # In place, as the logits' bias and shift are.
        want = z + bias
        assert _by_columns(np.add, z, bias, out=z) is z
        TestLastAxis._same_bits(z, want)


class TestShippedProblems:
    def test_shipped_problem_registry(self):
        names = [p.name for p in shipped_problems()]
        assert names == ["quadratic", "rosenbrock", "logistic_regression", "tiny_mlp"]
