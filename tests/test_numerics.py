"""Vectors, clipping, deterministic randomness, finite differences."""

import concurrent.futures
import copy
import pickle

import numpy as np
import pytest

from innaprop.errors import ContractViolation, DomainError
from innaprop.numerics import (
    ParamVector,
    Precision,
    RngStream,
    fd_gradient,
    global_norm_clip,
)
from innaprop.optimizers import ReferenceParams, reference_init, reference_step
from innaprop.problems import make_problem, shipped_problems


class TestParamVector:
    def test_dimension_fixed_and_checked(self):
        a = ParamVector([1.0, 2.0])
        b = ParamVector([1.0, 2.0, 3.0])
        assert a.dim == len(a) == 2
        with pytest.raises(ContractViolation):
            reference_step(reference_init("SGD", a), b, 0.1, ReferenceParams())

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            ParamVector([1.0, float("nan")])
        with pytest.raises(DomainError):
            ParamVector([float("inf")])

    def test_precision_round_trip(self):
        v = ParamVector([1.0, 2.0], "f32")
        assert v.precision is Precision.F32

    def test_immutable(self):
        v = ParamVector([1.0, 2.0])
        with pytest.raises(ValueError):
            v.data[0] = 5.0

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickles_read_only_under_every_protocol(self, precision, protocol):
        v = ParamVector([1.0, -2.5, 3e-8], precision)
        twin = pickle.loads(pickle.dumps(v, protocol=protocol))
        assert twin == v and twin.data.dtype == v.data.dtype
        assert not twin.data.flags.writeable

    def test_copies(self):
        # A shallow copy shares the data as it is, writable or not; a deep
        # copy has its own data, read-only.
        owned = np.array([1.0, 2.0])
        v = ParamVector._wrap(owned)
        owned.setflags(write=True)
        shallow, deep = copy.copy(v), copy.deepcopy(v)
        assert shallow.data is owned and owned.flags.writeable
        assert deep == v and not np.shares_memory(deep.data, owned)
        assert not deep.data.flags.writeable

    def test_unhashable(self):
        # Equal vectors may differ in their bytes (-0.0 == 0.0), and an
        # owner rewrites a slot in place, so no hash could agree with ==.
        # A state holding a vector is unhashable too.
        assert ParamVector([0.0, 1.0]) == ParamVector([-0.0, 1.0])
        with pytest.raises(TypeError, match="unhashable"):
            hash(ParamVector([0.0, 1.0]))
        with pytest.raises(TypeError, match="unhashable"):
            hash(reference_init("SGD", ParamVector([0.0, 1.0])))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_adopt_rows_takes_every_row_over_unscanned(self):
        # One read-only vector per row, never None: a non-finite row is the
        # step's to reject. Rows in the precision's dtype are views; another
        # dtype is cast once, which may overflow to inf in f32.
        stack = np.array([[1.0, 2.0], [np.nan, 3.0], [1e300, -np.inf]])
        rows = ParamVector.adopt_rows(stack, "f64")
        assert [row.data.base is stack for row in rows] == [True] * 3
        assert not any(row.data.flags.writeable for row in rows)
        assert np.array_equal(np.array([row.data for row in rows]), stack, equal_nan=True)
        cast = ParamVector.adopt_rows(stack, Precision.F32)
        assert [row.precision for row in cast] == [Precision.F32] * 3
        assert cast[2].data.tolist() == [np.inf, -np.inf]


class TestGlobalNormClip:
    def test_below_threshold_unchanged(self):
        g = ParamVector([3.0, 4.0])
        assert global_norm_clip(g, 10.0) is g

    def test_rescales_to_bound(self):
        out = global_norm_clip(ParamVector([3.0, 4.0]), 1.0)
        np.testing.assert_allclose(out.data, [0.6, 0.8], rtol=1e-15)

    def test_zero_vector_fixed_point(self):
        g = ParamVector([0.0, 0.0])
        assert global_norm_clip(g, 5.0) is g

    def test_bitwise_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = ParamVector(rng.standard_normal(16) * rng.uniform(0.1, 100))
            once = global_norm_clip(g, 1.0)
            twice = global_norm_clip(once, 1.0)
            assert np.array_equal(once.data, twice.data)
            assert np.linalg.norm(once.data) <= 1.0 + 1e-12

    def test_requires_positive_bound(self):
        with pytest.raises(ContractViolation):
            global_norm_clip(ParamVector([1.0]), 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("kind", ["random", "zero", "overflow", "nan"])
    def test_bitwise_equal_to_clipping_by_linalg_norm(self, kind, precision):
        # The clip's norm is np.linalg.norm's, bit for bit: each bound below
        # either rescales by it or sits on it, where one ulp decides.
        dtype = Precision.of(precision).dtype
        x = RngStream(3, 0).generator().standard_normal(33).astype(dtype)
        if kind == "zero":
            x[:] = 0.0
        elif kind == "overflow":
            x *= np.finfo(dtype).max / 4  # finite, but the dot overflows
        elif kind == "nan":
            x[5] = np.nan
        norm = float(np.linalg.norm(x))
        g = ParamVector._wrap(x)
        for bound in (0.3, 0.5 * norm, norm, np.nextafter(norm, 0.0)):
            if not bound > 0 or not np.isfinite(bound):
                continue
            want = x if norm <= bound * (1.0 + 1e-12) else x * (bound / norm)
            got = global_norm_clip(g, bound).data
            assert got.dtype == x.dtype
            assert got.tobytes() == np.asarray(want, dtype=x.dtype).tobytes()


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = RngStream(123, 7).generator().random(64)
        b = RngStream(123, 7).generator().random(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).generator().random(64)
        b = RngStream(123, 1).generator().random(64)
        assert not np.array_equal(a, b)

    def test_concurrent_draws_match_serial(self):
        streams = [RngStream(5, i) for i in range(8)]
        serial = [s.generator().random(256) for s in streams]
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda s: s.generator().random(256), streams))
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)


class TestFdGradient:
    def test_quadratic_identity_gradient(self):
        prob = make_problem("quadratic", spectrum=(1.0, 1.0))
        fd = fd_gradient(prob, ParamVector([1.0, -2.0]), h=1e-5)
        assert np.max(np.abs(fd.data - np.array([1.0, -2.0]))) < 1e-9

    def test_rosenbrock_minimizer(self):
        prob = make_problem("rosenbrock", dim=2)
        fd = fd_gradient(prob, ParamVector([1.0, 1.0]), h=1e-5)
        assert np.max(np.abs(fd.data)) < 1e-5

    def test_mlp_matches_backprop(self):
        from innaprop.problems import generate_synthetic

        data = generate_synthetic("two_gaussians", n=60, dim=2, seed=3)
        prob = make_problem("tiny_mlp", dataset=data, hidden=(8,), activation="tanh")
        rng = np.random.default_rng(4)
        point = 0.5 * rng.standard_normal(prob.dim)
        fd = fd_gradient(prob, ParamVector(point), h=1e-5).data
        an = prob.grad(point)
        assert np.max(np.abs(fd - an)) / max(np.max(np.abs(an)), 1e-12) < 1e-6

    def test_h_must_be_positive(self):
        prob = make_problem("quadratic", spectrum=(1.0,))
        with pytest.raises(ContractViolation):
            fd_gradient(prob, ParamVector([1.0]), h=0.0)

    def test_non_finite_probe_raises_domain_error(self):
        from innaprop.problems import Problem

        # The loss reduces over the last axis, so it takes a probe stack too.
        sqrt_prob = Problem(
            name="sqrt",
            dim=1,
            loss=lambda theta, batch=None: np.sqrt(theta[..., 0]),
            grad=lambda theta, batch=None: 0.5 / np.sqrt(theta),
            init_theta=lambda rng: np.ones(1),
        )
        with pytest.raises(DomainError, match="coordinate 0"):
            with np.errstate(invalid="ignore"):
                fd_gradient(sqrt_prob, ParamVector([1e-9]), h=1e-5)

    def test_domain_error_names_first_bad_coordinate(self):
        from innaprop.problems import Problem

        # Only coordinate 2 reaches below zero when probed.
        sqrt_prob = Problem(
            name="sqrt",
            dim=4,
            loss=lambda theta, batch=None: np.sqrt(theta).sum(axis=-1),
            grad=lambda theta, batch=None: 0.5 / np.sqrt(theta),
            init_theta=lambda rng: np.ones(4),
        )
        with pytest.raises(DomainError, match="coordinate 2$"):
            with np.errstate(invalid="ignore"):
                fd_gradient(sqrt_prob, ParamVector([1.0, 1.0, 1e-9, 1e-9]), h=1e-5)

    @staticmethod
    def _per_probe_fd(problem, theta, h):
        # One 1-D loss call per probe, coordinate by coordinate.
        base = np.array(theta.data, dtype=np.float64)
        grad = np.empty_like(base)
        for i in range(base.size):
            probe = base.copy()
            probe[i] = base[i] + h
            up = float(problem.loss(probe))
            probe[i] = base[i] - h
            down = float(problem.loss(probe))
            grad[i] = (up - down) / (2.0 * h)
        return ParamVector(grad, theta.precision)

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_stacked_probes_match_per_probe_loop(self, precision):
        for index, prob in enumerate(shipped_problems()):
            rng = RngStream(42, index).generator()
            for _ in range(3):
                theta = ParamVector(0.5 * rng.standard_normal(prob.dim), precision)
                got = fd_gradient(prob, theta, h=1e-5)
                want = self._per_probe_fd(prob, theta, 1e-5)
                assert got.data.dtype == want.data.dtype
                assert got.data.tobytes() == want.data.tobytes(), prob.name
