"""Continuous-flow layer: right-hand side, integrator order, discretization gap."""

import hashlib
import warnings

import numpy as np
import pytest

from innaprop.errors import ContractViolation, DivergenceError
from innaprop.numerics import ParamVector, RngStream
from innaprop.ode import (
    DinFlowSpec,
    discretization_gap,
    din_rhs,
    richardson_ratio,
    rk4_integrate,
)
from innaprop.optimizers import _BLOCK, inna_init, inna_step
from innaprop.problems import Problem, generate_synthetic, make_problem

QUAD = make_problem("quadratic", spectrum=(1.0, 10.0))


def flat_problem(dim=2):
    return Problem(
        name="flat",
        dim=dim,
        loss=lambda theta, batch=None: 0.0,
        grad=lambda theta, batch=None: np.zeros(dim),
        init_theta=lambda rng: np.ones(dim),
    )


class TestRhs:
    def test_equilibrium_at_critical_pairing(self):
        spec = DinFlowSpec(0.5, 0.9, QUAD, t_end=1.0, dt=1e-2)
        theta = ParamVector([0.0, 0.0])
        psi = ParamVector((1 - 0.5 * 0.9) * theta.data)
        dth, dps = din_rhs(theta, psi, spec)
        assert np.linalg.norm(dth.data) < 1e-14
        assert np.linalg.norm(dps.data) < 1e-14

    def test_literal_scalar_substitution(self):
        # alpha=1, beta=1, psi=0 on J(t)=t^2/2 at theta=1: dtheta = -1.
        prob = make_problem("quadratic", spectrum=(1.0,))
        spec = DinFlowSpec(1.0, 1.0, prob, t_end=1.0, dt=1e-2)
        dth, dps = din_rhs(ParamVector([1.0]), ParamVector([0.0]), spec)
        assert dth.data[0] == pytest.approx(-1.0, abs=1e-15)

    def test_dpsi_independent_of_gradient(self):
        theta, psi = ParamVector([0.7, -1.3]), ParamVector([0.2, 0.4])
        spec_a = DinFlowSpec(0.5, 0.9, QUAD, t_end=1.0, dt=1e-2)
        spec_b = DinFlowSpec(0.5, 0.9, make_problem("rosenbrock"), t_end=1.0, dt=1e-2)
        _, dps_a = din_rhs(theta, psi, spec_a)
        _, dps_b = din_rhs(theta, psi, spec_b)
        np.testing.assert_array_equal(dps_a.data, dps_b.data)

    def test_nonzero_away_from_equilibrium(self):
        spec = DinFlowSpec(0.5, 0.9, QUAD, t_end=1.0, dt=1e-2)
        rng = RngStream(9, 0).generator()
        for _ in range(20):
            dth, dps = din_rhs(ParamVector(rng.standard_normal(2)),
                               ParamVector(rng.standard_normal(2)), spec)
            assert np.linalg.norm(np.concatenate([dth.data, dps.data])) > 1e-6


class TestRk4:
    def test_constant_on_flat_problem(self):
        spec = DinFlowSpec(0.5, 0.9, flat_problem(), t_end=1.0, dt=0.1)
        traj = rk4_integrate(spec, ParamVector([1.0, 1.0]))
        np.testing.assert_array_equal(traj.theta[0], traj.theta[-1])
        np.testing.assert_array_equal(traj.psi[0], traj.psi[-1])

    def test_richardson_ratio_fourth_order(self):
        spec = DinFlowSpec(1.0, 1.0, QUAD, t_end=2.0, dt=0.05)
        ratio = richardson_ratio(spec, ParamVector([1.2, -0.8]))
        assert 8.0 <= ratio <= 32.0

    def test_dissipation_on_quadratic(self):
        spec = DinFlowSpec(1.0, 1.0, QUAD, t_end=10.0, dt=0.01)
        traj = rk4_integrate(spec, ParamVector([1.2, -0.8]))
        assert QUAD.loss(traj.theta[-1]) < QUAD.loss(traj.theta[0])

    def test_dt_must_divide_horizon(self):
        spec = DinFlowSpec(1.0, 1.0, QUAD, t_end=1.0, dt=0.3)
        with pytest.raises(ContractViolation):
            rk4_integrate(spec, ParamVector([1.0, 1.0]))

    def test_trajectory_losses_export(self):
        spec = DinFlowSpec(1.0, 1.0, QUAD, t_end=0.5, dt=0.1)
        traj = rk4_integrate(spec, ParamVector([1.0, 1.0]))
        losses = traj.losses(QUAD)
        assert losses.shape == traj.t.shape
        assert losses[0] == pytest.approx(5.5)


def two_array_rk4(spec, theta0):
    """RK4 with theta and psi in separate arrays: the ``t``, the stacked
    thetas and psis, and the step at which the state first went non-finite
    (None if it never did)."""
    n_steps = int(round(spec.t_end / spec.dt))
    h = spec.dt

    def rhs(th, ps):
        g = spec.problem.grad(th)
        drift = -(spec.alpha - 1.0 / spec.beta) * th - ps / spec.beta
        return drift - spec.beta * g, drift

    th = np.array(theta0.data, dtype=np.float64)
    ps = (1.0 - spec.alpha * spec.beta) * th
    thetas, psis = [th], [ps]
    for k in range(1, n_steps + 1):
        k1t, k1p = rhs(th, ps)
        k2t, k2p = rhs(th + 0.5 * h * k1t, ps + 0.5 * h * k1p)
        k3t, k3p = rhs(th + 0.5 * h * k2t, ps + 0.5 * h * k2p)
        k4t, k4p = rhs(th + h * k3t, ps + h * k3p)
        th = th + (h / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        ps = ps + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        if not (np.all(np.isfinite(th)) and np.all(np.isfinite(ps))):
            return None, None, None, k
        thetas.append(th)
        psis.append(ps)
    return np.linspace(0.0, n_steps * h, n_steps + 1), np.array(thetas), np.array(psis), None


MLP = make_problem("tiny_mlp", dataset=generate_synthetic("two_gaussians", n=200, dim=2, seed=7))


class TestStackedRk4:
    @pytest.mark.parametrize("problem,alpha,beta,theta0", [
        (QUAD, 0.5, 0.9, [1.2, -0.8]),
        (QUAD, 1.0, 1.0, [0.3, 2.0]),
        (make_problem("quadratic", spectrum=(3.0,)), 0.5, 0.9, [1.5]),
        # Past numpy's 8-element threshold for pairwise sums.
        (make_problem("quadratic", spectrum=tuple(np.linspace(0.5, 12.0, 9))), 0.5, 0.9,
         list(np.linspace(-1.0, 1.0, 9))),
        (make_problem("rosenbrock", dim=2), 0.1, 0.9, [-1.2, 1.0]),
        (make_problem("rosenbrock", dim=5), 0.5, 0.7, [0.5, -0.3, 1.1, 0.8, -1.0]),
        # A gradient through matmul, at p = 42.
        (MLP, 0.5, 0.9, list(MLP.init_theta(RngStream(5, 0).generator()))),
    ], ids=["quad_p2", "quad_p2_unit", "quad_p1", "quad_p9", "rosenbrock_p2",
            "rosenbrock_p5", "tiny_mlp_p42"])
    def test_bitwise_equal_to_two_array_loop(self, problem, alpha, beta, theta0):
        spec = DinFlowSpec(alpha, beta, problem, t_end=0.5, dt=1e-3)
        traj = rk4_integrate(spec, ParamVector(theta0))
        t, thetas, psis, blew_up = two_array_rk4(spec, ParamVector(theta0))
        assert blew_up is None
        for got, want in ((traj.t, t), (traj.theta, thetas), (traj.psi, psis)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert traj.theta.flags.c_contiguous and traj.psi.flags.c_contiguous

    @pytest.mark.parametrize("problem,t_end,dt,theta0", [
        # A step past RK4's stability bound: the state grows geometrically
        # and overflows hundreds of steps in.
        (QUAD, 1000.0, 0.5, [1.2, -0.8]),
        # A far start: Rosenbrock's quartic term overflows within a few steps.
        (make_problem("rosenbrock", dim=2), 1.0, 0.0025, [1.5, -1.5]),
    ])
    def test_blow_up_at_the_same_step(self, problem, t_end, dt, theta0):
        spec = DinFlowSpec(0.1, 0.9, problem, t_end=t_end, dt=dt)
        theta0 = ParamVector(theta0)
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, _, blew_up = two_array_rk4(spec, theta0)
        assert blew_up is not None
        # The overflow on the way is reported by the DivergenceError alone:
        # a floating-point warning would raise here.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                rk4_integrate(spec, theta0)
        assert err.value.step == blew_up


class TestRk4Pinned:
    """The sha256 of every ``theta`` and ``psi`` sample of two trajectories,
    recorded before the right-hand side hoisted its coefficients: one at
    p = 2 (``ode_report``'s decay spec) and one at p = 4, where Rosenbrock's
    gradient couples the coordinates. ``ode_report``'s own pins pass through
    ratios and maxima, which need not move when one sample does."""

    @pytest.mark.parametrize("spec,theta0,theta_sha,psi_sha", [
        (DinFlowSpec(1.0, 1.0, QUAD, t_end=10.0, dt=0.01), [1.2, -0.8],
         "1563bc4958820dea9a99392c2af892a7f8d20f06f1e45160096e8927bd930aa9",
         "523c4cf50fb2356c6eccba41d7a401c666b91e5418b9a318b3ba502b030d950e"),
        (DinFlowSpec(0.5, 0.9, make_problem("rosenbrock", dim=4), t_end=1.0, dt=1e-3),
         [-1.2, 1.0, -1.2, 1.0],
         "bd150e2e6643d28bb3c30535e3b4e79e162ceb0d2b3d3e5d7f441196fed3e849",
         "d66e2f570f78dcfe1544ca9433645e8dac7d40016b97e6ea25052ba038bdcb3c"),
    ], ids=["decay_p2", "rosenbrock_p4"])
    def test_trajectory_bytes(self, spec, theta0, theta_sha, psi_sha):
        traj = rk4_integrate(spec, ParamVector(theta0))
        assert traj.theta.shape == traj.psi.shape == (1001, len(theta0))
        assert hashlib.sha256(traj.theta.tobytes()).hexdigest() == theta_sha
        assert hashlib.sha256(traj.psi.tobytes()).hexdigest() == psi_sha


class TestDiscretizationGap:
    SPEC = DinFlowSpec(0.5, 0.9, QUAD, t_end=1.0, dt=1e-3)
    THETA0 = ParamVector([1.2, -0.8])

    def test_halving_ratio_first_order(self):
        g1 = discretization_gap(self.SPEC, 0.01, self.THETA0)
        g2 = discretization_gap(self.SPEC, 0.005, self.THETA0)
        g3 = discretization_gap(self.SPEC, 0.0025, self.THETA0)
        assert 1.5 <= g1 / g2 <= 3.0
        assert 1.5 <= g2 / g3 <= 3.0

    def test_small_step_regression_bound(self):
        assert discretization_gap(self.SPEC, 1e-4, self.THETA0) < 1e-3

    def test_diverging_recursion_raises_without_warnings(self):
        # A stable flow from a huge start, and a recursion at gamma close to
        # beta that overflows within a dozen steps: the DivergenceError is
        # the one report, with no floating-point warning before it.
        quad = make_problem("quadratic", spectrum=(300.0, 1.0))
        spec = DinFlowSpec(0.1, 0.9, quad, t_end=17.0, dt=0.0085)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                discretization_gap(spec, 0.85, ParamVector([1e280, 1.0]))
        assert err.value.step == 12

    def test_zero_gradient_gap_is_exactly_zero(self):
        spec = DinFlowSpec(0.5, 0.9, flat_problem(), t_end=1.0, dt=1e-2)
        assert discretization_gap(spec, 0.05, ParamVector([1.0, -1.0])) == 0.0

    @pytest.mark.parametrize("dim", [2, _BLOCK + 1])
    def test_never_writes_the_callers_theta0(self, dim):
        # The step loop owns its state and writes it in place: as the rows
        # of one block at dim 2, as its own separate slots above _BLOCK. The
        # caller's vector stays as it was, read-only, and the gap is that of
        # the public steps' loop with np.linalg.norm.
        quad = make_problem("quadratic", spectrum=np.linspace(1.0, 10.0, dim))
        theta0 = ParamVector(np.linspace(-1.0, 1.5, dim))
        before = theta0.data.copy()
        spec = DinFlowSpec(0.5, 0.9, quad, t_end=0.02, dt=0.005)
        gap = discretization_gap(spec, 0.005, theta0)
        assert not theta0.data.flags.writeable
        assert np.array_equal(theta0.data, before)

        flow = rk4_integrate(spec, theta0)
        state, want = inna_init(0.5, 0.9, theta0), 0.0
        for k in range(1, 5):
            state = inna_step(state, ParamVector(quad.grad(state.theta.data)), 0.005, 0.5, 0.9)
            want = max(want, float(np.linalg.norm(state.theta.data - flow.theta[k])))
        assert gap == want > 0.0

    def test_gamma_must_stay_below_beta(self):
        with pytest.raises(ContractViolation):
            discretization_gap(self.SPEC, 0.9, self.THETA0)

    def test_spec_validation(self):
        with pytest.raises(ContractViolation):
            DinFlowSpec(-0.1, 0.9, QUAD, t_end=1.0, dt=1e-2)
        with pytest.raises(ContractViolation):
            DinFlowSpec(0.1, 0.0, QUAD, t_end=1.0, dt=1e-2)
        with pytest.raises(ContractViolation):
            DinFlowSpec(0.1, 0.9, QUAD, t_end=0.0, dt=1e-2)
        with pytest.raises(ContractViolation):
            DinFlowSpec(0.1, 0.9, QUAD, t_end=1.0, dt=2.0)
