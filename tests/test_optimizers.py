"""Spot values, fixed points, error contracts and state invariants for every
update rule."""

import copy
import os
import pickle
import random
import sys
import threading
import warnings
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from mpmath import mp, mpf

import innaprop.numerics as numerics
import innaprop.optimizers as optimizers
from innaprop.errors import ContractViolation, DivergenceError, WellPosednessError
from innaprop.numerics import _BLOCK, _SHARED, ParamVector, Precision, RngStream
from innaprop.optimizers import (
    _own,
    InnapropConfig,
    InnapropState,
    InnaState,
    MomentumVariantState,
    ReferenceParams,
    ReferenceState,
    dinadam_direct_init,
    dinadam_direct_step,
    dinadam_init,
    dinadam_step,
    inna_init,
    inna_step,
    innaprop_init,
    innaprop_momentum_init,
    innaprop_momentum_step,
    innaprop_naive_init,
    innaprop_naive_step,
    innaprop_step,
    reference_init,
    reference_step,
)

SHIPPED_PAIRS = [(0.1, 0.9), (1.0, 1.0), (2.0, 2.0)]


def vec(*values):
    return ParamVector(list(values))


class TestInnapropInit:
    @pytest.mark.parametrize(
        "alpha,beta,theta0,psi0",
        [
            (1.0, 1.0, [5.0, -3.0], [0.0, 0.0]),
            (0.1, 0.9, [1.0], [0.91]),
            (2.0, 2.0, [1.0, 1.0], [-3.0, -3.0]),
        ],
    )
    def test_psi_initialization(self, alpha, beta, theta0, psi0):
        state = innaprop_init(InnapropConfig(alpha=alpha, beta=beta), ParamVector(theta0))
        np.testing.assert_allclose(state.psi.data, psi0, rtol=0, atol=1e-15)
        assert np.all(state.v.data == 0.0)
        assert state.k == 0

    def test_config_validation(self):
        with pytest.raises(ContractViolation):
            InnapropConfig(alpha=-0.1, beta=1.0)
        with pytest.raises(ContractViolation):
            InnapropConfig(alpha=0.1, beta=0.0)
        with pytest.raises(ContractViolation):
            InnapropConfig(alpha=0.1, beta=1.0, sigma=1.5)
        with pytest.raises(ContractViolation):
            InnapropConfig(alpha=0.1, beta=1.0, epsilon=0.0)
        with pytest.raises(ContractViolation):
            InnapropConfig(alpha=0.1, beta=1.0, weight_decay=-1.0)
        with pytest.raises(ContractViolation):
            InnapropConfig(alpha=0.1, beta=1.0, sigma=1.0, bias_correction=True)


class TestInnapropStep:
    def test_bias_corrected_first_step_is_signlike(self):
        # alpha=beta=1: v-hat equals g^2 exactly on the first step, so the
        # update is exactly -gamma*sign(g) when eps is negligible.
        cfg = InnapropConfig(alpha=1.0, beta=1.0, sigma=0.999, epsilon=1e-30,
                             weight_decay=0.0, bias_correction=True)
        state = innaprop_init(cfg, vec(1.0))
        state = innaprop_step(state, vec(2.0), 0.1, cfg)
        assert abs(state.theta.data[0] - 0.9) < 1e-15

    def test_plain_first_step_uses_raw_v(self):
        cfg = InnapropConfig(alpha=1.0, beta=1.0, sigma=0.999, epsilon=1e-30,
                             bias_correction=False)
        state = innaprop_init(cfg, vec(1.0))
        state = innaprop_step(state, vec(2.0), 0.1, cfg)
        expected = 1.0 - 0.1 * 2.0 / np.sqrt(0.004)
        assert abs(state.theta.data[0] - expected) < 1e-14

    def test_two_steps_match_extended_precision_transcription(self):
        # Independent oracle: the deep-learning recursion transcribed line by
        # line in 60-digit arithmetic on J(t) = t^2/2.
        mp.dps = 60
        alpha, beta, sigma, eps, gamma = (mpf("0.1"), mpf("0.9"), mpf("0.999"),
                                          mpf("1e-8"), mpf("0.01"))
        theta = mpf(1)
        psi = (1 - alpha * beta) * theta
        v = mpf(0)
        for k in (1, 2):
            g = theta
            v = sigma * v + (1 - sigma) * g ** 2
            vhat = v / (1 - sigma ** k)
            psi = (1 - gamma / beta) * psi + gamma * (1 / beta - alpha) * theta
            theta = ((1 + gamma * (1 - alpha * beta) / (beta - gamma)) * theta
                     - (gamma / (beta - gamma)) * psi
                     - gamma * beta * g / (mp.sqrt(vhat) + eps))
        expected = float(theta)

        cfg = InnapropConfig(alpha=0.1, beta=0.9, sigma=0.999, epsilon=1e-8,
                             weight_decay=0.0, bias_correction=True)
        state = innaprop_init(cfg, vec(1.0))
        for _ in range(2):
            g = ParamVector(state.theta.data.copy())
            state = innaprop_step(state, g, 0.01, cfg)
        assert abs(state.theta.data[0] - expected) / abs(expected) < 1e-14

    def test_zero_gradient_is_fixed_point_from_init(self):
        # Exactly bitwise at alpha=beta=1 (psi stays identically zero); to
        # rounding for the other pairs, where the coefficient cancellation is
        # exact algebra but not exact float arithmetic.
        for alpha, beta in SHIPPED_PAIRS:
            cfg = InnapropConfig(alpha=alpha, beta=beta, weight_decay=0.0)
            state = innaprop_init(cfg, vec(3.0, -2.0, 0.5))
            zero = ParamVector.zeros_like(state.theta)
            for _ in range(10):
                state = innaprop_step(state, zero, 0.01, cfg)
            if (alpha, beta) == (1.0, 1.0):
                np.testing.assert_array_equal(state.theta.data, [3.0, -2.0, 0.5])
            else:
                np.testing.assert_allclose(state.theta.data, [3.0, -2.0, 0.5],
                                           rtol=1e-14, atol=0)

    def test_bootstrap_identity(self):
        # From the canonical init, the first step reduces to
        # theta1 = theta0 - gamma*beta*g/(sqrt(v-hat)+eps) exactly.
        rng = RngStream(21, 0).generator()
        for alpha, beta in SHIPPED_PAIRS:
            cfg = InnapropConfig(alpha=alpha, beta=beta, sigma=0.99, epsilon=1e-8,
                                 weight_decay=0.0, bias_correction=True)
            theta0 = rng.standard_normal(6)
            g0 = rng.standard_normal(6)
            state = innaprop_step(innaprop_init(cfg, ParamVector(theta0)),
                                  ParamVector(g0), 0.01, cfg)
            vhat = (1 - 0.99) * g0 ** 2 / (1 - 0.99)
            expected = theta0 - 0.01 * beta * g0 / (np.sqrt(vhat) + 1e-8)
            rel = np.max(np.abs(state.theta.data - expected)) / np.max(np.abs(expected))
            assert rel < 1e-14

    def test_psi_conservation(self):
        # The psi update maps (theta, (1-alpha*beta)*theta) back to
        # (1-alpha*beta)*theta for any gamma < beta.
        rng = RngStream(22, 0).generator()
        for alpha, beta in SHIPPED_PAIRS:
            theta = rng.standard_normal(8)
            psi = (1 - alpha * beta) * theta
            psi_next = (1 - 0.01 / beta) * psi + 0.01 * (1 / beta - alpha) * theta
            rel = np.max(np.abs(psi_next - psi)) / max(np.max(np.abs(psi)), 1e-12)
            assert rel < 1e-14

    def test_gamma_at_beta_raises_wellposedness(self):
        cfg = InnapropConfig(alpha=0.1, beta=0.9)
        state = innaprop_init(cfg, vec(1.0))
        with pytest.raises(WellPosednessError):
            innaprop_step(state, vec(1.0), 0.9, cfg)
        with pytest.raises(WellPosednessError):
            innaprop_step(state, vec(1.0), 1.5, cfg)

    def test_weight_decay_applied_before_update(self):
        cfg = InnapropConfig(alpha=1.0, beta=1.0, weight_decay=0.1, epsilon=1e-8)
        state = innaprop_init(cfg, vec(1.0))
        state = innaprop_step(state, vec(0.0), 0.1, cfg)
        assert abs(state.theta.data[0] - 0.99) < 1e-15

    def test_v_stays_nonnegative(self):
        rng = RngStream(23, 0).generator()
        cfg = InnapropConfig(alpha=0.1, beta=0.9, sigma=0.9)
        state = innaprop_init(cfg, ParamVector(rng.standard_normal(5)))
        for _ in range(50):
            state = innaprop_step(state, ParamVector(rng.standard_normal(5)), 0.01, cfg)
            assert np.all(state.v.data >= 0)

    def test_step_counter_advances(self):
        cfg = InnapropConfig(alpha=0.1, beta=0.9)
        state = innaprop_init(cfg, vec(1.0))
        state = innaprop_step(state, vec(1.0), 0.01, cfg)
        assert state.k == 1


class TestNaiveForm:
    def test_bootstrap_scalar_oracle(self):
        # theta1 = theta0 - gamma*beta*g0/sqrt((1-sigma)*g0^2); eps chosen
        # negligible relative to the tolerance.
        cfg = InnapropConfig(alpha=0.1, beta=0.9, sigma=0.999, epsilon=1e-30)
        state = innaprop_naive_init(cfg, vec(1.0))
        state = innaprop_naive_step(state, vec(1.0), 0.01, cfg)
        expected = 1.0 - 0.01 * 0.9 * 1.0 / np.sqrt(0.001)
        assert abs(state.theta_curr.data[0] - expected) < 1e-14

    def test_zero_gradients_after_zero_bootstrap(self):
        cfg = InnapropConfig(alpha=0.1, beta=0.9, sigma=0.999, epsilon=1e-8)
        state = innaprop_naive_init(cfg, vec(2.0, -1.0))
        for _ in range(3):
            state = innaprop_naive_step(state, vec(0.0, 0.0), 0.01, cfg)
        np.testing.assert_array_equal(state.theta_curr.data, [2.0, -1.0])

    def test_six_slots_live(self):
        cfg = InnapropConfig(alpha=0.1, beta=0.9)
        state = innaprop_naive_init(cfg, vec(1.0))
        state = innaprop_naive_step(state, vec(1.0), 0.01, cfg)
        state = innaprop_naive_step(state, vec(0.5), 0.01, cfg)
        for slot in (state.theta_prev, state.theta_curr, state.g_prev,
                     state.v_prev, state.v_curr):
            assert slot.dim == 1
        assert state.k == 2


class TestInna:
    def test_zero_gradient_fixed_point(self):
        state = inna_init(0.5, 0.1, vec(1.0, 2.0))
        for _ in range(5):
            state = inna_step(state, vec(0.0, 0.0), 0.05, 0.5, 0.1)
        np.testing.assert_array_equal(state.theta.data, [1.0, 2.0])

    def test_three_steps_scalar_oracle(self):
        # Recommended pairing (alpha, beta) = (0.5, 0.1) on J(t) = t^2/2.
        alpha, beta, gamma = 0.5, 0.1, 0.1
        theta, psi = 1.0, (1 - alpha * beta) * 1.0
        for _ in range(3):
            g = theta
            drift = (1 / beta - alpha) * theta - psi / beta
            psi, theta = psi + gamma * drift, theta + gamma * (drift - beta * g)
        state = inna_init(0.5, 0.1, vec(1.0))
        for _ in range(3):
            g = ParamVector(state.theta.data.copy())
            state = inna_step(state, g, gamma, alpha, beta)
        assert abs(state.theta.data[0] - theta) < 1e-15

    def test_requires_inna_state(self):
        adam = reference_init("Adam", vec(1.0))
        with pytest.raises(ContractViolation):
            inna_step(adam, vec(1.0), 0.01, 0.5, 0.1)

    def test_unknown_form(self):
        state = inna_init(0.5, 0.1, vec(1.0))
        with pytest.raises(ContractViolation):
            inna_step(state, vec(1.0), 0.01, 0.5, 0.1, form="bogus")


class TestMomentumVariant:
    def test_zero_gradient_constant(self):
        cfg = InnapropConfig(alpha=0.1, beta=0.9)
        for form in ("direct", "reduced"):
            state = innaprop_momentum_init(cfg, vec(1.0, -1.0), form)
            for _ in range(5):
                state = innaprop_momentum_step(state, vec(0.0, 0.0), 1e-3, cfg)
            np.testing.assert_array_equal(state.theta.data, [1.0, -1.0])

    def test_singular_coefficient(self):
        cfg = InnapropConfig(alpha=10.0, beta=0.9)
        state = innaprop_momentum_init(cfg, vec(1.0), "reduced")
        with pytest.raises(ContractViolation):
            innaprop_momentum_step(state, vec(1.0), 0.1, cfg)

    def test_reduced_starts_at_zero(self):
        cfg = InnapropConfig(alpha=0.1, beta=0.9)
        state = innaprop_momentum_init(cfg, vec(1.0), "reduced")
        assert np.all(state.m.data == 0.0)
        assert state.g_prev is None

    @pytest.mark.parametrize("form,g_prev", [("bogus", False), ("bogus", True),
                                             ("direct", False), ("reduced", True)])
    def test_state_checks_its_form_and_g_prev(self, form, g_prev):
        # The direct form carries the previous gradient and the reduced form
        # does not; any other form is rejected. A successor copies every
        # field it does not step, so a stray g_prev would be carried.
        theta = vec(1.0, -1.0)
        message = {"bogus": "unknown momentum form 'bogus'",
                   "direct": "a direct momentum state needs g_prev",
                   "reduced": "a reduced momentum state takes no g_prev"}[form]
        with pytest.raises(ContractViolation, match=message):
            MomentumVariantState(theta, ParamVector.zeros_like(theta),
                                 ParamVector.zeros_like(theta),
                                 ParamVector.zeros_like(theta) if g_prev else None, form)

    def test_init_rejects_an_unknown_form(self):
        with pytest.raises(ContractViolation, match="unknown momentum form 'bogus'"):
            innaprop_momentum_init(InnapropConfig(alpha=0.1, beta=0.9), vec(1.0), "bogus")


class TestDinadam:
    def test_alpha1_beta0_first_step_matches_adam_no_correction(self):
        state = dinadam_init(vec(1.0), sigma1=0.9, sigma2=0.999)
        state = dinadam_step(state, vec(2.0), 0.1, alpha=1.0, beta=0.0, epsilon=1e-30)
        # mtilde1 = (1-sigma1)*g; v1 = (1-sigma2)*g^2
        expected = 1.0 - 0.1 * (0.1 * 2.0) / np.sqrt(0.001 * 4.0)
        assert abs(state.theta.data[0] - expected) < 1e-14

    def test_zero_gradient_constant(self):
        state = dinadam_init(vec(1.0, 2.0), sigma1=0.9, sigma2=0.999)
        for _ in range(5):
            state = dinadam_step(state, vec(0.0, 0.0), 0.1, alpha=0.5, beta=0.7)
        np.testing.assert_array_equal(state.theta.data, [1.0, 2.0])

    def test_sigma_bounds(self):
        with pytest.raises(ContractViolation):
            dinadam_init(vec(1.0), sigma1=1.2, sigma2=0.999)

    def test_zero_step_size_keeps_theta(self):
        # A schedule that ends at lr_min = 0 hands the last step eta = 0.
        state = dinadam_init(vec(1.0, -2.0), sigma1=0.9, sigma2=0.999)
        state = dinadam_step(state, vec(3.0, 0.5), 0.0, alpha=0.5, beta=0.7)
        np.testing.assert_array_equal(state.theta.data, [1.0, -2.0])
        assert state.k == 1
        with pytest.raises(ContractViolation, match="eta"):
            dinadam_step(state, vec(3.0, 0.5), -0.1, alpha=0.5, beta=0.7)


class TestReferenceOptimizers:
    def test_sgd_spot(self):
        state = reference_init("SGD", vec(1.0))
        state = reference_step(state, vec(2.0), 0.1, ReferenceParams())
        assert state.theta.data[0] == pytest.approx(0.8, abs=1e-15)

    def test_momentum_heavy_ball_convention(self):
        # m <- beta1*m + g, theta <- theta - gamma*m: first step equals SGD.
        params = ReferenceParams(beta1=0.9)
        state = reference_init("Momentum", vec(1.0), params)
        state = reference_step(state, vec(2.0), 0.1, params)
        assert state.theta.data[0] == pytest.approx(0.8, abs=1e-15)

    def test_nesterov_lookahead(self):
        params = ReferenceParams(beta1=0.9)
        state = reference_init("Nesterov", vec(1.0), params)
        state = reference_step(state, vec(2.0), 0.1, params)
        # theta - gamma*(g + beta1*(beta1*0 + g))
        assert state.theta.data[0] == pytest.approx(1.0 - 0.1 * (2.0 + 1.8), abs=1e-15)

    def test_rmsprop_momentum_zero_grad(self):
        params = ReferenceParams(beta1=0.9, beta2=0.99)
        state = reference_init("RMSpropMomentum", vec(1.0), params)
        for _ in range(4):
            state = reference_step(state, vec(0.0), 0.1, params)
        assert state.theta.data[0] == 1.0

    def test_adamw_first_step_sign(self):
        params = ReferenceParams(beta1=0.0, beta2=0.999, epsilon=1e-30, weight_decay=0.0)
        state = reference_init("AdamW", vec(1.0), params)
        state = reference_step(state, vec(2.0), 0.1, params)
        assert state.theta.data[0] == pytest.approx(0.9, abs=1e-14)

    def test_adamw_pure_decay(self):
        params = ReferenceParams(weight_decay=0.01)
        state = reference_init("AdamW", vec(1.0), params)
        state = reference_step(state, vec(0.0), 0.1, params)
        assert state.theta.data[0] == pytest.approx(0.999, abs=1e-15)
        assert np.all(state.m.data == 0) and np.all(state.v.data == 0)

    def test_slot_sets_match_kind(self):
        assert reference_init("SGD", vec(1.0)).m is None
        assert reference_init("Momentum", vec(1.0)).m is not None
        assert reference_init("Adam", vec(1.0)).v is not None
        with pytest.raises(ContractViolation):
            ReferenceState(kind="SGD", theta=vec(1.0), m=vec(0.0))
        with pytest.raises(ContractViolation):
            reference_init("Bogus", vec(1.0))

    def test_zero_gradient_fixed_points_all_kinds(self):
        rng = RngStream(31, 0).generator()
        params = ReferenceParams(beta1=0.9, beta2=0.999, weight_decay=0.0)
        for kind in ("SGD", "Momentum", "Nesterov", "RMSpropMomentum",
                     "Adam", "AdamW", "NAdam"):
            for _ in range(10):
                theta0 = rng.standard_normal(4)
                state = reference_init(kind, ParamVector(theta0), params)
                zero = ParamVector(np.zeros(4))
                for _ in range(5):
                    state = reference_step(state, zero, 0.01, params)
                np.testing.assert_array_equal(state.theta.data, theta0)

    def test_monotone_start_over_full_grid(self):
        # Strictly convex quadratic, small constant step: loss after 50 steps
        # sits strictly below the initial loss for every tuning-grid pair.
        from innaprop.harness.grid import DEFAULT_GRID
        from innaprop.problems import make_problem

        quad = make_problem("quadratic", spectrum=(1.0, 10.0))
        theta0 = np.array([1.5, -1.0])
        loss0 = quad.loss(theta0)
        for alpha in DEFAULT_GRID:
            for beta in DEFAULT_GRID:
                cfg = InnapropConfig(alpha=alpha, beta=beta, weight_decay=0.0)
                state = innaprop_init(cfg, ParamVector(theta0))
                for _ in range(50):
                    g = ParamVector(quad.grad(state.theta.data))
                    state = innaprop_step(state, g, 1e-3, cfg)
                assert quad.loss(state.theta.data) < loss0, (alpha, beta)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_error_carries_step(self):
        # Gradient large enough that the squared-gradient average overflows.
        params = ReferenceParams(beta1=0.9, beta2=0.999)
        state = reference_init("Adam", vec(1.0), params)
        state = reference_step(state, vec(1.0), 0.1, params)
        with pytest.raises(DivergenceError) as err:
            reference_step(state, vec(1e200), 0.1, params)
        assert err.value.step == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_innaprop_divergence_carries_step(self):
        cfg = InnapropConfig(alpha=0.1, beta=0.9)
        state = innaprop_init(cfg, vec(1.0))
        with pytest.raises(DivergenceError) as err:
            innaprop_step(state, vec(1e200), 0.01, cfg)
        assert err.value.step == 1


# ---------------------------------------------------------------------------
# One table of the public steps: each rule and form with its init, its step
# and, for a step of the blocked driver, the whole-array formulas it must
# match bit for bit
# ---------------------------------------------------------------------------

CFG = InnapropConfig(alpha=0.1, beta=0.9, weight_decay=0.01)
PLAIN_CFG = replace(CFG, weight_decay=0.0, bias_correction=False)
PARAMS = ReferenceParams(weight_decay=0.01)
PLAIN_PARAMS = replace(PARAMS, weight_decay=0.0, bias_correction=False)


def whole_array_rms(g, v, eps):
    return g / (np.sqrt(v) + eps)


def whole_array_inna(theta, psi, grad, gamma, alpha, beta, form):
    if form == "classic":
        drift = (1.0 / beta - alpha) * theta - psi / beta
        return theta + gamma * (drift - beta * grad), psi + gamma * drift
    psi_new = (1.0 - gamma / beta) * psi + (gamma * (1.0 / beta - alpha)) * theta
    theta_new = (
        (1.0 + gamma * (1.0 - alpha * beta) / (beta - gamma)) * theta
        - (gamma / (beta - gamma)) * psi_new
        - (gamma * beta) * grad
    )
    return theta_new, psi_new


def whole_array_innaprop(state, g, gamma, cfg):
    """INNA's compact step from the decayed theta on RMSprop's scaled gradient."""
    sigma, theta, grad = cfg.sigma, state.theta.data, g.data
    if cfg.weight_decay:
        theta = (1.0 - cfg.weight_decay * gamma) * theta
    v_new = sigma * state.v.data + (1.0 - sigma) * grad * grad
    v_hat = v_new / (1.0 - sigma ** (state.k + 1)) if cfg.bias_correction else v_new
    rms = whole_array_rms(grad, v_hat, cfg.epsilon)
    return (*whole_array_inna(theta, state.psi.data, rms, gamma, cfg.alpha, cfg.beta, "compact"),
            v_new)


def whole_array_momentum(state, g, gamma, cfg):
    """Both forms; the direct form's last new slot is the gradient itself."""
    alpha, beta, sigma, eps = cfg.alpha, cfg.beta, cfg.sigma, cfg.epsilon
    a = 1.0 - alpha * gamma
    grad = g.data
    v_new = sigma * state.v.data + (1.0 - sigma) * grad * grad
    rms_curr = whole_array_rms(grad, v_new, eps)
    if state.form == "direct":
        rms_prev = whole_array_rms(state.g_prev.data, state.v.data, eps)
        m_new = (
            a * state.m.data
            + (gamma * gamma) * rms_prev
            + (beta * gamma) * (rms_curr - rms_prev)
        )
        return state.theta.data - m_new, m_new, v_new, grad
    m_new = a * state.m.data + (gamma * gamma * (1.0 - alpha * beta) / a) * rms_curr
    theta_new = state.theta.data - m_new - (gamma * (beta - gamma) / a) * rms_curr
    return theta_new, m_new, v_new


def whole_array_dinadam(state, g, eta, alpha, beta, epsilon):
    s1, s2, grad = state.sigma1, state.sigma2, g.data
    v_new = s2 * state.v.data + (1.0 - s2) * grad * grad
    mtilde_new = s1 * state.mtilde.data + (1.0 - s1 + beta * alpha * s1 - beta * alpha) * grad
    theta_new = state.theta.data - eta * (mtilde_new + (alpha * beta) * grad) / (
        np.sqrt(v_new) + epsilon
    )
    return theta_new, mtilde_new, v_new


def whole_array_reference(state, g, gamma_k, params):
    """Every reference kind; the new slots that the kind has."""
    kind, theta, grad, k = state.kind, state.theta.data, g.data, state.k + 1
    b1, b2, eps = params.beta1, params.beta2, params.epsilon
    if kind == "SGD":
        return (theta - gamma_k * grad,)
    if kind in ("Momentum", "Nesterov"):
        m_new = b1 * state.m.data + grad
        step = m_new if kind == "Momentum" else grad + b1 * m_new
        return theta - gamma_k * step, m_new
    v_new = b2 * state.v.data + (1.0 - b2) * grad * grad
    if kind == "RMSpropMomentum":
        m_new = b1 * state.m.data + whole_array_rms(grad, v_new, eps)
        return theta - gamma_k * m_new, m_new, v_new
    m_new = b1 * state.m.data + (1.0 - b1) * grad
    if kind == "NAdam":
        m_hat = m_new / (1.0 - b1 ** (k + 1))
        g_hat = grad / (1.0 - b1 ** k)
        direction = (b1 * m_hat + (1.0 - b1) * g_hat) / (np.sqrt(v_new / (1.0 - b2 ** k)) + eps)
        return theta - gamma_k * direction, m_new, v_new
    if kind == "AdamW" and params.weight_decay:
        theta = (1.0 - params.weight_decay * gamma_k) * theta
    m_hat, v_hat = m_new, v_new
    if params.bias_correction:
        m_hat, v_hat = m_new / (1.0 - b1 ** k), v_new / (1.0 - b2 ** k)
    return theta - gamma_k * (m_hat / (np.sqrt(v_hat) + eps)), m_new, v_new


def rules(cfg=CFG, params=PARAMS) -> dict:
    """name -> (init(theta0), step(state, g, gamma=0.01), oracle(state, g,
    gamma)), one entry per public rule and form: the inertial rules at
    ``cfg``, DINAdam with ``params``' rates as its sigma1 and sigma2, the
    reference kinds at ``params``. The oracle gives the new slots in field
    order, as whole-array expressions with the step's coefficients in its
    kernel's order; it is ``None`` for the two oracles of the equivalence
    checks, which are whole-array steps themselves."""
    alpha, beta, eps = cfg.alpha, cfg.beta, cfg.epsilon
    s1, s2 = params.beta1, params.beta2
    return {
        "innaprop": (lambda th: innaprop_init(cfg, th),
                     lambda s, g, gamma=0.01: innaprop_step(s, g, gamma, cfg),
                     lambda s, g, gamma: whole_array_innaprop(s, g, gamma, cfg)),
        "innaprop_naive": (lambda th: innaprop_naive_init(cfg, th),
                           lambda s, g, gamma=0.01: innaprop_naive_step(s, g, gamma, cfg), None),
        **{f"inna_{form}": (
            lambda th: inna_init(alpha, beta, th),
            lambda s, g, gamma=0.01, form=form: inna_step(s, g, gamma, alpha, beta, form),
            lambda s, g, gamma, form=form: whole_array_inna(s.theta.data, s.psi.data, g.data,
                                                            gamma, alpha, beta, form))
           for form in ("classic", "compact")},
        "dinadam": (lambda th: dinadam_init(th, s1, s2),
                    lambda s, g, gamma=0.01: dinadam_step(s, g, gamma, alpha, beta, eps),
                    lambda s, g, gamma: whole_array_dinadam(s, g, gamma, alpha, beta, eps)),
        "dinadam_direct": (lambda th: dinadam_direct_init(th, s1, s2),
                           lambda s, g, gamma=0.01: dinadam_direct_step(s, g, gamma, alpha, beta,
                                                                        eps), None),
        **{f"momentum_{form}": (lambda th, form=form: innaprop_momentum_init(cfg, th, form),
                                lambda s, g, gamma=0.01: innaprop_momentum_step(s, g, gamma, cfg),
                                lambda s, g, gamma: whole_array_momentum(s, g, gamma, cfg))
           for form in ("direct", "reduced")},
        **{f"reference_{kind}": (lambda th, kind=kind: reference_init(kind, th, params),
                                 lambda s, g, gamma=0.01: reference_step(s, g, gamma, params),
                                 lambda s, g, gamma: whole_array_reference(s, g, gamma, params))
           for kind in ("SGD", "Momentum", "Nesterov", "RMSpropMomentum", "Adam", "AdamW",
                        "NAdam")},
    }


STEPS = rules()
# Every step that runs through the blocked driver; together they use every
# blocked kernel.
BLOCKED = sorted(name for name, (_, _, oracle) in STEPS.items() if oracle is not None)


def slot_arrays(state) -> list:
    """The arrays of the state's ``ParamVector`` slots, in field order."""
    slots = [getattr(state, f.name) for f in fields(state)]
    return [slot.data for slot in slots if isinstance(slot, ParamVector)]


def assert_bitwise(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(STEPS))
def test_step_checks_gradient_and_keeps_precision(name):
    init, step, _ = STEPS[name]
    state = init(ParamVector([1.0, -2.0, 0.5], "f32"))
    with pytest.raises(ContractViolation, match="precision"):
        step(state, ParamVector([0.5, 0.25, -1.0], "f64"))
    with pytest.raises(ContractViolation, match="dimension"):
        step(state, ParamVector([0.5], "f32"))
    for _ in range(2):  # the second step reads the slots the first one wrote
        state = step(state, ParamVector([0.5, 0.25, -1.0], "f32"))
    arrays = slot_arrays(state)
    assert state.k == 2 and len(arrays) >= 1
    assert all(arr.dtype == np.float32 for arr in arrays)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("gamma", [0.01, 0.0])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("name", sorted(STEPS))
def test_nonfinite_gradient_diverges_and_changes_nothing(name, precision, bad, gamma):
    # The run loop hands a step the problem's gradient without a finiteness
    # scan. Every rule reads the gradient into a new slot, and 0*inf and
    # x*nan are NaN, so the step's own check is the verdict, even at step
    # size 0. The bad element sits in the second block of the blocked steps.
    init, step, _ = STEPS[name]
    dim = _BLOCK + 3
    rng = RngStream(12, 0).generator()
    state = step(init(ParamVector(rng.standard_normal(dim), precision)),
                 ParamVector(rng.standard_normal(dim), precision))
    before = [arr.copy() for arr in slot_arrays(state)]
    grad = rng.standard_normal(dim).astype(Precision.of(precision).dtype)
    grad[-2] = bad
    with pytest.raises(DivergenceError) as err:
        step(state, ParamVector._wrap(grad), gamma)
    assert err.value.step == 2 and state.k == 1
    assert not any(arr.flags.writeable for arr in slot_arrays(state))
    assert_bitwise(slot_arrays(state), before)


@pytest.mark.parametrize("gamma", [-0.01, np.nan, np.inf])
@pytest.mark.parametrize("name", sorted(STEPS))
def test_bad_step_size_rejected_before_the_gradient(name, gamma):
    # A negative step size would step uphill, and a NaN or infinite one is
    # the caller's error, not a divergence of the rule. Every step rejects
    # it before it looks at the gradient, here one of the wrong dimension,
    # and an owned state keeps its slots.
    init, step, _ = STEPS[name]
    state = _own(init(ParamVector([1.0, -2.0, 0.5])))
    before = [arr.copy() for arr in slot_arrays(state)]
    with pytest.raises(ContractViolation, match="step size"):
        step(state, ParamVector([0.5]), gamma)
    assert_bitwise(slot_arrays(state), before)


@pytest.mark.parametrize("layout", ["public", "owned"])
@pytest.mark.parametrize("name", sorted(STEPS))
def test_successor_is_the_state_with_its_new_slots_at_the_next_index(name, layout):
    # Every step builds its successor one way: each field it does not step
    # is carried over (a reference kind, a momentum form, DINAdam's rates, a
    # None g_prev), its slots are those the rule wrote, and k is k + 1. An
    # owned state's successor of the blocked driver keeps its record; an
    # oracle's successor has fresh slots and is not owned.
    init, step, _ = STEPS[name]
    rng = RngStream(4, 26).generator()
    state = init(ParamVector(rng.standard_normal(42)))
    if layout == "owned":
        state = _own(state)
    record = vars(state).get("_owned") if name in BLOCKED else None
    for k in (1, 2):
        new = step(state, ParamVector(rng.standard_normal(42)))
        slots = {f.name: getattr(new, f.name) for f in fields(new)
                 if isinstance(getattr(new, f.name), ParamVector)}
        assert slots.keys() == {f.name for f in fields(state)
                                if isinstance(getattr(state, f.name), ParamVector)}
        want = replace(state, **slots, k=k)
        assert type(new) is type(state) and new.k == k
        for f in fields(want):
            if f.name != "k":
                assert getattr(new, f.name) is getattr(want, f.name), f.name
        assert set(vars(new)) - {"_owned"} == {f.name for f in fields(new)}
        assert vars(new).get("_owned") is record
        state = new


class TestMovedRules:
    """Every rule moved onto the blocked driver, on fixed draws."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("layout", ["public", "owned", "donated"])
    @pytest.mark.parametrize("dim", [2, 42, _BLOCK + 7])
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("name", BLOCKED)
    def test_bitwise_equal_to_whole_array(self, name, precision, dim, layout):
        # Three steps, each against the whole-array formula on the same
        # state; then a gradient with one non-finite element, in the last
        # partial block above _BLOCK, which the formula carries into a new
        # slot and the step rejects at its own index. Only the owned state
        # is written in place: a "donated" one, whose slots were all made
        # writable by hand, gets fresh slots as the public one does.
        init, step, oracle = STEPS[name]
        rng = RngStream(dim, 13).generator()
        state = init(ParamVector(rng.standard_normal(dim), precision))
        if layout == "owned":
            state = _own(state)
        elif layout == "donated":
            state = with_writable_slots(state, [f.name for f in fields(state) if
                                                isinstance(getattr(state, f.name), ParamVector)])
        cls = type(state)
        for k in range(3):
            g = ParamVector(rng.standard_normal(dim), precision)
            gamma = 0.01 * (k + 1)
            want = oracle(state, g, gamma)
            slots = slot_arrays(state)
            before = [arr.copy() for arr in slots]
            state = step(state, g, gamma)
            assert state.k == k + 1 and type(state) is cls
            assert_bitwise(slot_arrays(state), want)
            assert len(slot_arrays(state)) == len(want)
            in_place = [new is old for new, old in zip(slot_arrays(state), slots)]
            assert all(in_place) if layout == "owned" else not any(in_place), name
            if layout != "owned":
                assert_bitwise(slots, before)
        grad = rng.standard_normal(dim).astype(Precision.of(precision).dtype)
        grad[-1] = np.nan
        bad = ParamVector._wrap(grad)
        assert not all(np.isfinite(arr).all() for arr in oracle(state, bad, 0.01))
        with pytest.raises(DivergenceError) as err:
            step(state, bad, 0.01)
        assert err.value.step == 4


# ---------------------------------------------------------------------------
# The differential fuzzer: every way the blocked driver runs a step, against
# the table's whole-array formulas, byte for byte
# ---------------------------------------------------------------------------

FUZZ_SEED = 20261020
FUZZ_CASES = 300
FUZZ_STEPS = 4
FUZZ_DIMS = [1, 2, 42, _BLOCK - 1, _BLOCK + 1, _SHARED - 1, _SHARED + 1]
# public: fresh slots. owned: written in place (_own). cast: owned, at one
# coefficient tuple, which _operands casts once it repeats. threads: owned,
# above _SHARED, with its blocks handed to both threads by the Gate.
PATHS = ["public", "owned", "cast", "threads"]
# A step size drawn per step, one for every step, or a zero of either sign
# at every step; the last with alpha * beta > 1, where psi_theta is -0.0 at
# step size 0.0.
SCHEDULES = ["changing", "constant", "zero", "zero_negative_psi_theta"]
# Nothing, one gradient element made NaN or an infinity, or one finite but
# so large that (1 - sigma) * g * g overflows v alone.
INJECTIONS = [None, "non-finite", "overflow"]
OVERFLOW = {"f64": 1e200, "f32": 1e30}


def fuzz_draw(rng: random.Random) -> dict:
    """One case: a blocked rule, its dtype and hyperparameters, a dim, a
    path, the step sizes of ``FUZZ_STEPS`` steps, and the step and
    coordinate of the injection, the first, a random or the last one."""
    name, precision, path = rng.choice(BLOCKED), rng.choice(["f32", "f64"]), rng.choice(PATHS)
    dim = rng.choice([d for d in FUZZ_DIMS if d > _SHARED] if path == "threads" else FUZZ_DIMS)
    schedule = rng.choice(SCHEDULES)
    if path == "cast" and schedule == "changing":
        schedule = "constant"
    # alpha * beta = 1 at (2, 0.5) and (1, 1): psi starts at signed zeros.
    negative = schedule == "zero_negative_psi_theta"
    alpha = rng.choice([2.5, 4.0] if negative else [0.0, 0.1, 1.0, 2.0])
    beta = rng.choice([0.5, 0.9, 1.0])
    # The cast path repeats its tuple: no bias correction, whose step index
    # changes it (NAdam's changes anyway).
    bias, decay = path != "cast" and rng.random() < 0.5, rng.choice([0.0, 0.01])
    cfg = InnapropConfig(alpha, beta, rng.choice([0.0, 0.9, 0.999]), rng.choice([1e-8, 1e-3]),
                         decay, bias)
    params = ReferenceParams(rng.choice([0.0, 0.9]), rng.choice([0.9, 0.999]), cfg.epsilon,
                             decay, bias)
    if schedule == "changing":
        gammas = [rng.uniform(0.0, 0.1) for _ in range(FUZZ_STEPS)]
    elif schedule == "constant":
        gammas = [rng.uniform(0.0, 0.1)] * FUZZ_STEPS
    else:
        gammas = [rng.choice([0.0, -0.0]) for _ in range(FUZZ_STEPS)]
    injection = rng.choice(INJECTIONS)
    if injection == "non-finite":
        injection = rng.choice([np.nan, np.inf, -np.inf])
    where = (rng.randrange(FUZZ_STEPS), rng.choice([0, rng.randrange(dim), dim - 1]))
    return dict(name=name, precision=precision, dim=dim, path=path, schedule=schedule,
                gammas=gammas, injection=injection, where=where, cfg=cfg, params=params)


def fuzz_arrays(index: int, draw: dict):
    """The case's theta0 and gradients, standard normal with a few signed
    zeros, one gradient element replaced as the draw says."""
    rng = RngStream(FUZZ_SEED, index).generator()
    values = rng.standard_normal((1 + FUZZ_STEPS, draw["dim"]))
    values[rng.random(values.shape) < min(0.5, 4 / draw["dim"])] *= 0.0
    theta0, *grads = values.astype(Precision.of(draw["precision"]).dtype)
    if draw["injection"] is not None:
        step, coordinate = draw["where"]
        bad = draw["injection"]
        grads[step][coordinate] = OVERFLOW[draw["precision"]] if bad == "overflow" else bad
    return theta0, grads


def same_bytes(got, want) -> bool:
    """Bit for bit, the signs of zeros included, as ``==`` is not."""
    return [(a.dtype, a.tobytes()) for a in got] == [(b.dtype, b.tobytes()) for b in want]


def run_fuzz_case(index: int, draw: dict, sharing) -> set:
    """Steps the case's state and checks every step against the oracle;
    returns what the case reached."""
    init, step, oracle = rules(draw["cfg"], draw["params"])[draw["name"]]
    theta0, grads = fuzz_arrays(index, draw)
    public, reached = draw["path"] == "public", set()
    state = init(ParamVector(theta0, draw["precision"]))
    if not public:
        state = _own(state)
    for k, (gamma, grad) in enumerate(zip(draw["gammas"], grads), 1):
        g, slots = ParamVector._wrap(grad), slot_arrays(state)
        before = [arr.copy() for arr in slots] if public else []
        want = oracle(state, g, gamma)
        finite = all(np.isfinite(arr).all() for arr in want)
        try:
            new = step(state, g, gamma)
        except DivergenceError as err:
            assert not finite and err.step == k, f"DivergenceError({err.step}) at step {k}"
            new = None
        else:
            assert finite, f"no DivergenceError at step {k}"
            assert new.k == k and same_bytes(slot_arrays(new), want), f"bytes at step {k}"
            if not public:
                assert all(a is b for a, b in zip(slot_arrays(new), slots)), "not in place"
                if vars(new)["_owned"].last[1] is not None:
                    reached.add("cast coefficients")
        if public:
            assert same_bytes(slots, before), "input slots changed"
            assert not any(arr.flags.writeable for arr in slots), "input slots writable"
        # A step returns or raises only once the worker has stopped.
        assert all(future.done() for future in sharing.futures), "a worker range still runs"
        if new is None:
            reached.add("diverged")
            break
        state = new
    # The Gate hands the worker blocks on the threads path alone.
    worker = any(not by_caller for _, by_caller in sharing.taken)
    assert worker == (draw["path"] == "threads"), f"worker took blocks: {worker}"
    return reached


_FUZZ_RNG = random.Random(FUZZ_SEED)
FUZZ_DRAWS = [fuzz_draw(_FUZZ_RNG) for _ in range(FUZZ_CASES)]


@pytest.fixture(scope="module")
def fuzz_reached():
    """What the fuzz cases reached. Once every case has run, the search
    must have reached every path, cast coefficients and divergences."""
    reached = Counter()
    yield reached
    if reached["cases"] == FUZZ_CASES:
        assert min(reached[key] for key in [*PATHS, "cast coefficients", "diverged"]) >= 30, \
            reached


@pytest.mark.parametrize("index", range(FUZZ_CASES), ids=[
    f"{i}-{d['name']}-{d['precision']}-{d['path']}" for i, d in enumerate(FUZZ_DRAWS)])
def test_every_path_of_every_blocked_rule_matches_the_oracle(index, sharing, monkeypatch,
                                                             fuzz_reached):
    # One case a test. Under the run loop's errstate, warnings as errors: a
    # worker thread that lost the caller's errstate warns on overflow, and
    # fails the case.
    draw = FUZZ_DRAWS[index]
    if draw["path"] != "threads":
        monkeypatch.setattr(numerics, "_block_pool", lambda: None)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        try:
            fuzz_reached.update(run_fuzz_case(index, draw, sharing))
        except Exception as exc:
            raise AssertionError(f"fuzz case {index}: {draw}") from exc
    fuzz_reached.update([draw["path"], "cases"])


# ---------------------------------------------------------------------------
# The paper's construction and the owners of states
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("layout", ["public", "owned"])
@pytest.mark.parametrize("dim", [2, 42, _BLOCK + 7])
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_adaptive_rules_are_plain_rules_on_the_rms_scaled_gradient(precision, dim, layout):
    # The paper's construction, bit for bit through the public steps: with
    # and without decay and bias correction, INNAprop's theta and psi are
    # INNA's compact step from the decayed theta and the same psi on
    # g / (sqrt(v_hat) + eps), and its v is RMSprop's average of g^2.
    # RMSpropMomentum is Momentum on the same scaled gradient.
    rng = RngStream(dim, 16).generator()
    theta0 = rng.standard_normal(dim)

    def start(state):
        return _own(state) if layout == "owned" else state

    def scaled(g, v_hat, eps):
        return ParamVector._wrap(g.data / (np.sqrt(v_hat) + eps))

    configs = (CFG, PLAIN_CFG)
    states = [start(innaprop_init(cfg, ParamVector(theta0, precision))) for cfg in configs]
    rms_state = start(reference_init("RMSpropMomentum", ParamVector(theta0, precision)))
    for k in (1, 2, 3):
        g = ParamVector(3.0 * rng.standard_normal(dim), precision)
        gamma = 0.01 * k
        for i, cfg in enumerate(configs):
            theta, psi, v = (slot.data.copy() for slot in (states[i].theta, states[i].psi,
                                                           states[i].v))
            new = states[i] = innaprop_step(states[i], g, gamma, cfg)
            v_new = cfg.sigma * v + (1.0 - cfg.sigma) * g.data * g.data
            assert_bitwise([new.v.data], [v_new])
            if cfg.weight_decay:
                theta = (1.0 - cfg.weight_decay * gamma) * theta
            v_hat = v_new / (1.0 - cfg.sigma ** k) if cfg.bias_correction else v_new
            inna = inna_step(InnaState(ParamVector._wrap(theta), ParamVector._wrap(psi)),
                             scaled(g, v_hat, cfg.epsilon), gamma, cfg.alpha, cfg.beta,
                             form="compact")
            assert_bitwise([new.theta.data, new.psi.data], [inna.theta.data, inna.psi.data])
        theta, m, v = (slot.data.copy() for slot in (rms_state.theta, rms_state.m, rms_state.v))
        rms_state = reference_step(rms_state, g, gamma, PARAMS)
        b2 = PARAMS.beta2
        v_new = b2 * v + (1.0 - b2) * g.data * g.data
        plain = reference_step(
            ReferenceState("Momentum", ParamVector._wrap(theta), ParamVector._wrap(m)),
            scaled(g, v_new, PARAMS.epsilon), gamma, PARAMS)
        assert_bitwise(slot_arrays(rms_state), [plain.theta.data, plain.m.data, v_new])


def test_threads_stepping_their_own_states_match_one_thread():
    # Each owned state keeps its own scratch rows and last coefficients, so
    # no step shares a buffer with another state's. Six states of one
    # length, stepped from six threads at once with a short switch interval,
    # come out bit for bit as when stepped one at a time.
    count, start = 6, threading.Barrier(6)

    def run(out, index, barrier=None):
        init, step, _ = STEPS["momentum_reduced"]
        rng = RngStream(index, 15).generator()
        state = _own(init(ParamVector(rng.standard_normal(42))))
        grads = [ParamVector(rng.standard_normal(42)) for _ in range(500)]
        if barrier is not None:
            barrier.wait(timeout=60)
        for g in grads:
            state = step(state, g, 0.01)
        out[index] = slot_arrays(state)

    alone, together = {}, {}
    for index in range(count):
        run(alone, index)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(together, index, start))
                   for index in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for index in range(count):
        assert_bitwise(together[index], alone[index])


# ---------------------------------------------------------------------------
# Owned states: given a state from _own, the same kernel writes the new slots
# over the old ones; any other state gets fresh slots, writable or not
# ---------------------------------------------------------------------------


def with_writable_slots(state, names):
    """A copy of ``state`` with copies of its slots, those in ``names`` made
    writable by hand: writable slots, but not an owned state."""
    slots = {f.name: ParamVector._wrap(getattr(state, f.name).data.copy())
             for f in fields(state) if isinstance(getattr(state, f.name), ParamVector)}
    for name in names:
        slots[name].data.flags.writeable = True
    return replace(state, **slots)


class TestOwnedSteps:
    @pytest.mark.parametrize("dim", [42, 2 * _BLOCK + 7])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("writable", ["read_only", "theta_only", "all_but_theta", "all"])
    def test_unowned_state_gets_fresh_slots_and_changes_nothing(self, dim, weight_decay,
                                                                writable):
        # Only a state from _own is written in place; any other state gets
        # fresh slots, the same as the public step's, and stays as it was,
        # whichever of its slots were made writable by hand.
        rng = RngStream(7, 7).generator()
        theta0 = ParamVector(rng.standard_normal(dim))
        g = ParamVector(rng.standard_normal(dim))
        steps = rules(replace(CFG, weight_decay=weight_decay),
                      replace(PARAMS, weight_decay=weight_decay))
        for name in BLOCKED:
            init, step, _ = steps[name]
            public = step(init(theta0), g, 0.01)
            names = [f.name for f in fields(public) if isinstance(getattr(public, f.name),
                                                                  ParamVector)]
            writable_names = {"read_only": [], "theta_only": ["theta"],
                              "all_but_theta": names[1:], "all": names}[writable]
            state = with_writable_slots(public, writable_names)
            before = [arr.copy() for arr in slot_arrays(state)]
            new = step(state, g, 0.01)
            assert state.k == 1 and new.k == 2
            assert not any(np.shares_memory(a, b) for a in slot_arrays(new)
                           for b in slot_arrays(state)), name
            assert not any(arr.flags.writeable for arr in slot_arrays(new)), name
            assert_bitwise(slot_arrays(state), before)
            assert_bitwise(slot_arrays(new), slot_arrays(step(public, g, 0.01)))

    @pytest.mark.parametrize("dim", [1, _BLOCK, _BLOCK + 1])
    def test_fresh_slots_are_separate_read_only_rows(self, dim):
        # A fresh step's new slots are the rows of one array: they share no
        # memory with each other or with the input, and each is read-only.
        rng = RngStream(dim, 9).generator()
        theta0 = ParamVector(rng.standard_normal(dim))
        g = ParamVector(rng.standard_normal(dim))
        for name in BLOCKED:
            init, step, _ = STEPS[name]
            state = init(theta0)
            new = step(state, g, 0.01)
            arrays, inputs = slot_arrays(new), [*slot_arrays(state), g.data]
            for i, arr in enumerate(arrays):
                assert not arr.flags.writeable, name
                assert not any(np.shares_memory(arr, other) for other in arrays[i + 1:]), name
                assert not any(np.shares_memory(arr, other) for other in inputs), name

    def test_reference_init_gives_each_slot_its_own_array(self):
        theta0 = ParamVector([1.0, 2.0])
        for kind in ("RMSpropMomentum", "Adam", "AdamW", "NAdam"):
            state = reference_init(kind, theta0)
            assert not np.shares_memory(state.m.data, state.v.data)

# ---------------------------------------------------------------------------
# Owned states: _own gives a state of at most _BLOCK elements its slots
# as the rows of one writable array, which a blocked step writes in place
# with one kernel call and checks with one scan
# ---------------------------------------------------------------------------


OWNED_DIMS = [1, 42, _BLOCK]


def owned_block(state) -> np.ndarray:
    """The one array whose rows are the state's slots, as the run loop owns them."""
    arrays = slot_arrays(state)
    block = arrays[0].base
    assert block.shape == (len(arrays), state.theta.dim) and block.flags.writeable
    assert all(arr.base is block and arr.flags.writeable for arr in arrays)
    return block


class TestOwnedBlock:
    @pytest.mark.parametrize("dim", OWNED_DIMS)
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("bias_correction", [True, False])
    def test_bitwise_equal_to_fresh_and_keeps_its_rows(self, dim, precision, weight_decay,
                                                        bias_correction):
        steps = rules(replace(CFG, weight_decay=weight_decay, bias_correction=bias_correction),
                      replace(PARAMS, weight_decay=weight_decay, bias_correction=bias_correction))
        for name in BLOCKED:
            init, step, _ = steps[name]
            rng = RngStream(dim, 10).generator()
            fresh = init(ParamVector(rng.standard_normal(dim), precision))
            owned = _own(fresh)
            block = owned_block(owned)
            for k in range(3):
                g = ParamVector(rng.standard_normal(dim), precision)
                gamma = 0.01 * (k + 1)
                fresh = step(fresh, g, gamma)
                rows = slot_arrays(owned)
                owned = step(owned, g, gamma)
                assert owned.k == fresh.k == k + 1
                assert all(new is old for new, old in zip(slot_arrays(owned), rows)), name
                assert owned_block(owned) is block
                assert_bitwise(slot_arrays(owned), slot_arrays(fresh))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("dim", OWNED_DIMS)
    def test_nonfinite_only_in_the_last_row_diverges(self, dim):
        # (1 - sigma) * g * g overflows in v alone; g / sqrt(inf) is 0.
        grad = np.ones(dim)
        grad[-1] = 1e200
        g = ParamVector(grad)
        steps = rules(replace(CFG, weight_decay=0.0), replace(PARAMS, weight_decay=0.0))
        for name in ("innaprop", "reference_Adam", "reference_AdamW"):
            init, step, _ = steps[name]
            state = _own(init(ParamVector(np.ones(dim))))
            with pytest.raises(DivergenceError) as err:
                step(state, g, 0.01)
            assert err.value.step == 1, name
            theta, second, v = slot_arrays(state)
            assert np.isfinite(theta).all() and np.isfinite(second).all()
            assert not np.isfinite(v[-1])

    @pytest.mark.parametrize("name", BLOCKED)
    def test_owned_state_keeps_one_block_of_its_slots(self, name):
        init, step, _ = STEPS[name]
        rng = RngStream(3, 14).generator()
        state = _own(init(ParamVector(rng.standard_normal(42))))
        block = state.theta.data.base
        assert block.shape == (len(slot_arrays(state)), 42)
        for _ in range(3):
            state = step(state, ParamVector(rng.standard_normal(42)), 0.01)
            assert all(arr.base is block and arr.flags.writeable
                       for arr in slot_arrays(state)), name

    @pytest.mark.parametrize("dim", [1, 42, _BLOCK])
    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_block_with_a_read_only_row_raises(self, dim, row):
        # An owned state is written in place whatever its flags say: the
        # kernel's write to a row made read-only raises numpy's ValueError.
        rng = RngStream(dim, 12).generator()
        theta0 = ParamVector(rng.standard_normal(dim))
        g = ParamVector(rng.standard_normal(dim))
        for name in BLOCKED:
            init, step, _ = STEPS[name]
            state = _own(step(init(theta0), g, 0.01))
            if row < len(slot_arrays(state)):
                slot_arrays(state)[row].flags.writeable = False
                with pytest.raises(ValueError, match="read-only"):
                    step(state, g, 0.01)

    def test_a_larger_state_keeps_its_own_slots(self):
        # A copy into one block would double the state's memory.
        for name in BLOCKED:
            state = STEPS[name][0](ParamVector(np.ones(_BLOCK + 1)))
            arrays = slot_arrays(state)
            assert _own(state) is state
            assert all(new is old and new.flags.writeable
                       for new, old in zip(slot_arrays(state), arrays)), name


# ---------------------------------------------------------------------------
# Owned record: _own gives a state its record once; its successors carry it
# outside their fields, and no other copy has it
# ---------------------------------------------------------------------------


def owned_run(name, steps, dim=42):
    """An owned state of step ``name`` after ``steps`` steps in place, the
    block its slots are rows of, and the generator of its gradients."""
    init, step, _ = STEPS[name]
    rng = RngStream(dim, 23).generator()
    state = _own(init(ParamVector(rng.standard_normal(dim))))
    block = slot_arrays(state)[0].base
    for _ in range(steps):
        state = step(state, ParamVector(rng.standard_normal(dim)))
    return state, block, rng


class TestOwnedRecord:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("name", sorted(STEPS))
    def test_every_state_pickles_under_every_protocol(self, name, precision, protocol):
        init, step, _ = STEPS[name]
        rng = RngStream(42, 24).generator()
        state = step(init(ParamVector(rng.standard_normal(42), precision)),
                     ParamVector(rng.standard_normal(42), precision))
        twin = pickle.loads(pickle.dumps(state, protocol=protocol))
        assert type(twin) is type(state) and twin == state
        for got, want in zip(slot_arrays(twin), slot_arrays(state)):
            assert got.dtype == want.dtype and not got.flags.writeable

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("name", BLOCKED)
    def test_owned_state_pickles_without_its_record(self, name, protocol):
        state, block, _ = owned_run(name, 2)
        twin = pickle.loads(pickle.dumps(state, protocol=protocol))
        assert twin == state and vars(twin)["_owned"] is None
        assert not any(np.shares_memory(arr, block) for arr in slot_arrays(twin))

    @pytest.mark.parametrize("name", BLOCKED)
    def test_successors_carry_the_record_and_keep_the_block(self, name):
        state, block, rng = owned_run(name, 0)
        record = vars(state)["_owned"]
        arrays = slot_arrays(state)
        assert list(record.arrays) == arrays
        assert len(record.checked) == 1 and record.checked[0] is block
        assert all(row.shape == (42,) and row.dtype == np.float64 for row in record.scratch)
        assert not any(np.shares_memory(row, block) for row in record.scratch)
        for k in range(1, 4):
            state = STEPS[name][1](state, ParamVector(rng.standard_normal(42)))
            assert state.k == k and vars(state)["_owned"] is record
            assert all(a is b for a, b in zip(slot_arrays(state), arrays))

    @pytest.mark.parametrize("name", BLOCKED)
    def test_equality_repr_and_fields_are_unchanged(self, name):
        state, _, _ = owned_run(name, 2)
        twin = replace(state)  # built by __init__: no record
        assert "_owned" in vars(state) and "_owned" not in vars(twin)
        assert state == twin and repr(state) == repr(twin)
        assert "_owned" not in [f.name for f in fields(state)]

    @pytest.mark.parametrize("name", BLOCKED)
    def test_replace_copy_gets_fresh_slots(self, name):
        # A copy without the record is not owned, though its slots are the
        # block's writable rows: it gets fresh, read-only slots, and the
        # block is not written.
        step = STEPS[name][1]
        state, block, rng = owned_run(name, 2)
        g = ParamVector(rng.standard_normal(42))
        want = slot_arrays(step(replace(state, theta=ParamVector(state.theta.data)), g))
        before = block.copy()
        for twin in (replace(state, theta=ParamVector(state.theta.data)), replace(state)):
            fresh = step(twin, g)
            assert np.array_equal(block, before)
            assert not any(np.shares_memory(arr, block) or arr.flags.writeable
                           for arr in slot_arrays(fresh)), name
            assert_bitwise(slot_arrays(fresh), want)

    @pytest.mark.parametrize("steps", [0, 2])
    @pytest.mark.parametrize("name", BLOCKED)
    def test_a_slot_made_read_only_raises(self, name, steps):
        state, _, rng = owned_run(name, steps)
        slot_arrays(state)[-1].flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            STEPS[name][1](state, ParamVector(rng.standard_normal(42)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name", BLOCKED)
    def test_recorded_scan_still_diverges(self, name):
        state, _, rng = owned_run(name, 2)
        slot_arrays(state)[-1][-1] = np.nan
        with pytest.raises(DivergenceError) as err:
            STEPS[name][1](state, ParamVector(rng.standard_normal(42)))
        assert err.value.step == 3

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                        lambda state: pickle.loads(pickle.dumps(state))],
                             ids=["copy", "deepcopy", "pickle"])
    @pytest.mark.parametrize("name", BLOCKED)
    def test_copies(self, name, copier):
        # A shallow copy shares the slots and their record; a deep copy or a
        # pickled one has new, read-only arrays and no record: fresh slots.
        step = STEPS[name][1]
        state, block, rng = owned_run(name, 2)
        twin = copier(state)
        g = ParamVector(rng.standard_normal(42))
        before = block.copy()
        got = slot_arrays(step(twin, g))
        if copier is copy.copy:
            assert vars(twin)["_owned"] is vars(state)["_owned"]
            assert all(arr.base is block for arr in got)
            return
        assert vars(twin)["_owned"] is None and np.array_equal(block, before)
        assert not any(np.shares_memory(arr, block) for arr in got)
        assert_bitwise(got, slot_arrays(step(state, g)))


# ---------------------------------------------------------------------------
# Kernel operands: a kernel only applies its coefficients, and a repeated
# coefficient tuple reaches it cast once to the slots' dtype
# ---------------------------------------------------------------------------


class Untouchable(float):
    """A float whose Python arithmetic raises: a kernel may only hand it to
    numpy, which reads it as an f64 scalar."""

    def _refuse(self, *args):
        raise AssertionError("arithmetic on a coefficient inside a kernel")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __truediv__ = __rtruediv__ = __pow__ = __rpow__ = __neg__ = __abs__ = _refuse


def untouchable(coeffs):
    return tuple(c if c is None else untouchable(c) if type(c) is tuple else Untouchable(c)
                 for c in coeffs)


def test_blocked_steps_cover_every_kernel(monkeypatch):
    kernels = set()
    blocked = optimizers._blocked_step

    def spy(state, step_index, kernel, *args):
        kernels.add(kernel.__name__)
        return blocked(state, step_index, kernel, *args)

    monkeypatch.setattr(optimizers, "_blocked_step", spy)
    for name in BLOCKED:
        init, step, _ = STEPS[name]
        step(init(vec(1.0, -2.0)), vec(0.5, 0.25))
    assert kernels == {name for name in dir(optimizers) if name.endswith("_kernel")}


@pytest.mark.parametrize("hyper", [(CFG, PARAMS), (PLAIN_CFG, PLAIN_PARAMS)],
                         ids=["decayed", "plain"])
@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("name", BLOCKED)
def test_kernel_runs_on_coefficients_it_cannot_compute_with(name, precision, hyper,
                                                            monkeypatch):
    # The second step of each rule, with decay and bias correction and
    # without, is replayed through its kernel with coefficients whose
    # arithmetic raises. In f64 the kernel's result is the step's, bit for bit.
    init, step, _ = rules(*hyper)[name]
    rng = RngStream(5, 17).generator()
    state = step(init(ParamVector(rng.standard_normal(42), precision)),
                 ParamVector(rng.standard_normal(42), precision))
    calls = []
    blocked = optimizers._blocked_step

    def capture(state, step_index, kernel, coeffs, names, grad):
        slots = [getattr(state, name).data.copy() for name in names]
        calls.append((kernel, coeffs, slots, grad.copy()))
        return blocked(state, step_index, kernel, coeffs, names, grad)

    monkeypatch.setattr(optimizers, "_blocked_step", capture)
    state = step(state, ParamVector(rng.standard_normal(42), precision))
    (kernel, coeffs, slots, grad), = calls
    outs = [np.empty_like(slot) for slot in slots]
    scratch = (np.empty_like(grad), np.empty_like(grad))
    kernel([*slots, grad], outs, scratch, untouchable(coeffs))
    if precision == "f64":
        assert_bitwise(outs, slot_arrays(state))


@pytest.mark.parametrize("layout", ["public", "owned"])
@pytest.mark.parametrize("dim", [2, 42, 100_000])
@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("name", BLOCKED)
def test_slot_typed_coefficients_give_the_bits_of_python_floats(name, precision, dim, layout,
                                                                  monkeypatch):
    # Three steps with every coefficient passed as a Python float, then the
    # same three with every coefficient a 0-d array of the slots' dtype; at
    # 100,000 elements the kernel runs over several blocks.
    init, step, _ = STEPS[name]
    blocked = optimizers._blocked_step
    monkeypatch.setattr(optimizers, "_operands", lambda owned, coeffs: coeffs)
    runs = []
    for cast in (False, True):
        def driven(state, step_index, kernel, coeffs, names, grad, cast=cast):
            if cast:
                coeffs = optimizers._cast(coeffs, grad.dtype)
            return blocked(state, step_index, kernel, coeffs, names, grad)

        monkeypatch.setattr(optimizers, "_blocked_step", driven)
        rng = RngStream(dim, 18).generator()
        state = init(ParamVector(rng.standard_normal(dim), precision))
        if layout == "owned":
            state = _own(state)
        for k in range(3):
            state = step(state, ParamVector(rng.standard_normal(dim), precision), 0.01 * (k + 1))
        runs.append(slot_arrays(state))
    assert_bitwise(runs[1], runs[0])


def test_repeated_coefficients_keep_the_sign_of_zero():
    # At step size 0, INNAprop's psi_theta = 0 * (1/beta - alpha) is -0.0
    # for alpha > 1/beta and +0.0 otherwise, and the two coefficient tuples
    # compare equal under ==. With psi at -0.0 that sign reaches psi_new:
    # -0.0 + -0.0 is -0.0, -0.0 + 0.0 is 0.0. Stepped alternately, each
    # state must still get its own coefficients.
    configs = [InnapropConfig(alpha=alpha, beta=0.9, weight_decay=0.0, bias_correction=False)
               for alpha in (2.0, 0.5)]
    g = ParamVector(np.linspace(-1.0, 1.0, 8))

    def run(indices):
        states = {i: _own(InnapropState(ParamVector(np.linspace(0.5, 1.5, 8)),
                                        ParamVector._wrap(np.full(8, -0.0)),
                                        ParamVector(np.zeros(8))))
                  for i in indices}
        for _ in range(4):
            for i in indices:
                states[i] = innaprop_step(states[i], g, 0.0, configs[i])
        return {i: slot_arrays(state) for i, state in states.items()}

    alone = {i: run([i])[i] for i in (0, 1)}
    assert np.signbit(alone[0][1]).all() and not np.signbit(alone[1][1]).any()
    together = run([0, 1])
    for i in (0, 1):
        assert_bitwise(together[i], alone[i])


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_two_owned_states_of_one_kernel_cast_once_each(precision, monkeypatch):
    # Each owned state keeps its own last coefficients. Two states of one
    # kernel, stepped alternately, each at its own constant coefficients,
    # cast their tuples once each, at their second steps, and come out bit
    # for bit as when each is stepped alone.
    pairs = [(0.5, 0.9), (1.5, 0.7)]  # (alpha, beta) of each state
    casts = []
    cast = optimizers._cast

    def counted(coeffs, dtype):
        casts.append(coeffs)
        return cast(coeffs, dtype)

    monkeypatch.setattr(optimizers, "_cast", counted)

    def run(indices):
        rng = RngStream(3, 25).generator()
        states = {i: _own(inna_init(*pairs[i], ParamVector(np.linspace(-1.0, 1.0, 42),
                                                           precision)))
                  for i in indices}
        for _ in range(5):
            g = ParamVector(rng.standard_normal(42), precision)
            for i in indices:
                states[i] = inna_step(states[i], g, 0.01, *pairs[i], form="compact")
        return {i: slot_arrays(state) for i, state in states.items()}

    alone = {i: run([i])[i] for i in (0, 1)}
    assert len(casts) == 2
    casts.clear()
    together = run([0, 1])
    assert len(casts) == 2 and casts[0] != casts[1]
    for i in (0, 1):
        assert_bitwise(together[i], alone[i])


def test_threads_interleaving_rules_and_dtypes_match_their_standalone_runs():
    # Each owned state keeps its own last coefficients and their cast. Four
    # threads step in lock-step, one step each between barriers, at a
    # constant step size, so every state repeats its coefficients: the same
    # kernel in two dtypes, and two other rules.
    plain = rules(PLAIN_CFG)["innaprop"]
    cases = [(plain, "f32"), (plain, "f64"), (STEPS["momentum_reduced"], "f32"),
             (STEPS["reference_SGD"], "f64")]
    barrier = threading.Barrier(len(cases))

    def run(out, index, lockstep=False):
        (init, step, _), precision = cases[index]
        rng = RngStream(index, 19).generator()
        state = _own(init(ParamVector(rng.standard_normal(42), precision)))
        grads = [ParamVector(rng.standard_normal(42), precision) for _ in range(50)]
        for g in grads:
            if lockstep:
                barrier.wait(timeout=60)
            state = step(state, g)
        out[index] = slot_arrays(state)

    alone, together = {}, {}
    for index in range(len(cases)):
        run(alone, index)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(together, index, True))
                   for index in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for index in range(len(cases)):
        assert_bitwise(together[index], alone[index])


# ---------------------------------------------------------------------------
# Two threads: a step of more than two blocks shares its blocks between the
# calling thread and one worker thread, with the bits of one thread
# ---------------------------------------------------------------------------


def stepped(name, precision, dim, layout, steps=2):
    """The slot arrays of a ``STEPS`` state after ``steps`` steps on fixed
    draws."""
    init, step, _ = STEPS[name]
    rng = RngStream(dim, 27).generator()
    state = init(ParamVector(rng.standard_normal(dim), precision))
    if layout == "owned":
        state = _own(state)
    for _ in range(steps):
        state = step(state, ParamVector(rng.standard_normal(dim), precision))
    return slot_arrays(state)


def running_ranges(monkeypatch) -> list:
    """Counts the block ranges ``_blocked_step`` runs that have not yet
    returned or raised, in a one-item list."""
    running, run_blocks, lock = [0], optimizers._run_blocks, threading.Lock()

    def counted(job):
        with lock:
            running[0] += 1
        try:
            run_blocks(job)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(optimizers, "_run_blocks", counted)
    return running


@pytest.mark.parametrize("dim", [_BLOCK + 1, 2 * _BLOCK + 7, 4 * _BLOCK + 3])
@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("name", BLOCKED)
def test_two_threads_give_the_bits_of_one(name, precision, dim, sharing, monkeypatch):
    for layout in ("public", "owned"):
        shared = stepped(name, precision, dim, layout)
        threads = {by_caller for _, by_caller in sharing.taken}
        sharing.taken.clear()
        with monkeypatch.context() as serial:
            serial.setattr(numerics, "_block_pool", lambda: None)
            assert_bitwise(shared, stepped(name, precision, dim, layout))
        # At most two blocks start no thread; above, both threads ran blocks.
        assert threads == (set() if dim <= _SHARED else {True, False}), layout
    assert len(sharing.futures) == (0 if dim <= _SHARED else 4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("where", [0, 2 * _BLOCK + 5, 4 * _BLOCK + 2],
                         ids=["first_block", "middle_block", "last_partial_block"])
@pytest.mark.parametrize("layout", ["public", "owned"])
@pytest.mark.parametrize("name", BLOCKED)
def test_nonfinite_block_ends_every_range(name, layout, where, sharing, monkeypatch):
    # The verdict is the same from either thread: the worker takes the
    # first block, the caller the second. The step raises it only once no
    # range is left running.
    init, step, _ = STEPS[name]
    dim = 4 * _BLOCK + 3
    running = running_ranges(monkeypatch)
    rng = RngStream(dim, 28).generator()
    state = step(init(ParamVector(rng.standard_normal(dim))), ParamVector(rng.standard_normal(dim)))
    if layout == "owned":
        state = _own(state)
    grad = rng.standard_normal(dim)
    grad[where] = np.nan
    with pytest.raises(DivergenceError) as err:
        step(state, ParamVector._wrap(grad))
    assert err.value.step == 2
    assert running == [0]
    assert all(future.done() for future in sharing.futures)


def test_busy_worker_leaves_the_step_to_the_caller(sharing, monkeypatch):
    # The worker is held on an event: the caller runs every block, and the
    # range it queued for the worker is cancelled, not awaited.
    pool, release = sharing, threading.Event()
    pool.gate = False
    held = pool.pool.submit(release.wait, 60)
    try:
        shared = stepped("innaprop", "f64", 4 * _BLOCK + 3, "owned")
        assert len(pool.futures) == 2 and all(f.cancelled() for f in pool.futures)
        assert not held.done()
    finally:
        release.set()
        pool.pool.shutdown()
    monkeypatch.setattr(numerics, "_block_pool", lambda: None)
    assert_bitwise(shared, stepped("innaprop", "f64", 4 * _BLOCK + 3, "owned"))


def test_callers_sharing_the_worker_match_one_thread(sharing, monkeypatch):
    # Four threads step states of their own, four blocks each, at once, with
    # a short switch interval: their ranges queue on the one worker, which
    # takes some and finds others cancelled. Each comes out bit for bit as
    # when stepped alone on one thread.
    names = ["innaprop", "momentum_direct", "reference_AdamW", "inna_classic"]
    dim = 4 * _BLOCK + 3

    def run(out, index):
        out[index] = stepped(names[index], "f64", dim, "owned", steps=6)

    with monkeypatch.context() as serial:
        serial.setattr(numerics, "_block_pool", lambda: None)
        alone, together = {}, {}
        for index in range(len(names)):
            run(alone, index)
    pool = sharing
    pool.gate = False
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(together, index))
                   for index in range(len(names))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        pool.pool.shutdown()
    assert not any(thread.is_alive() for thread in threads)
    assert len(pool.futures) == 6 * len(names) and all(f.done() for f in pool.futures)
    for index in range(len(names)):
        assert_bitwise(together[index], alone[index])


def test_worker_steps_in_the_callers_errstate(sharing):
    # numpy's errstate is a context variable, which a new thread does not
    # inherit: the worker runs its range in a copy of the caller's context.
    # The worker takes the first block, where (1 - sigma) * g * g overflows.
    cfg = InnapropConfig(alpha=0.1, beta=0.9)
    dim = 10**6
    grad = np.ones(dim)
    grad[:_BLOCK] = 1e200
    g = ParamVector(grad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            state = _own(innaprop_init(cfg, ParamVector(np.ones(dim))))
            with pytest.raises(DivergenceError) as err:
                innaprop_step(state, g, 0.01, cfg)
            assert err.value.step == 1
        with np.errstate(over="raise", invalid="ignore"):
            state = _own(innaprop_init(cfg, ParamVector(np.ones(dim))))
            with pytest.raises(FloatingPointError, match="overflow"):
                innaprop_step(state, g, 0.01, cfg)
    assert (0, False) in sharing.taken


def test_step_pool_has_no_worker_on_one_cpu(monkeypatch):
    monkeypatch.setattr(numerics, "_pool", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert numerics._block_pool() is None
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert numerics._block_pool() is None and numerics._pool is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_drops_the_parents_pool(monkeypatch):
    # The parent's worker thread does not exist in a forked child, which
    # makes a pool of its own on its first step of more than two blocks.
    monkeypatch.setattr(numerics, "_pool", object())
    pid = os.fork()
    if pid == 0:  # the child: exit at once, with the verdict as its status
        os._exit(0 if numerics._pool is None else 1)
    assert os.waitpid(pid, 0)[1] == 0
