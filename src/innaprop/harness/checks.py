"""User-facing verification suites.

Five suites mirror the standing invariants: ``equivalence`` (the algebraic
identities relating the reduced, unreduced, momentum and Adam-flavored
forms), ``gradients`` (analytic vs central finite differences on every
shipped objective), ``schedulers`` (spot values, warmup linearity, cosine
monotonicity), ``ode`` (integrator order and discretization-gap scaling) and
``instability`` (the F32 stagnation reproduction of the momentum variant).

Each measurement is exposed as a plain function returning numbers so the
test suite can pin exact tolerances; the suite runners wrap them into
pass/fail reports for the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics import ParamVector, Precision, RngStream, fd_gradient
from ..ode import DinFlowSpec, discretization_gap, din_rhs, richardson_ratio, rk4_integrate
from ..optimizers import (
    InnapropConfig,
    ReferenceParams,
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
from ..problems import Problem, generate_synthetic, make_problem, shipped_problems
from ..schedulers import ScheduleSpec, lr_at, stays_below


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            out.append(f"[{'PASS' if r.passed else 'FAIL'}] {self.suite}/{r.name}: {r.detail}")
        return out


def _rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.abs(b).max()), 1e-30)
    return float(np.abs(a - b).max()) / scale


def _paired_max_dev(problem, n_steps, state_a, step_a, state_b, step_b) -> float:
    """Advance two recursions side by side; each sees the gradient at its own
    iterate, from one stacked ``problem.grad`` call on the two iterates.
    Returns the max relative theta deviation over the run."""
    worst = 0.0
    for _ in range(n_steps):
        grads = problem.grad(np.array((_theta_of(state_a), _theta_of(state_b)), dtype=np.float64))
        ga, gb = ParamVector(grads[0]), ParamVector(grads[1])
        state_a = step_a(state_a, ga)
        state_b = step_b(state_b, gb)
        worst = max(worst, _rel_dev(_theta_of(state_a), _theta_of(state_b)))
    return worst


def _theta_of(state) -> np.ndarray:
    return state.theta_curr.data if hasattr(state, "theta_curr") else state.theta.data


# ---------------------------------------------------------------------------
# Equivalence measurements
# ---------------------------------------------------------------------------


def adam_equivalence_dev(problem: Problem, theta0: ParamVector, lam: float,
                         n_steps: int = 1000) -> float:
    """Reduced step at (alpha, beta) = (1, 1) against decoupled-decay Adam
    with beta1 = 0; identical trajectories are the degenerate-family identity."""
    cfg = InnapropConfig(alpha=1.0, beta=1.0, sigma=0.999, epsilon=1e-8,
                         weight_decay=lam, bias_correction=True)
    params = ReferenceParams(beta1=0.0, beta2=0.999, epsilon=1e-8, weight_decay=lam)
    return _paired_max_dev(
        problem, n_steps,
        innaprop_init(cfg, theta0), lambda s, g: innaprop_step(s, g, 1e-3, cfg),
        reference_init("AdamW", theta0, params), lambda s, g: reference_step(s, g, 1e-3, params),
    )


def memory_reduction_dev(problem: Problem, theta0: ParamVector, n_steps: int = 500) -> float:
    """Unreduced six-slot recursion against the reduced three-slot recursion."""
    cfg = InnapropConfig(alpha=0.1, beta=0.9, sigma=0.999, epsilon=1e-8,
                         bias_correction=False)
    return _paired_max_dev(
        problem, n_steps,
        innaprop_naive_init(cfg, theta0), lambda s, g: innaprop_naive_step(s, g, 1e-3, cfg),
        innaprop_init(cfg, theta0), lambda s, g: innaprop_step(s, g, 1e-3, cfg),
    )


def inna_rewrite_dev(n_steps: int = 100) -> float:
    """Classic two-line recursion vs the compact one-slot rewrite."""
    problem = make_problem("rosenbrock", dim=2)
    theta0 = ParamVector([-1.2, 1.0])
    alpha, beta = 0.1, 0.9
    return _paired_max_dev(
        problem, n_steps,
        inna_init(alpha, beta, theta0),
        lambda s, g: inna_step(s, g, 1e-3, alpha, beta, "classic"),
        inna_init(alpha, beta, theta0),
        lambda s, g: inna_step(s, g, 1e-3, alpha, beta, "compact"),
    )


def momentum_forms_dev(n_steps: int = 200) -> float:
    """Direct momentum recursion vs the reduced form, F64."""
    problem = make_problem("rosenbrock", dim=2)
    theta0 = ParamVector([-1.2, 1.0])
    cfg = InnapropConfig(alpha=0.1, beta=0.9, sigma=0.999, epsilon=1e-8)
    return _paired_max_dev(
        problem, n_steps,
        innaprop_momentum_init(cfg, theta0, "direct"),
        lambda s, g: innaprop_momentum_step(s, g, 1e-3, cfg),
        innaprop_momentum_init(cfg, theta0, "reduced"),
        lambda s, g: innaprop_momentum_step(s, g, 1e-3, cfg),
    )


def dinadam_reduction_dev(n_steps: int = 500) -> float:
    """Adam-flavored step at alpha=1, beta=0 vs Adam without bias correction."""
    problem = make_problem("quadratic", spectrum=(1.0, 10.0))
    theta0 = ParamVector(problem.init_theta(RngStream(2, 0).generator()))
    params = ReferenceParams(beta1=0.9, beta2=0.999, epsilon=1e-8, bias_correction=False)
    return _paired_max_dev(
        problem, n_steps,
        dinadam_init(theta0, sigma1=0.9, sigma2=0.999),
        lambda s, g: dinadam_step(s, g, 1e-3, alpha=1.0, beta=0.0),
        reference_init("Adam", theta0, params),
        lambda s, g: reference_step(s, g, 1e-3, params),
    )


def dinadam_forms_dev(n_steps: int = 100) -> float:
    """Memory-saving mtilde recursion vs the direct recursion with a
    previous-gradient slot; pins the sign of the theta update."""
    problem = make_problem("quadratic", spectrum=(1.0, 10.0))
    theta0 = ParamVector(problem.init_theta(RngStream(3, 0).generator()))
    return _paired_max_dev(
        problem, n_steps,
        dinadam_init(theta0, sigma1=0.9, sigma2=0.999),
        lambda s, g: dinadam_step(s, g, 1e-3, alpha=0.5, beta=0.7),
        dinadam_direct_init(theta0, sigma1=0.9, sigma2=0.999),
        lambda s, g: dinadam_direct_step(s, g, 1e-3, alpha=0.5, beta=0.7),
    )


def equivalence_suite() -> SuiteReport:
    rosen = make_problem("rosenbrock", dim=2)
    quad = make_problem("quadratic", spectrum=(1.0, 10.0))
    data = generate_synthetic("two_gaussians", n=200, dim=2, seed=7)
    mlp = make_problem("tiny_mlp", dataset=data, hidden=(8,), activation="tanh")
    mlp_theta0 = ParamVector(mlp.init_theta(RngStream(5, 0).generator()))
    quad_theta0 = ParamVector(quad.init_theta(RngStream(1, 1).generator()))

    checks = [
        ("adam_special_case_rosenbrock_wd0",
         adam_equivalence_dev(rosen, ParamVector([-1.2, 1.0]), 0.0), 1e-12),
        ("adam_special_case_rosenbrock_wd0.01",
         adam_equivalence_dev(rosen, ParamVector([-1.2, 1.0]), 0.01), 1e-12),
        ("adam_special_case_mlp_wd0.01",
         adam_equivalence_dev(mlp, mlp_theta0, 0.01), 1e-12),
        ("six_slot_vs_three_slot_quadratic",
         memory_reduction_dev(quad, quad_theta0), 1e-10),
        ("six_slot_vs_three_slot_rosenbrock",
         memory_reduction_dev(rosen, ParamVector([-1.2, 1.0])), 1e-10),
        ("inna_rewrite", inna_rewrite_dev(), 1e-12),
        ("momentum_direct_vs_reduced", momentum_forms_dev(), 1e-10),
        ("dinadam_reduces_to_adam", dinadam_reduction_dev(), 1e-12),
        ("dinadam_direct_vs_mtilde", dinadam_forms_dev(), 1e-12),
    ]
    results = tuple(
        CheckResult(name, dev < tol, f"max rel deviation {dev:.3e} (tol {tol:g})")
        for name, dev, tol in checks
    )
    return SuiteReport("equivalence", results)


# ---------------------------------------------------------------------------
# Gradient fidelity
# ---------------------------------------------------------------------------


def gradient_fidelity(n_points: int = 100, h: float = 1e-5, seed: int = 42) -> dict:
    """Max relative error between analytic and central-difference gradients
    over seeded random points, per shipped problem.

    Each problem draws its points from the stream keyed by its position in
    ``shipped_problems()``, so every process probes the same points."""
    worst = {}
    for index, problem in enumerate(shipped_problems()):
        rng = RngStream(seed, index).generator()
        err = 0.0
        for _ in range(n_points):
            if problem.name in ("quadratic", "rosenbrock"):
                point = rng.uniform(-2.0, 2.0, problem.dim)
            else:
                point = 0.5 * rng.standard_normal(problem.dim)
            analytic = np.asarray(problem.grad(point), dtype=np.float64)
            numeric = fd_gradient(problem, ParamVector(point), h).data
            scale = max(float(np.max(np.abs(analytic))), 1e-12)
            err = max(err, float(np.max(np.abs(numeric - analytic))) / scale)
        worst[problem.name] = err
    return worst


def gradients_suite() -> SuiteReport:
    worst = gradient_fidelity()
    results = tuple(
        CheckResult(name, err < 1e-6, f"max rel error {err:.3e} over 100 points (tol 1e-06)")
        for name, err in worst.items()
    )
    return SuiteReport("gradients", results)


# ---------------------------------------------------------------------------
# Schedulers
# ---------------------------------------------------------------------------


def _ulp_close(value: float, expected: float) -> bool:
    return abs(value - expected) <= np.spacing(max(abs(expected), 1e-300))


def schedulers_suite() -> SuiteReport:
    results = []

    cos = ScheduleSpec(kind="cosine", gamma0=1e-3, t_max=200)
    spots = [
        ("cosine_k0", lr_at(cos, 0), 1e-3),
        ("cosine_mid", lr_at(cos, 100), 5e-4),
        ("cosine_end", lr_at(cos, 200), 0.0),
    ]
    cw = ScheduleSpec(kind="cosine_warmup", gamma0=1e-3, t_max=200, t_warmup=30, t_decay=180)
    spots += [
        ("cosine_warmup_half_ramp", lr_at(cw, 15), 5e-4),
        ("cosine_warmup_peak", lr_at(cw, 30), 1e-3),
        ("cosine_warmup_tail", lr_at(cw, 195), 0.0),
    ]
    lw = ScheduleSpec(kind="linear_warmup", gamma0=1e-3, t_max=10000, t_warmup=500)
    spots += [
        ("linear_warmup_half_ramp", lr_at(lw, 250), 5e-4),
        ("linear_warmup_terminal", lr_at(lw, 10000), 0.0),
    ]
    for name, got, want in spots:
        results.append(CheckResult(name, _ulp_close(got, want),
                                   f"lr {got!r}, expected {want!r} within 1 ulp"))

    ramp = np.array([lr_at(lw, k) for k in range(0, lw.t_warmup)])
    second_diff = np.diff(ramp, n=2)
    lin_bound = 4 * np.spacing(lw.gamma0)
    lin_worst = float(np.max(np.abs(second_diff))) if second_diff.size else 0.0
    results.append(CheckResult("warmup_linearity", lin_worst <= lin_bound,
                               f"max second difference {lin_worst:.3e} <= {lin_bound:.3e}"))

    cos_vals = np.array([lr_at(cos, k) for k in range(0, cos.t_max + 1)])
    mono = bool(np.all(np.diff(cos_vals) <= 0))
    results.append(CheckResult("cosine_monotone", mono, "nonincreasing over [0, t_max]"))

    guard = stays_below(cos, 0.9) and not stays_below(ScheduleSpec(kind="constant", gamma0=1.0, t_max=10), 0.9)
    results.append(CheckResult("well_posedness_predicate", guard,
                               "max emitted lr compared against beta"))

    pure = lr_at(cos, 77) == lr_at(cos, 77)
    results.append(CheckResult("purity", pure, "repeat evaluation is bitwise identical"))
    return SuiteReport("schedulers", tuple(results))


# ---------------------------------------------------------------------------
# ODE consistency
# ---------------------------------------------------------------------------


def ode_report() -> dict:
    quad = make_problem("quadratic", spectrum=(1.0, 10.0))
    theta0 = ParamVector([1.2, -0.8])

    rich = richardson_ratio(DinFlowSpec(1.0, 1.0, quad, t_end=2.0, dt=0.05), theta0)

    spec = DinFlowSpec(0.5, 0.9, quad, t_end=1.0, dt=1e-3)
    gaps = {g: discretization_gap(spec, g, theta0) for g in (0.01, 0.005, 0.0025)}
    ratio1 = gaps[0.01] / gaps[0.005]
    ratio2 = gaps[0.005] / gaps[0.0025]
    tiny_gap = discretization_gap(spec, 1e-4, theta0)

    decay_spec = DinFlowSpec(1.0, 1.0, quad, t_end=10.0, dt=0.01)
    traj = rk4_integrate(decay_spec, theta0)
    loss_start, loss_end = quad.loss(traj.theta[0]), quad.loss(traj.theta[-1])

    alpha, beta = 0.5, 0.9
    eq_theta = np.zeros(2)
    dth, dps = din_rhs(ParamVector(eq_theta), ParamVector((1 - alpha * beta) * eq_theta), spec)
    eq_residual = float(np.linalg.norm(np.concatenate([dth.data, dps.data])))

    rng = RngStream(9, 0).generator()
    probes = []
    for _ in range(20):
        th = rng.standard_normal(2)
        ps = rng.standard_normal(2)
        dth, dps = din_rhs(ParamVector(th), ParamVector(ps), spec)
        probes.append(float(np.linalg.norm(np.concatenate([dth.data, dps.data]))))

    return {
        "richardson_ratio": rich,
        "gap_ratio_1": ratio1,
        "gap_ratio_2": ratio2,
        "tiny_gap": tiny_gap,
        "loss_start": loss_start,
        "loss_end": loss_end,
        "equilibrium_residual": eq_residual,
        "min_offequilibrium_residual": min(probes),
    }


def ode_suite() -> SuiteReport:
    rep = ode_report()
    results = (
        CheckResult("rk4_order", 8.0 <= rep["richardson_ratio"] <= 32.0,
                    f"Richardson ratio {rep['richardson_ratio']:.2f} in [8, 32]"),
        CheckResult("gap_halving", all(1.5 <= rep[k] <= 3.0 for k in ("gap_ratio_1", "gap_ratio_2")),
                    f"gap halving ratios {rep['gap_ratio_1']:.2f}, {rep['gap_ratio_2']:.2f} in [1.5, 3]"),
        CheckResult("gap_small_step", rep["tiny_gap"] < 1e-3,
                    f"gap {rep['tiny_gap']:.3e} at gamma=1e-4 over horizon 1 (bound 1e-3)"),
        CheckResult("dissipation", rep["loss_end"] < rep["loss_start"],
                    f"loss {rep['loss_start']:.3e} -> {rep['loss_end']:.3e} over t=10"),
        CheckResult("equilibrium", rep["equilibrium_residual"] < 1e-14
                    and rep["min_offequilibrium_residual"] > 1e-6,
                    f"residual {rep['equilibrium_residual']:.1e} at the critical pairing, "
                    f">{rep['min_offequilibrium_residual']:.1e} at random probes"),
    )
    return SuiteReport("ode", results)


# ---------------------------------------------------------------------------
# F32 stagnation of the momentum variant
# ---------------------------------------------------------------------------

# Flattening-slope objective: the gradient decays geometrically along the
# march while the loss keeps falling, which drives the scaled direction (and
# with it the gamma^2-sized mtilde increments) below F32 resolution of the
# accumulated mtilde. Constants frozen after calibration.
_STAGNATION = dict(
    slope=10.0,
    theta_base=-0.3,
    dim=64,
    seed=11,
    alpha=0.0,
    beta=0.9,
    sigma=0.9999,
    gamma=1e-4,
    steps=24000,
    window=3000,
)


def _slope_problem(slope: float) -> Problem:
    def loss(theta, batch=None):
        return float(np.sum(np.exp(-slope * np.asarray(theta, dtype=np.float64))) / slope)

    def grad(theta, batch=None):
        return -np.exp(-slope * np.asarray(theta, dtype=np.float64))

    def init_theta(rng):
        return np.full(1, 0.0)

    return Problem(name="flattening_slope", dim=1, loss=loss, grad=grad, init_theta=init_theta)


def _stagnation_run(precision: str) -> dict:
    p = _STAGNATION
    precision, gamma = Precision.of(precision), p["gamma"]
    problem = _slope_problem(p["slope"])
    rng = RngStream(p["seed"], 0).generator()
    theta0 = p["theta_base"] + 0.1 * rng.standard_normal(p["dim"])
    cfg = InnapropConfig(alpha=p["alpha"], beta=p["beta"], sigma=p["sigma"],
                         epsilon=1e-8, bias_correction=False)
    state = innaprop_momentum_init(cfg, ParamVector(theta0, precision), "reduced")

    warm = p["steps"] - p["window"]
    noop = total = 0
    window_losses = []
    m_window_start = None
    for k in range(p["steps"]):
        g = ParamVector(problem.grad(state.theta.data), precision)
        prev_m = state.m.data
        state = innaprop_momentum_step(state, g, gamma, cfg)
        if k >= warm:
            if m_window_start is None:
                m_window_start = prev_m.copy()
            noop += int(np.sum(state.m.data == prev_m))
            total += prev_m.size
            window_losses.append(problem.loss(state.theta.data))
    losses = np.array(window_losses)
    return {
        "noop_fraction": noop / total,
        "window_strictly_decreasing": bool(np.all(np.diff(losses) < 0)),
        "m_frozen_over_window": bool(np.array_equal(state.m.data, m_window_start)),
        "window_theta_mean_abs": float(np.mean(np.abs(state.theta.data))),
        "final_loss": float(losses[-1]),
    }


def stagnation_report() -> dict:
    return {"f32": _stagnation_run("f32"), "f64": _stagnation_run("f64")}


def instability_suite() -> SuiteReport:
    rep = stagnation_report()
    f32, f64 = rep["f32"], rep["f64"]
    results = (
        CheckResult("f32_mtilde_noops", f32["noop_fraction"] >= 0.9,
                    f"{100 * f32['noop_fraction']:.1f}% of F32 mtilde coordinate updates "
                    "were exact no-ops (need >= 90%)"),
        CheckResult("f32_mtilde_frozen", f32["m_frozen_over_window"],
                    "F32 mtilde bitwise unchanged across the measurement window"),
        CheckResult("f64_keeps_moving", (not f64["m_frozen_over_window"])
                    and f64["window_strictly_decreasing"],
                    f"F64 twin still integrating; loss strictly decreasing to "
                    f"{f64['final_loss']:.3e}"),
        CheckResult("theta_scale", 0.5 <= f32["window_theta_mean_abs"] <= 2.0,
                    f"mean |theta| {f32['window_theta_mean_abs']:.2f} in the window"),
    )
    return SuiteReport("instability", results)


SUITES = {
    "equivalence": equivalence_suite,
    "gradients": gradients_suite,
    "schedulers": schedulers_suite,
    "ode": ode_suite,
    "instability": instability_suite,
}


def run_suite(name: str) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown check suite {name!r}; available: {sorted(SUITES)}")
    return SUITES[name]()
