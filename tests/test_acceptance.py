"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run pytest with -s to see them all),
then asserts. Tolerances and runtime budgets are pinned here and nowhere
else; the underlying measurements live in ``innaprop.harness.checks``.
"""

import time
from dataclasses import replace

import numpy as np

from innaprop.errors import ConfigError, WellPosednessError
from innaprop.harness.checks import (
    adam_equivalence_dev,
    dinadam_forms_dev,
    dinadam_reduction_dev,
    gradient_fidelity,
    inna_rewrite_dev,
    memory_reduction_dev,
    momentum_forms_dev,
    ode_report,
    schedulers_suite,
    stagnation_report,
)
from innaprop.harness.config import parse_config_dict, validate_config
from innaprop.harness.grid import grid_search
from innaprop.harness.runner import rows_to_csv, run_experiment
from innaprop.numerics import ParamVector, RngStream
from innaprop.optimizers import (
    InnapropConfig,
    ReferenceParams,
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
from innaprop.problems import generate_synthetic, make_problem


def report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_adam_equivalence():
    started = time.perf_counter()
    rosen = make_problem("rosenbrock", dim=2)
    data = generate_synthetic("two_gaussians", n=200, dim=2, seed=7)
    mlp = make_problem("tiny_mlp", dataset=data, hidden=(8,), activation="tanh")
    mlp_theta0 = ParamVector(mlp.init_theta(RngStream(5, 0).generator()))

    devs = []
    for lam in (0.0, 0.01):
        devs.append(adam_equivalence_dev(rosen, ParamVector([-1.2, 1.0]), lam, 1000))
        devs.append(adam_equivalence_dev(mlp, mlp_theta0, lam, 1000))
    elapsed = time.perf_counter() - started
    worst = max(devs)
    report(
        "criterion 1 (Adam special case)",
        worst < 1e-12 and elapsed < 5.0,
        f"max rel theta deviation {worst:.2e} < 1e-12 over 1000 steps, "
        f"rosenbrock + tiny-mlp, weight decay in {{0, 0.01}}; {elapsed:.1f}s < 5s",
    )


def test_criterion_2_memory_reduction():
    started = time.perf_counter()
    quad = make_problem("quadratic", spectrum=(1.0, 10.0))
    theta0 = ParamVector(quad.init_theta(RngStream(1, 1).generator()))
    dev_q = memory_reduction_dev(quad, theta0, 500)
    dev_r = memory_reduction_dev(make_problem("rosenbrock"), ParamVector([-1.2, 1.0]), 500)
    elapsed = time.perf_counter() - started
    worst = max(dev_q, dev_r)
    report(
        "criterion 2 (six-slot vs three-slot)",
        worst < 1e-10 and elapsed < 5.0,
        f"max rel deviation {worst:.2e} < 1e-10 over 500 steps after forced "
        f"bootstrap; {elapsed:.1f}s < 5s",
    )


def test_criterion_3_inna_rewrite():
    dev = inna_rewrite_dev(100)
    report(
        "criterion 3 (INNA rewrite)",
        dev < 1e-12,
        f"psi-current vs psi-next forms deviate {dev:.2e} < 1e-12 over 100 steps",
    )


def test_criterion_4_momentum_variant():
    started = time.perf_counter()
    dev = momentum_forms_dev(200)
    stag = stagnation_report()
    elapsed = time.perf_counter() - started
    f32, f64 = stag["f32"], stag["f64"]
    ok = (
        dev < 1e-10
        and f32["noop_fraction"] >= 0.9
        and f64["window_strictly_decreasing"]
        and not f64["m_frozen_over_window"]
        and elapsed < 10.0
    )
    report(
        "criterion 4 (momentum variant equivalence + F32 stagnation)",
        ok,
        f"F64 direct/reduced deviation {dev:.2e} < 1e-10; F32 no-op fraction "
        f"{f32['noop_fraction']:.3f} >= 0.9 at gamma=1e-4, mean |theta| "
        f"{f32['window_theta_mean_abs']:.2f}; F64 twin loss strictly decreasing; "
        f"{elapsed:.1f}s < 10s",
    )


def test_criterion_5_dinadam():
    dev_red = dinadam_reduction_dev(500)
    dev_forms = dinadam_forms_dev(100)
    report(
        "criterion 5 (DINAdam reduction and forms)",
        dev_red < 1e-12 and dev_forms < 1e-12,
        f"alpha=1,beta=0 vs Adam-no-correction {dev_red:.2e} < 1e-12 over 500 "
        f"steps; direct vs mtilde {dev_forms:.2e} < 1e-12",
    )


def test_criterion_6_scheduler_exactness():
    suite = schedulers_suite()
    failing = [r.name for r in suite.results if not r.passed]
    report(
        "criterion 6 (scheduler exactness)",
        suite.passed,
        "spot values at 1 ulp, warmup linear, cosine monotone"
        + (f"; failing: {failing}" if failing else ""),
    )


def test_criterion_7_gradient_fidelity():
    started = time.perf_counter()
    worst = gradient_fidelity(n_points=100)
    elapsed = time.perf_counter() - started
    top = max(worst.values())
    report(
        "criterion 7 (gradient fidelity)",
        top < 1e-6 and elapsed < 10.0,
        f"max rel error {top:.2e} < 1e-6 over 100 seeded points on "
        f"{sorted(worst)}; {elapsed:.1f}s < 10s",
    )


def test_criterion_8_ode_consistency():
    started = time.perf_counter()
    rep = ode_report()
    elapsed = time.perf_counter() - started
    ok = (
        8.0 <= rep["richardson_ratio"] <= 32.0
        and 1.5 <= rep["gap_ratio_1"] <= 3.0
        and 1.5 <= rep["gap_ratio_2"] <= 3.0
        and elapsed < 30.0
    )
    report(
        "criterion 8 (ODE consistency)",
        ok,
        f"RK4 Richardson ratio {rep['richardson_ratio']:.2f} in [8, 32]; gap "
        f"halving ratios {rep['gap_ratio_1']:.2f}, {rep['gap_ratio_2']:.2f} in "
        f"[1.5, 3]; {elapsed:.1f}s < 30s",
    )


def test_criterion_9_fixed_points_and_well_posedness():
    # Stationarity is asserted to 1e-14 relative: the psi-route coefficient
    # cancellation is exact algebra but rounds at the ulp per step.
    rng = RngStream(41, 0).generator()
    pairs = [(0.1, 0.9), (1.0, 1.0), (2.0, 2.0)]
    drift = 0.0

    def rel_drift(theta, theta0):
        return float(np.max(np.abs(theta - theta0.data)) / np.max(np.abs(theta0.data)))

    for alpha, beta in pairs:
        cfg = InnapropConfig(alpha=alpha, beta=beta, weight_decay=0.0)
        plain_cfg = replace(cfg, bias_correction=False)
        for _ in range(10):
            theta0 = ParamVector(rng.standard_normal(4))
            zero = ParamVector.zeros_like(theta0)

            st = innaprop_init(cfg, theta0)
            st_plain = innaprop_init(cfg, theta0)
            st_naive = innaprop_naive_init(cfg, theta0)
            st_dir = innaprop_momentum_init(cfg, theta0, "direct")
            st_red = innaprop_momentum_init(cfg, theta0, "reduced")
            st_din = dinadam_init(theta0, sigma1=0.9, sigma2=0.999)
            st_inna = inna_init(alpha, beta, theta0)
            for _ in range(5):
                st = innaprop_step(st, zero, 0.01, cfg)
                st_plain = innaprop_step(st_plain, zero, 0.01, plain_cfg)
                st_naive = innaprop_naive_step(st_naive, zero, 0.01, cfg)
                st_dir = innaprop_momentum_step(st_dir, zero, 0.01, cfg)
                st_red = innaprop_momentum_step(st_red, zero, 0.01, cfg)
                st_din = dinadam_step(st_din, zero, 0.01, alpha, beta)
                st_inna = inna_step(st_inna, zero, 0.01, alpha, beta)
            for state in (st, st_plain, st_dir, st_red, st_din, st_inna):
                drift = max(drift, rel_drift(state.theta.data, theta0))
            drift = max(drift, rel_drift(st_naive.theta_curr.data, theta0))

    params = ReferenceParams(beta1=0.9, beta2=0.999, weight_decay=0.0)
    for kind in ("SGD", "Momentum", "Nesterov", "RMSpropMomentum", "Adam",
                 "AdamW", "NAdam"):
        for _ in range(10):
            theta0 = ParamVector(rng.standard_normal(4))
            state = reference_init(kind, theta0, params)
            for _ in range(5):
                state = reference_step(state, ParamVector.zeros_like(theta0), 0.01, params)
            drift = max(drift, rel_drift(state.theta.data, theta0))
    stationary = drift < 1e-14

    rejected_config = False
    try:
        parse_config_dict({"problem": "rosenbrock", "optimizer": "innaprop",
                           "alpha": 0.1, "beta": 0.9, "lr": 1.0, "steps": 10})
    except ConfigError:
        rejected_config = True
    rejected_step = False
    cfg = InnapropConfig(alpha=0.1, beta=0.9)
    try:
        innaprop_step(innaprop_init(cfg, ParamVector([1.0])), ParamVector([1.0]), 0.9, cfg)
    except WellPosednessError:
        rejected_step = True

    report(
        "criterion 9 (fixed points + well-posedness)",
        stationary and rejected_config and rejected_step,
        f"zero-gradient streams stationary (max rel drift {drift:.1e} < 1e-14) "
        "for every optimizer over 10 inits x 3 (alpha, beta) presets; "
        "gamma >= beta rejected before any step",
    )


PROTOCOL = {
    "problem": "tiny_mlp", "dataset": "two_gaussians", "n_samples": 240, "dim": 2,
    "separation": 4.0, "hidden": [8], "activation": "tanh", "optimizer": "innaprop",
    "alpha": 0.1, "beta": 0.9, "weight_decay": 0.01, "sigma": 0.999, "lr": 1e-3,
    "schedule": "cosine", "t_max": 400, "steps": 400, "batch_size": 32,
    "log_every": 1, "seed": 0,
}


def test_criterion_10_protocol_scale():
    started = time.perf_counter()
    base = parse_config_dict(PROTOCOL)

    adam_cfg = replace(base, optimizer="adamw")
    validate_config(adam_cfg)
    adam_rows, adam_summary = run_experiment(adam_cfg)
    short_step = 40
    adam_short = next(r for r in adam_rows if r.step == short_step and r.status == "ok")

    ip_rows, _ = run_experiment(base)
    hit = next((r.step for r in ip_rows
                if r.status == "ok" and r.train_loss <= adam_short.train_loss), None)
    speed_ok = hit is not None and hit <= int(1.5 * short_step)

    grid = grid_search(replace(base, log_every=40))
    ok_cells = [c for c in grid.cells if c.status == "ok"]
    completion = len(ok_cells) / len(grid.cells)
    adam_final_acc = [r for r in adam_rows if r.status == "ok"][-1].test_metric
    best_cell_acc = max(c.final_test_metric for c in ok_cells)
    acc_ok = best_cell_acc >= adam_final_acc - 0.01

    elapsed = time.perf_counter() - started
    report(
        "criterion 10 (protocol-scale behavior)",
        completion >= 0.9 and speed_ok and acc_ok and elapsed < 300.0,
        f"grid completion {100 * completion:.0f}% >= 90%; (0.1, 0.9) matched the "
        f"baseline's 10%-budget loss {adam_short.train_loss:.3f} at step {hit} <= "
        f"{int(1.5 * short_step)}; best cell final accuracy {best_cell_acc:.3f} vs "
        f"baseline {adam_final_acc:.3f} - 1pt; {elapsed:.0f}s < 300s",
    )


def test_criterion_11_determinism():
    base = parse_config_dict({**PROTOCOL, "steps": 60, "log_every": 5})
    csv_a = rows_to_csv(run_experiment(base)[0])
    csv_b = rows_to_csv(run_experiment(base)[0])
    single_ok = csv_a == csv_b

    import tempfile
    from pathlib import Path

    grid_ok = True
    with tempfile.TemporaryDirectory() as tmp:
        out1, out2 = Path(tmp) / "first", Path(tmp) / "second"
        alphas, betas = [0.1, 2.0], [0.9, 2.0]
        grid_search(base, alphas=alphas, betas=betas, out_dir=out1)
        grid_search(base, alphas=alphas, betas=betas, out_dir=out2)
        grid_ok &= (out1 / "grid.csv").read_bytes() == (out2 / "grid.csv").read_bytes()
        for a in alphas:
            for b in betas:
                name = f"cell_a{a:g}_b{b:g}.csv"
                standalone = rows_to_csv(run_experiment(replace(base, alpha=a, beta=b))[0])
                grid_ok &= (out1 / name).read_bytes() == (out2 / name).read_bytes()
                grid_ok &= (out1 / name).read_text(encoding="utf-8") == standalone

    report(
        "criterion 11 (determinism)",
        single_ok and grid_ok,
        "identical config+seed reproduces CSV bytes, standalone and across "
        "two grid runs, and every grid cell's CSV equals its standalone run's",
    )


def test_cross_op_consistency_grid_cell_equals_standalone_adamw():
    # The (1, 1) grid cell coincides with a standalone decoupled-decay Adam
    # run at beta1 = 0 on the same seed and problem.
    base = parse_config_dict({**PROTOCOL, "steps": 80, "log_every": 10})
    grid = grid_search(base, alphas=[1.0], betas=[1.0])
    adam_cfg = replace(base, optimizer="adamw", beta1=0.0)
    validate_config(adam_cfg)
    _, adam_summary = run_experiment(adam_cfg)
    cell = grid.cells[0]
    rel = abs(cell.final_train_loss - adam_summary.final_train_loss) / max(
        abs(adam_summary.final_train_loss), 1e-30
    )
    report(
        "cross-op consistency ((1,1) cell vs AdamW(beta1=0))",
        rel < 1e-12,
        f"final losses agree to rel {rel:.2e} < 1e-12",
    )
