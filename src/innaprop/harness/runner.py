"""Deterministic training loop with CSV/JSON record output.

One row is logged per interval with a fixed column order
(step, lr, train_loss, test_metric, status); identical config + seed gives
byte-identical CSV. A diverged step terminates the run with a recorded
status instead of raising, so grid sweeps survive unstable corners.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..errors import DivergenceError, DomainError
from ..numerics import ParamVector
from ..optimizers import (
    InnapropConfig,
    ReferenceParams,
    dinadam_init,
    dinadam_step,
    inna_init,
    inna_step,
    innaprop_init,
    innaprop_momentum_init,
    innaprop_momentum_step,
    innaprop_plain_step,
    innaprop_step,
    reference_init,
    reference_step,
)
from ..problems import MiniBatchSampler, minibatch_grad
from ..schedulers import lr_at
from .config import (
    OPTIMIZERS,
    RunConfig,
    batch_stream,
    build_problem,
    build_schedule,
    content_hash,
    emit_config,
    init_stream,
    precision_of,
)

CSV_HEADER = "step,lr,train_loss,test_metric,status"


@dataclass(frozen=True)
class RunRow:
    step: int
    lr: float
    train_loss: float
    test_metric: Optional[float]
    status: str


@dataclass(frozen=True)
class RunSummary:
    config: dict
    config_hash: str
    status: str
    steps_run: int
    final_train_loss: Optional[float]
    best_test_metric: Optional[float]
    wall_time_s: float


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # numpy float64 included
        return repr(float(value))
    return str(value)


def csv_text(header: str, rows) -> str:
    """The one CSV writer: ``header``, then one line per row of cells.

    A float prints as its shortest round-trip repr, ``None`` as an empty
    cell and anything else (step indices, status strings) through ``str``.
    """
    lines = [header]
    for row in rows:
        lines.append(",".join(_cell(value) for value in row))
    return "\n".join(lines) + "\n"


def rows_to_csv(rows: list[RunRow]) -> str:
    return csv_text(CSV_HEADER, [(r.step, r.lr, r.train_loss, r.test_metric, r.status)
                                 for r in rows])


def _make_stepper(config: RunConfig, theta0: ParamVector):
    """Initial state plus a pure step closure (state, g, gamma) -> state."""
    kind = config.optimizer
    ref_kind = OPTIMIZERS[kind]
    if ref_kind is not None:
        params = ReferenceParams(
            beta1=config.beta1,
            beta2=config.sigma,
            epsilon=config.epsilon,
            weight_decay=config.weight_decay,
            bias_correction=config.bias_correction,
        )
        state = reference_init(ref_kind, theta0, params)
        return state, lambda s, g, lr: reference_step(s, g, lr, params)
    if kind == "inna":
        state = inna_init(config.alpha, config.beta, theta0)
        form = config.form or "classic"
        return state, lambda s, g, lr: inna_step(s, g, lr, config.alpha, config.beta, form)
    if kind == "dinadam":
        state = dinadam_init(theta0, sigma1=config.sigma1, sigma2=config.sigma)
        return state, lambda s, g, lr: dinadam_step(
            s, g, lr, config.alpha, config.beta, config.epsilon
        )

    opt_cfg = InnapropConfig(
        alpha=config.alpha,
        beta=config.beta,
        sigma=config.sigma,
        epsilon=config.epsilon,
        weight_decay=config.weight_decay if kind == "innaprop" else 0.0,
        bias_correction=config.bias_correction if kind == "innaprop" else False,
        grad_clip=config.grad_clip,
    )
    if kind == "innaprop":
        return innaprop_init(opt_cfg, theta0), lambda s, g, lr: innaprop_step(s, g, lr, opt_cfg)
    if kind == "innaprop_plain":
        return innaprop_init(opt_cfg, theta0), lambda s, g, lr: innaprop_plain_step(s, g, lr, opt_cfg)
    form = config.form or "reduced"
    state = innaprop_momentum_init(opt_cfg, theta0, form)
    return state, lambda s, g, lr: innaprop_momentum_step(s, g, lr, opt_cfg)


def snapshot_step(config: RunConfig) -> int:
    """Short-horizon readout point: 10% of the budget, at least one step."""
    return max(1, int(np.ceil(0.1 * config.steps)))


def run_experiment(config: RunConfig, out_dir=None, tag: str = "run"):
    """Execute the configured loop; returns (rows, summary).

    When ``out_dir`` is given, writes ``<tag>.csv`` with the per-step records
    and ``<tag>.json`` with a config echo, input hash and final metrics.
    """
    started = time.perf_counter()
    problem = build_problem(config)
    schedule = build_schedule(config)
    precision = precision_of(config)

    theta = ParamVector(
        config.init_scale * problem.init_theta(init_stream(config).generator()), precision
    )
    state, step_fn = _make_stepper(config, theta)

    sampler = None
    if config.batch_size is not None:
        sampler = MiniBatchSampler(
            problem.dataset.n_train,
            config.batch_size,
            order=config.batch_order,
            rng=batch_stream(config),
        )

    must_log = {0, snapshot_step(config), config.steps}
    rows: list[RunRow] = []

    def log_row(step: int, lr: float) -> bool:
        """Append an "ok" row; returns False when the loss is non-finite."""
        measured = float(problem.loss(np.asarray(state.theta.data, dtype=np.float64)))
        if not np.isfinite(measured):
            return False
        metric = (
            float(problem.test_metric(np.asarray(state.theta.data, dtype=np.float64)))
            if problem.test_metric
            else None
        )
        rows.append(RunRow(step=step, lr=float(lr), train_loss=measured,
                           test_metric=metric, status="ok"))
        return True

    log_row(0, lr_at(schedule, 0))
    status = "ok"
    diverged_step = None

    for k in range(1, config.steps + 1):
        gamma = lr_at(schedule, k)
        try:
            # Overflow here is handled as recorded divergence, not a crash.
            with np.errstate(over="ignore", invalid="ignore"):
                if sampler is not None:
                    g, _ = minibatch_grad(problem, state.theta, sampler)
                    g = g.astype(precision)
                else:
                    g = ParamVector(
                        problem.grad(np.asarray(state.theta.data, dtype=np.float64)), precision
                    )
                state = step_fn(state, g, gamma)
                logged_ok = (k % config.log_every != 0 and k not in must_log) or log_row(k, gamma)
        except (DivergenceError, DomainError) as exc:
            diverged_step = getattr(exc, "step", None) or k
            logged_ok = False
        if not logged_ok:
            diverged_step = diverged_step or k
            status = f"diverged@{diverged_step}"
            rows.append(RunRow(step=k, lr=float(gamma), train_loss=float("nan"),
                               test_metric=None, status=status))
            break

    ok_rows = [r for r in rows if r.status == "ok"]
    final_loss = ok_rows[-1].train_loss if ok_rows else None
    metrics = [r.test_metric for r in ok_rows if r.test_metric is not None]
    summary = RunSummary(
        config=emit_config(config),
        config_hash=content_hash(config),
        status=status,
        steps_run=min(config.steps, diverged_step or config.steps),
        final_train_loss=final_loss,
        best_test_metric=max(metrics) if metrics else None,
        wall_time_s=time.perf_counter() - started,
    )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{tag}.csv").write_text(rows_to_csv(rows), encoding="utf-8")
        payload = summary.__dict__.copy()
        (out / f"{tag}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return rows, summary


def row_at_step(rows: list[RunRow], step: int) -> Optional[RunRow]:
    for r in rows:
        if r.step == step and r.status == "ok":
            return r
    return None
