"""Deterministic training loop with CSV/JSON record output.

One row is logged per interval with a fixed column order
(step, lr, train_loss, test_metric, status); identical config + seed gives
byte-identical CSV. One loop runs the cells of a grid or sweep in lock-step;
a single run is its one-cell case. A diverged step ends its cell with a
recorded status instead of raising, so grid sweeps survive unstable corners.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from ..errors import ContractViolation, DivergenceError, DomainError
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
from ..problems import MiniBatchSampler
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


# The keys in which the configs of one lock-step call may differ. None of
# them touches the data, the initial point or the batch order.
CELL_KEYS = ("alpha", "beta", "lr")


def _check_cells(configs: list) -> None:
    if not configs:
        raise ContractViolation("run_experiment needs at least one config")
    first = configs[0]
    for cfg in configs:
        if not isinstance(cfg, RunConfig):
            raise ContractViolation(f"expected a RunConfig, got {type(cfg).__name__}")
        if replace(cfg, **{key: getattr(first, key) for key in CELL_KEYS}) != first:
            keys = [f.name for f in fields(RunConfig) if f.name not in CELL_KEYS
                    and getattr(cfg, f.name) != getattr(first, f.name)]
            raise ContractViolation(f"lock-step configs may differ only in {CELL_KEYS}, "
                                    f"not in {keys}")


def _stack(states, live):
    """The live cells' parameters as one (cells, dim) array; a view, not a
    copy, for a single cell."""
    if len(live) == 1:
        return states[live[0]].theta.data[None]
    return np.array([states[i].theta.data for i in live])


class CellResults(Sequence):
    """One ``(rows, summary)`` per config of a lock-step call, in order.

    The logged numbers stay in compact per-cell arrays; a cell's ``RunRow``
    list is built when that cell is read.
    """

    def __init__(self, build, size: int):
        self._build, self._size = build, size

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._build(i) for i in range(*index.indices(self._size))]
        if not -self._size <= index < self._size:
            raise IndexError(index)
        return self._build(index % self._size)


def run_experiment(config: RunConfig | Sequence[RunConfig], out_dir=None,
                   tag: str | Sequence[str] = "run"):
    """Execute the configured loop; returns (rows, summary).

    ``config`` may also be a sequence of configs that differ only in
    ``CELL_KEYS``, with ``tag`` a sequence of one tag per config. Their cells
    then run in lock-step from one loop, and the call returns a
    ``CellResults`` with one (rows, summary) per config, in order. Each step
    makes one ``problem.grad`` call on the live cells' stacked parameters
    and the shared minibatch, then one step call per cell; each logged step
    makes one stacked ``loss`` and one stacked ``test_metric`` call. No
    operation mixes cells, so every cell's rows are bit for bit those of its
    own single run, and a cell that diverges leaves the live set without
    touching its siblings. Each cell's ``wall_time_s`` is the whole call's.

    When ``out_dir`` is given, writes ``<tag>.csv`` with the per-step records
    and ``<tag>.json`` with a config echo, input hash and final metrics, for
    every cell.
    """
    if isinstance(config, RunConfig):
        return _run_cells([config], [tag], out_dir)[0]
    configs = list(config)
    if isinstance(tag, str) or len(tag) != len(configs):
        raise ContractViolation("a sequence of configs needs a sequence of one tag per config")
    return _run_cells(configs, list(tag), out_dir)


def _run_cells(configs: list, tags: list, out_dir) -> CellResults:
    started = time.perf_counter()
    _check_cells(configs)
    base = configs[0]
    problem = build_problem(base)
    precision = precision_of(base)
    # Cells with the same lr share one schedule and one lr_at call per step.
    schedules = [build_schedule(cfg) for cfg in configs]
    distinct = list(dict.fromkeys(schedules))
    lane = [distinct.index(s) for s in schedules]

    theta = ParamVector(
        base.init_scale * problem.init_theta(init_stream(base).generator()), precision
    )
    states, step_fns = map(list, zip(*(_make_stepper(cfg, theta) for cfg in configs)))

    sampler = None
    if base.batch_size is not None:
        sampler = MiniBatchSampler(
            problem.dataset.n_train,
            base.batch_size,
            order=base.batch_order,
            rng=batch_stream(base),
        )

    must_log = {0, snapshot_step(base), base.steps}
    logged = [k for k in range(base.steps + 1) if k % base.log_every == 0 or k in must_log]
    # One row per logged step, one column per cell; a non-finite loss marks
    # a slot without a row.
    losses = np.full((len(logged), len(configs)), np.nan)
    metrics = np.full(losses.shape, np.nan) if problem.test_metric else None
    lrs = [None] * len(logged)  # per logged step, the lr of each distinct schedule
    ends = [None] * len(configs)  # (step, lr, diverged_step) of a diverged cell
    live = list(range(len(configs)))

    def diverge(i, k, gammas, at):
        ends[i] = (k, float(gammas[lane[i]]), at)
        live.remove(i)

    def log(j, gammas) -> list:
        """Record the live cells at logged slot ``j``; returns the cells whose
        loss is not finite."""
        stack = _stack(states, live)
        measured = problem.loss(stack)
        cells = slice(None) if len(live) == len(configs) else live
        lrs[j] = gammas
        losses[j, cells] = measured
        if metrics is not None:
            metrics[j, cells] = problem.test_metric(stack)
        finite = np.isfinite(measured)
        if np.count_nonzero(finite) == finite.size:
            return []
        return [i for i, ok in zip(live, finite) if not ok]

    # Overflow here is handled as recorded divergence, not a crash.
    with np.errstate(over="ignore", invalid="ignore"):
        log(0, [lr_at(s, 0) for s in distinct])  # a non-finite start logs no row
        j = 1
        for k in range(1, base.steps + 1):
            if not live:
                break
            gammas = [lr_at(s, k) for s in distinct]
            batch = sampler.next_batch() if sampler is not None else None
            grads = ParamVector.adopt_rows(problem.grad(_stack(states, live), batch),
                                           precision)
            for i, g in zip(tuple(live), grads):
                if g is None:
                    diverge(i, k, gammas, k)
                    continue
                try:
                    states[i] = step_fns[i](states[i], g, gammas[lane[i]])
                except (DivergenceError, DomainError) as exc:
                    diverge(i, k, gammas, getattr(exc, "step", None) or k)
            if logged[j] == k:
                if live:
                    for i in log(j, gammas):
                        diverge(i, k, gammas, k)
                j += 1
    wall_time_s = time.perf_counter() - started
    hashes = [content_hash(cfg) for cfg in configs]

    def build(i):
        cfg = configs[i]
        column = metrics[:, i].tolist() if metrics is not None else [None] * len(logged)
        rows = [
            RunRow(step, float(lr[lane[i]]), loss, metric, "ok")
            for step, lr, loss, metric in zip(logged, lrs, losses[:, i].tolist(), column)
            if math.isfinite(loss)
        ]
        scores = [r.test_metric for r in rows if r.test_metric is not None]
        status, steps_run, tail = "ok", cfg.steps, []
        if ends[i] is not None:
            k, gamma, at = ends[i]
            status, steps_run = f"diverged@{at}", min(cfg.steps, at)
            tail = [RunRow(k, gamma, float("nan"), None, status)]
        summary = RunSummary(
            config=emit_config(cfg),
            config_hash=hashes[i],
            status=status,
            steps_run=steps_run,
            final_train_loss=rows[-1].train_loss if rows else None,
            best_test_metric=max(scores) if scores else None,
            wall_time_s=wall_time_s,
        )
        return rows + tail, summary

    results = CellResults(build, len(configs))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for tag, (rows, summary) in zip(tags, results):
            (out / f"{tag}.csv").write_text(rows_to_csv(rows), encoding="utf-8")
            payload = summary.__dict__.copy()
            (out / f"{tag}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                             encoding="utf-8")
    return results


def row_at_step(rows: list[RunRow], step: int) -> Optional[RunRow]:
    for r in rows:
        if r.step == step and r.status == "ok":
            return r
    return None
