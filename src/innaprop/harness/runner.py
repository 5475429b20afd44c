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
from itertools import compress, repeat
import time
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from ..errors import ConfigError, ContractViolation, DivergenceError
from ..numerics import ParamVector, global_norm_clip
# The run loop calls each step through its global here (``_run_cells``).
from ..optimizers import (_own, dinadam_step, inna_step, innaprop_momentum_step,  # noqa: F401
                          innaprop_step, reference_step)
from ..problems import MiniBatchSampler
from ..schedulers import lr_at
from .config import (
    _hash_inputs,
    OPTIMIZERS,
    RunConfig,
    batch_stream,
    build_problem,
    build_schedule,
    emit_config,
    init_stream,
    precision_of,
    validate_config,
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


def snapshot_step(config: RunConfig) -> int:
    """Short-horizon readout point: 10% of the budget, at least one step."""
    return max(1, int(np.ceil(0.1 * config.steps)))


# The keys in which the configs of one lock-step call may differ. None of
# them touches the data, the initial point or the batch order.
CELL_KEYS = ("alpha", "beta", "lr")


def _check_cells(configs: list, tags: list) -> None:
    """Every check of a lock-step call's cells, made before any compute."""
    if not configs:
        raise ContractViolation("run_experiment needs at least one config")
    # A tag names its cell's two files in ``out_dir``.
    for tag in tags:
        if not isinstance(tag, str) or tag in ("", "..") or Path(tag).name != tag:
            raise ContractViolation(f"a tag must be a plain file name, not {tag!r}")
    if len(set(tags)) != len(tags):
        shared = sorted({tag for tag in tags if tags.count(tag) > 1})
        raise ConfigError(f"cells would share the names {shared}; their tags must differ")
    first = configs[0]
    for cfg in configs:
        if not isinstance(cfg, RunConfig):
            raise ContractViolation(f"expected a RunConfig, got {type(cfg).__name__}")
        validate_config(cfg)
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

    The logged numbers stay in compact arrays with one row per logged step
    and one column per cell (one per distinct schedule for the lr), NaN
    where nothing was logged. Reading a cell builds its ``RunRow`` list, one
    ``_row`` per logged step; ``summary`` reads the arrays and builds no
    row, and ``row_at`` and ``last_row`` build only the row they return, on
    every call. A cell's summary is built once, on first use, and every
    later call returns the same object.
    """

    def __init__(self, configs, hashes, logged, lrs, lane, losses, metrics, ends,
                 wall_time_s):
        self._configs, self._hashes, self._logged = configs, hashes, logged
        self._lrs, self._lane, self._losses, self._metrics = lrs, lane, losses, metrics
        self._ends, self._wall_time_s = ends, wall_time_s
        self._summaries = {}

    def __len__(self) -> int:
        return len(self._configs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if not -len(self) <= index < len(self):
            raise IndexError(index)
        i = index % len(self)
        rows = [row for j in range(len(self._logged)) if (row := self._row(i, j)) is not None]
        if self._ends[i] is not None:
            k, gamma, at = self._ends[i]
            rows.append(RunRow(k, gamma, float("nan"), None, f"diverged@{at}"))
        return rows, self.summary(i)

    def csv_texts(self):
        """Each cell's CSV text, in order: the bytes ``rows_to_csv`` writes
        for the cell's rows, built column-wise from the arrays and yielded
        one cell at a time.

        The step and lr cells of a row are formatted once per lr lane, not
        once per cell; a cell's losses and metrics go through ``repr`` over
        ``.tolist()``, the shortest round-trip repr that ``csv_text`` prints.
        """
        heads = [[f"{k},{lr!r}," for k, lr in zip(self._logged, self._lrs[:, lane].tolist())]
                 for lane in range(self._lrs.shape[1])]
        for i in range(len(self)):
            ok = np.isfinite(self._losses[:, i])
            metrics = (map(repr, self._metrics[ok, i].tolist()) if self._metrics is not None
                       else repeat(""))
            lines = [f"{head}{loss!r},{metric},ok" for head, loss, metric in
                     zip(compress(heads[self._lane[i]], ok.tolist()),
                         self._losses[ok, i].tolist(), metrics)]
            if self._ends[i] is not None:
                k, gamma, at = self._ends[i]
                lines.append(f"{k},{gamma!r},nan,,diverged@{at}")
            yield "\n".join([CSV_HEADER, *lines]) + "\n"

    def _row(self, i: int, j: int) -> Optional[RunRow]:
        loss = float(self._losses[j, i])
        if not math.isfinite(loss):
            return None
        metric = float(self._metrics[j, i]) if self._metrics is not None else None
        return RunRow(self._logged[j], float(self._lrs[j, self._lane[i]]), loss, metric, "ok")

    def row_at(self, i: int, step: int) -> Optional[RunRow]:
        """Cell ``i``'s ok row at ``step``, or ``None``."""
        return self._row(i, self._logged.index(step)) if step in self._logged else None

    def last_row(self, i: int) -> Optional[RunRow]:
        """Cell ``i``'s last ok row."""
        ok = np.flatnonzero(np.isfinite(self._losses[:, i]))
        return self._row(i, ok[-1]) if ok.size else None

    def summary(self, i: int) -> RunSummary:
        if i not in self._summaries:
            self._summaries[i] = self._summary(i)
        return self._summaries[i]

    def _summary(self, i: int) -> RunSummary:
        cfg, ok = self._configs[i], np.isfinite(self._losses[:, i])
        last = np.flatnonzero(ok)
        scores = self._metrics[ok, i].tolist() if self._metrics is not None else []
        status, steps_run = "ok", cfg.steps
        if self._ends[i] is not None:
            at = self._ends[i][2]
            status, steps_run = f"diverged@{at}", min(cfg.steps, at)
        return RunSummary(
            config=emit_config(cfg),
            config_hash=self._hashes[i],
            status=status,
            steps_run=steps_run,
            final_train_loss=float(self._losses[last[-1], i]) if last.size else None,
            best_test_metric=max(scores) if scores else None,
            wall_time_s=self._wall_time_s,
        )


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
    every cell. Before any compute, an invalid config or a repeated tag is a
    ``ConfigError``, and a tag that is not a plain file name a
    ``ContractViolation``.
    """
    if isinstance(config, RunConfig):
        return _run_cells([config], [tag], out_dir)[0]
    configs = list(config)
    if isinstance(tag, str) or len(tag) != len(configs):
        raise ContractViolation("a sequence of configs needs a sequence of one tag per config")
    return _run_cells(configs, list(tag), out_dir)


def _run_cells(configs: list, tags: list, out_dir) -> CellResults:
    started = time.perf_counter()
    _check_cells(configs, tags)
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
    # Each cell owns its state's arrays, made writable once
    # (``optimizers._own``); the first may keep theta itself.
    states, steps, args = zip(*(
        OPTIMIZERS[cfg.optimizer].start(cfg, theta if i == 0 else
                                        ParamVector._wrap(theta.data.copy()))
        for i, cfg in enumerate(configs)))
    states = [_own(state) for state in states]
    # The cells' one step is this module's global of its name, looked up per
    # run: a tracer that wraps the global sees every step.
    step = globals()[steps[0].__name__]

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
    lrs = np.full((len(logged), len(distinct)), np.nan)  # one column per schedule
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
                if base.grad_clip is not None:
                    g = global_norm_clip(g, base.grad_clip)
                try:
                    states[i] = step(states[i], g, gammas[lane[i]], *args[i])
                except DivergenceError as exc:
                    # A non-finite gradient or result. A state written in place
                    # may be left partly written; the cell leaves the live set
                    # and it is never read again.
                    diverge(i, k, gammas, exc.step)
            del grads, g  # one gradient alive at a time, not two
            if logged[j] == k:
                if live:
                    for i in log(j, gammas):
                        diverge(i, k, gammas, k)
                j += 1
    wall_time_s = time.perf_counter() - started

    # The dataset bytes the run trained on, read once by ``build_problem``.
    source = problem.dataset.source if problem.dataset is not None else None
    results = CellResults(configs, [_hash_inputs(cfg, source) for cfg in configs], logged,
                          lrs, lane, losses, metrics, ends, wall_time_s)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, (tag, text) in enumerate(zip(tags, results.csv_texts())):
            (out / f"{tag}.csv").write_text(text, encoding="utf-8")
            payload = results.summary(i).__dict__.copy()
            (out / f"{tag}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                             encoding="utf-8")
    return results
