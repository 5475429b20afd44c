"""(alpha, beta) grid search and the initial-learning-rate sweep.

All cells share the same seed-keyed data, parameter init and batch order, so
differences between cells come from (alpha, beta), or the lr, alone. Each
search is one lock-step ``run_experiment`` call: every step evaluates the
gradient of all live cells in one stacked problem call, then advances each
cell with its own step. Every cell's CSV is byte for byte its standalone
run's. A diverged cell is recorded and never aborts its siblings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from ..errors import ConfigError
from .config import RunConfig, validate_config
from .runner import CellResults, csv_text, run_experiment, snapshot_step

# Default tuning grid for the inertial pair.
DEFAULT_GRID = (0.1, 0.5, 0.9, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)

# Default initial-learning-rate candidates for the sweep.
DEFAULT_LR_SWEEP = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2)

GRID_CSV_HEADER = (
    "alpha,beta,short_train_loss,short_test_metric,"
    "final_train_loss,final_test_metric,best_test_metric,status"
)


@dataclass(frozen=True)
class GridCell:
    alpha: float
    beta: float
    short_train_loss: Optional[float]
    short_test_metric: Optional[float]
    final_train_loss: Optional[float]
    final_test_metric: Optional[float]
    best_test_metric: Optional[float]
    status: str


@dataclass(frozen=True)
class GridResult:
    cells: tuple
    short_step: int
    steps: int

    def to_csv(self) -> str:
        return csv_text(GRID_CSV_HEADER, [
            (float(c.alpha), float(c.beta), c.short_train_loss, c.short_test_metric,
             c.final_train_loss, c.final_test_metric, c.best_test_metric, c.status)
            for c in self.cells
        ])


def _summarize_cell(alpha, beta, results: CellResults, i: int, short_step) -> GridCell:
    short, last, summary = results.row_at(i, short_step), results.last_row(i), results.summary(i)
    return GridCell(
        alpha=alpha,
        beta=beta,
        short_train_loss=short.train_loss if short else None,
        short_test_metric=short.test_metric if short else None,
        final_train_loss=summary.final_train_loss,
        final_test_metric=last.test_metric if last else None,
        best_test_metric=summary.best_test_metric,
        status=summary.status,
    )


def grid_search(base_config: RunConfig, alphas=None, betas=None,
                out_dir=None) -> GridResult:
    """One lock-step run of every (alpha, beta) cell; rows sorted by (alpha, beta).

    Every cell is validated up front, which rejects an inertial cell that is
    not well-posed against the schedule, a repeated alpha or beta, and two
    cells whose file names (``cell_a{alpha:g}_b{beta:g}``) coincide;
    unstable cells that diverge at run time are recorded with their step
    index.
    """
    alphas = tuple(alphas) if alphas is not None else DEFAULT_GRID
    betas = tuple(betas) if betas is not None else DEFAULT_GRID
    if not alphas or not betas:
        raise ConfigError("grid needs at least one alpha and one beta")
    if len(set(alphas)) != len(alphas) or len(set(betas)) != len(betas):
        raise ConfigError("duplicate alphas or betas in grid")

    cells = [(a, b) for a in alphas for b in betas]
    # Each cell's files are named by its tag, so two cells must not share one.
    tags = [f"cell_a{a:g}_b{b:g}" for a, b in cells]
    if len(set(tags)) != len(tags):
        shared = sorted({tag for tag in tags if tags.count(tag) > 1})
        raise ConfigError(f"grid cells would share the file names {shared}; "
                          "alphas and betas must differ in their first 6 significant digits")
    configs = [replace(base_config, alpha=a, beta=b) for a, b in cells]
    for cfg in configs:
        validate_config(cfg)
    short_step = snapshot_step(base_config)

    runs = run_experiment(configs, out_dir=out_dir, tag=tags)
    results = [_summarize_cell(a, b, runs, i, short_step) for i, (a, b) in enumerate(cells)]

    results.sort(key=lambda c: (c.alpha, c.beta))
    grid = GridResult(cells=tuple(results), short_step=short_step, steps=base_config.steps)
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "grid.csv").write_text(grid.to_csv(), encoding="utf-8")
    return grid


@dataclass(frozen=True)
class SweepRow:
    lr: float
    final_train_loss: Optional[float]
    test_metric: Optional[float]
    status: str


def lr_sweep(base_config: RunConfig, lrs=None, out_dir=None) -> list[SweepRow]:
    """One lock-step run of every candidate initial learning rate."""
    lrs = tuple(lrs) if lrs is not None else DEFAULT_LR_SWEEP
    if len(set(lrs)) != len(lrs):
        raise ConfigError("duplicate learning rates in sweep list")
    if any(not v > 0 for v in lrs):
        raise ConfigError("learning rates must be positive")
    configs = [replace(base_config, lr=v) for v in lrs]
    for cfg in configs:
        validate_config(cfg)

    runs = run_experiment(configs, tag=[f"lr{v:g}" for v in lrs])
    rows = []
    for i, cfg in enumerate(configs):
        last, summary = runs.last_row(i), runs.summary(i)
        rows.append(SweepRow(lr=cfg.lr, final_train_loss=summary.final_train_loss,
                             test_metric=last.test_metric if last else None,
                             status=summary.status))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        text = csv_text("lr,final_train_loss,test_metric,status",
                        [(float(r.lr), r.final_train_loss, r.test_metric, r.status)
                         for r in rows])
        (out / "sweep.csv").write_text(text, encoding="utf-8")
    return rows
