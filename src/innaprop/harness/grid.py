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
from .config import OPTIMIZERS, RunConfig
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

    Before any compute, this rejects a repeated alpha or beta and an
    optimizer that reads neither; ``run_experiment`` rejects an invalid or
    ill-posed cell and two cells whose file names
    (``cell_a{alpha:g}_b{beta:g}``) coincide. Unstable cells that diverge at
    run time are recorded with their step index.
    """
    alphas = tuple(alphas) if alphas is not None else DEFAULT_GRID
    betas = tuple(betas) if betas is not None else DEFAULT_GRID
    if not alphas or not betas:
        raise ConfigError("grid needs at least one alpha and one beta")
    if len(set(alphas)) != len(alphas) or len(set(betas)) != len(betas):
        raise ConfigError("duplicate alphas or betas in grid")
    rule = OPTIMIZERS.get(base_config.optimizer)  # run_experiment rejects an unknown name
    if rule is not None and not {"alpha", "beta"} & rule.reads:
        raise ConfigError(f"grid needs an optimizer that reads alpha or beta, "
                          f"not {base_config.optimizer!r}")

    cells = [(a, b) for a in alphas for b in betas]
    configs = [replace(base_config, alpha=a, beta=b) for a, b in cells]
    tags = [f"cell_a{a:g}_b{b:g}" for a, b in cells]
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
    """One lock-step run of every candidate initial learning rate.

    Before any compute, this rejects a repeated rate; ``run_experiment``
    rejects a rate that is not finite and positive and two rates whose names
    (``lr{v:g}``, as the command line prints them) coincide.
    """
    lrs = tuple(lrs) if lrs is not None else DEFAULT_LR_SWEEP
    if len(set(lrs)) != len(lrs):
        raise ConfigError("duplicate learning rates in sweep list")
    configs = [replace(base_config, lr=v) for v in lrs]
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
