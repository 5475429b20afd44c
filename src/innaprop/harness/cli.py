"""Command-line entry point.

Subcommands: ``run`` (one experiment), ``grid`` ((alpha, beta) search),
``sweep`` (initial-learning-rate sweep), ``check`` (verification suites) and
``ode`` (reference flow integration and discretization gap). Exit codes:
0 success, 1 check/invariant failure, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from pathlib import Path

from ..errors import ConfigError, ContractViolation, InnapropError, ParseError
from ..numerics import ParamVector
from ..ode import DinFlowSpec, discretization_gap, rk4_integrate
from .checks import SUITES, run_suite
from .config import build_problem, init_stream, load_preset, parse_config
from .grid import grid_search, lr_sweep
from .runner import csv_text, run_experiment

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _load_config(args):
    if args.config.startswith("preset:"):
        cfg = load_preset(args.config.split(":", 1)[1])
    else:
        cfg = parse_config(args.config)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "precision", None) is not None:
        overrides["precision"] = args.precision
    return replace(cfg, **overrides) if overrides else cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    summary = run_experiment([cfg], out_dir=args.out, tag=["run"]).summary(0)
    print(f"status={summary.status} steps={summary.steps_run} "
          f"final_train_loss={summary.final_train_loss} "
          f"best_test_metric={summary.best_test_metric}")
    return EXIT_OK


def _cmd_grid(args) -> int:
    cfg = _load_config(args)
    result = grid_search(cfg, alphas=args.alphas, betas=args.betas, out_dir=args.out)
    ok = sum(1 for c in result.cells if c.status == "ok")
    print(f"grid complete: {ok}/{len(result.cells)} cells ok "
          f"(short horizon at step {result.short_step} of {result.steps})")
    if args.out is None:
        print(result.to_csv(), end="")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    rows = lr_sweep(cfg, lrs=args.lrs, out_dir=args.out)
    for r in rows:
        print(f"lr={r.lr:g} final_train_loss={r.final_train_loss} "
              f"test_metric={r.test_metric} status={r.status}")
    return EXIT_OK


def _cmd_check(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        report = run_suite(name)
        for line in report.lines():
            print(line)
        failed = failed or not report.passed
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_ode(args) -> int:
    cfg = _load_config(args)
    if cfg.alpha is None or cfg.beta is None:
        raise ConfigError("ode command needs keys 'alpha' and 'beta'")
    if cfg.precision != "f64":
        raise ConfigError(f"ode command integrates in f64 only, not {cfg.precision!r}")
    # The discrete recursion steps at the constant step size lr; checked
    # before the flow is integrated, not once it has been.
    if not 0 < cfg.lr < cfg.beta:
        raise ConfigError(f"ode command needs 0 < lr < beta, got lr={cfg.lr:g}, "
                          f"beta={cfg.beta:g}")
    problem = build_problem(cfg)
    theta0 = ParamVector(cfg.init_scale * problem.init_theta(init_stream(cfg).generator()))
    spec = DinFlowSpec(cfg.alpha, cfg.beta, problem, t_end=cfg.t_end, dt=cfg.ode_dt)
    traj = rk4_integrate(spec, theta0)
    gap = discretization_gap(spec, cfg.lr, theta0)
    print(f"integrated to t={traj.t[-1]:g} in {len(traj.t) - 1} steps; "
          f"discretization gap at gamma={cfg.lr:g}: {gap:.6e}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        header = "t," + ",".join(f"theta{i}" for i in range(traj.theta.shape[1])) + ",loss"
        rows = ((t, *row, loss)
                for t, row, loss in zip(traj.t, traj.theta, traj.losses(problem)))
        (out / "trajectory.csv").write_text(csv_text(header, rows), encoding="utf-8")
        print(f"trajectory written to {out / 'trajectory.csv'}")
    return EXIT_OK


# A token that float() reads and that begins with "-": "-0.5", "-1e-3",
# "-inf", "-nan". argparse's own pattern takes only plain ones such as "-1"
# and "-0.5" for values and the rest for options, so "--lrs 0.01 -1e-3"
# stopped at argparse; as values, they reach the library's own checks.
_NEGATIVE_NUMBER = re.compile(
    r"-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads every ``_NEGATIVE_NUMBER`` token as
    a value; its subcommand parsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="innaprop",
        description="Inertial-Newton optimizer experiments and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help="path to a JSON config, or preset:<name>")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--precision", choices=("f32", "f64"), default=None)
        p.add_argument("--out", default=None, help="output directory")

    p_run = sub.add_parser("run", help="run one experiment")
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_grid = sub.add_parser("grid", help="(alpha, beta) grid search")
    add_common(p_grid)
    p_grid.add_argument("--alphas", type=float, nargs="+", default=None)
    p_grid.add_argument("--betas", type=float, nargs="+", default=None)
    p_grid.add_argument("--workers", type=int, default=None,
                        help="ignored; kept so older command lines still parse: "
                             "the cells run in lock-step in one process")
    p_grid.set_defaults(func=_cmd_grid)

    p_sweep = sub.add_parser("sweep", help="initial learning-rate sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--lrs", type=float, nargs="+", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_check.set_defaults(func=_cmd_check)

    p_ode = sub.add_parser("ode", help="reference flow integration")
    add_common(p_ode)
    p_ode.set_defaults(func=_cmd_ode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, ContractViolation) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InnapropError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
