"""A seeded, bounded random search over ``parse_config_dict`` inputs, and
over the grid and sweep overrides of the command line.

Every generated config is either rejected before any compute, by
``ConfigError`` from parsing or ``ParseError`` from reading its CSV dataset
(CLI exit 2, no output directory), or it keeps every value it was given,
survives ``parse(emit(c)) == c`` and runs to a recorded status through the
CLI. A run that diverges at step 1 from these small, finite starts means a
coefficient was undefined at the first step (such as ``1 - sigma**k`` = 0),
which ``validate_config`` must reject instead.
"""

import json
import math
import random

import pytest

from innaprop.errors import ConfigError, ParseError
from innaprop.harness.cli import main
from innaprop.harness.config import OPTIMIZERS, build_problem, emit_config, parse_config_dict

# A config every optimizer accepts and runs in a few milliseconds.
BASE = {"problem": "rosenbrock", "optimizer": "innaprop", "alpha": 0.1, "beta": 0.9,
        "lr": 1e-3, "steps": 4}

# key -> (usual values, unusual ones). The unusual ones are of the wrong
# type, out of range or of a valid kind that clashes with other keys; each
# is either rejected or run. "CSV" and "NAN_CSV" stand for the two dataset
# files the test writes.
VALUES = {
    "problem": (["quadratic", "rosenbrock", "tiny_mlp", "logistic_regression"],
                ["resnet", 3]),
    "optimizer": (sorted(OPTIMIZERS), ["adamax", None]),
    "alpha": ([0.0, 0.1, 1.0], [-1.0, "x", True, None]),
    "beta": ([0.9, 1.5], [0.0, -0.5, "x"]),
    "sigma": ([0.9, 0.999], [1.0, 1.5, None, "x"]),
    "beta2": ([0.999], [1.0, "x"]),
    "bias_correction": ([True, False], [1, "yes", None]),
    "epsilon": ([1e-8], [0.0, -1e-8]),
    "weight_decay": ([0.0, 0.01], [-1.0, float("nan")]),
    "grad_clip": ([None, 1.0], [0.0]),
    "form": ([None], ["reduced", "direct", "classic", "compact", "bogus"]),
    "spectrum": ([[1.0, 10.0], [0.5, 2.0, 4.0]],
                 [["a", 1.0], [2.7, True], [True, 1.0], [[1.0]], [], [-1.0], "1,2"]),
    "hidden": ([[8], [4, 3]], [["x"], [2.7], [True], [0], [4.0], 8, None]),
    "dim": ([None], [1, 2, 3, 0, -1, 2.5, True]),
    "dataset": ([None, "two_gaussians", "CSV"],
                ["linear_regression", "three_moons", "NAN_CSV"]),
    "noise": ([0.0], [0.1, float("nan")]),
    "schedule": (["constant", "cosine", "linear_warmup"], ["bogus"]),
    "t_warmup": ([0, 2], [-1, 1.5]),
    "lr": ([1e-3, 0.05], [0.0, -1.0, "fast", 2.0, float("inf")]),
    "steps": ([3, 6], [0, 3.0, None]),
    "log_every": ([1, 2], [0]),
    "precision": (["f32", "f64"], ["f16"]),
    "batch_size": ([None], [8, 0]),
    "init_scale": ([1.0, 0.1], [0.0]),
}

# The inputs that raised a traceback, were truncated, or ran to diverged@1
# before the list keys and NAdam's sigma were validated.
BAD_LISTS = [("spectrum", ["a", 1.0]), ("spectrum", [True, 1.0]), ("hidden", ["x"]),
             ("hidden", [2.7]), ("hidden", [True])]

RANDOM_CASES = 200


def dataset_files(tmp_path) -> dict:
    """The two CSV datasets: one finite, one with a ``nan`` feature cell."""
    rows = [f"{0.1 * i},{1.0 - 0.2 * i},{i % 2}" for i in range(12)]
    files = {}
    for name, cell in (("CSV", "0.5"), ("NAN_CSV", "nan")):
        path = tmp_path / f"{name.lower()}.csv"
        path.write_text("x0,x1,y\n" + "\n".join([*rows, f"{cell},0.3,1"]) + "\n",
                        encoding="utf-8")
        files[name] = str(path)
    return files


def draw(rng: random.Random) -> dict:
    raw = {}
    for key, (usual, unusual) in VALUES.items():
        if rng.random() < 0.4:
            pool = unusual if rng.random() < 0.1 else usual
            raw[key] = pool[rng.randrange(len(pool))]
    return raw


def cases(files: dict) -> list:
    rng = random.Random(20241019)
    out = [{**BASE, **draw(rng)} for _ in range(RANDOM_CASES)]
    # Every optimizer at sigma 1, and each bad list element, on a config
    # that is valid otherwise: each must be rejected on its own account.
    out += [{**BASE, "optimizer": name, "sigma": 1.0, "bias_correction": correct}
            for name in sorted(OPTIMIZERS) for correct in (True, False)]
    out += [{**BASE, "problem": "quadratic" if key == "spectrum" else "tiny_mlp", key: value}
            for key, value in BAD_LISTS]
    for raw in out:
        if raw.get("dataset") in files:
            raw["dataset"] = files[raw["dataset"]]
            raw["label_column"] = "y"
    return out


def rejection(raw):
    """The ``ConfigError`` or ``ParseError`` that rejects ``raw`` before any
    compute, or ``None`` and the parsed config."""
    try:
        cfg = parse_config_dict(raw)
        build_problem(cfg)  # reads a CSV dataset
    except (ConfigError, ParseError) as exc:
        return exc, None
    return None, cfg


def test_every_config_is_rejected_before_compute_or_round_trips_and_runs(tmp_path, capsys):
    files = dataset_files(tmp_path)
    generated = cases(files)
    ran = 0
    for i, raw in enumerate(generated):
        exc, cfg = rejection(raw)
        path, out = tmp_path / f"cfg{i}.json", tmp_path / f"out{i}"
        path.write_text(json.dumps(raw), encoding="utf-8")
        code = main(["run", "--config", str(path), "--out", str(out)])
        if exc is not None:
            assert (code, out.exists()) == (2, False), (raw, exc)
            continue
        ran += 1
        assert code == 0, raw
        emitted = emit_config(cfg)
        assert parse_config_dict(emitted) == cfg, raw
        for key, value in raw.items():
            if key != "beta2":  # an alias, emitted as 'sigma'
                # json.dumps tells True from 1 and 2.7 from 2, as == does not.
                assert json.dumps(emitted[key]) == json.dumps(value), (key, raw)
        status = json.loads((out / "run.json").read_text(encoding="utf-8"))["status"]
        assert status == "ok" or (status.startswith("diverged@")
                                  and int(status[len("diverged@"):]) >= 2), (status, raw)
    # The search reaches both outcomes, and every forced case was made.
    assert 20 <= ran <= len(generated) - 20
    assert len(generated) == RANDOM_CASES + 2 * len(OPTIMIZERS) + len(BAD_LISTS)



# Grid and sweep overrides: each list is drawn from usual values and unusual
# ones, given as the command line spells them ("1e400" parses to inf; "-inf"
# and "-1e-3" look like options, but the command line reads them as values).
# The last unusual value of each is a near-collision: a distinct float within
# one part in 1e9 of a usual one, with the same 6-significant-digit name.
OVERRIDES = {
    "--alphas": (["0", "0.1", "0.5", "1"],
                 ["nan", "inf", "-inf", "-0.1", "1e400", "-0", repr(0.1 * (1 + 1e-9))]),
    "--betas": (["0.5", "0.9", "1.5"],
                ["nan", "inf", "0", "-0.5", "1e400", "-0", repr(0.9 * (1 + 1e-9))]),
    "--lrs": (["1e-4", "1e-3", "0.01", "0.05"],
              ["nan", "inf", "0", "-1e-3", "1e400", "1e-300", "0.9", "5", "-0",
               repr(0.01 * (1 + 1e-9))]),
}

OVERRIDE_CASES = 60


def override_values(rng: random.Random, flag: str) -> list:
    """One to three distinct usual values for ``flag``, each replaced by an
    unusual one at times, and at times a repeat of one of them appended."""
    usual, unusual = OVERRIDES[flag]
    values = [rng.choice(unusual) if rng.random() < 0.25 else v
              for v in rng.sample(usual, rng.randint(1, 3))]
    if rng.random() < 0.1:
        values.append(rng.choice(values))
    return values


def override_cases() -> list:
    """(command, {flag: values}) pairs, sweeps and grids in turn."""
    rng = random.Random(20261019)
    out = []
    for i in range(OVERRIDE_CASES):
        command, flags = ("sweep", ("--lrs",)) if i % 2 else ("grid", ("--alphas", "--betas"))
        out.append((command, {flag: override_values(rng, flag) for flag in flags}))
    return out


def test_every_grid_and_sweep_override_is_rejected_before_compute_or_runs(tmp_path, capsys):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(BASE), encoding="utf-8")
    ran = rejected = 0
    for i, (command, overrides) in enumerate(override_cases()):
        out = tmp_path / f"out{i}"
        argv = [command, "--config", str(path), "--out", str(out),
                *(arg for flag, values in overrides.items() for arg in (flag, *values))]
        code = main(argv)  # argparse's own exit would raise SystemExit here
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith("config error: ") and not out.exists(), (argv, err)
            rejected += 1
            continue
        assert code == 0, argv
        ran += 1
        header, *rows = [line.split(",") for line in
                         (out / f"{command}.csv").read_text(encoding="utf-8").splitlines()]
        assert len(rows) == math.prod(len(values) for values in overrides.values()), argv
        for row in rows:
            status = row[header.index("status")]
            assert status == "ok" or (status.startswith("diverged@")
                                      and int(status[len("diverged@"):]) >= 2), (status, argv)
    # The search reaches both outcomes.
    assert ran >= 10 and rejected >= 10, (ran, rejected)


# Values that look like options: each reaches the library's own check, which
# rejects it with its own message. argparse's own pattern would take "-1e-3",
# "-inf" and "-NaN" for options and stop with "unrecognized arguments" or
# "expected at least one argument".
OPTION_LIKE = [
    ("sweep", ["--lrs", "0.01", "-1e-3"], "key 'lr' must be positive"),
    ("sweep", ["--lrs", "-inf"], "key 'lr' must be finite"),
    ("grid", ["--alphas", "-inf", "--betas", "0.9"], "key 'alpha' must be finite"),
    ("grid", ["--alphas", "0.1", "--betas", "-0.5"], "beta=-0.5"),
    ("grid", ["--alphas", "-1e-3", "--betas", "0.9"], "key 'alpha' must be >= 0"),
    ("grid", ["--alphas", "-NaN", "--betas", "0.9"], "key 'alpha' must be finite"),
    # Two rates with one printed name, lr0.01.
    ("sweep", ["--lrs", "0.01", repr(0.01 * (1 + 1e-9))], "['lr0.01']"),
]


def test_option_like_values_reach_the_library_check(tmp_path, capsys):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(BASE), encoding="utf-8")
    for i, (command, args, message) in enumerate(OPTION_LIKE):
        out = tmp_path / f"out{i}"
        assert main([command, "--config", str(path), "--out", str(out), *args]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, (args, err)
        assert not out.exists(), args


def test_an_option_is_still_an_option(capsys):
    # "-h" is not a number: it still asks for help, after a list value too.
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", "preset:cifar_small", "--lrs", "0.01", "-h"])
    assert exc.value.code == 0 and "usage: innaprop sweep" in capsys.readouterr().out
