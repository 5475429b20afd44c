"""Run configuration: a flat JSON-compatible key-value format.

Defaults follow the usual library settings (sigma = beta2 = 0.999,
epsilon = 1e-8, weight decay 0.01, beta1 = 0.9). The same file drives every
optimizer: switching the ``optimizer`` key reuses the schedule, weight decay
and sigma unchanged, which is the pairing the tuning protocol relies on.
Validation happens before any compute, including the well-posedness guard
``sup_k gamma_k < beta`` for the inertial-Newton family and, for
``innaprop_momentum``, ``1 - alpha * gamma_k != 0`` at every step.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ..errors import ConfigError
from ..numerics import Precision, RngStream
from ..optimizers import (InnapropConfig, ReferenceParams, dinadam_init, dinadam_step,
                          inna_init, inna_step, innaprop_init, innaprop_momentum_init,
                          innaprop_momentum_step, innaprop_step, reference_init, reference_step)
from ..problems import (
    ACTIVATIONS,
    PROBLEM_KINDS,
    SYNTHETIC_KINDS,
    MiniBatchSampler,
    Problem,
    generate_synthetic,
    load_csv_dataset,
    make_problem,
)
from ..schedulers import ScheduleSpec, lr_at, max_lr, stays_below


@dataclass(frozen=True)
class Rule:
    """What an ``optimizer`` name means to a run."""

    reads: frozenset  # the keys that change the run, beside the schedule and grad_clip
    start: Callable  # (config, theta0) -> (state, public step, its args after gamma)
    forms: tuple = ()  # the values of key 'form', the default first
    gamma_below_beta: bool = False  # held to well-posedness: gamma_k < beta at every step


def _form(config) -> str:
    return config.form or OPTIMIZERS[config.optimizer].forms[0]


def _innaprop_config(config) -> InnapropConfig:
    """Weight decay and bias correction are each off where the rule does not
    read its key."""
    reads = OPTIMIZERS[config.optimizer].reads
    return InnapropConfig(config.alpha, config.beta, config.sigma, config.epsilon,
                          config.weight_decay if "weight_decay" in reads else 0.0,
                          config.bias_correction and "bias_correction" in reads)


def _start_innaprop(config, theta0):
    hyper = _innaprop_config(config)
    return innaprop_init(hyper, theta0), innaprop_step, (hyper,)


def _start_momentum_variant(config, theta0):
    hyper = _innaprop_config(config)
    return innaprop_momentum_init(hyper, theta0, _form(config)), innaprop_momentum_step, (hyper,)


def _start_reference(kind: str, config, theta0):
    params = ReferenceParams(config.beta1, config.sigma, config.epsilon, config.weight_decay,
                             config.bias_correction)
    return reference_init(kind, theta0, params), reference_step, (params,)


# The keys of the RMSprop-scaled inertial rules and of the moment-based ones.
_SCALED = frozenset({"alpha", "beta", "sigma", "epsilon"})
_MOMENTS = frozenset({"beta1", "sigma", "epsilon"})

# Every optimizer a config can name.
OPTIMIZERS = {
    "innaprop": Rule(_SCALED | {"weight_decay", "bias_correction"}, _start_innaprop,
                     gamma_below_beta=True),
    "innaprop_plain": Rule(_SCALED, _start_innaprop, gamma_below_beta=True),
    "innaprop_momentum": Rule(_SCALED | {"form"}, _start_momentum_variant,
                              ("reduced", "direct"), gamma_below_beta=True),
    "dinadam": Rule(_SCALED | {"sigma1"}, lambda c, theta0: (
        dinadam_init(theta0, c.sigma1, c.sigma), dinadam_step, (c.alpha, c.beta, c.epsilon))),
    "inna": Rule(frozenset({"alpha", "beta", "form"}), lambda c, theta0: (
        inna_init(c.alpha, c.beta, theta0), inna_step, (c.alpha, c.beta, _form(c))),
        ("classic", "compact"), gamma_below_beta=True),
    "adamw": Rule(_MOMENTS | {"weight_decay", "bias_correction"},
                  partial(_start_reference, "AdamW")),
    "adam": Rule(_MOMENTS | {"bias_correction"}, partial(_start_reference, "Adam")),
    "sgd": Rule(frozenset(), partial(_start_reference, "SGD")),
    "momentum": Rule(frozenset({"beta1"}), partial(_start_reference, "Momentum")),
    "nesterov": Rule(frozenset({"beta1"}), partial(_start_reference, "Nesterov")),
    "rmsprop_momentum": Rule(_MOMENTS, partial(_start_reference, "RMSpropMomentum")),
    "nadam": Rule(_MOMENTS, partial(_start_reference, "NAdam")),
}

# Purpose offsets for per-run randomness; every stream is keyed by the config
# seed alone so grid cells see identical data, inits and batch orders.
STREAM_DATA = 0
STREAM_INIT = 1
STREAM_BATCH = 2


@dataclass(frozen=True)
class RunConfig:
    # problem
    problem: str = "quadratic"
    dim: Optional[int] = None
    spectrum: Optional[tuple] = None
    hidden: tuple = (8,)
    activation: str = "tanh"
    dataset: Optional[str] = None
    n_samples: int = 240
    split_fraction: float = 0.75
    separation: float = 6.0
    noise: float = 0.0
    label_column: Optional[str] = None
    # optimizer
    optimizer: str = "innaprop"
    alpha: Optional[float] = None
    beta: Optional[float] = None
    sigma: float = 0.999
    beta1: float = 0.9
    sigma1: float = 0.9
    epsilon: float = 1e-8
    weight_decay: float = 0.01
    bias_correction: bool = True
    grad_clip: Optional[float] = None
    form: Optional[str] = None
    # schedule
    schedule: str = "constant"
    lr: float = 1e-3
    lr_min: float = 0.0
    t_max: Optional[int] = None
    t_warmup: int = 0
    t_decay: Optional[int] = None
    # loop
    steps: int = 100
    batch_size: Optional[int] = None
    batch_order: str = "shuffled-epoch"
    log_every: int = 1
    seed: int = 0
    precision: str = "f64"
    init_scale: float = 1.0
    # ode command extras
    t_end: float = 1.0
    ode_dt: float = 1e-3


_FIELDS = {f.name: f for f in fields(RunConfig)}
_LIST_FIELDS = {"spectrum", "hidden"}
_NULLABLE = {name for name, f in _FIELDS.items() if f.default is None}


def _coerce(key: str, value):
    if value is None:
        if key not in _NULLABLE:
            raise ConfigError(f"key {key!r} must not be null")
        return None
    if key in _LIST_FIELDS:
        # spectrum holds numbers, hidden integers, and neither booleans:
        # int() would truncate a fractional width.
        kind, number = ("numbers", (int, float)) if key == "spectrum" else ("integers", int)
        if not isinstance(value, (list, tuple)) or any(
                isinstance(v, bool) or not isinstance(v, number) for v in value):
            raise ConfigError(f"key {key!r} must be a list of {kind}")
        return tuple(float(v) for v in value) if key == "spectrum" else tuple(value)
    if key in ("bias_correction",):
        if not isinstance(value, bool):
            raise ConfigError(f"key {key!r} must be a boolean")
        return value
    if key in ("dim", "t_max", "t_warmup", "t_decay", "steps", "batch_size",
               "log_every", "seed", "n_samples"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"key {key!r} must be an integer")
        return value
    if key in ("problem", "optimizer", "schedule", "precision", "activation",
               "dataset", "label_column", "form", "batch_order"):
        if not isinstance(value, str):
            raise ConfigError(f"key {key!r} must be a string")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key {key!r} must be a number")
    return float(value)


def parse_config_dict(raw: dict) -> RunConfig:
    """Validate a raw key-value mapping into a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    data = dict(raw)
    if "beta2" in data:
        beta2 = _coerce("beta2", data.pop("beta2"))
        if "sigma" in data and _coerce("sigma", data["sigma"]) != beta2:
            raise ConfigError("keys 'sigma' and 'beta2' are aliases but disagree")
        data["sigma"] = beta2
    cleaned = {}
    for key, value in data.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown key {key!r}")
        cleaned[key] = _coerce(key, value)
    config = RunConfig(**cleaned)
    validate_config(config)
    return config


def _unique_keys(pairs) -> dict:
    """A JSON object's ``(key, value)`` pairs as a dict; a repeated key is a
    ``ConfigError``, where ``json`` would keep its last value silently."""
    raw = {}
    for key, value in pairs:
        if key in raw:
            raise ConfigError(f"key {key!r} is repeated")
        raw[key] = value
    return raw


def parse_config(path) -> RunConfig:
    try:
        # JSON text is UTF-8; a leading byte-order mark, as some editors
        # write, is dropped, as a CSV dataset's is.
        with open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return parse_config_dict(raw)


def validate_config(config: RunConfig):
    if config.problem not in PROBLEM_KINDS:
        raise ConfigError(f"unknown problem {config.problem!r}")
    rule = OPTIMIZERS.get(config.optimizer)
    if rule is None:
        raise ConfigError(f"unknown optimizer {config.optimizer!r}")
    if config.form is not None and config.form not in rule.forms:
        allowed = f"one of {', '.join(rule.forms)}" if rule.forms else "unset"
        raise ConfigError(f"key 'form' of optimizer {config.optimizer!r} must be {allowed}, "
                          f"not {config.form!r}")
    for key in _FIELDS:
        value = getattr(config, key)
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"key {key!r} must be finite")
    if config.dim is not None and config.dim <= 0:
        raise ConfigError("key 'dim' must be positive")
    if config.problem == "rosenbrock" and config.dim == 1:
        raise ConfigError("key 'dim' must be at least 2 for problem 'rosenbrock'")
    if config.spectrum is not None and not config.spectrum:
        raise ConfigError("key 'spectrum' must not be empty")
    for key in ("spectrum", "hidden"):
        if any(v <= 0 for v in getattr(config, key) or ()):
            raise ConfigError(f"key {key!r} must hold positive values")
    if (config.problem == "quadratic" and config.dim is not None
            and config.spectrum is not None and config.dim != len(config.spectrum)):
        raise ConfigError(f"key 'dim' ({config.dim}) must equal the length of 'spectrum' "
                          f"({len(config.spectrum)})")
    for key, allowed in (("batch_order", MiniBatchSampler.ORDERS),
                         ("activation", ACTIVATIONS)):
        if getattr(config, key) not in allowed:
            raise ConfigError(f"key {key!r} must be one of {', '.join(allowed)}, "
                              f"not {getattr(config, key)!r}")
    if (config.dataset is not None and not config.dataset.endswith(".csv")
            and config.dataset not in SYNTHETIC_KINDS):
        raise ConfigError(f"key 'dataset' must be a .csv path or one of "
                          f"{', '.join(SYNTHETIC_KINDS)}, not {config.dataset!r}")
    if (config.dataset == "linear_regression"
            and config.problem not in ("quadratic", "rosenbrock")):
        raise ConfigError(f"key 'dataset' 'linear_regression' has real targets, and problem "
                          f"{config.problem!r} needs class labels")
    if config.steps <= 0:
        raise ConfigError("key 'steps' must be positive")
    if config.log_every <= 0:
        raise ConfigError("key 'log_every' must be positive")
    if not config.lr > 0:
        raise ConfigError("key 'lr' must be positive")
    if not 0.0 <= config.sigma <= 1.0:
        raise ConfigError("key 'sigma' must lie in [0, 1]")
    if not 0.0 <= config.beta1 < 1.0:
        raise ConfigError("key 'beta1' must lie in [0, 1)")
    if not 0.0 <= config.sigma1 <= 1.0:
        raise ConfigError("key 'sigma1' must lie in [0, 1]")
    if not config.epsilon > 0:
        raise ConfigError("key 'epsilon' must be positive")
    if not config.weight_decay >= 0:
        raise ConfigError("key 'weight_decay' must be >= 0")
    if config.grad_clip is not None and not config.grad_clip > 0:
        raise ConfigError("key 'grad_clip' must be positive when set")
    if config.bias_correction and config.sigma == 1.0 and "bias_correction" in rule.reads:
        raise ConfigError("key 'bias_correction' is undefined at sigma = 1")
    if config.optimizer == "nadam" and config.sigma == 1.0:
        raise ConfigError("key 'sigma' must be below 1 for optimizer 'nadam', which "
                          "bias-corrects whatever 'bias_correction' says")
    if config.batch_size is not None:
        if config.batch_size <= 0:
            raise ConfigError("key 'batch_size' must be positive")
        if config.problem in ("quadratic", "rosenbrock"):
            raise ConfigError(f"key 'batch_size' needs a problem with a dataset, "
                              f"not {config.problem!r}")
    if config.t_max is not None and config.t_max < config.steps:
        raise ConfigError(f"key 't_max' ({config.t_max}) must be at least "
                          f"'steps' ({config.steps})")
    if config.precision not in ("f32", "f64"):
        raise ConfigError("key 'precision' must be 'f32' or 'f64'")
    if not config.init_scale > 0:
        raise ConfigError("key 'init_scale' must be positive")
    if "alpha" in rule.reads:
        if config.alpha is None or config.beta is None:
            raise ConfigError(f"optimizer {config.optimizer!r} needs keys 'alpha' and 'beta'")
        if config.alpha < 0:
            raise ConfigError("key 'alpha' must be >= 0")
        # beta = 0 is DINAdam's Adam limit; the others need beta above gamma.
        if not rule.gamma_below_beta and config.beta < 0:
            raise ConfigError("key 'beta' must be >= 0")
    schedule = build_schedule(config)
    if rule.gamma_below_beta and not stays_below(schedule, config.beta):
        raise ConfigError(f"well-posedness violated: schedule can emit gamma={schedule.gamma0} "
                          f">= beta={config.beta}")
    # innaprop_momentum divides by a = 1 - alpha * gamma. The step sizes of
    # the run's steps are enumerated only when some can reach 1 / alpha.
    if config.optimizer == "innaprop_momentum" and config.alpha * max_lr(schedule) >= 1.0:
        for k in range(1, config.steps + 1):
            gamma = lr_at(schedule, k)
            if 1.0 - config.alpha * gamma == 0.0:
                raise ConfigError(f"singular coefficient: alpha={config.alpha} times the "
                                  f"step size {gamma} of step {k} is 1")


def emit_config(config: RunConfig) -> dict:
    """Canonical JSON-compatible dict; parse(emit(c)) == c."""
    out = {}
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def content_hash(config: RunConfig) -> str:
    """sha1 of the inputs: the emitted config, then the bytes of a ``.csv``
    dataset file, read now. A synthetic dataset is fully named by the config."""
    source = None
    if config.dataset is not None and config.dataset.endswith(".csv"):
        source = Path(config.dataset).read_bytes()
    return _hash_inputs(config, source)


def _hash_inputs(config: RunConfig, source: Optional[bytes]) -> str:
    """``content_hash`` of ``config`` with ``source`` as the dataset file's
    bytes, such as those a run parsed (``Dataset.source``), or ``None``."""
    digest = hashlib.sha1(json.dumps(emit_config(config), sort_keys=True).encode())
    if source is not None:
        digest.update(source)
    return digest.hexdigest()


def build_schedule(config: RunConfig) -> ScheduleSpec:
    t_max = config.t_max if config.t_max is not None else config.steps
    try:
        return ScheduleSpec(
            kind=config.schedule,
            gamma0=config.lr,
            t_max=t_max,
            gamma_min=config.lr_min,
            t_warmup=config.t_warmup,
            t_decay=config.t_decay,
        )
    except Exception as exc:
        raise ConfigError(f"invalid schedule: {exc}") from None


def build_problem(config: RunConfig) -> Problem:
    if config.problem == "quadratic":
        spectrum = config.spectrum if config.spectrum is not None else (1.0, 10.0)
        if config.dim is not None and config.spectrum is None:
            spectrum = np.linspace(1.0, 10.0, config.dim)
        return make_problem("quadratic", spectrum=spectrum)
    if config.problem == "rosenbrock":
        return make_problem("rosenbrock", dim=config.dim or 2)
    dataset_kind = config.dataset or "two_gaussians"
    if dataset_kind.endswith(".csv"):
        if config.label_column is None:
            raise ConfigError("CSV datasets need key 'label_column'")
        dataset = load_csv_dataset(
            dataset_kind, config.label_column, config.split_fraction, config.seed
        )
    else:
        dataset = generate_synthetic(
            dataset_kind,
            n=config.n_samples,
            dim=config.dim or 2,
            seed=config.seed,
            split_fraction=config.split_fraction,
            separation=config.separation,
            noise=config.noise,
        )
    if config.problem == "logistic_regression":
        return make_problem("logistic_regression", dataset=dataset)
    return make_problem(
        "tiny_mlp", dataset=dataset, hidden=config.hidden, activation=config.activation
    )


def init_stream(config: RunConfig) -> RngStream:
    return RngStream(config.seed, STREAM_INIT)


def batch_stream(config: RunConfig) -> RngStream:
    return RngStream(config.seed, STREAM_BATCH)


def precision_of(config: RunConfig) -> Precision:
    return Precision.of(config.precision)


def preset_names() -> list[str]:
    pkg = resources.files("innaprop.presets")
    return sorted(p.name[:-5] for p in pkg.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> RunConfig:
    """Parse one of the shipped preset files by bare name."""
    pkg = resources.files("innaprop.presets")
    candidate = pkg / f"{name}.json"
    if not candidate.is_file():
        raise ConfigError(f"unknown preset {name!r}; shipped: {preset_names()}")
    return parse_config_dict(json.loads(candidate.read_text(encoding="utf-8"),
                                        object_pairs_hook=_unique_keys))
