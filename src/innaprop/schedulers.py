"""Learning-rate schedules as pure functions of the step index.

Four kinds are supported: constant, cosine annealing, cosine annealing with
linear warmup, and linear decay with linear warmup. A spec is immutable and
``lr_at`` is bit-exact: two evaluations at the same (spec, k) return the same
float. The step index granularity (per-minibatch vs per-epoch) is a harness
choice; schedules are index-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ContractViolation

KINDS = ("constant", "cosine", "cosine_warmup", "linear_warmup")


@dataclass(frozen=True)
class ScheduleSpec:
    kind: str
    gamma0: float
    t_max: int
    gamma_min: float = 0.0
    t_warmup: int = 0
    t_decay: Optional[int] = None  # cosine_warmup only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractViolation(f"unknown schedule kind {self.kind!r}")
        if not self.gamma0 > 0:
            raise ContractViolation("gamma0 must be > 0")
        if not self.gamma_min >= 0:
            raise ContractViolation("gamma_min must be >= 0")
        if self.gamma_min > self.gamma0:
            raise ContractViolation("gamma_min must not exceed gamma0")
        if not self.t_max > 0:
            raise ContractViolation("t_max must be a positive integer")
        if not 0 <= self.t_warmup < self.t_max:
            raise ContractViolation("t_warmup must satisfy 0 <= t_warmup < t_max")
        if self.kind == "cosine_warmup":
            if self.t_decay is None:
                object.__setattr__(self, "t_decay", self.t_max)
            if self.t_decay < self.t_warmup:
                raise ContractViolation("t_decay must be >= t_warmup")
        elif self.t_decay is not None:
            raise ContractViolation("t_decay only applies to cosine_warmup")
        if self.kind in ("cosine_warmup", "linear_warmup") and self.t_warmup == 0:
            raise ContractViolation(f"{self.kind} needs t_warmup > 0")


def lr_at(spec: ScheduleSpec, k: int) -> float:
    """Learning rate at integer step ``k`` in ``[0, t_max]``.

    constant        gamma0
    cosine          gamma_min + (gamma0-gamma_min)/2 * (1 + cos(k*pi/t_max))
    cosine_warmup   gamma0*k/t_warmup ramp, cosine on [t_warmup, t_decay],
                    gamma_min beyond
    linear_warmup   gamma0*k/t_warmup ramp, then
                    gamma0*(1 - (k-t_warmup)/(t_max-t_warmup))

    The post-warmup branch owns k == t_warmup (both formulas give gamma0).
    """
    if not isinstance(k, (int,)) or isinstance(k, bool):
        raise ContractViolation("step index k must be an integer")
    if k < 0 or k > spec.t_max:
        raise ContractViolation(f"step index {k} outside [0, {spec.t_max}]")

    if spec.kind == "constant":
        return spec.gamma0
    if spec.kind == "cosine":
        return spec.gamma_min + 0.5 * (spec.gamma0 - spec.gamma_min) * (
            1.0 + math.cos(k * math.pi / spec.t_max)
        )
    if k < spec.t_warmup:
        return spec.gamma0 * k / spec.t_warmup
    if spec.kind == "cosine_warmup":
        if k > spec.t_decay:
            return spec.gamma_min
        return spec.gamma_min + 0.5 * (spec.gamma0 - spec.gamma_min) * (
            1.0 + math.cos(math.pi * (k - spec.t_warmup) / (spec.t_decay - spec.t_warmup))
        )
    # linear_warmup decay branch
    return spec.gamma0 * (1.0 - (k - spec.t_warmup) / (spec.t_max - spec.t_warmup))


def max_lr(spec: ScheduleSpec) -> float:
    """Supremum of ``lr_at`` over [0, t_max]; every kind peaks at gamma0."""
    return spec.gamma0


def stays_below(spec: ScheduleSpec, beta: float) -> bool:
    """True when no emittable step size can reach ``beta`` (setup guard)."""
    return max_lr(spec) < beta
