"""Dense-vector arithmetic, precision control, deterministic randomness and
finite-difference gradient checks.

Everything downstream (optimizers, problems, the ODE layer) works on
``ParamVector`` values. Vectors are immutable after construction; all
operations are pure functions, so independent runs can execute concurrently
without any shared mutable state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DomainError


class Precision(enum.Enum):
    F32 = "f32"
    F64 = "f64"

    @property
    def dtype(self):
        return np.float32 if self is Precision.F32 else np.float64

    @staticmethod
    def of(value) -> "Precision":
        if isinstance(value, Precision):
            return value
        try:
            return Precision(str(value).lower())
        except ValueError:
            raise ContractViolation(f"unknown precision {value!r}") from None


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class ParamVector:
    """Immutable 1-D vector of reals in a fixed precision (F32 or F64).

    The dimension is set at construction and must match across operands of
    any coordinatewise operation. Every public operation either returns an
    all-finite vector or raises (``DomainError`` / ``DivergenceError`` at the
    call sites that own a step index).
    """

    __slots__ = ("data",)

    def __init__(self, values, precision: Precision | str = Precision.F64):
        precision = Precision.of(precision)
        arr = np.array(values, dtype=precision.dtype, copy=True).reshape(-1)
        if arr.size == 0:
            raise ContractViolation("ParamVector must have at least one element")
        if not np.isfinite(arr).all():
            raise DomainError("ParamVector elements must be finite")
        self.data = _freeze(arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "ParamVector":
        # Internal fast path: trusts that arr is 1-D, finite, f32/f64 and owned.
        vec = object.__new__(cls)
        vec.data = _freeze(arr)
        return vec

    @classmethod
    def zeros(cls, dim: int, precision: Precision | str = Precision.F64) -> "ParamVector":
        return cls._wrap(np.zeros(dim, dtype=Precision.of(precision).dtype))

    @classmethod
    def zeros_like(cls, other: "ParamVector") -> "ParamVector":
        return cls._wrap(np.zeros_like(other.data))

    @property
    def dim(self) -> int:
        return self.data.size

    @property
    def precision(self) -> Precision:
        return Precision.F32 if self.data.dtype == np.float32 else Precision.F64

    def astype(self, precision: Precision | str) -> "ParamVector":
        precision = Precision.of(precision)
        if precision is self.precision:
            return self  # immutable, so no copy is needed
        return ParamVector(self.data, precision)

    def to_list(self):
        return self.data.tolist()

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def __len__(self):
        return self.data.size

    def __repr__(self):
        return f"ParamVector({self.data.tolist()!r}, precision={self.precision.value})"

    def __eq__(self, other):
        if not isinstance(other, ParamVector):
            return NotImplemented
        return self.data.dtype == other.data.dtype and np.array_equal(self.data, other.data)

    def __hash__(self):
        return hash((self.data.dtype.str, self.data.tobytes()))


def _binary_operands(a: ParamVector, b) -> tuple[np.ndarray, np.ndarray | float]:
    if isinstance(b, ParamVector):
        if b.dim != a.dim:
            raise ContractViolation(f"dimension mismatch: {a.dim} vs {b.dim}")
        return a.data, b.data
    return a.data, float(b)


_COORDINATEWISE = {"add", "sub", "mul", "div", "sqrt", "scale", "add_scalar"}


def coordinatewise(op: str, a: ParamVector, b=None) -> ParamVector:
    """Apply a coordinatewise operation in the precision of ``a``.

    ``op`` is one of add/sub/mul/div (vector or scalar second operand),
    sqrt (unary), scale / add_scalar (scalar second operand). Division
    requires every divisor element to be nonzero.
    """
    if op not in _COORDINATEWISE:
        raise ContractViolation(f"unknown coordinatewise op {op!r}")
    x = a.data
    if op == "sqrt":
        if b is not None:
            raise ContractViolation("sqrt takes a single operand")
        if np.any(x < 0):
            raise DomainError("sqrt of negative element")
        return ParamVector._wrap(np.sqrt(x))
    if b is None:
        raise ContractViolation(f"{op} needs a second operand")
    x, y = _binary_operands(a, b)
    if op in ("scale", "mul"):
        out = x * y
    elif op in ("add", "add_scalar"):
        out = x + y
    elif op == "sub":
        out = x - y
    else:  # div
        if np.any(y == 0):
            raise DomainError("division by zero element")
        out = x / y
    out = np.asarray(out, dtype=x.dtype)
    if not np.all(np.isfinite(out)):
        raise DomainError(f"non-finite result in coordinatewise {op}")
    return ParamVector._wrap(out)


# Norm slack treated as "already clipped"; keeps clipping bitwise idempotent
# while staying far inside the documented one-ulp tolerance on the bound.
_CLIP_SLACK = 1e-12


def global_norm_clip(g: ParamVector, max_norm: float) -> ParamVector:
    """Rescale ``g`` to Euclidean norm ``max_norm`` when it exceeds it.

    Vectors at or below the bound (within relative ``_CLIP_SLACK``) are
    returned unchanged, so clipping twice is a bitwise no-op.
    """
    if not max_norm > 0:
        raise ContractViolation("max_norm must be positive")
    norm = float(np.linalg.norm(g.data))
    if norm <= max_norm * (1.0 + _CLIP_SLACK):
        return g
    return ParamVector._wrap(np.asarray(g.data * (max_norm / norm), dtype=g.data.dtype))


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable randomness keyed by (seed, stream_id).

    Backed by the counter-based Philox generator, so any number of streams
    can be drawn from concurrently and in any order without affecting each
    other's sequences.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.random.SeedSequence([self.seed & 0xFFFFFFFFFFFFFFFF,
                                      self.stream_id & 0xFFFFFFFFFFFFFFFF])
        return np.random.Generator(np.random.Philox(key))

    def child(self, offset: int) -> "RngStream":
        """Derived stream for a sub-purpose (data, init, batches, ...)."""
        return RngStream(self.seed, self.stream_id * 1024 + offset)


def fd_gradient(problem, theta: ParamVector, h: float = 1e-5) -> ParamVector:
    """Central-difference gradient estimate of ``problem.loss`` at ``theta``.

    Always computed in F64 regardless of the vector's precision; the result
    carries the precision of the input. Raises ``DomainError`` if the loss is
    non-finite at any probe point.
    """
    if not h > 0:
        raise ContractViolation("finite-difference step h must be positive")
    base = np.array(theta.data, dtype=np.float64)
    grad = np.empty_like(base)
    for i in range(base.size):
        probe = base.copy()
        probe[i] = base[i] + h
        up = float(problem.loss(probe))
        probe[i] = base[i] - h
        down = float(problem.loss(probe))
        if not (np.isfinite(up) and np.isfinite(down)):
            raise DomainError(f"non-finite loss while probing coordinate {i}")
        grad[i] = (up - down) / (2.0 * h)
    return ParamVector(grad, theta.precision)
