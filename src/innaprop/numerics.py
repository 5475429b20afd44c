"""Dense vectors, precision control, gradient clipping, deterministic
randomness and finite-difference gradient checks.

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


class ParamVector:
    """Immutable 1-D vector of reals in a fixed precision (F32 or F64).

    Only the owners of optimizer states make vectors writable: the run loop
    and the check loops, ``ode.discretization_gap`` among them, each once,
    through ``optimizers._own``, for the slots of the states it steps.

    The dimension is set at construction; an optimizer step rejects a
    gradient whose dimension or precision differs from its state's. The
    constructor rejects a non-finite element (``DomainError``); a gradient
    taken over by ``adopt_rows`` may be non-finite, and the step it feeds
    rejects the result (``DivergenceError``).

    A vector is unhashable, as is a state holding one: ``==`` takes ``-0.0``
    for ``0.0``, and an owner rewrites its slots in place.
    """

    __slots__ = ("data",)

    def __init__(self, values, precision: Precision | str = Precision.F64):
        precision = Precision.of(precision)
        arr = np.array(values, dtype=precision.dtype, copy=True).reshape(-1)
        if arr.size == 0:
            raise ContractViolation("ParamVector must have at least one element")
        if np.count_nonzero(np.isfinite(arr)) < arr.size:
            raise DomainError("ParamVector elements must be finite")
        # setflags is several times cheaper than assigning arr.flags.writeable.
        arr.setflags(write=False)
        self.data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "ParamVector":
        # Internal fast path: trusts that arr is 1-D, f32/f64 and owned; no scan.
        vec = object.__new__(cls)
        arr.setflags(write=False)
        vec.data = arr
        return vec

    @classmethod
    def adopt_rows(cls, stack: np.ndarray, precision: Precision | str) -> list:
        """One vector per row of a fresh (rows, dim) array.

        The rows are taken over, not copied, when ``stack`` already has the
        precision's dtype; otherwise the whole stack is cast once. No row is
        scanned: the step it feeds rejects a non-finite result. The caller
        gives the array up: nothing may write to it afterwards.
        """
        dtype = Precision.of(precision).dtype
        if stack.dtype != dtype:
            stack = stack.astype(dtype)
        return [cls._wrap(row) for row in stack]

    @classmethod
    def zeros_like(cls, other: "ParamVector") -> "ParamVector":
        return cls._wrap(np.zeros_like(other.data))

    @property
    def dim(self) -> int:
        return self.data.size

    @property
    def precision(self) -> Precision:
        return Precision.F32 if self.data.dtype == np.float32 else Precision.F64

    def __len__(self):
        return self.data.size

    def __repr__(self):
        return f"ParamVector({self.data.tolist()!r}, precision={self.precision.value})"

    def __eq__(self, other):
        if not isinstance(other, ParamVector):
            return NotImplemented
        return self.data.dtype == other.data.dtype and np.array_equal(self.data, other.data)

    def __reduce__(self):
        # Under every pickle protocol and ``copy.deepcopy``, whose copies of
        # ``data`` are writable: restored read-only, with the same dtype.
        return type(self)._wrap, (self.data,)

    def __copy__(self):
        # Shares ``data`` with its flags as they are; ``_wrap`` would make an
        # owner's writable slot read-only.
        vec = object.__new__(type(self))
        vec.data = self.data
        return vec


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
    # What np.linalg.norm computes for a real vector, without its wrapper;
    # np.sqrt, not math.sqrt, which rounds an f32 norm differently.
    norm = float(np.sqrt(g.data.dot(g.data)))
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


def fd_gradient(problem, theta: ParamVector, h: float = 1e-5) -> ParamVector:
    """Central-difference gradient estimate of ``problem.loss`` at ``theta``.

    Always computed in F64 regardless of the vector's precision; the result
    carries the precision of the input. All ``2*dim`` probe points go to
    ``problem.loss`` as one ``(2*dim, dim)`` stack, so the loss must take a
    stack (see ``Problem``); the stack holds ``2*dim*dim`` f64 values, so
    this suits small problems. Raises ``DomainError`` naming the first
    coordinate whose up or down probe has a non-finite loss.
    """
    if not h > 0:
        raise ContractViolation("finite-difference step h must be positive")
    base = np.array(theta.data, dtype=np.float64)
    dim = base.size
    # Rows 0..dim-1 step coordinate i up, rows dim..2*dim-1 step it down.
    probes = np.tile(base, (2 * dim, 1))
    i = np.arange(dim)
    probes[i, i] = base + h
    probes[dim + i, i] = base - h
    up, down = np.asarray(problem.loss(probes), dtype=np.float64).reshape(2, dim)
    finite = np.isfinite(up) & np.isfinite(down)
    if np.count_nonzero(finite) < dim:
        raise DomainError(f"non-finite loss while probing coordinate {int(np.argmin(finite))}")
    return ParamVector((up - down) / (2.0 * h), theta.precision)
