"""Dense vectors, precision control, gradient clipping, deterministic
randomness, finite-difference gradient checks and the block runner that
shares large elementwise work with one worker thread.

Everything downstream (optimizers, problems, the ODE layer) works on
``ParamVector`` values. Vectors are immutable after construction; all
operations are pure functions, so independent runs can execute
concurrently. The one shared mutable state is the pool of ``share_blocks``'s
worker thread, made on first use and used by every caller in the process;
a call returns only once that thread has stopped working for it.
"""

from __future__ import annotations

import contextvars
import enum
import os
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


# Elements per block of ``share_blocks`` and of an optimizer step. Above two
# blocks the work is shared by the calling thread and one worker thread,
# which pays only when each ufunc call covers this many elements or more: at
# 16K the hand-off of the interpreter lock around each of a step block's ~23
# numpy calls cost the whole gain. A step's two f64 scratch rows and check
# buffer per thread are 0.55 MB; at 64K two threads' would break the 2 MiB
# bound on an owned step's allocations.
_BLOCK = 32 * 1024

# Above this many elements a ``share_blocks`` call is shared between two
# threads: more than two blocks. A caller that picks its path from the size
# (``problems._quadratic``) asks this constant, not its own copy of the rule.
_SHARED = 2 * _BLOCK

# The pool of ``share_blocks``'s worker thread, made by ``_block_pool`` on
# the first call of more than two blocks; a forked child makes its own.
_pool = None


def _drop_pool():
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    # A forked child has no worker thread: a range queued on the parent's
    # pool would never run, and its cancelled item would hold its arrays.
    os.register_at_fork(after_in_child=_drop_pool)


def _block_pool():
    """The pool of ``share_blocks``'s one worker thread, made on first use,
    or ``None`` while this process may run on one CPU only, or once
    interpreter shutdown has begun and no pool can be made. One worker: only
    two CPUs were measured, and each more thread would add its scratch to an
    optimizer step's allocations."""
    global _pool
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return None
    if _pool is None:
        # Two first calls at once may each make one; the pool not kept
        # ends its thread once its call lets go of it.
        try:
            from concurrent.futures import ThreadPoolExecutor
        except RuntimeError:  # "can't register atexit after shutdown"
            return None
        _pool = ThreadPoolExecutor(1, "innaprop-blocks")
    return _pool


def share_blocks(run, dim: int, *args) -> None:
    """``run(job)`` over the column blocks of ``dim`` elements, ``_BLOCK``
    at a time, where ``job`` is the list ``[blocks, *args]`` and ``blocks``
    an iterator of the blocks' ``(lo, hi)`` column bounds, the last block
    partial: ``run`` takes each block's bounds from it and works on the
    columns ``lo:hi`` alone.

    Above ``_SHARED`` elements, and unless the process may run on one CPU
    only, the calling thread and one worker thread (``_block_pool``) both
    call ``run`` on the one ``job``, so each runs the blocks it takes first.
    The work on a block must not depend on the other blocks or on the
    thread: then the result is that of one thread, whatever the timing. The
    worker runs in a copy of the caller's context, so numpy's ``errstate``
    is the caller's in both. A range the worker has not started when the
    caller runs out of blocks is cancelled, so a busy worker cannot hold the
    call; a started one is waited for before the call returns or raises, so
    no thread writes an output after it. A raise in either thread takes
    every block left, so the other stops after its current block, and it is
    the call's error. At most two blocks, and once interpreter shutdown has
    begun, the pool refusing new work, every block runs on the calling
    thread.
    """
    # A list's iterator: two threads may take from it at once.
    job = [iter([(lo, min(lo + _BLOCK, dim)) for lo in range(0, dim, _BLOCK)]), *args]
    pool = _block_pool() if dim > _SHARED else None
    worker = None
    if pool is not None:
        try:
            # In the caller's context: numpy's errstate is a context
            # variable, which a new thread does not inherit.
            worker = pool.submit(contextvars.copy_context().run, _drained, run, job)
        except RuntimeError:  # "cannot schedule new futures after shutdown"
            pass
    if worker is None:
        run(job)
        return
    try:
        _drained(run, job)
    finally:
        # A range the worker has not started is dropped, not awaited; a
        # started one is, so no thread writes an output after the call.
        error = None if worker.cancel() else worker.exception()
        # The pool's item outlives the call: it must not hold the arrays.
        job.clear()
    if error is not None:
        raise error


def _drained(run, job):
    """``run(job)``; a raise first takes every block left in ``job[0]``."""
    try:
        run(job)
    finally:
        for _ in job[0]:
            pass
