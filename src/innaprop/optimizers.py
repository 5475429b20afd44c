"""Update rules for the inertial-Newton optimizer family and the usual
reference methods, written as pure step functions over explicit state.

Every optimizer here is a function ``(state, gradient, step size, params) ->
new state``; states are plain immutable values, so runs can be replayed,
forked, or executed concurrently. A public step checks its step size
(``_guard_gamma``) and its other scalar arguments, then calls ``_begin``,
which rejects a gradient whose dimension or precision differs from the
state's with ``ContractViolation``.

Every step but the two oracles of the equivalence checks then ends in
``_blocked_step``, which runs the rule's update kernel block by block over
the state's one to four slots, which the step names, and builds the new
state itself. A rule is one module-level ``kernel(ins, outs, scratch, c)``
and the tuple ``c`` of coefficients its public step computes as Python
floats, ``1 - rate`` among them: a kernel takes its coefficients as ready
operands and does no arithmetic on them. A tuple that repeats an owned
state's last one bit for bit reaches the kernel cast once to 0-d arrays of
the slots' dtype, which give the same bits at a lower cost per ufunc call
(``_operands``). The reference kinds' rules are one table, ``_REFERENCE``.
RMSprop's two steps are written once, for every adaptive kernel:
``_second_moment`` updates the squared-gradient average and ``_over_rms``
divides by ``sqrt(v) + eps``. The adaptive rules are built from the plain
ones, as the paper builds INNAprop from INNA: the INNAprop kernel is INNA's
compact kernel on the scaled gradient, with the same coefficients, and the
RMSpropMomentum kernel is Momentum's on it. A non-finite new slot aborts the
step with ``DivergenceError`` carrying the offending step index instead of
silently propagating NaNs. Every rule reads the gradient into a new slot,
and ``0*inf`` and ``x*nan`` are NaN, so a non-finite gradient is rejected
too. A state that a run loop or a check loop owns carries the record
``_own`` made for it (``_Owned``): its slots, its scan, its scratch rows and
its last coefficients. Its new slots are written over the old ones, so a
step holds one state, not two. Every other state, as every public one, gets
fresh slots. A step of more than two blocks shares its blocks between the
calling thread and one worker thread (``numerics.share_blocks``), with the
bits of one thread.

The oracles, ``innaprop_naive_step`` and ``dinadam_direct_step``, keep
their whole-array expressions: each checks its new arrays for finiteness,
as the kernels' scan does, and builds its successor with
``dataclasses.replace``, fresh slots and no ``_Owned`` record.

Naming used throughout:

* ``theta``   parameter vector
* ``psi``     auxiliary variable of the inertial-Newton recursion,
              initialized to ``(1 - alpha*beta) * theta0`` so critical points
              are fixed points
* ``v``       exponential moving average of squared gradients (rate sigma)
* ``rms``     the scaled direction ``g / (sqrt(v) + eps)``
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .errors import ContractViolation, DivergenceError, WellPosednessError
from .numerics import _BLOCK, ParamVector, share_blocks

__all__ = [
    "InnapropConfig",
    "InnapropState",
    "NaiveInnapropState",
    "InnaState",
    "MomentumVariantState",
    "DinadamState",
    "DinadamDirectState",
    "ReferenceParams",
    "ReferenceState",
    "innaprop_init",
    "innaprop_step",
    "innaprop_naive_init",
    "innaprop_naive_step",
    "innaprop_momentum_init",
    "innaprop_momentum_step",
    "dinadam_init",
    "dinadam_step",
    "dinadam_direct_init",
    "dinadam_direct_step",
    "inna_init",
    "inna_step",
    "reference_init",
    "reference_step",
]


# ---------------------------------------------------------------------------
# Configs and states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InnapropConfig:
    """Hyperparameters shared by the inertial-Newton steps.

    ``beta`` must stay strictly above every step size the paired schedule can
    emit; that is checked again at run setup, but each step also rejects
    ``gamma >= beta`` outright.
    """

    alpha: float
    beta: float
    sigma: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    bias_correction: bool = True

    def __post_init__(self):
        if not self.alpha >= 0:
            raise ContractViolation("alpha must be >= 0")
        if not self.beta > 0:
            raise ContractViolation("beta must be > 0")
        if not 0.0 <= self.sigma <= 1.0:
            raise ContractViolation("sigma must lie in [0, 1]")
        if not self.epsilon > 0:
            raise ContractViolation("epsilon must be > 0")
        if not self.weight_decay >= 0:
            raise ContractViolation("weight_decay must be >= 0")
        if self.bias_correction and self.sigma == 1.0:
            raise ContractViolation("bias correction is undefined at sigma = 1")


@dataclass(frozen=True)
class InnapropState:
    """Three full-dimension slots: theta, psi and the squared-gradient average."""

    theta: ParamVector
    psi: ParamVector
    v: ParamVector
    k: int = 0


@dataclass(frozen=True)
class NaiveInnapropState:
    """Unreduced three-term recursion state.

    Deliberately keeps six full-dimension slots alive at once
    (theta_{k-1}, theta_k, g_{k-1}, v_k, v_{k+1}, plus the incoming gradient),
    mirroring the memory cost the reduced (theta, psi, v) form removes.
    """

    theta_prev: ParamVector
    theta_curr: ParamVector
    g_prev: ParamVector
    v_prev: ParamVector
    v_curr: ParamVector
    k: int = 0


@dataclass(frozen=True)
class InnaState:
    """Two full-dimension slots of the unscaled recursion: theta and psi."""

    theta: ParamVector
    psi: ParamVector
    k: int = 0


@dataclass(frozen=True)
class MomentumVariantState:
    """State for the momentum-style integration of the scaled direction.

    ``form`` selects the direct recursion (carries m and the previous
    gradient, since the update needs the previous scaled direction) or the
    reduced recursion (carries m-tilde only). With ``m0 = 0`` and no previous
    gradient the two are related by ``mtilde_k = m_k - (c/a) * rms_{k-1}`` and
    both start at zero.
    """

    theta: ParamVector
    m: ParamVector
    v: ParamVector
    g_prev: Optional[ParamVector] = None  # direct form only
    form: str = "reduced"  # "direct" | "reduced"
    k: int = 0

    def __post_init__(self):
        if self.form not in ("direct", "reduced"):
            raise ContractViolation(f"unknown momentum form {self.form!r}")
        if (self.g_prev is not None) != (self.form == "direct"):
            needs = "needs" if self.form == "direct" else "takes no"
            raise ContractViolation(f"a {self.form} momentum state {needs} g_prev")


@dataclass(frozen=True)
class DinadamState:
    """Adam-style combination of the inertial dynamics with last-step scaling."""

    theta: ParamVector
    mtilde: ParamVector
    v: ParamVector
    sigma1: float
    sigma2: float
    k: int = 0


@dataclass(frozen=True)
class DinadamDirectState:
    """Direct-recursion twin of ``DinadamState`` used by the equivalence oracle.

    Keeps the raw momentum ``m`` and the previous gradient instead of the
    memory-saving ``mtilde = m - alpha*beta*g_prev``.
    """

    theta: ParamVector
    m: ParamVector
    v: ParamVector
    g_prev: ParamVector
    sigma1: float
    sigma2: float
    k: int = 0


@dataclass(frozen=True)
class ReferenceParams:
    """Hyperparameters for the reference update rules; unused fields ignored."""

    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    bias_correction: bool = True  # Adam / AdamW


@dataclass(frozen=True)
class ReferenceState:
    """Tagged state for the standard reference optimizers.

    The slot set matches the kind exactly: SGD none, Momentum/Nesterov ``m``,
    RMSpropMomentum/Adam/AdamW/NAdam ``m`` and ``v``.
    """

    kind: str
    theta: ParamVector
    m: Optional[ParamVector] = None
    v: Optional[ParamVector] = None
    k: int = 0

    def __post_init__(self):
        rule = _REFERENCE.get(self.kind)
        if rule is None:
            raise ContractViolation(f"unknown reference kind {self.kind!r}")
        if (self.m is not None, self.v is not None) != ("m" in rule[0], "v" in rule[0]):
            raise ContractViolation(f"{self.kind} state must carry exactly the slots {rule[0]}")


# ---------------------------------------------------------------------------
# Step bookkeeping and shared helpers
# ---------------------------------------------------------------------------


def _begin(state, theta: ParamVector, g: ParamVector) -> int:
    """Check ``g`` against ``theta``, the state's parameter slot, in
    dimension and precision; returns the new state's step index ``k + 1``.
    Every public step calls it after its scalar guards, before any arithmetic.
    """
    grad, data = g.data, theta.data
    if grad.size != data.size:
        raise ContractViolation(
            f"gradient dimension {g.dim} does not match state dimension {theta.dim}"
        )
    if grad.dtype != data.dtype:
        raise ContractViolation("gradient precision must match the state precision")
    return state.k + 1


class _Owned:
    """What ``_own`` decides for a state, once, for it and its in-place
    successors: ``arrays``, the slot arrays its steps write in place;
    ``checked``, the arrays their finiteness scan covers (the block, when
    there is one); ``scratch``, two kernel rows when it has at most
    ``_BLOCK`` elements, else ``None``; ``last``, its last coefficients,
    their cast and the signs of their zeros (``_operands``). It rides in the
    state's instance ``__dict__`` as ``_owned``, not as a field: equality,
    ``repr`` and ``fields()`` are as without it, and a ``dataclasses.replace``
    copy, built by ``__init__``, has none. A copy by ``copy.deepcopy`` or
    ``pickle`` has new, read-only arrays, and its record becomes ``None``.
    """

    __slots__ = ("arrays", "checked", "scratch", "last")

    def __init__(self, arrays, checked, scratch):
        self.arrays, self.checked, self.scratch, self.last = arrays, checked, scratch, None

    def __reduce__(self):
        return type(None), ()


def _own(state):
    """``state`` owned, as a run loop or a check loop owns it: its slots
    writable and an ``_Owned`` record in its ``__dict__``, so that blocked
    steps write it and its successors in place; made once at setup, never
    per step. Only such a state is written in place.

    A state of at most ``_BLOCK`` elements gets copies of its slots as the
    rows of one writable ``(slots, dim)`` array, which ``_blocked_step``
    checks with one scan, and two scratch rows of its own. A larger state
    keeps its own slots, made writable, and is returned itself: a copy would
    double its memory. So the owner must own those arrays: a state from
    ``*_init(theta0)`` holds ``theta0`` itself, and a loop that owns it must
    build it from its own copy of ``theta0``. No slot that a blocked step
    writes may share memory with another slot or another state. The oracles'
    whole-array steps write no state, so owning one of their states changes
    only its layout.
    """
    names = [f.name for f in fields(state) if isinstance(getattr(state, f.name), ParamVector)]
    arrays = [getattr(state, name).data for name in names]
    if arrays[0].size > _BLOCK:
        for arr in arrays:
            arr.flags.writeable = True
        checked, scratch = arrays, None
    else:
        block = np.array(arrays)
        arrays = list(block)
        state = replace(state, **{name: ParamVector._wrap(row) for name, row in zip(names, arrays)})
        for row in arrays:
            row.flags.writeable = True
        rows = np.empty((2, block.shape[1]), block.dtype)
        checked, scratch = (block,), (rows[0], rows[1])
    state.__dict__["_owned"] = _Owned(arrays, checked, scratch)
    return state


def _cast(coeffs, dtype):
    """``coeffs`` with each float a 0-d array of ``dtype``, nested tuples
    alike; ``None`` stays."""
    return tuple(c if c is None else _cast(c, dtype) if type(c) is tuple else np.array(c, dtype)
                 for c in coeffs)


def _zero_signs(coeffs) -> list:
    """The signs of the zeros among the floats of ``coeffs``, in order: all
    that tells apart two float tuples that compare equal."""
    signs = []
    for c in coeffs:
        if type(c) is tuple:
            signs += _zero_signs(c)
        elif c == 0.0:  # None != 0.0
            signs.append(math.copysign(1.0, c))
    return signs


def _operands(owned, coeffs):
    """The coefficients an owned state's kernel gets from ``_blocked_step``:
    ``coeffs`` as they are, or, when they repeat the state's last
    coefficients bit for bit, those cast once to 0-d arrays of its dtype.

    A 0-d operand of the slots' dtype gives the bits of the Python float it
    was cast from, under NEP 50, and saves about 0.3-0.5 us per ufunc call
    at dims 2-64. A check loop's constant step size without bias correction
    repeats its tuple, and pays one cast per state; a run loop's step size
    or step index changes every call, and it pays one comparison and casts
    nothing: a cast per call costs about what it saves. ``==`` takes -0.0
    for 0.0, and the cosine schedule's last step size 0 gives ``psi_theta``
    either sign, so the signs of zeros are compared too.
    """
    last = owned.last
    if last is not None and last[0] == coeffs:
        _, cast, signs = last
        if cast is None:  # the first repeat
            signs = _zero_signs(coeffs)
            if signs == _zero_signs(last[0]):
                cast = _cast(coeffs, owned.arrays[0].dtype)
                owned.last = (coeffs, cast, signs)
                return cast
        elif not signs or _zero_signs(coeffs) == signs:
            return cast
    owned.last = (coeffs, None, None)
    return coeffs


def _blocked_step(state, step_index: int, kernel, coeffs, names, grad: np.ndarray):
    """The state after ``state`` from the update ``kernel`` over its one to
    four slots, the fields ``names`` in its class's order, and the raw
    gradient, all of one length and precision. Every step but the oracles'
    ends here.

    The successor is a copy of the state's instance ``__dict__`` at
    ``step_index``: its class's ``__init__`` checked every field when the
    state was built. A state from ``_own``, or an in-place successor of one,
    carries its ``_Owned`` record, and its new slots are the old ones,
    written in place: every kernel is elementwise and reads an input block,
    and every input its later writes overwrite, before it writes the output
    block over it. A slot made read-only makes the kernel raise numpy's
    ``ValueError``. Any other state gets fresh slots, the rows of one new
    ``(slots, dim)`` array, set under ``names``.

    ``kernel(ins, outs, scratch, coeffs)`` gets the slots then the gradient
    as ``ins``, the new slots as ``outs`` and two scratch rows: the arrays
    themselves when they have at most ``_BLOCK`` elements, else aligned
    column blocks (``_run_blocks``). ``coeffs`` is the tuple of Python
    floats the public step computed, ``None`` where the kernel skips a
    branch, or, for an owned
    state that repeats its last tuple, that tuple cast once to 0-d arrays
    of the slots' dtype (``_operands``); either takes the slots' precision
    in every ufunc and gives the same bits. The kernel does no arithmetic
    on them, only applies them, the same for every block. It writes through
    each ufunc's ``out`` argument, given by position, which numpy parses
    faster than the keyword. Each output block is checked while in cache,
    by one scan when the new slots are the rows of one array and one per
    slot otherwise: a non-finite element raises
    ``DivergenceError(step_index)``, the verdict of a whole-array check,
    and leaves a state written in place partly written.

    Above one block the blocks go to ``numerics.share_blocks``: above two,
    and unless the process may run on one CPU only, the calling thread and
    one worker thread take them from one shared iterator, each with scratch
    of its own. The blocks touch disjoint columns, so the bits are those of
    one thread, whatever the timing, and no thread writes a slot after the
    step returns or raises. Either thread's ``DivergenceError`` is the
    step's verdict. At most two blocks run on the calling thread alone and
    start no thread.
    """
    owned = state.__dict__.get("_owned")
    if owned is None:
        rows = np.empty((len(names), grad.size), grad.dtype)
        ins = [getattr(state, name).data for name in names] + [grad]
        # Indexed: iterating the array takes its rows at about twice the cost.
        outs, checked, scratch = [rows[i] for i in range(len(names))], (rows,), None
    else:
        outs, checked, scratch = owned.arrays, owned.checked, owned.scratch
        ins = [*outs, grad]
        coeffs = _operands(owned, coeffs)
    dim = grad.size
    if dim <= _BLOCK:  # one block: no views, no check buffer
        if scratch is None:
            rows = np.empty((2, dim), grad.dtype)
            # Two indexings; unpacking the array would raise and catch an IndexError.
            scratch = rows[0], rows[1]
        kernel(ins, outs, scratch, coeffs)
        for out in checked:
            # count_nonzero costs about half of .all() on small arrays.
            if np.count_nonzero(np.isfinite(out)) < out.size:
                raise DivergenceError(step_index)
    else:
        share_blocks(_run_blocks, dim, kernel, ins, outs, checked, coeffs, step_index)
    successor = object.__new__(type(state))
    # Item by item: update() with keywords first builds a dict of them.
    new = successor.__dict__
    new.update(state.__dict__)
    new["k"] = step_index
    if owned is None:
        for name, out in zip(names, outs):
            new[name] = ParamVector._wrap(out)
    return successor


def _run_blocks(job):
    """``_blocked_step``'s loop, run by ``share_blocks``: the kernel and the
    finiteness scan on each block whose bounds the iterator ``blocks``
    yields, with two scratch rows and a check buffer of its own, as the
    caller's or the worker's."""
    blocks, kernel, ins, outs, checked, coeffs, step_index = job
    # Per call: kept between calls, a 256 KB buffer changed how the
    # allocator served the megabyte arrays around a step at dim 1e6,
    # and the same numpy passes then ran at a different speed.
    scratch = np.empty((2, _BLOCK), ins[-1].dtype)
    finite = np.empty((*checked[0].shape[:-1], _BLOCK), dtype=bool)
    for lo, hi in blocks:
        if hi - lo < _BLOCK:  # last, partial block
            scratch, finite = scratch[:, : hi - lo], finite[..., : hi - lo]
        kernel([arr[lo:hi] for arr in ins], [out[lo:hi] for out in outs],
               (scratch[0], scratch[1]), coeffs)
        for out in checked:
            if np.count_nonzero(np.isfinite(out[..., lo:hi], finite)) < finite.size:
                raise DivergenceError(step_index)


def _rms(g: np.ndarray, v: np.ndarray, eps: float) -> np.ndarray:
    return g / (np.sqrt(v) + eps)


def _second_moment(rate, fresh, v, grad, v_new, tmp):
    """RMSprop's average ``v_new = rate * v + fresh * grad * grad``, with
    ``fresh = 1 - rate`` computed by the caller's coefficients, through
    ``tmp``; every adaptive kernel updates its ``v`` here."""
    np.multiply(rate, v, v_new)
    np.multiply(fresh, grad, tmp)
    np.multiply(tmp, grad, tmp)
    np.add(v_new, tmp, v_new)


def _over_rms(num, v, eps, den, out):
    """RMSprop's scaling ``out = num / (sqrt(v) + eps)``, with
    ``sqrt(v) + eps`` computed in ``den``; returns ``out``."""
    np.sqrt(v, den)
    np.add(den, eps, den)
    return np.divide(num, den, out)


def _guard_gamma(gamma: float, beta: Optional[float] = None):
    """Every public step's step-size check, made before ``_begin``: a NaN,
    infinite or negative step size raises ``ContractViolation`` (0 is valid:
    a cosine schedule reaches it). Given ``beta``, as the rules that divide
    by ``beta - gamma`` pass it, ``gamma >= beta`` raises ``WellPosednessError``."""
    if not 0.0 <= gamma < math.inf:
        raise ContractViolation(f"step size gamma/eta must be finite and >= 0, got {gamma}")
    if beta is not None and gamma >= beta:
        raise WellPosednessError(f"step size gamma={gamma} must stay below beta={beta}")


def _psi0(alpha: float, beta: float, theta0: ParamVector) -> ParamVector:
    """``(1 - alpha*beta) * theta0`` in the precision of ``theta0``."""
    return ParamVector._wrap(
        np.asarray((1.0 - alpha * beta) * theta0.data, dtype=theta0.data.dtype)
    )


# ---------------------------------------------------------------------------
# INNAprop, reduced three-slot form
# ---------------------------------------------------------------------------


def innaprop_init(config: InnapropConfig, theta0: ParamVector) -> InnapropState:
    """Initial state: v = 0 and psi = (1 - alpha*beta) * theta0."""
    psi0 = _psi0(config.alpha, config.beta, theta0)
    return InnapropState(theta=theta0, psi=psi0, v=ParamVector.zeros_like(theta0), k=0)


def innaprop_step(
    state: InnapropState, g: ParamVector, gamma_k: float, config: InnapropConfig
) -> InnapropState:
    """One full training step of the reduced recursion.

    In order: decoupled weight decay ``theta <- (1 - lambda*gamma_k) * theta``;
    ``v <- sigma*v + (1-sigma)*g^2``; bias-corrected
    ``v_hat = v / (1 - sigma^(k+1))`` when enabled;
    ``psi <- (1 - gamma/beta)*psi + gamma*(1/beta - alpha)*theta``; finally

        theta <- (1 + gamma*(1-alpha*beta)/(beta-gamma)) * theta
                 - gamma/(beta-gamma) * psi_new
                 - gamma*beta * g / (sqrt(v_hat) + eps)

    With ``weight_decay`` 0 and ``bias_correction`` off this is the
    constant-step recursion on the raw ``v``. The gradient must be evaluated
    at the pre-decay ``theta``. An owned state is written in place. After
    the decay this is, bit for bit, ``inna_step(form="compact")`` on
    ``g / (sqrt(v_hat) + eps)``: INNA with RMSprop's scaling, as the kernel
    computes it.

    The update runs through ``_blocked_step``: it evaluates the formulas
    above block by block, with the same ufuncs in the same order and the
    same coefficients, rounded to the state's precision, as the whole-array
    expressions, so its results match them bit for bit in F32 and F64.
    """
    _guard_gamma(gamma_k, config.beta)
    step_index = _begin(state, state.theta, g)
    gamma, weight_decay = float(gamma_k), float(config.weight_decay)
    sigma = float(config.sigma)
    coeffs = (1.0 - weight_decay * gamma if weight_decay else None, sigma, 1.0 - sigma,
              1.0 - sigma ** step_index if config.bias_correction else None,
              float(config.epsilon),
              _inna_compact_coefficients(gamma, float(config.alpha), float(config.beta)))
    return _blocked_step(state, step_index, _innaprop_kernel, coeffs, ("theta", "psi", "v"),
                         g.data)


def _innaprop_kernel(ins, outs, scratch, c):
    """INNA's compact step on RMSprop's scaled gradient, which it keeps in
    scratch row 1; ``_inna_compact_kernel`` uses only row 0."""
    theta, psi, v, grad = ins
    theta_new, psi_new, v_new = outs
    rms = scratch[1]
    decay, sigma, fresh, v_scale, eps, inna = c
    if decay is not None:
        theta = np.multiply(decay, theta, theta_new)
    _second_moment(sigma, fresh, v, grad, v_new, rms)
    v_hat = v_new if v_scale is None else np.divide(v_new, v_scale, rms)
    _over_rms(grad, v_hat, eps, rms, rms)
    _inna_compact_kernel((theta, psi, rms), (theta_new, psi_new), scratch, inna)


# ---------------------------------------------------------------------------
# INNAprop, unreduced six-slot form
# ---------------------------------------------------------------------------


def innaprop_naive_init(config: InnapropConfig, theta0: ParamVector) -> NaiveInnapropState:
    zeros = ParamVector.zeros_like(theta0)
    return NaiveInnapropState(
        theta_prev=theta0,
        theta_curr=theta0,
        g_prev=zeros,
        v_prev=zeros,
        v_curr=zeros,
        k=0,
    )


def innaprop_naive_step(
    state: NaiveInnapropState, g_curr: ParamVector, gamma: float, config: InnapropConfig
) -> NaiveInnapropState:
    """Advance the three-term recursion

        theta_{k+1} = theta_k + (1 - alpha*gamma) * (theta_k - theta_{k-1})
                      - beta*gamma * (rms_k - rms_{k-1}) - gamma^2 * rms_{k-1}

    with ``rms_k = g_k / (sqrt(v_{k+1}) + eps)``. The first call performs the
    bootstrap ``theta_1 = theta_0 - gamma*beta*rms_0``, the unique start
    consistent with ``psi_0 = (1 - alpha*beta) * theta_0`` in the reduced
    form, which makes the two recursions coincide exactly from step one.
    """
    _guard_gamma(gamma, config.beta)
    step_index = _begin(state, state.theta_curr, g_curr)
    alpha, beta, sigma, eps = config.alpha, config.beta, config.sigma, config.epsilon
    grad = g_curr.data
    v_next = sigma * state.v_curr.data + (1.0 - sigma) * grad * grad
    rms_curr = _rms(grad, v_next, eps)

    if state.k == 0:
        theta_next = state.theta_curr.data - (gamma * beta) * rms_curr
    else:
        rms_prev = _rms(state.g_prev.data, state.v_curr.data, eps)
        theta_next = (
            state.theta_curr.data
            + (1.0 - alpha * gamma) * (state.theta_curr.data - state.theta_prev.data)
            - (beta * gamma) * (rms_curr - rms_prev)
            - (gamma * gamma) * rms_prev
        )
    for new in (theta_next, v_next):
        # count_nonzero costs about half of .all() on small arrays.
        if np.count_nonzero(np.isfinite(new)) < new.size:
            raise DivergenceError(step_index)
    return replace(state, theta_prev=state.theta_curr, theta_curr=ParamVector._wrap(theta_next),
                   g_prev=g_curr, v_prev=state.v_curr, v_curr=ParamVector._wrap(v_next),
                   k=step_index)


# ---------------------------------------------------------------------------
# INNA (no adaptive scaling)
# ---------------------------------------------------------------------------


def inna_init(alpha: float, beta: float, theta0: ParamVector) -> InnaState:
    return InnaState(theta=theta0, psi=_psi0(alpha, beta, theta0))


def inna_step(
    state: InnaState,
    g: ParamVector,
    gamma: float,
    alpha: float,
    beta: float,
    form: str = "classic",
) -> InnaState:
    """One step of the plain inertial-Newton recursion.

    ``form="classic"`` is the textbook two-line update

        psi_{k+1}   = psi_k + gamma*((1/beta - alpha)*theta_k - psi_k/beta)
        theta_{k+1} = theta_k + gamma*((1/beta - alpha)*theta_k - psi_k/beta
                                        - beta*g_k)

    ``form="compact"`` substitutes psi_{k+1} into the theta update so only the
    already-updated psi needs to be held; algebraically identical.
    """
    if not isinstance(state, InnaState):
        raise ContractViolation("inna_step requires an INNA state")
    if not beta > 0:
        raise ContractViolation("beta must be > 0")
    if form not in ("classic", "compact"):
        raise ContractViolation(f"unknown INNA form {form!r}")
    _guard_gamma(gamma, beta if form == "compact" else None)
    step_index = _begin(state, state.theta, g)

    gamma, alpha, beta = float(gamma), float(alpha), float(beta)
    if form == "compact":
        kernel, coeffs = _inna_compact_kernel, _inna_compact_coefficients(gamma, alpha, beta)
    else:
        kernel, coeffs = _inna_classic_kernel, (1.0 / beta - alpha, beta, gamma)
    return _blocked_step(state, step_index, kernel, coeffs, ("theta", "psi"), g.data)


def _inna_classic_kernel(ins, outs, scratch, c):
    theta, psi, grad = ins
    theta_new, psi_new = outs
    a, b = scratch
    drift_theta, beta, gamma = c
    # drift = drift_theta * theta - psi / beta
    np.multiply(drift_theta, theta, a)
    np.subtract(a, np.divide(psi, beta, b), a)
    # psi_new = psi + gamma * drift
    np.add(psi, np.multiply(gamma, a, b), psi_new)
    # theta_new = theta + gamma * (drift - beta * grad)
    np.subtract(a, np.multiply(beta, grad, b), a)
    np.multiply(gamma, a, a)
    np.add(theta, a, theta_new)


def _inna_compact_coefficients(gamma, alpha, beta):
    """``_inna_compact_kernel``'s coefficients, which ``innaprop_step``
    shares."""
    return (1.0 - gamma / beta, gamma * (1.0 / beta - alpha),
            1.0 + gamma * (1.0 - alpha * beta) / (beta - gamma), gamma / (beta - gamma),
            gamma * beta)


def _inna_compact_kernel(ins, outs, scratch, c):
    theta, psi, grad = ins
    theta_new, psi_new = outs
    a = scratch[0]
    psi_keep, psi_theta, theta_keep, theta_psi, theta_grad = c
    # psi_new = psi_keep * psi + psi_theta * theta
    np.multiply(psi_keep, psi, psi_new)
    np.add(psi_new, np.multiply(psi_theta, theta, a), psi_new)
    # theta_new = theta_keep * theta - theta_psi * psi_new - theta_grad * grad
    np.multiply(theta_keep, theta, theta_new)
    np.subtract(theta_new, np.multiply(theta_psi, psi_new, a), theta_new)
    np.subtract(theta_new, np.multiply(theta_grad, grad, a), theta_new)


# ---------------------------------------------------------------------------
# Momentum-style variant (direct m and reduced m-tilde forms)
# ---------------------------------------------------------------------------


def innaprop_momentum_init(
    config: InnapropConfig, theta0: ParamVector, form: str = "reduced"
) -> MomentumVariantState:
    return MomentumVariantState(
        theta=theta0, m=ParamVector.zeros_like(theta0), v=ParamVector.zeros_like(theta0),
        form=form, g_prev=ParamVector.zeros_like(theta0) if form == "direct" else None,
    )


def innaprop_momentum_step(
    state: MomentumVariantState, g: ParamVector, gamma: float, config: InnapropConfig
) -> MomentumVariantState:
    """Momentum-style integration of the scaled direction.

    Direct form (coefficients a = 1 - alpha*gamma, b = beta*gamma,
    c = gamma*(beta - gamma)):

        m_{k+1}     = a*m_k + gamma^2 * rms_{k-1} + b*(rms_k - rms_{k-1})
        theta_{k+1} = theta_k - m_{k+1}

    Reduced form via mtilde_k = m_k - (c/a)*rms_{k-1}:

        mtilde_{k+1} = a*mtilde_k + gamma^2*((1-alpha*beta)/a) * rms_k
        theta_{k+1}  = theta_k - mtilde_{k+1} - (c/a) * rms_k

    The gamma^2 factor in the mtilde increment is what starves the reduced
    form of precision in F32 once the accumulated mtilde dwarfs it.
    """
    _guard_gamma(gamma)
    gamma, alpha, beta = float(gamma), float(config.alpha), float(config.beta)
    sigma, eps = float(config.sigma), float(config.epsilon)
    a = 1.0 - alpha * gamma
    if a == 0.0:
        raise ContractViolation("singular coefficient: alpha * gamma == 1")
    step_index = _begin(state, state.theta, g)
    keep = None if a == 1.0 else a  # 1.0 * m is m: the kernel skips the product

    if state.form == "direct":
        return _blocked_step(state, step_index, _momentum_direct_kernel,
                             (sigma, 1.0 - sigma, eps, keep, gamma * gamma, beta * gamma),
                             ("theta", "m", "v", "g_prev"), g.data)
    return _blocked_step(state, step_index, _momentum_reduced_kernel,
                         (sigma, 1.0 - sigma, eps, keep,
                          gamma * gamma * (1.0 - alpha * beta) / a, gamma * (beta - gamma) / a),
                         ("theta", "m", "v"), g.data)


def _momentum_direct_kernel(ins, outs, scratch, c):
    theta, m, v, g_prev, grad = ins
    theta_new, m_new, v_new, g_prev_new = outs
    prev, curr = scratch
    sigma, fresh, eps, keep, m_prev, m_diff = c
    # prev, the previous scaled gradient, before v and g_prev are overwritten
    _over_rms(g_prev, v, eps, prev, prev)
    _second_moment(sigma, fresh, v, grad, v_new, curr)
    _over_rms(grad, v_new, eps, curr, curr)
    # m_new = keep * m + m_prev * prev + m_diff * (curr - prev)
    np.subtract(curr, prev, curr)
    np.multiply(m_diff, curr, curr)
    np.multiply(m_prev, prev, prev)
    if keep is not None:
        m = np.multiply(keep, m, m_new)
    np.add(m, prev, m_new)
    np.add(m_new, curr, m_new)
    np.subtract(theta, m_new, theta_new)
    g_prev_new[...] = grad


def _momentum_reduced_kernel(ins, outs, scratch, c):
    theta, m, v, grad = ins
    theta_new, m_new, v_new = outs
    r, b = scratch
    sigma, fresh, eps, keep, m_rms, theta_rms = c
    _second_moment(sigma, fresh, v, grad, v_new, r)
    _over_rms(grad, v_new, eps, r, r)
    # m_new = keep * m + m_rms * r; theta_new = theta - m_new - theta_rms * r
    if keep is not None:
        m = np.multiply(keep, m, m_new)
    np.add(m, np.multiply(m_rms, r, b), m_new)
    np.subtract(theta, m_new, theta_new)
    np.subtract(theta_new, np.multiply(theta_rms, r, b), theta_new)


# ---------------------------------------------------------------------------
# DINAdam
# ---------------------------------------------------------------------------


def dinadam_init(theta0: ParamVector, sigma1: float, sigma2: float) -> DinadamState:
    if not (0.0 <= sigma1 <= 1.0 and 0.0 <= sigma2 <= 1.0):
        raise ContractViolation("sigma1 and sigma2 must lie in [0, 1]")
    return DinadamState(theta=theta0, mtilde=ParamVector.zeros_like(theta0),
                        v=ParamVector.zeros_like(theta0), sigma1=sigma1, sigma2=sigma2)


def dinadam_step(
    state: DinadamState,
    g: ParamVector,
    eta: float,
    alpha: float,
    beta: float,
    epsilon: float = 1e-8,
) -> DinadamState:
    """Adam-flavored step of the inertial dynamics.

        v_{k+1}      = sigma2*v_k + (1-sigma2)*g_k^2
        mtilde_{k+1} = sigma1*mtilde_k
                       + (1 - sigma1 + beta*alpha*sigma1 - beta*alpha)*g_k
        theta_{k+1}  = theta_k - eta*(mtilde_{k+1} + alpha*beta*g_k)
                                   / (sqrt(v_{k+1}) + eps)

    The plus sign in the numerator is forced by the change of variable
    ``mtilde = m - alpha*beta*g_prev`` from the direct recursion; the
    direct-form twin below enforces it. At alpha=1, beta=0 this is exactly
    Adam without bias correction.
    """
    _guard_gamma(eta)
    step_index = _begin(state, state.theta, g)
    s1, s2 = float(state.sigma1), float(state.sigma2)
    alpha, beta = float(alpha), float(beta)
    coeffs = (s2, 1.0 - s2, s1, 1.0 - s1 + beta * alpha * s1 - beta * alpha, alpha * beta,
              float(eta), float(epsilon))
    return _blocked_step(state, step_index, _dinadam_kernel, coeffs, ("theta", "mtilde", "v"),
                         g.data)


def _dinadam_kernel(ins, outs, scratch, c):
    theta, mtilde, v, grad = ins
    theta_new, mtilde_new, v_new = outs
    a, b = scratch
    s2, fresh, s1, m_grad, theta_grad, eta, eps = c
    _second_moment(s2, fresh, v, grad, v_new, a)
    # mtilde_new = s1 * mtilde + m_grad * grad
    np.multiply(s1, mtilde, mtilde_new)
    np.add(mtilde_new, np.multiply(m_grad, grad, a), mtilde_new)
    # theta_new = theta - eta * (mtilde_new + theta_grad * grad) / (sqrt(v_new) + eps)
    np.add(mtilde_new, np.multiply(theta_grad, grad, a), a)
    np.multiply(eta, a, a)
    np.subtract(theta, _over_rms(a, v_new, eps, b, a), theta_new)


def dinadam_direct_init(theta0: ParamVector, sigma1: float, sigma2: float) -> DinadamDirectState:
    zeros = ParamVector.zeros_like(theta0)
    return DinadamDirectState(
        theta=theta0, m=zeros, v=zeros, g_prev=zeros, sigma1=sigma1, sigma2=sigma2
    )


def dinadam_direct_step(
    state: DinadamDirectState,
    g: ParamVector,
    eta: float,
    alpha: float,
    beta: float,
    epsilon: float = 1e-8,
) -> DinadamDirectState:
    """Direct momentum recursion used as the change-of-variable oracle:

        m_{k+1} = sigma1*m_k + (1-sigma1)*g_k + beta*alpha*sigma1*(g_k - g_{k-1})
        theta_{k+1} = theta_k - eta * m_{k+1} / (sqrt(v_{k+1}) + eps)
    """
    _guard_gamma(eta)
    step_index = _begin(state, state.theta, g)

    s1, s2, grad = state.sigma1, state.sigma2, g.data
    v_new = s2 * state.v.data + (1.0 - s2) * grad * grad
    m_new = (
        s1 * state.m.data
        + (1.0 - s1) * grad
        + (beta * alpha * s1) * (grad - state.g_prev.data)
    )
    theta_new = state.theta.data - eta * m_new / (np.sqrt(v_new) + epsilon)
    for new in (theta_new, m_new, v_new):
        if np.count_nonzero(np.isfinite(new)) < new.size:
            raise DivergenceError(step_index)
    return replace(state, theta=ParamVector._wrap(theta_new), m=ParamVector._wrap(m_new),
                   v=ParamVector._wrap(v_new), g_prev=g, k=step_index)


# ---------------------------------------------------------------------------
# Reference optimizers
# ---------------------------------------------------------------------------


def reference_init(
    kind: str, theta0: ParamVector, params: Optional[ReferenceParams] = None
) -> ReferenceState:
    """State with exactly the slots the chosen update rule needs."""
    rule = _REFERENCE.get(kind)
    if rule is None:
        raise ContractViolation(f"unknown reference kind {kind!r}")
    # Each slot gets its own zeros, so an owner may make them writable.
    return ReferenceState(kind, theta0, *[ParamVector.zeros_like(theta0) for _ in rule[0]])


def reference_step(
    state: ReferenceState, g: ParamVector, gamma_k: float, params: ReferenceParams
) -> ReferenceState:
    """One standard update of the selected kind.

    Conventions (stated because they differ across the literature):

    * Momentum accumulates ``m <- beta1*m + g`` and steps ``theta -= gamma*m``
      (heavy-ball form); Nesterov steps ``theta -= gamma*(g + beta1*m_new)``
      with the same accumulator.
    * RMSpropMomentum: ``v <- beta2*v + (1-beta2)*g^2``, then
      ``m <- beta1*m + g/(sqrt(v)+eps)``, ``theta -= gamma*m``: Momentum on
      the scaled gradient.
    * Adam/AdamW bias-correct both moments with ``1 - beta^k`` at call k;
      AdamW applies decoupled decay ``theta <- (1 - lambda*gamma)*theta``
      before the update, with the gradient taken at pre-decay theta.
    * NAdam uses the plain Nesterov-Adam rule without momentum scheduling:
      ``step = gamma*(beta1*m_hat + (1-beta1)*g/(1-beta1^k)) / (sqrt(v_hat)+eps)``
      with ``m_hat = m_new/(1 - beta1^(k+1))``.

    Every kind writes an owned state's new slots over the old ones (see
    ``_blocked_step``).
    """
    _guard_gamma(gamma_k)
    step_index = _begin(state, state.theta, g)
    kind = state.kind
    slots, kernel, coefficients = _REFERENCE[kind]
    return _blocked_step(state, step_index, kernel,
                         coefficients(kind, float(gamma_k), params, step_index),
                         ("theta", *slots), g.data)


def _sgd_kernel(ins, outs, scratch, c):
    theta, grad = ins
    # theta_new = theta - gamma * grad
    np.subtract(theta, np.multiply(c[0], grad, scratch[0]), outs[0])


def _sgd_coefficients(kind, gamma, params, k):
    return (gamma,)


def _momentum_kernel(ins, outs, scratch, c):
    theta, m, grad = ins
    theta_new, m_new = outs
    a = scratch[0]
    b1, gamma, look = c
    # m_new = b1 * m + grad
    np.multiply(b1, m, m_new)
    np.add(m_new, grad, m_new)
    # theta_new = theta - gamma * (m_new, or grad + look * m_new for Nesterov)
    if look is None:
        np.multiply(gamma, m_new, a)
    else:
        np.add(grad, np.multiply(look, m_new, a), a)
        np.multiply(gamma, a, a)
    np.subtract(theta, a, theta_new)


def _momentum_coefficients(kind, gamma, params, k):
    b1 = float(params.beta1)
    return b1, gamma, b1 if kind == "Nesterov" else None


def _rmsprop_momentum_kernel(ins, outs, scratch, c):
    """Momentum on RMSprop's scaled gradient, which it keeps in scratch
    row 1; ``_momentum_kernel`` uses only row 0."""
    theta, m, v, grad = ins
    theta_new, m_new, v_new = outs
    rms = scratch[1]
    b2, fresh, eps, momentum = c
    _second_moment(b2, fresh, v, grad, v_new, rms)
    _over_rms(grad, v_new, eps, rms, rms)
    _momentum_kernel((theta, m, rms), (theta_new, m_new), scratch, momentum)


def _rmsprop_momentum_coefficients(kind, gamma, params, k):
    b2 = float(params.beta2)
    return b2, 1.0 - b2, float(params.epsilon), _momentum_coefficients(kind, gamma, params, k)


def _adam_kernel(ins, outs, scratch, c):
    theta, m, v, grad = ins
    theta_new, m_new, v_new = outs
    a, b = scratch
    decay, b1, m_fresh, b2, v_fresh, m_scale, v_scale, eps, gamma = c
    if decay is not None:
        theta = np.multiply(decay, theta, theta_new)
    # m_new = b1 * m + (1 - b1) * grad
    np.multiply(b1, m, m_new)
    np.add(m_new, np.multiply(m_fresh, grad, a), m_new)
    _second_moment(b2, v_fresh, v, grad, v_new, a)
    if m_scale is None:
        m_hat, v_hat = m_new, v_new
    else:
        m_hat = np.divide(m_new, m_scale, a)
        v_hat = np.divide(v_new, v_scale, b)
    # theta_new = theta - gamma * (m_hat / (sqrt(v_hat) + eps))
    _over_rms(m_hat, v_hat, eps, b, a)
    np.multiply(gamma, a, a)
    np.subtract(theta, a, theta_new)


def _adam_coefficients(kind, gamma, params, k):
    """Adam, or AdamW, whose decay (when any) multiplies theta first."""
    lam, b1, b2 = float(params.weight_decay), float(params.beta1), float(params.beta2)
    corrects = params.bias_correction
    return (1.0 - lam * gamma if kind == "AdamW" and lam else None, b1, 1.0 - b1, b2, 1.0 - b2,
            1.0 - b1 ** k if corrects else None, 1.0 - b2 ** k if corrects else None,
            float(params.epsilon), gamma)


def _nadam_kernel(ins, outs, scratch, c):
    theta, m, v, grad = ins
    theta_new, m_new, v_new = outs
    a, b = scratch
    b1, m_fresh, b2, v_fresh, m_scale, g_scale, v_scale, eps, gamma = c
    # m_new = b1 * m + (1 - b1) * grad
    np.multiply(b1, m, m_new)
    np.add(m_new, np.multiply(m_fresh, grad, a), m_new)
    _second_moment(b2, v_fresh, v, grad, v_new, a)
    # a = b1 * (m_new / m_scale) + (1 - b1) * (grad / g_scale)
    np.divide(m_new, m_scale, a)
    np.multiply(b1, a, a)
    np.divide(grad, g_scale, b)
    np.multiply(m_fresh, b, b)
    np.add(a, b, a)
    # theta_new = theta - gamma * (a / (sqrt(v_new / v_scale) + eps))
    _over_rms(a, np.divide(v_new, v_scale, b), eps, b, a)
    np.multiply(gamma, a, a)
    np.subtract(theta, a, theta_new)


def _nadam_coefficients(kind, gamma, params, k):
    b1, b2 = float(params.beta1), float(params.beta2)
    return (b1, 1.0 - b1, b2, 1.0 - b2, 1.0 - b1 ** (k + 1), 1.0 - b1 ** k, 1.0 - b2 ** k,
            float(params.epsilon), gamma)


# The reference kinds, as ``ReferenceState``, ``reference_init`` and
# ``reference_step`` read them: kind -> (its slots after theta, m before v;
# its kernel; its coefficients(kind, gamma, params, k) as Python floats).
# Each kernel evaluates the kind's formula (see ``reference_step``) with the
# same ufuncs, in the same order, as the whole-array expression.
_REFERENCE = {
    "SGD": ((), _sgd_kernel, _sgd_coefficients),
    "Momentum": (("m",), _momentum_kernel, _momentum_coefficients),
    "Nesterov": (("m",), _momentum_kernel, _momentum_coefficients),
    "RMSpropMomentum": (("m", "v"), _rmsprop_momentum_kernel, _rmsprop_momentum_coefficients),
    "Adam": (("m", "v"), _adam_kernel, _adam_coefficients),
    "AdamW": (("m", "v"), _adam_kernel, _adam_coefficients),
    "NAdam": (("m", "v"), _nadam_kernel, _nadam_coefficients),
}
