"""Update rules for the inertial-Newton optimizer family and the usual
reference methods, written as pure step functions over explicit state.

Every optimizer here is a function ``(state, gradient, step size, params) ->
new state``; states are plain immutable values, so runs can be replayed,
forked, or executed concurrently. A public step checks its own scalar
arguments, then calls ``_begin``, states its update over raw arrays and
ends in ``_advance``; these private helpers do the bookkeeping for every
step. ``_begin`` rejects a gradient whose dimension or precision differs from
the state's with ``ContractViolation``. ``_advance`` aborts a non-finite
result with ``DivergenceError`` carrying the offending step index instead of
silently propagating NaNs, and wraps the new arrays into a state of the
input's class with ``k + 1``. Every rule reads the gradient into a new slot,
and ``0*inf`` and ``x*nan`` are NaN, so a non-finite gradient is rejected too.

The blocked steps (``innaprop_step`` and the Adam/AdamW kinds of
``reference_step``) end in ``_blocked_step`` instead, which runs the update
block by block and builds the new state itself. When every slot of the given
state is writable, as in the states the run loop owns (``_own``), it writes
the new slots over the old ones, so a step holds one state, not two. A
public state's slots are read-only, and it gets fresh slots.

Naming used throughout:

* ``theta``   parameter vector
* ``psi``     auxiliary variable of the inertial-Newton recursion,
              initialized to ``(1 - alpha*beta) * theta0`` so critical points
              are fixed points
* ``v``       exponential moving average of squared gradients (rate sigma)
* ``rms``     the scaled direction ``g / (sqrt(v) + eps)``
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .errors import ContractViolation, DivergenceError, WellPosednessError
from .numerics import ParamVector

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
    form: str  # "direct" | "reduced"
    g_prev: Optional[ParamVector] = None  # direct form only
    k: int = 0


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


_SLOTS_BY_KIND = {
    "SGD": (),
    "Momentum": ("m",),
    "Nesterov": ("m",),
    "RMSpropMomentum": ("m", "v"),
    "Adam": ("m", "v"),
    "AdamW": ("m", "v"),
    "NAdam": ("m", "v"),
}


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
        if self.kind not in _SLOTS_BY_KIND:
            raise ContractViolation(f"unknown reference kind {self.kind!r}")
        slots = _SLOTS_BY_KIND[self.kind]
        for name in ("m", "v"):
            have = getattr(self, name) is not None
            if have != (name in slots):
                raise ContractViolation(
                    f"{self.kind} state must carry exactly the slots {slots}"
                )


# ---------------------------------------------------------------------------
# Step bookkeeping and shared helpers
# ---------------------------------------------------------------------------


def _begin(state, theta: ParamVector, g: ParamVector) -> int:
    """Check ``g`` against ``theta``, the state's parameter slot, in
    dimension and precision; returns the new state's step index ``k + 1``.
    Every public step calls it after its scalar guards, before any arithmetic.
    """
    if g.dim != theta.dim:
        raise ContractViolation(
            f"gradient dimension {g.dim} does not match state dimension {theta.dim}"
        )
    if g.data.dtype != theta.data.dtype:
        raise ContractViolation("gradient precision must match the state precision")
    return state.k + 1


def _advance(state, step_index: int, *fields):
    """The state after ``state``, of its class, at ``step_index``; every
    public step but the blocked ones ends here.

    ``fields`` are the new state's fields in the order its class declares
    them, all but the last, ``k``. Each raw ndarray among them is checked
    for finiteness, raising ``DivergenceError(step_index)``, and wrapped.
    Any other field passes through as it is: a ``ParamVector`` (a slot
    carried over), ``None``, a kind or form tag, a rate.
    """
    for value in fields:
        # count_nonzero costs about half of .all() on small arrays.
        if type(value) is np.ndarray and np.count_nonzero(np.isfinite(value)) < value.size:
            raise DivergenceError(step_index)
    # Positional, the cheapest construction; state objects are made every step.
    return type(state)(*[ParamVector._wrap(value) if type(value) is np.ndarray else value
                         for value in fields], step_index)


# Elements per block of ``_blocked_step``. At f64 one block of each of the
# kernels' four inputs, three outputs and two scratch buffers is 1.1 MB, so a
# block's working set stays in a 2 MB L2 cache while its ufuncs pass over it.
_BLOCK = 16 * 1024


def _own(state):
    """``state`` with every slot writable, as a run loop owns it, so that
    blocked steps write it in place; made once at setup, never per step.

    A state of at most ``_BLOCK`` elements gets copies of its slots as the
    rows of one writable ``(slots, dim)`` array, which ``_blocked_step``
    checks with one scan. A larger state keeps its own slots, made writable:
    a copy would double its memory. No slot may share memory with another
    slot or another state.
    """
    names = [f.name for f in fields(state) if isinstance(getattr(state, f.name), ParamVector)]
    if state.theta.dim > _BLOCK:
        for name in names:
            getattr(state, name).data.flags.writeable = True
        return state
    rows = {}
    for name, row in zip(names, np.array([getattr(state, name).data for name in names])):
        rows[name] = ParamVector._wrap(row)
        row.flags.writeable = True
    return replace(state, **rows)


def _blocked_step(state, step_index: int, kernel, slots, grad: np.ndarray, *tags):
    """The state after ``state`` from the update ``kernel`` over its three
    ``slots`` and the raw gradient, all of one length and precision; ``tags``
    are the state's fields before its slots, such as a ``ReferenceState``'s
    kind. Every blocked step ends here.

    When every slot is writable, as in a state from ``_own``, the new slots
    are the old ones, written in place: every kernel is elementwise and
    reads an input block before it writes the output block over it.
    Otherwise the new slots are the rows of one fresh ``(3, dim)`` array.

    ``kernel(ins, outs, scratch)`` gets the arrays themselves when they have
    at most ``_BLOCK`` elements, else aligned column blocks, and the two rows
    of one scratch array; it writes through ``out=``. Each output block is
    checked while in cache, by one scan when the new slots are the rows of
    one array and one per slot otherwise: a non-finite element raises
    ``DivergenceError(step_index)``, the verdict of a whole-array check, and
    leaves a state written in place partly written.
    """
    first, second, third = slots
    x, y, z = first.data, second.data, third.data
    dim = x.size
    in_place = x.flags.writeable and y.flags.writeable and z.flags.writeable
    if in_place:
        outs = x, y, z
        rows = x.base  # one array when the slots are its rows, as ``_own`` lays them out
        if rows is None or y.base is not rows or z.base is not rows or rows.shape != (3, dim):
            rows = None
    else:
        rows = np.empty((3, dim), x.dtype)
        outs = rows[0], rows[1], rows[2]
    checked = outs if rows is None else (rows,)
    if dim <= _BLOCK:  # one block: no views, no check buffer
        scratch = np.empty((2, dim), x.dtype)
        # Two indexings; unpacking the array would raise and catch an IndexError.
        kernel((x, y, z, grad), outs, (scratch[0], scratch[1]))
        for out in checked:
            # count_nonzero costs about half of .all() on small arrays.
            if np.count_nonzero(np.isfinite(out)) < out.size:
                raise DivergenceError(step_index)
    else:
        scratch = np.empty((2, _BLOCK), x.dtype)
        finite = np.empty((*checked[0].shape[:-1], _BLOCK), dtype=bool)
        for lo in range(0, dim, _BLOCK):
            hi = min(lo + _BLOCK, dim)
            if hi - lo < _BLOCK:  # last, partial block
                scratch, finite = scratch[:, : hi - lo], finite[..., : hi - lo]
            kernel((x[lo:hi], y[lo:hi], z[lo:hi], grad[lo:hi]),
                   (outs[0][lo:hi], outs[1][lo:hi], outs[2][lo:hi]), (scratch[0], scratch[1]))
            for out in checked:
                if np.count_nonzero(np.isfinite(out[..., lo:hi], out=finite)) < finite.size:
                    raise DivergenceError(step_index)
    if not in_place:
        first, second, third = (ParamVector._wrap(outs[0]), ParamVector._wrap(outs[1]),
                                ParamVector._wrap(outs[2]))
    return type(state)(*tags, first, second, third, step_index)


def _rms(g: np.ndarray, v: np.ndarray, eps: float) -> np.ndarray:
    return g / (np.sqrt(v) + eps)


def _guard_gamma(gamma: float, beta: float):
    if gamma < 0:
        raise ContractViolation("step size gamma must be >= 0")
    if gamma >= beta:
        raise WellPosednessError(
            f"step size gamma={gamma} must stay below beta={beta}"
        )


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
    at the pre-decay ``theta``. A state whose slots are all writable is
    written in place.

    The update runs through ``_blocked_step``: it evaluates the formulas
    above block by block, with the same ufuncs in the same order and the
    same Python-float coefficients as the whole-array expressions, so its
    results match them bit for bit in F32 and F64.
    """
    _guard_gamma(gamma_k, config.beta)
    step_index = _begin(state, state.theta, g)
    bias_correction = config.bias_correction

    # Python floats take the state's precision in every ufunc below.
    gamma, weight_decay = float(gamma_k), float(config.weight_decay)
    alpha, beta, sigma, eps = (float(config.alpha), float(config.beta),
                               float(config.sigma), float(config.epsilon))
    decay = 1.0 - weight_decay * gamma
    v_scale = 1.0 - sigma ** step_index
    psi_keep, psi_theta = 1.0 - gamma / beta, gamma * (1.0 / beta - alpha)
    theta_keep = 1.0 + gamma * (1.0 - alpha * beta) / (beta - gamma)
    theta_psi, theta_rms = gamma / (beta - gamma), gamma * beta

    def kernel(ins, outs, scratch):
        theta, psi, v, grad = ins
        theta_new, psi_new, v_new = outs
        a, b = scratch
        if weight_decay:
            theta = np.multiply(decay, theta, out=theta_new)
        # v_new = sigma * v + (1 - sigma) * grad * grad
        np.multiply(sigma, v, out=v_new)
        np.multiply(1.0 - sigma, grad, out=a)
        np.multiply(a, grad, out=a)
        np.add(v_new, a, out=v_new)
        v_hat = np.divide(v_new, v_scale, out=b) if bias_correction else v_new
        # psi_new = psi_keep * psi + psi_theta * theta
        np.multiply(psi_keep, psi, out=psi_new)
        np.add(psi_new, np.multiply(psi_theta, theta, out=a), out=psi_new)
        # theta_new = theta_keep * theta - theta_psi * psi_new
        #             - theta_rms * (grad / (sqrt(v_hat) + eps))
        np.multiply(theta_keep, theta, out=theta_new)
        np.subtract(theta_new, np.multiply(theta_psi, psi_new, out=a), out=theta_new)
        np.sqrt(v_hat, out=a)
        np.add(a, eps, out=a)
        np.divide(grad, a, out=a)
        np.multiply(theta_rms, a, out=a)
        np.subtract(theta_new, a, out=theta_new)

    return _blocked_step(state, step_index, kernel, (state.theta, state.psi, state.v), g.data)


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
    return _advance(state, step_index, state.theta_curr, theta_next, g_curr, state.v_curr, v_next)


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
    if form == "compact":
        _guard_gamma(gamma, beta)
    elif form != "classic":
        raise ContractViolation(f"unknown INNA form {form!r}")
    step_index = _begin(state, state.theta, g)

    theta, psi, grad = state.theta.data, state.psi.data, g.data
    if form == "classic":
        drift = (1.0 / beta - alpha) * theta - psi / beta
        psi_new = psi + gamma * drift
        theta_new = theta + gamma * (drift - beta * grad)
    else:
        psi_new = (1.0 - gamma / beta) * psi + (gamma * (1.0 / beta - alpha)) * theta
        theta_new = (
            (1.0 + gamma * (1.0 - beta * alpha) / (beta - gamma)) * theta
            - (gamma / (beta - gamma)) * psi_new
            - (gamma * beta) * grad
        )
    return _advance(state, step_index, theta_new, psi_new)


# ---------------------------------------------------------------------------
# Momentum-style variant (direct m and reduced m-tilde forms)
# ---------------------------------------------------------------------------


def innaprop_momentum_init(
    config: InnapropConfig, theta0: ParamVector, form: str = "reduced"
) -> MomentumVariantState:
    if form not in ("direct", "reduced"):
        raise ContractViolation(f"unknown momentum form {form!r}")
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
    alpha, beta, sigma, eps = config.alpha, config.beta, config.sigma, config.epsilon
    a = 1.0 - alpha * gamma
    if a == 0.0:
        raise ContractViolation("singular coefficient: alpha * gamma == 1")
    step_index = _begin(state, state.theta, g)

    grad = g.data
    v_new = sigma * state.v.data + (1.0 - sigma) * grad * grad
    rms_curr = _rms(grad, v_new, eps)

    if state.form == "direct":
        rms_prev = _rms(state.g_prev.data, state.v.data, eps)
        m_new = (
            a * state.m.data
            + (gamma * gamma) * rms_prev
            + (beta * gamma) * (rms_curr - rms_prev)
        )
        theta_new = state.theta.data - m_new
        g_prev = g
    else:
        m_new = a * state.m.data + (gamma * gamma * (1.0 - alpha * beta) / a) * rms_curr
        theta_new = state.theta.data - m_new - (gamma * (beta - gamma) / a) * rms_curr
        g_prev = None
    return _advance(state, step_index, theta_new, m_new, v_new, state.form, g_prev)


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
    if not eta >= 0:
        raise ContractViolation("eta must be >= 0")
    step_index = _begin(state, state.theta, g)

    s1, s2, grad = state.sigma1, state.sigma2, g.data
    v_new = s2 * state.v.data + (1.0 - s2) * grad * grad
    mtilde_new = s1 * state.mtilde.data + (1.0 - s1 + beta * alpha * s1 - beta * alpha) * grad
    theta_new = state.theta.data - eta * (mtilde_new + (alpha * beta) * grad) / (
        np.sqrt(v_new) + epsilon
    )
    return _advance(state, step_index, theta_new, mtilde_new, v_new, s1, s2)


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
    step_index = _begin(state, state.theta, g)

    s1, s2, grad = state.sigma1, state.sigma2, g.data
    v_new = s2 * state.v.data + (1.0 - s2) * grad * grad
    m_new = (
        s1 * state.m.data
        + (1.0 - s1) * grad
        + (beta * alpha * s1) * (grad - state.g_prev.data)
    )
    theta_new = state.theta.data - eta * m_new / (np.sqrt(v_new) + epsilon)
    return _advance(state, step_index, theta_new, m_new, v_new, g, s1, s2)


# ---------------------------------------------------------------------------
# Reference optimizers
# ---------------------------------------------------------------------------


def reference_init(
    kind: str, theta0: ParamVector, params: Optional[ReferenceParams] = None
) -> ReferenceState:
    """State with exactly the slots the chosen update rule needs."""
    slots = _SLOTS_BY_KIND.get(kind)
    if slots is None:
        raise ContractViolation(f"unknown reference kind {kind!r}")
    # Each slot gets its own zeros, so an owner may make them writable.
    return ReferenceState(
        kind=kind,
        theta=theta0,
        m=ParamVector.zeros_like(theta0) if "m" in slots else None,
        v=ParamVector.zeros_like(theta0) if "v" in slots else None,
    )


def _adam_family(state, grad, gamma, params, step_index, *, decoupled_decay):
    """The Adam/AdamW state after ``state``; decay (when any) multiplies
    theta first.

    Blocked like ``innaprop_step``, so it is bit-identical to the
    whole-array formulas, checks the new slots' finiteness itself and writes
    them over a state's writable ones.
    """
    gamma, lam = float(gamma), float(params.weight_decay)
    b1, b2, eps = float(params.beta1), float(params.beta2), float(params.epsilon)
    decays, decay = decoupled_decay and lam, 1.0 - lam * gamma
    m_scale, v_scale = 1.0 - b1 ** step_index, 1.0 - b2 ** step_index

    def kernel(ins, outs, scratch):
        theta, m, v, grad = ins
        theta_new, m_new, v_new = outs
        a, b = scratch
        if decays:
            theta = np.multiply(decay, theta, out=theta_new)
        # m_new = b1 * m + (1 - b1) * grad; v_new = b2 * v + (1 - b2) * grad * grad
        np.multiply(b1, m, out=m_new)
        np.add(m_new, np.multiply(1.0 - b1, grad, out=a), out=m_new)
        np.multiply(b2, v, out=v_new)
        np.multiply(1.0 - b2, grad, out=a)
        np.multiply(a, grad, out=a)
        np.add(v_new, a, out=v_new)
        if params.bias_correction:
            m_hat = np.divide(m_new, m_scale, out=a)
            v_hat = np.divide(v_new, v_scale, out=b)
        else:
            m_hat, v_hat = m_new, v_new
        # theta_new = theta - gamma * (m_hat / (sqrt(v_hat) + eps))
        np.sqrt(v_hat, out=b)
        np.add(b, eps, out=b)
        np.divide(m_hat, b, out=a)
        np.multiply(gamma, a, out=a)
        np.subtract(theta, a, out=theta_new)

    return _blocked_step(state, step_index, kernel, (state.theta, state.m, state.v), grad,
                         state.kind)


def reference_step(
    state: ReferenceState, g: ParamVector, gamma_k: float, params: ReferenceParams
) -> ReferenceState:
    """One standard update of the selected kind.

    Conventions (stated because they differ across the literature):

    * Momentum accumulates ``m <- beta1*m + g`` and steps ``theta -= gamma*m``
      (heavy-ball form); Nesterov steps ``theta -= gamma*(g + beta1*m_new)``
      with the same accumulator.
    * RMSpropMomentum: ``v <- beta2*v + (1-beta2)*g^2``, then
      ``m <- beta1*m + g/(sqrt(v)+eps)``, ``theta -= gamma*m``.
    * Adam/AdamW bias-correct both moments with ``1 - beta^k`` at call k;
      AdamW applies decoupled decay ``theta <- (1 - lambda*gamma)*theta``
      before the update, with the gradient taken at pre-decay theta.
    * NAdam uses the plain Nesterov-Adam rule without momentum scheduling:
      ``step = gamma*(beta1*m_hat + (1-beta1)*g/(1-beta1^k)) / (sqrt(v_hat)+eps)``
      with ``m_hat = m_new/(1 - beta1^(k+1))``.

    The Adam/AdamW kinds write the new slots over the old ones when all of
    the state's slots are writable (see ``_blocked_step``); the other kinds
    always build fresh slots.
    """
    step_index = _begin(state, state.theta, g)
    kind, grad = state.kind, g.data
    b1, b2, eps = params.beta1, params.beta2, params.epsilon
    m_new = v_new = None
    if kind == "SGD":
        theta_new = state.theta.data - gamma_k * grad
    elif kind in ("Momentum", "Nesterov"):
        m_new = b1 * state.m.data + grad
        step = m_new if kind == "Momentum" else grad + b1 * m_new
        theta_new = state.theta.data - gamma_k * step
    elif kind == "RMSpropMomentum":
        v_new = b2 * state.v.data + (1.0 - b2) * grad * grad
        m_new = b1 * state.m.data + _rms(grad, v_new, eps)
        theta_new = state.theta.data - gamma_k * m_new
    elif kind in ("Adam", "AdamW"):
        return _adam_family(state, grad, gamma_k, params, step_index,
                            decoupled_decay=(kind == "AdamW"))
    else:  # NAdam; ReferenceState admits no other kind
        m_new = b1 * state.m.data + (1.0 - b1) * grad
        v_new = b2 * state.v.data + (1.0 - b2) * grad * grad
        m_hat = m_new / (1.0 - b1 ** (step_index + 1))
        g_hat = grad / (1.0 - b1 ** step_index)
        v_hat = v_new / (1.0 - b2 ** step_index)
        theta_new = state.theta.data - gamma_k * (
            (b1 * m_hat + (1.0 - b1) * g_hat) / (np.sqrt(v_hat) + eps)
        )
    return _advance(state, step_index, kind, theta_new, m_new, v_new)
