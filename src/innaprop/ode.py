"""Reference integration of the continuous inertial-Newton dynamics.

The second-order flow is integrated in its first-order (theta, psi) form,
which needs one gradient evaluation per right-hand side and no Hessian:

    dtheta/dt = -(alpha - 1/beta)*theta - psi/beta - beta*grad(theta)
    dpsi/dt   = -(alpha - 1/beta)*theta - psi/beta

Equilibria are exactly the pairs (theta*, (1 - alpha*beta)*theta*) with a
vanishing gradient, matching the discrete fixed points. A classical
fourth-order Runge-Kutta integrator provides the reference trajectory, and
``discretization_gap`` measures how far the constant-step discrete recursion
drifts from the flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DivergenceError, DomainError
from .numerics import ParamVector, RngStream
from .optimizers import _own, inna_init, inna_step
from .problems import Problem


@dataclass(frozen=True)
class DinFlowSpec:
    alpha: float
    beta: float
    problem: Problem
    t_end: float
    dt: float

    def __post_init__(self):
        if not self.alpha >= 0:
            raise ContractViolation("alpha must be >= 0")
        if not self.beta > 0:
            raise ContractViolation("beta must be > 0")
        if not self.t_end > 0:
            raise ContractViolation("t_end must be > 0")
        if not 0 < self.dt <= self.t_end:
            raise ContractViolation("dt must satisfy 0 < dt <= t_end")


@dataclass(frozen=True)
class Trajectory:
    """States sampled at every integrator step."""

    t: np.ndarray  # (N+1,)
    theta: np.ndarray  # (N+1, p)
    psi: np.ndarray  # (N+1, p)

    def losses(self, problem: Problem) -> np.ndarray:
        """The loss at every sample, from one stacked ``problem.loss`` call."""
        return problem.loss(self.theta)


def _flow(spec: DinFlowSpec):
    """The right-hand side of the flow of ``spec`` as a function of ``y``,
    the (2, p) f64 array with theta in row 0 and psi in row 1; one gradient
    call. Its coefficients and the gradient are looked up here, once per
    integration, not once per call."""
    drift_theta, beta, grad = -(spec.alpha - 1.0 / spec.beta), spec.beta, spec.problem.grad

    def rhs(y: np.ndarray) -> np.ndarray:
        # Two indexings; unpacking the array would raise and catch an IndexError.
        th, ps = y[0], y[1]
        dy = np.empty(y.shape)  # f64, as y; empty_like adds a dispatch
        drift = np.subtract(drift_theta * th, ps / beta, dy[1])
        np.subtract(drift, beta * grad(th), dy[0])
        return dy

    return rhs


def din_rhs(theta: ParamVector, psi: ParamVector, spec: DinFlowSpec):
    """Right-hand side of the (theta, psi) flow; one gradient call, no Hessian.

    Raises ``DomainError`` when the gradient, and with it ``dtheta``, is not
    finite.
    """
    dtheta, dpsi = _flow(spec)(np.array((theta.data, psi.data), dtype=np.float64))
    if np.count_nonzero(np.isfinite(dtheta)) < dtheta.size:
        raise DomainError("non-finite gradient in din_rhs")
    return ParamVector(dtheta), ParamVector(dpsi)


def _step_count(total: float, step: float) -> int:
    n = int(round(total / step))
    if n < 1 or abs(n * step - total) > 1e-9 * max(1.0, abs(total)):
        raise ContractViolation(f"step {step} does not divide horizon {total} within rounding")
    return n


def rk4_integrate(spec: DinFlowSpec, theta0: ParamVector, psi0: ParamVector | None = None) -> Trajectory:
    """Classical fourth-order integration from (theta0, psi0).

    ``psi0`` defaults to ``(1 - alpha*beta) * theta0``, the initialization
    under which critical points are equilibria of the flow. (theta, psi)
    advance as the two rows of one (2, p) array, so every stage is one set of
    array operations for both.
    """
    n_steps = _step_count(spec.t_end, spec.dt)
    th = np.asarray(theta0.data, dtype=np.float64)
    y = np.empty((2, th.size))
    y[0] = th
    y[1] = psi0.data if psi0 is not None else (1.0 - spec.alpha * spec.beta) * th
    h = spec.dt
    t = np.linspace(0.0, n_steps * h, n_steps + 1)
    # states[0] holds theta and states[1] psi at every sample.
    states = np.empty((2, n_steps + 1, th.size))
    states[:, 0] = y

    rhs = _flow(spec)
    half, sixth = 0.5 * h, h / 6.0  # 0.5 * h * k1 is (0.5 * h) * k1
    for k in range(1, n_steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + half * k1)
        k3 = rhs(y + half * k2)
        k4 = rhs(y + h * k3)
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.count_nonzero(np.isfinite(y)) < y.size:
            raise DivergenceError(k)
        states[:, k] = y

    return Trajectory(t=t, theta=states[0], psi=states[1])


def richardson_ratio(spec: DinFlowSpec, theta0: ParamVector) -> float:
    """Self-convergence ratio ||x_dt - x_dt/2|| / ||x_dt/2 - x_dt/4||.

    Approaches 2^4 = 16 for a fourth-order scheme on smooth problems.
    """
    end_states = []
    for divisor in (1, 2, 4):
        fine = DinFlowSpec(spec.alpha, spec.beta, spec.problem, spec.t_end, spec.dt / divisor)
        traj = rk4_integrate(fine, theta0)
        end_states.append(np.concatenate([traj.theta[-1], traj.psi[-1]]))
    coarse = float(np.linalg.norm(end_states[0] - end_states[1]))
    fine = float(np.linalg.norm(end_states[1] - end_states[2]))
    if fine == 0.0:
        raise ContractViolation("refinement differences vanished; horizon too easy")
    return coarse / fine


def discretization_gap(spec: DinFlowSpec, gamma: float, theta0: ParamVector | None = None) -> float:
    """Max deviation between the constant-step discrete recursion and the flow.

    The discrete trajectory is the plain (unscaled) inertial-Newton step with
    constant gamma from the same (theta0, psi0); the flow is sampled at the
    times k*gamma on an RK4 grid at least as fine as ``spec.dt``.
    """
    if not 0 < gamma < spec.beta:
        raise ContractViolation("gamma must satisfy 0 < gamma < beta")
    if theta0 is None:
        theta0 = ParamVector(spec.problem.init_theta(RngStream(0, 0).generator()))
    n_steps = _step_count(spec.t_end, gamma)

    refine = max(1, int(np.ceil(gamma / spec.dt)))
    fine = DinFlowSpec(spec.alpha, spec.beta, spec.problem, spec.t_end, gamma / refine)
    flow = rk4_integrate(fine, theta0)
    flow_theta = flow.theta[::refine]

    # The loop owns its state (``_own``), built from its own copy of theta0,
    # so each step writes it in place.
    alpha, beta, grad = spec.alpha, spec.beta, spec.problem.grad
    state = _own(inna_init(alpha, beta, ParamVector._wrap(theta0.data.copy())))
    gap = 0.0
    for k in range(1, n_steps + 1):
        g = ParamVector._wrap(grad(state.theta.data).astype(np.float64, copy=False))
        state = inna_step(state, g, gamma, alpha, beta)
        d = state.theta.data - flow_theta[k]
        # The Euclidean norm as np.linalg.norm computes it for a real vector;
        # math.sqrt rounds correctly, as np.sqrt does in f64.
        gap = max(gap, math.sqrt(d.dot(d)))
    return gap
