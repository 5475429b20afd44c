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


def _flow(spec: DinFlowSpec, p: int):
    """The right-hand side of the flow of ``spec`` for p-length iterates:
    ``rhs(th, ps, dth, dps)`` writes dtheta into ``dth`` and dpsi into ``dps``
    with one gradient call. The coefficients, cast to 0-d f64 arrays, the
    gradient function and one p-length scratch are made here, once per
    integration, not once per call. A 0-d f64 array gives the same bits as
    the Python float against f64 operands, without converting it per call."""
    drift_theta = np.array(-(spec.alpha - 1.0 / spec.beta), dtype=np.float64)
    beta = np.array(spec.beta, dtype=np.float64)
    grad, tmp = spec.problem.grad, np.empty(p)
    multiply, divide, subtract = np.multiply, np.divide, np.subtract

    def rhs(th, ps, dth, dps):
        # drift_theta*th - ps/beta, then that minus beta*grad(th).
        multiply(drift_theta, th, dps)
        subtract(dps, divide(ps, beta, tmp), dps)
        subtract(dps, multiply(beta, grad(th), tmp), dth)

    return rhs


def din_rhs(theta: ParamVector, psi: ParamVector, spec: DinFlowSpec):
    """Right-hand side of the (theta, psi) flow; one gradient call, no Hessian.

    Raises ``DomainError`` when the gradient, and with it ``dtheta``, is not
    finite.
    """
    y = np.array((theta.data, psi.data), dtype=np.float64)
    dtheta, dpsi = np.empty(y.shape)
    _flow(spec, y.shape[1])(y[0], y[1], dtheta, dpsi)
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
    array operations for both. Overflow on a diverging flow is reported as
    ``DivergenceError`` at the first non-finite step, not as a warning.
    """
    n_steps = _step_count(spec.t_end, spec.dt)
    th = np.asarray(theta0.data, dtype=np.float64)
    p = th.size
    # Sample k is the contiguous (2, p) array samples[k], theta in row 0 and
    # psi in row 1, which step k writes once; contiguous operands keep every
    # ufunc on numpy's fast path. One copy at the end gives theta and psi
    # their (N+1, p) C-contiguous layout; during that copy the trajectory is
    # held twice.
    samples = np.empty((n_steps + 1, 2, p))
    samples[0, 0] = th
    samples[0, 1] = psi0.data if psi0 is not None else (1.0 - spec.alpha * spec.beta) * th
    t = np.linspace(0.0, n_steps * spec.dt, n_steps + 1)

    # Made once per integration: the coefficients as 0-d f64 arrays, the
    # (4, 2, p) stages K, the stage input Y, the stage sum and the row views
    # of each. 0.5 * h * k1 is (0.5 * h) * k1.
    h, half, sixth, two = (np.array(c, dtype=np.float64)
                           for c in (spec.dt, 0.5 * spec.dt, spec.dt / 6.0, 2.0))
    K, Y, total = np.empty((4, 2, p)), np.empty((2, p)), np.empty((2, p))
    k1, k2, k3, _ = K
    (k1t, k1p), (k2t, k2p), (k3t, k3p), (k4t, k4p) = K
    middle, (y_th, y_ps) = K[1:3], Y
    rhs, multiply, add, add_reduce = _flow(spec, p), np.multiply, np.add, np.add.reduce
    isfinite, count_nonzero, size = np.isfinite, np.count_nonzero, 2 * p

    rows = zip(samples, samples[:, 0], samples[:, 1])
    y, y0, y1 = next(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (nxt, nxt0, nxt1) in enumerate(rows, 1):
            rhs(y0, y1, k1t, k1p)
            add(y, multiply(half, k1, Y), Y)
            rhs(y_th, y_ps, k2t, k2p)
            add(y, multiply(half, k2, Y), Y)
            rhs(y_th, y_ps, k3t, k3p)
            add(y, multiply(h, k3, Y), Y)
            rhs(y_th, y_ps, k4t, k4p)
            # k1 + 2*k2 + 2*k3 + k4: one product for both middle stages, then
            # one reduction over the stage axis. That is K's outer axis, so
            # numpy adds the four rows left to right, as the expression does;
            # it sums pairwise only along an inner loop of 8 or more elements.
            multiply(two, middle, middle)
            add(y, multiply(sixth, add_reduce(K, 0, out=total), total), nxt)
            if count_nonzero(isfinite(nxt)) < size:
                raise DivergenceError(k)
            y, y0, y1 = nxt, nxt0, nxt1

    theta, psi = np.ascontiguousarray(samples.transpose(1, 0, 2))
    return Trajectory(t=t, theta=theta, psi=psi)


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
    # A diverging recursion is reported by the step's DivergenceError, not
    # by overflow warnings first.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            g = ParamVector._wrap(grad(state.theta.data).astype(np.float64, copy=False))
            state = inna_step(state, g, gamma, alpha, beta)
            d = state.theta.data - flow_theta[k]
            # The Euclidean norm as np.linalg.norm computes it for a real
            # vector; math.sqrt rounds correctly, as np.sqrt does in f64.
            gap = max(gap, math.sqrt(d.dot(d)))
    return gap
