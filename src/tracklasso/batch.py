"""Dense stacked-trajectory solvers for the regularised x subproblem.

The whole trajectory is treated as one vector of length T * n_x.  The data
terms and the quadratic penalty coupling assemble into a single symmetric
positive definite system that is solved by Cholesky factorisation.  These
solvers scale cubically in T and exist as the reference path; the smoother
module solves the same systems in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .models import (SingularSystemError, TrackingProblem, noise_factors, per_problem,
                     prior_mean_trajectory, x_subproblem_cost)
from .smoothers import LMConfig, damping_inverse, gauss_newton, linearize


@dataclass(eq=False)
class StackedProblem:
    """Dense blocks of the stacked subproblem.

    Residual conventions: dynamics A x - (m + b) with the prior occupying
    the first block row, measurements y - (H x + e), and penalty increments
    Phi x - d with d carrying the prior mean in its first block.
    """

    y: np.ndarray
    e: np.ndarray
    m: np.ndarray
    b: np.ndarray
    d: np.ndarray
    v: np.ndarray
    eta_bar: np.ndarray
    H: np.ndarray
    R: np.ndarray
    A: np.ndarray
    Q: np.ndarray
    Phi: np.ndarray
    T: int
    n_x: int
    n_y: int


def _block_diag(mats: np.ndarray) -> np.ndarray:
    T, p, q = mats.shape
    out = np.zeros((T * p, T * q))
    for t in range(T):
        out[t * p:(t + 1) * p, t * q:(t + 1) * q] = mats[t]
    return out


def _bidiagonal(sub_blocks: np.ndarray, T: int, n: int) -> np.ndarray:
    """Unit block lower bidiagonal matrix with -sub_blocks[t] below the diagonal."""
    out = np.eye(T * n)
    for t in range(1, T):
        out[t * n:(t + 1) * n, (t - 1) * n:t * n] = -sub_blocks[t]
    return out


def stack_problem(problem: TrackingProblem, v: np.ndarray, eta_bar: np.ndarray,
                  gamma: float, nominal: Optional[np.ndarray] = None) -> StackedProblem:
    """Assemble the dense blocks for an affine model.

    The first dynamics block row holds the prior (identity against m1) and
    the first penalty block row fixes u_0 = x_0 - m1, so B_1 and d_1 of the
    penalty targets are never consulted.  P1, Q and R are factored block by
    block before stacking (models.noise_factors), so a bad block is named
    with its step, as on the smoother path.
    """
    model = problem.model
    if not model.is_affine:
        raise ValueError("stack_problem needs an affine model; linearise first")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    noise_factors(model)
    T, n, n_y = model.T, model.n_x, model.n_y

    B, d_steps = problem.penalty_targets(nominal)
    d = np.concatenate([model.m1[None], np.asarray(d_steps[1:])]) if T > 1 else model.m1[None]

    m = np.zeros((T, n))
    m[0] = model.m1
    b = np.asarray(model.b).copy()
    b[0] = 0.0

    Qbar = np.concatenate([model.P1[None], np.asarray(model.Q[1:])]) if T > 1 else model.P1[None]

    return StackedProblem(
        y=np.asarray(problem.y).ravel(),
        e=np.asarray(model.e).ravel(),
        m=m.ravel(),
        b=b.ravel(),
        d=d.ravel(),
        v=np.asarray(v).ravel(),
        eta_bar=np.asarray(eta_bar).ravel(),
        H=_block_diag(np.asarray(model.H)),
        R=_block_diag(np.asarray(model.R)),
        A=_bidiagonal(np.asarray(model.A), T, n),
        Q=_block_diag(Qbar),
        Phi=_bidiagonal(np.asarray(B), T, n),
        T=T, n_x=n, n_y=n_y,
    )


def _dense_factor(M: np.ndarray, what: str):
    """cho_factor of a dense symmetric matrix; one that is not finite or not
    positive definite raises SingularSystemError naming what."""
    try:
        return cho_factor(M, lower=True)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SingularSystemError(f"{what} is not positive definite") from exc


def normal_system(stacked: StackedProblem, gamma: float):
    """Normal matrix and right-hand side (stack_problem has checked every noise block)."""
    Rf = _dense_factor(stacked.R, "R")
    Qf = _dense_factor(stacked.Q, "Q")
    M = stacked.H.T @ cho_solve(Rf, stacked.H) + stacked.A.T @ cho_solve(Qf, stacked.A)
    rhs = (stacked.H.T @ cho_solve(Rf, stacked.y - stacked.e)
           + stacked.A.T @ cho_solve(Qf, stacked.m + stacked.b))
    if gamma > 0:
        M = M + gamma * stacked.Phi.T @ stacked.Phi
        rhs = rhs + gamma * stacked.Phi.T @ (stacked.d + stacked.v - stacked.eta_bar / gamma)
    return M, rhs


def batch_x_affine(stacked: StackedProblem, gamma: float) -> np.ndarray:
    """Exact minimiser of the affine subproblem, reshaped to (T, n_x)."""
    M, rhs = normal_system(stacked, gamma)
    x = cho_solve(_dense_factor(M, "stacked normal matrix"), rhs)
    return x.reshape(stacked.T, stacked.n_x)


def make_affine_x_solver():
    """x-update callable for the ADMM loop, caching the factorised normal matrix.

    The normal matrix depends only on the problem and gamma, so it is
    factorised once per (problem, gamma) (models.per_problem) and only the
    penalty right-hand side is refreshed.
    """
    def build(problem, gamma, V, eta_bar):
        stacked = stack_problem(problem, V, eta_bar, gamma)
        M, rhs_data = normal_system(stacked, 0.0)
        M = M + gamma * stacked.Phi.T @ stacked.Phi
        return stacked, _dense_factor(M, "stacked normal matrix"), rhs_data

    factored = per_problem(build)

    def solver(problem, V, eta_bar, gamma, x_warm):
        stacked, factor, rhs_data = factored(problem, gamma, V, eta_bar)
        rhs = rhs_data + gamma * stacked.Phi.T @ (stacked.d + V.ravel() - eta_bar.ravel() / gamma)
        return cho_solve(factor, rhs).reshape(stacked.T, stacked.n_x)

    return solver


def batch_lm_step(problem: TrackingProblem, x: np.ndarray, v: np.ndarray,
                  eta_bar: np.ndarray, gamma: float, lam: float,
                  s_cov=None) -> np.ndarray:
    """One damped step: Gauss-Newton system plus lam * S^{-1} anchored at x.

    lam = 0 is the plain Gauss-Newton step.  In process_noise mode the
    penalty targets are refreshed at x, so the penalty operator itself is
    part of the linearisation.
    """
    lin = TrackingProblem(linearize(problem.model, x), problem.reg, problem.y)
    stacked = stack_problem(lin, v, eta_bar, gamma)
    M, rhs = normal_system(stacked, gamma)
    name = "normal matrix"
    if lam > 0:
        T, n = stacked.T, stacked.n_x
        D = _block_diag(np.broadcast_to(damping_inverse(s_cov, T, n), (T, n, n)))
        M = M + lam * D
        rhs = rhs + lam * (D @ np.asarray(x, dtype=float).ravel())
        name = "damped normal matrix"
    out = cho_solve(_dense_factor(M, name), rhs)
    return out.reshape(stacked.T, stacked.n_x)


def batch_nonlinear_solve(problem: TrackingProblem, v: np.ndarray, eta_bar: np.ndarray,
                          gamma: float, cfg: Optional[LMConfig] = None,
                          x0: Optional[np.ndarray] = None,
                          trace: Optional[List[np.ndarray]] = None,
                          lambda_trace: Optional[List[float]] = None) -> np.ndarray:
    """Iterate dense Levenberg-Marquardt steps to solve for x.

    Every proposal is batch_lm_step, run under the same damped Gauss-Newton
    loop as the iterated smoothers with cfg (default LMConfig()).  Gauss-
    Newton is cfg with lambda0 = 0: the damping stays 0, each step is the
    undamped normal solve and every step is accepted.  x0 defaults to the
    prior mean trajectory.
    """
    cfg = cfg or LMConfig()
    if x0 is None:
        x0 = prior_mean_trajectory(problem.model)

    def propose(x, targets, lam):
        return batch_lm_step(problem, x, v, eta_bar, gamma, lam, cfg.s_cov)

    def cost(x, targets):
        return x_subproblem_cost(problem, x, v, eta_bar, gamma, targets)

    return gauss_newton(problem, propose, x0, cost, cfg, trace, lambda_trace)
