"""Dense reference solvers for the regularised x subproblem.

The whole trajectory is treated as one vector of length T * n_x.  Its
normal equations are the block-tridiagonal ones of
smoothers.normal_equations, unpacked into one dense symmetric matrix and
solved by a dense Cholesky factorisation.  These solvers scale cubically in
T and exist as the reference path; the smoother module solves the same
systems in linear time.  The x-update engines are the smoother module's
bodies with the dense solve: make_affine_x_solver is smoothers.factor_once
and batch_nonlinear_solve smoothers.lm_x_update.  stack_problem,
normal_system, batch_x_affine and the one damped step batch_lm_step stay
as the dense oracles.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.blas import dtrsv

from .models import SingularSystemError, TrackingProblem, x_subproblem_cost
from .smoothers import (LMConfig, NormalEquations, damping_inverse, factor_once, linearize,
                        lm_x_update, normal_equations)

# Re-exported: LMConfig for callers that import it from here, and
# x_subproblem_cost because bench/tracing.py patches this binding.
__all__ = ["LMConfig", "x_subproblem_cost", "stack_problem", "normal_system", "batch_x_affine",
           "make_affine_x_solver", "batch_lm_step", "batch_nonlinear_solve"]


def stack_problem(problem: TrackingProblem, v: Optional[np.ndarray], eta_bar: Optional[np.ndarray],
                  gamma: float) -> NormalEquations:
    """normal_equations of an affine problem and its penalty targets.

    With v None, h leaves out the coupling's part (smoothers.coupled_rhs
    adds it).  P1, Q and R are factored block by block (the model's
    noise_precisions), so a bad block is named with its step, as on the
    smoother path.
    """
    model = problem.model
    if not model.is_affine:
        raise ValueError("stack_problem needs an affine model; linearise first")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    B, d = problem.penalty_targets()
    return normal_equations(model, problem.y, B, d, v, eta_bar, gamma)


def normal_system(eqs: NormalEquations):
    """Dense (T n_x)^2 normal matrix of eqs and its right-hand side (T n_x,).

    The matrix holds D[t] at block (t, t), -E[t] at block (t + 1, t) and its
    transpose at block (t, t + 1), zeros elsewhere.  It is Fortran-ordered,
    so _dense_factor factors it in place.
    """
    T, n = eqs.h.shape
    M = np.zeros((T, n, T, n))  # transposed below: block (t, s) of M is block (s, t)'
    t = np.arange(T)
    M[t, :, t, :] = np.swapaxes(eqs.D, 1, 2)
    M[t[:-1], :, t[1:], :] = -np.swapaxes(eqs.E, 1, 2)
    M[t[1:], :, t[:-1], :] = -eqs.E
    return M.reshape(T * n, T * n).T, eqs.h.ravel()


def _dense_factor(eqs: NormalEquations, what: str) -> np.ndarray:
    """Lower Cholesky factor of normal_system(eqs)'s matrix, computed in place.

    The factor is that F-ordered (T n_x)^2 array, so the BLAS calls of
    _back_substitute read it without a copy; its upper triangle is stale.
    The matrix holds only D, -E and zeros, so it is finite exactly when D
    and E are: they are checked, O(T n_x^2), instead of the whole matrix.
    A matrix that is not finite or not positive definite raises
    SingularSystemError naming what.
    """
    if not (np.isfinite(eqs.D).all() and np.isfinite(eqs.E).all()):
        raise SingularSystemError(f"{what} is not positive definite")
    M, _ = normal_system(eqs)
    try:
        return cho_factor(M, lower=True, overwrite_a=True, check_finite=False)[0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"{what} is not positive definite") from exc


def _back_substitute(c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Solve L L' x = h for _dense_factor's lower factor c, h (T, n_x).

    Two BLAS-2 triangular solves (dtrsv): L z = h into a new array, so h
    is never written, then L' x = z in place.  A non-finite h raises
    ValueError.
    """
    z = dtrsv(c, np.asarray_chkfinite(h.ravel()), lower=1)
    return dtrsv(c, z, lower=1, trans=1, overwrite_x=1).reshape(h.shape)


def batch_x_affine(eqs: NormalEquations) -> np.ndarray:
    """Exact minimiser of the affine subproblem eqs (stack_problem), (T, n_x)."""
    return _back_substitute(_dense_factor(eqs, "stacked normal matrix"), eqs.h)


def make_affine_x_solver():
    """x-update callable for the ADMM loop, keeping the factorised normal
    matrix in problem.kept's "dense_factor" slot: smoothers.factor_once with
    stack_problem, _dense_factor and _back_substitute."""
    return factor_once("dense_factor",
                       lambda problem, B, gamma: stack_problem(problem, None, None, gamma),
                       lambda eqs: _dense_factor(eqs, "stacked normal matrix"), _back_substitute)


def batch_lm_step(problem: TrackingProblem, x: np.ndarray, v: np.ndarray,
                  eta_bar: np.ndarray, gamma: float, lam: float,
                  s_cov=None) -> np.ndarray:
    """One damped step: Gauss-Newton system plus lam * S^{-1} anchored at x.

    lam = 0 is the plain Gauss-Newton step; lam > 0 adds the damping with
    NormalEquations.damped, as the smoother engine does.  In process_noise
    mode the penalty targets are refreshed at x, so the penalty operator
    itself is part of the linearisation.
    """
    lin = TrackingProblem(linearize(problem.model, x), problem.reg, problem.y)
    eqs = stack_problem(lin, v, eta_bar, gamma)
    if lam > 0:
        eqs = eqs.damped(lam, damping_inverse(s_cov, lin.T, lin.n_x), np.asarray(x, dtype=float))
    return batch_x_affine(eqs)


def batch_nonlinear_solve(problem: TrackingProblem, v: np.ndarray, eta_bar: np.ndarray,
                          gamma: float, cfg: Optional[LMConfig] = None,
                          x0=None, trace: Optional[List[np.ndarray]] = None,
                          lambda_trace: Optional[List[float]] = None):
    """Iterate dense Levenberg-Marquardt steps to solve for x:
    smoothers.lm_x_update with the dense solve batch_x_affine, so the
    proposals are batch_lm_step's; an array or an Iterate x0 gives the same
    kind back.  As with lm_ieks, the static part of the
    equations is kept in problem.kept's "static" slot."""
    return lm_x_update(problem, v, eta_bar, gamma, x0, cfg, trace, lambda_trace, batch_x_affine)
