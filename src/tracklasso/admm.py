"""Multi-block ADMM for the group-penalised estimation problem.

One iteration updates the blocks in the fixed order x, w, v, eta:

    x   <- argmin data terms + gamma/2 sum_t ||u_t(x) - v_t + eta_bar_t/gamma||^2
    w   <- per-group soft threshold of G v - eta_under/gamma
    v   <- (I + G'G)^{-1} ((gamma u + eta_bar) + G'(gamma w + eta_under)) / gamma
    eta <- eta + gamma ([u; w] - [I; G] v)

The x update is delegated to a caller-supplied solver so the same loop
drives dense stacked solvers and Kalman-smoother solvers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs

from .models import (GroupRegularizer, Iterate, SingularSystemError, SplitState,
                     TrackingProblem, augmented_lagrangian, constraint_gaps, objective)

XSolver = Callable[[TrackingProblem, np.ndarray, np.ndarray, float, Iterate], Iterate]


@dataclass(frozen=True)
class MadmmOptions:
    """Loop controls: penalty weight gamma, iteration cap, stopping tolerances."""

    gamma: float = 1.0
    k_max: int = 50
    eps_primal: float = 1e-6
    eps_dual: float = 1e-6
    zero_tol: float = 1e-6

    def __post_init__(self):  # each check is written so that nan fails it
        if not 0 < self.gamma < np.inf:
            raise ValueError("gamma must be finite and positive")
        if not (isinstance(self.k_max, (int, np.integer)) and self.k_max >= 0):
            raise ValueError("k_max must be a nonnegative integer")
        for name in ("eps_primal", "eps_dual", "zero_tol"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative")


@dataclass(eq=False)
class SolveReport:
    """Outcome of a solve: final iterate, per-iteration diagnostics, sparsity."""

    x: np.ndarray
    state: SplitState
    objective: np.ndarray
    lagrangian: np.ndarray
    r_primal: np.ndarray
    r_dual: np.ndarray
    seconds: np.ndarray  # each iteration's wall time, its diagnostics included
    iterations: int
    converged: bool
    zero_groups: np.ndarray
    states: Optional[List[SplitState]] = None
    initial_passes: Optional[int] = None  # solve_problem's initialiser; None for a given x0
    initial_converged: Optional[bool] = None  # it stopped before its pass cap

    @property
    def stop_reason(self) -> str:
        """"tolerance" when both residuals met their tolerances, else "k_max"."""
        return "tolerance" if self.converged else "k_max"


def block_shrink(Z: np.ndarray, kappa: float) -> np.ndarray:
    """Row-wise Euclidean soft threshold max(0, 1 - kappa/||z||) z over the
    last axis of Z; rows with ||z|| <= kappa (z = 0 included) map to 0."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    Z = np.asarray(Z, dtype=float)
    norms = np.linalg.norm(Z, axis=-1, keepdims=True)
    scale = np.zeros_like(norms)
    active = norms > kappa
    scale[active] = 1.0 - kappa / norms[active]
    return Z * scale


def update_w_all(V: np.ndarray, eta_under: np.ndarray, reg: GroupRegularizer,
                 gamma: float) -> np.ndarray:
    """Vectorised w update across all time steps: block_shrink per group."""
    Z = reg.penalty_rows(V) - eta_under / gamma
    W = np.empty_like(Z)
    for g, sl in enumerate(reg.slices):
        W[:, sl] = block_shrink(Z[:, sl], reg.weights[g] / gamma)
    return W


def v_update_factor(reg: GroupRegularizer):
    """Cholesky factor of (I + G'G), reused across iterations and steps."""
    n = reg.n_x
    M = np.eye(n) + reg.G_stack.T @ reg.G_stack
    return cho_factor(M, lower=True)


def update_v_all(U: np.ndarray, W: np.ndarray, eta: np.ndarray,
                 reg: GroupRegularizer, gamma: float, factor=None) -> np.ndarray:
    """Vectorised v update across all time steps (one dpotrs, unwrapped)."""
    n = U.shape[1]
    eta_bar, eta_under = eta[:, :n], eta[:, n:]
    if reg.total_rows == 0:
        return U + eta_bar / gamma
    if factor is None:
        factor = v_update_factor(reg)
    rhs = (gamma * U + eta_bar) + (gamma * W + eta_under) @ reg.G_stack
    c, lower = factor
    v, info = dpotrs(c, rhs.T, lower=lower)
    if info:
        raise SingularSystemError(f"v update: dpotrs returned info {info}")
    return v.T / gamma


def update_dual_all(U: np.ndarray, W: np.ndarray, V: np.ndarray, eta: np.ndarray,
                    reg: GroupRegularizer, gamma: float) -> np.ndarray:
    n = U.shape[1]
    out = np.empty_like(eta)
    out[:, :n] = eta[:, :n] + gamma * (U - V)
    out[:, n:] = eta[:, n:] + gamma * (W - reg.penalty_rows(V))
    return out


def residuals(U: np.ndarray, W: np.ndarray, V: np.ndarray, V_prev: np.ndarray,
              reg: GroupRegularizer, gamma: float, gaps=None):
    """Primal and dual residual norms over the whole trajectory.

    r_primal = || [u; w] - [I; G] v ||_2
    r_dual   = gamma || [I; G]'[I; G] (v - v_prev) ||_2

    gaps is constraint_gaps(U, W, V, reg) when the caller already holds it.
    """
    ru, rw = gaps if gaps is not None else constraint_gaps(U, W, V, reg)
    r_pri = np.sqrt(np.sum(ru ** 2) + np.sum(rw ** 2))
    dv = V - V_prev
    Mdv = dv + (dv @ reg.G_stack.T) @ reg.G_stack if reg.total_rows else dv
    r_dual = gamma * float(np.linalg.norm(Mdv))
    return float(r_pri), r_dual


def run_madmm(problem: TrackingProblem, x_solver: XSolver, opts: MadmmOptions,
              x0: Optional[np.ndarray] = None, record_states: bool = False) -> SolveReport:
    """Run the multi-block ADMM loop with a delegated x update.

    The split is initialised feasibly from x0 (v = u(x0), w = G v, eta = 0);
    x0 defaults to zeros, but callers normally pass an unregularised smoother
    trajectory; one that is not (T, n_x) raises ValueError naming x0.
    x_solver(problem, v, eta_bar, gamma, x_warm) maps the models.Iterate of
    the last x (first, of a copy of x0) to the next, whose model values
    serve the targets, the data cost and the next x update.
    Iterations stop at k_max or when both residuals fall below their
    tolerances; x_solver failures are re-raised with the iteration attached.
    What the x updates keep per (problem, gamma) on problem.kept serves this
    loop only: it is cleared when the loop returns or raises.

    SolveReport.objective and SolveReport.lagrangian hold the objective and
    the augmented Lagrangian after each iteration.  Both are computed from
    the iterate's data cost and the loop's own increments U, and the
    Lagrangian shares the residuals' constraint gaps (u - v, w - G v), so
    each value equals the standalone objective(problem, x) and
    augmented_lagrangian(problem, state, gamma) bit for bit.  The x, w and v
    minimisation stages never raise the Lagrangian; only the dual ascent
    does, by exactly gamma * r_primal**2.  So
    lagrangian[k] - lagrangian[k-1] <= gamma * r_primal[k]**2 for k >= 1,
    and likewise for lagrangian[0] against the Lagrangian at the feasible
    start; the raw sequence need not fall at every step.
    """
    gamma = opts.gamma
    reg = problem.reg
    try:
        x0 = np.zeros((problem.T, problem.n_x)) if x0 is None else np.array(x0, dtype=float)
        if x0.shape != (problem.T, problem.n_x):
            raise ValueError(f"x0: expected shape {(problem.T, problem.n_x)}, got {x0.shape}")
        it = Iterate(problem, x0)
        state = SplitState.feasible(it)
        factor = v_update_factor(reg) if reg.total_rows else None

        obj_hist, lag_hist, rp_hist, rd_hist, sec_hist = [], [], [], [], []
        states = [state] if record_states else None
        converged = False
        k_done = 0
        for k in range(1, opts.k_max + 1):
            tic = time.perf_counter()
            try:
                it = x_solver(problem, state.v, state.eta_bar, gamma, it)
            except SingularSystemError as exc:
                err = SingularSystemError(f"x update failed at ADMM iteration {k}: {exc}")
                err.iteration = k
                raise err from exc
            x = it.x
            U = problem.u(x, problem.penalty_targets(nominal=it))
            W = update_w_all(state.v, state.eta_under, reg, gamma)
            V_prev = state.v
            V = update_v_all(U, W, state.eta, reg, gamma, factor)
            eta = update_dual_all(U, W, V, state.eta, reg, gamma)
            state = SplitState(x=x, w=W, v=V, eta=eta, n_x=problem.n_x)

            # taken after the dual update and dropped before the next x update:
            # those two stages set the loop's memory peak, and the gaps held
            # there raised a solve's peak RSS
            gaps = constraint_gaps(U, W, V, reg)
            r_pri, r_dual = residuals(U, W, V, V_prev, reg, gamma, gaps)
            data = it.data
            obj_hist.append(objective(problem, x, data, U))
            lag_hist.append(augmented_lagrangian(problem, state, gamma, data, gaps))
            del gaps
            sec_hist.append(time.perf_counter() - tic)
            rp_hist.append(r_pri)
            rd_hist.append(r_dual)
            if record_states:
                states.append(state)
            k_done = k
            if r_pri <= opts.eps_primal and r_dual <= opts.eps_dual:
                converged = True
                break

        w_norms = reg.group_norms(state.w) if reg.n_groups else np.zeros((problem.T, 0))
        return SolveReport(
            x=state.x,
            state=state,
            objective=np.asarray(obj_hist),
            lagrangian=np.asarray(lag_hist),
            r_primal=np.asarray(rp_hist),
            r_dual=np.asarray(rd_hist),
            seconds=np.asarray(sec_hist),
            iterations=k_done,
            converged=converged,
            zero_groups=w_norms <= opts.zero_tol,
            states=states,
        )
    finally:
        problem.kept.clear()


def omega_norm_sq(dv: np.ndarray, deta: np.ndarray, reg: GroupRegularizer,
                  gamma: float) -> float:
    """Squared weighted norm sum_t dv_t'(gamma I + G'G)dv_t + ||deta||^2/gamma."""
    Gdv = reg.penalty_rows(dv)
    val = gamma * float(np.sum(dv * dv)) + float(np.sum(Gdv * Gdv))
    val += float(np.sum(deta * deta)) / gamma
    return val
