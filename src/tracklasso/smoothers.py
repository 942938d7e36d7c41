"""Kalman-smoother solvers for the regularised x subproblem.

The quadratic penalty coupling gamma/2 ||x_t - B_t x_{t-1} - d_t - v_t +
eta_bar_t/gamma||^2 fuses with the Gaussian transition density into a
modified affine model (A~, b~, Q~) with Q~^{-1} = Q^{-1} + gamma I, and the
prior fuses the same way.  The product of the two densities also leaves an
evidence factor N(zeta_t; (A_t - B_t) x_{t-1}, Q_t + I/gamma); it is
constant when B_t = A_t and otherwise enters the pass as an extra linear
measurement of x_{t-1}, keeping the smoother an exact minimiser for every
coupling.  A Rauch-Tung-Striebel pass over the fused model then solves the
subproblem in O(T) instead of the O(T^3) dense solve.  Levenberg-Marquardt
damping enters the same pass as one extra pseudo-measurement update per
step with covariance S_t / lambda.  The iterated smoothers and the dense
stacked solvers share one damped Gauss-Newton loop, gauss_newton; they
differ only in the step each proposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.linalg import cho_solve

from .models import (AffineModel, Model, NonlinearModel, SingularSystemError,
                     TrackingProblem, per_step, prior_mean_trajectory,
                     time_invariant, transition_linearization, x_subproblem_cost)

PROPOSAL_FLOOR = 1e-10


@dataclass(eq=False)
class FusedModel:
    """Affine model with the quadratic penalty folded into dynamics and prior.

    For gamma > 0, build_fused produces Atil, btil, Qtil in one stacked fuse
    with the prior as step 0, so btil[0] and Qtil[0] are m1til and P1til;
    index 0 of Atil is never consulted.  When z and sigma are set, the
    smoother applies an extra update against the pseudo measurement z_t with
    covariance sigma_t after each data update.

    Folding the penalty into the transition is lossless only when B_t = A_t;
    otherwise the Gaussian product leaves an evidence factor
    N(zeta_t; (A_t - B_t) x_{t-1}, Q_t + I/gamma) coupling to the earlier
    state.  That factor is carried as a second measurement channel: ev_H[t],
    ev_z[t], ev_R[t] describe an observation of x_t taken at step t
    (entries exist for t = 0..T-2; the channel is omitted when B_t = A_t).
    """

    Atil: np.ndarray
    btil: np.ndarray
    Qtil: np.ndarray
    m1til: np.ndarray
    P1til: np.ndarray
    H: np.ndarray
    e: np.ndarray
    R: np.ndarray
    z: Optional[np.ndarray] = None
    sigma: Optional[np.ndarray] = None
    ev_H: Optional[np.ndarray] = None
    ev_z: Optional[np.ndarray] = None
    ev_R: Optional[np.ndarray] = None

    @property
    def T(self) -> int:
        return self.H.shape[0]

    @property
    def n_x(self) -> int:
        return self.m1til.shape[0]


@dataclass(eq=False)
class SmootherPass:
    """Forward-backward quantities of one smoother run.

    P_smooth, S, K and G are only retained when the pass is run with
    keep_covariances=True; the solver path skips them to bound memory.
    """

    m_pred: np.ndarray
    P_pred: np.ndarray
    m_filt: np.ndarray
    P_filt: np.ndarray
    m_smooth: np.ndarray
    P_smooth: Optional[np.ndarray] = None
    S: Optional[np.ndarray] = None
    K: Optional[np.ndarray] = None
    G: Optional[np.ndarray] = None


def _compact(arr: np.ndarray) -> np.ndarray:
    """One step of a broadcast (time-invariant) stack, else the stack itself."""
    return arr[:1] if time_invariant(arr) else arr


def _fuse(Q, A, b, B, d, v, eta, gamma: float, what: str, first: int = 0):
    """Fuse k steps with the penalty coupling, returning stacked (A~, b~, Q~).

    With Qi = Q^{-1}: Q~ = (Qi + gamma I)^{-1}, A~ = Q~ (Qi A + gamma B) and
    b~ = Q~ (Qi b + gamma (d + v) - eta), over (k, n, n) and (k, n) stacks.
    Broadcast Q, A and B stacks are fused once.  A Q that is not positive
    definite raises SingularSystemError naming ``what`` and its first bad
    step, counted from ``first``.
    """
    Q, A, B = _compact(Q), _compact(A), _compact(B)
    try:
        Li = np.linalg.inv(np.linalg.cholesky(Q))
    except np.linalg.LinAlgError as exc:
        ok = np.all(np.linalg.eigvalsh(Q) > 0, axis=-1)
        raise SingularSystemError(f"{what} at step {first + int(np.argmin(ok))} "
                                  f"is not positive definite") from exc
    Qi = np.swapaxes(Li, -1, -2) @ Li
    Qtil = np.linalg.inv(Qi + gamma * np.eye(Q.shape[-1]))
    Qtil = 0.5 * (Qtil + np.swapaxes(Qtil, -1, -2))
    Atil = Qtil @ (Qi @ A + gamma * B)
    rhs = Qi @ b[..., None] + (gamma * (d + v) - eta)[..., None]
    shape = b.shape + b.shape[-1:]
    return np.broadcast_to(Atil, shape), (Qtil @ rhs)[..., 0], np.broadcast_to(Qtil, shape)


def build_fused(model: AffineModel, B, d, V, eta_bar, gamma: float,
                z: Optional[np.ndarray] = None,
                sigma: Optional[np.ndarray] = None) -> FusedModel:
    """Fuse a whole affine model with the penalty coupling in one stacked pass.

    The prior is fused as step 0 of the same algebra, with A = B = 0,
    b = d = m1 and Q = P1 (the convention of the dense stacked problem), and
    the transitions as steps 1..T-1.  With gamma = 0 there is no coupling
    and the model is returned unchanged.
    """
    T, n = model.T, model.n_x
    V = np.asarray(V, dtype=float)
    eta_bar = np.asarray(eta_bar, dtype=float)
    if z is not None:
        z = per_step(z, T, 1, "z")
        sigma = per_step(sigma, T, 2, "sigma")
    if gamma == 0:
        return FusedModel(model.A, model.b, model.Q, model.m1.copy(), model.P1.copy(),
                          model.H, model.e, model.R, z=z, sigma=sigma)
    B, d = np.asarray(B, dtype=float), np.asarray(d, dtype=float)
    zero, m1 = np.zeros((1, n, n)), model.m1[None]
    prior = _fuse(model.P1[None], zero, m1, zero, m1, V[:1], eta_bar[:1], gamma, "P1")
    steps = _fuse(model.Q[1:], model.A[1:], model.b[1:], B[1:], d[1:], V[1:],
                  eta_bar[1:], gamma, "Q", first=1)
    Atil, btil, Qtil = (np.concatenate(pair) for pair in zip(prior, steps))
    ev_H = ev_z = ev_R = None
    if not np.array_equal(B[1:], model.A[1:]):
        ev_H = model.A[1:] - B[1:]
        ev_z = (d + V - eta_bar / gamma - model.b)[1:]
        ev_R = np.broadcast_to(_compact(model.Q[1:]) + np.eye(n) / gamma, (T - 1, n, n))
    return FusedModel(Atil, btil, Qtil, btil[0], Qtil[0], model.H, model.e, model.R,
                      z=z, sigma=sigma, ev_H=ev_H, ev_z=ev_z, ev_R=ev_R)


def _chol(mat: np.ndarray, what: str, t: int) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"{what} at step {t} is not positive definite") from exc


def augmented_ks(fused: FusedModel, y: np.ndarray,
                 keep_covariances: bool = True) -> SmootherPass:
    """Rauch-Tung-Striebel smoother over a fused model.

    The prior acts as the first predicted moment pair.  Smoother gains are
    computed through the Cholesky factor of the predicted covariance; any
    factorisation failure raises SingularSystemError naming the step.
    """
    T, n = fused.T, fused.n_x
    y = np.asarray(y, dtype=float)
    pseudo = fused.z is not None

    m_pred = np.empty((T, n))
    P_pred = np.empty((T, n, n))
    m_filt = np.empty((T, n))
    P_filt = np.empty((T, n, n))
    n_y = fused.H.shape[1]
    S_hist = np.empty((T, n_y, n_y)) if keep_covariances else None
    K_hist = np.empty((T, n, n_y)) if keep_covariances else None

    m = fused.m1til
    P = fused.P1til
    for t in range(T):
        if t > 0:
            A = fused.Atil[t]
            m = A @ m + fused.btil[t]
            P = A @ P @ A.T + fused.Qtil[t]
            P = 0.5 * (P + P.T)
        m_pred[t] = m
        P_pred[t] = P
        H, e, R = fused.H[t], fused.e[t], fused.R[t]
        S = H @ P @ H.T + R
        L = _chol(S, "innovation covariance", t)
        K = cho_solve((L, True), H @ P).T
        m = m + K @ (y[t] - H @ m - e)
        P = P - K @ S @ K.T
        P = 0.5 * (P + P.T)
        if keep_covariances:
            S_hist[t] = S
            K_hist[t] = K
        if pseudo:
            S2 = P + fused.sigma[t]
            L2 = _chol(S2, "pseudo-measurement covariance", t)
            K2 = cho_solve((L2, True), P).T
            m = m + K2 @ (fused.z[t] - m)
            P = P - K2 @ S2 @ K2.T
            P = 0.5 * (P + P.T)
        if fused.ev_H is not None and t < T - 1:
            Hv = fused.ev_H[t]
            S3 = Hv @ P @ Hv.T + fused.ev_R[t]
            L3 = _chol(S3, "coupling-evidence covariance", t)
            K3 = cho_solve((L3, True), Hv @ P).T
            m = m + K3 @ (fused.ev_z[t] - Hv @ m)
            P = P - K3 @ S3 @ K3.T
            P = 0.5 * (P + P.T)
        m_filt[t] = m
        P_filt[t] = P

    m_smooth = m_filt.copy()
    P_smooth = P_filt.copy() if keep_covariances else None
    G_hist = np.empty((T - 1, n, n)) if keep_covariances and T > 1 else None
    Ps_next = P_filt[T - 1]
    for t in range(T - 2, -1, -1):
        A = fused.Atil[t + 1]
        L = _chol(P_pred[t + 1], "predicted covariance", t + 1)
        G = cho_solve((L, True), A @ P_filt[t]).T
        m_smooth[t] = m_filt[t] + G @ (m_smooth[t + 1] - m_pred[t + 1])
        Ps_t = P_filt[t] + G @ (Ps_next - P_pred[t + 1]) @ G.T
        Ps_t = 0.5 * (Ps_t + Ps_t.T)
        Ps_next = Ps_t
        if keep_covariances:
            P_smooth[t] = Ps_t
            G_hist[t] = G
    return SmootherPass(m_pred=m_pred, P_pred=P_pred, m_filt=m_filt, P_filt=P_filt,
                        m_smooth=m_smooth, P_smooth=P_smooth, S=S_hist, K=K_hist,
                        G=G_hist)


def plain_smoother(model: AffineModel, y: np.ndarray,
                   keep_covariances: bool = True) -> SmootherPass:
    """Standard RTS smoother on an affine model (no penalty coupling)."""
    fused = FusedModel(model.A, model.b, model.Q, model.m1.copy(), model.P1.copy(),
                       model.H, model.e, model.R)
    return augmented_ks(fused, y, keep_covariances=keep_covariances)


def linearize(model: NonlinearModel, nominal: np.ndarray) -> AffineModel:
    """First-order affine expansion of a nonlinear model about a trajectory.

    A_t = J_a(t, nominal_{t-1}), b_t = a_t(nominal_{t-1}) - A_t nominal_{t-1},
    H_t = J_h(t, nominal_t), e_t = h_t(nominal_t) - H_t nominal_t, each
    evaluated for all steps in one call of the model's callables.
    """
    nominal = np.asarray(nominal, dtype=float)
    T, n, n_y = model.T, model.n_x, model.n_y
    A, b = transition_linearization(model, nominal)
    t = np.arange(T)
    H = np.empty((T, n_y, n))
    H[:] = model.measurement_jacobian(t, nominal)
    e = model.measurement(t, nominal) - (H @ nominal[..., None])[..., 0]
    return AffineModel(A=A, b=b, H=H, e=e, Q=model.Q, R=model.R,
                       m1=model.m1, P1=model.P1, T=T, validate=False)


def _as_nonlinear(model: Model) -> NonlinearModel:
    return model if isinstance(model, NonlinearModel) else NonlinearModel.from_affine(model)


def _rel_step(x_new: np.ndarray, x_old: np.ndarray) -> float:
    return float(np.linalg.norm(x_new - x_old) / (1.0 + np.linalg.norm(x_old)))


def plain_ieks(model: Model, y: np.ndarray, x0: Optional[np.ndarray] = None,
               i_max: int = 20, step_tol: float = 1e-8) -> np.ndarray:
    """Unregularised iterated smoother: relinearise, smooth, repeat."""
    nl = _as_nonlinear(model)
    x = np.asarray(x0, dtype=float).copy() if x0 is not None else prior_mean_trajectory(nl)
    for _ in range(i_max):
        lin = linearize(nl, x)
        x_new = plain_smoother(lin, y, keep_covariances=False).m_smooth
        step = _rel_step(x_new, x)
        x = x_new
        if step < step_tol:
            break
    return x


def _annotate(exc: SingularSystemError, i: int) -> SingularSystemError:
    err = SingularSystemError(f"inner iteration {i}: {exc}")
    err.inner_iteration = i
    return err


@dataclass(frozen=True)
class LMConfig:
    """Damping schedule for the Gauss-Newton / Levenberg-Marquardt loop.

    lambda0 is the initial damping (0 gives plain Gauss-Newton), alpha the
    multiplicative schedule (divide on accept, multiply on reject), s_cov an
    optional damping metric (n_x, n_x) or (T, n_x, n_x) defaulting to the
    identity, i_max the accepted-iteration cap, and step_tol the relative
    step size below which the iteration is declared converged.
    """

    lambda0: float = 1e-2
    alpha: float = 10.0
    s_cov: Optional[np.ndarray] = None
    i_max: int = 10
    step_tol: float = 1e-8

    def __post_init__(self):
        if self.lambda0 < 0:
            raise ValueError("lambda0 must be nonnegative")
        if self.alpha <= 1:
            raise ValueError("alpha must exceed 1")
        if self.i_max < 1:
            raise ValueError("i_max must be positive")


Proposal = Callable[[np.ndarray, Tuple[np.ndarray, np.ndarray], float], np.ndarray]


def gauss_newton(problem: TrackingProblem, propose: Proposal, x0: np.ndarray,
                 cost: Callable[[np.ndarray, Tuple[np.ndarray, np.ndarray]], float],
                 cfg: LMConfig, trace: Optional[List[np.ndarray]] = None,
                 lambda_trace: Optional[List[float]] = None) -> np.ndarray:
    """Damped Gauss-Newton loop shared by the smoother and dense engines.

    propose(x, targets, lam) returns the minimiser of the subproblem
    linearised at x (penalty targets taken at x), damped towards x by lam;
    cost(x, targets) is the subproblem cost.  With lam > 0 a proposal is
    accepted only on a strict cost decrease (lam divided by alpha), else
    lam is multiplied by alpha and x kept; proposals closer than
    PROPOSAL_FLOOR to x end the loop.  lambda0 = 0 accepts every proposal
    without evaluating the cost: plain Gauss-Newton, i.e. the iterated
    smoother.  Every accepted iterate extends trace and lambda_trace.
    """
    x = np.asarray(x0, dtype=float).copy()
    lam = cfg.lambda0
    targets = problem.penalty_targets(nominal=x)
    f = cost(x, targets) if lam > 0 else None
    if trace is not None:
        trace.append(x.copy())
    i = 0
    while i < cfg.i_max:
        try:
            x_prop = propose(x, targets, lam)
        except SingularSystemError as exc:
            raise _annotate(exc, i + 1) from exc
        step = _rel_step(x_prop, x)
        if lam > 0:
            if step < PROPOSAL_FLOOR:
                break
            if not cost(x_prop, targets) < f:
                lam *= cfg.alpha
                continue
        x = x_prop
        targets = problem.penalty_targets(nominal=x)
        if lam > 0:
            f = cost(x, targets)
            lam /= cfg.alpha
        i += 1
        if trace is not None:
            trace.append(x.copy())
        if lambda_trace is not None:
            lambda_trace.append(lam)
        if step < cfg.step_tol:
            break
    return x


def gn_ieks(problem: TrackingProblem, v: np.ndarray, eta_bar: np.ndarray,
            gamma: float, x0: np.ndarray, i_max: int = 10, step_tol: float = 1e-8,
            trace: Optional[List[np.ndarray]] = None) -> np.ndarray:
    """Gauss-Newton iterated smoother: lm_ieks without damping.

    Iterates match the dense Gauss-Newton sequence on the stacked problem.
    """
    return lm_ieks(problem, v, eta_bar, gamma, x0,
                   LMConfig(lambda0=0.0, i_max=i_max, step_tol=step_tol), trace=trace)


def lm_ieks(problem: TrackingProblem, v: np.ndarray, eta_bar: np.ndarray,
            gamma: float, x0: np.ndarray, cfg: Optional[LMConfig] = None,
            trace: Optional[List[np.ndarray]] = None,
            lambda_trace: Optional[List[float]] = None) -> np.ndarray:
    """Levenberg-Marquardt iterated smoother for the coupled subproblem.

    Each proposal linearises the model about the current trajectory, fuses
    it with the penalty coupling, and smooths; after a rejected step the
    trajectory is the same object and its linearisation is reused.  Damping
    is realised as a per-step pseudo-measurement of the current iterate
    with covariance S_t / lambda, applied directly after each data update.
    """
    cfg = cfg or LMConfig()
    nl = _as_nonlinear(problem.model)
    s_cov = np.asarray(cfg.s_cov, dtype=float) if cfg.s_cov is not None else np.eye(problem.n_x)
    last = (None, None)

    def propose(x, targets, lam):
        nonlocal last
        if last[0] is not x:
            last = (x, linearize(nl, x))
        lin = last[1]
        B, d = targets
        if lam > 0:
            fused = build_fused(lin, B, d, v, eta_bar, gamma, z=x, sigma=s_cov / lam)
        else:
            fused = build_fused(lin, B, d, v, eta_bar, gamma)
        return augmented_ks(fused, problem.y, keep_covariances=False).m_smooth

    def cost(x, targets):
        return x_subproblem_cost(problem, x, v, eta_bar, gamma, targets)

    return gauss_newton(problem, propose, x0, cost, cfg, trace, lambda_trace)


def ks_x_solver():
    """x-update callable running one augmented smoother pass (affine models)."""
    def solver(problem, V, eta_bar, gamma, x_warm):
        if not problem.is_affine:
            raise ValueError("the Kalman-smoother x update needs an affine model")
        B, d = problem.penalty_targets()
        fused = build_fused(problem.model, B, d, V, eta_bar, gamma)
        return augmented_ks(fused, problem.y, keep_covariances=False).m_smooth
    return solver


def gn_ieks_x_solver(i_max: int = 10, step_tol: float = 1e-8):
    """x-update callable running the Gauss-Newton iterated smoother."""
    def solver(problem, V, eta_bar, gamma, x_warm):
        return gn_ieks(problem, V, eta_bar, gamma, x_warm, i_max=i_max, step_tol=step_tol)
    return solver


def lm_ieks_x_solver(cfg=None):
    """x-update callable running the Levenberg-Marquardt iterated smoother."""
    def solver(problem, V, eta_bar, gamma, x_warm):
        return lm_ieks(problem, V, eta_bar, gamma, x_warm, cfg)
    return solver
