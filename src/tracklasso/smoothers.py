"""Kalman-smoother solvers for the regularised x subproblem.

The x subproblem's normal matrix is block tridiagonal, so it is solved in
O(T) instead of the O(T^3) dense solve, in one form: normal_equations
assembles the information form for all steps at once straight into the
LAPACK lower band dpbtrf reads (NormalEquations.band), and augmented_ks
solves it by one banded Cholesky (band_factor, then dpbtrs).  The one
x-update body, lm_x_update, runs the damped Gauss-Newton loop gauss_newton
on an engine, BAND here and batch.DENSE there (a damped proposal adds
lambda S^{-1} to the band's diagonal blocks).  On an affine model (its own
linearisation) the body runs at lambda0 = 0, whatever its LMConfig holds:
the one proposal is exact, and its matrix, which depends only on (problem,
gamma), is factored once for every coupling (coupled_rhs): the affine x
update of every solver.  lm_ieks is the body on BAND, and plain_ieks is
lm_ieks at lambda0 = 0 with no penalty.

A time-invariant band is assembled at three steps and tiled, and factored
through the Riccati transient on a truncated system whose steady block
column is tiled: byte for byte the whole band's factor, since dpbtrf
computes each column from its band window and the columns just before
it.  Other systems take the whole band.

The oracle is the paper's augmented smoother in covariance form:
build_fused fuses the penalty coupling with the transition density into
an affine model (Q~^{-1} = Q^{-1} + gamma I) whose coupling evidence,
when B_t != A_t, becomes measurement rows below the data, and
rts_smoother runs a plain Kalman filter and RTS pass on it.  No solve
path uses it; the oracles compare it with the banded and dense solves.
Every covariance block factored or checked here (P1, Q, R, the innovation
and predicted covariances and LMConfig's damping metric S) goes through
models.spd_factor, so a bad one raises an error naming the matrix and its
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotrs, dtrtrs

from .models import (AffineModel, GroupRegularizer, Iterate, Model, SingularSystemError,
                     TrackingProblem, compact, freeze, jacobian_stack, keep, per_step,
                     prior_mean_trajectory, spd_factor, time_invariant,
                     transition_linearization, x_subproblem_cost)

PROPOSAL_FLOOR = 1e-10
STEADY_FIRST = 128  # blocks of band_factor's first truncated system, doubled on each miss
STEADY_T = 4 * STEADY_FIRST  # the fewest steps whose quarter holds that system


def _fuse(Qi, A, b, B, d, v, eta, gamma: float):
    """Fuse k steps with the penalty coupling, returning stacked (A~, b~, Q~).

    With Qi = Q^{-1} (a model's noise_precisions stack): Q~ = (Qi + gamma I)^{-1},
    A~ = Q~ (Qi A + gamma B) and b~ = Q~ (Qi b + gamma (d + v) - eta), over
    (k, n, n) and (k, n) stacks.  Broadcast Qi, A and B stacks are fused once.
    """
    A, B = compact(A), compact(B)
    Qtil = np.linalg.inv(Qi + gamma * np.eye(Qi.shape[-1]))
    Qtil = freeze(0.5 * (Qtil + np.swapaxes(Qtil, -1, -2)))  # owned by the fused model
    Atil = Qtil @ (Qi @ A + gamma * B)
    rhs = Qi @ b[..., None] + (gamma * (d + v) - eta)[..., None]
    shape = b.shape + b.shape[-1:]
    return np.broadcast_to(Atil, shape), (Qtil @ rhs)[..., 0], np.broadcast_to(Qtil, shape)


def build_fused(model: AffineModel, B, d, V, eta_bar, gamma: float) -> AffineModel:
    """Fuse a whole affine model with the penalty coupling in one stacked pass.

    The fused model is an AffineModel (built with validate=False) whose RTS
    smoother minimises the x subproblem.  The prior is fused as step 0 of
    the same algebra, with A = B = 0, b = d = m1 and Q = P1 (the convention
    of normal_equations), so b[0] is the fused prior mean m1, and
    the transitions as steps 1..T-1, with P1^{-1} and Q^{-1} the model's
    kept noise_precisions.  With gamma = 0 there is no coupling and the
    model is returned as it is: it is its own fused model.

    When B_t != A_t the coupling evidence of step t + 1 goes below the data
    rows, observing 0 with offset -obs: H = A_{t+1} - B_{t+1}, obs (d + V -
    eta_bar/gamma - b)_{t+1}, covariance Q_{t+1} + I/gamma, and at t = T-1
    zero rows that keep the row count fixed.  R is then block diagonal, a
    broadcast view when R and Q are time-invariant; without evidence rows H,
    e and R are the model's own arrays.
    """
    if gamma == 0:
        return model
    T, n, m = model.T, model.n_x, model.n_y
    V, eta_bar, B, d = (np.asarray(a, dtype=float) for a in (V, eta_bar, B, d))
    zero, m1 = np.zeros((1, n, n)), model.m1[None]
    Pi, Qi, _ = model.noise_precisions
    prior = _fuse(Pi, zero, m1, zero, m1, V[:1], eta_bar[:1], gamma)
    steps = _fuse(Qi, model.A[1:], model.b[1:], B[1:], d[1:], V[1:], eta_bar[1:], gamma)
    b = np.concatenate([prior[1], steps[1]])
    A, Q = (_after_prior(p, a) for p, a in ((prior[0], steps[0]), (prior[2], steps[2])))
    H, e, R = model.H, model.e, model.R
    if not np.array_equal(B[1:], model.A[1:]):
        H, e = np.zeros((T, m + n, n)), np.zeros((T, m + n))
        H[:, :m], e[:, :m] = model.H, model.e
        H[:-1, m:] = model.A[1:] - B[1:]
        e[:-1, m:] = -(d + V - eta_bar / gamma - model.b)[1:]
        ev_R = compact(model.Q[1:]) + np.eye(n) / gamma
        if len(ev_R) > 1:
            ev_R = np.concatenate([ev_R, ev_R[-1:]])
        R = np.zeros((max(len(ev_R), len(compact(model.R))), m + n, m + n))
        R[:, :m, :m], R[:, m:, m:] = compact(model.R), ev_R
        R = np.broadcast_to(freeze(R), (T,) + R.shape[1:])
    return AffineModel(A=A, b=b, H=H, e=e, Q=Q, R=R, m1=b[0], P1=prior[2][0], T=T,
                       validate=False)


def _after_prior(prior: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """(T, n, n) stack of steps 1..T-1 behind an index 0 that is never
    consulted: a broadcast stack of steps stays a view (index 0 repeats step
    1), anything else is copied behind the prior's block, read-only, so the
    fused model owns it without a second copy."""
    if len(steps) and time_invariant(steps):
        return np.broadcast_to(steps[:1], (len(steps) + 1,) + steps.shape[1:])
    return freeze(np.concatenate([prior, steps]))


def _band(sub: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """dpbtrf's F-ordered lower band (2n, T n), entry [r, j] = (j + r, j), of
    the block tridiagonal matrix with the lower triangles of diag[t] (T =
    len(diag) blocks) on the diagonal and block (t + 1, t) = -sub[t]."""
    T, n = diag.shape[:2]
    ab = np.zeros((T, n, 2 * n))  # the band, column-major
    for c in range(n):  # column c of block column t: diag[t] from row c, then -sub[t]
        ab[:, c, :n - c] = diag[:, c:, c]
        np.negative(sub[:, :, c], out=ab[:-1, c, n - c:2 * n - c])
    return ab.reshape(T * n, 2 * n).T


def _columns(band: np.ndarray) -> np.ndarray:
    """(T, 2 n^2) block columns of a band, a view of an F-ordered one."""
    return band.T.reshape(-1, band.shape[0] ** 2 // 2)


@lru_cache(maxsize=None)
def _diagonal_places(n: int) -> np.ndarray:
    """Per entry of a band block column, the flat place of the (n, n) block
    entry (i, c), i >= c, at its row i - c of column c, else n^2 (past it)."""
    i, c = np.tril_indices(n)
    places = np.full(2 * n * n, n * n)
    places[c * (2 * n - 1) + i] = i * n + c
    return places


def _plus_diagonal(band: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """A new band: band plus the lower triangles of blocks ((n, n) or a
    (1, n, n) or (T, n, n) stack) on its diagonal blocks, one sum per entry;
    every other entry gets -0.0 added, which leaves its bits as they are."""
    n = band.shape[0] // 2
    padded = np.empty((blocks.size // (n * n), n * n + 1))
    padded[:, :-1], padded[:, -1] = blocks.reshape(-1, n * n), -0.0
    return (_columns(band) + padded.take(_diagonal_places(n), axis=1)).reshape(-1, 2 * n).T


def rts_smoother(fused: AffineModel, y: np.ndarray) -> np.ndarray:
    """Smoother mean (T, n_x) of an affine model by one Kalman filter and
    RTS pass, step by step in covariance form: the banded solve's oracle.

    On build_fused's model it is the paper's augmented smoother, the x
    subproblem's minimiser; y is padded by zeros for the evidence rows below
    the data.  The prior is the first predicted density, and each step
    takes one measurement update over all rows of H.  The first innovation
    or predicted covariance that does not factor (models.spd_factor) raises
    SingularSystemError naming it and its step.
    """
    A, b, H, e, Q, R = fused.A, fused.b, fused.H, fused.e, fused.Q, fused.R
    y = np.pad(np.asarray(y, dtype=float), ((0, 0), (0, H.shape[1] - np.shape(y)[1])))
    m, P = fused.m1, fused.P1
    predicted, filtered = [], []  # predicted[t]: mean and covariance factor of step t + 1
    for t in range(fused.T):
        if t:
            m, P = A[t] @ m + b[t], A[t] @ P @ A[t].T + Q[t]
            predicted.append((m, spd_factor(P, f"predicted covariance at step {t}")))
        L = spd_factor(H[t] @ P @ H[t].T + R[t], f"innovation covariance at step {t}")
        W = dtrtrs(L, H[t] @ P, lower=1)[0]  # L^{-1} H P: the Kalman gain is W' L^{-1}
        m = m + W.T @ dtrtrs(L, y[t] - e[t] - H[t] @ m, lower=1)[0]
        P = P - W.T @ W
        filtered.append((m, P))
    x = [m]
    for t in range(fused.T - 2, -1, -1):  # x_t = m_t + G_t (x_{t+1} - m_pred_{t+1})
        m_pred, Lp = predicted[t]
        G = dpotrs(Lp, A[t + 1] @ filtered[t][1], lower=1)[0].T
        x.append(filtered[t][0] + G @ (x[-1] - m_pred))
    return np.array(x[::-1])


@dataclass(eq=False)
class NormalEquations:
    """The x subproblem's block-tridiagonal normal equations, information
    form: the matrix's band (_band of its blocks E and D) and the right-hand
    side h (T, n_x)."""

    band: np.ndarray
    h: np.ndarray

    def damped(self, lam: float, s_inv: np.ndarray, z: np.ndarray) -> "NormalEquations":
        """These equations plus the LM term lam/2 sum_t ||x_t - z_t||^2 in
        the metric s_inv = S^{-1} ((n, n), or one block per step): lam S^{-1}
        on the diagonal and lam S^{-1} z in h.  self is not changed."""
        lam_s = lam * s_inv
        return NormalEquations(_plus_diagonal(self.band, lam_s),
                               self.h + (lam_s @ z[..., None])[..., 0])


def static_part(lin: AffineModel, B, gamma: float):
    """New D_static (k, n, n) and E (k - 1, n, n) of normal_equations, the
    blocks that H does not enter: k = T, or, when A[1:], Q[1:] and B[1:] are
    one block each, k = min(T, 3), blocks 0, every middle one and T - 1."""
    Pi, Qi, _ = lin.noise_precisions
    n, A, Bn = lin.n_x, compact(lin.A[1:]), compact((B if gamma > 0 else lin.A)[1:])
    T = min(lin.T, 3) if len(Qi) == len(A) == len(Bn) == 1 else lin.T
    QiA = Qi @ A
    D = np.empty((T, n, n))
    D[0] = Pi[0]
    D[1:] = Qi
    D[:-1] += A.transpose(0, 2, 1) @ QiA
    E = QiA if len(QiA) == T - 1 else np.repeat(QiA, T - 1, axis=0)  # a new array of its own
    if gamma > 0:
        D += gamma * np.eye(n)
        D[:-1] += gamma * Bn.transpose(0, 2, 1) @ Bn
        E += gamma * Bn
    return D, E


def _static_band(lin: AffineModel, B, gamma: float, HRiH=None) -> np.ndarray:
    """Band of static_part's D_static + HRiH (H'R^{-1}H, if given) and E, a
    3-block part tiled to T steps, HRiH added before if one block, else after."""
    T, n = lin.T, lin.n_x
    D, E = static_part(lin, B, gamma)
    late = HRiH is not None and len(D) < T and len(HRiH) > 1
    if HRiH is not None and not late:
        D += HRiH
    band = _band(E, D)
    if len(D) < T:
        band = np.repeat(_columns(band), (1, T - 2, 1), axis=0).reshape(T * n, 2 * n).T
    return _plus_diagonal(band, HRiH) if late else band


def normal_equations(lin: AffineModel, y: np.ndarray, B=None, d=None, v=None,
                     eta_bar=None, gamma: float = 0.0,
                     kept: Optional[dict] = None) -> NormalEquations:
    """Undamped normal equations of the x subproblem on an affine model,
    assembled for all steps at once from the model (A, b, H, e), its
    noise_precisions and, for gamma > 0, the coupling gamma/2 ||x_t - B_t
    x_{t-1} - d_t - V_t + eta_bar_t/gamma||^2, with B_0 = 0 and d_0 = m1.
    With Q_0 = P1, A_0 = 0 and b_0 = m1: D_t = D_static_t + H_t' R_t^{-1} H_t
    in that order, D_static_t = Q_t^{-1} + A_{t+1}' Q_{t+1}^{-1} A_{t+1} +
    gamma (I + B_{t+1}' B_{t+1}), and E_t = Q_{t+1}^{-1} A_{t+1} + gamma
    B_{t+1}, the t + 1 terms absent at t = T - 1: the fused model's matrix
    without evidence rows, written into its band (_static_band).  The band
    and, with v None, h depend only on (problem, gamma); coupled_rhs adds
    the rest.  With A and B one block each, kept (a TrackingProblem's)
    keeps the static part's read-only band in its "static" slot
    (models.keep), keyed by gamma and the A and B blocks' bytes."""
    Pi, Qi, Ri = lin.noise_precisions
    A, b, H, m1 = compact(lin.A[1:]), compact(lin.b[1:]), compact(lin.H), lin.m1
    HRi = H.transpose(0, 2, 1) @ Ri
    A1, Bn = lin.A[1:], (B if gamma > 0 else lin.A)[1:]  # B does not enter at gamma = 0
    if kept is not None and len(A1) and time_invariant(A1) and time_invariant(Bn):
        band = _plus_diagonal(keep(kept, "static", (gamma, A1[0].tobytes(), Bn[0].tobytes()),
                                   lambda: freeze(_static_band(lin, B, gamma))), HRi @ H)
    else:
        band = _static_band(lin, B, gamma, HRi @ H)
    r = y - lin.e
    h = r @ HRi[0].T if len(HRi) == 1 else (HRi @ r[..., None])[..., 0]
    Qib = b @ Qi[0].T if len(Qi) == 1 else (Qi @ b[..., None])[..., 0]
    h[0] += Pi[0] @ m1
    h[1:] += Qib
    h[:-1] -= (Qib[:, None] @ A)[:, 0]
    if v is not None:
        h = coupled_rhs(h, coupling(B, d, v, eta_bar, gamma, m1))
    return NormalEquations(band, h)


def coupling(B, d, v, eta_bar, gamma: float, m1: np.ndarray):
    """The coupling's part of h, g_t - B_{t+1}' g_{t+1} with g_t = gamma (d_t
    + v_t) - eta_bar_t and d_0 = m1, as the terms (g, g_{t+1}' B_{t+1}) that
    coupled_rhs adds; None at gamma = 0.  A one-block B enters one product."""
    if gamma == 0:
        return None
    g = gamma * (d + v) - eta_bar
    g[0] = gamma * (m1 + v[0]) - eta_bar[0]
    B = compact(B[1:])
    return g, g[1:] @ B[0] if len(B) == 1 else (g[1:, None] @ B)[:, 0]


def coupled_rhs(h: np.ndarray, terms) -> np.ndarray:
    """h plus the coupling terms as a new array (h itself for None)."""
    if terms is None:
        return h
    h = h + terms[0]
    h[:-1] -= terms[1]
    return h


def _steady_factor(band: np.ndarray) -> Optional[np.ndarray]:
    """Block columns of band_factor's truncated factor of a time-invariant
    band, or None when no steady run turns up or a truncated one fails."""
    cols, n, m = _columns(band), band.shape[0] // 2, STEADY_FIRST
    T = len(cols)
    if T < STEADY_T or n > 32:
        return None
    bits = cols[1:-1].view(np.int64)  # bitwise one block? a first differing pair bails out early
    if not ((bits[1] == bits[0]).all() and (bits[1:] == bits[:-1]).all()):
        return None
    while 2 * m - STEADY_FIRST <= T // 4:  # the truncated blocks so far, this one's included
        truncated = np.concatenate([cols[:m - 1], cols[-1:]]).reshape(m * n, 2 * n).T
        factor, info = dpbtrf(truncated, lower=1, overwrite_ab=1)
        if info:
            return None
        fac = _columns(factor)
        if fac[m - 5].tobytes() == fac[m - 4].tobytes() == fac[m - 3].tobytes():
            return fac
        m *= 2
    return None


def band_factor(eqs: NormalEquations, overwrite: bool = False) -> np.ndarray:
    """dpbtrf's lower band (kd = 2 n_x - 1) Cholesky factor of eqs.band, a
    new array, or with overwrite (a caller that drops eqs) written over
    eqs.band's memory; a matrix not positive definite raises
    SingularSystemError naming the step.  A band of T >= STEADY_T steps and
    n_x <= 32 (kd <= 64: dpbtrf's column-by-column dpbtf2) whose block
    columns 1..T-2 are bitwise one is first factored truncated to its first
    m - 1 block columns and the last, m = STEADY_FIRST, 2 STEADY_FIRST, ...,
    T/4 blocks in all at most.  When blocks m-5..m-3 of that factor are
    bitwise equal, the full-length blocks after them are tiled and its last
    two copied; else the whole band is factored."""
    fac = _steady_factor(eqs.band)
    if fac is not None:
        full, m = _columns(eqs.band), len(fac)
        full = full if overwrite else np.empty_like(full)
        full[:m - 2], full[m - 2:-2], full[-2:] = fac[:m - 2], fac[m - 3], fac[m - 2:]
        return full.reshape(eqs.band.shape[::-1]).T
    factor, info = dpbtrf(eqs.band, lower=1, overwrite_ab=overwrite)
    if info > 0:
        raise SingularSystemError(f"information matrix at step {(info - 1) // eqs.h.shape[1]}"
                                  f" is not positive definite")
    return factor


def augmented_ks(eqs, factor: Optional[np.ndarray] = None) -> np.ndarray:
    """x (T, n_x) solving eqs by band_factor and one dpbtrs, or, given factor
    (band_factor's of the same equations: BAND, plain_smoother), of the
    right-hand side eqs = h alone, bit for bit the equations' x."""
    if factor is None:
        factor, eqs = band_factor(eqs), eqs.h
    return dpbtrs(factor, eqs.reshape(-1, 1), lower=1)[0].reshape(eqs.shape)


# lm_x_update's engines: (kept slot, factor(eqs), solve(factor, h)); BAND resolves names per call
Engine = Tuple[str, Callable[[NormalEquations], object], Callable[[object, np.ndarray], np.ndarray]]
BAND: Engine = ("band_factor", lambda eqs: band_factor(eqs, overwrite=True),
                lambda factor, h: augmented_ks(h, factor))


def plain_smoother(model: AffineModel, y: np.ndarray) -> np.ndarray:
    """Smoother mean (T, n_x) on an affine model with no penalty coupling,
    one banded solve of its normal_equations, factored in place (to rounding
    rts_smoother)."""
    eqs = normal_equations(model, y)
    return augmented_ks(eqs.h, band_factor(eqs, overwrite=True))


def linearize(model: Model, nominal) -> AffineModel:
    """First-order affine expansion of a model about a trajectory.

    An affine model is its own linearisation and is returned unchanged; this
    is the one linearisation rule of the smoother and dense engines.  A
    nonlinear model gives A_t = J_a(t, nominal_{t-1}),
    b_t = a_t(nominal_{t-1}) - A_t nominal_{t-1},
    H_t = J_h(t, nominal_t), e_t = h_t(nominal_t) - H_t nominal_t, each
    evaluated for all steps in one call of the model's callables (a, h and
    (A, b) read from nominal when it is an Iterate; a constant Jacobian kept
    as one block).  A non-finite output raises ValueError naming the
    callable (Jacobians first) and step.  The linearisation
    shares the model's read-only m1, P1, Q and R, and with them the noise
    factors and precisions kept on the model.
    """
    if model.is_affine:
        return model
    T = model.T
    if isinstance(nominal, Iterate):
        (A, b), h, nominal = nominal.Jd, nominal.h, nominal.x
    else:
        nominal = np.asarray(nominal, dtype=float)
        A, b = transition_linearization(model, nominal)
        h = model.measurement(np.arange(T), nominal)
    H = jacobian_stack(model.measurement_jacobian(np.arange(T), nominal), T, 0,
                       (model.n_y, model.n_x))
    e = h - (H @ nominal[..., None])[..., 0]
    # the sum is finite when every entry is (b and e are never broadcast); a
    # finite sum that overflows only takes the scan, which raises for a
    # non-finite entry alone
    if not math.isfinite(compact(A[1:]).sum() + b[1:].sum() + compact(H).sum() + e.sum()):
        for name, arr, first in (("transition_jacobian", A, 1), ("transition", b, 1),
                                 ("measurement_jacobian", H, 0), ("measurement", e, 0)):
            if not np.isfinite(compact(arr[first:])).all():
                ok = np.isfinite(arr[first:].reshape(T - first, -1)).all(axis=1)
                raise ValueError(f"{name} returned a non-finite value at step "
                                 f"{first + np.argmin(ok)}")
    lin = object.__new__(AffineModel)  # every array is shaped; m1, P1, Q and R are owned
    vars(lin).update(A=A, b=b, H=H, e=e, Q=model.Q, R=model.R, m1=model.m1, P1=model.P1,
                     T=T, validate=False, noise_factors=model.noise_factors,
                     noise_precisions=model.noise_precisions)
    return lin


def _annotate(exc: SingularSystemError, i: int) -> SingularSystemError:
    err = SingularSystemError(f"inner iteration {i}: {exc}")
    err.inner_iteration = i
    return err


@dataclass(frozen=True)
class LMConfig:
    """Damping schedule for the Gauss-Newton / Levenberg-Marquardt loop.

    lambda0 is the initial damping (0 gives plain Gauss-Newton), alpha the
    multiplicative schedule (divide on accept, multiply on reject), s_cov an
    optional damping metric (n_x, n_x) or (T, n_x, n_x) of finite positive
    definite blocks, defaulting to the identity, i_max the accepted-iteration
    cap, and step_tol the relative step size below which the iteration is
    declared converged.
    """

    lambda0: float = 1e-2
    alpha: float = 10.0
    s_cov: Optional[np.ndarray] = None
    i_max: int = 10
    step_tol: float = 1e-8

    def __post_init__(self):  # each check is written so that nan fails it
        if not 0 <= self.lambda0 < math.inf:
            raise ValueError("lambda0 must be finite and nonnegative")
        if not 1 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and exceed 1")
        if not (isinstance(self.i_max, (int, np.integer)) and self.i_max >= 1):
            raise ValueError("i_max must be a positive integer")
        if not self.step_tol >= 0:
            raise ValueError("step_tol must be nonnegative")
        if self.s_cov is None:
            return
        s_cov = np.asarray(self.s_cov, dtype=float)
        if s_cov.ndim not in (2, 3) or s_cov.shape[-1] != s_cov.shape[-2]:
            raise ValueError(f"s_cov: expected (n_x, n_x) or (T, n_x, n_x), got {s_cov.shape}")
        try:
            spd_factor(s_cov, "s_cov")
        except SingularSystemError as exc:
            raise ValueError(str(exc)) from exc


def damping_inverse(s_cov: Optional[np.ndarray], T: int, n: int) -> np.ndarray:
    """S^{-1} of LMConfig's damping metric (None gives I) on a problem of T
    steps and n states: one (1, n, n) block when time-invariant, else
    (T, n, n).  LMConfig has checked the blocks themselves; a block size or
    leading axis that does not fit the problem raises ValueError "s_cov: ..."."""
    if s_cov is None:  # np.linalg.inv returns I exactly, at ten times the cost
        return np.eye(n)[None]
    s_cov = per_step(s_cov, T, 2, "s_cov")
    if s_cov.shape[1:] != (n, n):
        raise ValueError(f"s_cov: expected ({n}, {n}) blocks, got {s_cov.shape[1:]}")
    return np.linalg.inv(compact(s_cov))


Proposal = Callable[[Iterate, Tuple[np.ndarray, np.ndarray], float], np.ndarray]


def gauss_newton(problem: TrackingProblem, propose: Proposal, x0: Iterate,
                 cost: Optional[Callable[[Iterate, Tuple[np.ndarray, np.ndarray]], float]],
                 cfg: LMConfig, trace: Optional[List[np.ndarray]] = None,
                 lambda_trace: Optional[List[float]] = None) -> Iterate:
    """Damped Gauss-Newton loop shared by the smoother and dense engines.

    The loop carries Iterates of problem: propose(x, targets, lam) returns
    the minimiser (an array) of the subproblem linearised at x (penalty
    targets taken at x), damped towards x by lam; cost(x, targets) is the
    subproblem cost.  With lam > 0 a proposal is accepted only on a strict
    cost decrease (lam divided by alpha), else lam is multiplied by alpha
    and x kept; a rejected proposal whose cost ties f within 4 ulps, or a
    proposal closer than PROPOSAL_FLOOR to x, ends the loop, since no
    damping can then decrease the cost by more than rounding; a non-finite
    proposal raises SingularSystemError.  lambda0 = 0 accepts every proposal
    without evaluating the cost (cost may then be None): plain Gauss-Newton,
    i.e. the iterated smoother.  On an affine problem the linearisation and
    the targets do not depend on x, so an undamped proposal is the exact
    minimiser and the loop ends after the first: a second would solve the
    same system again.  Unless the targets depend on x (a nonlinear model
    with process_noise targets and no explicit B), they are taken once
    (problem.penalty_targets), and an accepted proposal's cost is the cost at
    the new iterate and is not evaluated again.  Every accepted iterate
    extends trace (a copy of its x) and lambda_trace.  With no accepted
    proposal the loop returns x0 itself.
    """
    reg = problem.reg
    fixed_targets = (problem.is_affine or reg.B is not None
                     or reg.target_mode != "process_noise")
    x = x0
    lam = cfg.lambda0
    exact = problem.is_affine and lam == 0
    targets = problem.penalty_targets(nominal=x)
    f = cost(x, targets) if lam > 0 else None
    if trace is not None:
        trace.append(x.x.copy())
    i = 0
    while i < cfg.i_max:
        try:
            x_prop = propose(x, targets, lam)
            if not np.isfinite(x_prop).all():
                raise SingularSystemError("proposal is not finite")
        except SingularSystemError as exc:
            raise _annotate(exc, i + 1) from exc
        dx, xr = (x_prop - x.x).ravel(), x.x.ravel()  # np.linalg.norm's dot, unwrapped
        step = math.sqrt(dx.dot(dx)) / (1.0 + math.sqrt(xr.dot(xr)))
        x_prop = Iterate(problem, x_prop)
        if lam > 0:
            if step < PROPOSAL_FLOOR:
                break
            f_prop = cost(x_prop, targets)
            if not f_prop < f:
                if abs(f_prop - f) <= 4 * np.spacing(abs(f)):
                    break
                lam *= cfg.alpha
                continue
        x = x_prop
        if not fixed_targets:
            targets = problem.penalty_targets(nominal=x)
        if lam > 0:
            f = f_prop if fixed_targets else cost(x, targets)
            lam /= cfg.alpha
        i += 1
        if trace is not None:
            trace.append(x.x.copy())
        if lambda_trace is not None:
            lambda_trace.append(lam)
        if step < cfg.step_tol or exact:
            break
    return x


def lm_x_update(problem: TrackingProblem, v: np.ndarray, eta_bar: np.ndarray,
                gamma: float, x0, cfg: Optional[LMConfig],
                trace: Optional[List[np.ndarray]], lambda_trace: Optional[List[float]],
                engine: Engine):
    """Levenberg-Marquardt x update of the coupled subproblem on an engine
    (slot, factor, solve): each proposal is solve(factor(eqs), eqs.h).

    gauss_newton with cfg (default LMConfig()) from x0, an Iterate of
    problem, to the final Iterate, or from a copy of the array x0 (default
    the prior mean trajectory) to the final x, never the caller's x0.  A
    proposal linearises at the iterate and solves the undamped
    normal_equations, kept per iterate with the coupling's part of h per
    targets pair and the static part in problem.kept's "static" slot; a
    damped one (the LM smoother of Sarkka and Svensson, ICASSP 2020) adds
    lambda S^{-1} on the diagonal and lambda S^{-1} x in h.  An affine
    problem runs at lambda0 = 0, whatever cfg holds: its one proposal is
    exact, with no linearize and no cost: h0 (no coupling) and the factor
    depend only on (problem, gamma), are kept in problem.kept[slot]
    (models.keep), and h0 plus the coupling's part is back-substituted.
    factor may write over its band: a damped band is new, an undamped one
    is solved once, and the kept static band never reaches it.
    """
    slot, factor, solve = engine
    cfg = cfg or LMConfig()
    exact = problem.is_affine
    if exact and cfg.lambda0:
        cfg = replace(cfg, lambda0=0.0)
    model = problem.model
    model.noise_precisions  # a bad P1, Q or R block raises here, before any pass
    start = x0 if isinstance(x0, Iterate) else Iterate(problem, np.array(
        prior_mean_trajectory(model) if x0 is None else x0, dtype=float))
    s_inv = damping_inverse(cfg.s_cov, problem.T, problem.n_x) if cfg.lambda0 > 0 else None
    last = (None, None)
    terms = [None, None]  # a targets pair and its coupling terms

    def factored(B):
        eqs = normal_equations(model, problem.y, B, gamma=gamma)
        return eqs.h, factor(eqs)

    def propose(x, targets, lam):
        nonlocal last
        B, d = targets
        if exact:
            h0, f = keep(problem.kept, slot, gamma, lambda: factored(B))
            return solve(f, coupled_rhs(h0, coupling(B, d, v, eta_bar, gamma, model.m1)))
        if last[0] is not x:
            if terms[0] is not targets:
                terms[:] = targets, coupling(B, d, v, eta_bar, gamma, model.m1)
            eqs = normal_equations(linearize(model, x), problem.y, B, gamma=gamma,
                                   kept=problem.kept)
            eqs.h = coupled_rhs(eqs.h, terms[1])
            last = (x, eqs)
        eqs = last[1].damped(lam, s_inv, x.x) if lam > 0 else last[1]
        return solve(factor(eqs), eqs.h)

    def cost(x, targets):
        return x_subproblem_cost(problem, x, v, eta_bar, gamma, targets)

    x = gauss_newton(problem, propose, start, cost, cfg, trace, lambda_trace)
    return x if start is x0 else x.x


def lm_ieks(problem: TrackingProblem, v: np.ndarray, eta_bar: np.ndarray,
            gamma: float, x0, cfg: Optional[LMConfig] = None,
            trace: Optional[List[np.ndarray]] = None,
            lambda_trace: Optional[List[float]] = None):
    """Levenberg-Marquardt iterated smoother: lm_x_update on BAND, from an
    array or an Iterate x0 to the same kind.  With lambda0 = 0 (the GN-IEKS,
    and on an affine model the ks_madmm x update) its iterates match the
    dense Gauss-Newton sequence."""
    return lm_x_update(problem, v, eta_bar, gamma, x0, cfg, trace, lambda_trace, BAND)


_NO_PENALTY = GroupRegularizer(groups=(), weights=())


def plain_ieks(model: Model, y: np.ndarray, i_max: int = 20,
               lambda_trace: Optional[List[float]] = None) -> np.ndarray:
    """Unregularised iterated smoother from the prior mean trajectory:
    lm_x_update on BAND, on the problem with no penalty at gamma = 0,
    LMConfig(lambda0=0, i_max).  Each accepted pass extends lambda_trace; a
    bad P1, Q or R block is named before any pass, without an
    inner-iteration prefix.  On an affine model the one pass is
    plain_smoother's.
    """
    return lm_x_update(TrackingProblem(model, _NO_PENALTY, y), None, None, 0.0, None,
                       LMConfig(lambda0=0.0, i_max=i_max), None, lambda_trace, BAND)
