"""Dense reference solvers for the regularised x subproblem.

The whole trajectory is treated as one vector of length T * n_x.  Its
normal matrix is the band of smoothers.normal_equations scattered into its
lower triangle, stored in LAPACK's rectangular full packed form (dtrttf's
TRANSR = 'T', UPLO = 'L'): (T n_x)(T n_x + 1)/2 doubles, half the full
matrix, factored in place by the blocked dpftrf.  Where the band's exact
zeros split the state coordinates into groups that no D_t or E_t entry
couples (the Wiener model's x and y axes, (0, 2) and (1, 3)), the matrix is
a direct sum after a permutation, and each group's matrix is packed,
factored and solved on its own: two (T n_x / 2)-order factors take half the
memory and a quarter of the flops of one (5.1 MB instead of 10.2 MB at
T n_x = 1600).  A coupled system is one group and solves as the whole
matrix; a split one moves by rounding only.  These solvers scale
cubically in T and exist as the reference path; the smoother module
solves the same systems in linear time.  The x updates are
smoothers.lm_x_update on the dense engine DENSE (make_affine_x_solver is
its exact case); stack_problem, batch_x_affine and the one damped step
batch_lm_step stay as the dense oracles.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np
from scipy.linalg.blas import dgemv, dtrsv
from scipy.linalg.lapack import dpftrf

from .models import SingularSystemError, TrackingProblem, x_subproblem_cost
from .smoothers import (Engine, LMConfig, NormalEquations, _columns, damping_inverse,
                        linearize, lm_x_update, normal_equations)

# Re-exported: LMConfig for callers that import it from here, and
# x_subproblem_cost because bench/tracing.py patches this binding.
__all__ = ["LMConfig", "x_subproblem_cost", "stack_problem", "normal_system", "batch_x_affine",
           "make_affine_x_solver", "batch_lm_step", "batch_nonlinear_solve"]


def stack_problem(problem: TrackingProblem, v: Optional[np.ndarray], eta_bar: Optional[np.ndarray],
                  gamma: float) -> NormalEquations:
    """normal_equations (band and h) of an affine problem and its penalty
    targets.  With v None, h leaves out the coupling's part
    (smoothers.coupled_rhs adds it).  P1, Q and R are factored block by
    block (the model's noise_precisions), so a bad block is named with its
    step, as on the smoother path."""
    model = problem.model
    if not model.is_affine:
        raise ValueError("stack_problem needs an affine model; linearise first")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    B, d = problem.penalty_targets()
    return normal_equations(model, problem.y, B, d, v, eta_bar, gamma)


def normal_system(eqs: NormalEquations):
    """Normal matrix of eqs in rectangular full packed (RFP) form and its
    right-hand side.  Band entry [r, j] is the matrix's entry (j + r, j), for
    j + r below the order N = T n_x; that lower triangle is stored in
    LAPACK's RFP layout with TRANSR = 'T' and UPLO = 'L' (dtrttf's): for N
    padded to an even N' = 2k with a unit diagonal entry and a zero
    right-hand side when N is odd, entry (i, j), i >= j, sits at [j, i + 1]
    when j < k and at [i - k, j - k] otherwise.  The array is F-ordered
    (k, N' + 1), N'(N' + 1)/2 doubles instead of N^2, so _dense_factor
    factors it in place.  The right-hand side is eqs.h flattened and padded
    to (N',); the padded unknown of the system is exactly 0."""
    N = eqs.band.shape[1]
    k = (N + 1) // 2
    flat = np.zeros(k * (2 * k + 1))
    R = flat.reshape((k, 2 * k + 1), order="F")  # a view: R[a, b] is flat[a + b k]
    for r, row in enumerate(eqs.band):  # (j + r, j): flat j (k + 1) + (r + 1) k if j < k,
        top, low = row[:min(k, max(0, N - r))], row[k:max(k, N - r)]  # else (j - k)(k + 1) + r
        flat[(r + 1) * k::k + 1][:len(top)] = top
        flat[r::k + 1][:len(low)] = low
    if N % 2:
        R[k - 1, k - 1] = 1.0  # entry (N, N) of the padded order
    rhs = np.zeros(2 * k)
    rhs[:N] = eqs.h.ravel()
    return R, rhs


def _dense_factor(eqs: NormalEquations, what: str) -> np.ndarray:
    """Lower Cholesky factor of normal_system(eqs)'s matrix, computed in place:
    normal_system's F-ordered RFP array itself, factored by LAPACK's blocked
    dpftrf, so it holds N'(N' + 1)/2 doubles and _back_substitute's BLAS
    calls read its three blocks without a copy.  The matrix is finite
    exactly when eqs.band is, so the band is checked, O(T n_x^2).  A matrix
    not finite or not positive definite raises SingularSystemError naming
    what."""
    if not np.isfinite(eqs.band).all():
        raise SingularSystemError(f"{what} is not positive definite")
    R, _ = normal_system(eqs)
    _, info = dpftrf(R.shape[1] - 1, R.ravel(order="F"), transr="T", uplo="L", overwrite_a=1)
    if info > 0:
        raise SingularSystemError(f"{what} is not positive definite")
    return R


def _back_substitute(c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Solve L L' x = h for _dense_factor's RFP lower factor c, h (T, n_x).

    With k = c.shape[0], the factor's blocks are F-contiguous slabs of c:
    L11' = c[:, 1:k+1] (upper), L21' = c[:, k+1:] and L22 = c[:, :k]
    (lower).  h is copied into a zero-padded (2k,) vector, so it is never
    written, and six BLAS-2 calls solve in place: dtrsv, dgemv, dtrsv
    forward (L z = h), then the same backward (L' x = z).  A non-finite h
    raises ValueError.
    """
    k = c.shape[0]
    L11t, L21t, L22 = c[:, 1:k + 1], c[:, k + 1:], c[:, :k]
    x = np.zeros(2 * k)
    x[:h.size] = np.asarray_chkfinite(h.ravel())
    x1, x2 = x[:k], x[k:]  # contiguous views: each overwrite_x/overwrite_y call writes x
    dtrsv(L11t, x1, trans=1, overwrite_x=1)
    dgemv(-1.0, L21t, x1, beta=1.0, y=x2, trans=1, overwrite_y=1)
    dtrsv(L22, x2, lower=1, overwrite_x=1)
    dtrsv(L22, x2, lower=1, trans=1, overwrite_x=1)
    dgemv(-1.0, L21t, x2, beta=1.0, y=x1, overwrite_y=1)
    dtrsv(L11t, x1, overwrite_x=1)
    return x[:h.size].reshape(h.shape)


def _coordinate_groups(band: np.ndarray) -> Tuple[Tuple[int, ...], ...]:
    """The state coordinates that band's matrix couples, one sorted tuple per
    group, in the order of their first coordinates: i and c are coupled
    when some block column holds a nonzero D_t or E_t entry (i, c), taken
    transitively.  Entry [r, a] of a (2n, n) block column is (a + r, a)
    mod n; a NaN counts as nonzero."""
    n = band.shape[0] // 2
    a, r = np.nonzero(_columns(band).any(axis=0).reshape(n, 2 * n))
    label = list(range(n))  # each coordinate's group so far, named by its first coordinate
    for i, c in zip(a.tolist(), ((a + r) % n).tolist()):
        i, c = label[i], label[c]
        if i != c:
            label = [min(i, c) if g in (i, c) else g for g in label]
    return tuple(tuple(c for c in range(n) if label[c] == g) for g in dict.fromkeys(label))


@lru_cache(maxsize=None)
def _group_places(n: int, group: Tuple[int, ...]) -> np.ndarray:
    """Where a group's band sits in the whole band's block columns.  Entry
    [r, a] of a block column of the k-coordinate group's band (flat a 2k +
    r) is the matrix entry of coordinate g[b] at block offset q against
    g[a], (q, b) = divmod(a + r, k): row q n + g[b] - g[a] of column g[a]
    of the (2n, n) block column, flat g[a] 2n + that row.  An entry with
    q = 2 lies past the band's two blocks, and so does its place, in the
    whole band's zero padding."""
    k, g = len(group), np.array(group)
    a, r = np.divmod(np.arange(2 * k * k), 2 * k)
    q, b = np.divmod(a + r, k)
    return g[a] * 2 * n + q * n + g[b] - g[a]


def _group_equations(eqs: NormalEquations, group: Tuple[int, ...]) -> NormalEquations:
    """The equations of the coordinates group alone, step-major: their
    F-ordered (2k, T k) band gathered from eqs.band, and h[:, group]."""
    places = _group_places(eqs.h.shape[1], group)
    band = _columns(eqs.band).take(places, axis=1).reshape(-1, 2 * len(group)).T
    return NormalEquations(band, eqs.h[:, list(group)])


def _dense_factors(eqs: NormalEquations, what: str = "stacked normal matrix"):
    """_dense_factor of each coordinate group of eqs, as (columns, factor)
    pairs.  A group holding every coordinate gathers the band and h entry
    for entry, so a coupled system factors exactly as the whole matrix.  A
    NaN counts as a coupling in _coordinate_groups, so it lands in the band
    of the group that gathers it, and a matrix not finite or not positive
    definite raises SingularSystemError naming what."""
    return [(list(g), _dense_factor(_group_equations(eqs, g), what))
            for g in _coordinate_groups(eqs.band)]


def _solve_groups(factors, h: np.ndarray) -> np.ndarray:
    """Solve with _dense_factors' factors, h (T, n_x): _back_substitute of
    each group's columns of h, scattered back into x's.  A group holding
    every column is passed h itself, which _back_substitute never writes."""
    x = np.empty(h.shape)
    for columns, c in factors:
        x[:, columns] = _back_substitute(c, h if len(columns) == h.shape[1] else h[:, columns])
    return x


def batch_x_affine(eqs: NormalEquations) -> np.ndarray:
    """Exact minimiser (T, n_x) of the affine subproblem eqs (band and h)."""
    return _solve_groups(_dense_factors(eqs), eqs.h)


DENSE: Engine = ("dense_factor", _dense_factors, _solve_groups)


def make_affine_x_solver():
    """x-update callable for the ADMM loop on an affine problem: the dense
    body, which runs an affine problem at lambda0 = 0 and factors its normal
    matrix once per (problem, gamma) into problem.kept's "dense_factor" slot."""
    return lambda problem, V, eta_bar, gamma, x_warm: lm_x_update(
        problem, V, eta_bar, gamma, x_warm, None, None, None, DENSE)


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
    smoothers.lm_x_update on DENSE, so the proposals are batch_lm_step's;
    an array or an Iterate x0 gives the same kind back."""
    return lm_x_update(problem, v, eta_bar, gamma, x0, cfg, trace, lambda_trace, DENSE)
