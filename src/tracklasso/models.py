"""Model containers and objectives for group-sparse dynamic state estimation.

The estimation problem couples a (possibly nonlinear) state-space model with
a sum of Euclidean-norm penalties on linearly transformed state increments

    sum_t sum_g mu_g * || G_g (x_t - B_t x_{t-1} - d_t) ||_2

State trajectories are arrays of shape (T, n_x), indexed 0..T-1.  Transition
quantities (A_t, b_t, Q_t, B_t, d_t) follow the convention that index t
describes the step from t-1 into t, so index 0 of those arrays is never
consulted; the prior (m1, P1) plays that role, and the first penalty
increment is fixed to u_0 = x_0 - m1.  Time-invariant inputs may be passed
as single matrices and are kept as zero-copy broadcast views of shape
(T, ...).

Every covariance block (Q, R, P1, and in the smoothers each fused block and
the damping metric) is factored by one rule, spd_factor, whose error names
the block: "<name> [at step t] is not positive definite".  A model owns
its arrays, read-only; its noise factors have one producer,
NoiseModel.noise_factors, read by validation, the assembly and the simulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.linalg.lapack import dtrtrs


class SingularSystemError(RuntimeError):
    """Raised when a symmetric positive definite factorisation fails.

    The message names the matrix that could not be factorised and, where
    available, the time step or iteration in which it was assembled.
    """


def time_invariant(arr: np.ndarray) -> bool:
    """True when the leading (time) axis of a stacked array is a broadcast view."""
    return arr.shape[0] == 1 or arr.strides[0] == 0


def compact(arr: np.ndarray) -> np.ndarray:
    """One step of a broadcast (time-invariant) stack, else the stack itself."""
    return arr[:1] if time_invariant(arr) else arr


def per_step(arr, T: int, core_ndim: int, name: str) -> np.ndarray:
    """Return a (T, ...) float view of ``arr``, broadcasting single-step input."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == core_ndim:
        return np.broadcast_to(arr, (T,) + arr.shape)
    if arr.ndim == core_ndim + 1:
        if arr.shape[0] != T:
            raise ValueError(f"{name}: leading axis must be {T}, got {arr.shape[0]}")
        return arr
    raise ValueError(f"{name}: expected {core_ndim} or {core_ndim + 1} axes, got {arr.ndim}")


def _cholesky_or_none(mats: np.ndarray) -> Optional[np.ndarray]:
    """Lower Cholesky factors when every block is finite and factors, else None."""
    if np.isfinite(mats).all():
        try:
            return np.linalg.cholesky(mats)
        except np.linalg.LinAlgError:
            pass
    return None


def spd_factor(mats, what: str, steps=None) -> np.ndarray:
    """Lower Cholesky factors of one (n, n) matrix or of a (k, n, n) stack.

    The one rule for whether a covariance block factors (only the lower
    triangle is read): a block that is not finite or not positive definite
    raises SingularSystemError, "<what> is not positive definite" for one
    matrix and "<what> at step <steps[i]> is not positive definite" for the
    first bad block i of a stack (steps defaults to 0..k-1), found by
    halving the stack.
    """
    mats = np.asarray(mats, dtype=float)
    L = _cholesky_or_none(mats)
    if L is not None:
        return L
    if mats.ndim == 2:
        raise SingularSystemError(f"{what} is not positive definite")
    lo, hi = 0, len(mats)  # blocks before lo factor; [lo, hi) holds a bad one
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _cholesky_or_none(mats[lo:mid]) is None else (mid, hi)
    raise SingularSystemError(f"{what} at step {lo if steps is None else steps[lo]} "
                              f"is not positive definite")


def _check_finite(arr: np.ndarray, name: str, start: int = 0, stepped: bool = True) -> None:
    """Raise ValueError naming arr and, for stacked input, its first non-finite
    step (a broadcast stack is checked once, as its first step)."""
    finite = np.isfinite(compact(arr[start:]) if stepped else arr)
    if finite.all():
        return
    if not stepped:
        raise ValueError(f"{name}: contains a non-finite value")
    t = start + int(np.argmin(finite.reshape(finite.shape[0], -1).all(axis=1)))
    raise ValueError(f"{name}: non-finite value at step {t}")


def _check_covariance(covs: np.ndarray, name: str, start: int = 0) -> None:
    """One matrix, or every step from start on of a stack (a broadcast stack
    once), must be finite and symmetric to 1e-8 relative; whether it is
    positive definite is noise_factors' check."""
    one = covs.ndim == 2
    _check_finite(covs, name, start, stepped=not one)
    if not one and time_invariant(covs):
        covs, one = covs[-1], True
    blocks = covs if one else covs[start:]
    scale = np.maximum(1.0, np.abs(blocks).max(axis=(-2, -1)))
    asym = np.abs(blocks - np.swapaxes(blocks, -1, -2)).max(axis=(-2, -1)) > 1e-8 * scale
    if asym.any():
        where = "" if one else f" at step {start + int(np.argmax(asym))}"
        raise ValueError(f"{name}{where} is not symmetric")


def freeze(arr: np.ndarray) -> np.ndarray:
    """Set a newly built array, which nothing else holds, read-only in place
    and return it."""
    arr.flags.writeable = False
    return arr


def owned(arr) -> np.ndarray:
    """arr as a float array that no write can change: arr itself when it and
    the array owning its memory are read-only (a model's own P1, Q and R, or
    an array its builder froze), else a read-only copy, of one block only
    when arr is a broadcast stack."""
    arr = np.asarray(arr, dtype=float)
    root = arr
    while isinstance(root.base, np.ndarray):
        root = root.base
    if not (arr.flags.writeable or root.flags.writeable):
        return arr
    if arr.ndim == 3 and time_invariant(arr):
        return np.broadcast_to(freeze(arr[0].copy()), arr.shape)
    return freeze(arr.copy())


def _half_weighted_sq(res: np.ndarray, L: np.ndarray) -> float:
    """0.5 * sum_t res_t' (L_t L_t')^{-1} res_t for a stack L of
    NoiseModel.noise_factors: one block for every row of res, or one per row.  A
    non-finite residual gives a nan or inf sum on both layouts."""
    if res.shape[0] == 0:
        return 0.0
    if len(L) == 1:
        # LAPACK reads the C-ordered L[0] as the upper factor U = L[0]', so
        # L[0] z = res' is U' z = res': the call scipy's solve_triangular makes
        z, info = dtrtrs(L[0].T, res.T, lower=0, trans=1)
        if info:  # a Cholesky factor has a positive diagonal, so never
            raise SingularSystemError(f"noise factor: dtrtrs returned info {info}")
    else:
        z = np.linalg.solve(L, res[..., None])
    return 0.5 * float((z * z).sum())


class NoiseModel:
    """What AffineModel and NonlinearModel share: the prior (m1, P1) and the
    noise stacks Q and R, owned and checked by one constructor step
    (_own_noise), and their factors and precisions, each computed once, on
    first use, and kept on the model, read-only like its P1, Q and R."""

    def _own_noise(self, T: int, validate: bool) -> None:
        """Set T, which must be a positive integer, own m1, P1 and the (T, ...)
        stacks Q and R (models.owned) and check their shapes; with validate,
        check m1, P1, the used steps of Q and R finite and symmetric
        (_check_covariance), then factor them (noise_factors)."""
        if not (isinstance(T, (int, np.integer)) and T >= 1):
            raise ValueError("T must be a positive step count")
        object.__setattr__(self, "T", int(T))
        m1, P1 = owned(self.m1), owned(self.P1)
        Q, R = per_step(owned(self.Q), T, 2, "Q"), per_step(owned(self.R), T, 2, "R")
        if m1.ndim != 1:
            raise ValueError(f"m1: expected one axis, got shape {m1.shape}")
        n = m1.shape[0]
        if P1.shape != (n, n):
            raise ValueError(f"P1: expected ({n}, {n}), got {P1.shape}")
        if Q.shape[1:] != (n, n):
            raise ValueError(f"Q: expected ({n}, {n}) blocks, got {Q.shape[1:]}")
        if R.shape[1] != R.shape[2]:
            raise ValueError(f"R: expected square blocks, got {R.shape[1:]}")
        for name, val in (("m1", m1), ("P1", P1), ("Q", Q), ("R", R)):
            object.__setattr__(self, name, val)
        if validate:
            _check_finite(m1, "m1", stepped=False)
            _check_covariance(P1, "P1")
            _check_covariance(Q, "Q", start=1 if T > 1 else 0)
            _check_covariance(R, "R")
            self.noise_factors  # factored now, so a bad block raises here

    @property
    def n_x(self) -> int:
        return self.m1.shape[0]

    @cached_property
    def noise_factors(self) -> tuple:
        """Lower Cholesky factors of P1 (as a one-step stack), of Q[1:] and of
        R, each stack compacted to one step when time-invariant, through
        spd_factor: a bad block raises "<P1|Q|R> at step t is not positive
        definite", with t counted as in the model."""
        return tuple(freeze(L) for L in (
            spd_factor(self.P1[None], "P1", [0]),
            spd_factor(compact(self.Q[1:]), "Q", range(1, self.T)),
            spd_factor(compact(self.R), "R", range(self.T))))

    @cached_property
    def noise_precisions(self) -> tuple:
        """P1^{-1} (1, n, n), Q[1:]^{-1} and R^{-1} in the layout of
        noise_factors, each L^{-T} L^{-1} of its factor L."""
        inverses = (np.linalg.inv(L) for L in self.noise_factors)
        return tuple(freeze(np.swapaxes(Li, -1, -2) @ Li) for Li in inverses)


@dataclass(frozen=True, eq=False)
class AffineModel(NoiseModel):
    """Affine Gaussian state-space model.

    x_t = A_t x_{t-1} + b_t + q_t,  q_t ~ N(0, Q_t),  t >= 1
    y_t = H_t x_t + e_t + r_t,      r_t ~ N(0, R_t),  t >= 0
    x_0 ~ N(m1, P1)

    A, b, Q entries at index 0 are never consulted.  With validate (the
    default) A, b, H and e must be finite and the noise model pass the
    check NonlinearModel also runs; linearisations skip both, and a bad
    noise block then raises on first use of noise_factors.  Every array
    passed in is held read-only and owned (models.owned): an input whose
    memory could still be written is copied once, only its block when it is
    broadcast (a linearisation's A, b, H and e are built for it alone).
    """

    A: np.ndarray
    b: np.ndarray
    H: np.ndarray
    e: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    m1: np.ndarray
    P1: np.ndarray
    T: Optional[int] = None
    validate: bool = True

    def __post_init__(self):
        T = self.T
        if T is None:
            for name, stacked_ndim in (("A", 3), ("Q", 3), ("H", 3), ("R", 3),
                                       ("b", 2), ("e", 2)):
                arr = np.asarray(getattr(self, name))
                if arr.ndim == stacked_ndim:
                    T = arr.shape[0]
                    break
            else:
                raise ValueError("T cannot be inferred; pass it explicitly")
        self._own_noise(T, self.validate)
        n = self.n_x
        A = per_step(owned(self.A), T, 2, "A")
        b = per_step(owned(self.b), T, 1, "b")
        H = per_step(owned(self.H), T, 2, "H")
        e = per_step(owned(self.e), T, 1, "e")
        if A.shape[1:] != (n, n):
            raise ValueError(f"A: expected ({n}, {n}) blocks, got {A.shape[1:]}")
        if b.shape[1] != n:
            raise ValueError(f"b: expected length-{n} blocks, got {b.shape[1]}")
        if H.shape[2] != n:
            raise ValueError(f"H: expected {n} columns, got {H.shape[2]}")
        if e.shape[1] != H.shape[1] or self.R.shape[1] != H.shape[1]:
            raise ValueError("e and R must match the measurement dimension of H")
        if self.validate:
            first = 1 if T > 1 else 0
            for name, val, start in (("A", A, first), ("b", b, first), ("H", H, 0),
                                     ("e", e, 0)):
                _check_finite(val, name, start)
        for name, val in (("A", A), ("b", b), ("H", H), ("e", e)):
            object.__setattr__(self, name, val)

    @property
    def n_y(self) -> int:
        return self.H.shape[1]

    @property
    def is_affine(self) -> bool:
        return True


@dataclass(frozen=True, eq=False)
class NonlinearModel(NoiseModel):
    """State-space model with time-stacked transition and measurement callables.

    Each callable evaluates k steps at once: it takes an int step array
    ``t`` of shape (k,) and the states ``X`` of shape (k, n_x) at those
    steps.  ``transition(t, X)`` maps each x_{t-1} to the mean of x_t
    (steps t >= 1) and returns (k, n_x); ``measurement(t, X)`` maps each x_t
    to the mean of y_t and returns (k, n_y); ``transition_jacobian`` and
    ``measurement_jacobian`` return (k, n_x, n_x) and (k, n_y, n_x).  A
    return value that broadcasts to its shape is accepted, so a constant
    Jacobian may be a single matrix; linearize keeps one as one block
    broadcast over T, so its products are taken once.  Construction first
    checks the noise model as AffineModel does (a finite m1; finite,
    symmetric, positive definite P1, Q and R), then calls each callable
    once, on every step it serves with the prior mean m1 as the state, and
    raises ValueError naming the callable whose output has the wrong shape
    or a non-finite value.  m1, P1, Q and R are owned and read-only, and
    their factors kept, as in a validated AffineModel.
    """

    transition: Callable[[np.ndarray, np.ndarray], np.ndarray]
    transition_jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    measurement: Callable[[np.ndarray, np.ndarray], np.ndarray]
    measurement_jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    Q: np.ndarray
    R: np.ndarray
    m1: np.ndarray
    P1: np.ndarray
    T: int = 0

    def __post_init__(self):
        self._own_noise(self.T, validate=True)
        n, n_y, m1, t = self.n_x, self.n_y, self.m1, np.arange(self.T)
        for name, steps, core in (("transition", t[1:], (n,)),
                                  ("transition_jacobian", t[1:], (n, n)),
                                  ("measurement", t, (n_y,)),
                                  ("measurement_jacobian", t, (n_y, n))):
            out = np.asarray(getattr(self, name)(steps, np.broadcast_to(m1, (len(steps), n))),
                             dtype=float)
            shape = (len(steps),) + core
            try:
                out = np.broadcast_to(out, shape)
            except ValueError:
                raise ValueError(f"{name} returned shape {out.shape} for {len(steps)} "
                                 f"steps, expected {shape}") from None
            ok = np.isfinite(out.reshape(len(steps), int(np.prod(core)))).all(axis=1)
            if not ok.all():
                raise ValueError(f"{name} returned a non-finite value at step "
                                 f"{steps[np.argmin(ok)]} with the state at m1")

    @property
    def n_y(self) -> int:
        return self.R.shape[1]

    @property
    def is_affine(self) -> bool:
        return False


Model = Union[AffineModel, NonlinearModel]

TARGET_MODES = ("state", "process_noise")  # what a GroupRegularizer penalty acts on


@dataclass(frozen=True, eq=False)
class GroupRegularizer:
    """Catalogue entry for the generalised group-lasso penalty.

    ``groups`` holds one (p_g, n_x) matrix per group, shared across time
    steps.  ``target_mode`` selects what the penalty acts on: "state" zeroes
    B_t and d_t so increments are plain states, "process_noise" aims at
    x_t - a_t(x_{t-1}) through the affine approximation of the transition.
    Explicit B ((n_x, n_x) or (T, n_x, n_x)) and d ((n_x,) or (T, n_x))
    arrays override the mode when given, d only with B; their index-0
    entries are never consulted, every other entry (and every group
    matrix's) must be finite, and TrackingProblem checks their shapes
    against its model.  weights (finite and
    nonnegative) and G_stack are read-only arrays of their own, and B and d
    are owned (models.owned), so no write by the caller reaches them.
    """

    groups: tuple
    weights: np.ndarray
    target_mode: str = "state"
    B: Optional[np.ndarray] = None
    d: Optional[np.ndarray] = None
    G_stack: np.ndarray = field(init=False, repr=False)
    slices: tuple = field(init=False, repr=False)

    def __post_init__(self):
        groups = tuple(np.asarray(g, dtype=float) for g in self.groups)
        if any(g.ndim != 2 for g in groups):
            raise ValueError("every group matrix must be two-dimensional")
        cols = {g.shape[1] for g in groups}
        if len(cols) > 1:
            raise ValueError("group matrices disagree on the state dimension")
        weights = np.array(self.weights, dtype=float, ndmin=1)
        if weights.shape == (1,) and len(groups) > 1:
            weights = np.full(len(groups), weights[0])
        if weights.shape != (len(groups),):
            raise ValueError("need one weight per group")
        if not np.isfinite(weights).all():
            raise ValueError("weights: group weights must be finite")
        # zero is allowed so a penalty can be switched off per group
        if np.any(weights < 0):
            raise ValueError("group weights must be nonnegative")
        if self.target_mode not in TARGET_MODES:
            raise ValueError(f"unknown target mode {self.target_mode!r}")
        n_x = cols.pop() if cols else 0
        stack = np.concatenate(groups, axis=0) if groups else np.zeros((0, n_x))
        if not math.isfinite(stack.sum()):  # a finite sum that overflows only takes the scan
            for i, g in enumerate(groups):
                _check_finite(g, f"groups[{i}]", stepped=False)
        B = None if self.B is None else owned(self.B)
        d = None if self.d is None else owned(self.d)
        if B is None and d is not None:
            raise ValueError("d: an explicit d needs an explicit B")
        for name, arr, core_ndim in (("B", B, 2), ("d", d, 1)):
            if arr is not None:
                _check_finite(arr, name, start=1, stepped=arr.ndim > core_ndim)
        slices, offset = [], 0
        for g in groups:
            slices.append(slice(offset, offset + g.shape[0]))
            offset += g.shape[0]
        for name, val in (("groups", groups), ("weights", freeze(weights)),
                          ("G_stack", freeze(stack)), ("slices", tuple(slices)),
                          ("B", B), ("d", d)):
            object.__setattr__(self, name, val)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def n_x(self) -> int:
        return self.G_stack.shape[1]

    @property
    def total_rows(self) -> int:
        return self.G_stack.shape[0]

    def penalty_rows(self, V: np.ndarray) -> np.ndarray:
        """G v_t for each row v_t of V, (..., total_rows); (..., 0) with no
        groups, whose G_stack is (0, 0) whatever the state dimension."""
        return V @ self.G_stack.T if self.groups else np.zeros(V.shape[:-1] + (0,))

    def group_norms(self, rows: np.ndarray) -> np.ndarray:
        """Per-group Euclidean norms of stacked penalty rows, shape (T, n_groups)."""
        out = np.empty(rows.shape[:-1] + (self.n_groups,))
        for g, sl in enumerate(self.slices):
            out[..., g] = np.linalg.norm(rows[..., sl], axis=-1)
        return out


def _difference_matrix(n_x: int) -> np.ndarray:
    D = np.zeros((n_x - 1, n_x))
    idx = np.arange(n_x - 1)
    D[idx, idx] = -1.0
    D[idx, idx + 1] = 1.0
    return D


REGULARIZER_KINDS = ("l2", "lasso", "iso_tv", "aniso_tv", "fused", "group", "sparse_group")
GROUPED_KINDS = ("group", "sparse_group")  # the kinds built on index sets


def make_regularizer(kind: str, n_x: int, groups: Optional[Sequence[Sequence[int]]] = None,
                     weights=1.0, target_mode: str = "state") -> GroupRegularizer:
    """Build a named penalty structure.

    Kinds: ``l2`` (one identity group), ``lasso`` (one row selector per
    component), ``iso_tv`` (all forward differences as a single group),
    ``aniso_tv`` (each forward difference its own group), ``fused`` (lasso
    rows plus anisotropic difference rows), ``group`` (selector blocks over
    the given 0-based index sets), ``sparse_group`` (lasso rows plus the
    selector blocks).  Index sets given to another kind raise ValueError.
    """
    if n_x < 1:
        raise ValueError("n_x must be positive")
    eye = np.eye(n_x)

    def selector(idx):
        idx = list(idx)
        if len(idx) == 0:
            raise ValueError("group index sets must be nonempty")
        if len(set(idx)) != len(idx):
            raise ValueError("group index sets must not repeat components")
        if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in idx):
            raise ValueError(f"group indices must be integers, got {idx}")
        if any(i < 0 or i >= n_x for i in idx):
            raise ValueError(f"group indices must lie in [0, {n_x})")
        return eye[idx]

    if kind == "l2":
        mats = [eye]
    elif kind == "lasso":
        mats = [eye[i:i + 1] for i in range(n_x)]
    elif kind == "iso_tv":
        if n_x < 2:
            raise ValueError("iso_tv needs n_x >= 2")
        mats = [_difference_matrix(n_x)]
    elif kind == "aniso_tv":
        if n_x < 2:
            raise ValueError("aniso_tv needs n_x >= 2")
        D = _difference_matrix(n_x)
        mats = [D[i:i + 1] for i in range(n_x - 1)]
    elif kind == "fused":
        if n_x < 2:
            raise ValueError("fused needs n_x >= 2")
        D = _difference_matrix(n_x)
        mats = [eye[i:i + 1] for i in range(n_x)] + [D[i:i + 1] for i in range(n_x - 1)]
    elif kind == "group":
        if not groups:
            raise ValueError("kind 'group' needs explicit index sets")
        mats = [selector(idx) for idx in groups]
    elif kind == "sparse_group":
        if not groups:
            raise ValueError("kind 'sparse_group' needs explicit index sets")
        mats = [eye[i:i + 1] for i in range(n_x)] + [selector(idx) for idx in groups]
    else:
        raise ValueError(f"unknown regularizer kind {kind!r}")
    if groups is not None and kind not in GROUPED_KINDS:
        raise ValueError(f"groups: kind {kind!r} takes no index sets")
    return GroupRegularizer(groups=tuple(mats), weights=weights, target_mode=target_mode)


def frozen_steps(block: np.ndarray, T: int) -> np.ndarray:
    """A new block, which nothing else holds, frozen and repeated over T as
    np.broadcast_to's read-only view, built directly (3 us faster)."""
    block = freeze(block)
    return np.ndarray((T,) + block.shape, buffer=block, strides=(0,) + block.strides)


def jacobian_stack(out, T: int, first: int, core: tuple) -> np.ndarray:
    """A Jacobian callable's output for steps first..T-1 as a (T,) + core
    stack: a single matrix as one frozen block broadcast over T, so that
    compact sees it as time-invariant, else a copy behind zero steps."""
    out = np.asarray(out, dtype=float)
    if out.shape == core:
        return frozen_steps(out.copy(), T)
    stack = np.zeros((T,) + core)
    stack[first:] = out
    return stack


class Iterate:
    """A trajectory x (T, n_x) of problem, never written, with what a solve
    reads at it, each computed on first use and kept: a nonlinear model's
    a = a_t(x_{t-1}) (t >= 1) and h = h_t(x_t), one call of each callable,
    the transition linearisation Jd (on a) and the data cost."""

    __slots__ = ("problem", "x", "_a", "_h", "_Jd", "_data")

    def __init__(self, problem: TrackingProblem, x: np.ndarray):
        self.problem, self.x = problem, x
        self._a = self._h = self._Jd = self._data = None

    @property
    def a(self) -> np.ndarray:
        if self._a is None:
            self._a = self.problem.model.transition(np.arange(1, self.problem.T), self.x[:-1])
        return self._a

    @property
    def h(self) -> np.ndarray:
        if self._h is None:
            self._h = self.problem.model.measurement(np.arange(self.problem.T), self.x)
        return self._h

    @property
    def Jd(self):
        if self._Jd is None:
            self._Jd = transition_linearization(self.problem.model, self.x, self.a)
        return self._Jd

    @property
    def data(self) -> float:
        if self._data is None:
            self._data = data_cost(self.problem, self)
        return self._data


def transition_linearization(model: NonlinearModel, nominal: np.ndarray,
                             a: Optional[np.ndarray] = None):
    """Affine expansion (J, d) of the transition about a nominal trajectory.

    J_t = J_a(t, nominal_{t-1}) and d_t = a_t(nominal_{t-1}) - J_t nominal_{t-1},
    evaluated for all steps at once; shapes (T, n_x, n_x) and (T, n_x), with
    zero placeholders at index 0 (a constant J is one block, jacobian_stack).
    a is the transition at nominal (steps 1..T-1), if the caller holds it.
    """
    nominal = np.asarray(nominal, dtype=float)
    T, n = model.T, model.n_x
    t, X = np.arange(1, T), nominal[:-1]
    J = jacobian_stack(model.transition_jacobian(t, X), T, 1, (n, n))
    d = np.zeros((T, n))
    d[1:] = (model.transition(t, X) if a is None else a) - (J[1:] @ X[..., None])[..., 0]
    return J, d


def sparsity_target(model: Model, mode: str, nominal=None):
    """Per-step (B, d) defining the penalised increment x_t - B_t x_{t-1} - d_t.

    ``state`` returns zeros.  ``process_noise`` returns (A_t, b_t) for affine
    models; for nonlinear models it linearises the transition about the
    nominal trajectory, B_t = J_a(t, nominal_{t-1}) and
    d_t = a_t(nominal_{t-1}) - B_t nominal_{t-1} (an Iterate nominal's Jd).
    Index-0 entries are placeholders; consumers substitute the prior mean there.
    """
    T, n = model.T, model.n_x
    if mode == "state":
        return frozen_steps(np.zeros((n, n)), T), frozen_steps(np.zeros(n), T)
    if mode != "process_noise":
        raise ValueError(f"unknown sparsity mode {mode!r}")
    if isinstance(model, AffineModel):
        return model.A, model.b
    if nominal is None:
        raise ValueError("process_noise targets for a nonlinear model need a nominal trajectory")
    return nominal.Jd if isinstance(nominal, Iterate) else transition_linearization(model, nominal)


def keep(kept: dict, slot: str, key, build: Callable):
    """The one rule of every per-(problem, gamma) part: kept[slot] holds
    (key, build()), built on first use and again whenever key differs from
    the key it was built for; returns the built value."""
    entry = kept.get(slot)
    if entry is None or entry[0] != key:
        entry = kept[slot] = (key, build())
    return entry[1]


@dataclass(frozen=True, eq=False)
class TrackingProblem:
    """A model, a group penalty, and the observed measurement sequence.

    y is owned (models.owned), so, with the model's and the penalty's own
    arrays, nothing the x updates keep per (problem, gamma) on kept (one
    slot per engine, models.keep) can go stale; run_madmm clears kept when
    it returns or raises.
    """

    model: Model
    reg: GroupRegularizer
    y: np.ndarray
    kept: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        y = owned(self.y)
        if y.ndim != 2:
            raise ValueError("y must have shape (T, n_y)")
        if y.shape[0] != self.model.T:
            raise ValueError(f"y has {y.shape[0]} steps, model has {self.model.T}")
        if y.shape[1] != self.model.n_y:
            raise ValueError("y disagrees with the model measurement dimension")
        _check_finite(y, "y")
        if self.reg.n_groups and self.reg.n_x != self.model.n_x:
            raise ValueError("penalty matrices disagree with the state dimension")
        if self.reg.B is not None:  # per_step checks the axes of B and d, then their blocks
            for name, arr in zip("Bd", self.penalty_targets()):
                block = (self.n_x,) * (arr.ndim - 1)
                if arr.shape[1:] != block:
                    raise ValueError(f"{name}: expected {block} blocks, got {arr.shape[1:]}")
        object.__setattr__(self, "y", y)

    @property
    def T(self) -> int:
        return self.model.T

    @property
    def n_x(self) -> int:
        return self.model.n_x

    @property
    def is_affine(self) -> bool:
        return self.model.is_affine

    def penalty_targets(self, nominal=None):
        """(B, d) arrays used by the penalty, nominal a trajectory or an
        Iterate (sparsity_target); index 0 is never consulted."""
        if self.reg.B is not None:
            T, n = self.T, self.n_x
            return (per_step(self.reg.B, T, 2, "B"),
                    per_step(self.reg.d if self.reg.d is not None else np.zeros(n), T, 1, "d"))
        return sparsity_target(self.model, self.reg.target_mode, nominal)

    def u(self, x: np.ndarray, targets=None) -> np.ndarray:
        """Penalised increments u_t; u_0 = x_0 - m1 regardless of targets."""
        x = np.asarray(x, dtype=float)
        if targets is None:
            targets = self.penalty_targets(nominal=x)
        B, d = targets
        out = np.empty_like(x)
        out[0] = x[0] - self.model.m1
        if x.shape[0] > 1:
            out[1:] = x[1:] - _apply(B[1:], x[:-1]) - d[1:]
        return out


def _apply(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M_t x_t for every step: one product when the stack M is one block."""
    if len(M) and time_invariant(M):
        return x @ M[0].T
    return np.einsum("tij,tj->ti", M, x)


def prior_mean_trajectory(model: Model) -> np.ndarray:
    """Deterministic trajectory from propagating the prior mean, used as a default start."""
    x = np.empty((model.T, model.n_x))
    x[0] = model.m1
    if isinstance(model, AffineModel):
        for t in range(1, model.T):
            x[t] = model.A[t] @ x[t - 1] + model.b[t]
    else:
        for t in range(1, model.T):
            x[t:t + 1] = model.transition(np.array([t]), x[t - 1:t])
    return x


def data_cost(problem: TrackingProblem, x) -> float:
    """Quadratic data terms: measurement, transition, and prior misfit.

    The residuals are y_t - h_t(x_t), x_0 - m1 and x_t - a_t(x_{t-1}), with
    a nonlinear model's h and a read from x when it is an Iterate of problem
    (whose data keeps the cost), else from one call of each.  A non-finite x
    raises ValueError "x: non-finite value at step t", on either noise
    layout, so no cost built on this one returns nan for it.  A finite x
    whose residual is not finite (a nonlinear callable that overflows there,
    or a NaN in b or e of a model built with validate=False) gives a nan or
    inf cost on either layout, which the Levenberg-Marquardt accept test
    reads as a rejected proposal.
    """
    it = x if isinstance(x, Iterate) else Iterate(problem, np.asarray(x, dtype=float))
    model, x = problem.model, it.x
    _check_finite(x, "x")
    r_dyn = np.empty_like(x)
    r_dyn[0] = x[0] - model.m1
    if model.is_affine:
        r_meas = problem.y - _apply(model.H, x) - model.e
        r_dyn[1:] = x[1:] - _apply(model.A[1:], x[:-1]) - model.b[1:]
    else:
        r_meas = problem.y - it.h
        r_dyn[1:] = x[1:] - it.a
    P1_f, Q_f, R_f = model.noise_factors
    cost = _half_weighted_sq(r_meas, R_f)
    cost += _half_weighted_sq(r_dyn[:1], P1_f)
    cost += _half_weighted_sq(r_dyn[1:], Q_f)
    return cost


def penalty_value(problem: TrackingProblem, x: np.ndarray,
                  U: Optional[np.ndarray] = None) -> float:
    """sum_t sum_g mu_g ||G_g u_t||_2 evaluated at x (U = problem.u(x) if given)."""
    reg = problem.reg
    if reg.n_groups == 0:
        return 0.0
    if U is None:
        U = problem.u(x)
    norms = reg.group_norms(reg.penalty_rows(U))
    return float((norms @ reg.weights).sum())


def objective(problem: TrackingProblem, x: np.ndarray, data: Optional[float] = None,
              U: Optional[np.ndarray] = None) -> float:
    """Regularised estimation objective at trajectory x.

    In process_noise mode the penalty targets are linearised about x itself,
    which makes the penalised increment the exact transition residual.
    run_madmm passes the data = data_cost(problem, x) and U = problem.u(x)
    it holds; the value is the same bit for bit.
    """
    if data is None:
        data = data_cost(problem, x)
    return data + penalty_value(problem, x, U)


def x_subproblem_cost(problem: TrackingProblem, x, v: np.ndarray, eta_bar: np.ndarray,
                      gamma: float, targets=None) -> float:
    """Data terms plus the quadratic coupling gamma/2 ||u(x) - v + eta_bar/gamma||^2.

    This is the objective the x update minimises at fixed (v, eta).  With
    gamma = 0 the coupling vanishes and the plain data cost is returned.  x
    is a trajectory or an Iterate of problem, whose kept values serve.
    """
    it = x if isinstance(x, Iterate) else Iterate(problem, np.asarray(x, dtype=float))
    cost = it.data
    if gamma > 0:
        U = problem.u(it.x, problem.penalty_targets(nominal=it) if targets is None else targets)
        diff = U - v + eta_bar / gamma
        cost += 0.5 * gamma * float((diff * diff).sum())
    return cost


@dataclass(eq=False)
class SplitState:
    """Primal and dual variables of the split problem, never written once built.

    eta packs the multipliers as (T, n_x + total_rows): the first n_x
    columns pair with u - v, the rest pair with w - G v.
    """

    x: np.ndarray
    w: np.ndarray
    v: np.ndarray
    eta: np.ndarray
    n_x: int

    @property
    def eta_bar(self) -> np.ndarray:
        return self.eta[:, :self.n_x]

    @property
    def eta_under(self) -> np.ndarray:
        return self.eta[:, self.n_x:]

    @classmethod
    def feasible(cls, x0: Iterate) -> "SplitState":
        """Feasible start at the Iterate x0 (x is x0.x): v = u(x0), w = G v, eta = 0."""
        problem = x0.problem
        U = problem.u(x0.x, problem.penalty_targets(nominal=x0))
        V = U.copy()
        W = problem.reg.penalty_rows(V)
        eta = np.zeros((problem.T, problem.n_x + problem.reg.total_rows))
        return cls(x=x0.x, w=W, v=V, eta=eta, n_x=problem.n_x)


def constraint_gaps(U: np.ndarray, W: np.ndarray, V: np.ndarray,
                    reg: GroupRegularizer) -> Tuple[np.ndarray, np.ndarray]:
    """The split's constraint residuals (u - v, w - G v), each (T, rows)."""
    return U - V, W - reg.penalty_rows(V)


def augmented_lagrangian(problem: TrackingProblem, state: SplitState, gamma: float,
                         data: Optional[float] = None, gaps=None) -> float:
    """Value of the augmented Lagrangian at the given split state.

    run_madmm passes the data = data_cost(problem, state.x) and
    gaps = constraint_gaps(problem.u(state.x), state.w, state.v, reg) it
    holds; the value is the same bit for bit.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    reg = problem.reg
    if data is None:
        data = data_cost(problem, state.x)
    if gaps is None:
        gaps = constraint_gaps(problem.u(state.x), state.w, state.v, reg)
    ru, rw = gaps
    w_norms = reg.group_norms(state.w)
    value = data + float((w_norms @ reg.weights).sum())
    value += float((state.eta_bar * ru).sum()) + 0.5 * gamma * float((ru * ru).sum())
    value += float((state.eta_under * rw).sum()) + 0.5 * gamma * float((rw * rw).sum())
    return value
