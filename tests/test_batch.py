"""Dense stacked solvers for the x subproblem."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import dtfttr, dtrttf
from scipy.optimize import minimize

from tracklasso import batch
from tracklasso.batch import (
    LMConfig,
    batch_lm_step,
    batch_nonlinear_solve,
    batch_x_affine,
    make_affine_x_solver,
    normal_system,
    stack_problem,
)
from tracklasso.models import (
    AffineModel,
    Iterate,
    NonlinearModel,
    SingularSystemError,
    TrackingProblem,
    make_regularizer,
    prior_mean_trajectory,
    x_subproblem_cost,
)
from tracklasso.scenarios import (scenario_defaults, simulate_coordinated_turn, simulate_range,
                                  simulate_wiener, solver_settings)
from tracklasso.smoothers import (NormalEquations, _band, augmented_ks, gauss_newton, linearize,
                                  static_part)
from tracklasso.solve import make_x_solver
from tracklasso.verify import random_affine_problem


def quadratic_problem():
    """T=1 scalar model with h(x) = x^2; GN/LM steps are hand-derivable."""
    model = NonlinearModel(
        transition=lambda t, x: x,
        transition_jacobian=lambda t, x: np.eye(1),
        measurement=lambda t, x: np.array([x[0] ** 2]),
        measurement_jacobian=lambda t, x: np.array([[2.0 * x[0]]]),
        Q=np.eye(1), R=np.eye(1), m1=np.array([0.5]), P1=np.eye(1), T=1)
    reg = make_regularizer("l2", 1, weights=0.0)
    return TrackingProblem(model=model, reg=reg, y=np.array([[2.0]]))


def test_gn_step_hand_value():
    # undamped step; linearise x^2 at x0=1: H=2, e=-1; (H^2+1)x = H(y-e)+m1 -> 1.3
    prob = quadratic_problem()
    z = np.zeros((1, 1))
    x1 = batch_lm_step(prob, np.array([[1.0]]), z, z, 0.0, lam=0.0)
    np.testing.assert_allclose(x1, [[1.3]], rtol=1e-12)


def test_lm_step_hand_value():
    # lam=1, S=I adds (x-x0) to the normal equations -> 1.25
    prob = quadratic_problem()
    z = np.zeros((1, 1))
    x1 = batch_lm_step(prob, np.array([[1.0]]), z, z, 0.0, lam=1.0)
    np.testing.assert_allclose(x1, [[1.25]], rtol=1e-12)


def test_heavy_damping_freezes_iterate():
    prob = quadratic_problem()
    z = np.zeros((1, 1))
    x0 = np.array([[1.0]])
    x1 = batch_lm_step(prob, x0, z, z, 0.0, lam=1e12)
    np.testing.assert_allclose(x1, x0, atol=1e-9)


def test_nonlinear_solve_gn_trace():
    prob = quadratic_problem()
    z = np.zeros((1, 1))
    trace = []
    batch_nonlinear_solve(prob, z, z, 0.0,
                          cfg=LMConfig(lambda0=0.0, i_max=1), x0=np.array([[1.0]]),
                          trace=trace)
    assert len(trace) == 2
    np.testing.assert_allclose(trace[0], [[1.0]])
    np.testing.assert_allclose(trace[1], [[1.3]], rtol=1e-12)


def test_nonlinear_solve_lm_accepts_and_relaxes():
    # theta drops from 0.625 to ~0.377, so the first proposal is accepted
    # and lambda is divided by alpha
    prob = quadratic_problem()
    z = np.zeros((1, 1))
    lambdas = []
    x = batch_nonlinear_solve(prob, z, z, 0.0,
                              cfg=LMConfig(lambda0=1.0, alpha=10.0, i_max=1),
                              x0=np.array([[1.0]]), lambda_trace=lambdas)
    np.testing.assert_allclose(x, [[1.25]], rtol=1e-12)
    assert lambdas[-1] == pytest.approx(0.1)


def test_nonlinear_solve_converges_to_stationary_point():
    prob = quadratic_problem()
    z = np.zeros((1, 1))
    x = batch_nonlinear_solve(prob, z, z, 0.0,
                              cfg=LMConfig(lambda0=0.0, i_max=50, step_tol=1e-12),
                              x0=np.array([[1.0]]))
    # stationarity of 0.5(2 - x^2)^2 + 0.5(x - 0.5)^2
    g = -2.0 * x[0, 0] * (2.0 - x[0, 0] ** 2) + (x[0, 0] - 0.5)
    assert abs(g) < 1e-8


@pytest.mark.parametrize("scenario,mode", [("range", "state"),
                                           ("coordinated_turn", "process_noise")])
@pytest.mark.parametrize("lambda0", [0.0, 1e-2])
def test_dense_lm_solve_is_gauss_newton_over_batch_lm_step(scenario, mode, lambda0):
    """batch_nonlinear_solve (the shared LM body with the dense solve) gives
    the iterates of gauss_newton driven by batch_lm_step proposals, the
    dense one-step oracle, bit for bit: undamped, and damped in an s_cov
    metric."""
    simulate = {"range": simulate_range, "coordinated_turn": simulate_coordinated_turn}[scenario]
    data, model = simulate(scenario_defaults(scenario, T=15, seed=2))
    s = solver_settings(scenario)
    reg = make_regularizer(s["regularizer"], model.n_x, groups=s["groups"], weights=1.0,
                           target_mode=mode)
    prob = TrackingProblem(model=model, reg=reg, y=data.y)
    rng = np.random.default_rng(4)
    V, eta = 0.1 * rng.normal(size=(2, prob.T, prob.n_x))
    s_cov = np.diag(np.linspace(0.5, 2.0, prob.n_x)) if lambda0 > 0 else None
    cfg = LMConfig(lambda0=lambda0, i_max=4, step_tol=0.0, s_cov=s_cov)
    x0 = prior_mean_trajectory(model)
    trace, lam = [], []
    x = batch_nonlinear_solve(prob, V, eta, 0.8, cfg=cfg, x0=x0, trace=trace, lambda_trace=lam)

    def propose(x, targets, damping):
        return batch_lm_step(prob, x.x, V, eta, 0.8, damping, s_cov)

    def cost(x, targets):
        return x_subproblem_cost(prob, x.x, V, eta, 0.8, targets)

    ref_trace, ref_lam = [], []
    ref = TrackingProblem(model=model, reg=reg, y=data.y)
    x_ref = gauss_newton(ref, propose, Iterate(ref, x0), cost, cfg, ref_trace, ref_lam).x
    assert len(trace) > 1 and lam == ref_lam
    np.testing.assert_array_equal(x, x_ref)
    for got, want in zip(trace, ref_trace, strict=True):
        np.testing.assert_array_equal(got, want)


def test_stack_problem_shapes():
    # the dense system is the block-tridiagonal normal equations unpacked
    # (the lower triangle stored, the upper its mirror), and a damped dense
    # step solves NormalEquations.damped
    from tracklasso.batch import normal_system

    rng = np.random.default_rng(3)
    T, n = 6, 3
    prob = random_affine_problem(rng, T=T, n_x=n, n_y=2)
    V = rng.normal(size=(T, n))
    eta = rng.normal(size=(T, n))
    eqs = stack_problem(prob, V, eta, 0.7)
    R, rhs = normal_system(eqs)
    M = dense(R)
    assert M.shape == (T * n, T * n) and rhs.shape == (T * n,)
    # the band holds the lower triangles of the blocks D[t], whose dropped
    # upper triangles are their lower ones to rounding
    model = prob.model
    steps = replace(model, A=np.array(model.A), Q=np.array(model.Q))  # static_part at all T
    D, E = static_part(steps, np.array(prob.penalty_targets()[0]), 0.7)
    D += np.swapaxes(model.H, 1, 2) @ np.linalg.inv(model.R) @ model.H
    np.testing.assert_allclose(D, np.swapaxes(D, 1, 2), rtol=0, atol=1e-12)
    np.testing.assert_allclose(eqs.band, _band(E, D), rtol=1e-14, atol=0)
    np.testing.assert_array_equal(M, M.T)
    np.testing.assert_array_equal(rhs, eqs.h.ravel())
    blocks = M.reshape(T, n, T, n).transpose(0, 2, 1, 3)  # blocks[t, s]: block (t, s)
    cols = eqs.band.T.reshape(T, n, 2 * n)  # cols[t, c]: column c of block column t
    for t in range(T):
        for c in range(n):
            np.testing.assert_array_equal(blocks[t, t, c:, c], cols[t, c, :n - c])
            if t < T - 1:
                np.testing.assert_array_equal(blocks[t + 1, t, :, c], cols[t, c, n - c:2 * n - c])
    steps = np.arange(T)
    assert not blocks[np.abs(steps[:, None] - steps) > 1].any()

    x = rng.normal(size=(T, n))
    S = rng.normal(size=(n, n))
    s_cov = S @ S.T + n * np.eye(n)
    got = batch_lm_step(prob, x, V, eta, 0.7, lam=0.3, s_cov=s_cov)
    R, rhs = normal_system(eqs.damped(0.3, np.linalg.inv(s_cov)[None], x))
    np.testing.assert_allclose(got.ravel(), np.linalg.solve(dense(R), rhs), rtol=1e-10)


@pytest.mark.parametrize("target_mode", ["state", "process_noise"])
def test_batch_affine_minimises_subproblem(target_mode):
    # scipy minimising the cost function is an independent check on the
    # normal-equation assembly
    rng = np.random.default_rng(11)
    prob = random_affine_problem(rng, T=5, n_x=2, n_y=2, kind="l2",
                                 target_mode=target_mode)
    gamma = 0.8
    V = rng.normal(size=(5, 2))
    eta = rng.normal(size=(5, 2))
    x_hat = batch_x_affine(stack_problem(prob, V, eta, gamma))

    def cost(flat):
        return x_subproblem_cost(prob, flat.reshape(5, 2), V, eta, gamma)

    res = minimize(cost, x_hat.ravel() + 0.5, method="BFGS",
                   options=dict(gtol=1e-12, maxiter=500))
    np.testing.assert_allclose(x_hat.ravel(), res.x, atol=1e-5)
    assert cost(x_hat.ravel()) <= res.fun + 1e-10


def test_batch_affine_gamma_zero_is_unregularised_fit():
    rng = np.random.default_rng(4)
    prob = random_affine_problem(rng, T=7, n_x=2, n_y=1, kind="l2")
    z = np.zeros((7, 2))
    x_hat = batch_x_affine(stack_problem(prob, z, z, 0.0))

    def cost(flat):
        return x_subproblem_cost(prob, flat.reshape(7, 2), z, z, 0.0)

    res = minimize(cost, x_hat.ravel() + 0.3, method="BFGS",
                   options=dict(gtol=1e-12, maxiter=500))
    assert cost(x_hat.ravel()) <= res.fun + 1e-10


def test_affine_x_solver_never_serves_a_dropped_problem():
    # one cached solver over many short-lived problems: a new problem may
    # reuse a freed one's id, and must still get its own solution
    from tracklasso.batch import make_affine_x_solver

    solver = make_affine_x_solver()
    rng = np.random.default_rng(8)
    for i in range(40):
        prob = random_affine_problem(rng, T=6, n_x=2, n_y=1)
        V = rng.normal(size=(6, 2))
        eta = rng.normal(size=(6, 2))
        want = batch_x_affine(stack_problem(prob, V, eta, 1.0))
        got = solver(prob, V, eta, 1.0, None)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12,
                                   err_msg=f"problem {i}")
        del prob


def test_ks_x_solver_never_serves_a_dropped_problem():
    # the smoother engine keeps its band factor under the same rule
    from tracklasso.smoothers import augmented_ks, normal_equations
    from tracklasso.solve import make_x_solver

    solver = make_x_solver("ks_madmm")
    rng = np.random.default_rng(8)
    for i in range(40):
        prob = random_affine_problem(rng, T=6, n_x=2, n_y=1)
        V = rng.normal(size=(6, 2))
        eta = rng.normal(size=(6, 2))
        B, d = prob.penalty_targets()
        want = augmented_ks(normal_equations(prob.model, prob.y, B, d, V, eta, 1.0))
        got = solver(prob, V, eta, 1.0, None)
        np.testing.assert_array_equal(got, want, err_msg=f"problem {i}")
        del prob


def test_dense_factor_names_a_bad_noise_matrix():
    """Each noise block is factored before stacking, so the dense path
    names the bad matrix and its step as the smoother path does."""
    bad = np.diag([1.0, -1.0])
    Q_steps, R_steps = np.tile(np.eye(2), (2, 5, 1, 1))
    Q_steps[2], R_steps[3] = bad, bad
    for noise, match in ((dict(R=bad), "R at step 0 "),
                         (dict(R=R_steps), "R at step 3 "),
                         (dict(Q=bad), "Q at step 1 "),
                         (dict(Q=Q_steps), "Q at step 2 "),
                         (dict(P1=-np.eye(2)), "P1 at step 0 ")):
        kw = dict(Q=np.eye(2), R=np.eye(2), P1=np.eye(2)) | noise
        model = AffineModel(A=np.eye(2), b=np.zeros(2), H=np.eye(2), e=np.zeros(2),
                            m1=np.zeros(2), T=5, validate=False, **kw)
        prob = TrackingProblem(model=model, reg=make_regularizer("l2", 2), y=np.zeros((5, 2)))
        z = np.zeros((5, 2))
        with pytest.raises(SingularSystemError, match=f"^{match}is not positive definite$"):
            batch_x_affine(stack_problem(prob, z, z, 1.0))


def random_spd_blocks(rng, T, n):
    """Blocks D (T, n, n) and E (T - 1, n, n) of a block-tridiagonal matrix
    L L' for a random lower block-bidiagonal L, so it is symmetric positive
    definite, and a right-hand side h (T, n)."""
    Ld = np.tril(rng.normal(size=(T, n, n)), -1) + np.eye(n) * rng.uniform(0.5, 2.0, size=(T, 1, n))
    Ls = rng.normal(size=(T - 1, n, n))
    D = Ld @ np.swapaxes(Ld, 1, 2)
    D[1:] += Ls @ np.swapaxes(Ls, 1, 2)
    E = -Ls @ np.swapaxes(Ld[:-1], 1, 2)
    return D, E, rng.normal(size=(T, n))


def random_spd_equations(rng, T, n):
    """NormalEquations of random_spd_blocks: their band and h."""
    D, E, h = random_spd_blocks(rng, T, n)
    return NormalEquations(_band(E, D), h)


def lower(R):
    """The lower triangle an RFP array in normal_system's layout holds, (N', N')."""
    L, info = dtfttr(R.shape[1] - 1, R.ravel(order="F"), transr="T", uplo="L")
    assert info == 0
    return np.tril(L)


def dense(R):
    """The symmetric matrix whose lower triangle R holds."""
    L = lower(R)
    return L + np.tril(L, -1).T


def assert_solves(x, eqs):
    R, rhs = normal_system(eqs)
    want = np.linalg.solve(dense(R), rhs)
    assert want[x.size:].tolist() == [0.0] * (want.size - x.size)  # the padded unknown
    want = want[:x.size]
    assert np.linalg.norm(x.ravel() - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("T,n", [(6, 2), (5, 3), (1, 1), (1, 4), (2, 3), (3, 5)])
def test_normal_system_is_dtrttf_of_the_lower_triangle(T, n):
    """normal_system stores, bit for bit, what LAPACK's dtrttf (TRANSR = 'T',
    UPLO = 'L') packs from the dense lower triangle of D[t] on the diagonal
    blocks and -E[t] below them; an odd order T n_x is padded with one unit
    diagonal entry and a zero right-hand side."""
    D, E, h = random_spd_blocks(np.random.default_rng(T * n), T, n)
    eqs = NormalEquations(_band(E, D), h)
    N = T * n
    N_even = N + N % 2
    M = np.zeros((N_even, N_even))
    M[N:, N:] = 1.0
    for t in range(T):
        M[t * n:(t + 1) * n, t * n:(t + 1) * n] = D[t]
    for t in range(T - 1):
        M[(t + 1) * n:(t + 2) * n, t * n:(t + 1) * n] = -E[t]
    arf, info = dtrttf(np.tril(M), transr="T", uplo="L")
    assert info == 0
    R, rhs = normal_system(eqs)
    assert R.shape == (N_even // 2, N_even + 1) and R.flags.f_contiguous
    np.testing.assert_array_equal(R.ravel(order="F"), arf)
    np.testing.assert_array_equal(rhs, np.concatenate([eqs.h.ravel(), np.zeros(N_even - N)]))


@pytest.mark.parametrize("seed", range(4))
def test_back_substitute_solves_the_normal_system(seed):
    """The two triangular solves against the dense factor give the solution
    of normal_system's matrix, on random SPD equations, the affine
    subproblem and a damped LM step."""
    rng = np.random.default_rng(seed)
    T, n = 7, 3
    eqs = random_spd_equations(rng, T, n)
    assert_solves(batch._back_substitute(batch._dense_factor(eqs, "m"), eqs.h), eqs)

    prob = random_affine_problem(rng, T=T, n_x=n, n_y=2)
    V = rng.normal(size=(T, n))
    eta = rng.normal(size=(T, n))
    eqs = stack_problem(prob, V, eta, 0.6)
    assert_solves(batch_x_affine(eqs), eqs)

    x = rng.normal(size=(T, n))
    got = batch_lm_step(prob, x, V, eta, 0.6, lam=0.4)
    assert_solves(got, eqs.damped(0.4, np.eye(n)[None], x))


def test_dense_solves_leave_the_right_hand_side_alone(monkeypatch):
    """The first triangular solve writes a new array: eqs.h and the h the
    affine x update keeps (passed as is at gamma = 0) are unchanged."""
    seen = []
    back_substitute = batch._back_substitute

    def spy(c, h):
        before = h.copy()
        x = back_substitute(c, h)
        seen.append((h, before))
        return x

    monkeypatch.setattr(batch, "_back_substitute", spy)
    rng = np.random.default_rng(5)
    prob = random_affine_problem(rng, T=6, n_x=2, n_y=1)
    V = rng.normal(size=(6, 2))
    eta = rng.normal(size=(6, 2))
    eqs = stack_problem(prob, V, eta, 0.9)
    batch_x_affine(eqs)
    assert seen[-1][0] is eqs.h
    solver = make_affine_x_solver()
    first = solver(prob, V, eta, 0.0, None)
    kept = seen[-1][0]
    second = solver(prob, V, eta, 0.0, None)
    assert seen[-1][0] is kept  # the kept h itself, no coupling added
    np.testing.assert_array_equal(first, second)
    solver(prob, V, eta, 0.9, None)
    for h, before in seen:
        np.testing.assert_array_equal(h, before)


def test_affine_x_solver_equals_the_fresh_dense_solve_bit_for_bit():
    # the kept factor and kept h, plus the coupling, are the fresh solve
    solver = make_affine_x_solver()
    rng = np.random.default_rng(9)
    for target_mode in ("state", "process_noise"):
        prob = random_affine_problem(rng, T=8, n_x=3, n_y=2, target_mode=target_mode)
        for gamma in (0.0, 0.5, 2.0):
            for _ in range(3):
                V = rng.normal(size=(8, 3))
                eta = rng.normal(size=(8, 3))
                np.testing.assert_array_equal(
                    solver(prob, V, eta, gamma, None),
                    batch_x_affine(stack_problem(prob, V, eta, gamma)),
                    err_msg=f"{target_mode}, gamma {gamma}")


def test_dense_factor_is_the_normal_matrix_factored_in_place(monkeypatch):
    """The factor is normal_system's F-ordered RFP array itself, N'(N' + 1)/2
    doubles for the even order N', so the BLAS solves read it without a
    copy; at an even and an odd order T n_x."""
    matrices = []
    build = batch.normal_system

    def spy(eqs):
        M, rhs = build(eqs)
        matrices.append(M)
        return M, rhs

    monkeypatch.setattr(batch, "normal_system", spy)
    for T, n in ((5, 2), (5, 3)):
        matrices.clear()
        eqs = random_spd_equations(np.random.default_rng(6), T, n)
        c = batch._dense_factor(eqs, "m")
        (M,) = matrices
        assert np.shares_memory(c, M) and c.flags.f_contiguous
        N_even = T * n + T * n % 2
        assert c.size == N_even * (N_even + 1) // 2
        M0, _ = build(eqs)
        L = lower(c)
        np.testing.assert_allclose(L @ L.T, dense(M0), rtol=0, atol=1e-12)


def test_non_finite_transition_is_named_by_the_dense_solves():
    """A NaN in A reaches D and E; the block check raises before factoring,
    with the message the full-matrix check gave (after the x update's
    inner-iteration prefix).  A bad D or E alone is caught too."""
    A = np.tile(np.eye(2), (5, 1, 1))
    A[2, 0, 1] = np.nan
    model = AffineModel(A=A, b=np.zeros(2), H=np.eye(2), e=np.zeros(2), m1=np.zeros(2),
                        Q=np.eye(2), R=np.eye(2), P1=np.eye(2), T=5, validate=False)
    prob = TrackingProblem(model=model, reg=make_regularizer("l2", 2), y=np.zeros((5, 2)))
    z = np.zeros((5, 2))
    match = "^stacked normal matrix is not positive definite$"
    with pytest.raises(SingularSystemError, match=match):
        batch_x_affine(stack_problem(prob, z, z, 1.0))
    with pytest.raises(SingularSystemError, match="^inner iteration 1: " + match[1:]):
        make_x_solver("batch_madmm")(prob, z, z, 1.0, None)
    for block, bad in ((0, np.nan), (1, np.nan), (1, np.inf)):
        blocks = random_spd_blocks(np.random.default_rng(7), 4, 2)
        blocks[block][1, 1, 0] = bad  # an entry of D's lower triangle, or of E
        eqs = NormalEquations(_band(blocks[1], blocks[0]), blocks[2])
        with pytest.raises(SingularSystemError, match="^m is not positive definite$"):
            batch._dense_factor(eqs, "m")


def wiener_problem(T, target_mode):
    data, model = simulate_wiener(scenario_defaults("wiener", T=T, seed=0))
    return TrackingProblem(model=model, reg=make_regularizer("l2", 4, target_mode=target_mode),
                           y=data.y)


def interleaved_problem(rng, T, target_mode):
    """n_x = 3 affine problem whose coordinate 1 moves and is measured on its
    own: A, H, Q, R and P1 vanish off the pattern of (0, 2) and (1,), so
    its groups have the orders 2T and T."""
    mask = np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1]])

    def spd():
        M = rng.normal(size=(3, 3)) * mask
        return M @ M.T + np.eye(3)

    model = AffineModel(A=0.5 * rng.normal(size=(3, 3)) * mask, b=0.1 * rng.normal(size=3),
                        H=rng.normal(size=(3, 3)) * mask, e=np.zeros(3), Q=spd(), R=spd(),
                        m1=rng.normal(size=3), P1=spd(), T=T)
    return TrackingProblem(model=model, reg=make_regularizer("lasso", 3, target_mode=target_mode),
                           y=rng.normal(size=(T, 3)))


@pytest.mark.parametrize("target_mode", ["state", "process_noise"])
@pytest.mark.parametrize("gamma", [0.0, 1.5])
def test_the_wiener_band_splits_into_its_two_axes(target_mode, gamma):
    """The Wiener velocity model moves x and y on their own: its coordinates
    (x, y, vx, vy) form the groups (0, 2) and (1, 3), with and without the
    coupling, in both target modes."""
    eqs = stack_problem(wiener_problem(20, target_mode), None, None, gamma)
    assert batch._coordinate_groups(eqs.band) == ((0, 2), (1, 3))


def coupled_equations(name):
    """Equations whose matrix couples every coordinate: random SPD blocks,
    the range model linearised at its truth (H couples x and y), and a
    Wiener system damped in a metric that couples the axes."""
    rng = np.random.default_rng(12)
    if name == "random SPD":
        return random_spd_equations(rng, 6, 3)
    V, eta = rng.normal(size=(2, 12, 4))
    if name == "range":
        data, model = simulate_range(scenario_defaults("range", T=12, seed=1))
        lin = TrackingProblem(linearize(model, data.truth), make_regularizer("l2", 4), data.y)
        return stack_problem(lin, V, eta, 0.8)
    S = rng.normal(size=(4, 4))
    eqs = stack_problem(wiener_problem(12, "process_noise"), V, eta, 0.8)
    return eqs.damped(0.3, np.linalg.inv(S @ S.T + 4 * np.eye(4))[None], rng.normal(size=(12, 4)))


@pytest.mark.parametrize("name", ["random SPD", "range", "damped"])
def test_a_coupled_system_is_one_group_solved_as_the_whole_matrix(name):
    eqs = coupled_equations(name)
    assert batch._coordinate_groups(eqs.band) == (tuple(range(eqs.h.shape[1])),)
    want = batch._back_substitute(batch._dense_factor(eqs, "m"), eqs.h)
    np.testing.assert_array_equal(batch_x_affine(eqs), want)


@pytest.mark.parametrize("T", [1, 5])
def test_group_equations_are_the_permuted_matrix_blocks(T):
    """Each group's band and h are its rows and columns of the whole
    matrix and h, step-major, bit for bit, and the matrix is zero between
    groups; at T = 5 the group orders are 10 and 5, one of them padded."""
    rng = np.random.default_rng(T)
    eqs = stack_problem(interleaved_problem(rng, T, "process_noise"),
                        *rng.normal(size=(2, T, 3)), 0.7)
    groups = batch._coordinate_groups(eqs.band)
    assert groups == ((0, 2), (1,))
    M = dense(normal_system(eqs)[0])
    places = [(np.arange(T)[:, None] * 3 + g).ravel() for g in groups]
    for g, idx in zip(groups, places):
        sub = batch._group_equations(eqs, g)
        assert sub.band.shape == (2 * len(g), T * len(g)) and sub.band.flags.f_contiguous
        np.testing.assert_array_equal(dense(normal_system(sub)[0])[:idx.size, :idx.size],
                                      M[np.ix_(idx, idx)])
        np.testing.assert_array_equal(sub.h, eqs.h[:, g])
    assert not M[np.ix_(*places)].any()


def split_solves(prob, T, rng):
    """(x, the whole-matrix dense x, the band x, the kept-factor x) of one
    coupling and of a damped dense LM step on prob."""
    V, eta = rng.normal(size=(2, T, prob.n_x))
    eqs = stack_problem(prob, V, eta, 0.7)
    yield (batch_x_affine(eqs), batch._back_substitute(batch._dense_factor(eqs, "m"), eqs.h),
           augmented_ks(eqs), make_affine_x_solver()(prob, V, eta, 0.7, None))
    x0 = rng.normal(size=(T, prob.n_x))
    damped = eqs.damped(0.4, np.eye(prob.n_x)[None], x0)
    x = batch_lm_step(prob, x0, V, eta, 0.7, lam=0.4)
    yield (x, batch._back_substitute(batch._dense_factor(damped, "m"), damped.h),
           augmented_ks(damped), batch_x_affine(damped))


@pytest.mark.parametrize("case", ["interleaved, T = 5", "interleaved, T = 1",
                                  "wiener, state", "wiener, process_noise"])
def test_a_split_system_solves_as_the_whole_matrix_and_the_band(case):
    """Split solves agree with the whole matrix's dense solve to 1e-10 and
    with the band solve to 1e-8 (odd and even group orders, a damped step
    too), and the kept-factor x update is the fresh solve bit for bit."""
    rng = np.random.default_rng(len(case))
    if case.startswith("wiener"):
        T, prob = 40, wiener_problem(40, case.split(", ")[1])
    else:
        T = int(case[-1])
        prob = interleaved_problem(rng, T, "state")
    for x, whole, band, kept in split_solves(prob, T, rng):
        assert np.linalg.norm(x - whole) <= 1e-10 * np.linalg.norm(whole)
        assert np.linalg.norm(x - band) <= 1e-8 * np.linalg.norm(band)
        np.testing.assert_array_equal(kept, x)


def test_the_wiener_factor_is_two_half_order_factors():
    """T n_x = 160: two factors of order 80, 2 * 80 * 81 / 2 doubles, not
    one of 160 * 161 / 2."""
    eqs = stack_problem(wiener_problem(40, "process_noise"), None, None, 1.0)
    factors = batch._dense_factors(eqs, "m")
    assert [g for g, _ in factors] == [[0, 2], [1, 3]]
    assert [c.size for _, c in factors] == [80 * 81 // 2] * 2


def test_a_split_system_names_a_non_finite_or_indefinite_entry():
    """A NaN anywhere in the band, a zero between groups or the padding
    included, and an indefinite block inside one group raise as the whole
    matrix did; a NaN in h raises ValueError."""
    eqs = stack_problem(wiener_problem(6, "process_noise"), None, None, 1.0)
    match = "^stacked normal matrix is not positive definite$"
    for r in range(8):
        for j in (8, 9, 10, 11, 20, 23):  # block column 2, and the last one
            band = eqs.band.copy(order="F")
            band[r, j] = np.nan
            with pytest.raises(SingularSystemError, match=match):
                batch_x_affine(NormalEquations(band, eqs.h))
    for c in range(4):  # a diagonal entry of D_2, in one group
        band = eqs.band.copy(order="F")
        band[0, 8 + c] = -1e6
        bad = NormalEquations(band, eqs.h)
        assert batch._coordinate_groups(band) == ((0, 2), (1, 3))
        with pytest.raises(SingularSystemError, match="^m is not positive definite$"):
            batch._dense_factors(bad, "m")
        with pytest.raises(SingularSystemError, match=match):
            batch_x_affine(bad)
    h = eqs.h.copy()
    h[3, 3] = np.nan
    with pytest.raises(ValueError):
        batch_x_affine(NormalEquations(eqs.band, h))
