"""Kalman-smoother x updates and their iterated extensions."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpbtrf

import tracklasso.batch as batch
import tracklasso.models as models
import tracklasso.smoothers as smoothers
from tracklasso.admm import MadmmOptions, run_madmm
from tracklasso.batch import (
    LMConfig,
    _dense_factor,
    batch_lm_step,
    batch_nonlinear_solve,
    batch_x_affine,
    stack_problem,
)
from tracklasso.models import (
    AffineModel,
    GroupRegularizer,
    Iterate,
    NonlinearModel,
    SingularSystemError,
    TrackingProblem,
    make_regularizer,
    time_invariant,
    x_subproblem_cost,
)
from tracklasso.scenarios import (
    scenario_defaults,
    simulate_coordinated_turn,
    simulate_range,
    simulate_wiener,
)
from tracklasso.smoothers import (
    augmented_ks,
    build_fused,
    damping_inverse,
    gauss_newton,
    linearize,
    lm_ieks,
    normal_equations,
    plain_ieks,
    plain_smoother,
    rts_smoother,
)
from tracklasso.solve import initial_trajectory, make_x_solver, solve_problem
from tracklasso.verify import random_affine_problem


def fuse_two_step_scalar(A, v, eta, gamma):
    """build_fused on T=2, n_x=1: Q=P1=1, m1=2, b=0, state targets B=d=0."""
    model = AffineModel(A=np.array([[A]]), b=np.zeros(1), H=np.eye(1),
                        e=np.zeros(1), Q=np.eye(1), R=np.eye(1),
                        m1=np.array([2.0]), P1=np.eye(1), T=2)
    return build_fused(model, np.zeros((2, 1, 1)), np.zeros((2, 1)),
                       np.reshape(v, (2, 1)), np.reshape(eta, (2, 1)), gamma)


def test_fuse_dynamics_scalar():
    # Q=1, gamma=1, A=2, B=0: A~ = (Q^-1 A + gamma B)/(Q^-1 + gamma) = 1
    fused = fuse_two_step_scalar(2.0, [0.0, 0.0], [0.0, 0.0], 1.0)
    np.testing.assert_allclose(fused.A[1], [[1.0]])
    np.testing.assert_allclose(fused.b[1], [0.0])
    np.testing.assert_allclose(fused.Q[1], [[0.5]])


def test_fuse_prior_scalar():
    # P=1, gamma=1, m=2, v=1: m1~ = (m + (m + v))/2 = 2.5
    fused = fuse_two_step_scalar(2.0, [1.0, 0.0], [0.0, 0.0], 1.0)
    np.testing.assert_allclose(fused.m1, [2.5])
    np.testing.assert_allclose(fused.b[0], [2.5])
    np.testing.assert_allclose(fused.P1, [[0.5]])


def test_fuse_dual_enters_unscaled():
    # b~ picks up -eta_bar, not -gamma eta_bar
    fused = fuse_two_step_scalar(1.0, [0.0, 0.0], [0.0, 0.6], 2.0)
    np.testing.assert_allclose(fused.b[1], [-0.2])  # (0 + 0 - 0.6)/(1 + 2)


def test_build_fused_gamma_zero_returns_model():
    rng = np.random.default_rng(0)
    prob = random_affine_problem(rng, T=4, n_x=2, n_y=1)
    B, d = prob.penalty_targets()
    z = np.zeros((4, 2))
    assert build_fused(prob.model, B, d, z, z, 0.0) is prob.model


def test_build_fused_names_first_non_spd_step():
    Q = np.tile(np.eye(2), (5, 1, 1))
    Q[3] = -Q[3]
    Q[4, 0, 0] = 0.0
    model = AffineModel(A=np.eye(2), b=np.zeros(2), H=np.eye(2), e=np.zeros(2),
                        Q=Q, R=np.eye(2), m1=np.zeros(2), P1=np.eye(2), T=5,
                        validate=False)
    z = np.zeros((5, 2))
    B, d = np.zeros((5, 2, 2)), z
    with pytest.raises(SingularSystemError, match="Q at step 3 "):
        build_fused(model, B, d, z, z, 1.0)
    bad_prior = AffineModel(A=np.eye(2), b=np.zeros(2), H=np.eye(2), e=np.zeros(2),
                            Q=np.eye(2), R=np.eye(2), m1=np.zeros(2),
                            P1=np.diag([1.0, -1.0]), T=5, validate=False)
    with pytest.raises(SingularSystemError, match="P1 at step 0 "):
        build_fused(bad_prior, B, d, z, z, 1.0)


def test_evidence_channel_present_only_when_targets_differ():
    rng = np.random.default_rng(1)
    prob_s = random_affine_problem(rng, T=5, n_x=2, n_y=2, kind="l2",
                                   target_mode="state")
    z = np.zeros((5, 2))
    B, d = prob_s.penalty_targets()
    fused = build_fused(prob_s.model, B, d, z, z, 1.0)
    assert fused.H.shape[1] == 2 + 2
    np.testing.assert_allclose(fused.H[0, 2:], prob_s.model.A[1])
    np.testing.assert_array_equal(fused.H[-1, 2:], 0.0)

    prob_p = random_affine_problem(rng, T=5, n_x=2, n_y=2, kind="l2",
                                   target_mode="process_noise")
    B, d = prob_p.penalty_targets()
    fused = build_fused(prob_p.model, B, d, z, z, 1.0)
    assert fused.H.shape[1] == 2


def test_single_step_posterior():
    # y=3, H=1, R=1, m1=0, P1=1 gives N(1.5, 0.5)
    model = AffineModel(A=np.eye(1), b=np.zeros(1), H=np.eye(1),
                        e=np.zeros(1), Q=np.eye(1), R=np.eye(1),
                        m1=np.zeros(1), P1=np.eye(1), T=1)
    np.testing.assert_allclose(plain_smoother(model, np.array([[3.0]])), [[1.5]])


@pytest.mark.parametrize("target_mode", ["state", "process_noise"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_augmented_ks_matches_batch(seed, target_mode):
    """The RTS augmented smoother must return the exact stacked minimiser in
    both modes."""
    rng = np.random.default_rng(seed)
    prob = random_affine_problem(rng, T=12, n_x=3, n_y=2, kind="group",
                                 target_mode=target_mode)
    gamma = float(rng.uniform(0.3, 2.0))
    V = rng.normal(size=(12, 3))
    eta = rng.normal(size=(12, 3))
    B, d = prob.penalty_targets()
    fused = build_fused(prob.model, B, d, V, eta, gamma)
    x_ks = rts_smoother(fused, prob.y)
    x_batch = batch_x_affine(stack_problem(prob, V, eta, gamma))
    np.testing.assert_allclose(x_ks, x_batch, atol=1e-9)
    gap = (x_subproblem_cost(prob, x_ks, V, eta, gamma)
           - x_subproblem_cost(prob, x_batch, V, eta, gamma))
    assert abs(gap) < 1e-9


def spd(rng, *shape):
    M = rng.normal(size=shape + (shape[-1],))
    return M @ np.swapaxes(M, -1, -2) / shape[-1] + 0.3 * np.eye(shape[-1])


def stacked_problem(rng, T, n_x, n_y, per_step_AQ, target_mode, per_step_R=False):
    """Random affine l2 problem with broadcast or per-step A and Q stacks
    and, with per_step_R, one R per step."""
    k = T if per_step_AQ else 1
    A = 0.9 * rng.normal(size=(k, n_x, n_x)) / np.sqrt(n_x)
    Q = spd(rng, k, n_x)
    model = AffineModel(A=A if per_step_AQ else A[0], b=0.1 * rng.normal(size=(T, n_x)),
                        H=rng.normal(size=(n_y, n_x)), e=rng.normal(size=n_y),
                        Q=Q if per_step_AQ else Q[0],
                        R=spd(rng, T, n_y) if per_step_R else spd(rng, n_y),
                        m1=rng.normal(size=n_x), P1=spd(rng, n_x), T=T)
    reg = make_regularizer("l2", n_x, target_mode=target_mode)
    return TrackingProblem(model=model, reg=reg, y=rng.normal(size=(T, n_y)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), T=st.integers(1, 8),
       n_x=st.integers(1, 3), n_y=st.integers(1, 4),
       per_step_AQ=st.booleans(), per_step_R=st.booleans(),
       target_mode=st.sampled_from(["state", "process_noise"]),
       damping=st.sampled_from([None, "broadcast", "per_step"]),
       coupled=st.booleans())
@example(seed=0, T=1, n_x=2, n_y=3, per_step_AQ=True, per_step_R=False, target_mode="state",
         damping=None, coupled=True)
@example(seed=1, T=1, n_x=1, n_y=2, per_step_AQ=False, per_step_R=False,
         target_mode="process_noise", damping=None, coupled=True)
@example(seed=2, T=6, n_x=2, n_y=4, per_step_AQ=True, per_step_R=False,
         target_mode="process_noise", damping=None, coupled=True)
@example(seed=3, T=6, n_x=3, n_y=1, per_step_AQ=True, per_step_R=False, target_mode="state",
         damping=None, coupled=True)
@example(seed=4, T=1, n_x=2, n_y=3, per_step_AQ=False, per_step_R=False, target_mode="state",
         damping="per_step", coupled=True)
@example(seed=5, T=6, n_x=2, n_y=4, per_step_AQ=True, per_step_R=False, target_mode="state",
         damping="per_step", coupled=True)
@example(seed=6, T=5, n_x=3, n_y=2, per_step_AQ=False, per_step_R=False, target_mode="state",
         damping="broadcast", coupled=True)
@example(seed=7, T=1, n_x=2, n_y=2, per_step_AQ=True, per_step_R=False,
         target_mode="process_noise", damping="broadcast", coupled=False)
@example(seed=8, T=6, n_x=3, n_y=2, per_step_AQ=True, per_step_R=False,
         target_mode="process_noise", damping="per_step", coupled=False)
@example(seed=9, T=5, n_x=2, n_y=1, per_step_AQ=False, per_step_R=False, target_mode="state",
         damping="broadcast", coupled=False)
@example(seed=10, T=6, n_x=2, n_y=3, per_step_AQ=False, per_step_R=True, target_mode="state",
         damping=None, coupled=True)
@example(seed=11, T=5, n_x=3, n_y=2, per_step_AQ=True, per_step_R=True, target_mode="state",
         damping=None, coupled=True)
@example(seed=12, T=2, n_x=2, n_y=1, per_step_AQ=True, per_step_R=True, target_mode="state",
         damping=None, coupled=True)
def test_stacked_fuse_smoother_matches_batch(seed, T, n_x, n_y, per_step_AQ, per_step_R,
                                             target_mode, damping, coupled):
    """rts_smoother on build_fused's model and the information-form solve of
    normal_equations are the exact stacked minimiser, also for per-step A
    and Q stacks, per-step R (stacked beside the coupling-evidence rows in
    state mode), a single step, more measurements than states and gamma =
    0.  With damping, lam S^{-1} added to the undamped equations gives the
    dense damped step, and the equations kept from a rejected proposal,
    damped again at the next lam, give a fresh assembly's step bit for bit."""
    rng = np.random.default_rng(seed)
    prob = stacked_problem(rng, T, n_x, n_y, per_step_AQ, target_mode, per_step_R)
    model = prob.model
    gamma = float(rng.uniform(0.2, 3.0)) if coupled else 0.0
    V = rng.normal(size=(T, n_x))
    eta = rng.normal(size=(T, n_x))
    B, d = prob.penalty_targets()

    def assemble():
        return normal_equations(model, prob.y, B, d, V, eta, gamma)

    eqs = assemble()
    if damping is None:
        x_ks = rts_smoother(build_fused(model, B, d, V, eta, gamma), prob.y)
        x_batch = batch_x_affine(stack_problem(prob, V, eta, gamma))
        np.testing.assert_allclose(x_ks, x_batch, rtol=1e-8, atol=1e-8)
    else:
        lam = float(rng.uniform(0.1, 5.0))
        x = rng.normal(size=(T, n_x))
        s_cov = spd(rng, T, n_x) if damping == "per_step" else spd(rng, n_x)
        x_batch = batch_lm_step(prob, x, V, eta, gamma, lam, s_cov)
        s_inv = np.linalg.inv(s_cov)
        augmented_ks(eqs.damped(lam / 10.0, s_inv, x))  # the rejected proposal
        eqs = eqs.damped(lam, s_inv, x)
        np.testing.assert_array_equal(augmented_ks(eqs),
                                      augmented_ks(assemble().damped(lam, s_inv, x)))
    np.testing.assert_allclose(augmented_ks(eqs), x_batch, rtol=1e-8, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), T=st.integers(1, 8),
       n_x=st.integers(1, 3), n_y=st.integers(1, 3), per_step_AQ=st.booleans(),
       targets=st.sampled_from(["state", "process_noise", "explicit"]))
@example(seed=0, T=1, n_x=2, n_y=2, per_step_AQ=True, targets="state")
@example(seed=1, T=1, n_x=2, n_y=1, per_step_AQ=False, targets="explicit")
@example(seed=2, T=6, n_x=3, n_y=2, per_step_AQ=True, targets="process_noise")
@example(seed=3, T=6, n_x=2, n_y=3, per_step_AQ=True, targets="explicit")
def test_band_factor_serves_every_coupling_of_its_problem(seed, T, n_x, n_y, per_step_AQ,
                                                          targets):
    """The ks_madmm x update keeps its band factor from one coupling (V,
    eta) and reuses it for another of the same problem and gamma: the result
    is a fresh information-form solve bit for bit, differs from the first
    coupling's and is the dense minimiser, also with per-step A and Q and an
    explicit reg.B."""
    rng = np.random.default_rng(seed)
    mode = "state" if targets == "explicit" else targets
    prob = stacked_problem(rng, T, n_x, n_y, per_step_AQ, mode)
    if targets == "explicit":
        reg = replace(prob.reg, B=rng.normal(size=(n_x, n_x)), d=rng.normal(size=n_x))
        prob = TrackingProblem(model=prob.model, reg=reg, y=prob.y)
    gamma = float(rng.uniform(0.2, 3.0))
    B, d = prob.penalty_targets()
    V, eta, V2, eta2 = rng.normal(size=(4, T, n_x))
    solver = make_x_solver("ks_madmm")
    first = solver(prob, V, eta, gamma, None)
    x = solver(prob, V2, eta2, gamma, None)
    fresh = normal_equations(prob.model, prob.y, B, d, V2, eta2, gamma)
    np.testing.assert_array_equal(x, augmented_ks(fresh))
    assert not np.array_equal(x, first)
    x_batch = batch_x_affine(stack_problem(prob, V2, eta2, gamma))
    np.testing.assert_allclose(x, x_batch, rtol=1e-8, atol=1e-8)


def test_build_fused_keeps_time_invariant_steps_as_views():
    """A time-invariant model fuses to broadcast A and Q views of one step;
    per-step stacks stay per step."""
    prob = wiener_problem(50, "process_noise")
    B, d = prob.penalty_targets()
    z = np.zeros((50, 4))
    fused = build_fused(prob.model, B, d, z, z, 1.0)
    assert fused.A.shape == fused.Q.shape == (50, 4, 4)
    assert time_invariant(fused.A) and time_invariant(fused.Q)
    q_scale = np.where(np.arange(50)[:, None, None] >= 40, 2.0, 1.0)
    prob = wiener_problem(50, "process_noise", q_scale=q_scale)
    fused = build_fused(prob.model, B, d, z, z, 1.0)
    assert not time_invariant(fused.Q)


def test_stacked_rows_keep_model_arrays_and_broadcast_noise():
    # range GN proposal in state mode: data and evidence rows, both with
    # time-invariant covariances, so the stacked R is a broadcast view
    prob = range_problem(T=50)
    lin = linearize(prob.model, np.tile(prob.model.m1, (50, 1)))
    B, d = prob.penalty_targets()
    z = np.zeros((50, 4))
    fused = build_fused(lin, B, d, z, z, 1.0)
    assert fused.H.shape[1] == prob.model.n_y + 4
    assert time_invariant(fused.R)
    # Wiener in process_noise mode: no extra rows, the model's own arrays
    data, model = simulate_wiener(scenario_defaults("wiener", T=30, seed=0))
    reg = make_regularizer("l2", 4, target_mode="process_noise")
    B, d = TrackingProblem(model=model, reg=reg, y=data.y).penalty_targets()
    z = np.zeros((30, 4))
    fused = build_fused(model, B, d, z, z, 1.0)
    assert fused.H is model.H and fused.e is model.e and fused.R is model.R


def test_plain_smoother_is_unregularised_batch():
    rng = np.random.default_rng(7)
    prob = random_affine_problem(rng, T=15, n_x=2, n_y=2)
    z = np.zeros((15, 2))
    x_sm = plain_smoother(prob.model, prob.y)
    x_batch = batch_x_affine(stack_problem(prob, z, z, 0.0))
    np.testing.assert_allclose(x_sm, x_batch, atol=1e-9)


def range_problem(seed=0, T=15, target_mode="state"):
    params = scenario_defaults("range", T=T, seed=seed)
    data, model = simulate_range(params)
    reg = make_regularizer("group", 4, groups=[[2, 3]], weights=1.0,
                           target_mode=target_mode)
    return TrackingProblem(model=model, reg=reg, y=data.y)


def test_gn_ieks_trace_matches_batch():
    prob = range_problem()
    rng = np.random.default_rng(5)
    V = 0.1 * rng.normal(size=(prob.T, 4))
    eta = 0.1 * rng.normal(size=(prob.T, 4))
    x0 = np.tile(prob.model.m1, (prob.T, 1))
    tr_s, tr_b = [], []
    lm_ieks(prob, V, eta, 1.0, x0, LMConfig(lambda0=0.0, i_max=4, step_tol=0.0), trace=tr_s)
    batch_nonlinear_solve(prob, V, eta, 1.0,
                          cfg=LMConfig(lambda0=0.0, i_max=4, step_tol=0.0), x0=x0,
                          trace=tr_b)
    assert len(tr_s) == len(tr_b) == 5
    for a, b in zip(tr_s, tr_b):
        np.testing.assert_allclose(a, b, atol=1e-8)


def test_lm_ieks_trace_matches_batch():
    prob = range_problem(seed=1)
    z = np.zeros((prob.T, 4))
    x0 = np.tile(prob.model.m1, (prob.T, 1))
    cfg = LMConfig(lambda0=1e-2, alpha=10.0, i_max=4, step_tol=0.0)
    tr_s, lam_s, tr_b, lam_b = [], [], [], []
    lm_ieks(prob, z, z, 1.0, x0, cfg, trace=tr_s, lambda_trace=lam_s)
    batch_nonlinear_solve(prob, z, z, 1.0, cfg=cfg, x0=x0,
                          trace=tr_b, lambda_trace=lam_b)
    assert lam_s == lam_b
    assert len(tr_s) == len(tr_b)
    for a, b in zip(tr_s, tr_b):
        np.testing.assert_allclose(a, b, atol=1e-8)


@pytest.mark.parametrize("target_mode", ["state", "process_noise"])
def test_lm_ieks_evaluates_cost_once_per_proposal(monkeypatch, target_mode):
    """With targets that do not depend on x an accepted proposal's cost is
    reused; process_noise targets of a nonlinear model move with x, so each
    accepted step is costed again at its new targets."""
    calls = {"cost": 0, "ks": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(smoothers, "x_subproblem_cost",
                        counted("cost", smoothers.x_subproblem_cost))
    monkeypatch.setattr(smoothers, "augmented_ks", counted("ks", smoothers.augmented_ks))
    prob = range_problem(seed=1, target_mode=target_mode)
    z = np.zeros((prob.T, 4))
    x0 = np.tile(prob.model.m1, (prob.T, 1))
    lam = []
    lm_ieks(prob, z, z, 1.0, x0, LMConfig(i_max=4, step_tol=0.0), lambda_trace=lam)
    assert len(lam) == 4
    accepted_recosts = len(lam) if target_mode == "process_noise" else 0
    assert calls["cost"] == 1 + calls["ks"] + accepted_recosts


@pytest.mark.parametrize("target_mode", ["state", "process_noise"])
def test_lm_ieks_evaluates_the_model_once_per_iterate(monkeypatch, target_mode):
    """The LM cost and the linearisation at one iterate share one evaluation
    of the transition and the measurement (before, both evaluated them), and
    a rejected proposal costs no Jacobian."""
    prob = range_problem(seed=0, target_mode=target_mode)
    calls = {"ks": 0}
    seen = {"transition": [], "measurement": []}

    def counted(name, fn):
        calls[name] = 0

        def wrapper(t, X):
            calls[name] += 1
            if name in seen:
                seen[name].append(np.asarray(X).tobytes())
            return fn(t, X)
        return wrapper

    model = replace(prob.model, **{name: counted(name, getattr(prob.model, name)) for name in
                                   ("transition", "measurement", "transition_jacobian",
                                    "measurement_jacobian")})
    prob = TrackingProblem(model=model, reg=prob.reg, y=prob.y)
    ks = smoothers.augmented_ks

    def counted_ks(*args, **kwargs):
        calls["ks"] += 1
        return ks(*args, **kwargs)

    monkeypatch.setattr(smoothers, "augmented_ks", counted_ks)
    for name in calls:
        calls[name] = 0
    z = np.zeros((prob.T, 4))
    lam = []
    lm_ieks(prob, z, z, 1.0, np.tile(prob.model.m1, (prob.T, 1)),
            LMConfig(i_max=6, step_tol=0.0), lambda_trace=lam)
    assert calls["ks"] > len(lam) == 6  # some proposals were rejected
    for name in seen:  # the start and every proposal, each once
        assert calls[name] == len(set(seen[name])) == 1 + calls["ks"]
    for name in ("transition_jacobian", "measurement_jacobian"):
        assert calls[name] <= 1 + len(lam)


def _unshared_lm_ieks(problem, v, eta_bar, gamma, x0, cfg):
    """lm_ieks as it was before the model values and the coupling were
    shared: each proposal linearises and assembles from scratch at the
    iterate's bare x and each cost evaluates the model again."""
    s_inv = damping_inverse(cfg.s_cov, problem.T, problem.n_x)

    def propose(x, targets, lam):
        eqs = normal_equations(linearize(problem.model, x.x), problem.y, *targets, v,
                               eta_bar, gamma)
        return augmented_ks(eqs.damped(lam, s_inv, x.x) if lam > 0 else eqs)

    def cost(x, targets):
        return x_subproblem_cost(problem, x.x, v, eta_bar, gamma, targets)

    return gauss_newton(problem, propose, Iterate(problem, x0), cost, cfg).x


@pytest.mark.parametrize("scenario, target_mode", [("range", "state"),
                                                   ("range", "process_noise"),
                                                   ("coordinated_turn", "process_noise")])
def test_shared_model_values_give_the_unshared_iterates(scenario, target_mode):
    if scenario == "range":
        prob = range_problem(seed=3, T=30, target_mode=target_mode)
    else:
        data, model = simulate_coordinated_turn(scenario_defaults(scenario, T=30, seed=3))
        reg = make_regularizer("group", 5, groups=[[2, 3, 4]], weights=1.0,
                               target_mode=target_mode)
        prob = TrackingProblem(model=model, reg=reg, y=data.y)
    rng = np.random.default_rng(4)
    V, eta = 0.1 * rng.normal(size=(2, prob.T, prob.n_x))
    x0 = initial_trajectory(prob)
    cfg = LMConfig(i_max=6, step_tol=0.0)
    x = lm_ieks(prob, V, eta, 1.0, x0, cfg)
    assert not np.array_equal(x, x0)
    assert np.array_equal(x, _unshared_lm_ieks(prob, V, eta, 1.0, x0, cfg))


def test_constant_transition_jacobian_is_one_block():
    """A Jacobian returned as one matrix is kept as one block broadcast over
    T, and the normal equations built on it equal those built on its
    per-step copy bit for bit (process_noise targets multiply it too)."""
    prob = range_problem(seed=2, T=20, target_mode="process_noise")
    A = prob.model.transition_jacobian(np.arange(1, 20), prob.y[:, :4])
    copied = replace(prob.model, transition_jacobian=lambda t, X: np.repeat(A[None], len(t), 0))
    x = initial_trajectory(prob)
    rng = np.random.default_rng(6)
    V, eta = 0.1 * rng.normal(size=(2, prob.T, 4))
    eqs = []
    for model in (prob.model, copied):
        lin = linearize(model, x)
        assert time_invariant(lin.A) == (model is prob.model)
        B, d = TrackingProblem(model=model, reg=prob.reg, y=prob.y).penalty_targets(x)
        eqs.append(normal_equations(lin, prob.y, B, d, V, eta, 1.0))
    assert np.array_equal(linearize(prob.model, x).A[1:], linearize(copied, x).A[1:])
    for name in ("band", "h"):
        assert np.array_equal(getattr(eqs[0], name), getattr(eqs[1], name))


@pytest.mark.parametrize("field, value", [
    ("lambda0", -1.0), ("lambda0", np.nan), ("lambda0", np.inf), ("alpha", 1.0),
    ("alpha", np.nan), ("alpha", np.inf), ("i_max", 0), ("i_max", 2.5), ("i_max", np.nan),
    ("step_tol", np.nan), ("step_tol", -1.0),
])
def test_lm_config_rejects_a_bad_value_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must"):
        LMConfig(**{field: value})


@pytest.mark.parametrize("s_cov, match", [
    (np.ones(3), r"s_cov: expected"),
    (np.ones((2, 3)), r"s_cov: expected"),
    (np.ones((1, 2, 2, 2)), r"s_cov: expected"),
    (np.diag([1.0, np.nan]), r"s_cov is not"),
    (np.diag([1.0, -1.0]), r"s_cov is not"),
    (np.stack([np.eye(2), np.eye(2), np.diag([1.0, 0.0])]), r"s_cov at step 2 "),
    (np.stack([np.eye(2), np.full((2, 2), np.inf), -np.eye(2)]), r"s_cov at step 1 "),
])
def test_lm_config_rejects_bad_damping_metric(s_cov, match):
    with pytest.raises(ValueError, match=match):
        LMConfig(s_cov=s_cov)
    LMConfig(s_cov=np.eye(2))
    LMConfig(s_cov=np.stack([np.eye(2), 2.0 * np.eye(2)]))


@pytest.mark.parametrize("s_cov, match", [
    (np.eye(3), r"^s_cov: expected \(4, 4\) blocks, got \(3, 3\)$"),
    (np.tile(np.eye(4), (7, 1, 1)), r"^s_cov: leading axis must be 20, got 7$"),
], ids=["block_size", "leading_axis"])
def test_damping_metric_that_does_not_fit_the_problem_is_named(s_cov, match):
    """The smoother and dense LM engines both name a damping metric whose
    block size or step count does not fit the problem."""
    prob = range_problem(T=20)
    cfg = LMConfig(s_cov=s_cov, i_max=2)
    x0, z = np.tile(prob.model.m1, (20, 1)), np.zeros((20, 4))
    with pytest.raises(ValueError, match=match):
        lm_ieks(prob, z, z, 1.0, x0, cfg)
    with pytest.raises(ValueError, match=match):
        batch_nonlinear_solve(prob, z, z, 1.0, cfg=cfg, x0=x0)


def test_lm_zero_initial_damping_matches_gn():
    """gn_ieks_madmm forces lambda0 = 0 onto the LM config it is given."""
    prob = range_problem(seed=2)
    z = np.zeros((prob.T, 4))
    x0 = np.tile(prob.model.m1, (prob.T, 1))
    lm_cfg = LMConfig(lambda0=1e-2, i_max=3, step_tol=0.0)
    x_gn = make_x_solver("gn_ieks_madmm", lm_cfg=lm_cfg)(prob, z, z, 1.0, x0)
    np.testing.assert_array_equal(
        x_gn, lm_ieks(prob, z, z, 1.0, x0, replace(lm_cfg, lambda0=0.0)))
    assert not np.array_equal(x_gn, lm_ieks(prob, z, z, 1.0, x0, lm_cfg))


def test_lm_heavy_damping_keeps_iterate():
    prob = range_problem(seed=3)
    z = np.zeros((prob.T, 4))
    x0 = np.tile(prob.model.m1, (prob.T, 1))
    x = lm_ieks(prob, z, z, 1.0, x0,
                LMConfig(lambda0=1e14, alpha=10.0, i_max=2, step_tol=0.0))
    np.testing.assert_allclose(x, x0, atol=1e-5)


def test_linearize_produces_tangent_model():
    params = scenario_defaults("range", T=8, seed=4)
    data, model = simulate_range(params)
    nominal = np.tile(model.m1, (8, 1)) + 0.05
    affine = linearize(model, nominal)
    assert affine.is_affine
    # affine prediction must agree with the nonlinear map at the nominal
    np.testing.assert_allclose(
        affine.H[2] @ nominal[2] + affine.e[2],
        model.measurement(2, nominal[2]), atol=1e-12)
    np.testing.assert_allclose(
        affine.A[3] @ nominal[2] + affine.b[3],
        model.transition(3, nominal[2]), atol=1e-12)


def test_plain_ieks_on_affine_is_plain_smoother():
    rng = np.random.default_rng(9)
    prob = random_affine_problem(rng, T=10, n_x=2, n_y=2)
    x_sm = plain_smoother(prob.model, prob.y)
    x_ieks = plain_ieks(prob.model, prob.y)
    np.testing.assert_allclose(x_ieks, x_sm, atol=1e-10)


def test_gn_x_update_on_affine_problem_is_the_smoother_x_update():
    """An affine model is its own linearisation, so the GN-IEKS x update is
    the banded ks_madmm x update bit for bit, with b and e nonzero too, and
    the RTS augmented smoother's to rounding."""
    rng = np.random.default_rng(21)
    gn, ks = make_x_solver("gn_ieks_madmm"), make_x_solver("ks_madmm")
    for _ in range(20):
        prob = random_affine_problem(rng)
        model = replace(prob.model, e=rng.normal(size=(prob.T, prob.model.n_y)))
        prob = TrackingProblem(model=model, reg=prob.reg, y=prob.y)
        assert np.any(model.b != 0) and np.any(model.e != 0)
        V, eta, x0 = rng.normal(size=(3, prob.T, prob.n_x))
        assert linearize(model, x0) is model
        gamma = float(rng.uniform(0.5, 2.0))
        B, d = prob.penalty_targets()
        x_gn = gn(prob, V, eta, gamma, x0)
        np.testing.assert_array_equal(x_gn, ks(prob, V, eta, gamma, x0))
        np.testing.assert_allclose(
            x_gn, rts_smoother(build_fused(model, B, d, V, eta, gamma), prob.y), rtol=1e-10)


def test_singular_innovation_raises_with_step():
    model = AffineModel(A=np.eye(1), b=np.zeros(1), H=np.eye(1),
                        e=np.zeros(1), Q=np.eye(1), R=-np.eye(1),
                        m1=np.zeros(1), P1=0.1 * np.eye(1), T=3,
                        validate=False)
    with pytest.raises(SingularSystemError, match="innovation covariance at step 0"):
        rts_smoother(model, np.zeros((3, 1)))


def count_factorisations(monkeypatch):
    """Count band factorisations of the information matrix (band_factor
    calls; one factorisation may run dpbtrf on truncated systems first)."""
    calls = [0]
    factor = smoothers.band_factor

    def counted(eqs, **kwargs):
        calls[0] += 1
        return factor(eqs, **kwargs)

    monkeypatch.setattr(smoothers, "band_factor", counted)
    return calls


def wiener_problem(T, target_mode, q_scale=None):
    data, model = simulate_wiener(scenario_defaults("wiener", T=T, seed=2))
    if q_scale is not None:
        model = AffineModel(A=model.A, b=model.b, H=model.H, e=model.e,
                            Q=model.Q * q_scale, R=model.R, m1=model.m1,
                            P1=model.P1, T=T)
    reg = make_regularizer("l2", 4, target_mode=target_mode)
    return TrackingProblem(model=model, reg=reg, y=data.y)


@pytest.mark.parametrize("damped", [False, True])
@pytest.mark.parametrize("gamma", [0.0, 1.3])
@pytest.mark.parametrize("target_mode", ["state", "process_noise"])
def test_steady_state_shortcut_matches_batch(target_mode, gamma, damped):
    """Long Wiener passes, whose covariances reach the Riccati fixed point,
    return the dense minimiser: the RTS oracle (in state mode with the
    evidence rows, which drop out at the last step) and a damped
    information-form step."""
    T = 300
    prob = wiener_problem(T, target_mode)
    rng = np.random.default_rng(3)
    V, eta = rng.normal(size=(T, 4)), rng.normal(size=(T, 4))
    B, d = prob.penalty_targets()
    if damped:
        lam, x, s_cov = 0.5, rng.normal(size=(T, 4)), np.diag([1.0, 2.0, 0.5, 1.0])
        eqs = normal_equations(prob.model, prob.y, B, d, V, eta, gamma)
        x_ks = augmented_ks(eqs.damped(lam, np.linalg.inv(s_cov), x))
        x_batch = batch_lm_step(prob, x, V, eta, gamma, lam, s_cov)
    else:
        x_ks = rts_smoother(build_fused(prob.model, B, d, V, eta, gamma), prob.y)
        x_batch = batch_x_affine(stack_problem(prob, V, eta, gamma))
    np.testing.assert_allclose(x_ks, x_batch, rtol=1e-8, atol=1e-8)


def test_shortcut_resumes_when_the_inputs_change():
    """The RTS oracle follows a change of Q at T-3, after a long run of
    constant inputs, and returns the dense minimiser."""
    T = 300
    q_scale = np.where(np.arange(T)[:, None, None] >= T - 3, 4.0, 1.0)
    prob = wiener_problem(T, "process_noise", q_scale=q_scale)
    rng = np.random.default_rng(4)
    V, eta = rng.normal(size=(T, 4)), rng.normal(size=(T, 4))
    B, d = prob.penalty_targets()
    x_ks = rts_smoother(build_fused(prob.model, B, d, V, eta, 0.8), prob.y)
    x_batch = batch_x_affine(stack_problem(prob, V, eta, 0.8))
    np.testing.assert_allclose(x_ks, x_batch, rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("edit", ["y", "m1", "A", "e"])
def test_reused_problem_is_not_stale_after_an_in_place_edit(edit):
    """The problem owns y and the model its arrays, so a write into the
    caller's array after a ks_madmm x update reaches neither: the x update
    that reuses the factor and h kept on the problem gives the x of a fresh
    solver on the problem with nothing kept, bit for bit."""
    T = 30
    data, model = simulate_wiener(scenario_defaults("wiener", T=T, seed=0))
    given = {"y": np.array(data.y), "m1": np.array(model.m1),
             "A": np.array(model.A[0]), "e": np.array(model.e[0])}
    prob = TrackingProblem(model=replace(model, m1=given["m1"], A=given["A"], e=given["e"]),
                           y=given["y"],
                           reg=make_regularizer("l2", 4, target_mode="process_noise"))
    rng = np.random.default_rng(6)
    V, eta = rng.normal(size=(2, T, 4))
    solver = make_x_solver("ks_madmm")
    before = solver(prob, V, eta, 1.0, None)
    given[edit][...] += 0.5 if edit == "A" else 1.0
    reused = solver(prob, V, eta, 1.0, None)
    prob.kept.clear()
    fresh = make_x_solver("ks_madmm")(prob, V, eta, 1.0, None)
    np.testing.assert_array_equal(reused, fresh)
    np.testing.assert_array_equal(reused, before)


def test_ks_x_solver_sweeps_once_per_problem_and_gamma(monkeypatch):
    """A k-iteration ks_madmm solve runs two band factorisations, the
    initial pass and the first x update; a new gamma or a new problem object
    (even one equal to the old) factors again, and a problem keeps its own
    factor while another is solved."""
    T = 300
    prob = wiener_problem(T, "state")
    calls = count_factorisations(monkeypatch)
    initial_trajectory(prob)
    initial, calls[0] = calls[0], 0
    B, d = prob.penalty_targets()
    z = np.zeros((T, 4))
    augmented_ks(normal_equations(prob.model, prob.y, B, d, z, z, 1.0))
    sweep, calls[0] = calls[0], 0
    for k in (1, 5):
        solve_problem(prob, "ks_madmm",
                      opts=MadmmOptions(gamma=1.0, k_max=k, eps_primal=0.0, eps_dual=0.0))
        assert calls[0] == initial + sweep, k
        calls[0] = 0

    same = TrackingProblem(model=prob.model, reg=prob.reg, y=prob.y)
    solver = make_x_solver("ks_madmm")
    rng = np.random.default_rng(5)
    swept = []
    for problem, gamma in ((prob, 1.0), (prob, 1.0), (prob, 0.5), (prob, 0.5),
                           (same, 0.5), (same, 0.5), (prob, 0.5)):
        solver(problem, rng.normal(size=(T, 4)), rng.normal(size=(T, 4)), gamma, None)
        swept.append(calls[0] > 0)
        calls[0] = 0
    assert swept == [True, False, True, False, True, False, False]


def test_affine_gauss_newton_stops_after_one_proposal(monkeypatch):
    """On an affine problem the undamped proposal is the exact minimiser, so
    gn_ieks_madmm, like ks_madmm, factors once per (problem, gamma) (not once
    per x update, nor twice per x update to see a zero step) and returns
    ks_madmm's x bit for bit; plain_ieks
    passes once and returns plain_smoother's estimate; the dense GN loop
    accepts one proposal, even with step_tol = 0."""
    T, k = 400, 5
    prob = wiener_problem(T, "process_noise")
    opts = MadmmOptions(gamma=1.0, k_max=k, eps_primal=0.0, eps_dual=0.0)
    x0 = plain_smoother(prob.model, prob.y)
    calls = count_factorisations(monkeypatch)
    x_ieks = plain_ieks(prob.model, prob.y)
    assert calls[0] == 1
    np.testing.assert_array_equal(x_ieks, x0)
    calls[0] = 0
    x_ks = solve_problem(prob, "ks_madmm", opts=opts, x0=x0).x
    assert calls[0] == 1
    calls[0] = 0
    x_gn = solve_problem(prob, "gn_ieks_madmm", opts=opts, x0=x0).x
    assert calls[0] == 1
    np.testing.assert_array_equal(x_gn, x_ks)
    rng = np.random.default_rng(6)
    V, eta = rng.normal(size=(T, 4)), rng.normal(size=(T, 4))
    trace = []
    x_dense = batch_nonlinear_solve(prob, V, eta, 1.0,
                                    cfg=LMConfig(lambda0=0.0, i_max=4, step_tol=0.0),
                                    x0=x0, trace=trace)
    assert len(trace) == 2
    np.testing.assert_array_equal(x_dense, trace[1])
    np.testing.assert_allclose(x_dense, batch_x_affine(stack_problem(prob, V, eta, 1.0)),
                               rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_damped_bodies_on_an_affine_problem_return_the_exact_x(monkeypatch, seed):
    """lm_ieks and batch_nonlinear_solve run an affine problem at lambda0 = 0,
    whatever their LMConfig holds: at lambda0 = 1e-2 each accepts one
    proposal, returns its undamped x bit for bit and never evaluates the
    subproblem cost."""
    rng = np.random.default_rng(seed)
    prob = random_affine_problem(rng)
    V, eta = rng.normal(size=(2, prob.T, prob.n_x))
    x0 = initial_trajectory(prob)

    def no_cost(*args, **kwargs):
        raise AssertionError("x_subproblem_cost was called")

    monkeypatch.setattr(smoothers, "x_subproblem_cost", no_cost)
    bodies = (lambda cfg, trace: lm_ieks(prob, V, eta, 1.0, x0, cfg, trace=trace),
              lambda cfg, trace: batch_nonlinear_solve(prob, V, eta, 1.0, cfg=cfg, x0=x0,
                                                       trace=trace))
    for body in bodies:
        prob.kept.clear()
        exact = body(LMConfig(lambda0=0.0), None)
        prob.kept.clear()
        trace = []
        damped = body(LMConfig(lambda0=1e-2, i_max=5, step_tol=0.0), trace)
        assert len(trace) == 2
        np.testing.assert_array_equal(damped, exact)
        np.testing.assert_allclose(damped, batch_x_affine(stack_problem(prob, V, eta, 1.0)),
                                   rtol=1e-8, atol=1e-8)


def count_dense_factorisations(monkeypatch):
    """Count dense factorisations (batch._dense_factor calls, one per
    coordinate group of a factored matrix)."""
    calls = [0]
    factor = batch._dense_factor

    def counted(eqs, what):
        calls[0] += 1
        return factor(eqs, what)

    monkeypatch.setattr(batch, "_dense_factor", counted)
    return calls


AFFINE_EXACT = {  # name: (x update of an affine problem, run at lambda0 = 0, its kept slot)
    "ks_madmm": (make_x_solver("ks_madmm"), "band_factor"),
    "gn_ieks_madmm": (make_x_solver("gn_ieks_madmm"), "band_factor"),
    "lm_ieks_madmm": (make_x_solver("lm_ieks_madmm"), "band_factor"),
    "batch_madmm": (make_x_solver("batch_madmm"), "dense_factor"),
    "dense_gn": (lambda problem, V, eta, gamma, x: batch_nonlinear_solve(
        problem, V, eta, gamma, cfg=LMConfig(lambda0=0.0), x0=x), "dense_factor"),
    "dense_lm": (lambda problem, V, eta, gamma, x: batch_nonlinear_solve(
        problem, V, eta, gamma, x0=x), "dense_factor"),
}


@pytest.mark.parametrize("name", AFFINE_EXACT)
@pytest.mark.parametrize("target_mode", ["state", "process_noise"])
def test_affine_exact_x_update_factors_once_per_problem_and_gamma(monkeypatch, name,
                                                                 target_mode):
    """Every x update, damped or not, and the dense GN and LM bodies on an
    affine problem factor once per (problem, gamma), into their engine's slot of
    problem.kept and nothing else; a new gamma factors again, and each x is
    the fresh solve's bit for bit."""
    solver, slot = AFFINE_EXACT[name]
    T = 60
    prob = wiener_problem(T, target_mode)
    calls = (count_dense_factorisations if slot == "dense_factor"
             else count_factorisations)(monkeypatch)
    rng = np.random.default_rng(12)
    factored = []
    for gamma in (1.0, 1.0, 0.5, 0.5, 1.0):
        V, eta = rng.normal(size=(2, T, 4))
        x = solver(prob, V, eta, gamma, None)
        factored.append(calls[0] > 0)
        calls[0] = 0
        assert set(prob.kept) == {slot}
        fresh = TrackingProblem(model=prob.model, reg=prob.reg, y=prob.y)
        np.testing.assert_array_equal(x, solver(fresh, V, eta, gamma, None))
        calls[0] = 0
    assert factored == [True, False, True, False, True]


@pytest.mark.parametrize("lambda0", [0.0, 1e-2])
@pytest.mark.parametrize("target_mode", ["state", "process_noise"])
def test_lm_ieks_factors_each_band_once_and_never_the_kept_one(monkeypatch, lambda0,
                                                               target_mode):
    """band_factor may write over the band it is given, so over range lm_ieks
    runs it never receives the kept static band, nor a band it received
    before (the damped case rejects proposals, so one iterate's equations
    are damped more than once)."""
    prob = range_problem(target_mode=target_mode)
    x, accepted = np.tile(prob.model.m1, (prob.T, 1)), []  # far off: proposals are rejected
    bands, factor = [], smoothers.band_factor

    def recorded(eqs, **kwargs):
        bands.append(eqs.band)
        return factor(eqs, **kwargs)

    monkeypatch.setattr(smoothers, "band_factor", recorded)
    rng = np.random.default_rng(13)
    for _ in range(3):
        V, eta = rng.normal(size=(2, prob.T, 4))
        x = lm_ieks(prob, V, eta, 1.0, x, LMConfig(lambda0=lambda0, i_max=6, step_tol=0.0),
                    lambda_trace=accepted)
        static = prob.kept["static"][1]
        assert not any(np.shares_memory(band, static) for band in bands)
    assert len({id(band) for band in bands}) == len(bands)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(bands) for b in bands[:i])
    assert (len(bands) > len(accepted)) == (lambda0 > 0)


def test_ks_x_update_needs_an_affine_model():
    """The ks_madmm x update, called directly, rejects a nonlinear problem
    as solve_problem does, instead of running Gauss-Newton on it."""
    prob = range_problem()
    z = np.zeros((prob.T, 4))
    msg = "^ks_madmm needs an affine model; use gn_ieks_madmm, lm_ieks_madmm, or batch_madmm$"
    with pytest.raises(ValueError, match=msg):
        make_x_solver("ks_madmm")(prob, z, z, 1.0, initial_trajectory(prob))
    with pytest.raises(ValueError, match=msg):
        solve_problem(prob, "ks_madmm")


def count_noise_factorisations(monkeypatch):
    """Count spd_factor calls on P1, Q and R (the model's noise covariances)
    from the models and smoothers modules."""
    calls = {"P1": 0, "Q": 0, "R": 0}
    spd_factor = models.spd_factor

    def counted(mats, what, steps=None):
        if what in calls:
            calls[what] += 1
        return spd_factor(mats, what, steps)

    monkeypatch.setattr(models, "spd_factor", counted)
    monkeypatch.setattr(smoothers, "spd_factor", counted)
    return calls


@pytest.mark.parametrize("solver", ["lm_ieks_madmm", "gn_ieks_madmm", "batch_madmm"])
def test_nonlinear_solves_reuse_the_noise_factors_of_the_initial_pass(monkeypatch, solver):
    """The initialiser factors P1, Q and R once and keeps them on the model;
    the solve after it, its linearisations and every cost evaluation factor
    none of them again.  The kept covariances cannot be written through."""
    prob = range_problem(T=30, target_mode="process_noise")
    x0 = initial_trajectory(prob)
    calls = count_noise_factorisations(monkeypatch)
    solve_problem(prob, solver, opts=MadmmOptions(k_max=3, eps_primal=0.0, eps_dual=0.0),
                  x0=x0)
    assert calls == {"P1": 0, "Q": 0, "R": 0}
    for name in ("P1", "Q", "R"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(prob.model, name)[0] = 0.0


def test_ks_solve_factors_each_noise_covariance_once(monkeypatch):
    """A ks_madmm solve, initial pass included, factors P1, Q and R at most
    once each: the fused models and the objective and Lagrangian of every
    iteration reuse the factors kept on the model."""
    prob = wiener_problem(200, "state")
    calls = count_noise_factorisations(monkeypatch)
    solve_problem(prob, "ks_madmm", opts=MadmmOptions(k_max=5, eps_primal=0.0, eps_dual=0.0))
    assert all(n <= 1 for n in calls.values()), calls
    with pytest.raises(ValueError, match="read-only"):
        prob.model.Q[1, 0, 0] = 2.0
    # a validated model keeps the factors its validation computed
    calls.update(P1=0, Q=0, R=0)
    prob = replace(prob, model=replace(prob.model, validate=True))
    solve_problem(prob, "ks_madmm", opts=MadmmOptions(k_max=5, eps_primal=0.0, eps_dual=0.0))
    assert calls == {"P1": 1, "Q": 1, "R": 1}


def test_non_spd_predicted_covariance_raises_with_step():
    Q = np.tile(np.eye(2), (8, 1, 1))
    Q[3] = Q[5] = -4.0 * np.eye(2)
    model = AffineModel(A=np.eye(2), b=np.zeros(2), H=np.eye(2), e=np.zeros(2),
                        Q=Q, R=100.0 * np.eye(2), m1=np.zeros(2), P1=np.eye(2),
                        T=8, validate=False)
    with pytest.raises(SingularSystemError,
                       match="predicted covariance at step 3 is not positive definite"):
        rts_smoother(model, np.zeros((8, 2)))


def test_non_finite_proposal_raises_with_iterations():
    """A NaN proposal fails the strict-decrease test forever; it must raise
    with the inner and ADMM iteration attached instead."""
    prob = range_problem()
    calls = [0]

    def propose(x, targets, lam):
        calls[0] += 1
        if calls[0] > 50:
            raise RuntimeError("the loop kept proposing")
        return np.full_like(x.x, np.nan)

    def x_solver(problem, V, eta_bar, gamma, x_warm):
        def cost(x, targets):
            return x_subproblem_cost(problem, x, V, eta_bar, gamma, targets)
        return smoothers.gauss_newton(problem, propose, x_warm, cost, LMConfig(i_max=3))

    x0 = np.tile(prob.model.m1, (prob.T, 1))
    with pytest.raises(SingularSystemError, match="ADMM iteration 1: inner iteration 1: "
                                                  "proposal is not finite"):
        run_madmm(prob, x_solver, MadmmOptions(k_max=2), x0=x0)
    assert calls[0] == 1


def test_cost_tie_within_rounding_ends_the_lm_loop():
    """A rejected proposal whose cost is the current cost plus one ulp ends
    the loop: no damping can decrease the cost by more than rounding."""
    prob = range_problem()
    x0 = np.tile(prob.model.m1, (prob.T, 1))
    calls = [0]

    def propose(x, targets, lam):
        calls[0] += 1
        if calls[0] > 5:
            raise RuntimeError("the loop kept proposing")
        return x.x + 1.0

    def cost(x, targets):
        return 2.0 if np.array_equal(x.x, x0) else 2.0 + np.spacing(2.0)

    lam = []
    start = Iterate(prob, x0)
    x = smoothers.gauss_newton(prob, propose, start, cost, LMConfig(i_max=3), lambda_trace=lam)
    assert calls[0] == 1 and lam == [] and x is start


def test_damped_proposals_and_the_initialiser_take_the_band(monkeypatch):
    """lm_ieks solves every proposal, damped or not, in information form
    (normal_equations), one augmented_ks call per proposal and none on the
    RTS oracle; a rejected step calls neither linearize nor the undamped
    assembly again; and every pass of plain_ieks's body (lm_ieks at gamma = 0
    with no penalty) takes the information form."""
    calls = {"normal": 0, "rts": 0, "ks": 0, "lin": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(smoothers, "normal_equations",
                        counted("normal", smoothers.normal_equations))
    monkeypatch.setattr(smoothers, "rts_smoother", counted("rts", smoothers.rts_smoother))
    monkeypatch.setattr(smoothers, "augmented_ks", counted("ks", smoothers.augmented_ks))
    monkeypatch.setattr(smoothers, "linearize", counted("lin", smoothers.linearize))
    prob = range_problem(seed=1)
    z = np.zeros((prob.T, 4))
    x0 = np.tile(prob.model.m1, (prob.T, 1))
    lm_ieks(prob, z, z, 1.0, x0, LMConfig(lambda0=0.0, i_max=3, step_tol=0.0))
    assert calls == {"normal": 3, "rts": 0, "ks": 3, "lin": 3}
    calls.update(normal=0, rts=0, ks=0, lin=0)
    lm_ieks(prob, z, z, 1.0, x0, LMConfig(i_max=3, step_tol=0.0))
    assert calls["rts"] == 0 and calls["normal"] == calls["lin"] == 3 <= calls["ks"]
    # fitting y = x^2 = 4 from x = 0.05 overshoots, so the first proposals are rejected
    quad = NonlinearModel(transition=lambda t, X: X, transition_jacobian=lambda t, X: np.eye(1),
                          measurement=lambda t, X: X ** 2,
                          measurement_jacobian=lambda t, X: 2.0 * X[:, :, None],
                          Q=np.eye(1), R=1e-2 * np.eye(1), m1=np.array([0.05]),
                          P1=100 * np.eye(1), T=4)
    fit = TrackingProblem(model=quad, reg=make_regularizer("l2", 1), y=np.full((4, 1), 4.0))
    calls.update(normal=0, rts=0, ks=0, lin=0)
    lam, z = [], np.zeros((4, 1))
    lm_ieks(fit, z, z, 1.0, np.full((4, 1), 0.05), LMConfig(lambda0=1e-6, i_max=3, step_tol=0.0),
            lambda_trace=lam)
    assert calls["rts"] == 0 and calls["normal"] == calls["lin"] == len(lam) == 3
    assert calls["ks"] > len(lam)  # the rejected proposals, one pass each
    calls.update(normal=0, rts=0, ks=0, lin=0)
    lm_ieks(TrackingProblem(prob.model, GroupRegularizer(groups=(), weights=()), prob.y),
            None, None, 0.0, x0, LMConfig(lambda0=0.0, i_max=4, step_tol=0.0))
    assert calls == {"normal": 4, "rts": 0, "ks": 4, "lin": 4}


def test_band_factor_names_the_bad_step():
    """A transition covariance of 1e-20 at step 3 is positive definite, but
    the information matrix it gives is not to rounding at that step, which
    the first pass names; a noise block that does not factor is named
    before any pass."""
    Q = np.tile(np.eye(2), (8, 1, 1))
    Q[3] = 1e-20 * np.eye(2)
    model = AffineModel(A=np.eye(2), b=np.zeros(2), H=np.eye(2), e=np.zeros(2),
                        Q=Q, R=np.eye(2), m1=np.zeros(2), P1=np.eye(2), T=8)
    with pytest.raises(SingularSystemError,
                       match="^inner iteration 1: information matrix at step 3 "
                             "is not positive definite$"):
        plain_ieks(model, np.zeros((8, 2)), i_max=1)
    R = np.tile(np.eye(2), (8, 1, 1))
    R[5] = np.diag([1.0, -1.0])
    for bad, match in ((dict(Q=np.eye(2), R=R), "R at step 5 "),
                       (dict(Q=-Q), "Q at step 1 "),
                       (dict(P1=np.diag([1.0, 0.0])), "P1 at step 0 ")):
        with pytest.raises(SingularSystemError, match=f"^{match}is not positive definite"):
            plain_ieks(replace(model, validate=False, **bad), np.zeros((8, 2)), i_max=1)



def factor_sizes(monkeypatch):
    """Record the columns (blocks times n_x) of every band dpbtrf factors."""
    sizes = []
    factor = smoothers.dpbtrf

    def recorded(ab, **kwargs):
        sizes.append(ab.shape[1])
        return factor(ab, **kwargs)

    monkeypatch.setattr(smoothers, "dpbtrf", recorded)
    return sizes


def assert_full_factor(band, eqs):
    """band is dpbtrf's factor of eqs' whole band, byte for byte, laid out
    as dpbtrs reads it without a copy."""
    full, info = dpbtrf(eqs.band, lower=1)
    assert info == 0 and band.shape == full.shape and band.flags.f_contiguous
    assert band.tobytes() == full.tobytes()


@pytest.mark.parametrize("n_x", range(1, 7))
def test_band_factor_is_the_full_factor_of_a_time_invariant_system(monkeypatch, n_x):
    """On random time-invariant models, at gamma = 0 and > 0, for both
    target modes and damped with a one-block S, band_factor gives dpbtrf's
    factor of the whole band byte for byte, from one step below the
    steady-state threshold (where it factors the whole band at once) to 5000
    steps; at or above it, most systems take the steady-state path."""
    sizes = factor_sizes(monkeypatch)
    taken = []
    for T in (smoothers.STEADY_T - 1, smoothers.STEADY_T, 700, 5000):
        rng = np.random.default_rng(1000 * n_x + T)
        for target_mode in ("process_noise", "state"):
            prob = random_affine_problem(rng, T=T, n_x=n_x, target_mode=target_mode)
            B, _ = prob.penalty_targets()
            s_inv = np.linalg.inv(np.eye(n_x) + 0.2 * np.diag(rng.uniform(size=n_x)))[None]
            for gamma in (0.0, 0.9):
                eqs = normal_equations(prob.model, prob.y, B, gamma=gamma, kept=prob.kept)
                for system in (eqs, eqs.damped(0.4, s_inv, rng.normal(size=(T, n_x)))):
                    sizes.clear()
                    assert_full_factor(smoothers.band_factor(system), system)
                    if T < smoothers.STEADY_T:
                        assert sizes == [T * n_x]
                    else:
                        taken.append(T * n_x not in sizes)
    assert sum(taken) >= len(taken) / 2, taken


@pytest.mark.parametrize("target_mode", ["process_noise", "state"])
def test_steady_state_solves_return_the_full_factor_bytes(monkeypatch, target_mode):
    """On Wiener at T = 2000 the initial pass, the ks_madmm x update and the
    affine Gauss-Newton proposal (on a problem with no kept factor) take the
    steady-state path and return the bytes they return from the whole band's
    factor."""
    T = 2000
    prob = wiener_problem(T, target_mode)
    rng = np.random.default_rng(8)
    V, eta = rng.normal(size=(2, T, 4))
    solver = make_x_solver("ks_madmm")

    def solves():
        prob.kept.clear()
        x0 = plain_smoother(prob.model, prob.y)
        x_ks = solver(prob, V, eta, 1.0, None)
        prob.kept.clear()  # else the proposal back-substitutes ks_madmm's kept factor
        return x0, x_ks, lm_ieks(prob, V, eta, 1.0, x0, LMConfig(lambda0=0.0))

    sizes = factor_sizes(monkeypatch)
    steady = solves()
    assert len(sizes) >= 3 and T * 4 not in sizes
    monkeypatch.setattr(smoothers, "_steady_factor", lambda band: None)
    sizes.clear()
    full = solves()
    assert sizes == [T * 4] * 3
    for a, b in zip(steady, full):
        assert a.tobytes() == b.tobytes()


def slow_settling_model(T):
    """A random walk observed through heavy noise: its Riccati recursion
    contracts by about 1e-3 per step, far too slowly to settle in 500 steps."""
    return AffineModel(A=np.eye(1), b=np.zeros(1), H=np.eye(1), e=np.zeros(1),
                       Q=1e-6 * np.eye(1), R=np.eye(1), m1=np.zeros(1), P1=np.eye(1), T=T)


@pytest.mark.parametrize("case", ["per_step_Q", "per_step_H", "short", "slow"])
def test_band_factor_falls_back_to_the_whole_band(monkeypatch, case):
    """A per-step Q or H (a time-varying system), T below the steady-state
    threshold and a model whose transient outlasts the bounded truncated
    attempts all factor the whole band, with dpbtrf's factor of it.  Only
    the slow model tries truncated systems first, in all at most a quarter
    of the whole band."""
    T = {"short": smoothers.STEADY_T - 1, "slow": 2000}.get(case, 600)
    if case == "slow":
        model, y = slow_settling_model(T), np.random.default_rng(9).normal(size=(T, 1))
    else:
        prob = wiener_problem(T, "process_noise")
        model, y = prob.model, prob.y
        varied = np.ones(T)
        varied[T // 2] = 1.1
        if case == "per_step_Q":
            model = replace(model, Q=model.Q * varied[:, None, None])
        elif case == "per_step_H":
            model = replace(model, H=model.H * varied[:, None, None])
    n = model.n_x
    eqs = normal_equations(model, y)
    sizes = factor_sizes(monkeypatch)
    assert_full_factor(smoothers.band_factor(eqs), eqs)
    assert sizes[-1] == T * n
    if case == "slow":
        first = smoothers.STEADY_FIRST * n
        assert sizes[:-1] == [first, 2 * first] and sum(sizes[:-1]) <= T * n / 4
    else:
        assert len(sizes) == 1


def test_time_invariant_system_that_does_not_factor_names_its_step(monkeypatch):
    """A time-invariant information matrix that is not positive definite to
    rounding (A = I, Q = 1e-20 I) fails its truncated system too, and the
    whole band's factor then raises the error that names the step."""
    T = 600
    model = AffineModel(A=np.eye(2), b=np.zeros(2), H=np.eye(2), e=np.zeros(2),
                        Q=1e-20 * np.eye(2), R=np.eye(2), m1=np.zeros(2), P1=np.eye(2), T=T)
    sizes = factor_sizes(monkeypatch)
    with pytest.raises(SingularSystemError,
                       match="^information matrix at step 599 is not positive definite$"):
        plain_smoother(model, np.zeros((T, 2)))
    assert sizes == [smoothers.STEADY_FIRST * 2, T * 2]

@pytest.mark.parametrize("solver", ["gn_ieks_madmm", "lm_ieks_madmm"])
def test_linearize_names_non_finite_callable(solver):
    # NaN at step 7 only away from m1, where the constructor's probe is blind
    prob = range_problem(T=12)

    def measurement(t, X):
        out = np.array(prob.model.measurement(t, X), dtype=float)
        out[(np.asarray(t) == 7) & (X != prob.model.m1).any(axis=-1)] = np.nan
        return out

    bad = TrackingProblem(model=replace(prob.model, measurement=measurement),
                          reg=prob.reg, y=prob.y)
    with pytest.raises(ValueError, match="^measurement returned a non-finite value at step 7"):
        solve_problem(bad, solver, opts=MadmmOptions(k_max=2), i_max=3)


def _poisoned(model, name, value, step=5):
    """model with the callable name returning value at step, away from m1
    (the constructor's probe)."""
    fn = getattr(model, name)

    def bad(t, X):
        out = np.array(np.broadcast_to(fn(t, X), np.shape(t) + np.shape(fn(0, model.m1))))
        out[(np.asarray(t) == step) & (X != model.m1).any(axis=-1)] = value
        return out
    return replace(model, **{name: bad})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["transition_jacobian", "transition",
                                  "measurement_jacobian", "measurement"])
def test_linearize_names_each_non_finite_output(name, value):
    """A NaN or inf in any of linearize's four outputs raises the message
    naming the callable and the step."""
    prob = range_problem(T=12)
    nominal = initial_trajectory(prob)
    with pytest.raises(ValueError, match=f"^{name} returned a non-finite value at step 5$"), \
            np.errstate(all="ignore"):
        linearize(_poisoned(prob.model, name, value), nominal)


def test_linearize_accepts_finite_outputs_whose_sum_overflows():
    """Entries near 1e308 are finite although their sum is not; the one
    summed check then falls through to the per-output scan, which passes."""
    prob = range_problem(T=12)
    model = replace(prob.model, measurement=lambda t, X: np.full(np.shape(t) + (3,), 1e308))
    with np.errstate(over="ignore"):
        lin = linearize(model, initial_trajectory(prob))
        assert np.isfinite(lin.e).all() and not np.isfinite(lin.e.sum())


def test_gauss_newton_returns_x0_itself_when_no_proposal_is_accepted():
    """gauss_newton iterates on the Iterate x0 itself: with no accepted
    proposal (a damped one that does not move, or one whose cost ties) it
    returns the caller's Iterate, whose x trace holds a copy of."""
    prob = range_problem()
    x0 = Iterate(prob, initial_trajectory(prob))
    for shift in (0.0, 1.0):
        trace = []
        x = gauss_newton(prob, lambda x, targets, lam: x.x + shift, x0,
                         lambda x, targets: 0.0, LMConfig(), trace)
        assert x is x0 and len(trace) == 1 and trace[0] is not x0.x
        np.testing.assert_array_equal(trace[0], x0.x)


def test_direct_lm_ieks_calls_get_no_seed_even_after_an_in_place_write():
    """Model values cross x updates only inside run_madmm: after a loop on
    the problem (which leaves nothing kept on it), and after writing into a
    returned x, a direct lm_ieks call gives a fresh problem's x bit for bit
    and never returns its x0."""
    cfg = LMConfig(i_max=5, step_tol=0.0)
    prob = range_problem(seed=2, T=20)
    rng = np.random.default_rng(8)
    V, eta = 0.1 * rng.normal(size=(2, prob.T, prob.n_x))
    x0 = initial_trajectory(prob)
    rep = run_madmm(prob, make_x_solver("lm_ieks_madmm"),
                    MadmmOptions(k_max=3, eps_primal=0.0, eps_dual=0.0), x0=x0)
    assert not prob.kept
    for x in (rep.x, lm_ieks(prob, V, eta, 1.0, x0, cfg)):
        x[4:] += 0.3
        again = lm_ieks(prob, V, eta, 1.0, x, cfg)
        assert again is not x and set(prob.kept) == {"static"}
        assert np.array_equal(again, lm_ieks(range_problem(seed=2, T=20), V, eta, 1.0,
                                             x.copy(), cfg))


def test_lm_x_update_returns_the_kind_of_its_start():
    """From an Iterate, lm_ieks and batch_nonlinear_solve return an Iterate of
    the problem, from an array a new array, with the same x bit for bit;
    when no proposal is accepted (heavy damping) the Iterate comes back
    itself and the array as a copy."""
    prob = range_problem(seed=2, T=20)
    rng = np.random.default_rng(3)
    V, eta = 0.1 * rng.normal(size=(2, prob.T, prob.n_x))
    x0 = initial_trajectory(prob)
    for cfg, moves in ((LMConfig(i_max=4, step_tol=0.0), True),
                       (LMConfig(lambda0=1e14, i_max=2, step_tol=0.0), False)):
        for solve in (lambda x: lm_ieks(prob, V, eta, 1.0, x, cfg),
                      lambda x: batch_nonlinear_solve(prob, V, eta, 1.0, cfg=cfg, x0=x)):
            x = solve(x0)
            start = Iterate(prob, x0.copy())
            it = solve(start)
            assert type(x) is np.ndarray and not np.shares_memory(x, x0)
            assert type(it) is Iterate and it.problem is prob and (it is start) != moves
            np.testing.assert_array_equal(it.x, x)
            assert np.array_equal(x, x0) != moves


@pytest.mark.parametrize("solver", ["gn_ieks_madmm", "lm_ieks_madmm"])
def test_iterated_solvers_take_inner_settings_from_lm_cfg(monkeypatch, solver):
    """lm_cfg sets the inner iteration cap of GN as well as of LM: with
    i_max = 1 each ADMM iteration linearises the model once."""
    prob = range_problem(T=30)
    x0 = initial_trajectory(prob)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return linearize(*args, **kwargs)

    monkeypatch.setattr(smoothers, "linearize", counted)
    k = 3
    rep = solve_problem(prob, solver, x0=x0, lm_cfg=LMConfig(i_max=1, step_tol=0.0),
                        opts=MadmmOptions(gamma=1.0, k_max=k, eps_primal=0.0, eps_dual=0.0))
    assert rep.iterations == k
    assert calls[0] == k


@pytest.mark.parametrize("target_mode", ["state", "process_noise"])
def test_kept_static_part_gives_the_fresh_equations_and_band(target_mode):
    """The static part kept on the problem (its read-only band) gives the
    fresh normal equations and band factor bit for bit, at the iterate it
    was kept at and at another one."""
    prob = range_problem(seed=2, T=20, target_mode=target_mode)
    x = initial_trajectory(prob)
    rng = np.random.default_rng(7)
    for nominal in (x, x + 0.1 * rng.normal(size=x.shape)):
        lin = linearize(prob.model, nominal)
        B, d = prob.penalty_targets(nominal)
        kept = normal_equations(lin, prob.y, B, d, gamma=1.5, kept=prob.kept)
        fresh = normal_equations(lin, prob.y, B, d, gamma=1.5)
        static = prob.kept["static"]
        assert static[0][0] == 1.5 and not static[1].flags.writeable
        assert static[1] is not kept.band and not np.shares_memory(static[1], kept.band)
        for name in ("band", "h"):
            assert np.array_equal(getattr(kept, name), getattr(fresh, name))
        assert np.array_equal(smoothers.band_factor(kept), smoothers.band_factor(fresh))
        damped = (kept.damped(0.3, np.eye(4)[None], nominal),
                  fresh.damped(0.3, np.eye(4)[None], nominal))
        assert np.array_equal(augmented_ks(damped[0]), augmented_ks(damped[1]))


def whole_T(lin, B):
    """lin and B with A, Q and B as per-step stacks (T > 3), so static_part
    assembles every step instead of three."""
    steps = replace(lin, A=np.array(lin.A), Q=np.array(lin.Q), validate=False)
    return steps, np.array(B)


def band_oracle(lin, B, gamma, metric=None):
    """The band of lin's normal equations from the whole-T static_part, each
    entry written by assignment (_band), so -E's signed zeros stay: D_static
    + H'R^{-1}H, plus metric (the damping term) when given."""
    D, E = smoothers.static_part(*whole_T(lin, B), gamma)
    assert len(D) == lin.T
    H = models.compact(lin.H)
    D += (H.transpose(0, 2, 1) @ lin.noise_precisions[2]) @ H
    if metric is not None:
        D += metric
    return smoothers._band(E, D)


def stepped(model, name):
    """model with its A, Q or H a per-step stack (one block scaled by 1.1)."""
    arr = np.array(getattr(model, name))
    arr[model.T // 2] *= 1.1
    return replace(model, **{name: arr})


@pytest.mark.parametrize("n_x", range(1, 7))
def test_band_is_the_whole_T_assembly_byte_for_byte(n_x):
    """normal_equations' band, tiled from three steps (one-block A, Q and B)
    or assembled per step, kept or fresh, and damped in an (n, n), (1, n, n)
    or (T, n, n) metric, is _band of the whole-T static part plus H'R^{-1}H
    byte for byte, signed zeros included (Wiener's A has zeros, so -E has
    -0.0), at T = 1..4 and 600, gamma = 0 and > 0, in both target modes."""
    for T in (1, 2, 3, 4, 600):
        rng = np.random.default_rng(100 * n_x + T)
        for target_mode in ("state", "process_noise"):
            base = random_affine_problem(rng, T=T, n_x=n_x, target_mode=target_mode)
            if n_x == 4 and T == 600:
                base = wiener_problem(T, target_mode)
            for varied in (None, "A", "Q", "H"):
                model = base.model if varied is None else stepped(base.model, varied)
                prob = TrackingProblem(model=model, reg=base.reg, y=base.y)
                B, _ = prob.penalty_targets()
                for gamma in (0.0, 0.7):
                    want = band_oracle(model, B, gamma)
                    kept = {}
                    for store in (None, kept, kept):
                        eqs = normal_equations(model, prob.y, B, gamma=gamma, kept=store)
                        assert eqs.band.tobytes() == want.tobytes(), (T, varied, gamma)
                        assert eqs.band.shape == want.shape and eqs.band.flags.f_contiguous
                    # kept when A[1:] and B[1:] are one block: a per-step A has two at T > 2
                    assert ("static" in kept) == (T > 1 and (varied != "A" or T == 2))
                    S = rng.normal(size=(T, n_x, n_x))
                    S = S @ S.transpose(0, 2, 1) + np.eye(n_x)
                    z = rng.normal(size=(T, n_x))
                    for metric in (S[0], S[:1], S):
                        damped = eqs.damped(0.3, metric, z)
                        want = band_oracle(model, B, gamma, 0.3 * metric)
                        assert damped.band.tobytes() == want.tobytes(), (T, varied, metric.shape)


def test_band_inputs_stay_unwritten():
    """band_factor (on the steady-state and the whole-band path),
    augmented_ks, damped and the dense factor leave eqs.band's bytes as they
    were; the kept static band is read-only and never an equations' band.
    band_factor with overwrite writes the same factor over the band's own
    memory."""
    rng = np.random.default_rng(12)
    for T in (smoothers.STEADY_T - 1, 2000):
        prob = wiener_problem(T, "process_noise")
        B, _ = prob.penalty_targets()
        eqs = normal_equations(prob.model, prob.y, B, gamma=1.0, kept=prob.kept)
        static = prob.kept["static"][1]
        assert not static.flags.writeable and not np.shares_memory(static, eqs.band)
        before = eqs.band.tobytes()
        assert (smoothers._steady_factor(eqs.band) is None) == (T < smoothers.STEADY_T)
        factor = smoothers.band_factor(eqs)
        owned = replace(eqs, band=eqs.band.copy(order="F"))
        over = smoothers.band_factor(owned, overwrite=True)
        assert over.tobytes() == factor.tobytes() and np.shares_memory(over, owned.band)
        augmented_ks(eqs)
        eqs.damped(0.5, np.eye(4), rng.normal(size=(T, 4)))
        if T < smoothers.STEADY_T:  # the dense matrix of the long problem would take 256 MB
            _dense_factor(eqs, "m")
        assert eqs.band.tobytes() == before
        again = normal_equations(prob.model, prob.y, B, gamma=1.0, kept=prob.kept)
        assert prob.kept["static"][1] is static and again.band is not static
        assert again.band.tobytes() == before


def test_a_c_ordered_band_solves_as_the_band_does():
    """The band's memory order does not matter: a C-ordered copy of a short
    and of a steady-state band factors, solves, damps and (short) solves
    densely to the same bytes as the F-ordered band."""
    rng = np.random.default_rng(13)
    for T in (smoothers.STEADY_T - 1, 2000):
        prob = wiener_problem(T, "state")
        B, _ = prob.penalty_targets()
        eqs = normal_equations(prob.model, prob.y, B, gamma=1.0)
        c_band = replace(eqs, band=np.ascontiguousarray(eqs.band))
        assert not c_band.band.flags.f_contiguous
        assert smoothers.band_factor(c_band).tobytes() == smoothers.band_factor(eqs).tobytes()
        assert augmented_ks(c_band).tobytes() == augmented_ks(eqs).tobytes()
        z = rng.normal(size=(T, 4))
        assert (c_band.damped(0.5, np.eye(4), z).band.tobytes()
                == eqs.damped(0.5, np.eye(4), z).band.tobytes())
        if T < smoothers.STEADY_T:
            assert batch_x_affine(c_band).tobytes() == batch_x_affine(eqs).tobytes()


def count_calls(monkeypatch, *names):
    """Count the calls of the named smoothers functions, in that order."""
    calls = [0] * len(names)

    def counted(i, fn):
        def wrapper(*args, **kwargs):
            calls[i] += 1
            return fn(*args, **kwargs)
        return wrapper
    for i, name in enumerate(names):
        monkeypatch.setattr(smoothers, name, counted(i, getattr(smoothers, name)))
    return calls


def test_single_matrix_jacobian_that_moves_with_x_is_assembled_fresh(monkeypatch):
    """A transition Jacobian returned as one matrix that depends on x fails
    the check of its bytes, so every linearisation after the first assembles
    its static part fresh: lm_ieks gives the fresh x bit for bit."""
    prob = range_problem(seed=1, T=20)
    J = prob.model.transition_jacobian

    def moving(t, X):
        return (1.0 + 1e-3 * np.tanh(X.sum())) * np.asarray(J(t, X)).reshape(-1, 4, 4)[0]

    prob = TrackingProblem(model=replace(prob.model, transition_jacobian=moving),
                           reg=prob.reg, y=prob.y)
    x0 = initial_trajectory(prob)
    assert time_invariant(linearize(prob.model, x0).A)
    rng = np.random.default_rng(8)
    V, eta = 0.1 * rng.normal(size=(2, prob.T, 4))
    cfg = LMConfig(i_max=5, step_tol=0.0)
    calls = count_calls(monkeypatch, "static_part", "linearize")
    x = lm_ieks(prob, V, eta, 1.0, x0, cfg)
    assert calls[0] == calls[1] > 1  # the first kept, every later one fresh
    assert np.array_equal(x, _unshared_lm_ieks(prob, V, eta, 1.0, x0, cfg))


def test_kept_static_part_is_per_problem_and_gamma(monkeypatch):
    """A second problem on the same model, or the same problem at another
    gamma, builds its own static part and solves as a fresh assembly does."""
    first = range_problem(seed=4, T=20)
    second = TrackingProblem(model=first.model, reg=first.reg, y=first.y)
    rng = np.random.default_rng(9)
    V, eta = 0.1 * rng.normal(size=(2, first.T, 4))
    x0 = initial_trajectory(first)
    cfg = LMConfig(i_max=3, step_tol=0.0)
    calls = count_calls(monkeypatch, "static_part")
    ieks = make_x_solver("lm_ieks_madmm", lm_cfg=cfg)
    for prob, gamma, built in ((first, 1.0, 1), (first, 1.0, 0), (second, 1.0, 1),
                               (first, 2.5, 1)):
        calls[0] = 0
        x = ieks(prob, V, eta, gamma, x0)
        assert calls[0] == built
        assert prob.kept["static"][0][0] == gamma
        assert np.array_equal(x, _unshared_lm_ieks(prob, V, eta, gamma, x0, cfg))
    assert first.kept["static"][1] is not second.kept["static"][1]


@pytest.mark.parametrize("target_mode", ["state", "process_noise"])
def test_per_step_jacobians_decline_the_kept_part(target_mode):
    """coordinated_turn's transition Jacobian differs per step, so lm_ieks
    keeps no static part and gives a fresh assembly's x bit for bit."""
    data, model = simulate_coordinated_turn(scenario_defaults("coordinated_turn", T=30,
                                                              seed=5))
    reg = make_regularizer("group", 5, groups=[[2, 3, 4]], weights=1.0,
                           target_mode=target_mode)
    prob = TrackingProblem(model=model, reg=reg, y=data.y)
    rng = np.random.default_rng(10)
    V, eta = 0.1 * rng.normal(size=(2, prob.T, prob.n_x))
    x0 = initial_trajectory(prob)
    cfg = LMConfig(i_max=4, step_tol=0.0)
    x = lm_ieks(prob, V, eta, 1.0, x0, cfg)
    assert "static" not in prob.kept
    assert np.array_equal(x, _unshared_lm_ieks(prob, V, eta, 1.0, x0, cfg))


def test_plain_ieks_keeps_its_static_part_across_passes(monkeypatch):
    """plain_ieks's body (lm_ieks at gamma = 0 with no penalty, from the
    prior mean) builds the static part once for all of its passes and
    gives the passes of fresh assemblies bit for bit."""
    prob = range_problem(seed=3, T=20)
    calls = count_calls(monkeypatch, "static_part")
    lam = []
    x = lm_ieks(TrackingProblem(prob.model, GroupRegularizer(groups=(), weights=()), prob.y),
                None, None, 0.0, None, LMConfig(lambda0=0.0, i_max=6, step_tol=0.0),
                lambda_trace=lam)
    assert calls[0] == 1 and len(lam) == 6
    fresh = prior_mean = models.prior_mean_trajectory(prob.model)
    for _ in range(6):
        fresh = plain_smoother(linearize(prob.model, fresh), prob.y)
    assert not np.array_equal(fresh, prior_mean)
    assert np.array_equal(x, fresh)
