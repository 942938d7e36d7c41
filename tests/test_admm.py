"""Multi-block ADMM updates and the outer loop."""

import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from tracklasso import admm
from tracklasso.admm import (
    MadmmOptions,
    block_shrink,
    omega_norm_sq,
    residuals,
    run_madmm,
    update_dual_all,
    update_v_all,
    update_w_all,
    v_update_factor,
)
from tracklasso.models import (
    AffineModel,
    GroupRegularizer,
    Iterate,
    SingularSystemError,
    SplitState,
    TrackingProblem,
    augmented_lagrangian,
    make_regularizer,
    objective,
)
from tracklasso.scenarios import scenario_defaults, simulate_range, simulate_wiener
from tracklasso.smoothers import LMConfig
from tracklasso.solve import initial_trajectory, make_x_solver, solve_problem

# 12-iteration objective sequence of the scalar reference problem, computed
# with a standalone mADMM loop (2x2 hand-derived x solve, scalar shrink,
# explicit v and dual formulas) started from the unregularised optimum.
SCALAR_X0 = np.array([[1.1444582814445827], [1.6718555417185552]])
SCALAR_OBJS = np.array([
    4.835280199252802, 4.3799119465208225, 4.329162295928262,
    4.32821141594301, 4.325121870281627, 4.3184019461190495,
    4.313083400705091, 4.311130271483734, 4.310828146211134,
    4.310794566055864, 4.310709592967397, 4.310637562622578,
])


def scalar_problem():
    model = AffineModel(A=np.array([[0.8]]), b=np.array([0.1]),
                        H=np.array([[1.0]]), e=np.array([0.0]),
                        Q=np.array([[0.5]]), R=np.array([[0.25]]),
                        m1=np.array([0.2]), P1=np.array([[2.0]]), T=2)
    reg = make_regularizer("group", 1, groups=[[0]], weights=1.5,
                           target_mode="state")
    return TrackingProblem(model=model, reg=reg, y=np.array([[1.0], [2.0]]))


@pytest.mark.parametrize("field, value", [
    ("gamma", 0.0), ("gamma", np.nan), ("gamma", np.inf), ("k_max", -1), ("k_max", 2.0),
    ("eps_primal", np.nan), ("eps_dual", np.inf),
])
def test_madmm_options_reject_a_bad_value_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        MadmmOptions(**{field: value})
    MadmmOptions(k_max=np.int64(3), eps_primal=0.0)


def test_block_shrink_hand_values():
    np.testing.assert_allclose(block_shrink(np.array([3.0, 4.0]), 0.5),
                               [2.7, 3.6])
    np.testing.assert_allclose(block_shrink(np.array([3.0, 4.0]), 5.0),
                               [0.0, 0.0])
    np.testing.assert_allclose(block_shrink(np.array([3.0, 4.0]), 0.0),
                               [3.0, 4.0])
    np.testing.assert_allclose(block_shrink(np.zeros(2), 0.5), [0.0, 0.0])
    with pytest.raises(ValueError):
        block_shrink(np.ones(2), -0.1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       st.floats(0, 5))
def test_block_shrink_nonexpansive(za, zb, kappa):
    a = block_shrink(np.array(za), kappa)
    b = block_shrink(np.array(zb), kappa)
    tol = 1e-9 * (1 + np.linalg.norm(np.array(za) - np.array(zb)))
    assert np.linalg.norm(a - b) <= np.linalg.norm(np.array(za) - np.array(zb)) + tol


def test_update_v_hand_value():
    # scalar case with G = [2]: v = (gamma u + eta_u + G(gamma w + eta_w))
    #                               / (gamma (1 + G^2)) = 1.16
    from tracklasso.models import GroupRegularizer

    reg = GroupRegularizer(groups=[np.array([[2.0]])], weights=1.0)
    v = update_v_all(np.array([[1.0]]), np.array([[3.0]]),
                     np.array([[0.2, -0.4]]), reg, 0.5)
    np.testing.assert_allclose(v, [[1.16]], rtol=1e-12)


def test_update_v_no_groups():
    # with no penalty rows the update reduces to u + eta_bar/gamma
    from tracklasso.models import GroupRegularizer

    empty = GroupRegularizer(groups=[], weights=np.zeros(0))
    v = update_v_all(np.array([[1.0, 2.0]]), np.zeros((1, 0)),
                     np.array([[0.5, -0.5]]), empty, 2.0)
    np.testing.assert_allclose(v, [[1.25, 1.75]])


def test_update_v_equals_cho_solve_bit_for_bit():
    """update_v_all's direct dpotrs gives scipy's cho_solve result exactly."""
    from scipy.linalg import cho_solve

    rng = np.random.default_rng(3)
    reg = make_regularizer("group", 4, groups=[[0, 1], [1, 2, 3]], weights=1.0)
    U, eta = rng.normal(size=(50, 4)), rng.normal(size=(50, 4 + reg.total_rows))
    W, gamma = rng.normal(size=(50, reg.total_rows)), 1.7
    factor = v_update_factor(reg)
    rhs = (gamma * U + eta[:, :4]) + (gamma * W + eta[:, 4:]) @ reg.G_stack
    assert np.array_equal(update_v_all(U, W, eta, reg, gamma, factor),
                          cho_solve(factor, rhs.T).T / gamma)


def w_objective(w, v_t, eta_under_t, reg, gamma):
    val = gamma / 2 * np.sum((w - reg.G_stack @ v_t + eta_under_t / gamma) ** 2)
    norms = reg.group_norms(w[None, :])[0]
    return val + float(norms @ reg.weights)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_update_w_minimises_its_objective(seed):
    rng = np.random.default_rng(seed)
    reg = make_regularizer("group", 4, groups=[[0, 1], [2, 3]],
                           weights=float(rng.uniform(0.1, 3.0)))
    gamma = float(rng.uniform(0.2, 3.0))
    v_t = rng.normal(size=4)
    eta_under = rng.normal(size=4)
    w_star = update_w_all(v_t[None], eta_under[None], reg, gamma)[0]
    base = w_objective(w_star, v_t, eta_under, reg, gamma)
    for _ in range(8):
        trial = w_star + rng.normal(scale=0.3, size=4)
        assert base <= w_objective(trial, v_t, eta_under, reg, gamma) + 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_update_v_stationarity(seed):
    # gradient of the two coupling quadratics must vanish at the update
    rng = np.random.default_rng(seed)
    reg = make_regularizer("group", 3, groups=[[0, 2], [1]], weights=1.0)
    gamma = float(rng.uniform(0.2, 3.0))
    u_t = rng.normal(size=3)
    w_t = rng.normal(size=reg.total_rows)
    eta_t = rng.normal(size=3 + reg.total_rows)
    v = update_v_all(u_t[None], w_t[None], eta_t[None], reg, gamma,
                     v_update_factor(reg))[0]
    G = reg.G_stack
    grad = (-gamma * (u_t - v + eta_t[:3] / gamma)
            - gamma * G.T @ (w_t - G @ v + eta_t[3:] / gamma))
    np.testing.assert_allclose(grad, np.zeros(3), atol=1e-9)


def test_update_dual_formula():
    reg = make_regularizer("group", 2, groups=[[0, 1]], weights=1.0)
    u = np.array([1.0, -1.0])
    w = np.array([0.5, 0.5])
    v = np.array([0.25, 0.75])
    eta = np.array([0.1, 0.2, 0.3, 0.4])
    out = update_dual_all(u[None], w[None], v[None], eta[None], reg, 2.0)[0]
    resid = np.concatenate([u - v, w - reg.G_stack @ v])
    np.testing.assert_allclose(out, eta + 2.0 * resid)


def test_residuals_zero_at_consensus():
    reg = make_regularizer("group", 2, groups=[[0, 1]], weights=1.0)
    V = np.array([[1.0, 2.0], [3.0, 4.0]])
    U = V.copy()
    W = V @ reg.G_stack.T
    r_pri, r_dual = residuals(U, W, V, V, reg, 1.5)
    assert r_pri == 0.0 and r_dual == 0.0


def test_omega_norm_hand_value():
    reg = make_regularizer("l2", 2, weights=1.0)  # G = I
    dv = np.array([[1.0, 2.0]])
    deta = np.array([[1.0, 1.0, 0.0, 0.0]])
    # gamma ||dv||^2 + ||G dv||^2 + ||deta||^2 / gamma = 10 + 5 + 1
    assert omega_norm_sq(dv, deta, reg, 2.0) == pytest.approx(16.0)


def test_run_madmm_matches_reference_trace():
    prob = scalar_problem()
    opts = MadmmOptions(gamma=1.0, k_max=12, eps_primal=0.0, eps_dual=0.0)
    for name in ("batch_madmm", "ks_madmm"):
        rep = run_madmm(prob, make_x_solver(name), opts, x0=SCALAR_X0)
        np.testing.assert_allclose(rep.objective, SCALAR_OBJS, atol=1e-10)
        assert rep.iterations == 12
        assert not rep.converged
        assert rep.r_primal.shape == (12,)


def test_seconds_time_the_whole_iteration(monkeypatch):
    """SolveReport.seconds (report.txt's seconds_total) times each iteration
    to its end, diagnostics included: an objective slowed by 20 ms shows in
    every entry."""
    real = admm.objective

    def slow_objective(*args, **kwargs):
        time.sleep(0.02)
        return real(*args, **kwargs)

    monkeypatch.setattr(admm, "objective", slow_objective)
    rep = run_madmm(scalar_problem(), make_x_solver("ks_madmm"), MadmmOptions(k_max=3),
                    x0=SCALAR_X0)
    assert len(rep.seconds) == 3
    assert (rep.seconds >= 0.02).all(), rep.seconds


def test_run_madmm_converges_and_flags():
    prob = scalar_problem()
    opts = MadmmOptions(gamma=1.0, k_max=500, eps_primal=1e-9, eps_dual=1e-9)
    rep = run_madmm(prob, make_x_solver("batch_madmm"), opts, x0=SCALAR_X0)
    assert rep.converged and rep.stop_reason == "tolerance"
    assert rep.iterations < 500
    np.testing.assert_allclose(rep.x.ravel(), [0.78953923, 1.32721046],
                               atol=1e-6)
    np.testing.assert_allclose(rep.objective[-1], 4.3106070983810705,
                               atol=1e-9)


def test_run_madmm_records_states():
    prob = scalar_problem()
    opts = MadmmOptions(gamma=1.0, k_max=3, eps_primal=0.0, eps_dual=0.0)
    rep = run_madmm(prob, make_x_solver("batch_madmm"), opts, x0=SCALAR_X0,
                    record_states=True)
    assert len(rep.states) == 4  # initial split plus one per iteration
    assert rep.stop_reason == "k_max"
    assert isinstance(rep.states[0], SplitState)
    np.testing.assert_allclose(rep.states[0].x, SCALAR_X0)


def test_zero_iteration_probe():
    prob = scalar_problem()
    rep = run_madmm(prob, make_x_solver("batch_madmm"),
                    MadmmOptions(k_max=0), x0=SCALAR_X0)
    assert rep.iterations == 0 and rep.stop_reason == "k_max"
    np.testing.assert_allclose(rep.x, SCALAR_X0)


@pytest.mark.parametrize("solver", ["ks_madmm", "batch_madmm"])
def test_penalty_with_no_groups_solves(solver):
    """No groups give a w block of shape (T, 0) and the x of one zero-row group."""
    data, model = simulate_wiener(scenario_defaults("wiener", T=20, seed=3))
    opts = MadmmOptions(k_max=3, eps_primal=0.0, eps_dual=0.0)
    x0 = np.zeros((20, 4))
    reps = [solve_problem(TrackingProblem(model, reg, data.y), solver, opts=opts, x0=x0)
            for reg in (GroupRegularizer(groups=[], weights=[]),
                        GroupRegularizer(groups=[np.zeros((0, 4))], weights=[1.0]))]
    assert reps[0].state.w.shape == (20, 0) and reps[0].iterations == 3
    assert np.array_equal(reps[0].x, reps[1].x)
    assert not np.array_equal(reps[0].x, x0)


def diagnostics_problem(case):
    """Problem and solver for each way the loop can take its penalty targets."""
    rng = np.random.default_rng(11)
    if case == "nonlinear_process_noise":
        data, model = simulate_range(scenario_defaults("range", T=30, seed=4))
        reg = make_regularizer("group", 4, groups=[[2, 3]], weights=1.0,
                               target_mode="process_noise")
        return TrackingProblem(model=model, reg=reg, y=data.y), "lm_ieks_madmm"
    data, model = simulate_wiener(scenario_defaults("wiener", T=40, seed=4))
    if case in ("affine_process_noise", "affine_state"):
        reg = make_regularizer("group", 4, groups=[[0, 1], [2, 3]], weights=0.7,
                               target_mode=case.split("_", 1)[1])
    elif case == "explicit_B":
        B = np.eye(4) + 0.1 * rng.normal(size=(40, 4, 4))
        reg = GroupRegularizer(groups=(np.eye(4)[:2], np.eye(4)[2:]), weights=[0.5, 1.5],
                               B=B, d=0.1 * rng.normal(size=(40, 4)))
    else:  # a group with no rows: total_rows == 0
        reg = GroupRegularizer(groups=(np.zeros((0, 4)),), weights=[1.0])
    return TrackingProblem(model=model, reg=reg, y=data.y), "ks_madmm"


@pytest.mark.parametrize("case", ["affine_process_noise", "affine_state",
                                  "nonlinear_process_noise", "explicit_B", "no_rows"])
def test_shared_diagnostics_equal_the_standalone_values(case):
    """The loop computes the objective and the Lagrangian from one data cost,
    its own increments and the dual update's constraint gaps; each value
    equals the standalone objective and augmented_lagrangian bit for bit."""
    prob, solver = diagnostics_problem(case)
    assert (prob.reg.total_rows == 0) == (case == "no_rows")
    gamma = 0.8
    # a start off the unregularised fit, so the split moves even with no rows
    x0 = initial_trajectory(prob) + 0.3 * np.random.default_rng(12).normal(size=(prob.T, 4))
    rep = run_madmm(prob, make_x_solver(solver, LMConfig(i_max=3)),
                    MadmmOptions(gamma=gamma, k_max=6, eps_primal=0.0, eps_dual=0.0),
                    x0=x0, record_states=True)
    assert len({float(v) for v in rep.lagrangian}) == 6
    assert rep.iterations == 6 and len(rep.states) == 7
    for k, state in enumerate(rep.states[1:]):
        assert rep.objective[k] == objective(prob, state.x), (case, k)
        assert rep.lagrangian[k] == augmented_lagrangian(prob, state, gamma), (case, k)


@pytest.mark.parametrize("scenario, seed, passes, converged", [
    ("range", 0, 20, False),  # meets the cap of INITIAL_PASSES
    ("range", 1, 16, True),
    ("wiener", 0, 1, True),  # an affine model takes one exact pass
])
def test_solve_records_the_initialiser(scenario, seed, passes, converged):
    """solve_problem records the initial smoother's accepted passes,
    whether it stopped before its cap and its wall time, without changing
    its iterate; a caller's start records none of them."""
    sim = simulate_range if scenario == "range" else simulate_wiener
    data, model = sim(scenario_defaults(scenario, T=30, seed=seed))
    prob = TrackingProblem(model, make_regularizer("group", 4, groups=[[2, 3]]), data.y)
    solver = "lm_ieks_madmm" if scenario == "range" else "ks_madmm"
    opts = MadmmOptions(k_max=2)
    rep = solve_problem(prob, solver, opts=opts)
    assert (rep.initial_passes, rep.initial_converged) == (passes, converged)
    given = solve_problem(prob, solver, opts=opts, x0=initial_trajectory(prob))
    assert given.initial_passes is None and given.initial_converged is None
    assert rep.initial_seconds > 0 and given.initial_seconds is None
    assert np.array_equal(rep.x, given.x)


def test_solve_drops_the_kept_static_part():
    """The iterated smoother keeps its static part on the problem during a
    solve; run_madmm, and so solve_problem, drops it on return, and a second
    loop on the problem gives the same iterate."""
    data, model = simulate_range(scenario_defaults("range", T=30, seed=2))
    prob = TrackingProblem(model, make_regularizer("group", 4, groups=[[2, 3]]), data.y)
    opts = MadmmOptions(k_max=3, eps_primal=0.0, eps_dual=0.0)
    x0 = initial_trajectory(prob)
    rep = solve_problem(prob, "lm_ieks_madmm", opts=opts, x0=x0)
    assert not prob.kept
    ieks, seen = make_x_solver("lm_ieks_madmm"), []

    def recording(problem, *args):
        out = ieks(problem, *args)
        seen.append(set(problem.kept))
        return out
    again = run_madmm(prob, recording, opts, x0=x0)
    assert seen == [{"static"}] * 3 and not prob.kept
    np.testing.assert_array_equal(rep.x, again.x)


@pytest.mark.parametrize("shape", [(28, 4), (29, 3), (29,)])
def test_an_x0_of_the_wrong_shape_raises_naming_x0(shape):
    """run_madmm, and so solve_problem, rejects an x0 that is not (T, n_x)
    with an error naming x0 and both shapes."""
    data, model = simulate_wiener(scenario_defaults("wiener", T=29, seed=0))
    prob = TrackingProblem(model, make_regularizer("l2", 4), data.y)
    msg = re.escape(f"x0: expected shape (29, 4), got {shape}")
    with pytest.raises(ValueError, match=msg):
        solve_problem(prob, "ks_madmm", x0=np.zeros(shape))
    with pytest.raises(ValueError, match=msg):
        run_madmm(prob, make_x_solver("ks_madmm"), MadmmOptions(), x0=np.zeros(shape))


@pytest.mark.parametrize("solver", ["ks_madmm", "batch_madmm", "lm_ieks_madmm"])
@pytest.mark.parametrize("value, step", [(np.nan, 0), (np.inf, 17), (-np.inf, 28)])
def test_a_non_finite_x0_raises_naming_x0_and_its_step(solver, value, step):
    """run_madmm, and so solve_problem, rejects a non-finite x0 before the
    first x update, naming x0 and the first bad step, on every solver."""
    data, model = simulate_wiener(scenario_defaults("wiener", T=29, seed=0))
    prob = TrackingProblem(model, make_regularizer("l2", 4), data.y)
    x0 = np.zeros((29, 4))
    x0[step, 2] = value
    with pytest.raises(ValueError, match=f"^x0: non-finite value at step {step}$"):
        solve_problem(prob, solver, x0=x0)
    assert not prob.kept


@pytest.mark.parametrize("target_mode", ["state", "process_noise"])
def test_two_engines_share_one_problem(target_mode):
    """ks_madmm and gn_ieks_madmm share one "band_factor" slot of
    problem.kept (no static part is kept): x updates alternated between the
    two on one Wiener problem give the same x bit for bit at every call, and
    so does a loop that alternates them.  run_madmm leaves kept empty when
    it returns and when it raises."""
    data, model = simulate_wiener(scenario_defaults("wiener", T=40, seed=3))
    prob = TrackingProblem(model, make_regularizer("l2", 4, target_mode=target_mode), data.y)
    ks, gn = make_x_solver("ks_madmm"), make_x_solver("gn_ieks_madmm")
    x0 = initial_trajectory(prob)
    it = Iterate(prob, x0)
    rng = np.random.default_rng(11)
    for gamma in (1.0, 1.0, 0.5, 1.0):
        V, eta = rng.normal(size=(2, prob.T, 4))
        for first, second in ((ks, gn), (gn, ks)):
            a, b = first(prob, V, eta, gamma, it), second(prob, V, eta, gamma, it)
            np.testing.assert_array_equal(a.x, b.x)
        assert set(prob.kept) == {"band_factor"}
        it = a
    calls = []

    def alternating(problem, *args):
        calls.append(None)
        return (ks if len(calls) % 2 else gn)(problem, *args)

    opts = MadmmOptions(k_max=4, eps_primal=0.0, eps_dual=0.0)
    rep = run_madmm(prob, alternating, opts, x0=x0)
    assert not prob.kept
    np.testing.assert_array_equal(rep.x, run_madmm(prob, ks, opts, x0=x0).x)

    def failing(problem, *args):
        ks(problem, *args)
        gn(problem, *args)
        raise SingularSystemError("stop")

    with pytest.raises(SingularSystemError, match="stop"):
        run_madmm(prob, failing, opts, x0=x0)
    assert not prob.kept


CALLABLES = ("transition", "transition_jacobian", "measurement", "measurement_jacobian")


def counted_range_problem(target_mode, calls, in_x, inputs=None):
    """A range problem whose callables count, per name, the calls made
    outside an x update (while in_x[0] is False), and append the bytes of
    every input to inputs[name], if given."""
    data, model = simulate_range(scenario_defaults("range", T=25, seed=4))

    def counted(name, fn):
        def wrapper(t, X):
            if not in_x[0]:
                calls[name] = calls.get(name, 0) + 1
            if inputs is not None:
                inputs.setdefault(name, []).append(np.asarray(X).tobytes())
            return fn(t, X)
        return wrapper

    model = replace(model, **{name: counted(name, getattr(model, name)) for name in CALLABLES})
    reg = make_regularizer("group", 4, groups=[[2, 3]], target_mode=target_mode)
    return TrackingProblem(model, reg, data.y)


def flagged(x_solver, in_x, fresh=False):
    """x_solver with in_x[0] set while it runs; fresh returns a new Iterate
    at a copy of x, which holds none of the model's values."""
    def solver(problem, *args):
        in_x[0] = True
        try:
            x = x_solver(problem, *args)
        finally:
            in_x[0] = False
        return Iterate(problem, x.x.copy()) if fresh else x
    return solver


@pytest.mark.parametrize("target_mode", ["state", "process_noise"])
@pytest.mark.parametrize("solver", ["lm_ieks_madmm", "gn_ieks_madmm", "batch_madmm"])
def test_run_madmm_evaluates_the_model_only_in_the_x_update(solver, target_mode):
    """The x update returns the Iterate of its x, whose model values serve
    run_madmm (targets, data cost) and the next x update, so past the
    feasible start (process_noise targets at x0) the loop calls the model
    only for what the x update did not need: Gauss-Newton never costs the
    iterate it returns, so the loop's data cost evaluates the measurement
    there, and in state mode the transition too.  No callable sees one input
    twice in the run: the Iterate at x0 of the feasible start also starts
    the first x update.  An x solver that returns a fresh Iterate gets the
    model evaluated by the loop, once per iteration, with the same iterates,
    objective and Lagrangian bit for bit."""
    calls, in_x, inputs, k = {}, [False], {}, 4
    prob = counted_range_problem(target_mode, calls, in_x, inputs)
    x0 = initial_trajectory(prob)
    opts = MadmmOptions(k_max=k, eps_primal=0.0, eps_dual=0.0)
    start = {"transition": 1, "transition_jacobian": 1} if target_mode == "process_noise" else {}
    uncosted = {}
    if solver == "gn_ieks_madmm":
        uncosted = dict.fromkeys(("measurement",) + (("transition",) if not start else ()), k)
    calls.clear()
    inputs.clear()
    rep = run_madmm(prob, flagged(make_x_solver(solver), in_x), opts, x0=x0)
    assert calls == start | uncosted
    assert set(prob.kept) <= {"static"}
    assert set(inputs) == set(CALLABLES)
    for name, seen in inputs.items():
        assert len(set(seen)) == len(seen), name
    calls.clear()
    own = run_madmm(prob, flagged(make_x_solver(solver), in_x, fresh=True), opts, x0=x0)
    per_iteration = dict.fromkeys(("transition", "measurement", *start), k)
    assert calls == {name: n + start.get(name, 0) for name, n in per_iteration.items()}
    for field in ("x", "objective", "lagrangian", "r_primal", "r_dual"):
        np.testing.assert_array_equal(getattr(rep, field), getattr(own, field))
