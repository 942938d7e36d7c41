"""Model containers, penalty structures, and cost functions."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from tracklasso.models import (
    GROUPED_KINDS,
    REGULARIZER_KINDS,
    TARGET_MODES,
    AffineModel,
    GroupRegularizer,
    Iterate,
    NonlinearModel,
    SingularSystemError,
    SplitState,
    TrackingProblem,
    augmented_lagrangian,
    compact,
    data_cost,
    make_regularizer,
    objective,
    penalty_value,
    row_norms,
    sparsity_target,
    x_subproblem_cost,
)
from tracklasso.models import _half_weighted_sq
from tracklasso.scenarios import scenario_defaults, simulate_wiener


def scalar_problem(mu=1.5, target_mode="state"):
    """T=2 scalar system with hand-checkable costs."""
    model = AffineModel(A=np.array([[0.8]]), b=np.array([0.1]),
                        H=np.array([[1.0]]), e=np.array([0.0]),
                        Q=np.array([[0.5]]), R=np.array([[0.25]]),
                        m1=np.array([0.2]), P1=np.array([[2.0]]), T=2)
    reg = make_regularizer("group", 1, groups=[[0]], weights=mu,
                           target_mode=target_mode)
    return TrackingProblem(model=model, reg=reg, y=np.array([[1.0], [2.0]]))


def test_objective_hand_value():
    # data 11.08 + dynamics 0.64 + prior 0.0225 + penalty 1.5*(0.3+0.3)
    prob = scalar_problem()
    x = np.array([[0.5], [-0.3]])
    assert data_cost(prob, x) == pytest.approx(11.7425, abs=1e-12)
    assert penalty_value(prob, x) == pytest.approx(0.9, abs=1e-12)
    assert objective(prob, x) == pytest.approx(12.6425, abs=1e-12)


def test_data_cost_names_a_bad_covariance_block_and_its_step():
    # linearisations skip validation, so the cost itself must name the block
    R = np.tile(np.eye(1), (4, 1, 1))
    R[2] = -1.0
    model = AffineModel(A=np.eye(1), b=np.zeros(1), H=np.eye(1), e=np.zeros(1),
                        Q=np.eye(1), R=R, m1=np.zeros(1), P1=np.eye(1), T=4,
                        validate=False)
    prob = TrackingProblem(model=model, reg=make_regularizer("l2", 1), y=np.zeros((4, 1)))
    with pytest.raises(SingularSystemError, match="^R at step 2 is not positive definite$"):
        data_cost(prob, np.zeros((4, 1)))
    for key, step in (("Q", 1), ("P1", 0)):
        bad = replace(model, R=np.eye(1), **{key: -np.eye(1)})
        with pytest.raises(SingularSystemError,
                           match=f"^{key} at step {step} is not positive definite$"):
            data_cost(TrackingProblem(model=bad, reg=prob.reg, y=prob.y), np.zeros((4, 1)))


def test_data_cost_with_per_step_covariances_matches_the_written_out_sum():
    """Per-step and broadcast Q and R, including a single step (no
    transition) and two steps of per-step Q; the kept noise_factors are
    computed once and equal a fresh factorisation bit for bit, and a later
    write into the arrays the model was built from changes neither the
    model nor its cost."""
    for T, per_step_Q, per_step_R in ((4, True, True), (4, False, False), (2, True, False),
                                      (1, False, True), (1, True, False)):
        check_data_cost_and_factors(T, per_step_Q, per_step_R)


def check_data_cost_and_factors(T, per_step_Q, per_step_R):
    A = np.array([[1.0, 0.5], [0.0, 0.9]])
    H = np.array([[1.0, 0.0]])
    Qs = np.stack([np.full((2, 2), np.nan), [[2.0, 0.3], [0.3, 1.0]],
                   [[0.5, -0.1], [-0.1, 0.8]], [[1.5, 0.0], [0.0, 3.0]]])
    Rs = np.array([[[0.25]], [[0.5]], [[2.0]], [[4.0]]])
    Q = (Qs[:T] if T > 1 else Qs[1:2]) if per_step_Q else Qs[1]
    R = Rs[:T] if per_step_R else Rs[1]
    m1, P1 = np.array([0.1, -0.2]), np.array([[2.0, 0.4], [0.4, 1.0]])
    model = AffineModel(A=A, b=np.array([0.1, 0.0]), H=H, e=np.zeros(1), Q=Q, R=R,
                        m1=m1, P1=P1, T=T)
    y = np.array([[1.0], [0.4], [-0.7], [2.0]])[:T]
    prob = TrackingProblem(model=model, reg=make_regularizer("l2", 2), y=y)
    x = np.array([[0.5, 0.1], [-0.3, 0.7], [1.2, -0.4], [0.0, 2.0]])[:T]
    want = 0.5 * (x[0] - m1) @ np.linalg.solve(P1, x[0] - m1)
    for t in range(T):
        r = y[t] - H @ x[t]
        want += 0.5 * r @ np.linalg.solve(model.R[t], r)
    for t in range(1, T):
        q = x[t] - A @ x[t - 1] - model.b[t]
        want += 0.5 * q @ np.linalg.solve(model.Q[t], q)
    assert data_cost(prob, x) == pytest.approx(want, rel=1e-12, abs=0.0)
    kept = model.noise_factors
    assert model.noise_factors is kept
    fresh = [np.linalg.cholesky(a) for a in (model.P1[None], compact(model.Q[1:]),
                                             compact(model.R))]
    for got, ref in zip(kept, fresh):
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got, ref)
    assert [len(L) for L in kept] == [1, (T - 1 if per_step_Q else 1) if T > 1 else 0,
                                      T if per_step_R else 1]
    before = [a.copy() for a in (model.P1, model.Q, model.R)]
    cost = data_cost(prob, x)
    for arr in (Qs, Rs, P1):  # Q and R are views of Qs and Rs
        arr *= 4.0
    assert data_cost(prob, x) == cost
    for got, ref in zip((model.P1, model.Q, model.R), before):
        np.testing.assert_array_equal(got, ref)
    # the model's own arrays are owned already: a model built on them shares them
    again = replace(model, validate=False)
    assert all(a is b for a, b in zip((again.P1, again.Q, again.R),
                                      (model.P1, model.Q, model.R)))


@pytest.mark.parametrize("per_step", [False, True])
def test_costs_name_a_non_finite_trajectory(per_step):
    """One-block and per-step noise stacks agree: a non-finite x is named
    with its step by the data cost and every cost built on it."""
    T = 5
    model = AffineModel(A=np.eye(2), b=np.zeros(2), H=np.eye(2), e=np.zeros(2),
                        Q=np.tile(np.eye(2), (T, 1, 1)) if per_step else np.eye(2),
                        R=np.tile(np.eye(2), (T, 1, 1)) if per_step else np.eye(2),
                        m1=np.zeros(2), P1=np.eye(2), T=T)
    prob = TrackingProblem(model=model, reg=make_regularizer("l2", 2), y=np.zeros((T, 2)))
    x = np.ones((T, 2))
    x[3, 1] = np.nan
    state = SplitState.feasible(Iterate(prob, np.ones((T, 2))))
    state.x = x
    z = np.zeros((T, 2))
    for cost in (lambda: data_cost(prob, x), lambda: objective(prob, x),
                 lambda: x_subproblem_cost(prob, x, z, z, 1.0),
                 lambda: augmented_lagrangian(prob, state, 1.0)):
        with pytest.raises(ValueError, match="^x: non-finite value at step 3$"):
            cost()
    # a finite x with a non-finite residual costs nan on both layouts, which
    # the Levenberg-Marquardt accept test reads as a rejection
    e = np.zeros((T, 2))
    e[2, 0] = np.nan
    bad = TrackingProblem(model=replace(model, e=e, validate=False), reg=prob.reg, y=prob.y)
    assert np.isnan(data_cost(bad, np.ones((T, 2))))


def test_half_weighted_sq_rejects_a_singular_factor():
    with pytest.raises(SingularSystemError, match="^noise factor: dtrtrs returned info 1$"):
        _half_weighted_sq(np.ones((2, 1)), np.zeros((1, 1, 1)))


def test_u_state_mode_convention():
    # u_0 = x_0 - m1 and u_t = x_t for the state-sparsity targets
    prob = scalar_problem()
    x = np.array([[0.7], [-1.2]])
    U = prob.u(x)
    np.testing.assert_allclose(U, [[0.5], [-1.2]])


def test_u_process_noise_mode():
    prob = scalar_problem(target_mode="process_noise")
    x = np.array([[0.7], [-1.2]])
    U = prob.u(x)
    # u_0 keeps the prior convention, u_1 = x_1 - A x_0 - b
    np.testing.assert_allclose(U, [[0.5], [-1.2 - 0.8 * 0.7 - 0.1]])


def test_custom_targets_override_mode():
    import dataclasses

    prob = scalar_problem()
    reg = dataclasses.replace(make_regularizer("group", 1, groups=[[0]]),
                              B=np.array([[0.5]]), d=np.array([0.25]))
    prob = TrackingProblem(model=prob.model, reg=reg, y=prob.y)
    B, d = prob.penalty_targets()
    np.testing.assert_allclose(B[1], [[0.5]])
    np.testing.assert_allclose(d[1], [0.25])
    x = np.array([[1.0], [2.0]])
    np.testing.assert_allclose(prob.u(x), [[0.8], [2.0 - 0.5 - 0.25]])


def test_sparsity_target_modes():
    prob = scalar_problem()
    B, d = sparsity_target(prob.model, "state")
    assert np.all(B == 0) and np.all(d == 0)
    B, d = sparsity_target(prob.model, "process_noise")
    np.testing.assert_allclose(B[1], prob.model.A[1])
    np.testing.assert_allclose(d[1], prob.model.b[1])
    with pytest.raises(ValueError):
        sparsity_target(prob.model, "nonsense")


@pytest.mark.parametrize("kind,n_groups,total_rows", [
    ("l2", 1, 4),
    ("lasso", 4, 4),
    ("iso_tv", 1, 3),
    ("aniso_tv", 3, 3),
    ("fused", 7, 7),
    ("sparse_group", 6, 8),
])
def test_regularizer_kinds(kind, n_groups, total_rows):
    reg = make_regularizer(kind, 4, groups=[[0, 1], [2, 3]] if kind in GROUPED_KINDS else None)
    assert reg.n_groups == n_groups
    assert reg.total_rows == total_rows
    assert reg.G_stack.shape == (total_rows, 4)
    assert reg.weights.shape == (n_groups,)


@pytest.mark.parametrize("kind", REGULARIZER_KINDS)
def test_every_listed_regularizer_kind_builds(kind):
    """The kinds and target modes the CLI offers are the ones make_regularizer builds."""
    groups = [[0, 1], [2, 3]] if kind in GROUPED_KINDS else None
    for mode in TARGET_MODES:
        reg = make_regularizer(kind, 4, groups=groups, target_mode=mode)
        assert reg.target_mode == mode
        assert reg.n_x == 4 and reg.n_groups >= 1


@pytest.mark.parametrize("groups", [[[0.5]], [[True]], [[0, 1.0]], [[np.float64(2)]]])
def test_group_indices_must_be_integers(groups):
    with pytest.raises(ValueError, match=r"^group indices must be integers, got \["):
        make_regularizer("group", 4, groups=groups)
    reg = make_regularizer("group", 4, groups=[[np.int64(1), np.int32(3)], [0]])
    assert reg.n_groups == 2


def test_group_kind_validation():
    with pytest.raises(ValueError):
        make_regularizer("group", 4)  # index sets required
    with pytest.raises(ValueError):
        make_regularizer("group", 4, groups=[[0, 0]])
    with pytest.raises(ValueError):
        make_regularizer("group", 4, groups=[[4]])
    with pytest.raises(ValueError):
        make_regularizer("group", 4, groups=[[0]], weights=-1.0)
    with pytest.raises(ValueError):
        make_regularizer("no_such_kind", 4)
    for kind in set(REGULARIZER_KINDS) - set(GROUPED_KINDS):  # they take no index sets
        with pytest.raises(ValueError, match=f"^groups: kind '{kind}' takes no index sets$"):
            make_regularizer(kind, 4, groups=[[0]])


def test_zero_weight_disables_penalty():
    prob = scalar_problem(mu=0.0)
    x = np.array([[0.5], [-0.3]])
    assert penalty_value(prob, x) == 0.0
    assert objective(prob, x) == pytest.approx(data_cost(prob, x))


def test_group_norms_shape():
    reg = make_regularizer("group", 4, groups=[[0, 1], [2, 3]])
    rows = np.arange(12.0).reshape(3, 4)
    norms = reg.group_norms(rows)
    assert norms.shape == (3, 2)
    np.testing.assert_allclose(norms[0, 0], np.hypot(0.0, 1.0))
    np.testing.assert_allclose(norms[2, 1], np.hypot(10.0, 11.0))


def row_norm_cases(n):
    """(rows, n) inputs for row_norms: ordinary values, values whose sums
    round differently in another order, and a mix with +-0, +-inf, nan,
    subnormals and scales of 1e+-300, whose squares overflow or underflow;
    each as C- and F-ordered arrays, strided group slices and a 3-d stack."""
    rng = np.random.default_rng(n)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310,
                         1e300, -1e300, 1e-300, 3e-160, 1e160])
    mixed = rng.normal(size=(200, n)) * 10.0 ** rng.integers(-300, 301, size=(200, n))
    hit = rng.random(mixed.shape) < 0.3
    mixed[hit] = rng.choice(specials, size=hit.sum())
    for Z in (rng.normal(size=(40, n)),
              rng.normal(size=(200, n)) * 10.0 ** rng.integers(-3, 4, size=(200, n)), mixed):
        wide = np.hstack([Z, -Z, 2 * Z])
        yield from (Z, np.asfortranarray(Z), wide[:, n:2 * n], wide[::3, 2 * n:],
                    np.asfortranarray(wide)[:, :n], Z[:40].reshape(4, 10, n))


@pytest.mark.parametrize("n", range(17))
def test_row_norms_is_numpy_norm_bit_for_bit(n):
    with np.errstate(over="ignore", invalid="ignore"):
        for Z in row_norm_cases(n):
            got, want = row_norms(Z), np.linalg.norm(Z, axis=-1)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), Z.strides
        z = np.array([3.0, 4.0, 12.0])[:min(n, 3)]  # one row, as block_shrink may pass
        assert row_norms(z) == np.linalg.norm(z, axis=-1)


@pytest.mark.parametrize("n", range(17))
def test_row_norms_takes_numpy_norm_at_width_0_and_from_width_8(n, monkeypatch):
    """Below width 8 NumPy sums a row left to right and row_norms sums by
    columns; from 8 its pairwise sum rounds otherwise, so row_norms calls
    np.linalg.norm itself, as it does at width 0."""
    rng = np.random.default_rng(n)
    Z = rng.normal(size=(2000, n)) * 10.0 ** rng.integers(-2, 3, size=(2000, n))
    by_columns = np.zeros(2000)
    for j in range(n):
        by_columns += Z[:, j] * Z[:, j]
    assert (np.sqrt(by_columns) == np.linalg.norm(Z, axis=-1)).all() == (n < 8)
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm",
                        lambda a, axis: calls.append(a.shape) or norm(a, axis=axis))
    row_norms(Z)
    assert calls == ([] if 0 < n < 8 else [(2000, n)])


def test_model_validation_rejects_bad_covariances():
    good = dict(A=np.eye(1), b=np.zeros(1), H=np.eye(1), e=np.zeros(1),
                Q=np.eye(1), R=np.eye(1), m1=np.zeros(1), P1=np.eye(1), T=3)
    AffineModel(**good)
    for key in ("Q", "R", "P1"):
        bad = dict(good)
        bad[key] = -np.eye(1)
        with pytest.raises(SingularSystemError):
            AffineModel(**bad)
    # simulation helpers may opt out for degenerate noise settings
    ok = dict(good)
    ok["Q"] = np.zeros((1, 1))
    AffineModel(**ok, validate=False)
    # a per-step Q bad at one step is named by that step, as the fuse names it
    Q = np.tile(np.eye(2), (6, 1, 1))
    Q[3] = np.diag([1.0, -1.0])
    with pytest.raises(SingularSystemError, match="^Q at step 3 is not positive definite$"):
        AffineModel(**{**_stacked_inputs(T=6), "Q": Q})
    Q[3] = [[1.0, 0.5], [0.0, 1.0]]
    with pytest.raises(ValueError, match="^Q at step 3 is not symmetric$"):
        AffineModel(**{**_stacked_inputs(T=6), "Q": Q})
    # the nonlinear model shares the noise checks: a NaN or inf block is named,
    # and a NaN m1 is reported as m1 before any callable sees it
    model = _range_model()
    for key in ("Q", "R", "P1"):
        block = model.P1 if key == "P1" else getattr(model, key)[1]
        for bad in (np.nan, np.inf):
            arr = block.copy()
            arr[0, 0] = bad
            with pytest.raises(ValueError, match=f"^{key}: "):
                replace(model, **{key: arr})
        with pytest.raises(SingularSystemError,
                           match=f"^{key} at step {int(key == 'Q')} is not positive definite$"):
            replace(model, **{key: -block})
    with pytest.raises(ValueError, match="^m1: contains a non-finite value$"):
        replace(model, m1=np.array([np.nan, 0.0, 0.0, 0.0]))


def test_feasible_split_state():
    prob = scalar_problem()
    x0 = np.array([[0.4], [0.9]])
    state = SplitState.feasible(Iterate(prob, x0))
    U = prob.u(x0)
    np.testing.assert_allclose(state.v, U)
    np.testing.assert_allclose(state.w, U @ prob.reg.G_stack.T)
    assert np.all(state.eta == 0.0)
    # with a feasible split the Lagrangian reduces to the objective
    assert augmented_lagrangian(prob, state, 1.0) == pytest.approx(
        objective(prob, x0), rel=1e-12)


def test_x_subproblem_cost_gamma_zero():
    prob = scalar_problem()
    x = np.array([[0.5], [-0.3]])
    z = np.zeros((2, 1))
    assert x_subproblem_cost(prob, x, z, z, 0.0) == pytest.approx(
        data_cost(prob, x))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2))
def test_objective_nonnegative(vals):
    prob = scalar_problem()
    x = np.array(vals).reshape(2, 1)
    assert objective(prob, x) >= 0.0


def test_nonlinear_model_roundtrip():
    model = NonlinearModel(
        transition=lambda t, x: 0.9 * x,
        transition_jacobian=lambda t, x: np.array([[0.9]]),
        measurement=lambda t, x: np.array([x[0] ** 2]),
        measurement_jacobian=lambda t, x: np.array([[2.0 * x[0]]]),
        Q=np.eye(1), R=np.eye(1), m1=np.zeros(1), P1=np.eye(1), T=2)
    assert model.n_x == 1 and model.n_y == 1
    assert not model.is_affine
    np.testing.assert_allclose(model.measurement(0, np.array([3.0])), [9.0])
    np.testing.assert_allclose(model.measurement_jacobian(0, np.array([3.0])),
                               [[6.0]])


def _range_model(T=6):
    from tracklasso.scenarios import scenario_defaults, simulate_range
    return simulate_range(scenario_defaults("range", T=T, seed=0))[1]


@pytest.mark.parametrize("name, bad, match", [
    ("measurement", lambda f: lambda t, X: f(t, X)[:, :-1],
     r"^measurement returned shape \(6, 2\) for 6 steps, expected \(6, 3\)"),
    ("transition_jacobian", lambda f: lambda t, X: np.eye(3),
     r"^transition_jacobian returned shape \(3, 3\) for 5 steps, expected \(5, 4, 4\)"),
    ("transition", lambda f: lambda t, X: f(t, X)[..., None],
     r"^transition returned shape \(5, 4, 1\)"),
    ("measurement_jacobian",
     lambda f: lambda t, X: np.where((t == 3)[:, None, None], np.inf, f(t, X)),
     "^measurement_jacobian returned a non-finite value at step 3 with the state at m1"),
    ("transition", lambda f: lambda t, X: np.where((t == 1)[:, None], np.nan, f(t, X)),
     "^transition returned a non-finite value at step 1 "),
], ids=["measurement-shape", "transition_jacobian-shape", "transition-shape",
        "measurement_jacobian-inf", "transition-nan"])
def test_nonlinear_model_probes_each_callable(name, bad, match):
    model = _range_model()
    assert model.n_y == 3
    with pytest.raises(ValueError, match=match):
        replace(model, **{name: bad(getattr(model, name))})


def test_nonlinear_model_calls_each_callable_once():
    model = _range_model(T=7)
    seen = []

    def counted(name):
        fn = getattr(model, name)

        def call(t, X):
            seen.append((name, tuple(t), X.shape))
            return fn(t, X)
        return call

    names = ("transition", "transition_jacobian", "measurement", "measurement_jacobian")
    replace(model, **{name: counted(name) for name in names})
    assert [s[0] for s in seen] == list(names)
    assert [s[1] for s in seen] == [tuple(range(1, 7))] * 2 + [tuple(range(7))] * 2
    # a single step has no transition: the probe passes empty stacks, as linearize does
    seen.clear()
    replace(model, T=1, Q=model.Q[0], R=model.R[0], **{name: counted(name) for name in names})
    assert [s[2] for s in seen] == [(0, 4), (0, 4), (1, 4), (1, 4)]


def test_problem_rejects_non_finite_measurements():
    prob = scalar_problem()
    for bad in (np.nan, np.inf):
        y = np.array([[1.0], [bad]])
        with pytest.raises(ValueError, match="y: non-finite value at step 1"):
            TrackingProblem(model=prob.model, reg=prob.reg, y=y)


def _stacked_inputs(T=4):
    return dict(A=np.tile(np.eye(2), (T, 1, 1)), b=np.zeros((T, 2)),
                H=np.tile(np.eye(2), (T, 1, 1)), e=np.zeros((T, 2)),
                Q=np.tile(np.eye(2), (T, 1, 1)), R=np.tile(np.eye(2), (T, 1, 1)),
                m1=np.zeros(2), P1=np.eye(2), T=T)


@pytest.mark.parametrize("name", ["A", "b", "H", "e", "Q", "R", "m1", "P1"])
def test_affine_model_rejects_non_finite_input(name):
    inputs = _stacked_inputs()
    arr = inputs[name].copy()
    stacked = name not in ("m1", "P1")
    arr[(2,) if stacked else (0,)] = np.nan
    inputs[name] = arr
    where = f"{name}: non-finite value at step 2" if stacked else f"{name}: contains a non-finite"
    with pytest.raises(ValueError, match=where):
        AffineModel(**inputs)
    # linearisations skip validation and are never rejected here
    AffineModel(**inputs, validate=False)


@pytest.mark.parametrize("name, arr, match", [
    ("A", np.eye(3), r"^A: expected \(2, 2\) blocks, got \(3, 3\)$"),
    ("Q", np.eye(3), r"^Q: expected \(2, 2\) blocks, got \(3, 3\)$"),
    ("b", np.zeros(3), r"^b: expected length-2 blocks, got 3$"),
    ("H", np.eye(2, 3), r"^H: expected 2 columns, got 3$"),
    ("e", np.zeros(3), r"^e and R must match the measurement dimension of H$"),
    ("R", np.eye(3), r"^e and R must match the measurement dimension of H$"),
    ("R", np.eye(2, 3), r"^R: expected square blocks, got \(2, 3\)$"),
    ("P1", np.eye(3), r"^P1: expected \(2, 2\), got \(3, 3\)$"),
    ("m1", 0.0, r"^m1: expected one axis, got shape \(\)$"),
])
@pytest.mark.parametrize("validate", [True, False])
def test_affine_model_names_an_input_of_the_wrong_shape(name, arr, match, validate):
    with pytest.raises(ValueError, match=match):
        AffineModel(**{**_stacked_inputs(), name: arr}, validate=validate)


@pytest.mark.parametrize("name, arr, match", [
    ("T", 0, "^T must be a positive step count$"),
    ("Q", np.eye(3), r"^Q: expected \(4, 4\) blocks, got \(3, 3\)$"),
    ("Q", np.ones((5, 4, 4)), "^Q: leading axis must be 6, got 5$"),
    ("R", np.eye(3, 2), r"^R: expected square blocks, got \(3, 2\)$"),
    ("P1", np.eye(3), r"^P1: expected \(4, 4\), got \(3, 3\)$"),
    ("m1", np.zeros((1, 4)), r"^m1: expected one axis, got shape \(1, 4\)$"),
    ("T", 2.5, "^T must be a positive step count$"),
])
def test_nonlinear_model_names_an_input_of_the_wrong_shape(name, arr, match):
    with pytest.raises(ValueError, match=match):
        replace(_range_model(), **{name: arr})


@pytest.mark.parametrize("T", [0, -3, 2.5, np.nan])
def test_affine_model_rejects_a_bad_step_count(T):
    with pytest.raises(ValueError, match="^T must be a positive step count$"):
        AffineModel(**{**_stacked_inputs(), "T": T})


@pytest.mark.parametrize("name", ["A", "Q", "H", "R", "b", "e"])
def test_affine_model_infers_T_from_the_one_stacked_array(name):
    inputs = {key: val[0] if key not in ("m1", "P1") else val
              for key, val in _stacked_inputs(T=5).items() if key != "T"}
    with pytest.raises(ValueError, match="T cannot be inferred"):
        AffineModel(**inputs)
    inputs[name] = _stacked_inputs(T=5)[name]
    assert AffineModel(**inputs).T == 5


def test_affine_model_ignores_unused_transition_entries():
    # index 0 of A, b and Q is never consulted, so it may hold anything
    inputs = _stacked_inputs()
    for name in ("A", "b", "Q"):
        inputs[name] = inputs[name].copy()
        inputs[name][0] = np.nan
    AffineModel(**inputs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_group_weights_raise_naming_weights(bad):
    """A nan or infinite weight fails at construction, naming weights,
    instead of a solve with a nan or inf objective."""
    with pytest.raises(ValueError, match="^weights: group weights must be finite$"):
        make_regularizer("l2", 4, weights=bad)
    with pytest.raises(ValueError, match="^weights: "):
        make_regularizer("lasso", 2, weights=[1.0, bad])


def wiener_model(T=20):
    return simulate_wiener(scenario_defaults("wiener", T=T, seed=0))


AXES = (np.eye(4)[:2], np.eye(4)[2:])  # two groups of a four-state model


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_group_matrix_raises_naming_it(bad):
    """A nan or infinite group matrix fails at construction, naming the
    group, instead of in scipy's check of the solve's arrays."""
    G = np.eye(4)[2:].copy()
    G[1, 0] = bad
    with pytest.raises(ValueError, match=re.escape("groups[1]: contains a non-finite value")):
        GroupRegularizer(groups=(np.eye(4)[:2], G), weights=1.0)


@pytest.mark.parametrize("name, stacked", [("B", True), ("B", False), ("d", True),
                                           ("d", False)])
def test_non_finite_explicit_targets_raise_naming_them(name, stacked):
    """A nan in an explicit B or d fails at construction, naming it and its
    step, instead of an x update's "x: non-finite value" or scipy's check;
    the index-0 entries of a stack are never consulted, so a nan there
    passes."""
    arrays = {"B": np.tile(np.eye(4), (20, 1, 1)), "d": np.zeros((20, 4))}
    if not stacked:
        arrays[name] = arrays[name][0].copy()
    bad = arrays[name]
    bad[(3, 1) if stacked else 1] = np.nan
    where = "non-finite value at step 3" if stacked else "contains a non-finite value"
    with pytest.raises(ValueError, match=f"^{name}: {where}$"):
        GroupRegularizer(groups=AXES, weights=1.0, **arrays)
    if stacked:
        bad[3] = bad[0]
        bad[0] = np.nan
        data, model = wiener_model()
        TrackingProblem(model, GroupRegularizer(groups=AXES, weights=1.0, **arrays), data.y)


def test_explicit_targets_of_the_wrong_state_dimension_raise_naming_them():
    """A B or d that does not fit the model's state dimension fails when the
    problem is built, naming it, instead of a numpy matmul error in the
    solve, with or without groups."""
    data, model = wiener_model()
    for groups in (AXES, ()):
        reg = GroupRegularizer(groups=groups, weights=np.ones(len(groups)), B=np.eye(3))
        with pytest.raises(ValueError, match=re.escape("B: expected (4, 4) blocks, got (3, 3)")):
            TrackingProblem(model, reg, data.y)
    reg = GroupRegularizer(groups=AXES, weights=1.0, B=np.eye(4), d=np.zeros((20, 3)))
    with pytest.raises(ValueError, match=re.escape("d: expected (4,) blocks, got (3,)")):
        TrackingProblem(model, reg, data.y)


def test_explicit_d_without_B_raises():
    """penalty_targets reads d only with B, so a d given alone would be
    silently ignored; it fails at construction instead."""
    with pytest.raises(ValueError, match="^d: an explicit d needs an explicit B$"):
        GroupRegularizer(groups=AXES, weights=1.0, d=np.ones(4))


@pytest.mark.parametrize("name", ["B", "d"])
def test_explicit_targets_of_the_wrong_length_raise_naming_them(name):
    """The problem checks the time axis of an explicit B and d against its
    model's T when it is built, not in the first x update."""
    data, model = wiener_model()
    arrays = {"B": np.eye(4), "d": np.zeros(4)}
    arrays[name] = np.stack([arrays[name]] * 19)
    reg = GroupRegularizer(groups=AXES, weights=1.0, **arrays)
    with pytest.raises(ValueError, match=f"^{name}: leading axis must be 20, got 19$"):
        TrackingProblem(model, reg, data.y)


def test_regularizer_owns_its_arrays():
    """weights and G_stack are read-only arrays of the regulariser's own, and
    B and d owned copies, so a later write into the caller's arrays changes
    nothing and a write through the regulariser raises."""
    weights, B, d = np.array([1.0, 2.0]), np.eye(2), np.zeros(2)
    rows = np.eye(2)
    reg = GroupRegularizer(groups=(rows[:1], rows[1:]), weights=weights, B=B, d=d)
    for arr in (weights, B, d, rows):
        arr[...] = 7.0
    np.testing.assert_array_equal(reg.weights, [1.0, 2.0])
    np.testing.assert_array_equal(reg.G_stack, np.eye(2))
    np.testing.assert_array_equal(reg.B, np.eye(2))
    np.testing.assert_array_equal(reg.d, np.zeros(2))
    for arr in (reg.weights, reg.G_stack, reg.B, reg.d):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
