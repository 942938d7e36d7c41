"""Simulation scenarios, model factories, and CSV ingestion."""

import numpy as np
import pytest

from tracklasso.scenarios import (
    RANGE_CLAMP,
    CsvSchema,
    ct_jacobian,
    ct_transition,
    load_track_csv,
    make_vessel_track,
    relative_error,
    scenario_defaults,
    simulate_coordinated_turn,
    simulate_range,
    simulate_wiener,
    solver_settings,
    track_model,
    wiener_velocity_matrices,
    write_track_csv,
)


def test_wiener_matrices_closed_form():
    dt, q_c = 0.1, 0.5
    A, Q = wiener_velocity_matrices(dt, q_c)
    expA = np.eye(4)
    expA[0, 2] = expA[1, 3] = dt
    np.testing.assert_allclose(A, expA)
    expQ = np.zeros((4, 4))
    expQ[0, 0] = expQ[1, 1] = q_c * dt ** 3 / 3
    expQ[2, 2] = expQ[3, 3] = q_c * dt
    expQ[0, 2] = expQ[2, 0] = expQ[1, 3] = expQ[3, 1] = q_c * dt ** 2 / 2
    np.testing.assert_allclose(Q, expQ)


def test_scenario_defaults():
    p = scenario_defaults("wiener")
    assert p.T == 100 and p.dt == 0.1 and p.q_c == 0.5 and p.sigma == 0.3
    p = scenario_defaults("range", T=25)
    assert p.T == 25 and p.sigma == 0.2
    assert p.sensors == ((0.0, -0.5), (0.5, 0.6), (-0.5, 0.6))
    with pytest.raises(ValueError):
        scenario_defaults("unknown")
    for kind in ("wiener", "range", "coordinated_turn"):
        settings = solver_settings(kind)
        assert {"solver", "mu", "gamma", "kmax"} <= settings.keys()


@pytest.mark.parametrize("field, value, match", [
    ("dt", np.nan, "^dt: must be finite and positive, got nan$"),
    ("dt", np.inf, "^dt: must be finite and positive, got inf$"),
    ("dt", 0.0, "^dt: must be finite and positive, got 0.0$"),
    ("q_c", np.nan, "^q_c: must be finite and nonnegative, got nan$"),
    ("q_c", -0.5, "^q_c: must be finite and nonnegative, got -0.5$"),
    ("q_w", np.inf, "^q_w: must be finite and nonnegative, got inf$"),
    ("sigma", np.nan, "^sigma: must be finite and nonnegative, got nan$"),
    ("sigma", -0.3, "^sigma: must be finite and nonnegative, got -0.3$"),
    ("T", 2.5, "^T: must be an integer of at least 2, got 2.5$"),
    ("T", 1, "^T: must be an integer of at least 2, got 1$"),
])
@pytest.mark.parametrize("kind", ["wiener", "range", "coordinated_turn"])
def test_scenario_params_name_a_bad_field(kind, field, value, match):
    with pytest.raises(ValueError, match=match):
        scenario_defaults(kind, **{field: value})


def test_zero_noise_wiener_is_simulable():
    """With q_c = 0 and sigma = 0 the truth is the deterministic transition
    of m1 and the measurements are its positions, exactly."""
    data, model = simulate_wiener(scenario_defaults("wiener", T=12, q_c=0.0, sigma=0.0))
    for t in range(1, 12):
        np.testing.assert_array_equal(data.truth[t], model.A[t] @ data.truth[t - 1])
    np.testing.assert_array_equal(data.y, data.truth[:, :2])


def test_simulate_wiener_contract():
    params = scenario_defaults("wiener", T=40, seed=3)
    data, model = simulate_wiener(params)
    assert data.y.shape == (40, 2)
    assert data.truth.shape == (40, 4)
    np.testing.assert_allclose(data.truth[0], model.m1)
    again, _ = simulate_wiener(params)
    np.testing.assert_array_equal(data.y, again.y)
    np.testing.assert_array_equal(data.truth, again.truth)
    other, _ = simulate_wiener(scenario_defaults("wiener", T=40, seed=4))
    assert not np.array_equal(data.y, other.y)


def test_simulate_wiener_zero_increment_fraction():
    # p_zero controls how often the process noise is exactly zero
    params = scenario_defaults("wiener", T=400, seed=0, p_zero=0.8)
    data, model = simulate_wiener(params)
    inc = data.truth[1:] - data.truth[:-1] @ np.asarray(model.A)[1].T
    frac = np.mean(np.linalg.norm(inc, axis=1) < 1e-12)
    assert 0.7 <= frac <= 0.9


def test_simulate_range_stop_segments():
    data, _ = simulate_range(scenario_defaults("range", T=400, seed=0))
    speed = np.linalg.norm(data.truth[:, 2:], axis=1)
    frac = np.mean(speed == 0.0)
    assert 0.25 <= frac <= 0.65
    # stops are contiguous blocks, not isolated steps
    stopped = speed == 0.0
    runs = np.diff(np.flatnonzero(np.diff(np.concatenate(
        [[False], stopped, [False]]).astype(int)) != 0)).max()
    assert runs >= 4


def test_simulate_wiener_noise_scale():
    # innovation std of the measurement noise must track sigma
    params = scenario_defaults("wiener", T=20000, seed=1, sigma=0.3)
    data, _ = simulate_wiener(params)
    resid = data.y - data.truth[:, :2]
    assert abs(resid.std() - 0.3) < 0.03


def test_range_measurement_geometry():
    params = scenario_defaults("range", T=10, seed=5)
    _, model = simulate_range(params)
    x = np.array([1.0, 2.0, 0.3, -0.4])
    np.testing.assert_allclose(
        model.measurement(0, x),
        [np.sqrt(7.25), np.sqrt(2.21), np.sqrt(4.21)])


def test_range_jacobian_finite_difference():
    params = scenario_defaults("range", T=10, seed=5)
    _, model = simulate_range(params)
    x = np.array([0.8, -0.3, 0.2, 0.1])
    J = model.measurement_jacobian(0, x)
    eps = 1e-7
    for j in range(4):
        dx = np.zeros(4)
        dx[j] = eps
        fd = (model.measurement(0, x + dx) - model.measurement(0, x - dx)) / (2 * eps)
        np.testing.assert_allclose(J[:, j], fd, atol=1e-6)


def test_ct_transition_small_turn_rate_limit():
    x = np.array([1.0, 2.0, 0.5, -0.3, 0.0])
    out = ct_transition(x, 0.1)
    # omega = 0 reduces to constant velocity in the position block
    np.testing.assert_allclose(out[:2], x[:2] + 0.1 * x[2:4], atol=1e-12)
    np.testing.assert_allclose(out[2:], x[2:], atol=1e-12)
    tiny = x.copy()
    tiny[4] = 1e-10
    np.testing.assert_allclose(ct_transition(tiny, 0.1), out, atol=1e-9)


def test_ct_jacobian_finite_difference():
    x = np.array([0.3, -0.8, 0.4, 0.2, 0.7])
    J = ct_jacobian(x, 0.1)
    eps = 1e-6
    for j in range(5):
        dx = np.zeros(5)
        dx[j] = eps
        fd = (ct_transition(x + dx, 0.1) - ct_transition(x - dx, 0.1)) / (2 * eps)
        np.testing.assert_allclose(J[:, j], fd, atol=1e-5)


@pytest.mark.parametrize("kind", ["range", "coordinated_turn"])
def test_stacked_callables_match_single_state_calls(kind):
    """One stacked call per callable gives bit for bit the per-state values."""
    sim = simulate_range if kind == "range" else simulate_coordinated_turn
    data, model = sim(scenario_defaults(kind, T=40, seed=3))
    X = data.truth + np.random.default_rng(0).normal(scale=0.1, size=data.truth.shape)
    if kind == "coordinated_turn":
        X[::3, 4] = 0.0      # exact omega = 0 and the series branch
        X[1::3, 4] = 2e-4
    t, n_x, n_y = np.arange(40), model.n_x, model.n_y
    for fn, core in ((model.transition, (n_x,)), (model.transition_jacobian, (n_x, n_x)),
                     (model.measurement, (n_y,)), (model.measurement_jacobian, (n_y, n_x))):
        stacked = np.broadcast_to(fn(t, X), (40,) + core)
        single = np.stack([np.broadcast_to(fn(s, X[s]), core) for s in t])
        np.testing.assert_array_equal(stacked, single)


def _summed_ranges(sensors, x):
    """The range callables' earlier form: .sum(axis=-1) over the squares."""
    diff = x[..., None, :2] - sensors
    r = np.sqrt((diff * diff).sum(axis=-1))
    J = np.zeros(diff.shape[:-1] + (4,))
    J[..., :2] = diff / np.maximum(r, RANGE_CLAMP)[..., None]
    return r, J


def test_range_callables_equal_the_summed_form_bit_for_bit():
    """The shared two-term offsets give the ranges and the Jacobian of the
    .sum(axis=-1) form bit for bit: on stacks over 500 scales, single (4,)
    states, (1, 4) stacks and a state on a sensor, where the clamp holds."""
    params = scenario_defaults("range", T=10, seed=5)
    _, model = simulate_range(params)
    sensors = np.asarray(params.sensors)
    rng = np.random.default_rng(11)
    states = [rng.normal(scale=10.0 ** rng.uniform(-8, 8), size=(50, 4)) for _ in range(500)]
    states += [states[0][3], states[1][:1], np.array([0.5, 0.6, 1.0, -1.0])]
    for x in states:
        r, J = _summed_ranges(sensors, x)
        np.testing.assert_array_equal(model.measurement(np.arange(len(x)), x), r)
        np.testing.assert_array_equal(model.measurement_jacobian(np.arange(len(x)), x), J)
    on_sensor = model.measurement_jacobian(0, states[-1])
    assert np.isfinite(on_sensor).all() and not on_sensor[1].any()


def test_simulate_range_and_turn_shapes():
    data, model = simulate_range(scenario_defaults("range", T=12, seed=2))
    assert data.y.shape == (12, 3)
    assert data.truth.shape == (12, 4)
    assert model.T == 12
    data, model = simulate_coordinated_turn(
        scenario_defaults("coordinated_turn", T=12, seed=2))
    assert data.y.shape == (12, 2)
    assert data.truth.shape == (12, 5)


def test_relative_error_hand_value():
    est = np.array([[1.0, 0.0], [0.0, 0.0]])
    tru = np.array([[0.0, 0.0], [0.0, 2.0]])
    # sum_t ||est_t - truth_t|| / sum_t ||truth_t|| = (1 + 2) / 2
    assert relative_error(est, tru) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        relative_error(est, np.zeros((2, 2)))


def test_csv_round_trip(tmp_path):
    track = make_vessel_track(T=15, seed=3)
    path = tmp_path / "track.csv"
    write_track_csv(path, track)
    loaded = load_track_csv(path)
    np.testing.assert_allclose(loaded.y, track.y, atol=1e-12)
    np.testing.assert_allclose(loaded.times, track.times, atol=1e-12)
    assert len(loaded.warnings) == 0


def test_csv_unsorted_rows_warn(tmp_path):
    path = tmp_path / "messy.csv"
    path.write_text("t,x,y\n2.0,1.0,1.0\n1.0,0.0,0.0\n3.0,2.0,2.0\n")
    loaded = load_track_csv(path)
    np.testing.assert_allclose(loaded.times, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(loaded.y[0], [0.0, 0.0])
    assert any("sorted" in w for w in loaded.warnings)


def test_csv_duplicate_timestamp_raises(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("t,x,y\n1.0,0.0,0.0\n1.0,1.0,1.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_track_csv(path)


def test_csv_malformed_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    for row in ("2.0,oops,1.0", "nan,0.5,1.0", "inf,0.5,1.0",
                "2.0,nan,1.0", "2.0,-inf,1.0"):
        path.write_text(f"t,x,y\n1.0,0.0,0.0\n{row}\n3.0,1.0,1.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_track_csv(path)


def test_csv_missing_column_raises(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("time,x,y\n1.0,0.0,0.0\n")
    with pytest.raises(ValueError):
        load_track_csv(path)


def test_csv_gap_warning(tmp_path):
    path = tmp_path / "gap.csv"
    rows = ["t,x,y"] + [f"{t:.1f},0.0,0.0" for t in
                        [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0]]
    path.write_text("\n".join(rows) + "\n")
    loaded = load_track_csv(path)
    assert any("gap" in w for w in loaded.warnings)


def test_csv_custom_schema(tmp_path):
    schema = CsvSchema(time_column="when", measurement_columns=("east", "north"),
                       delimiter=";")
    track = make_vessel_track(T=6, seed=0)
    path = tmp_path / "custom.csv"
    write_track_csv(path, track, schema)
    loaded = load_track_csv(path, schema)
    np.testing.assert_allclose(loaded.y, track.y, atol=1e-12)


def test_make_vessel_track_contract():
    track = make_vessel_track(T=30, seed=9)
    assert track.y.shape == (30, 2)
    assert track.truth.shape == (30, 4)
    assert np.all(np.diff(track.times) > 0)
    again = make_vessel_track(T=30, seed=9)
    np.testing.assert_array_equal(track.y, again.y)


def test_track_model_of_one_fix_needs_dt(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("t,x,y\n0.0,3.0,4.0\n")
    track = load_track_csv(path)
    with pytest.raises(ValueError, match="^dt: "):
        track_model(track)
    model = track_model(track, dt=0.5)
    assert model.T == 1
    np.testing.assert_array_equal(model.A[0], wiener_velocity_matrices(0.5, 1.0)[0])
    np.testing.assert_array_equal(model.m1, [3.0, 4.0, 0.0, 0.0])
