"""Reproducible simulation scenarios, CSV ingestion, and error metrics.

Three synthetic scenarios are bundled: a Wiener-velocity tracking problem
with intermittently zero process noise, a multi-sensor range measurement
problem whose ground truth contains full stops, and a coordinated-turn
vehicle problem.  A CSV loader with a configurable column schema stands in
for recorded AIS/GPS tracks (track_model gives their Wiener model; write_csv
writes every CSV), and a synthetic vessel-track generator feeds its tests.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .models import AffineModel, NonlinearModel

KINDS = ("wiener", "range", "coordinated_turn")

# range below this is clamped in the range Jacobian denominator; never hit
# by the bundled sensor geometry but keeps the derivative defined everywhere
RANGE_CLAMP = 1e-9


@dataclass(frozen=True)
class ScenarioParams:
    """Simulation controls shared by the bundled scenarios."""

    kind: str
    dt: float = 0.1
    q_c: float = 0.5
    sigma: float = 0.3
    T: int = 100
    sensors: Tuple[Tuple[float, float], ...] = ((0.0, -0.5), (0.5, 0.6), (-0.5, 0.6))
    p_zero: float = 0.8
    seed: int = 0
    q_w: float = 0.05

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not 0 < self.dt < math.inf:  # written so that nan fails it
            raise ValueError(f"dt: must be finite and positive, got {self.dt!r}")
        for name in ("q_c", "q_w", "sigma"):  # 0 passes: wiener's q_c = 0 draws no noise
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name}: must be finite and nonnegative, "
                                 f"got {getattr(self, name)!r}")
        if not (isinstance(self.T, (int, np.integer)) and self.T >= 2):
            raise ValueError(f"T: must be an integer of at least 2, got {self.T!r}")
        if not 0.0 <= self.p_zero <= 1.0:
            raise ValueError("p_zero must lie in [0, 1]")
        if self.kind == "range" and len(self.sensors) < 1:
            raise ValueError("range scenario needs at least one sensor")


def scenario_defaults(kind: str, **overrides) -> ScenarioParams:
    """Per-scenario default parameters."""
    if kind == "wiener":
        base = ScenarioParams(kind="wiener", dt=0.1, q_c=0.5, sigma=0.3, T=100)
    elif kind == "range":
        base = ScenarioParams(kind="range", dt=0.1, sigma=0.2, T=60)
    elif kind == "coordinated_turn":
        base = ScenarioParams(kind="coordinated_turn", dt=0.1, q_c=0.1, sigma=0.3,
                              T=400, q_w=0.05)
    else:
        raise ValueError(f"unknown scenario kind {kind!r}")
    return replace(base, **overrides) if overrides else base


def solver_settings(kind: str) -> dict:
    """Default solver configuration per scenario (penalty, weights, iteration caps)."""
    if kind == "wiener":
        return dict(solver="ks_madmm", regularizer="l2", groups=None, mu=1.0,
                    sparsity="process_noise", gamma=1.0, kmax=50, imax=10)
    if kind == "range":
        return dict(solver="lm_ieks_madmm", regularizer="group", groups=[[2, 3]],
                    mu=1.0, sparsity="state", gamma=1.0, kmax=50, imax=5)
    if kind == "coordinated_turn":
        return dict(solver="gn_ieks_madmm", regularizer="group", groups=[[2, 3, 4]],
                    mu=1.0, sparsity="state", gamma=0.1, kmax=300, imax=5)
    if kind == "csv":
        return dict(solver="ks_madmm", regularizer="l2", groups=None, mu=1.0,
                    sparsity="process_noise", gamma=1.0, kmax=100, imax=10)
    raise ValueError(f"unknown scenario kind {kind!r}")


@dataclass(eq=False)
class TrackDataset:
    """Measurements with timestamps and, for synthetic data, the ground truth."""

    y: np.ndarray
    times: np.ndarray
    truth: Optional[np.ndarray] = None
    warnings: Tuple[str, ...] = ()

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        if self.y.shape[0] != self.times.shape[0]:
            raise ValueError("measurements and timestamps disagree on length")
        if self.truth is not None:
            self.truth = np.asarray(self.truth, dtype=float)
            if self.truth.shape[0] != self.y.shape[0]:
                raise ValueError("truth and measurements disagree on length")

    @property
    def T(self) -> int:
        return self.y.shape[0]


def wiener_velocity_matrices(dt: float, q_c: float):
    """Constant-velocity transition and its discretised noise covariance; the
    powers of dt are float64, so a dt they overflow gives an infinite Q,
    which the factor check names."""
    A = np.array([
        [1.0, 0.0, dt, 0.0],
        [0.0, 1.0, 0.0, dt],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    with np.errstate(over="ignore"):
        d3, d2 = np.float64(dt) ** 3 / 3, np.float64(dt) ** 2 / 2
    Q = q_c * np.array([
        [d3, 0.0, d2, 0.0],
        [0.0, d3, 0.0, d2],
        [d2, 0.0, dt, 0.0],
        [0.0, d2, 0.0, dt],
    ])
    return A, Q


def wiener_velocity_model(dt: float, q_c: float, sigma: float, T: int,
                          m1=None, P1=None) -> AffineModel:
    """Planar Wiener-velocity model with position measurements."""
    A, Q = wiener_velocity_matrices(dt, q_c)
    H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    R = sigma ** 2 * np.eye(2)
    m1 = np.asarray(m1, dtype=float) if m1 is not None else np.array([0.1, 0.0, 0.1, 0.0])
    P1 = np.asarray(P1, dtype=float) if P1 is not None else np.eye(4)
    return AffineModel(A=A, b=np.zeros(4), H=H, e=np.zeros(2), Q=Q, R=R,
                       m1=m1, P1=P1, T=T, validate=False)


def simulate_wiener(params: ScenarioParams):
    """Simulate the linear tracking scenario.

    Process noise is exactly zero with probability p_zero at each step and
    drawn from N(0, Q) otherwise.  Returns the dataset and the model.
    """
    if params.kind != "wiener":
        raise ValueError("params.kind must be 'wiener'")
    rng = np.random.default_rng(params.seed)
    model = wiener_velocity_model(params.dt, params.q_c, params.sigma, params.T)
    A, T = model.A[1], params.T

    x = np.empty((T, 4))
    x[0] = model.m1
    Lq = model.noise_factors[1][0] if params.q_c > 0 else np.zeros((4, 4))
    zero_mask = rng.random(T - 1) < params.p_zero
    noise = rng.standard_normal((T - 1, 4)) @ Lq.T
    noise[zero_mask] = 0.0
    for t in range(1, T):
        x[t] = A @ x[t - 1] + noise[t - 1]
    y = x @ model.H[0].T + params.sigma * rng.standard_normal((T, 2))
    times = np.arange(T) * params.dt
    return TrackDataset(y=y, times=times, truth=x), model


def range_model(sensors, dt: float, T: int, r_std: float = 0.2, P1=None) -> NonlinearModel:
    """Constant-velocity motion observed through per-sensor range measurements."""
    sensors = np.asarray(sensors, dtype=float).reshape(-1, 2)
    A, _ = wiener_velocity_matrices(dt, 1.0)
    Q = np.diag([0.01, 0.01, 0.1, 0.1])
    R = r_std ** 2 * np.eye(sensors.shape[0])
    m1 = np.zeros(4)
    P1 = np.asarray(P1, dtype=float) if P1 is not None else np.eye(4) / 10.0

    # x is one state (4,) or a stack (k, 4); sensors broadcast over its leading
    # axes, and the transition is a stacked matmul so that it rounds as A @ x
    def offsets(x):
        """Sensor-to-position offsets and ranges; the two-term sum rounds as
        .sum(axis=-1) does."""
        diff = x[..., None, :2] - sensors
        sq = diff * diff
        return diff, np.sqrt(sq[..., 0] + sq[..., 1])

    def ranges(t, x):
        return offsets(x)[1]

    def range_jacobian(t, x):
        diff, r = offsets(x)
        J = np.zeros(diff.shape[:-1] + (4,))
        J[..., :2] = diff / np.maximum(r, RANGE_CLAMP)[..., None]
        return J

    return NonlinearModel(
        transition=lambda t, x: (A @ x[..., None])[..., 0],
        transition_jacobian=lambda t, x: A,
        measurement=ranges,
        measurement_jacobian=range_jacobian,
        Q=Q, R=R, m1=m1, P1=P1, T=T,
    )


def simulate_range(params: ScenarioParams):
    """Simulate the multi-sensor range scenario.

    The true target alternates between moving segments and full stops
    (velocity exactly zero, no process noise); stops cover roughly 40% of
    the steps, which is what the velocity-group penalty is meant to recover.
    """
    if params.kind != "range":
        raise ValueError("params.kind must be 'range'")
    rng = np.random.default_rng(params.seed)
    model = range_model(params.sensors, params.dt, params.T, r_std=params.sigma)
    T = params.T
    A, _ = wiener_velocity_matrices(params.dt, 1.0)
    Lq = model.noise_factors[1][0]

    x = np.empty((T, 4))
    x[0] = np.concatenate([np.zeros(2), rng.normal(0.0, 0.5, size=2)])
    moving = True
    remaining = int(rng.integers(6, 13))
    for t in range(1, T):
        if remaining == 0:
            moving = not moving
            remaining = int(rng.integers(6, 13)) if moving else int(rng.integers(4, 9))
            if not moving:
                x[t - 1, 2:] = 0.0
        if moving:
            x[t] = A @ x[t - 1] + Lq @ rng.standard_normal(4)
        else:
            x[t] = x[t - 1]
            x[t, 2:] = 0.0
        remaining -= 1

    # a dt near the float limit moves the truth so far that its ranges
    # overflow to inf: TrackingProblem's check names y, with no numpy warning
    with np.errstate(over="ignore"):
        y = model.measurement(np.arange(T), x)
    y += params.sigma * rng.standard_normal((T, model.n_y))
    times = np.arange(T) * params.dt
    return TrackDataset(y=y, times=times, truth=x), model


def _ct_coeffs(omega, dt: float):
    """sin(w dt)/w and (1 - cos(w dt))/w with series branches near w = 0."""
    z = omega * dt
    small = np.abs(z) < 1e-4
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(small, dt * (1.0 - z * z / 6.0 + z ** 4 / 120.0), np.sin(z) / omega)
        c = np.where(small, dt * z / 2.0 * (1.0 - z * z / 12.0), (1.0 - np.cos(z)) / omega)
    return s, c


def ct_transition(x: np.ndarray, dt: float) -> np.ndarray:
    """Coordinated-turn step for states (..., 5) = (px, py, vx, vy, omega)."""
    px, py, vx, vy, w = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
    s, c = _ct_coeffs(w, dt)
    z = w * dt
    cos_z, sin_z = np.cos(z), np.sin(z)
    return np.stack([
        px + s * vx - c * vy,
        py + c * vx + s * vy,
        cos_z * vx - sin_z * vy,
        sin_z * vx + cos_z * vy,
        w,
    ], axis=-1)


def ct_jacobian(x: np.ndarray, dt: float) -> np.ndarray:
    """Exact coordinated-turn Jacobians (..., 5, 5) with analytic omega -> 0 limits."""
    x = np.asarray(x, dtype=float)
    px, py, vx, vy, w = np.moveaxis(x, -1, 0)
    s, c = _ct_coeffs(w, dt)
    z = w * dt
    cos_z, sin_z = np.cos(z), np.sin(z)
    small = np.abs(z) < 1e-4
    with np.errstate(divide="ignore", invalid="ignore"):
        # series of (z cos z - sin z)/w^2 and (z sin z - 1 + cos z)/w^2
        ds = np.where(small, dt * dt * (-z / 3.0 + z ** 3 / 30.0),
                      (z * cos_z - sin_z) / (w * w))
        dc = np.where(small, dt * dt * (0.5 - z * z / 8.0),
                      (z * sin_z - 1.0 + cos_z) / (w * w))
    J = np.zeros(x.shape[:-1] + (5, 5))
    J[..., 0, 0] = J[..., 1, 1] = J[..., 4, 4] = 1.0
    J[..., 0, 2:] = np.stack([s, -c, vx * ds - vy * dc], axis=-1)
    J[..., 1, 2:] = np.stack([c, s, vx * dc + vy * ds], axis=-1)
    J[..., 2, 2:] = np.stack([cos_z, -sin_z, dt * (-sin_z * vx - cos_z * vy)], axis=-1)
    J[..., 3, 2:] = np.stack([sin_z, cos_z, dt * (cos_z * vx - sin_z * vy)], axis=-1)
    return J


def coordinated_turn_model(params: ScenarioParams) -> NonlinearModel:
    """5-state coordinated-turn model with planar position measurements."""
    dt = params.dt
    _, Q4 = wiener_velocity_matrices(dt, params.q_c)
    Q = np.zeros((5, 5))
    Q[:4, :4] = Q4
    Q[4, 4] = params.q_w * dt
    R = params.sigma ** 2 * np.eye(2)
    H = np.zeros((2, 5))
    H[0, 0] = H[1, 1] = 1.0
    m1 = np.array([4.5, 13.5, 0.0, 0.0, 0.0])
    P1 = np.diag([50.0, 50.0, 50.0, 50.0, 0.01])
    return NonlinearModel(
        transition=lambda t, x: ct_transition(x, dt),
        transition_jacobian=lambda t, x: ct_jacobian(x, dt),
        measurement=lambda t, x: x @ H.T,
        measurement_jacobian=lambda t, x: H,
        Q=Q, R=R, m1=m1, P1=P1, T=params.T,
    )


def simulate_coordinated_turn(params: ScenarioParams):
    """Simulate a vehicle that alternates straight legs, turns, and full stops."""
    if params.kind != "coordinated_turn":
        raise ValueError("params.kind must be 'coordinated_turn'")
    rng = np.random.default_rng(params.seed)
    model = coordinated_turn_model(params)
    T, dt = params.T, params.dt

    x = np.empty((T, 5))
    speed = rng.uniform(0.8, 1.5)
    heading = rng.uniform(0.0, 2.0 * np.pi)
    x[0] = [model.m1[0], model.m1[1], speed * np.cos(heading), speed * np.sin(heading), 0.0]
    mode = "straight"
    remaining = int(rng.integers(20, 50))
    for t in range(1, T):
        if remaining == 0:
            mode = rng.choice(["straight", "turn", "stop"], p=[0.4, 0.35, 0.25])
            remaining = int(rng.integers(15, 45))
            if mode == "turn":
                x[t - 1, 4] = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0)
            else:
                x[t - 1, 4] = 0.0
            if mode == "stop":
                x[t - 1, 2:4] = 0.0
            elif np.hypot(x[t - 1, 2], x[t - 1, 3]) < 1e-6:
                speed = rng.uniform(0.8, 1.5)
                heading = rng.uniform(0.0, 2.0 * np.pi)
                x[t - 1, 2] = speed * np.cos(heading)
                x[t - 1, 3] = speed * np.sin(heading)
        x[t] = ct_transition(x[t - 1], dt)
        remaining -= 1
    y = x[:, :2] + params.sigma * rng.standard_normal((T, 2))
    times = np.arange(T) * dt
    return TrackDataset(y=y, times=times, truth=x), model


def relative_error(estimate: np.ndarray, truth: np.ndarray) -> float:
    """sum_t ||estimate_t - truth_t|| / sum_t ||truth_t||."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise ValueError("estimate and truth must have equal shapes")
    denom = float(np.sum(np.linalg.norm(truth, axis=-1)))
    if denom == 0.0:
        raise ValueError("relative error is undefined for an all-zero truth")
    return float(np.sum(np.linalg.norm(estimate - truth, axis=-1))) / denom


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for track CSV files: one timestamp, one column per axis."""

    time_column: str = "t"
    measurement_columns: Tuple[str, ...] = ("x", "y")
    delimiter: str = ","


def load_track_csv(path, schema: CsvSchema = CsvSchema()) -> TrackDataset:
    """Load a measurement track from a delimited text file.

    Rows are sorted by timestamp when needed (recorded as a warning), time
    gaps well above the typical spacing are reported as warnings, and
    duplicate timestamps or malformed rows (missing, unparsable or
    non-finite fields) raise errors naming the line.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    warnings = []
    times, rows = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter=schema.delimiter)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        missing = [c for c in (schema.time_column, *schema.measurement_columns)
                   if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        columns = (schema.time_column, *schema.measurement_columns)
        for line_no, row in enumerate(reader, start=2):
            try:
                if any(row[c] is None or row[c] == "" for c in columns):
                    raise ValueError("missing field")
                values = [float(row[c]) for c in columns]
                bad = [c for c, v in zip(columns, values) if not np.isfinite(v)]
                if bad:
                    raise ValueError(f"non-finite {bad[0]}")
                times.append(values[0])
                rows.append(values[1:])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: malformed row at line {line_no} ({exc})") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    times = np.asarray(times)
    y = np.asarray(rows)
    order = np.argsort(times, kind="stable")
    if not np.array_equal(order, np.arange(len(times))):
        warnings.append("rows were not sorted by timestamp; sorted them")
        times, y = times[order], y[order]
    dup = np.flatnonzero(np.diff(times) == 0.0)
    if dup.size:
        raise ValueError(f"{path}: duplicate timestamp {times[dup[0]]!r}")
    if len(times) > 2:
        deltas = np.diff(times)
        typical = float(np.median(deltas))
        gaps = int(np.sum(deltas > 1.5 * typical))
        if gaps:
            warnings.append(f"{gaps} time gaps exceed 1.5x the median spacing")
    return TrackDataset(y=y, times=times, truth=None, warnings=tuple(warnings))


def track_model(data: TrackDataset, dt: Optional[float] = None) -> AffineModel:
    """Wiener-velocity model of a recorded planar track (two measurement
    columns): q_c = 1, sigma = 0.3 and a diffuse prior N(m1, 100 I) at the
    first fix with zero velocity; dt is the median fix spacing unless given.
    A track of one fix has no spacing: without dt it raises ValueError
    naming dt."""
    if dt is None:
        if data.T < 2:
            raise ValueError("dt: a track with one fix has no fix spacing; give dt")
        dt = float(np.median(np.diff(data.times)))
    m1 = np.concatenate([data.y[0], np.zeros(2)])
    return wiener_velocity_model(dt, 1.0, 0.3, data.T, m1=m1, P1=100.0 * np.eye(4))


# every character a float's or an int's repr can hold
REPR_CHARS = frozenset("0123456789.+-einfa")


def write_csv(path, header, columns, delimiter: str = ",") -> None:
    """Write the bytes csv.writer writes for the header and columns of the
    reprs of numbers (iterables read side by side; see repr_columns): the
    header through csv.writer, which quotes a column name as it needs, and
    each row as its fields joined by the delimiter, which no repr holds
    (REPR_CHARS), 256 lines per write, so no string of the file is built."""
    if delimiter in REPR_CHARS:
        raise ValueError(f"delimiter {delimiter!r} can occur in a number's repr")
    lines = map(delimiter.join, zip(*columns))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, delimiter=delimiter).writerow(header)
        while chunk := list(islice(lines, 256)):
            fh.write("\r\n".join(chunk))
            fh.write("\r\n")


def repr_columns(*arrays) -> list:
    """Lazy repr columns of float arrays (T,) or (T, k), side by side; each
    value is formatted once, as write_csv reads it."""
    return [map(repr, col) for col in np.column_stack(arrays).T.tolist()]


def write_track_csv(path, dataset: TrackDataset, schema: CsvSchema = CsvSchema()) -> None:
    """Write measurements (not truth) in the loader's schema."""
    write_csv(path, (schema.time_column, *schema.measurement_columns),
              repr_columns(dataset.times, dataset.y), schema.delimiter)


def make_vessel_track(T: int = 100, dt: float = 1.0, seed: int = 0,
                      sigma: float = 0.3) -> TrackDataset:
    """Synthetic vessel-like track: long steady legs, rare course changes, stops."""
    rng = np.random.default_rng(seed)
    x = np.empty((T, 4))
    speed = rng.uniform(0.2, 0.5)
    heading = rng.uniform(0.0, 2.0 * np.pi)
    x[0] = [0.1, 0.1, speed * np.cos(heading), speed * np.sin(heading)]
    A, _ = wiener_velocity_matrices(dt, 1.0)
    remaining = int(rng.integers(15, 40))
    stopped = False
    for t in range(1, T):
        if remaining == 0:
            remaining = int(rng.integers(15, 40))
            stopped = rng.random() < 0.3
            if stopped:
                x[t - 1, 2:] = 0.0
            else:
                speed = rng.uniform(0.2, 0.5)
                heading += rng.normal(0.0, 0.8)
                x[t - 1, 2] = speed * np.cos(heading)
                x[t - 1, 3] = speed * np.sin(heading)
        x[t] = A @ x[t - 1]
        remaining -= 1
    y = x[:, :2] + sigma * rng.standard_normal((T, 2))
    return TrackDataset(y=y, times=np.arange(T) * dt, truth=x)
