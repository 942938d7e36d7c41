"""Cross-oracle consistency checks behind the ``verify`` CLI command.

Each check either compares two independent computations of the same
quantity (smoother vs stacked solve, shrinkage vs grid search, analytic
vs finite-difference Jacobians) or asserts a proven property of the
iteration (augmented-Lagrangian descent, fixed-point contraction).
Each check takes only a seed: its case counts, problem sizes and
thresholds are fixed, so the battery is deterministic given the seed,
and every failure carries the arrays needed to replay it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from .admm import MadmmOptions, block_shrink, omega_norm_sq, run_madmm
from .batch import _coordinate_groups, batch_nonlinear_solve, batch_x_affine, stack_problem
from .models import (
    AffineModel,
    GroupRegularizer,
    Iterate,
    TrackingProblem,
    augmented_lagrangian,
    make_regularizer,
    x_subproblem_cost,
)
from .scenarios import (
    ct_jacobian,
    ct_transition,
    range_model,
    scenario_defaults,
    simulate_range,
)
from .smoothers import LMConfig, build_fused, linearize, lm_ieks, rts_smoother
from .solve import initial_trajectory, make_x_solver


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    payload: Optional[Dict[str, np.ndarray]] = None


def _spd(rng: np.random.Generator, n: int, jitter: float) -> np.ndarray:
    M = rng.normal(size=(n, n))
    return M @ M.T / n + jitter * np.eye(n)


def random_affine_problem(rng: np.random.Generator, T: Optional[int] = None,
                          n_x: Optional[int] = None, n_y: Optional[int] = None,
                          kind: Optional[str] = None,
                          target_mode: Optional[str] = None) -> TrackingProblem:
    """Random well-posed affine tracking problem with a random penalty."""
    T = int(rng.integers(8, 51)) if T is None else T
    n_x = int(rng.integers(1, 7)) if n_x is None else n_x
    n_y = int(rng.integers(1, n_x + 1)) if n_y is None else n_y
    A = rng.normal(size=(n_x, n_x))
    radius = max(np.abs(np.linalg.eigvals(A)))
    if radius > 0.95:
        A *= 0.95 / radius
    b = 0.1 * rng.normal(size=n_x)
    H = rng.normal(size=(n_y, n_x))
    Q = _spd(rng, n_x, 0.3)
    R = _spd(rng, n_y, 0.3)
    P1 = _spd(rng, n_x, 0.5)
    m1 = rng.normal(size=n_x)
    model = AffineModel(A=A, b=b, H=H, e=np.zeros(n_y), Q=Q, R=R, m1=m1, P1=P1, T=T)

    x = np.empty((T, n_x))
    Lp, Lq, Lr = model.noise_factors
    x[0] = m1 + Lp[0] @ rng.standard_normal(n_x)
    for t in range(1, T):
        x[t] = A @ x[t - 1] + b + Lq[0] @ rng.standard_normal(n_x)
    y = x @ H.T + rng.standard_normal((T, n_y)) @ Lr[0].T

    if kind is None:
        kinds = ["l2", "lasso", "group"]
        if n_x >= 2:
            kinds += ["aniso_tv", "fused"]
        kind = kinds[int(rng.integers(len(kinds)))]
    groups = None
    if kind in ("group", "sparse_group"):
        k = int(rng.integers(1, n_x + 1))
        groups = [sorted(rng.choice(n_x, size=k, replace=False).tolist())]
    if target_mode is None:
        target_mode = ("state", "process_noise")[int(rng.integers(2))]
    reg = make_regularizer(kind, n_x, groups=groups,
                           weights=rng.uniform(0.5, 2.0), target_mode=target_mode)
    return TrackingProblem(model=model, reg=reg, y=y)


def _problem_payload(problem: TrackingProblem, **extra) -> Dict[str, np.ndarray]:
    m = problem.model
    payload = dict(Q=np.asarray(m.Q), R=np.asarray(m.R), m1=np.asarray(m.m1),
                   P1=np.asarray(m.P1), y=np.asarray(problem.y),
                   G_stack=problem.reg.G_stack, weights=problem.reg.weights)
    for name in ("A", "b", "H", "e"):
        if hasattr(m, name):
            payload[name] = np.asarray(getattr(m, name))
    payload.update({k: np.asarray(v) for k, v in extra.items()})
    return payload


def _direct_sum(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Block-diagonal stack of two matrix stacks (or two matrices)."""
    out = np.zeros(a.shape[:-2] + (a.shape[-2] + c.shape[-2], a.shape[-1] + c.shape[-1]))
    out[..., :a.shape[-2], :a.shape[-1]] = a
    out[..., a.shape[-2]:, a.shape[-1]:] = c
    return out


def separable_affine_problem(rng: np.random.Generator) -> TrackingProblem:
    """Direct sum of two random_affine_problem blocks (1 to 3 coordinates
    each, one T and target mode): block-diagonal A, H, Q, R and P1, and
    each block's penalty groups acting on its own coordinates alone, so
    the x update's matrix splits into one coordinate group per block."""
    T = int(rng.integers(8, 51))
    target_mode = ("state", "process_noise")[int(rng.integers(2))]
    p, c = (random_affine_problem(rng, T=T, n_x=int(rng.integers(1, 4)), target_mode=target_mode)
            for _ in range(2))
    mp, mc = p.model, c.model
    model = AffineModel(**{k: _direct_sum(getattr(mp, k), getattr(mc, k))
                           for k in ("A", "H", "Q", "R", "P1")},
                        **{k: np.concatenate([getattr(mp, k), getattr(mc, k)], axis=-1)
                           for k in ("b", "e", "m1")}, T=T)
    groups = ([np.hstack([G, np.zeros((len(G), c.n_x))]) for G in p.reg.groups]
              + [np.hstack([np.zeros((len(G), p.n_x)), G]) for G in c.reg.groups])
    reg = GroupRegularizer(groups=tuple(groups), target_mode=target_mode,
                           weights=np.concatenate([p.reg.weights, c.reg.weights]))
    return TrackingProblem(model=model, reg=reg, y=np.concatenate([p.y, c.y], axis=1))


def check_affine_equivalence(seed: int) -> CheckResult:
    """RTS augmented smoother and ks_madmm x update vs the stacked solve on
    random systems, two couplings each (the second reuses the band factor):
    10 coupled ones, then 4 separable_affine_problem ones, whose dense
    solve runs one factor per coordinate group; relative gap at most 1e-8."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ks = make_x_solver("ks_madmm")
    for i in range(14):
        if i < 10:
            problem = random_affine_problem(rng, n_x=int(rng.integers(1, 5)))
        else:
            problem = separable_affine_problem(rng)
        gamma = float(rng.uniform(0.5, 2.0))
        B, d = problem.penalty_targets()
        for _ in range(2):  # the second coupling reuses the x update's band factor
            V, eta_bar = rng.normal(size=(2, problem.T, problem.n_x))
            eqs = stack_problem(problem, V, eta_bar, gamma)
            groups = _coordinate_groups(eqs.band)
            if i >= 10 and len(groups) != 2:
                return CheckResult("smoother_vs_batch_affine", False,
                                   f"a direct sum of two blocks has coordinate groups {groups}",
                                   _problem_payload(problem, gamma=gamma))
            x_batch = batch_x_affine(eqs)
            fused = build_fused(problem.model, B, d, V, eta_bar, gamma)
            for name, x_ks in (("RTS", rts_smoother(fused, problem.y)),
                               ("ks_madmm", ks(problem, V, eta_bar, gamma, None))):
                rel = np.linalg.norm(x_ks - x_batch) / max(1.0, np.linalg.norm(x_batch))
                worst = max(worst, rel)
                if rel > 1e-8:
                    return CheckResult("smoother_vs_batch_affine", False,
                                       f"{name}: relative gap {rel:.3e} > 1e-08",
                                       _problem_payload(problem, V=V, eta_bar=eta_bar,
                                                        gamma=gamma))
    return CheckResult("smoother_vs_batch_affine", True,
                       f"10 coupled and 4 split systems, worst gap {worst:.3e}")


def check_batch_minimiser(seed: int) -> CheckResult:
    """The dense x update minimises x_subproblem_cost, in both target modes.

    This check does not go through normal_equations: on 10 random systems
    the cost is evaluated at x +- d along 5 random directions d with
    ||d|| = max(1, ||x||).  For a quadratic the central differences are
    exact up to rounding, so the line minimum x + s d,
    s = -(f+ - f-) / (2 (f+ + f- - 2 f(x))), must have |s| <= 1e-8.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(10):
        problem = random_affine_problem(rng, n_x=int(rng.integers(1, 5)),
                                        target_mode=("state", "process_noise")[i % 2])
        gamma = float(rng.uniform(0.5, 2.0))
        V, eta_bar = rng.normal(size=(2, problem.T, problem.n_x))
        x = batch_x_affine(stack_problem(problem, V, eta_bar, gamma))
        f0 = x_subproblem_cost(problem, x, V, eta_bar, gamma)
        for _ in range(5):
            d = rng.normal(size=x.shape)
            d *= max(1.0, np.linalg.norm(x)) / np.linalg.norm(d)
            fp, fm = (x_subproblem_cost(problem, x + sign * d, V, eta_bar, gamma)
                      for sign in (1, -1))
            s = abs(fp - fm) / (2 * (fp + fm - 2 * f0))
            worst = max(worst, s)
            if not s <= 1e-8:
                return CheckResult("batch_minimises_subproblem", False,
                                   f"line minimum {s:.3e} of ||d|| away > 1e-08",
                                   _problem_payload(problem, V=V, eta_bar=eta_bar,
                                                    gamma=gamma, x=x, d=d))
    return CheckResult("batch_minimises_subproblem", True,
                       f"10 systems, 5 directions each, worst line minimum {worst:.3e}")


def _range_problem(seed: int, T: int = 20) -> TrackingProblem:
    params = scenario_defaults("range", T=T, seed=seed)
    data, model = simulate_range(params)
    reg = make_regularizer("group", 4, groups=[[2, 3]], weights=1.0,
                           target_mode="state")
    return TrackingProblem(model=model, reg=reg, y=data.y)


def check_ieks_vs_batch(seed: int) -> CheckResult:
    """GN and LM iterated-smoother inner iterates vs dense stacked iterates."""
    problem = _range_problem(seed)
    rng = np.random.default_rng(seed + 1)
    V = 0.1 * rng.normal(size=(problem.T, 4))
    eta_bar = 0.1 * rng.normal(size=(problem.T, 4))
    x0 = initial_trajectory(problem)
    worst = 0.0
    cfg = LMConfig(lambda0=1e-2, alpha=10.0, i_max=5)
    smoother_cfg = {"gn": LMConfig(lambda0=0.0, i_max=5, step_tol=0.0), "lm": cfg}
    batch_cfg = {"gn": replace(cfg, lambda0=0.0), "lm": cfg}
    for method in ("gn", "lm"):
        tr_s, tr_b = [], []
        lm_ieks(problem, V, eta_bar, 1.0, x0, smoother_cfg[method], trace=tr_s)
        batch_nonlinear_solve(problem, V, eta_bar, 1.0, cfg=batch_cfg[method],
                              x0=x0, trace=tr_b)
        if len(tr_s) != len(tr_b):
            return CheckResult("ieks_vs_batch_nonlinear", False,
                               f"{method}: iterate counts differ "
                               f"({len(tr_s)} vs {len(tr_b)})",
                               _problem_payload(problem, V=V, eta_bar=eta_bar, x0=x0))
        for a, c in zip(tr_s, tr_b):
            rel = np.linalg.norm(a - c) / max(1.0, np.linalg.norm(c))
            worst = max(worst, rel)
            if rel > 1e-7:
                return CheckResult("ieks_vs_batch_nonlinear", False,
                                   f"{method}: iterate gap {rel:.3e} > 1e-07",
                                   _problem_payload(problem, V=V, eta_bar=eta_bar,
                                                    x0=x0))
    return CheckResult("ieks_vs_batch_nonlinear", True,
                       f"gn+lm traces, worst gap {worst:.3e}")


def grid_shrink(z: np.ndarray, kappa: float) -> np.ndarray:
    """Three-stage 81 x 81 grid minimiser of kappa ||w|| + 0.5 ||w - z||^2 (2-dim only)."""
    z = np.asarray(z, dtype=float)
    if z.shape != (2,):
        raise ValueError("grid search is implemented for 2-dim blocks")

    def best_on(cx, cy, half):
        gx = np.linspace(cx - half, cx + half, 81)
        gy = np.linspace(cy - half, cy + half, 81)
        W0, W1 = np.meshgrid(gx, gy, indexing="ij")
        f = kappa * np.hypot(W0, W1) + 0.5 * ((W0 - z[0]) ** 2 + (W1 - z[1]) ** 2)
        i, j = np.unravel_index(np.argmin(f), f.shape)
        return gx[i], gy[j]

    half = float(np.linalg.norm(z)) + kappa + 1.0
    cx, cy = best_on(0.0, 0.0, half)
    step = 2 * half / 80
    cx, cy = best_on(cx, cy, 2 * step)
    # a third stage pins the argument well below the comparison tolerance
    step = 4 * step / 80
    cx, cy = best_on(cx, cy, 2 * step)
    return np.array([cx, cy])


def check_shrink_vs_grid(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        z = rng.uniform(-3.0, 3.0, size=2)
        kappa = float(rng.uniform(0.0, 3.0))
        got = block_shrink(z, kappa)
        ref = grid_shrink(z, kappa)
        gap = float(np.linalg.norm(got - ref))
        worst = max(worst, gap)
        if gap > 1e-3:
            return CheckResult("shrink_vs_grid", False,
                               f"argument gap {gap:.3e} > 1e-03",
                               dict(z=z, kappa=np.array(kappa), got=got, ref=ref))
    return CheckResult("shrink_vs_grid", True, f"50 cases, worst gap {worst:.3e}")


def _fd_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        dx = np.zeros_like(x)
        dx[j] = 1e-6
        cols.append((fn(x + dx) - fn(x - dx)) / 2e-6)
    return np.stack(cols, axis=-1)


def check_jacobians(seed: int) -> CheckResult:
    """Analytic measurement/transition Jacobians vs central differences."""
    rng = np.random.default_rng(seed)
    rmodel = range_model(((0.0, -0.5), (0.5, 0.6), (-0.5, 0.6)), dt=0.1, T=4)
    worst = 0.0
    for _ in range(10):
        x = rng.normal(size=4)
        gap = np.max(np.abs(rmodel.measurement_jacobian(0, x)
                            - _fd_jacobian(lambda s: rmodel.measurement(0, s), x)))
        worst = max(worst, gap)
        if gap > 1e-5:
            return CheckResult("jacobians_vs_fd", False,
                               f"range measurement gap {gap:.3e} > 1e-05",
                               dict(x=x))
    dt = 0.1
    omegas = [0.0, 1e-6, 1e-3, 0.5, -0.7]
    for w in omegas:
        x = np.concatenate([rng.normal(size=4), [w]])
        gap = np.max(np.abs(ct_jacobian(x, dt)
                            - _fd_jacobian(lambda s: ct_transition(s, dt), x)))
        worst = max(worst, gap)
        if gap > 1e-5:
            return CheckResult("jacobians_vs_fd", False,
                               f"turn-model gap {gap:.3e} at omega={w} > 1e-05",
                               dict(x=x))
    return CheckResult("jacobians_vs_fd", True, f"worst gap {worst:.3e}")


def madmm_stage_trace(problem: TrackingProblem, x_solver, gamma: float,
                      k_max: int, x0: np.ndarray):
    """Augmented-Lagrangian bookkeeping for every update stage of the loop.

    Returns (stage_rise, excess): stage_rise[k] is the largest increase the
    x, w, or v minimisation stage produced at iteration k, and excess[k] is
    the post-iteration Lagrangian minus its starting value.  Only the dual
    ascent may raise the Lagrangian, so stage_rise should stay at roundoff
    and excess should stay nonpositive for a correct x update.  The stage
    states are rebuilt from consecutive states recorded by run_madmm, and
    the post-iteration Lagrangians are the ones its report holds.
    """
    opts = MadmmOptions(gamma=gamma, k_max=k_max, eps_primal=0.0, eps_dual=0.0)
    report = run_madmm(problem, x_solver, opts, np.asarray(x0, dtype=float),
                       record_states=True)
    states = report.states
    lag = [augmented_lagrangian(problem, states[0], gamma), *report.lagrangian]
    stage_rise = []
    for prev, cur, lag_prev in zip(states, states[1:], lag):
        stages = (replace(prev, x=cur.x), replace(prev, x=cur.x, w=cur.w),
                  replace(cur, eta_bar=prev.eta_bar, eta_under=prev.eta_under))
        vals = [lag_prev] + [augmented_lagrangian(problem, s, gamma) for s in stages]
        stage_rise.append(max(np.diff(vals)))
    return np.asarray(stage_rise), np.asarray(lag[1:]) - lag[0]


def _lemma2_one(seed: int, inject_fault: bool) -> float:
    """Worst descent violation of the Lagrangian stages on one range seed."""
    problem = _range_problem(seed, T=40)
    if inject_fault:
        x_solver = faulty_x_solver()
    else:
        x_solver = make_x_solver("lm_ieks_madmm", LMConfig(i_max=5))
    stage_rise, excess = madmm_stage_trace(problem, x_solver, 1.0, 12,
                                           initial_trajectory(problem))
    return float(max(np.max(stage_rise), np.max(excess)))


def faulty_x_solver(eps: float = 0.05):
    """Negative-control x update: solves a deliberately perturbed subproblem.

    The fused transition matrices are shifted by eps before smoothing, so the
    returned x no longer decreases the true subproblem and the
    augmented-Lagrangian descent property must break.
    """
    def solver(problem, V, eta_bar, gamma, x_warm):
        model = linearize(problem.model, x_warm)
        B, d = problem.penalty_targets(nominal=x_warm)
        fused = build_fused(model, B, d, V, eta_bar, gamma)
        A = np.array(np.broadcast_to(fused.A, (problem.T, problem.n_x, problem.n_x)))
        A[1:] += eps
        return Iterate(problem, rts_smoother(replace(fused, A=A), problem.y))

    return solver


def check_lemma2(seed: int, inject_fault: bool = False) -> CheckResult:
    """Descent diagnostics of the augmented Lagrangian along the iterations.

    Asserts the two descent facts the loop guarantees: no minimisation
    stage (x, w, v) ever increases the Lagrangian, and the dual ascent
    never lifts it above its starting value.  The raw end-of-iteration
    sequence is not tested per step; the dual update adds gamma times the
    squared constraint residual, which is positive until the split is
    exactly feasible.
    """
    increases = [_lemma2_one(seed + i, inject_fault) for i in range(3)]
    worst = max(increases)
    name = "lemma2_descent"
    if worst > 1e-7:
        idx = int(np.argmax(increases))
        return CheckResult(name, False,
                           f"Lagrangian rose by {worst:.3e} (seed {seed + idx})",
                           dict(seed=np.array(seed + idx),
                                increase=np.array(worst)))
    return CheckResult(name, True,
                       f"3 seeds, worst descent violation {worst:.3e}")


def _lemma1_one(seed: int) -> float:
    """Worst increase of the weighted distance-to-reference on one system."""
    rng = np.random.default_rng(seed)
    problem = random_affine_problem(rng, T=12, n_x=int(rng.integers(2, 5)))
    gamma = 1.0
    opts_ref = MadmmOptions(gamma=gamma, k_max=400, eps_primal=0.0, eps_dual=0.0)
    x0 = initial_trajectory(problem)
    solver = make_x_solver("ks_madmm")
    star = run_madmm(problem, solver, opts_ref, x0=x0).state
    opts = MadmmOptions(gamma=gamma, k_max=50, eps_primal=0.0, eps_dual=0.0)
    rep = run_madmm(problem, solver, opts, x0=x0, record_states=True)
    dist = [omega_norm_sq(s.v - star.v, s.eta - star.eta, problem.reg, gamma)
            for s in rep.states]
    diffs = np.diff(dist)
    return float(np.max(diffs) / max(1.0, dist[0]))


def check_lemma1(seed: int) -> CheckResult:
    """Weighted (v, eta) distance to a converged run never increases."""
    worst = max(_lemma1_one(seed + i) for i in range(3))
    if worst > 1e-9:
        return CheckResult("lemma1_contraction", False,
                           f"distance rose by relative {worst:.3e}",
                           dict(seed=np.array(seed), increase=np.array(worst)))
    return CheckResult("lemma1_contraction", True,
                       f"3 systems, worst relative change {worst:.3e}")


def run_all_checks(seed: int = 0, inject_fault: bool = False) -> List[CheckResult]:
    """The full verification battery, deterministic given the seed."""
    results = [
        check_affine_equivalence(seed),
        check_batch_minimiser(seed + 600),
        check_ieks_vs_batch(seed + 100),
        check_shrink_vs_grid(seed + 200),
        check_jacobians(seed + 300),
        check_lemma2(seed + 400, inject_fault=inject_fault),
        check_lemma1(seed + 500),
    ]
    return results
