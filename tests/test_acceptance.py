"""Acceptance criteria for the regularised state-estimation stack.

One test per criterion; each prints a single pass line with the measured
margin when it holds, and fails the assert otherwise.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy import stats

from tracklasso.admm import MadmmOptions, block_shrink, omega_norm_sq, run_madmm
from tracklasso.batch import (
    LMConfig,
    batch_nonlinear_solve,
    batch_x_affine,
    stack_problem,
)
from tracklasso.models import (
    Iterate,
    SplitState,
    TrackingProblem,
    augmented_lagrangian,
    make_regularizer,
    prior_mean_trajectory,
    x_subproblem_cost,
)
from tracklasso.scenarios import (
    range_model,
    relative_error,
    scenario_defaults,
    simulate_range,
    simulate_wiener,
)
from tracklasso.smoothers import (
    build_fused,
    lm_ieks,
    plain_ieks,
    rts_smoother,
)
from tracklasso.solve import initial_trajectory, make_x_solver, solve_problem
from tracklasso.verify import grid_shrink, random_affine_problem


def wiener_problem(seed, T=100):
    data, model = simulate_wiener(scenario_defaults("wiener", T=T, seed=seed))
    reg = make_regularizer("l2", 4, weights=1.0, target_mode="process_noise")
    return TrackingProblem(model=model, reg=reg, y=data.y), data


def range_problem(seed, T=60, mu=1.0):
    data, model = simulate_range(scenario_defaults("range", T=T, seed=seed))
    reg = make_regularizer("group", 4, groups=[[2, 3]], weights=mu,
                           target_mode="state")
    return TrackingProblem(model=model, reg=reg, y=data.y), data


def test_criterion_01_smoother_equals_batch_on_random_systems():
    """Augmented smoother and stacked solve agree to 1e-8 on 50 systems."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        prob = random_affine_problem(rng)
        gamma = float(rng.uniform(0.2, 3.0))
        V = rng.normal(size=(prob.T, prob.n_x))
        eta = rng.normal(size=(prob.T, prob.n_x))
        B, d = prob.penalty_targets()
        x_ks = rts_smoother(build_fused(prob.model, B, d, V, eta, gamma), prob.y)
        x_b = batch_x_affine(stack_problem(prob, V, eta, gamma))
        worst = max(worst, np.linalg.norm(x_ks - x_b) / np.linalg.norm(x_b))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 10.0
    print(f"criterion 1: PASS (worst relative gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_ieks_iterates_equal_batch_iterates():
    """GN and LM smoother sweeps reproduce the dense iterates to 1e-7."""
    t0 = time.perf_counter()
    prob, _ = range_problem(seed=0, T=30)
    rng = np.random.default_rng(202)
    V = 0.2 * rng.normal(size=(30, 4))
    eta = 0.2 * rng.normal(size=(30, 4))
    x0 = prior_mean_trajectory(prob.model)
    worst = 0.0

    tr_s, tr_b = [], []
    lm_ieks(prob, V, eta, 1.0, x0, LMConfig(lambda0=0.0, i_max=5, step_tol=0.0), trace=tr_s)
    batch_nonlinear_solve(prob, V, eta, 1.0,
                          cfg=LMConfig(lambda0=0.0, i_max=5, step_tol=0.0), x0=x0,
                          trace=tr_b)
    assert len(tr_s) == len(tr_b) == 6
    for a, b in zip(tr_s, tr_b):
        worst = max(worst, float(np.max(np.abs(a - b))))

    cfg = LMConfig(lambda0=1e-2, alpha=10.0, i_max=5, step_tol=0.0)
    tr_s, tr_b, lam_s, lam_b = [], [], [], []
    lm_ieks(prob, V, eta, 1.0, x0, cfg, trace=tr_s, lambda_trace=lam_s)
    batch_nonlinear_solve(prob, V, eta, 1.0, cfg=cfg, x0=x0,
                          trace=tr_b, lambda_trace=lam_b)
    assert lam_s == lam_b
    assert len(tr_s) == len(tr_b)
    for a, b in zip(tr_s, tr_b):
        worst = max(worst, float(np.max(np.abs(a - b))))

    elapsed = time.perf_counter() - t0
    assert worst <= 1e-7
    assert elapsed < 30.0
    print(f"criterion 2: PASS (worst iterate gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_ks_madmm_objectives_match_dense_reference():
    """Per-iteration objectives of the smoother path equal the dense path."""
    t0 = time.perf_counter()
    prob, _ = wiener_problem(seed=0)
    x0 = initial_trajectory(prob)
    opts = MadmmOptions(gamma=1.0, k_max=50, eps_primal=0.0, eps_dual=0.0)
    rep_ks = run_madmm(prob, make_x_solver("ks_madmm"), opts, x0=x0)
    rep_b = run_madmm(prob, make_x_solver("batch_madmm"), opts, x0=x0)
    assert rep_ks.objective.shape == (50,)
    gap = float(np.max(np.abs(rep_ks.objective - rep_b.objective)))
    elapsed = time.perf_counter() - t0
    assert gap <= 1e-8
    assert elapsed < 60.0
    print(f"criterion 3: PASS (max objective gap {gap:.2e}, {elapsed:.1f}s)")


def test_criterion_04_regularisation_improves_monte_carlo_error():
    """Penalised estimate beats the plain smoother over 20 seeds."""
    t0 = time.perf_counter()
    err_ks, err_madmm = [], []
    opts = MadmmOptions(gamma=1.0, k_max=50)
    for seed in range(20):
        prob, data = wiener_problem(seed)
        x0 = initial_trajectory(prob)
        err_ks.append(relative_error(x0, data.truth))
        rep = run_madmm(prob, make_x_solver("ks_madmm"), opts, x0=x0)
        err_madmm.append(relative_error(rep.x, data.truth))
    mean_ks = float(np.mean(err_ks))
    mean_madmm = float(np.mean(err_madmm))
    test = stats.ttest_rel(err_ks, err_madmm, alternative="greater")
    elapsed = time.perf_counter() - t0
    assert mean_madmm < mean_ks
    assert test.pvalue < 0.05
    assert 0.5 * 0.103 <= mean_ks <= 1.5 * 0.103
    assert 0.5 * 0.072 <= mean_madmm <= 1.5 * 0.072
    assert elapsed < 300.0
    print(f"criterion 4: PASS (errors {mean_ks:.4f} -> {mean_madmm:.4f}, "
          f"p={test.pvalue:.2e}, {elapsed:.1f}s)")


def test_criterion_05_penalised_solver_finds_more_stops():
    """Zero-velocity counts beat the plain iterated smoother on all seeds."""
    t0 = time.perf_counter()
    opts = MadmmOptions(gamma=1.0, k_max=50)
    counts = []
    for seed in range(10):
        prob, _ = range_problem(seed)
        rep = solve_problem(prob, solver="lm_ieks_madmm", opts=opts, i_max=5)
        n_madmm = int(np.sum(rep.zero_groups))
        x_ieks = plain_ieks(prob.model, prob.y, i_max=5)
        n_ieks = int(np.sum(np.linalg.norm(x_ieks[:, 2:], axis=1) <= 1e-6))
        counts.append((n_madmm, n_ieks))
        assert n_madmm > n_ieks, f"seed {seed}: {n_madmm} vs {n_ieks}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    lo = min(c[0] for c in counts)
    hi = max(c[0] for c in counts)
    print(f"criterion 5: PASS (penalised {lo}..{hi} stops vs "
          f"{max(c[1] for c in counts)} for IEKS, {elapsed:.1f}s)")


CRITERION_06_CHILD = "--criterion-6-timings"


def criterion_06_timings():
    """Seconds of a two-iteration run_madmm per size for criterion 6.

    Each solver is warmed up first, and each size is timed as the minimum of
    three runs, so the slopes measure the algorithm rather than one slow
    sample or the BLAS threads' start-up.
    """
    opts = MadmmOptions(gamma=1.0, k_max=2, eps_primal=0.0, eps_dual=0.0)

    def timed_solve(solver_name, T, runs=3):
        data, model = simulate_wiener(scenario_defaults("wiener", T=T, seed=0))
        reg = make_regularizer("l2", 4, weights=1.0,
                               target_mode="process_noise")
        prob = TrackingProblem(model=model, reg=reg, y=data.y)
        x0 = initial_trajectory(prob)
        best = np.inf
        for _ in range(runs):
            tic = time.perf_counter()
            run_madmm(prob, make_x_solver(solver_name), opts, x0=x0)
            best = min(best, time.perf_counter() - tic)
        return best

    timed_solve("ks_madmm", 500, runs=1)  # warm-up
    timed_solve("batch_madmm", 100, runs=1)
    T_ks, T_b = [1_000, 10_000, 100_000, 1_000_000], [100, 200, 400, 800]
    return {"T_ks": T_ks, "sec_ks": [timed_solve("ks_madmm", T) for T in T_ks],
            "T_b": T_b, "sec_b": [timed_solve("batch_madmm", T) for T in T_b],
            "sec_ks_small": [timed_solve("ks_madmm", T) for T in T_b]}


def test_criterion_06_smoother_scales_linearly_batch_does_not():
    """log-log runtime slopes: near 1 for the smoother, >= 1.8 for batch.

    The timings run in a child process with one BLAS thread, the benchmark's
    baseline, since the thread count is fixed only before numpy loads.
    """
    t0 = time.perf_counter()
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__, CRITERION_06_CHILD], env=env,
                          capture_output=True, text=True, timeout=1800)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    sec_ks, sec_b = np.array(got["sec_ks"]), np.array(got["sec_b"])
    sec_ks_small = np.array(got["sec_ks_small"])
    slope_ks = np.polyfit(np.log(got["T_ks"]), np.log(sec_ks), 1)[0]
    slope_b = np.polyfit(np.log(got["T_b"]), np.log(sec_b), 1)[0]
    elapsed = time.perf_counter() - t0
    assert 0.8 <= slope_ks <= 1.3, f"smoother slope {slope_ks:.3f}"
    assert slope_b >= 1.8, f"batch slope {slope_b:.3f}"
    assert np.all(sec_ks_small < sec_b), (sec_ks_small, sec_b)
    assert elapsed < 1800.0
    print(f"criterion 6: PASS (slopes {slope_ks:.2f} vs {slope_b:.2f}, "
          f"{elapsed:.0f}s)")


def test_criterion_07_augmented_lagrangian_descends_each_iteration():
    """Only the dual ascent raises the Lagrangian, never above its start.

    Each iteration's change in the augmented Lagrangian, less the dual-ascent
    term gamma * r_primal**2, stays below 1e-9: the x, w and v minimisation
    stages never raise it.  Raw per-iteration descent is not promised at
    gamma = 1, since that term is positive until the split is feasible.
    """
    t0 = time.perf_counter()
    gamma = 1.0
    opts = MadmmOptions(gamma=gamma, k_max=50)
    worst_stage, worst_excess = -np.inf, -np.inf
    for seed in range(10):
        prob, _ = range_problem(seed)
        x0 = initial_trajectory(prob)
        rep = solve_problem(prob, solver="lm_ieks_madmm", opts=opts, i_max=5,
                            x0=x0)
        start = augmented_lagrangian(prob, SplitState.feasible(Iterate(prob, x0)), gamma)
        lag = np.concatenate([[start], rep.lagrangian])
        stage = np.diff(lag) - gamma * rep.r_primal ** 2
        worst_stage = max(worst_stage, float(stage.max()))
        worst_excess = max(worst_excess, float(lag[1:].max() - lag[0]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert worst_stage <= 1e-9, f"minimisation stages raised L by {worst_stage:.3e}"
    assert worst_excess <= 1e-9, f"L rose {worst_excess:.3e} above its start"
    print(f"criterion 7: PASS (worst stage change {worst_stage:.2e}, "
          f"worst excess over start {worst_excess:.2e}, {elapsed:.1f}s)")


def test_criterion_08_split_iterates_contract_toward_fixed_point():
    """Weighted (v, eta) distance to the converged state never increases."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(800 + seed)
        prob = random_affine_problem(rng, T=12, n_x=int(rng.integers(2, 5)))
        x0 = initial_trajectory(prob)
        solver = make_x_solver("ks_madmm")
        star = run_madmm(prob, solver,
                         MadmmOptions(gamma=1.0, k_max=400, eps_primal=0.0,
                                      eps_dual=0.0), x0=x0).state
        rep = run_madmm(prob, solver,
                        MadmmOptions(gamma=1.0, k_max=50, eps_primal=0.0,
                                     eps_dual=0.0), x0=x0, record_states=True)
        dist = [omega_norm_sq(s.v - star.v, s.eta - star.eta, prob.reg, 1.0)
                for s in rep.states]
        rises = np.diff(dist) / max(1.0, dist[0])
        worst = max(worst, float(rises.max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 120.0
    print(f"criterion 8: PASS (worst relative rise {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_09_shrink_matches_grid_search():
    """Closed-form block shrinkage agrees with a 2-dim grid minimiser."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(50):
        z = rng.normal(scale=2.0, size=2)
        kappa = float(rng.uniform(0.0, 4.0))
        gap = np.linalg.norm(block_shrink(z, kappa) - grid_shrink(z, kappa))
        worst = max(worst, float(gap))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-3
    assert elapsed < 10.0
    print(f"criterion 9: PASS (worst gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_10_damping_survives_an_ill_conditioned_fit():
    """Exact GN does not descend on an ill-conditioned fit; LM descends
    strictly and ends below it.

    The dense Gauss-Newton iterates stay finite, but the cost rises at
    accepted steps 3 and 5: the normal matrix at the prior-mean iterate has
    condition about 5e14, and the full step overshoots.  The banded GN
    smoother follows the dense iterates.  LM accepts a step only on a
    strict decrease.
    """
    t0 = time.perf_counter()
    params = scenario_defaults("range", T=12, seed=0)
    data, _ = simulate_range(params)
    sensors = tuple(params.sensors) * 2
    model = range_model(sensors, params.dt, 12, r_std=1e-7,
                        P1=np.diag([0.1, 0.1, 1e5, 1e5]))
    reg = make_regularizer("group", 4, groups=[[2, 3]], weights=1.0,
                           target_mode="state")
    prob = TrackingProblem(model=model, reg=reg,
                           y=np.tile(data.y, (1, 2)))
    z = np.zeros((12, 4))
    x0 = prior_mean_trajectory(model)

    gn = []
    batch_nonlinear_solve(prob, z, z, 0.0, cfg=LMConfig(lambda0=0.0, i_max=5, step_tol=0.0),
                          x0=x0, trace=gn)
    theta_gn = [x_subproblem_cost(prob, x, z, z, 0.0) for x in gn]
    assert len(theta_gn) == 6 and np.isfinite(gn[-1]).all()
    assert [i for i in range(1, 6) if theta_gn[i] > theta_gn[i - 1]] == [3, 5]
    smoother = []
    lm_ieks(prob, z, z, 0.0, x0, LMConfig(lambda0=0.0, i_max=5, step_tol=0.0), trace=smoother)
    assert len(smoother) == len(gn)
    for a, b in zip(smoother, gn):
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)

    cfg = LMConfig(lambda0=1e-2, alpha=10.0, i_max=5, step_tol=0.0,
                   s_cov=1e-5 * np.eye(4))
    trace = []
    lm_ieks(prob, z, z, 0.0, x0, cfg, trace=trace)
    theta = [x_subproblem_cost(prob, x, z, z, 0.0) for x in trace]
    assert len(theta) >= 2
    assert all(b < a for a, b in zip(theta, theta[1:]))
    assert theta[-1] < theta_gn[-1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 10: PASS (GN theta {theta_gn[0]:.3e} -> {theta_gn[-1]:.3e}, "
          f"LM {theta[0]:.3e} -> {theta[-1]:.3e}, {elapsed:.1f}s)")


if __name__ == "__main__" and sys.argv[1:] == [CRITERION_06_CHILD]:
    print(json.dumps(criterion_06_timings()))
