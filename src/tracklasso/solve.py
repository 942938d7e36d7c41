"""One-call solver dispatch used by the CLI and the experiment scripts.

Maps solver names to the two x-update bodies, smoothers.factor_once
(affine) and smoothers.lm_x_update (LM), each with the band or the dense
solve; initialises the split from an unregularised smoother run, and hands
off to the ADMM loop.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional

import numpy as np

from .admm import MadmmOptions, SolveReport, run_madmm
from .batch import batch_nonlinear_solve, make_affine_x_solver
from .models import TrackingProblem
from .smoothers import (LMConfig, augmented_ks, band_factor, factor_once, lm_ieks,
                        normal_equations, plain_ieks, plain_smoother)

SOLVERS = ("ks_madmm", "gn_ieks_madmm", "lm_ieks_madmm", "batch_madmm")
INITIAL_PASSES = 20  # the cap of the nonlinear initialiser's plain_ieks passes


def initial_trajectory(problem: TrackingProblem, passes: Optional[list] = None) -> np.ndarray:
    """Unregularised smoother estimate; the standard split initialiser.
    plain_ieks's accepted passes extend passes (its lambda_trace), if given."""
    if problem.is_affine:
        return plain_smoother(problem.model, problem.y)
    return plain_ieks(problem.model, problem.y, i_max=INITIAL_PASSES, lambda_trace=passes)


def make_x_solver(solver: str, lm_cfg: Optional[LMConfig] = None):
    """Build the x-update callable solver(problem, V, eta_bar, gamma, x_warm),
    which returns an Iterate for an Iterate x_warm, else an array.  It holds
    no state: what it reuses per (problem, gamma) lives on problem.kept, so
    a direct call leaves its factor there until the next run_madmm on the
    problem or problem.kept.clear().

    Every inner setting comes from one LMConfig, lm_cfg (default LMConfig()).
    The affine engines are smoothers.factor_once: ks_madmm (affine only)
    with band_factor (in place) and augmented_ks in the "band_factor" slot,
    batch_madmm with the dense factor (batch.make_affine_x_solver).
    gn_ieks_madmm and lm_ieks_madmm run lm_ieks (GN: lambda0 = 0), and
    batch_madmm on a nonlinear model the same LM body with the dense solve
    (batch.batch_nonlinear_solve).
    """
    cfg = lm_cfg if lm_cfg is not None else LMConfig()
    if solver == "ks_madmm":
        return factor_once("band_factor", lambda problem, B, gamma: normal_equations(
            problem.model, problem.y, B, gamma=gamma), lambda eqs: band_factor(
            eqs, overwrite=True), lambda factor, h: augmented_ks(h, factor))
    if solver in ("gn_ieks_madmm", "lm_ieks_madmm"):
        if solver == "gn_ieks_madmm":
            cfg = replace(cfg, lambda0=0.0)

        def ieks(problem, V, eta_bar, gamma, x_warm):
            return lm_ieks(problem, V, eta_bar, gamma, x_warm, cfg)
        return ieks
    if solver == "batch_madmm":
        affine = make_affine_x_solver()

        def dense(problem, V, eta_bar, gamma, x_warm):
            if problem.is_affine:
                return affine(problem, V, eta_bar, gamma, x_warm)
            return batch_nonlinear_solve(problem, V, eta_bar, gamma, cfg=cfg, x0=x_warm)
        return dense
    raise ValueError(f"unknown solver {solver!r}; choose from {SOLVERS}")


def solve_problem(problem: TrackingProblem, solver: str = "ks_madmm",
                  opts: Optional[MadmmOptions] = None, i_max: int = 10,
                  lm_cfg: Optional[LMConfig] = None,
                  x0: Optional[np.ndarray] = None,
                  record_states: bool = False) -> SolveReport:
    """Solve a regularised tracking problem with the named solver.

    ks_madmm requires an affine model; the iterated variants and the dense
    batch reference accept both affine and nonlinear models.  The inner
    GN/LM settings are lm_cfg, or LMConfig(i_max=i_max) when lm_cfg is None,
    so i_max is read only then.  x0 defaults to initial_trajectory(problem),
    whose pass count, convergence and wall time the report then records.
    run_madmm drops what the x updates kept on problem.kept.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; choose from {SOLVERS}")
    if solver == "ks_madmm" and not problem.is_affine:
        raise ValueError("ks_madmm needs an affine model; use gn_ieks_madmm, "
                         "lm_ieks_madmm, or batch_madmm")
    opts = opts if opts is not None else MadmmOptions()
    lm_cfg = lm_cfg if lm_cfg is not None else LMConfig(i_max=i_max)
    passes = None if x0 is not None else []
    if x0 is None:
        tic = time.perf_counter()
        x0 = initial_trajectory(problem, passes)
        initial_seconds = time.perf_counter() - tic
    report = run_madmm(problem, make_x_solver(solver, lm_cfg), opts, x0=x0,
                       record_states=record_states)
    if passes is not None:  # an affine model's one pass is exact
        report.initial_passes = 1 if problem.is_affine else len(passes)
        report.initial_converged = problem.is_affine or len(passes) < INITIAL_PASSES
        report.initial_seconds = initial_seconds
    return report
