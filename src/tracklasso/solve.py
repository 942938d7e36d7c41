"""One-call solver dispatch used by the CLI and the experiment scripts.

Maps solver names to x-subproblem engines, initialises the split from an
unregularised smoother run, and hands off to the ADMM loop.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from .admm import MadmmOptions, SolveReport, run_madmm
from .batch import LMConfig, batch_nonlinear_solve, make_affine_x_solver
from .models import TrackingProblem, per_problem
from .smoothers import (augmented_ks, build_fused, lm_ieks, plain_ieks, plain_smoother,
                        rts_factor)

SOLVERS = ("ks_madmm", "gn_ieks_madmm", "lm_ieks_madmm", "batch_madmm")


def initial_trajectory(problem: TrackingProblem) -> np.ndarray:
    """Unregularised smoother estimate; the standard split initialiser."""
    if problem.is_affine:
        return plain_smoother(problem.model, problem.y)
    return plain_ieks(problem.model, problem.y)


def make_x_solver(solver: str, i_max: int = 10, lm_cfg: Optional[LMConfig] = None):
    """Build the x-update callable solver(problem, V, eta_bar, gamma, x_warm).

    Every inner setting comes from one LMConfig: lm_cfg if given, else
    LMConfig(i_max=i_max), so i_max is read only when lm_cfg is None.
    The two affine engines factor once per (problem, gamma), under the one
    rule of models.per_problem: ks_madmm (affine models only) keeps the RTS
    factor (smoothers.rts_factor) and each call fuses the penalty targets
    and runs the mean pass, and batch_madmm keeps its dense Cholesky factor
    and back-substitutes.  gn_ieks_madmm and lm_ieks_madmm run the iterated
    smoother, GN being the config with lambda0 = 0; batch_madmm runs the
    dense LM loop for nonlinear models.
    """
    cfg = lm_cfg if lm_cfg is not None else LMConfig(i_max=i_max)
    if solver == "ks_madmm":
        factored = per_problem(lambda problem, gamma, fused: rts_factor(fused))

        def ks(problem, V, eta_bar, gamma, x_warm):
            if not problem.is_affine:
                raise ValueError("the Kalman-smoother x update needs an affine model")
            B, d = problem.penalty_targets()
            fused = build_fused(problem.model, B, d, V, eta_bar, gamma)
            return augmented_ks(fused, problem.y, factored(problem, gamma, fused))
        return ks
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
    GN/LM settings are lm_cfg, or LMConfig(i_max=i_max) when lm_cfg is None
    (see make_x_solver).  x0 defaults to initial_trajectory(problem).
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; choose from {SOLVERS}")
    if solver == "ks_madmm" and not problem.is_affine:
        raise ValueError("ks_madmm needs an affine model; use gn_ieks_madmm, "
                         "lm_ieks_madmm, or batch_madmm")
    opts = opts if opts is not None else MadmmOptions()
    if x0 is None:
        x0 = initial_trajectory(problem)
    x_solver = make_x_solver(solver, i_max=i_max, lm_cfg=lm_cfg)
    return run_madmm(problem, x_solver, opts, x0=x0, record_states=record_states)
