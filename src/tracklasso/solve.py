"""One-call solver dispatch used by the CLI and the experiment scripts.

Maps solver names to x-subproblem engines, initialises the split from an
unregularised smoother run, and hands off to the ADMM loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .admm import MadmmOptions, SolveReport, run_madmm
from .batch import LMConfig, batch_nonlinear_solve, make_affine_x_solver
from .models import TrackingProblem
from .smoothers import (
    gn_ieks_x_solver,
    ks_x_solver,
    lm_ieks_x_solver,
    plain_ieks,
    plain_smoother,
)

SOLVERS = ("ks_madmm", "gn_ieks_madmm", "lm_ieks_madmm", "batch_madmm")


def initial_trajectory(problem: TrackingProblem) -> np.ndarray:
    """Unregularised smoother estimate; the standard split initialiser."""
    if problem.is_affine:
        return plain_smoother(problem.model, problem.y)
    return plain_ieks(problem.model, problem.y)


def batch_x_solver(cfg: Optional[LMConfig] = None):
    """Dense reference x update (stacked normal equations over all steps):
    one cached solve for affine problems, the dense LM loop with cfg otherwise."""
    affine = make_affine_x_solver()

    def solver(problem, V, eta_bar, gamma, x_warm):
        if problem.is_affine:
            return affine(problem, V, eta_bar, gamma, x_warm)
        return batch_nonlinear_solve(problem, V, eta_bar, gamma, method="lm",
                                     cfg=cfg, x0=x_warm)

    return solver


def make_x_solver(solver: str, i_max: int = 10, step_tol: float = 1e-8,
                  lm_cfg: Optional[LMConfig] = None):
    """Build the x-update callable for a named solver."""
    if solver == "ks_madmm":
        return ks_x_solver()
    if solver == "gn_ieks_madmm":
        return gn_ieks_x_solver(i_max=i_max, step_tol=step_tol)
    cfg = lm_cfg if lm_cfg is not None else LMConfig(i_max=i_max, step_tol=step_tol)
    if solver == "lm_ieks_madmm":
        return lm_ieks_x_solver(cfg)
    if solver == "batch_madmm":
        return batch_x_solver(cfg)
    raise ValueError(f"unknown solver {solver!r}; choose from {SOLVERS}")


def solve_problem(problem: TrackingProblem, solver: str = "ks_madmm",
                  opts: Optional[MadmmOptions] = None,
                  i_max: int = 10, step_tol: float = 1e-8,
                  lm_cfg: Optional[LMConfig] = None,
                  x0: Optional[np.ndarray] = None,
                  record_states: bool = False) -> SolveReport:
    """Solve a regularised tracking problem with the named solver.

    ks_madmm requires an affine model; the iterated variants and the dense
    batch reference accept both affine and nonlinear models.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; choose from {SOLVERS}")
    if solver == "ks_madmm" and not problem.is_affine:
        raise ValueError("ks_madmm needs an affine model; use gn_ieks_madmm, "
                         "lm_ieks_madmm, or batch_madmm")
    opts = opts if opts is not None else MadmmOptions()
    if x0 is None:
        x0 = initial_trajectory(problem)
    x_solver = make_x_solver(solver, i_max=i_max, step_tol=step_tol, lm_cfg=lm_cfg)
    return run_madmm(problem, x_solver, opts, x0=x0, record_states=record_states)
