"""One-call solver dispatch used by the CLI and the experiment scripts.

Maps solver names to the one x-update body, smoothers.lm_x_update, on the
band or the dense engine (ks_madmm and gn_ieks_madmm at lambda0 = 0, and
every solver on an affine model, where it factors once per (problem,
gamma)); initialises the split from an unregularised smoother run.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional

import numpy as np

from .admm import MadmmOptions, SolveReport, run_madmm
from .batch import batch_nonlinear_solve, make_affine_x_solver
from .models import TrackingProblem
from .smoothers import LMConfig, lm_ieks, plain_ieks, plain_smoother

SOLVERS = ("ks_madmm", "gn_ieks_madmm", "lm_ieks_madmm", "batch_madmm")
INITIAL_PASSES = 20  # the cap of the nonlinear initialiser's plain_ieks passes
_KS_AFFINE = "ks_madmm needs an affine model; use gn_ieks_madmm, lm_ieks_madmm, or batch_madmm"


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
    ks_madmm (affine only), gn_ieks_madmm and lm_ieks_madmm run lm_ieks, the
    first two at lambda0 = 0 (on an affine model all three take one exact
    proposal, its band factor kept in the "band_factor" slot).  batch_madmm
    runs the same body on the dense engine, batch.make_affine_x_solver on an
    affine model and batch.batch_nonlinear_solve otherwise.
    """
    cfg = lm_cfg if lm_cfg is not None else LMConfig()
    if solver in ("ks_madmm", "gn_ieks_madmm", "lm_ieks_madmm"):
        if solver != "lm_ieks_madmm":
            cfg = replace(cfg, lambda0=0.0)

        def ieks(problem, V, eta_bar, gamma, x_warm):
            if solver == "ks_madmm" and not problem.is_affine:
                raise ValueError(_KS_AFFINE)
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
                  x0: Optional[np.ndarray] = None) -> SolveReport:
    """Solve a regularised tracking problem with the named solver.

    ks_madmm requires an affine model; the iterated variants and the dense
    batch reference accept both affine and nonlinear models.  The inner
    GN/LM settings are lm_cfg, or LMConfig(i_max=i_max) when lm_cfg is None,
    so i_max is read only then.  x0 defaults to initial_trajectory(problem),
    whose pass count, convergence and wall time the report then records.
    run_madmm drops what the x updates kept on problem.kept.
    """
    lm_cfg = lm_cfg if lm_cfg is not None else LMConfig(i_max=i_max)
    x_solver = make_x_solver(solver, lm_cfg)  # an unknown solver raises here
    if solver == "ks_madmm" and not problem.is_affine:
        raise ValueError(_KS_AFFINE)
    opts = opts if opts is not None else MadmmOptions()
    passes = None if x0 is not None else []
    if x0 is None:
        tic = time.perf_counter()
        x0 = initial_trajectory(problem, passes)
        initial_seconds = time.perf_counter() - tic
    report = run_madmm(problem, x_solver, opts, x0=x0)
    if passes is not None:  # an affine model's one pass is exact
        report.initial_passes = 1 if problem.is_affine else len(passes)
        report.initial_converged = problem.is_affine or len(passes) < INITIAL_PASSES
        report.initial_seconds = initial_seconds
    return report
