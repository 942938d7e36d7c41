"""Dynamic group-Lasso state estimation with Kalman-smoother ADMM solvers.

State trajectories are estimated from noisy measurements under group-sparse
penalties on linear images of the states (or of the process-noise terms).
The nonsmooth problem is split by a multi-block ADMM whose quadratic
x-subproblem is solved either densely over the stacked trajectory or, in
O(T), by an augmented Kalman smoother; nonlinear models use iterated
(Gauss-Newton or Levenberg-Marquardt) smoother variants.
"""

from .models import (
    AffineModel,
    GroupRegularizer,
    Model,
    NonlinearModel,
    SingularSystemError,
    SplitState,
    TrackingProblem,
    augmented_lagrangian,
    make_regularizer,
    objective,
    sparsity_target,
)
from .admm import MadmmOptions, SolveReport, block_shrink, run_madmm
from .batch import (
    batch_nonlinear_solve,
    batch_x_affine,
    make_affine_x_solver,
    stack_problem,
)
from .smoothers import (
    LMConfig,
    augmented_ks,
    build_fused,
    linearize,
    lm_ieks,
    plain_ieks,
    plain_smoother,
    rts_smoother,
)
from .scenarios import (
    CsvSchema,
    ScenarioParams,
    TrackDataset,
    coordinated_turn_model,
    load_track_csv,
    make_vessel_track,
    range_model,
    relative_error,
    scenario_defaults,
    simulate_coordinated_turn,
    simulate_range,
    simulate_wiener,
    solver_settings,
    wiener_velocity_model,
    write_track_csv,
)
from .solve import SOLVERS, initial_trajectory, solve_problem

__version__ = "0.1.0"

__all__ = [
    "AffineModel",
    "CsvSchema",
    "GroupRegularizer",
    "LMConfig",
    "MadmmOptions",
    "Model",
    "NonlinearModel",
    "ScenarioParams",
    "SingularSystemError",
    "SolveReport",
    "SOLVERS",
    "SplitState",
    "TrackDataset",
    "TrackingProblem",
    "augmented_ks",
    "augmented_lagrangian",
    "batch_nonlinear_solve",
    "batch_x_affine",
    "block_shrink",
    "build_fused",
    "coordinated_turn_model",
    "initial_trajectory",
    "linearize",
    "lm_ieks",
    "load_track_csv",
    "make_affine_x_solver",
    "make_regularizer",
    "make_vessel_track",
    "objective",
    "plain_ieks",
    "plain_smoother",
    "range_model",
    "relative_error",
    "rts_smoother",
    "run_madmm",
    "scenario_defaults",
    "simulate_coordinated_turn",
    "simulate_range",
    "simulate_wiener",
    "solve_problem",
    "solver_settings",
    "sparsity_target",
    "stack_problem",
    "wiener_velocity_model",
    "write_track_csv",
]
