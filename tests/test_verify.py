"""Self-check battery internals."""

import numpy as np

from tracklasso.admm import block_shrink
from tracklasso.batch import _coordinate_groups, stack_problem
from tracklasso.models import TrackingProblem, make_regularizer
from tracklasso.scenarios import scenario_defaults, simulate_range
from tracklasso.smoothers import LMConfig
from tracklasso.solve import initial_trajectory, make_x_solver
from tracklasso.verify import (
    _problem_payload,
    check_affine_equivalence,
    faulty_x_solver,
    grid_shrink,
    madmm_stage_trace,
    random_affine_problem,
    separable_affine_problem,
)


def test_grid_shrink_agrees_with_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = rng.normal(scale=2.0, size=2)
        kappa = float(rng.uniform(0.0, 3.0))
        np.testing.assert_allclose(grid_shrink(z, kappa),
                                   block_shrink(z, kappa), atol=1e-3)


def test_random_affine_problem_is_reproducible():
    a = random_affine_problem(np.random.default_rng(5))
    b = random_affine_problem(np.random.default_rng(5))
    np.testing.assert_array_equal(a.y, b.y)
    assert a.T == b.T and a.n_x == b.n_x


def test_problem_payload_handles_nonlinear_models():
    params = scenario_defaults("range", T=8, seed=0)
    data, model = simulate_range(params)
    reg = make_regularizer("group", 4, groups=[[2, 3]], weights=1.0)
    prob = TrackingProblem(model=model, reg=reg, y=data.y)
    payload = _problem_payload(prob, extra_thing=np.ones(2))
    assert "y" in payload and "Q" in payload and "extra_thing" in payload
    assert "A" not in payload  # callables cannot be serialised


def test_stage_trace_clean_solver_never_lifts_stages():
    params = scenario_defaults("range", T=20, seed=1)
    data, model = simulate_range(params)
    reg = make_regularizer("group", 4, groups=[[2, 3]], weights=1.0,
                           target_mode="state")
    prob = TrackingProblem(model=model, reg=reg, y=data.y)
    solver = make_x_solver("lm_ieks_madmm", LMConfig(i_max=5))
    x0 = initial_trajectory(prob)
    stage_rise, excess = madmm_stage_trace(prob, solver, 1.0, 8, x0)
    assert stage_rise.shape == (8,) and excess.shape == (8,)
    assert stage_rise.max() < 1e-9
    assert excess.max() < 1e-9


def test_faulty_solver_breaks_stage_descent():
    params = scenario_defaults("range", T=20, seed=1)
    data, model = simulate_range(params)
    reg = make_regularizer("group", 4, groups=[[2, 3]], weights=1.0,
                           target_mode="state")
    prob = TrackingProblem(model=model, reg=reg, y=data.y)
    x0 = initial_trajectory(prob)
    stage_rise, excess = madmm_stage_trace(prob, faulty_x_solver(), 1.0, 8, x0)
    assert max(stage_rise.max(), excess.max()) > 1e-3


def test_separable_problems_split_into_their_blocks_and_pass_the_affine_check():
    """A direct sum of two random blocks has two coordinate groups, the
    first block's coordinates and the second's, and the smoother-vs-batch
    check, which draws such systems too, passes."""
    rng = np.random.default_rng(4)
    for _ in range(6):
        problem = separable_affine_problem(rng)
        groups = _coordinate_groups(stack_problem(problem, None, None, 1.0).band)
        assert len(groups) == 2 and groups[0] + groups[1] == tuple(range(problem.n_x))
    result = check_affine_equivalence(7)
    assert result.passed, result.detail
