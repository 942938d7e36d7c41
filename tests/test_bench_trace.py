"""The benchmark tracer still reaches every call site it wraps.

bench/tracing.py patches library functions at the module bindings their
callers look them up by, and refuses to install when one is gone.  Entering
it here makes a refactor that unbinds a traced name fail in the test suite,
not only in a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracing import Tracer, ancestors  # noqa: E402

import tracklasso.smoothers as smoothers  # noqa: E402
from tracklasso.admm import MadmmOptions  # noqa: E402
from tracklasso.models import TrackingProblem, make_regularizer  # noqa: E402
from tracklasso.scenarios import (scenario_defaults, simulate_range,  # noqa: E402
                                  simulate_wiener)
from tracklasso.solve import solve_problem  # noqa: E402


def test_tracer_installs_and_records_the_lm_path():
    data, model = simulate_range(scenario_defaults("range", T=10, seed=0))
    reg = make_regularizer("group", 4, groups=[[2, 3]], weights=1.0)
    prob = TrackingProblem(model=model, reg=reg, y=data.y)
    original = smoothers.lm_ieks
    tracer = Tracer()
    with tracer.installed():
        assert smoothers.lm_ieks is not original
        rep = solve_problem(prob, solver="lm_ieks_madmm",
                            opts=MadmmOptions(gamma=1.0, k_max=2), i_max=3)
    assert smoothers.lm_ieks is original
    assert np.all(np.isfinite(rep.x))
    names = {span[0] for span in tracer.spans}
    assert {"smoothers.lm_ieks", "smoothers.augmented_ks", "smoothers.linearize",
            "models.x_subproblem_cost", "admm.x_update"} <= names
    accepted = sum(v for name, v, _ in tracer.counts if name == "smoothers.lm.accepted")
    assert accepted > 0


def test_ks_madmm_runs_one_smoother_pass_per_iteration():
    """The check bench/run.py makes on wiener_ks: the initial pass plus one
    augmented_ks pass per x update, and no nonlinear or cost layer."""
    data, model = simulate_wiener(scenario_defaults("wiener", T=60, seed=0))
    reg = make_regularizer("l2", 4, weights=1.0, target_mode="process_noise")
    prob = TrackingProblem(model=model, reg=reg, y=data.y)
    k = 3
    tracer = Tracer()
    with tracer.installed():
        solve_problem(prob, solver="ks_madmm",
                      opts=MadmmOptions(gamma=1.0, k_max=k, eps_primal=0.0, eps_dual=0.0))
    names = [span[0] for span in tracer.spans]
    assert names.count("smoothers.augmented_ks") == k + 1
    assert names.count("admm.x_update") == k
    assert not {"smoothers.linearize", "models.x_subproblem_cost"} & set(names)


def test_affine_batch_madmm_factors_once_off_the_smoother():
    """batch_madmm on an affine model: one cached dense factorisation, then
    back-substitution; the x updates never reach the smoother, nor the
    stack_problem oracle."""
    data, model = simulate_wiener(scenario_defaults("wiener", T=40, seed=0))
    reg = make_regularizer("l2", 4, weights=1.0, target_mode="process_noise")
    prob = TrackingProblem(model=model, reg=reg, y=data.y)
    k = 3
    tracer = Tracer()
    with tracer.installed():
        solve_problem(prob, solver="batch_madmm",
                      opts=MadmmOptions(gamma=1.0, k_max=k, eps_primal=0.0, eps_dual=0.0))
    names = [span[0] for span in tracer.spans]
    assert names.count("batch.x_first") == 1
    assert names.count("batch.x_repeat") == k - 1
    assert "batch.stack_problem" not in names
    assert names.count("batch.normal_system") >= 1
    assert not any(name == "smoothers.augmented_ks"
                   and "admm.x_update" in ancestors(tracer.spans, sid)
                   for sid, name in enumerate(names))


def test_gn_ieks_madmm_runs_the_smoother_loop_without_costs():
    """gn_ieks_madmm is the iterated smoother with lambda0 = 0: one lm_ieks
    span per x update, and undamped steps evaluate no subproblem cost."""
    data, model = simulate_range(scenario_defaults("range", T=10, seed=0))
    reg = make_regularizer("group", 4, groups=[[2, 3]], weights=1.0)
    prob = TrackingProblem(model=model, reg=reg, y=data.y)
    k = 2
    tracer = Tracer()
    with tracer.installed():
        solve_problem(prob, solver="gn_ieks_madmm", i_max=3,
                      opts=MadmmOptions(gamma=1.0, k_max=k, eps_primal=0.0, eps_dual=0.0))
    names = [span[0] for span in tracer.spans]
    assert names.count("smoothers.lm_ieks") == k
    assert names.count("models.x_subproblem_cost") == 0


def test_band_solves_are_traced_under_the_initialiser_and_lm_ieks():
    """The LM body looks augmented_ks up when it solves, so a traced range
    lm_ieks_madmm solve records band solves under the initial plain_ieks
    pass and under every lm_ieks x update."""
    data, model = simulate_range(scenario_defaults("range", T=10, seed=0))
    reg = make_regularizer("group", 4, groups=[[2, 3]], weights=1.0)
    prob = TrackingProblem(model=model, reg=reg, y=data.y)
    tracer = Tracer()
    with tracer.installed():
        solve_problem(prob, solver="lm_ieks_madmm", i_max=3,
                      opts=MadmmOptions(gamma=1.0, k_max=2, eps_primal=0.0, eps_dual=0.0))
    above = [set(ancestors(tracer.spans, sid)) for sid, span in enumerate(tracer.spans)
             if span[0] == "smoothers.augmented_ks"]
    assert any("solve.initial_trajectory" in names for names in above)
    assert any("smoothers.lm_ieks" in names for names in above)
    assert all(names & {"solve.initial_trajectory", "smoothers.lm_ieks"} for names in above)


def test_nonlinear_batch_madmm_solves_densely_off_the_smoother():
    """batch_madmm on a nonlinear model runs the LM body with the dense
    solve: no lm_ieks span and no band solve inside an x update, and the
    dense normal matrix is built."""
    data, model = simulate_range(scenario_defaults("range", T=10, seed=0))
    reg = make_regularizer("group", 4, groups=[[2, 3]], weights=1.0)
    prob = TrackingProblem(model=model, reg=reg, y=data.y)
    tracer = Tracer()
    with tracer.installed():
        solve_problem(prob, solver="batch_madmm", i_max=3,
                      opts=MadmmOptions(gamma=1.0, k_max=2, eps_primal=0.0, eps_dual=0.0))
    names = [span[0] for span in tracer.spans]
    assert "smoothers.lm_ieks" not in names
    assert not any(name == "smoothers.augmented_ks"
                   and "admm.x_update" in ancestors(tracer.spans, sid)
                   for sid, name in enumerate(names))
    assert any(name == "batch.normal_system" and "admm.x_update" in ancestors(tracer.spans, sid)
               for sid, name in enumerate(names))
