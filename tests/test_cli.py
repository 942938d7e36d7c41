"""Command line interface: exit codes, outputs, and config handling."""

import argparse
import csv
import io
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tracklasso import cli, models, scenarios, solve
from tracklasso.admm import MadmmOptions
from tracklasso.scenarios import scenario_defaults, simulate_wiener
from tracklasso.smoothers import plain_smoother
from tracklasso.solve import solve_problem


def run_cli(*argv):
    return cli.main(list(argv))


def test_simulate_writes_dataset(tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--scenario", "wiener", "--seed", "4",
                   "--steps", "25", "--out", str(out)) == 0
    for name in ("measurements.csv", "truth.csv", "config.txt"):
        assert (out / name).exists()
    y = np.genfromtxt(out / "measurements.csv", delimiter=",", names=True)
    assert len(y) == 25


def test_simulate_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "sim"
    run_cli("simulate", "--scenario", "range", "--seed", "2",
            "--steps", "20", "--out", str(out))
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    run_cli("simulate", "--scenario", "range", "--seed", "2",
            "--steps", "20", "--out", str(out))
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_solve_outputs_and_report(tmp_path):
    out = tmp_path / "run"
    assert run_cli("solve", "--scenario", "wiener", "--seed", "1",
                   "--steps", "30", "--kmax", "10", "--out", str(out)) == 0
    for name in ("trajectory.csv", "iterations.csv", "sparsity.csv",
                 "report.txt", "config.txt"):
        assert (out / name).exists()
    report = (out / "report.txt").read_text()
    assert "iterations" in report
    assert "\nstop_reason: k_max\n" in report  # 10 iterations do not meet 1e-6
    config = (out / "config.txt").read_text()
    assert "seed=1" in config and f"out={out}" in config


def test_report_records_blas_threading(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "run"
    assert run_cli("solve", "--scenario", "wiener", "--steps", "20", "--kmax", "1",
                   "--out", str(out)) == 0
    report = (out / "report.txt").read_text()
    assert ("\nblas_threads: OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=2 "
            "MKL_NUM_THREADS=unset\n") in report


@pytest.mark.parametrize("scenario, solver, passes, converged", [
    ("range", "lm_ieks_madmm", "20", "False"),  # the initialiser meets its pass cap
    ("wiener", "ks_madmm", "1", "True"),  # one exact pass
])
def test_report_records_the_initialiser(tmp_path, scenario, solver, passes, converged):
    out = tmp_path / "run"
    assert run_cli("solve", "--scenario", scenario, "--solver", solver, "--steps", "30",
                   "--kmax", "2", "--out", str(out)) == 0
    report = (out / "report.txt").read_text()
    assert f"\ninitial_passes: {passes}\ninitial_converged: {converged}\n" in report


def test_written_csvs_are_the_bytes_csv_writer_writes(tmp_path):
    """The one writer, given the repr columns of a float table (600 rows, so
    several write chunks), writes csv.writer's bytes for that table, with
    either delimiter and with column names that need quoting."""
    table = np.tile([[0.1, float("nan"), float("inf")],
                     [-0.0, 1e16, -2.5e-300],
                     [3.0, -float("inf"), 1.0 / 3.0]], (200, 1))
    for delimiter in (",", ";"):
        for header in (["t", "x1", "x2"], ["t,s", 'x "m"', "y;z"]):
            path = tmp_path / "direct.csv"
            scenarios.write_csv(path, header,
                                scenarios.repr_columns(table[:, 0], table[:, 1:]), delimiter)
            buf = io.StringIO(newline="")
            writer = csv.writer(buf, delimiter=delimiter)
            writer.writerow(header)
            writer.writerows(table.tolist())
            assert path.read_bytes() == buf.getvalue().encode(), (delimiter, header)
    out = tmp_path / "run"
    assert run_cli("solve", "--scenario", "wiener", "--seed", "1",
                   "--steps", "30", "--kmax", "3", "--out", str(out)) == 0
    for name in ("trajectory.csv", "iterations.csv", "sparsity.csv"):
        with open(out / name, newline="", encoding="utf-8") as fh:
            parsed = list(csv.reader(fh))
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows(parsed)
        assert (out / name).read_bytes() == buf.getvalue().encode(), name


def test_a_delimiter_a_number_can_hold_is_refused(tmp_path):
    path = tmp_path / "track.csv"
    track = scenarios.make_vessel_track(T=5)
    with pytest.raises(ValueError, match=r"delimiter '\.'"):
        scenarios.write_track_csv(path, track, scenarios.CsvSchema(delimiter="."))
    assert not path.exists()


def test_range_measurements_read_back_as_the_simulated_y(tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--scenario", "range", "--seed", "3", "--steps", "25",
                   "--out", str(out)) == 0
    data, _ = scenarios.simulate_range(scenario_defaults("range", T=25, seed=3))
    loaded = scenarios.load_track_csv(out / "measurements.csv", scenarios.CsvSchema(
        measurement_columns=("y1", "y2", "y3")))
    assert loaded.warnings == ()
    assert np.array_equal(loaded.times, data.times) and np.array_equal(loaded.y, data.y)


def test_report_csvs_with_two_groups_are_the_bytes_csv_writer_writes(tmp_path):
    """trajectory.csv and sparsity.csv with G = 2 groups and times whose repr
    is long equal csv.writer over rows of repr'd floats and plain ints, one
    sparsity row per (step, group); 300 steps span several write chunks."""
    T = 300
    cfg = cli.RunConfig(command="solve", scenario="wiener", regularizer="group",
                        groups=((0, 1), (2, 3)), mu=0.1, kmax=4, steps=T,
                        out=str(tmp_path / "run"))
    data, model = cli.build_dataset(cfg)
    problem = cli.build_problem(cfg, data, model)
    report = solve_problem(problem, cfg.solver, opts=MadmmOptions(gamma=cfg.gamma,
                                                                  k_max=cfg.kmax))
    cli.write_report(Path(cfg.out), cfg, problem, data, report)
    norms = problem.reg.group_norms(report.state.w)
    assert norms.shape == (T, 2)
    assert set(report.zero_groups.ravel()) == {False, True}
    expected = {
        "trajectory.csv": [["t", "x1", "x2", "x3", "x4"]]
        + [[repr(v) for v in row] for row in np.column_stack((data.times, report.x)).tolist()],
        "sparsity.csv": [["t", "group", "norm", "is_zero"]]
        + [[repr(float(data.times[t])), g, repr(float(norms[t, g])),
            int(report.zero_groups[t, g])] for t in range(T) for g in range(2)],
    }
    for name, rows in expected.items():
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows(rows)
        written = (Path(cfg.out) / name).read_bytes()
        assert written == buf.getvalue().encode(), name
        assert b"\r\n0.30000000000000004," in written, name


def test_solve_zero_weight_matches_plain_smoother(tmp_path):
    out = tmp_path / "mu0"
    assert run_cli("solve", "--scenario", "wiener", "--seed", "6",
                   "--steps", "40", "--mu", "0", "--kmax", "5",
                   "--out", str(out)) == 0
    rows = np.genfromtxt(out / "trajectory.csv", delimiter=",", skip_header=1)
    x_cli = rows[:, 1:5]
    data, model = simulate_wiener(scenario_defaults("wiener", T=40, seed=6))
    x_ref = plain_smoother(model, data.y)
    np.testing.assert_allclose(x_cli, x_ref, atol=1e-8)


def test_solve_reads_csv_input(tmp_path):
    out_sim = tmp_path / "sim"
    run_cli("simulate", "--scenario", "wiener", "--seed", "3",
            "--steps", "20", "--out", str(out_sim))
    out = tmp_path / "run"
    assert run_cli("solve", "--input", str(out_sim / "measurements.csv"),
                   "--kmax", "5", "--out", str(out)) == 0
    assert (out / "trajectory.csv").exists()


def test_one_fix_csv_needs_dt(tmp_path, capsys):
    """A one-fix track has no fix spacing: without --dt the solve exits 64
    in one line naming dt, with no numpy warning; with --dt it runs."""
    path = tmp_path / "one.csv"
    path.write_text("t,x,y\n0.0,0.0,0.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("solve", "--input", str(path), "--out", str(tmp_path / "out")) == 64
    assert capsys.readouterr().err.splitlines() == [
        "tracklasso: error: dt: a track with one fix has no fix spacing; give dt"]
    assert not (tmp_path / "out").exists()
    out = tmp_path / "run"
    assert run_cli("solve", "--input", str(path), "--dt", "0.5", "--kmax", "2",
                   "--out", str(out)) == 0
    x = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    assert x.shape == (1, 5) and np.isfinite(x).all()


def test_relative_error_is_computed_once_and_printed_as_written(tmp_path, capsys, monkeypatch):
    """write_report returns the relative error it wrote to report.txt (None
    without truth), and the summary line prints that value."""
    calls = []

    def counted(x, truth):
        calls.append(1)
        return scenarios.relative_error(x, truth)

    def written(out):
        return [float(line.split(": ")[1]) for line in (out / "report.txt").read_text().splitlines()
                if line.startswith("relative_error: ")]

    monkeypatch.setattr(cli, "relative_error", counted)
    out = tmp_path / "run"
    assert run_cli("solve", "--scenario", "wiener", "--steps", "20", "--kmax", "2",
                   "--out", str(out)) == 0
    assert len(calls) == 1
    (rel_error,) = written(out)
    assert f", relative error {rel_error:.4f}\n" in capsys.readouterr().out

    data, model = simulate_wiener(scenario_defaults("wiener", T=10, seed=1))
    problem = models.TrackingProblem(model=model, reg=models.make_regularizer("l2", 4), y=data.y)
    report = solve_problem(problem, opts=MadmmOptions(k_max=1))
    cfg = cli.RunConfig(command="solve", scenario="wiener")
    assert [cli.write_report(tmp_path / "a", cfg, problem, data, report)] == written(tmp_path / "a")
    no_truth = scenarios.TrackDataset(y=data.y, times=data.times)
    assert cli.write_report(tmp_path / "b", cfg, problem, no_truth, report) is None
    assert written(tmp_path / "b") == []


def test_report_records_the_initial_pass_time(tmp_path):
    """report.txt gives solve_problem's initial pass wall time on the line
    after initial_converged, as the float's repr, and n/a for a given x0."""
    data, model = simulate_wiener(scenario_defaults("wiener", T=10, seed=1))
    problem = models.TrackingProblem(model=model, reg=models.make_regularizer("l2", 4), y=data.y)
    cfg = cli.RunConfig(command="solve", scenario="wiener")
    for name, x0 in (("own", None), ("given", plain_smoother(model, data.y))):
        report = solve_problem(problem, opts=MadmmOptions(k_max=1), x0=x0)
        cli.write_report(tmp_path / name, cfg, problem, data, report)
        lines = (tmp_path / name / "report.txt").read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("initial_converged: "))
        value = "n/a" if x0 is not None else repr(report.initial_seconds)
        assert lines[at + 1] == f"seconds_initial: {value}"


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("scenario = wiener\nseed = 3\nsteps = 25\n"
                   "mu = 2.5\nsolver = batch_madmm\n")
    out = tmp_path / "run"
    assert run_cli("solve", "--config", str(cfg), "--mu", "0.5",
                   "--kmax", "5", "--out", str(out)) == 0
    echoed = dict(line.split("=", 1) for line in
                  (out / "config.txt").read_text().splitlines() if "=" in line)
    assert echoed["mu"] == "0.5"          # flag beats file
    assert echoed["solver"] == "batch_madmm"  # file beats default
    assert echoed["seed"] == "3"


def test_every_config_field_is_a_flag_and_a_config_key(tmp_path):
    """Each RunConfig field but command is a simulate and a solve flag with its
    declared cast and choices, and a config-file key read with that cast; the
    choice lists are the library's own."""
    options = [f for f in fields(cli.RunConfig) if f.name != "command"]
    names = [f.name for f in options]
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("simulate", "solve"):
        flags = {a.dest: a for a in sub.choices[command]._actions if a.option_strings}
        assert [name for name in flags if name not in ("help", "config")] == names
        for f in options:
            assert flags[f.name].option_strings == [f"--{f.name}"]
            assert flags[f.name].type is f.metadata["cast"]
            assert flags[f.name].choices is f.metadata["choices"]
    assert {f.name: f.metadata["choices"] for f in options
            if f.metadata["choices"] is not None} == {
        "scenario": scenarios.KINDS, "solver": solve.SOLVERS,
        "regularizer": models.REGULARIZER_KINDS, "sparsity": models.TARGET_MODES}
    path = tmp_path / "keys.txt"
    path.write_text("".join(f"{name} = x\n" for name in names))
    assert list(cli.read_config_file(path)) == names
    # every key but input (solve takes one source) read back through its cast
    cfg = cli.RunConfig(command="solve", scenario="range", solver="batch_madmm",
                        regularizer="sparse_group", groups=((0, 1), (3,)), mu=0.5,
                        gamma=2.0, kmax=7, imax=3, lambda0=0.1, alpha=4.0,
                        sparsity="state", seed=5, steps=20, dt=0.2, p0=0.25,
                        out=str(tmp_path / "o"))
    path.write_text(cli.config_lines(cfg))
    assert cli.resolve_config(parser.parse_args(["solve", "--config", str(path)]),
                              "solve") == cfg


def test_usage_errors_exit_64(tmp_path):
    assert run_cli("solve", "--out", str(tmp_path / "x")) == 64
    assert run_cli("solve", "--scenario", "wiener", "--input", "a.csv",
                   "--out", str(tmp_path / "y")) == 64
    assert run_cli("solve", "--scenario", "range", "--solver", "ks_madmm",
                   "--out", str(tmp_path / "z")) == 64
    assert run_cli("simulate", "--scenario", "wiener", "--steps", "-5",
                   "--out", str(tmp_path / "w")) == 64


@pytest.mark.parametrize("option, value", [
    ("mu", "nan"), ("mu", "inf"), ("gamma", "nan"), ("gamma", "inf"), ("lambda0", "nan"),
    ("lambda0", "inf"), ("alpha", "inf"), ("alpha", "nan"), ("dt", "nan"), ("dt", "inf"),
    ("groups", "7"),
])
def test_bad_option_value_exits_64_naming_it(tmp_path, capsys, option, value):
    """A non-finite number, or index sets for Wiener's l2 penalty, which takes
    none, is a usage error that names the option, before any output."""
    out = tmp_path / "out"
    assert run_cli("solve", "--scenario", "wiener", f"--{option}", value, "--steps", "20",
                   "--out", str(out)) == 64
    assert f"error: {option}" in capsys.readouterr().err
    assert not out.exists()


def test_scenario_group_set_applies_only_to_a_grouped_penalty(tmp_path):
    """range's default index sets serve its group penalty; with l2 they are
    neither used nor echoed."""
    for kind, echoed in (("group", ["groups=2,3"]), ("l2", [])):
        out = tmp_path / kind
        assert run_cli("solve", "--scenario", "range", "--regularizer", kind, "--steps", "20",
                       "--kmax", "1", "--out", str(out)) == 0
        lines = (out / "config.txt").read_text().splitlines()
        assert [line for line in lines if line.startswith("groups=")] == echoed


@pytest.mark.parametrize("key", ["scenario", "solver", "regularizer", "sparsity"])
def test_unknown_choice_in_config_file_exits_64(tmp_path, capsys, key):
    entries = {"scenario": "wiener", key: "nope"}
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    out = tmp_path / "out"
    assert run_cli("solve", "--config", str(cfg), "--out", str(out)) == 64
    assert f"error: unknown {key} 'nope'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--groups", "7"], "group indices must lie in [0, 4)"),
    (["--groups", "0,0"], "group index sets must not repeat components"),
    ([], "kind 'group' needs explicit index sets"),
], ids=["out_of_range", "repeated", "missing"])
@pytest.mark.parametrize("kind", ["group", "sparse_group"])
def test_group_set_that_does_not_fit_exits_64(tmp_path, capsys, flags, message, kind):
    out = tmp_path / "out"
    assert run_cli("solve", "--scenario", "wiener", "--regularizer", kind, *flags,
                   "--steps", "20", "--out", str(out)) == 64
    assert message.replace("'group'", repr(kind)) in capsys.readouterr().err
    assert not out.exists()


def test_group_set_in_config_file_that_does_not_fit_exits_64(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("scenario = wiener\nregularizer = group\ngroups = 9\n")
    out = tmp_path / "out"
    assert run_cli("solve", "--config", str(cfg), "--out", str(out)) == 64
    assert "error: group indices must lie in [0, 4)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["range", "coordinated_turn"])
def test_ks_madmm_on_a_nonlinear_scenario_exits_64(tmp_path, capsys, scenario):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"scenario = {scenario}\nsolver = ks_madmm\n")
    out = tmp_path / "out"
    assert run_cli("solve", "--config", str(cfg), "--steps", "20", "--out", str(out)) == 64
    assert (f"error: ks_madmm needs an affine model; scenario '{scenario}' is nonlinear"
            in capsys.readouterr().err)
    assert not out.exists()


def test_jobs_is_refused_by_every_command(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--scenario", "wiener", "--jobs", "2",
                "--out", str(tmp_path / "s"))
    assert exc.value.code == 64
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("scenario = wiener\njobs = 1\n")
    assert run_cli("solve", "--config", str(cfg), "--out", str(tmp_path / "c")) == 64
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--jobs", "2", "--out", str(tmp_path / "v"))
    assert exc.value.code == 64


def test_missing_input_file_exits_2(tmp_path):
    assert run_cli("solve", "--input", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "out")) == 2


def test_non_finite_csv_time_exits_2(tmp_path, capsys):
    path = tmp_path / "inf.csv"
    path.write_text("t,x,y\n0.0,0.0,0.0\n1.0,0.5,0.5\ninf,1.0,1.0\n")
    assert run_cli("solve", "--input", str(path),
                   "--out", str(tmp_path / "out")) == 2
    assert "line 4" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
@pytest.mark.parametrize("source, dt, message", [
    ("wiener", "1e300", "Q at step 1 is not positive definite"),  # dt ** 3 overflows to inf
    ("wiener", "1e-300", "Q at step 1 is not positive definite"),  # Q underflows
    ("csv", "1e300", "Q at step 1 is not positive definite"),  # both raised in the solve
    ("csv", "1e-300", "Q at step 1 is not positive definite"),
])
def test_a_runtime_failure_exits_2_in_one_line(tmp_path, capsys, source, dt, message):
    """Simulating the scenario fails before the solve; a CSV track's model is
    not validated, so its Q is first factored, and fails, in the solve."""
    if source == "csv":
        path = tmp_path / "track.csv"
        path.write_text("t,x,y\n0.0,0.0,0.0\n1.0,0.5,0.5\n2.0,1.0,1.0\n")
        source_args = ("--input", str(path))
    else:
        source_args = ("--scenario", source, "--steps", "20")
    assert run_cli("solve", *source_args, "--dt", dt, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"tracklasso: error: {message}"]
    assert not (tmp_path / "out").exists()


def test_range_scenario_with_an_overflowing_dt_prints_one_line():
    """The ranges of a simulated range track overflow to inf at dt = 1e300;
    stderr holds only the error naming y, with no numpy overflow warning."""
    proc = subprocess.run(
        [sys.executable, "-m", "tracklasso.cli", "solve", "--scenario", "range",
         "--dt", "1e300", "--out", "unused"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "tracklasso: error: y: non-finite value at step 1\n"


def test_bad_flag_exits_64_from_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tracklasso.cli", "frobnicate"],
        capture_output=True, text=True)
    assert proc.returncode == 64
    proc = subprocess.run([sys.executable, "-m", "tracklasso.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 64


def test_verify_clean_passes(tmp_path, capsys):
    assert run_cli("verify", "--seed", "0", "--out", str(tmp_path)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "all checks passed"
    assert sum("pass" in l for l in lines[:-1]) == len(lines) - 1


def test_verify_injected_fault_fails(tmp_path, capsys):
    out = tmp_path / "dump"
    assert run_cli("verify", "--seed", "0", "--inject-fault",
                   "--out", str(out)) == 1
    text = capsys.readouterr().out
    assert "FAIL" in text
    assert any(p.name.startswith("failed_") and p.suffix == ".npz"
               for p in out.iterdir())


def test_parse_groups():
    assert cli.parse_groups("2,3") == ((2, 3),)
    assert cli.parse_groups("0,1;2,3") == ((0, 1), (2, 3))
    with pytest.raises(cli.UsageError):
        cli.parse_groups("2,a")
    with pytest.raises(cli.UsageError):
        cli.parse_groups(";")
