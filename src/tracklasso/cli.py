"""Command-line front end: simulate, solve, verify.

The fields of RunConfig are the one option table: each is a simulate/solve
flag and a key of the flat key=value config file.  Explicit flags win over
file entries, which win over per-scenario defaults.  All commands are
deterministic given config plus seed (timings excepted).  Every CSV is
written by scenarios.write_csv, and an --input track is solved with
scenarios.track_model.  Exit codes: 0 success, 1 verification failure,
2 solver/runtime error (one error line), 64 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields
from itertools import chain, count, cycle, repeat
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .admm import MadmmOptions, SolveReport
from .models import (GROUPED_KINDS, REGULARIZER_KINDS, TARGET_MODES, SingularSystemError,
                     TrackingProblem, make_regularizer)
from .scenarios import (
    KINDS,
    CsvSchema,
    TrackDataset,
    load_track_csv,
    relative_error,
    scenario_defaults,
    simulate_coordinated_turn,
    simulate_range,
    simulate_wiener,
    solver_settings,
    repr_columns,
    track_model,
    write_csv,
    write_track_csv,
)
from .smoothers import LMConfig
from .solve import SOLVERS, solve_problem
from .verify import run_all_checks

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_RUNTIME = 2
EXIT_USAGE = 64

# read into report.txt: a threaded BLAS can slow the small per-step products many times
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

class UsageError(Exception):
    """Bad flag/config combination; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _option(default, cast, help=None, choices=None):
    """A RunConfig option field; its metadata gives the cast of the flag and
    the config-file value, the allowed values and the flag's help text."""
    return field(default=default, metadata={"cast": cast, "choices": choices, "help": help})


@dataclass(frozen=True)
class RunConfig:
    """Resolved options for one command invocation.  Every field except
    command is an option (see _option); groups is read as parse_groups text."""

    command: str
    scenario: Optional[str] = _option(None, str, choices=KINDS)
    input: Optional[str] = _option(None, str, "measurement CSV (t,x,y header)")
    solver: str = _option("ks_madmm", str, choices=SOLVERS)
    regularizer: str = _option("l2", str, choices=REGULARIZER_KINDS)
    groups: Optional[Tuple[Tuple[int, ...], ...]] = _option(
        None, str, "index sets, e.g. '2,3' or '0,1;2,3'")
    mu: float = _option(1.0, float, "penalty weight")
    gamma: float = _option(1.0, float, "ADMM penalty parameter")
    kmax: int = _option(50, int, "outer ADMM iteration cap")
    imax: int = _option(10, int, "inner smoother iteration cap")
    lambda0: float = _option(1e-2, float, "initial LM damping")
    alpha: float = _option(10.0, float, "LM damping scale factor")
    sparsity: str = _option("process_noise", str, choices=TARGET_MODES)
    seed: int = _option(0, int)
    steps: Optional[int] = _option(None, int, "trajectory length override")
    dt: Optional[float] = _option(None, float, "sampling interval override")
    p0: Optional[float] = _option(None, float, "probability of zero process noise")
    out: str = _option("tracklasso_out", str, "output directory")

    def __post_init__(self):  # each check is written so that nan fails it
        if self.command in ("simulate", "solve"):
            if self.command == "simulate" and self.scenario is None:
                raise UsageError("simulate needs --scenario")
            if self.command == "simulate" and self.input is not None:
                raise UsageError("simulate takes --scenario, not --input")
            if self.command == "solve" and (self.scenario is None) == (self.input is None):
                raise UsageError("solve needs exactly one of --scenario / --input")
        for f in fields(self):
            value, choices = getattr(self, f.name), f.metadata.get("choices")
            if choices is not None and value is not None and value not in choices:
                raise UsageError(f"unknown {f.name} {value!r}")
        if not 0 <= self.mu < np.inf:
            raise UsageError("mu must be finite and nonnegative")
        if not 0 < self.gamma < np.inf:
            raise UsageError("gamma must be finite and positive")
        if self.kmax < 0 or self.imax < 1:
            raise UsageError("kmax must be >= 0 and imax >= 1")
        if not 0 <= self.lambda0 < np.inf:
            raise UsageError("lambda0 must be finite and nonnegative")
        if not 1 < self.alpha < np.inf:
            raise UsageError("alpha must be finite and exceed 1")
        if self.p0 is not None and not 0.0 <= self.p0 <= 1.0:
            raise UsageError("p0 must lie in [0, 1]")
        if self.steps is not None and self.steps < 2:
            raise UsageError("steps must be at least 2")
        if self.dt is not None and not 0 < self.dt < np.inf:
            raise UsageError("dt must be finite and positive")


_CASTS = {f.name: f.metadata["cast"] for f in fields(RunConfig) if f.metadata}


def parse_groups(text: str) -> Tuple[Tuple[int, ...], ...]:
    """Index sets like "2,3" or "0,1;2,3" (semicolon between groups)."""
    try:
        sets = tuple(tuple(int(tok) for tok in part.split(",") if tok.strip() != "")
                     for part in text.split(";") if part.strip() != "")
    except ValueError:
        raise UsageError(f"cannot parse group index sets from {text!r}") from None
    if not sets or any(len(s) == 0 for s in sets):
        raise UsageError(f"cannot parse group index sets from {text!r}")
    return sets


def read_config_file(path: Path) -> Dict[str, str]:
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    data: Dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CASTS:
            raise UsageError(f"{path}:{line_no}: unknown key {key!r}")
        data[key] = value
    return data


def resolve_config(args: argparse.Namespace, command: str) -> RunConfig:
    """Merge flags > config file > scenario defaults > global defaults."""
    file_vals: Dict[str, object] = {}
    if getattr(args, "config", None) is not None:
        for key, raw in read_config_file(args.config).items():
            try:
                file_vals[key] = _CASTS[key](raw)
            except ValueError:
                raise UsageError(f"config key {key}: cannot parse {raw!r}") from None

    merged: Dict[str, object] = {}
    for key in _CASTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
        elif key in file_vals:
            merged[key] = file_vals[key]

    scenario = merged.get("scenario")
    source = scenario if scenario in KINDS else ("csv" if merged.get("input") else None)
    if source is not None:
        defaults = solver_settings(source)
        for key in ("solver", "regularizer", "mu", "gamma", "kmax", "imax", "sparsity"):
            merged.setdefault(key, defaults[key])
        if (merged.get("groups") is None and defaults["groups"] is not None
                and merged["regularizer"] in GROUPED_KINDS):
            merged["groups"] = ";".join(",".join(str(i) for i in g)
                                        for g in defaults["groups"])

    if isinstance(merged.get("groups"), str):
        merged["groups"] = parse_groups(merged["groups"])
    return RunConfig(command=command, **merged)


def config_lines(cfg: RunConfig) -> str:
    """Flat key=value echo of the resolved config (round-trips as a config file)."""
    lines = []
    for f in fields(cfg):
        if f.name == "command":
            continue
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if f.name == "groups":
            value = ";".join(",".join(str(i) for i in g) for g in value)
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"


def build_dataset(cfg: RunConfig):
    """Simulate the selected scenario or load the input CSV; returns (data, model)."""
    if cfg.scenario is not None:
        overrides = {}
        if cfg.steps is not None:
            overrides["T"] = cfg.steps
        if cfg.dt is not None:
            overrides["dt"] = cfg.dt
        if cfg.p0 is not None:
            overrides["p_zero"] = cfg.p0
        params = scenario_defaults(cfg.scenario, seed=cfg.seed, **overrides)
        sim = {"wiener": simulate_wiener, "range": simulate_range,
               "coordinated_turn": simulate_coordinated_turn}[cfg.scenario]
        return sim(params)
    data = load_track_csv(cfg.input)
    for note in data.warnings:
        print(f"warning: {note}", file=sys.stderr)
    if data.y.shape[1] != 2:
        raise UsageError("CSV tracks must carry two measurement columns")
    return data, track_model(data, cfg.dt)


def build_problem(cfg: RunConfig, data: TrackDataset, model) -> TrackingProblem:
    groups = [list(g) for g in cfg.groups] if cfg.groups is not None else None
    try:
        reg = make_regularizer(cfg.regularizer, model.n_x, groups=groups,
                               weights=cfg.mu, target_mode=cfg.sparsity)
    except ValueError as exc:  # a group set that does not fit the model or the kind
        raise UsageError(str(exc)) from None
    return TrackingProblem(model=model, reg=reg, y=data.y)


def _fmt(value: float) -> str:
    return repr(float(value))


def cmd_simulate(cfg: RunConfig) -> int:
    data, model = build_dataset(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "truth.csv", ["t"] + [f"x{i + 1}" for i in range(data.truth.shape[1])],
              repr_columns(data.times, data.truth))
    n_y = data.y.shape[1]
    meas_cols = ("x", "y") if n_y == 2 else tuple(f"y{i + 1}" for i in range(n_y))
    write_track_csv(out / "measurements.csv", data,
                    CsvSchema(measurement_columns=meas_cols))
    (out / "config.txt").write_text(config_lines(cfg), encoding="utf-8")
    print(f"wrote {data.T} steps to {out}/truth.csv and {out}/measurements.csv")
    return EXIT_OK


def write_report(out: Path, cfg: RunConfig, problem: TrackingProblem,
                 data: TrackDataset, report: SolveReport) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "iterations.csv",
              ["k", "objective", "lagrangian", "r_primal", "r_dual", "seconds"],
              [map(repr, count(1)), *repr_columns(report.objective, report.lagrangian,
                                                  report.r_primal, report.r_dual,
                                                  report.seconds)])
    # each time is formatted once and serves both files
    times = list(map(repr, data.times.tolist()))
    write_csv(out / "trajectory.csv", ["t"] + [f"x{i + 1}" for i in range(problem.n_x)],
              [times, *repr_columns(report.x)])
    # one row per (step, group), steps outer
    norms = problem.reg.group_norms(report.state.w)
    G = norms.shape[1]
    write_csv(out / "sparsity.csv", ["t", "group", "norm", "is_zero"],
              [chain.from_iterable(map(repeat, times, repeat(G))), cycle(map(repr, range(G))),
               map(repr, norms.ravel().tolist()),
               map(repr, report.zero_groups.ravel().astype(int).tolist())])

    lines = [
        f"tracklasso_version: {__version__}",
        f"numpy_version: {np.__version__}",
        "blas_threads: " + " ".join(f"{var}={os.environ.get(var, 'unset')}"
                                    for var in BLAS_THREAD_VARS),
        f"solver: {cfg.solver}",
        f"seed: {cfg.seed}",
        f"steps: {problem.T}",
        f"state_dim: {problem.n_x}",
        f"iterations: {report.iterations}",
        f"converged: {report.converged}",
        f"stop_reason: {report.stop_reason}",
        *(f"{name}: {'n/a' if value is None else value}" for name, value in (
            ("initial_passes", report.initial_passes),
            ("initial_converged", report.initial_converged))),
        f"seconds_total: {_fmt(float(np.sum(report.seconds)))}",
        f"objective_final: {_fmt(report.objective[-1]) if report.iterations else 'nan'}",
        f"r_primal_final: {_fmt(report.r_primal[-1]) if report.iterations else 'nan'}",
        f"r_dual_final: {_fmt(report.r_dual[-1]) if report.iterations else 'nan'}",
        f"zero_group_steps: {int(np.sum(np.all(report.zero_groups, axis=1)))}",
    ]
    if data.truth is not None:
        lines.append(f"relative_error: {_fmt(relative_error(report.x, data.truth))}")
    lines.append("config:")
    lines.extend("  " + ln for ln in config_lines(cfg).strip().splitlines())
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "config.txt").write_text(config_lines(cfg), encoding="utf-8")


def cmd_solve(cfg: RunConfig) -> int:
    data, model = build_dataset(cfg)
    if cfg.solver == "ks_madmm" and not model.is_affine:
        raise UsageError(f"ks_madmm needs an affine model; scenario "
                         f"{cfg.scenario!r} is nonlinear")
    problem = build_problem(cfg, data, model)
    opts = MadmmOptions(gamma=cfg.gamma, k_max=cfg.kmax)
    lm_cfg = LMConfig(lambda0=cfg.lambda0, alpha=cfg.alpha, i_max=cfg.imax)
    report = solve_problem(problem, solver=cfg.solver, opts=opts, lm_cfg=lm_cfg)
    out = Path(cfg.out)
    write_report(out, cfg, problem, data, report)
    msg = (f"{cfg.solver}: {report.iterations} iterations, "
           f"converged={report.converged}")
    if report.iterations:
        msg += f", objective {report.objective[-1]:.6g}"
    if data.truth is not None:
        msg += f", relative error {relative_error(report.x, data.truth):.4f}"
    print(msg)
    print(f"report written to {out}/report.txt")
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else 0
    out = Path(args.out) if args.out is not None else Path("tracklasso_out")
    results = run_all_checks(seed=seed, inject_fault=args.inject_fault)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {mark}  {r.detail}")
        if not r.passed:
            all_ok = False
            if r.payload:
                out.mkdir(parents=True, exist_ok=True)
                dump = out / f"failed_{r.name}.npz"
                np.savez(dump, **r.payload)
                print(f"  inputs saved to {dump}", file=sys.stderr)
    print("all checks passed" if all_ok else "verification FAILED")
    return EXIT_OK if all_ok else EXIT_VERIFY


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="flat key=value config file")
    for f in fields(RunConfig):
        if f.metadata:
            p.add_argument(f"--{f.name}", type=f.metadata["cast"],
                           choices=f.metadata["choices"], help=f.metadata["help"])


def build_parser() -> _Parser:
    parser = _Parser(prog="tracklasso",
                     description="Group-sparse trajectory estimation with "
                                 "Kalman-smoother ADMM solvers.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    _add_common(p_sim)
    p_solve = sub.add_parser("solve", help="estimate a trajectory")
    _add_common(p_solve)
    p_verify = sub.add_parser("verify", help="run the cross-oracle checks")
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--out", help="directory for failure dumps")
    p_verify.add_argument("--inject-fault", action="store_true",
                          help="negative control: corrupt the x update and "
                               "expect the descent check to fail")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(resolve_config(args, "simulate"))
        if args.command == "solve":
            return cmd_solve(resolve_config(args, "solve"))
        if args.command == "verify":
            return cmd_verify(args)
    except UsageError as exc:
        print(f"tracklasso: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, ValueError, SingularSystemError, ArithmeticError) as exc:
        print(f"tracklasso: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
