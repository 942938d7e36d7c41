#!/usr/bin/env python3
"""End-to-end benchmark of tracklasso solves, with a traced per-layer split.

Run from the repository root:

    python3 bench/run.py --workload wiener_ks --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

``--trace 0`` times whole solves and prints the end-to-end metrics;
``--trace 1`` alternates plain and traced solves and prints the per-layer
metrics.  ``--smoke`` runs every workload in both modes at a tiny size, each
in a fresh process.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 when every output check passed, 1 when one failed, and 2 when
the benchmark could not start.  See ``bench/README.md``.
"""

import os

# The single-threaded baseline: the BLAS thread count is fixed before numpy
# loads, so per-step times are comparable between runs and machines.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

if not (ROOT / "src" / "tracklasso" / "__init__.py").is_file():
    print(f"bench: no tracklasso sources under {ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.linalg import cho_solve, cholesky  # noqa: E402

from tracklasso import cli, scenarios, solve  # noqa: E402
from tracklasso.admm import MadmmOptions  # noqa: E402
from tracklasso.models import (AffineModel, NonlinearModel, SingularSystemError,  # noqa: E402
                               TrackingProblem, make_regularizer, objective)
from tracklasso.scenarios import relative_error  # noqa: E402
from tracing import Tracer, ancestors, self_times  # noqa: E402

PROBE_STEPS = 300     # time steps of the host-speed probe's smoother pass
PROBE_DENSE = 600     # order of the host-speed probe's dense Cholesky solve
# probe times that wall_s and setup_s are scaled to, by probe kind
HOST_REF_S = {"smoother": 0.035, "dense": 0.022}
TWIN_T = 200          # short twin of the affine workloads for the dense oracle
TWIN_TOL = 1e-6       # max |x_ks - x_batch|, as in the dense-reference criterion
LAYERS = ("solve", "admm", "smoothers", "batch", "models", "cli")


@dataclass(frozen=True)
class Workload:
    """One benchmark case; regulariser and i_max come from the scenario defaults."""

    scenario: str
    solver: str
    T: int
    k_max: int
    instances: int  # distinct inputs per run; each is solved at least once
    smoke_T: int
    probe: str      # host-speed probe like the workload's dominant work


WORKLOADS = {
    "wiener_ks": Workload("wiener", "ks_madmm", T=2000, k_max=5, instances=4, smoke_T=50,
                          probe="smoother"),
    "range_lm": Workload("range", "lm_ieks_madmm", T=50, k_max=10, instances=32,
                         smoke_T=20, probe="smoother"),
    "wiener_batch": Workload("wiener", "batch_madmm", T=400, k_max=10, instances=4,
                             smoke_T=40, probe="dense"),
}


@dataclass
class Instance:
    seed: int
    data: scenarios.TrackDataset
    model: object


@dataclass
class Solved:
    problem: TrackingProblem
    x0: np.ndarray
    report: object
    setup_s: float
    wall_s: float
    out_bytes: int
    written_problems: list


# ---------------------------------------------------------------- host speed

def _probe_inputs():
    rng = np.random.default_rng(0)
    A = np.eye(4) + 0.05 * rng.standard_normal((4, 4))
    H = np.hstack([np.eye(2), np.zeros((2, 2))])
    y = rng.standard_normal((PROBE_STEPS, 2))
    X = rng.standard_normal((3 * PROBE_DENSE // 2, PROBE_DENSE))
    return A, 0.01 * np.eye(4), H, 0.1 * np.eye(2), y, X


_PROBE = _probe_inputs()


def host_probe_s(kind: str) -> float:
    """Seconds for a fixed piece of work like the workload's: a probe of the host's speed now.

    The ``smoother`` probe is a Kalman filter and RTS pass, many small dense
    steps with per-step arrays, as in ``augmented_ks``.  The ``dense`` probe
    is a Gram product and a Cholesky solve, large BLAS calls, as in the
    dense solver.  Neither is tracklasso code, so no change to the library
    moves them.  The probe runs between solves, and each solve's times are
    scaled by the mean of the probes just before and just after it.  On a
    shared host whose speed drifts over seconds to minutes, the scaled time
    is far steadier than the raw time.
    """
    A, Q, H, R, y, X = _PROBE
    t0 = time.perf_counter()
    if kind == "dense":
        M = X.T @ X + np.eye(PROBE_DENSE)
        out = cho_solve((cholesky(M, lower=True), True), np.ones(PROBE_DENSE))
    else:
        out = _probe_smoother(A, Q, H, R, y)
    t1 = time.perf_counter()
    if not np.all(np.isfinite(out)):
        raise ArithmeticError("host probe diverged")
    return t1 - t0


def _probe_smoother(A, Q, H, R, y):
    T = len(y)
    m_pred, P_pred = np.empty((T, 4)), np.empty((T, 4, 4))
    m_filt, P_filt = np.empty((T, 4)), np.empty((T, 4, 4))
    m, P = np.zeros(4), np.eye(4)
    for t in range(T):
        if t > 0:
            m = A @ m
            P = A @ P @ A.T + Q
        m_pred[t], P_pred[t] = m, P
        S = H @ P @ H.T + R
        K = cho_solve((cholesky(S, lower=True), True), H @ P).T
        m = m + K @ (y[t] - H @ m)
        P = P - K @ S @ K.T
        m_filt[t], P_filt[t] = m, 0.5 * (P + P.T)
    m_smooth = m_filt.copy()
    for t in range(T - 2, -1, -1):
        G = cho_solve((cholesky(P_pred[t + 1], lower=True), True), A @ P_filt[t]).T
        m_smooth[t] = m_filt[t] + G @ (m_smooth[t + 1] - m_pred[t + 1])
    return m_smooth


# ---------------------------------------------------------------- inputs

def settings(wl: Workload) -> dict:
    return scenarios.solver_settings(wl.scenario)


def make_instances(wl: Workload, seed: int, T: int, count: int):
    sim = {"wiener": scenarios.simulate_wiener, "range": scenarios.simulate_range}[wl.scenario]
    out = []
    for j in range(count):
        inst_seed = seed * 1000 + j
        data, model = sim(scenarios.scenario_defaults(wl.scenario, T=T, seed=inst_seed))
        out.append(Instance(inst_seed, data, model))
    return out


def build_problem(wl: Workload, inst: Instance) -> TrackingProblem:
    """Model, regulariser and problem from the generated arrays (timed as set-up)."""
    g = inst.model
    if wl.scenario == "wiener":
        model = AffineModel(A=g.A, b=g.b, H=g.H, e=g.e, Q=g.Q, R=g.R,
                            m1=g.m1, P1=g.P1, T=g.T)
    else:
        model = NonlinearModel(transition=g.transition,
                               transition_jacobian=g.transition_jacobian,
                               measurement=g.measurement,
                               measurement_jacobian=g.measurement_jacobian,
                               Q=g.Q, R=g.R, m1=g.m1, P1=g.P1, T=g.T)
    s = settings(wl)
    reg = make_regularizer(s["regularizer"], model.n_x, groups=s["groups"],
                           weights=s["mu"], target_mode=s["sparsity"])
    return TrackingProblem(model=model, reg=reg, y=inst.data.y)


def run_config(wl: Workload, inst: Instance, T: int) -> cli.RunConfig:
    s = settings(wl)
    groups = tuple(tuple(g) for g in s["groups"]) if s["groups"] else None
    return cli.RunConfig(command="solve", scenario=wl.scenario, solver=wl.solver,
                         regularizer=s["regularizer"], groups=groups, mu=s["mu"],
                         gamma=s["gamma"], kmax=wl.k_max, imax=s["imax"],
                         sparsity=s["sparsity"], seed=inst.seed, steps=T)


def madmm_options(wl: Workload) -> MadmmOptions:
    # zero tolerances: every solve runs exactly k_max iterations
    return MadmmOptions(gamma=settings(wl)["gamma"], k_max=wl.k_max,
                        eps_primal=0.0, eps_dual=0.0)


# ---------------------------------------------------------------- one solve

def solve_once(wl: Workload, inst: Instance, T: int) -> Solved:
    """Set up, solve and write the report; the library is looked up at call time."""
    out = Path(tempfile.mkdtemp(dir=OUT_DIR))
    cfg = run_config(wl, inst, T)
    opts = madmm_options(wl)
    try:
        t0 = time.perf_counter()
        problem = build_problem(wl, inst)
        t1 = time.perf_counter()
        x0 = solve.initial_trajectory(problem)
        t2 = time.perf_counter()
        report = solve.solve_problem(problem, wl.solver, opts=opts,
                                     i_max=settings(wl)["imax"], x0=x0)
        cli.write_report(out, cfg, problem, inst.data, report)
        t3 = time.perf_counter()
        written_problems = check_written(out, report)
        out_bytes = sum(p.stat().st_size for p in out.iterdir())
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return Solved(problem, x0, report, t2 - t0, t3 - t1, out_bytes, written_problems)


def check_written(out: Path, report) -> list:
    """The written trajectory must read back as the solver's final x."""
    written = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1:]
    if not np.array_equal(written, report.x):
        return ["trajectory.csv differs from the solver's final x"]
    return []


def solve_checks(wl: Workload, solved: Solved, first_x) -> list:
    problems = list(solved.written_problems)
    rep = solved.report
    if not np.all(np.isfinite(rep.x)):
        problems.append("trajectory is not finite")
    if rep.iterations != wl.k_max:
        problems.append(f"ran {rep.iterations} iterations, expected {wl.k_max}")
    if first_x is not None and not np.array_equal(first_x, rep.x):
        problems.append("a repeated solve of the same input gave another trajectory")
    return problems


def twin_oracle(wl: Workload, seed: int, T: int) -> list:
    """Smoother and dense solvers agree on a short twin of an affine workload."""
    if wl.scenario != "wiener":
        return []
    inst = make_instances(wl, seed + 10 ** 6, T, 1)[0]
    problem = build_problem(wl, inst)
    x0 = solve.initial_trajectory(problem)
    opts = madmm_options(wl)
    x_ks = solve.solve_problem(problem, "ks_madmm", opts=opts, x0=x0).x
    x_dense = solve.solve_problem(problem, "batch_madmm", opts=opts, x0=x0).x
    gap = float(np.max(np.abs(x_ks - x_dense)))
    if not gap <= TWIN_TOL:
        return [f"twin oracle: ks_madmm and batch_madmm differ by {gap:.3g} > {TWIN_TOL}"]
    return []


# ---------------------------------------------------------------- traced metrics

def layer_metrics(T: int, spans, counts, out_bytes: int) -> dict:
    """Per-layer numbers of one traced solve."""
    own = self_times(spans)
    calls, total, self_s = {}, {}, {}
    for (name, start, end, _), own_s in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + own_s

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return total.get(name, 0.0)

    ks_calls = n("smoothers.augmented_ks")
    ks_self = self_s.get("smoothers.augmented_ks", 0.0)
    in_init = in_lm = 0
    for sid, span in enumerate(spans):
        if span[0] == "smoothers.augmented_ks":
            above = set(ancestors(spans, sid))
            in_init += "solve.initial_trajectory" in above
            in_lm += "smoothers.lm_ieks" in above
    accepted = sum(v for name, v, _ in counts if name == "smoothers.lm.accepted")
    m = {
        "smoothers.augmented_ks.calls": ks_calls,
        "smoothers.augmented_ks.self_s": ks_self,
        "smoothers.augmented_ks.us_per_step": 1e6 * ks_self / (ks_calls * T) if ks_calls else 0.0,
        "smoothers.build_fused.calls": n("smoothers.build_fused"),
        "smoothers.build_fused.s": s("smoothers.build_fused"),
        "smoothers.linearize.calls": n("smoothers.linearize"),
        "smoothers.linearize.s": s("smoothers.linearize"),
        "models.x_subproblem_cost.calls": n("models.x_subproblem_cost"),
        "models.x_subproblem_cost.s": s("models.x_subproblem_cost"),
        "smoothers.lm.accept_ratio": accepted / in_lm if in_lm else 0.0,
        "solve.initial_trajectory.s": s("solve.initial_trajectory"),
        "solve.initial_trajectory.smoother_passes": in_init,
        "admm.x_update.calls": n("admm.x_update"),
        "admm.x_update.s": s("admm.x_update"),
        "admm.update_w_all.s": s("admm.update_w_all"),
        "admm.update_v_all.s": s("admm.update_v_all"),
        "admm.update_dual_all.s": s("admm.update_dual_all"),
        "admm.residuals.s": s("admm.residuals"),
        "models.objective.s": s("models.objective"),
        "models.augmented_lagrangian.s": s("models.augmented_lagrangian"),
        "batch.stack_problem.s": s("batch.stack_problem"),
        "batch.normal_system.s": s("batch.normal_system"),
        "batch.x_first.s": s("batch.x_first"),
        "batch.x_repeat.s": s("batch.x_repeat"),
        "batch.dense_bytes": sum(v for name, v, _ in counts if name == "batch.dense_bytes"),
        "cli.write_report.s": s("cli.write_report"),
        "cli.write_report.bytes": out_bytes,
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(v for name, v in self_s.items()
                                         if name.split(".", 1)[0] == layer)
    return m


def trace_checks(wl: Workload, m: dict, traced_wall: float, spans) -> list:
    """Self-consistency of one traced solve; a missed call site shows here."""
    problems = []
    affine = wl.scenario == "wiener"
    k = wl.k_max
    if m["admm.x_update.calls"] != k:
        problems.append(f"trace saw {m['admm.x_update.calls']} x updates, the solve ran {k}")
    if wl.solver == "ks_madmm" and m["smoothers.augmented_ks.calls"] != k + 1:
        problems.append(f"augmented_ks ran {m['smoothers.augmented_ks.calls']} times, "
                        f"expected iterations + 1 = {k + 1}")
    layer_sum = sum(m[f"layer.{layer}.self_s"] for layer in LAYERS)
    if layer_sum > traced_wall:
        problems.append(f"layer self times sum to {layer_sum:.6f} s, more than the "
                        f"traced wall time {traced_wall:.6f} s")
    if affine and (m["smoothers.linearize.calls"] or m["models.x_subproblem_cost.calls"]):
        problems.append("an affine workload recorded linearize or x_subproblem_cost calls")
    batch_calls = sum(1 for span in spans if span[0].startswith("batch."))
    if (wl.solver == "batch_madmm") != (batch_calls > 0):
        problems.append(f"{batch_calls} batch spans on a {wl.solver} solve")
    if wl.solver == "lm_ieks_madmm" and not 0.0 < m["smoothers.lm.accept_ratio"] <= 1.0:
        problems.append(f"LM accept ratio {m['smoothers.lm.accept_ratio']} outside (0, 1]")
    for sid, span in enumerate(spans):
        if span[0] == "smoothers.augmented_ks":
            above = set(ancestors(spans, sid))
            if not above & {"admm.x_update", "solve.initial_trajectory"}:
                problems.append("a smoother pass ran outside any traced x update "
                                "or initial pass")
                break
    return problems


# ---------------------------------------------------------------- environment

def blas_info() -> str:
    try:
        deps = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def environment(wl_name: str, wl: Workload, T: int, seed: int, trace: int) -> dict:
    return {
        "workload": wl_name, "solver": wl.solver, "T": T, "iterations": wl.k_max,
        "instances": wl.instances, "seed": seed, "trace": trace,
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_info(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------- run

def tail_percentile(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def run(wl_name: str, seed: int, seconds: float, trace: int, smoke: bool) -> int:
    wl = WORKLOADS[wl_name]
    T = wl.smoke_T if smoke else wl.T
    OUT_DIR.mkdir(exist_ok=True)
    env = environment(wl_name, wl, T, seed, trace)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    instances = make_instances(wl, seed, T, wl.instances)

    problems = []
    host_probe_s(wl.probe)            # warm-up: first calls pay for imports and caches
    walls, setups, attempted, failed = [], [], 0, 0
    raw_walls, hosts = [], []
    first, quality = {}, {}
    traced_runs, overhead = [], []   # per traced solve: (metrics, spans, counts)
    last_plain = None
    deadline = time.perf_counter() + seconds
    host_before = host_probe_s(wl.probe)
    i = 0
    while True:
        # with tracing, solves come in pairs on one input: plain, then traced
        pair, second = divmod(i, 2) if trace else (i, 0)
        inst = instances[pair % len(instances)]
        traced = second == 1
        i += 1
        attempted += 1
        tracer = Tracer()
        try:
            if traced:
                with tracer.installed():
                    solved = solve_once(wl, inst, T)
            else:
                solved = solve_once(wl, inst, T)
        except (SingularSystemError, ArithmeticError, ValueError) as exc:
            failed += 1
            problems.append(f"solve of input {inst.seed} raised {exc!r}")
            last_plain = None
            solved = None
        host_after = host_probe_s(wl.probe)
        host = (host_before + host_after) / 2
        host_before = host_after
        scale = HOST_REF_S[wl.probe] / host   # seconds at the reference host speed
        if solved is not None:
            found = solve_checks(wl, solved, first.setdefault(inst.seed, solved.report.x))
            if traced:
                m = layer_metrics(T, tracer.spans, tracer.counts, solved.out_bytes)
                found += trace_checks(wl, m, solved.wall_s, tracer.spans)
                traced_runs.append((m, tracer.spans, tracer.counts))
                if last_plain is not None:
                    overhead.append(solved.wall_s * scale / last_plain)
            else:
                walls.append(solved.wall_s * scale)
                setups.append(solved.setup_s * scale)
                raw_walls.append(solved.wall_s)
                hosts.append(host)
                last_plain = solved.wall_s * scale
            if inst.seed not in quality:
                err = relative_error(solved.report.x, inst.data.truth)
                err0 = relative_error(solved.x0, inst.data.truth)
                quality[inst.seed] = (err, err / err0,
                                      objective(solved.problem, solved.report.x))
            if found:
                failed += 1
                problems.extend(f"input {inst.seed}: {p}" for p in found)
        if traced != bool(trace):
            continue                      # finish the pair
        if not walls:
            if i >= 2 * len(instances):
                break                     # nothing succeeds; stop trying
            continue
        if not trace and len(quality) < len(instances):
            continue                      # every input is solved at least once
        next_s = statistics.median(raw_walls) + statistics.median(hosts)
        if time.perf_counter() + next_s * (1 + trace) > deadline:
            break
    # read before the twin oracle, whose dense solve would set the high-water mark
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += twin_oracle(wl, seed, wl.smoke_T if smoke else TWIN_T)

    if trace:
        metrics = {}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in units:
            if name == "trace.overhead":
                continue
            metrics[name] = statistics.median(m[name] for m, _, _ in traced_runs)
        metrics["trace.overhead"] = statistics.median(overhead)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        errs = [q[0] for q in quality.values()]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "rel_error_ratio": statistics.fmean(q[1] for q in quality.values()),
            "objective_final": statistics.fmean(q[2] for q in quality.values()),
            "success_frac": 1.0 - failed / attempted,
        }
        recorded = json.loads((BENCH_DIR / "reference.json").read_text())
        for name, ref in recorded["smoke" if smoke else "full"][wl_name].items():
            if not abs(metrics[name] / ref - 1.0) <= bounds[name]:
                problems.append(f"{name} {metrics[name]:.6g} is not within "
                                f"{bounds[name]:.0%} of its recorded {ref:.6g}")
        tail = tail_percentile(walls)
        q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else (walls * 3)
        print(f"wall_s samples {len(walls)}: min {min(walls):.6f} q1 {q1:.6f} "
              f"q3 {q3:.6f} s; " + (f"p{tail[0]:.0f} {tail[1]:.6f} s" if tail
                                   else "too few for a tail percentile"))
        print(f"unscaled wall median {statistics.median(raw_walls):.6f} s; host probe "
              f"median {statistics.median(hosts):.6f} s (reference {HOST_REF_S[wl.probe]} s)")
        print(f"rel_error mean {statistics.fmean(errs):.6g} over {len(errs)} inputs; "
              f"fail_frac {failed / attempted:.4f}")

    for name in units:
        print(f"{name:48s} {metrics[name]:>16.6g} {units[name]}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    if problems and failed == 0:
        failed = attempted   # a run-level check failed: no solve's output stands
    if trace:
        dump = OUT_DIR / f"trace-{wl_name}-seed{seed}.json"
        dump.write_text(json.dumps({
            "env": env, "metrics": metrics,
            "solves": [{"spans": spans, "counts": counts} for _, spans, counts in traced_runs],
        }))
        print(f"spans written to {dump.relative_to(ROOT)}")
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


def smoke() -> int:
    """Every workload in both modes at a tiny size, each in a fresh process."""
    status = 0
    for wl_name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl_name,
                   "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            ok = proc.returncode == 0 and last.startswith("{") and json.loads(last)["correct"]
            print(f"{wl_name:14s} trace={trace}  {'ok' if ok else 'FAILED'}")
            if not ok:
                status = 1
                sys.stdout.write(proc.stdout + proc.stderr)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs; without --workload, run every workload and mode")
    args = ap.parse_args(argv)
    if args.workload is None:
        if not args.smoke:
            ap.error("--workload is required unless --smoke is given")
        return smoke()
    seed = 0 if args.smoke else args.seed
    return run(args.workload, seed, args.seconds, args.trace, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
