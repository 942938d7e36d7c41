"""In-memory span tracing of the tracklasso solve path, from outside the library.

Each traced function is replaced at every module binding that holds it, so
the wrapper sits at the name its caller looks it up by (for example
``tracklasso.admm.objective`` as well as ``tracklasso.models.objective``).
A span is ``(name, start, end, parent)``: ``parent`` is the index of the
enclosing span in the same list, or -1.  Spans stay in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

import numpy as np

Span = Tuple[str, float, float, int]


class TraceError(RuntimeError):
    """The tracer could not reach a call site it is meant to wrap."""


# (span name, module, attribute): every name a caller on the solve path looks
# the function up by.  Installing fails if any of these no longer holds the
# function, so a moved call site shows as an error rather than as a silent
# zero in the layer split.
CALL_SITES = (
    ("solve.initial_trajectory", "tracklasso.solve", "initial_trajectory"),
    ("solve.solve_problem", "tracklasso.solve", "solve_problem"),
    ("solve.make_x_solver", "tracklasso.solve", "make_x_solver"),
    ("admm.run_madmm", "tracklasso.solve", "run_madmm"),
    ("admm.update_w_all", "tracklasso.admm", "update_w_all"),
    ("admm.update_v_all", "tracklasso.admm", "update_v_all"),
    ("admm.update_dual_all", "tracklasso.admm", "update_dual_all"),
    ("admm.residuals", "tracklasso.admm", "residuals"),
    ("models.objective", "tracklasso.admm", "objective"),
    ("models.augmented_lagrangian", "tracklasso.admm", "augmented_lagrangian"),
    ("models.x_subproblem_cost", "tracklasso.smoothers", "x_subproblem_cost"),
    ("models.x_subproblem_cost", "tracklasso.batch", "x_subproblem_cost"),
    ("smoothers.plain_smoother", "tracklasso.solve", "plain_smoother"),
    ("smoothers.plain_smoother", "tracklasso.smoothers", "plain_smoother"),
    ("smoothers.plain_ieks", "tracklasso.solve", "plain_ieks"),
    ("smoothers.augmented_ks", "tracklasso.smoothers", "augmented_ks"),
    ("smoothers.build_fused", "tracklasso.smoothers", "build_fused"),
    ("smoothers.linearize", "tracklasso.smoothers", "linearize"),
    ("smoothers.linearize", "tracklasso.batch", "linearize"),
    ("smoothers.lm_ieks", "tracklasso.smoothers", "lm_ieks"),
    ("batch.make_affine_x_solver", "tracklasso.solve", "make_affine_x_solver"),
    ("batch.stack_problem", "tracklasso.batch", "stack_problem"),
    ("batch.normal_system", "tracklasso.batch", "normal_system"),
    ("cli.write_report", "tracklasso.cli", "write_report"),
)


class Tracer:
    """Span and counter recorder; one per traced run."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: List[Tuple[str, float, int]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent)

    def count(self, name: str, value: float) -> None:
        """Record a counter against the innermost open span."""
        self.counts.append((name, value, self._stack[-1] if self._stack else -1))

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # wrappers that also record what the plain span cannot see

    def _wrap_make_x_solver(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span("solve.make_x_solver"):
                solver = fn(*args, **kwargs)
            return self.wrap("admm.x_update", solver)
        return traced

    def _wrap_make_affine_x_solver(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span("batch.make_affine_x_solver"):
                solver = fn(*args, **kwargs)
            calls = [0]

            def affine_x(*a, **kw):
                calls[0] += 1
                with self.span("batch.x_first" if calls[0] == 1 else "batch.x_repeat"):
                    return solver(*a, **kw)
            return affine_x
        return traced

    def _wrap_lm_ieks(self, fn):
        @functools.wraps(fn)
        def traced(problem, v, eta_bar, gamma, x0, cfg=None, trace=None,
                   lambda_trace=None):
            accepted = lambda_trace if lambda_trace is not None else []
            before = len(accepted)
            with self.span("smoothers.lm_ieks"):
                x = fn(problem, v, eta_bar, gamma, x0, cfg, trace=trace,
                       lambda_trace=accepted)
                self.count("smoothers.lm.accepted", len(accepted) - before)
            return x
        return traced

    def _wrap_dense(self, name, fn):
        """Span plus the bytes of the dense arrays the call returns."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
                items = out if isinstance(out, tuple) else vars(out).values()
                self.count("batch.dense_bytes",
                           sum(a.nbytes for a in items
                               if isinstance(a, np.ndarray) and a.ndim == 2))
            return out
        return traced

    def _make_wrapper(self, name: str, fn: Callable) -> Callable:
        if name == "solve.make_x_solver":
            return self._wrap_make_x_solver(fn)
        if name == "batch.make_affine_x_solver":
            return self._wrap_make_affine_x_solver(fn)
        if name == "smoothers.lm_ieks":
            return self._wrap_lm_ieks(fn)
        if name in ("batch.stack_problem", "batch.normal_system"):
            return self._wrap_dense(name, fn)
        return self.wrap(name, fn)

    @contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        originals: Dict[int, Tuple[str, Callable]] = {}
        for name, mod_name, attr in CALL_SITES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None or not callable(fn):
                raise TraceError(f"{mod_name}.{attr} is gone; the trace cannot "
                                 f"record {name}")
            seen = originals.get(id(fn))
            if seen is not None and seen[0] != name:
                raise TraceError(f"{mod_name}.{attr} is already traced as {seen[0]}")
            originals[id(fn)] = (name, fn)
        patched = []
        try:
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "tracklasso"
                                       or mod_name.startswith("tracklasso.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    hit = originals.get(id(value))
                    if hit is not None and hit[1] is value:
                        patched.append((mod, attr, value))
                        setattr(mod, attr, self._make_wrapper(hit[0], value))
            yield self
        finally:
            for mod, attr, value in reversed(patched):
                setattr(mod, attr, value)


def self_times(spans: List[Span]) -> List[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def ancestors(spans: List[Span], sid: int):
    parent = spans[sid][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]
