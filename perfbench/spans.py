"""Span recorder for the traced benchmark run, and the per-layer summary.

The recorder wraps public functions of heavytail from outside the package:
every module attribute that is bound to a wrapped function object is
replaced, so callers that imported a function by name (``experiments``
and ``cli`` import ``pstable_estimate``, ``sample_stable`` ... directly)
and callers that reach it through a module (``estimator`` calls
``kernels.tn_scan``) are both traced. A layer whose module or function no
longer exists is listed as absent instead of failing the run.

Spans stay in memory and are written out once, when the traced process
exits. Each span is one row of ``FIELDS``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

FIELDS = (
    "id", "name", "parent", "thread", "start", "end",
    "cpu_start", "cpu_end", "counts", "workload", "run",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _draws(args, kwargs):
    return args, kwargs, {"draws": int(_arg(args, kwargs, 2, "count"))}


def _scan_elements(args, kwargs):
    return args, kwargs, {"elements": len(_arg(args, kwargs, 0, "x"))}


def _sum_elements(args, kwargs):
    return args, kwargs, {"elements": len(_arg(args, kwargs, 0, "values"))}


def _resampled(args, kwargs):
    n = len(_arg(args, kwargs, 0, "X"))
    cfg = _arg(args, kwargs, 4, "cfg")
    entries = 0 if cfg.resample_mode == "identity" else int(cfg.replicates) * n
    return args, kwargs, {"resampled_entries": entries}


def _csv_rows(args, kwargs):
    """Count rows as write_csv consumes them; bytes are read after the call."""
    counts = {"rows": 0, "bytes": 0}
    rows = _arg(args, kwargs, 2, "rows")

    def counted():
        for row in rows:
            counts["rows"] += 1
            yield row

    if len(args) > 2:
        args = args[:2] + (counted(),) + args[3:]
    else:
        kwargs = dict(kwargs, rows=counted())
    return args, kwargs, counts


def _csv_bytes(args, kwargs, counts):
    counts["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


# layer name -> (module, attribute, count before the call, count after it)
LAYERS = {
    "cli.main": ("heavytail.cli", "main", None, None),
    "experiments.load_config": ("heavytail.experiments", "load_config", None, None),
    "experiments.run_experiment": ("heavytail.experiments", "run_experiment", None, None),
    "experiments.write_csv": ("heavytail.experiments", "write_csv", _csv_rows, _csv_bytes),
    "rng.sample_stable": ("heavytail.rng", "sample_stable", _draws, None),
    "baselines.sample_distribution": ("heavytail.baselines", "sample_distribution", _draws, None),
    "estimator.pstable_estimate": ("heavytail.estimator", "pstable_estimate", None, None),
    "estimator.compute_tn": ("heavytail.estimator", "compute_tn", None, None),
    "estimator.build_log_ecdf": ("heavytail.estimator", "build_log_ecdf", None, None),
    "kernels.tn_scan": ("heavytail._kernels", "tn_scan", _scan_elements, None),
    "kernels.kahan_sum": ("heavytail._kernels", "kahan_sum", _sum_elements, None),
    "baselines.bootstrap_ecdf": ("heavytail.baselines", "bootstrap_ecdf", _resampled, None),
    "baselines.clt_ci": ("heavytail.baselines", "clt_ci", None, None),
    "plotting.emit_plot": ("heavytail.plotting", "emit_plot", None, None),
}


class Recorder:
    """Collects spans of the wrapped layers in one process."""

    def __init__(self, workload: str, run: int):
        self.workload = workload
        self.run = run
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def wrap(self, name, fn, before=None, after=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            # A worker thread's outermost span hangs under the span the main
            # thread has open while it waits for the pool.
            parent = stack[-1] if stack else (rec._main_stack[-1] if rec._main_stack else None)
            counts = None
            if before is not None:
                args, kwargs, counts = before(args, kwargs)
            sid = next(rec._ids)
            stack.append(sid)
            cpu0 = time.thread_time()
            t0 = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.monotonic()
                cpu1 = time.thread_time()
                stack.pop()
                if after is not None:
                    after(args, kwargs, counts)
                rec.spans.append((
                    sid, name, parent, threading.get_ident(), t0, t1,
                    cpu0, cpu1, counts, rec.workload, rec.run,
                ))

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "heavytail" or key.startswith("heavytail."))
        ]
        for name, (module, attr, before, after) in LAYERS.items():
            try:
                original = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _percentile_ms(durations, q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, -(-int(q * 100) * len(ordered) // 100))  # nearest rank
    return ordered[rank - 1] * 1000.0


class LayerTable:
    """Per-layer calls, self time, inclusive time, duration percentiles, counts.

    Self time is a span's duration minus the union of its child spans,
    which may run on worker threads. On one thread the self times add up to
    the outermost spans' time; ``thread_overlap_s`` is what they add up to
    beyond it, because worker threads ran (or waited for the interpreter
    lock) side by side. ``parallelism`` is the thread CPU time of the spans
    directly under ``run_experiment`` (any thread), divided by the
    ``run_experiment`` span.
    """

    def __init__(self, rows):
        spans = [dict(zip(FIELDS, row)) for row in rows]
        children = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]].append(s)
        self.layers = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "s": 0.0, "durations": [], "counts": defaultdict(int)}
        )
        self.total_self_s = 0.0
        root_s = run_wall = run_busy = 0.0
        for s in spans:
            kids = children.get(s["id"], ())
            duration = s["end"] - s["start"]
            self_s = duration - _covered(
                (max(k["start"], s["start"]), min(k["end"], s["end"])) for k in kids
            )
            row = self.layers[s["name"]]
            row["calls"] += 1
            row["self_s"] += self_s
            row["s"] += duration
            row["durations"].append(duration)
            for key, value in (s["counts"] or {}).items():
                row["counts"][key] += value
            self.total_self_s += self_s
            if s["parent"] is None:
                root_s += duration
            if s["name"] == "experiments.run_experiment":
                run_wall += duration
                run_busy += sum(k["cpu_end"] - k["cpu_start"] for k in kids)
        self.thread_overlap_s = self.total_self_s - root_s
        self.parallelism = run_busy / run_wall if run_wall > 0 else 0.0

    def calls(self, layer: str) -> int:
        return self.layers[layer]["calls"] if layer in self.layers else 0

    def value(self, layer: str, stat: str) -> float:
        if layer not in self.layers:
            return 0
        row = self.layers[layer]
        if stat in ("calls", "self_s", "s"):
            return row[stat]
        if stat == "p50_ms":
            return _percentile_ms(row["durations"], 0.5)
        if stat == "p90_ms":
            return _percentile_ms(row["durations"], 0.9)
        return row["counts"].get(stat, 0)
