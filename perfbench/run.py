#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the heavytail command line.

Run from the repository root:

    python3 perfbench/run.py --workload perm_interval --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --save results.json

Each workload is a closed loop: one ``heavytail`` CLI process at a time,
run from the sources under ``src/`` with the kernel backend they select.
The studies run the protocols of ``configs/fig5.yaml`` and
``configs/fig6.yaml`` with fewer replications (``REPLICATIONS``) and the
long series has ``LONG_N`` rows, so that one CLI process takes about two
seconds and a run of ``--seconds`` holds a dozen or more of them.

An untraced run (``--trace 0``) first spawns set-up probes (import and
argument/config parsing only), then repeats the CLI at least three times
and for about ``--seconds``, and reports medians. The host is shared, and
the load of its other tenants changes how fast this machine runs by 30%
and more over minutes. So before every CLI process the benchmark also
times ``reference_work``, a fixed piece of interpreter and NumPy work that
uses nothing of heavytail, and reports ``wall_s``, ``setup_s`` and
``cpu_s`` as seconds at reference speed: the run's median times
``REFERENCE_S`` over the median of its reference timings. A change to the
program moves them as it moves the raw times; a change in host speed moves
them less. On a shared 2-core host, over 20 one-minute windows, the median
wall time of each workload spread 13-15% (interquartile range over
median); scaled this way, 5-9%. The raw medians and quartiles are printed
and saved beside the scaled figures. A traced run (``--trace 1``)
alternates untraced and traced repeats; the traced process records a span
around every wrapped layer (``spans.py``) and the per-layer metrics are
medians over those repeats. Every repeat's outputs are checked, and the
CSV/SVG bytes must be identical across the repeats of one seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are for people. Each run also writes
``.perfbench/results/<workload>-seed<N>-trace<T>.json`` with its
environment, samples, checks and CSV hashes. ``--workload all`` runs every
workload untraced and traced, prints both tables and saves a result set
that ``perfbench/compare.py`` compares against another.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"

WORKERS = {"perm_interval": 1, "panel_w2": 2, "long_estimate": 1}
SETUP_PROBES = 5
MIN_REPEATS = 3
IMPORTTIME_PROBES = 3
# Every run ends well inside the three minutes a run is allowed.
RUN_DEADLINE_S = 170.0
# Replications per study: configs/fig5.yaml has 100 and configs/fig6.yaml 50.
REPLICATIONS = {"perm_interval": 20, "panel_w2": 10}
CONFIGS = {"perm_interval": "configs/fig5.yaml", "panel_w2": "configs/fig6.yaml"}
LONG_N = 200_000
LONG_PILOT = LONG_N // 10  # `heavytail estimate` keeps a 0.1 pilot share by default
MAX_ERRORS = 5
# About the median time of reference_work() on a shared 2-core 2.1 GHz Xeon
# under CPython 3.11 and NumPy 2.4. It only sets the scale of the reported
# times and must not change between the commits that are compared.
REFERENCE_S = 0.12


LONG_INPUT = WORK / "long_estimate" / "input.csv"


def write_long_input(seed: int) -> None:
    """Pareto(a=2, x_min=3) draws under x -> x*max(ln x, 1), from NumPy alone.

    heavytail's samplers are not used, so a sampler change cannot alter
    this input. It is written before any timing starts.
    """
    x = 3.0 * (1.0 + np.random.default_rng(seed).pareto(2.0, LONG_N))
    x = x * np.maximum(np.log(x), 1.0)
    np.savetxt(LONG_INPUT, x, fmt="%.17g")


def write_study_config(workload: str) -> None:
    """The repo's config for this study with REPLICATIONS[workload] replications."""
    import yaml

    config = yaml.safe_load((ROOT / CONFIGS[workload]).read_text(encoding="utf-8"))
    config["replications"] = REPLICATIONS[workload]
    with open(study_config(workload), "w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh, sort_keys=False)


def study_config(workload: str) -> Path:
    return WORK / workload / "config.yaml"


def cli_args(workload: str, seed: int, out: Path, workers: int | None = None) -> list[str]:
    if workload == "long_estimate":
        return [
            "estimate", "--input", str(LONG_INPUT), "--p", "1.2",
            "--burn-in", "100", "--perms", "1", "--seed", str(seed), "--out", str(out),
        ]
    workers = WORKERS[workload] if workers is None else workers
    return [
        "simulate", "--config", str(study_config(workload)), "--seed", str(seed),
        "--out", str(out), "--workers", str(workers),
    ]


# ---------------------------------------------------------------- output checks

def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(cell: str):
    return None if cell == "" else float(cell)


def _finite_ordered(lower: str, upper: str) -> bool:
    lo, hi = _num(lower), _num(upper)
    return lo is not None and hi is not None and math.isfinite(lo) and math.isfinite(hi) and lo <= hi


def check_perm_interval(out: Path) -> list[str]:
    rows = _rows(out / "intervals.csv")
    expected = 4 * REPLICATIONS["perm_interval"]  # 2 level pairs x 2 methods
    errors = [] if len(rows) == expected else [f"intervals.csv has {len(rows)} rows, expected {expected}"]
    for line, row in enumerate(rows, start=2):
        if not _finite_ordered(row["lower"], row["upper"]):
            errors.append(f"intervals.csv:{line}: bounds [{row['lower']}, {row['upper']}] not finite and ordered")
    return errors


def check_panel(out: Path) -> list[str]:
    rows = _rows(out / "intervals.csv")
    expected = 12 * REPLICATIONS["panel_w2"]  # 3 cutoffs x 2 methods x 2 targets
    errors = [] if len(rows) == expected else [f"intervals.csv has {len(rows)} rows, expected {expected}"]
    means = {
        (r["x_m"], r["replication"], r["method"]): r for r in rows if r["target"] == "mean"
    }
    for line, row in enumerate(rows, start=2):
        if row["target"] != "alpha":
            continue
        mean = means.get((row["x_m"], row["replication"], row["method"]))
        if mean is None:
            errors.append(f"intervals.csv:{line}: no mean row for this alpha row")
            continue
        for bound in ("lower", "upper"):
            m = _num(mean[bound])
            if m is None or not math.isfinite(m):
                errors.append(f"intervals.csv:{line}: mean {bound} bound {mean[bound]!r} not finite")
            elif (row[bound] == "") != (m <= 0.0):
                errors.append(
                    f"intervals.csv:{line}: alpha {bound} {row[bound]!r} against mean {bound} {m!r}"
                )
    return errors


def check_long(out: Path) -> list[str]:
    ci = _rows(out / "ci.csv")
    errors = [] if len(ci) == 2 else [f"ci.csv has {len(ci)} rows, expected 2"]
    mean = [r for r in ci if r["target"] == "mean"]
    if len(mean) != 1 or not _finite_ordered(mean[0]["lower"], mean[0]["upper"]):
        errors.append(f"ci.csv: mean bounds not finite and ordered: {mean}")
    with open(out / "tn.csv", "rb") as fh:
        tn_rows = sum(1 for _ in fh) - 1
    if tn_rows != LONG_N - LONG_PILOT:
        errors.append(f"tn.csv has {tn_rows} rows, expected {LONG_N - LONG_PILOT}")
    return errors


CHECKS = {"perm_interval": check_perm_interval, "panel_w2": check_panel, "long_estimate": check_long}


def artifact_hashes(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.suffix in (".csv", ".svg")
    }


def reference_work() -> float:
    """Seconds that one fixed piece of interpreter and NumPy work takes now.

    It uses nothing of heavytail, so no change to the program moves it.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    rng = np.random.default_rng(0)
    for size in (100_000, 100_000, 100_000, 100_000, 1_500_000):
        x = rng.standard_normal(size)
        np.cumsum(np.log1p(np.abs(np.sort(x))))
    return time.perf_counter() - t0


# ---------------------------------------------------------------- processes

class Child:
    """One finished CLI process: its resource use, exit code and sidecar."""

    def __init__(self, wall, usage, exit_code, sidecar, log):
        self.wall = wall
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.exit = exit_code
        self.sidecar = sidecar
        self.log = log

    @property
    def setup(self) -> float:
        return self.sidecar["setup_end"] - self.sidecar["spawn"]


def spawn(mode: str, workload: str, run: int, argv: list[str], deadline: float) -> Child:
    wdir = WORK / workload
    sidecar = wdir / f"{mode}{run}.json"
    log = wdir / f"{mode}{run}.log"
    env = dict(os.environ)
    with open(log, "wb") as fh:
        t0 = time.monotonic()
        env["PERFBENCH_SPAWN"] = repr(t0)
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(sidecar), mode, workload, str(run), "--", *argv],
            cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = None
    if proc.returncode == 0 and sidecar.exists():
        data = json.loads(sidecar.read_text(encoding="utf-8"))
    return Child(wall, usage, proc.returncode, data, log)


class Session:
    """The processes of one benchmark run, their failures and their outputs."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.out = WORK / workload / "out"
        self.argv = cli_args(workload, seed, self.out)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.hashes: dict[str, str] | None = None
        self.children: dict[str, list[Child]] = {"setup": [], "run": [], "trace": []}
        self.reference: list[float] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def probe(self, run: int, keep: bool = True) -> None:
        self.reference.append(reference_work())
        child = spawn("setup", self.workload, run, self.argv, self.deadline)
        if child.exit != 0 or child.sidecar is None:
            self.attempted += 1
            self._fail(f"set-up probe {run}: exit {child.exit}, see {child.log}")
        elif keep:
            self.attempted += 1
            self.children["setup"].append(child)

    def attempt(self, mode: str, run: int, argv: list[str] | None = None, timed: bool = True) -> float:
        """Run the CLI once, check its outputs; returns seconds spent."""
        t0 = time.monotonic()
        shutil.rmtree(self.out, ignore_errors=True)
        self.reference.append(reference_work())
        child = spawn(mode, self.workload, run, argv or self.argv, self.deadline)
        self.attempted += 1
        if child.exit != 0 or child.sidecar is None:
            self._fail(f"{mode} {run}: exit {child.exit}, see {child.log}")
            return time.monotonic() - t0
        try:
            errors = CHECKS[self.workload](self.out)
            hashes = artifact_hashes(self.out)
        except (OSError, KeyError, ValueError) as exc:
            errors, hashes = [f"unreadable output: {exc!r}"], {}
        if self.hashes is None:
            self.hashes = hashes
        elif hashes != self.hashes:
            errors.append("CSV/SVG bytes differ from the first repeat of this seed")
        if errors:
            self._fail(f"{mode} {run}: " + "; ".join(errors[:MAX_ERRORS]))
        elif timed:
            self.children[mode].append(child)
        return time.monotonic() - t0

    def loop(self, seconds: float) -> None:
        """Repeat MIN_REPEATS times (one untraced/traced pair when tracing),
        then until the next repeat would end after `seconds`."""
        modes = ("run", "trace") if self.trace else ("run",)
        minimum = 1 if self.trace else MIN_REPEATS
        begin = time.monotonic()
        run = 0
        while True:
            spent = sum(self.attempt(mode, run) for mode in modes)
            run += 1
            now = time.monotonic()
            if now + 2 * spent > self.deadline:
                break
            if run >= minimum and now - begin + spent > seconds:
                break
        if self.workload == "panel_w2":
            # Untimed: one worker must give the same bytes as two.
            self.attempt("run", run, cli_args(self.workload, self.seed, self.out, workers=1), timed=False)


# ---------------------------------------------------------------- metrics

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if not values:
        return (0.0, 0.0, 0.0)
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


# End-to-end times reported at reference speed (see the docstring).
AT_REFERENCE_SPEED = {"wall_s", "setup_s", "cpu_s"}


def end_to_end(session: Session) -> dict[str, list[float]]:
    runs = session.children["run"]
    return {
        "wall_s": [c.wall for c in runs],
        "setup_s": [c.setup for c in session.children["setup"] + runs],
        "cpu_s": [c.cpu for c in runs],
        "peak_rss_mb": [c.rss_mb for c in runs],
    }


def importtime_abelian() -> float:
    """Cumulative `python -X importtime` figure of heavytail.abelian, in s."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import heavytail.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        match = re.search(r"^import time:\s*\d+ \|\s*(\d+) \|\s*heavytail\.abelian$", proc.stderr, re.M)
        samples.append(int(match.group(1)) / 1e6 if match else 0.0)
    return statistics.median(samples)


def layer_of(metric: str) -> str | None:
    if metric == "experiments.parallelism":
        return "experiments.run_experiment"
    layer = metric.rsplit(".", 1)[0]
    return layer if layer in spans.LAYERS else None


def binding_check(workload: str, names: list[str], tables, absent: set[str]):
    """Layers the prediction table says matter here but that recorded no call."""
    predictions = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    unbound, missing = set(), set()
    for pred in predictions["predictions"]:
        if workload not in pred["on"]:
            continue
        for metric in pred["layer_metrics"]:
            layer = layer_of(metric)
            if metric not in names or layer is None:
                continue
            if layer in absent:
                missing.add(layer)
            elif any(t.calls(layer) == 0 for t in tables):
                unbound.add(layer)
    return sorted(unbound), sorted(missing)


def per_layer(session: Session, names: list[str]) -> tuple[dict[str, float], dict]:
    """Medians over the traced repeats, plus the binding check and accounting."""
    traced = session.children["trace"]
    untraced = [c.wall for c in session.children["run"]]
    untraced_wall = statistics.median(untraced) if untraced else 0.0
    tables = [spans.LayerTable(c.sidecar["spans"]) for c in traced]
    runs = []
    for child, table in zip(traced, tables):
        derived = {
            "setup.import_s": child.sidecar["import_end"] - child.sidecar["import_start"],
            "experiments.parallelism": table.parallelism,
            "trace.wall_s": child.wall,
            "trace.overhead_s": child.wall - untraced_wall,
            "trace.setup_s": child.setup,
            "trace.self_s": table.total_self_s,
            "trace.thread_overlap_s": table.thread_overlap_s,
            "trace.unaccounted_s": child.wall - child.setup - table.total_self_s + table.thread_overlap_s,
        }
        runs.append(derived | {n: table.value(*n.rsplit(".", 1)) for n in names if n not in derived})
    values = {key: statistics.median(r[key] for r in runs) for key in runs[0]} if runs else {}
    absent = set(traced[0].sidecar["absent"]) if traced else set(spans.LAYERS)
    unbound, missing = binding_check(session.workload, names, tables, absent)
    values.update({
        "setup.import.heavytail.abelian_s": importtime_abelian(),
        "binding.unbound": len(unbound),
        "binding.absent": len(missing),
    })
    accounting = {
        key: values.get(f"trace.{key}", 0.0)
        for key in ("wall_s", "setup_s", "self_s", "thread_overlap_s", "unaccounted_s")
    }
    binding = {"unbound": unbound, "absent": missing, "passed": not unbound}
    return {n: values.get(n, 0.0) for n in names}, {"binding": binding, "accounting": accounting}


# ---------------------------------------------------------------- reporting

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(session: Session) -> dict:
    done = [c for cs in session.children.values() for c in cs if c.sidecar]
    sc = done[0].sidecar if done else {}
    return {
        "git_commit": git_commit(),
        "kernel_backend": sc.get("kernel_backend"),
        "python": sc.get("python"),
        "numpy": sc.get("numpy"),
        "nproc": os.cpu_count(),
        "workers": WORKERS[session.workload],
        "csv_sha256": {k: v for k, v in (session.hashes or {}).items() if k.endswith(".csv")},
    }


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    bench = load_benchmark()
    shutil.rmtree(WORK / workload, ignore_errors=True)
    (WORK / workload).mkdir(parents=True)
    if workload == "long_estimate":
        write_long_input(seed)
    else:
        write_study_config(workload)
    session = Session(workload, seed, trace)
    session.probe(0, keep=False)  # compiles bytecode once; not measured
    if not trace:
        for run in range(1, SETUP_PROBES + 1):
            session.probe(run)
    session.loop(seconds)

    metric_defs = bench["per_layer"] if trace else bench["end_to_end"]
    names = [m["name"] for m in metric_defs]
    units = {m["name"]: m["unit"] for m in metric_defs}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if trace:
        values, detail = per_layer(session, names)
        record.update(detail)
    else:
        samples = end_to_end(session)
        speed = REFERENCE_S / statistics.median(session.reference)
        values = {
            name: statistics.median(samples[name]) * (speed if name in AT_REFERENCE_SPEED else 1.0)
            if samples[name] else 0.0
            for name in names
        }
        record["samples"] = samples
        record["reference_s"] = session.reference
        record["speed"] = speed
    error_rate = session.failed / session.attempted if session.attempted else 1.0
    record.update({
        "environment": environment(session),
        "metrics": values,
        "units": units,
        "attempted": session.attempted,
        "failed": session.failed,
        "error_rate": error_rate,
        "errors": session.errors,
    })
    print_record(record)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


def print_record(record: dict) -> None:
    wl = record["workload"]
    kind = "traced" if record["trace"] else "untraced"
    print(f"== {wl} ({kind}, seed {record['seed']}, {record['environment']['workers']} worker(s))")
    if record["trace"]:
        for name, value in record["metrics"].items():
            layer = layer_of(name)
            note = "  absent" if layer in record["binding"]["absent"] else ""
            print(f"  {name:42s} {value:>14.6g} {record['units'][name]}{note}")
        acc = record["accounting"]
        print(
            f"  accounting: traced wall {acc['wall_s']:.3f} s = set-up {acc['setup_s']:.3f} s"
            f" + self times {acc['self_s']:.3f} s - thread overlap {acc['thread_overlap_s']:.3f} s"
            f" + unaccounted {acc['unaccounted_s']:.3f} s"
        )
        b = record["binding"]
        print(f"  binding check: {'pass' if b['passed'] else 'FAIL'}; unbound {b['unbound']}, absent {b['absent']}")
    else:
        print(f"  host speed: reference work took {statistics.median(record['reference_s']):.4f} s"
              f" (median of {len(record['reference_s'])}), {REFERENCE_S} s at reference speed;"
              f" times below are scaled by {record['speed']:.4f}")
        print(f"  {'metric':12s} {'value':>10s}   {'raw q1':>10s} {'raw median':>10s} {'raw q3':>10s} {'n':>3s}  unit")
        for name, value in record["metrics"].items():
            q1, med, q3 = quartiles(record["samples"][name])
            n = len(record["samples"][name])
            print(f"  {name:12s} {value:10.4f}   {q1:10.4f} {med:10.4f} {q3:10.4f} {n:3d}  {record['units'][name]}")
    print(f"  error_rate {record['error_rate']:.4f} ratio ({record['failed']} of {record['attempted']} runs failed)")
    for err in record["errors"][:MAX_ERRORS]:
        print(f"  error: {err}")
    print(f"  environment: {json.dumps(record['environment'], sort_keys=True)}")


def run_all(seed: int, seconds: float, save: Path | None) -> int:
    workloads = {}
    env = None
    ok = True
    for workload in WORKERS:
        entry = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} trace {trace}: benchmark exited {proc.returncode}", file=sys.stderr)
                return 1
            record = json.loads(
                (WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8")
            )
            ok = ok and record["failed"] == 0
            env = env or {k: v for k, v in record["environment"].items() if k not in ("workers", "csv_sha256")}
            key = "per_layer" if trace else "end_to_end"
            entry[key] = record["metrics"]
            entry.setdefault("units", {}).update(record["units"])
            if trace:
                entry["binding"] = record["binding"]
                entry["accounting"] = record["accounting"]
            else:
                entry["samples"] = record["samples"]
                entry["speed"] = record["speed"]
                entry["error_rate"] = record["error_rate"]
                entry["workers"] = record["environment"]["workers"]
                entry["csv_sha256"] = record["environment"]["csv_sha256"]
        workloads[workload] = entry

    bench = load_benchmark()
    print(f"== summary, seed {seed}: medians of each run, times at reference speed")
    print(f"  {'workload':14s}" + "".join(f"{m['name'] + ' (' + m['unit'] + ')':>18s}" for m in bench["end_to_end"]) + f"{'error_rate (ratio)':>20s}")
    for workload, entry in workloads.items():
        cells = "".join(f"{entry['end_to_end'][m['name']]:18.4f}" for m in bench["end_to_end"])
        print(f"  {workload:14s}{cells}{entry['error_rate']:20.4f}")
    result = {"environment": env, "seed": seed, "seconds": seconds, "workloads": workloads}
    if save is not None:
        save.parent.mkdir(parents=True, exist_ok=True)
        save.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"saved {save}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKERS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, default=None, help="result-set file (--workload all)")
    args = parser.parse_args()
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "heavytail" / "cli.py",
              ROOT / "configs" / "fig5.yaml", ROOT / "configs" / "fig6.yaml"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a heavytail checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.save)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
