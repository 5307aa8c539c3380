"""One heavytail CLI process, as launched by perfbench/run.py.

    python3 perfbench/child.py SIDECAR MODE WORKLOAD RUN -- CLI-ARGS...

MODE is ``setup`` (import and parse, then exit), ``run`` or ``trace``
(also record spans of every wrapped layer). The parent passes the moment
it spawned this process in PERFBENCH_SPAWN (CLOCK_MONOTONIC seconds, which
all processes share); the sidecar JSON file gets the set-up timestamps,
the kernel backend and, when tracing, the spans.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sidecar, mode, workload, run, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("setup", "run", "trace"):
        raise SystemExit(f"usage: {sys.argv[0]} SIDECAR setup|run|trace WORKLOAD RUN -- ARGS")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import_start = time.monotonic()
    import heavytail.cli as cli

    import_end = time.monotonic()
    args = cli.build_parser().parse_args(argv)
    if args.command == "simulate":
        cli.experiments.load_config(args.config)
    setup_end = time.monotonic()

    record = {
        "spawn": float(os.environ["PERFBENCH_SPAWN"]),
        "import_start": import_start,
        "import_end": import_end,
        "setup_end": setup_end,
        "exit": 0,
    }
    recorder = None
    if mode == "trace":
        import spans

        recorder = spans.Recorder(workload, int(run))
        recorder.install()
    if mode != "setup":
        record["exit"] = cli.main(argv)

    import heavytail
    import numpy

    backend = getattr(heavytail, "kernel_backend", None)
    record["kernel_backend"] = backend() if backend is not None else None
    record["numpy"] = numpy.__version__
    record["python"] = sys.version.split()[0]
    if recorder is not None:
        record["spans"] = recorder.spans
        record["absent"] = recorder.absent
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record["exit"]


if __name__ == "__main__":
    sys.exit(main())
