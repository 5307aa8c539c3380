#!/usr/bin/env python3
"""Compare two result sets saved by ``perfbench/run.py --workload all --save FILE``.

    python3 perfbench/compare.py OLD.json NEW.json

Prints, for each workload, every end-to-end metric on both sides, the
change as a share of the old value, and whether it is worse by more than
the bound fixed in BENCHMARK.json; the per-layer metrics follow without a
verdict. Exits 1 when some metric is worse than its bound, and refuses
(exit 2) to compare result sets whose kernel backends differ. One result
set holds one run per workload, so a single comparison shows where to look;
it is not enough to claim a gain.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    old = json.loads(args.old.read_text(encoding="utf-8"))
    new = json.loads(args.new.read_text(encoding="utf-8"))
    backends = (old["environment"]["kernel_backend"], new["environment"]["kernel_backend"])
    if backends[0] != backends[1]:
        print(f"refusing to compare: kernel backend {backends[0]!r} vs {backends[1]!r}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"old {old['environment']['git_commit']}  new {new['environment']['git_commit']}  backend {backends[0]}")
    regressions = 0
    for workload in old["workloads"]:
        if workload not in new["workloads"]:
            print(f"== {workload}: missing from {args.new}")
            continue
        o, n = old["workloads"][workload], new["workloads"][workload]
        print(f"== {workload}")
        for m in bench["end_to_end"]:
            name = m["name"]
            if name not in o["end_to_end"] or name not in n["end_to_end"]:
                continue
            before, after = o["end_to_end"][name], n["end_to_end"][name]
            change = (after - before) / before
            worse = change if m["better"] == "lower" else -change
            verdict = "WORSE than bound" if worse > m["bound"] else "within bound"
            regressions += worse > m["bound"]
            print(f"  {name:40s} {before:14.6g} {after:14.6g} {change:+8.1%}  {m['unit']:6s} "
                  f"bound {m['bound']:.0%}: {verdict}")
        for m in bench["per_layer"]:
            before = o.get("per_layer", {}).get(m["name"])
            after = n.get("per_layer", {}).get(m["name"])
            if before is not None and after is not None:
                print(f"  {m['name']:40s} {before:14.6g} {after:14.6g}  {m['unit']}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
