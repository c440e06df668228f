#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json once and print one table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each row is a metric with its value, unit and sample count; ``failed_ratio``
(failed over attempted inputs) is added to the end-to-end rows, followed by
every failed input and every known-defect input.  Each
workload runs in its own process, exactly as ``run.py`` is invoked alone.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    ok = True
    for workload in bench["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: run failed\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        samples = dict(re.findall(r"^\s+(\S+)\s.*\sn=(\d+)$", "\n".join(lines), re.M))
        print(f"== {name} (seed {args.seed}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:44s} {m['value']:14.6g} {m['unit']:6s} n={samples.get(metric, '?')}")
        if not args.trace:
            ratio = result["failed"] / result["attempted"]
            print(f"  {'failed_ratio':44s} {ratio:14.6g} {'ratio':6s} n={result['attempted']}")
        for line in lines:
            if line.strip().startswith(("FAILED", "KNOWN DEFECT")):
                print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
