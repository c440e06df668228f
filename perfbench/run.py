#!/usr/bin/env python3
"""The hyplat benchmark: seeded verdict workloads driven through the CLI.

Usage (from the root of a hyplat source checkout)::

    python3 perfbench/run.py --workload coxeter-catalog --seed 1 --seconds 34 --trace 0

One process acts as a single closed-loop client: it calls
``hyplat.cli.main(argv + ["--json", "-"])`` once per generated input, times
each call, and checks every verdict against the float oracles of
``oracle.py``.  ``setup_s`` is the median wall time of fresh interpreters
running the workload's warm-up command, one after each equal slice of the
timed loop.  Every time is scaled to a fixed reference speed of the host,
measured by the kernel of ``hostspeed.py`` timed through the run.  With ``--trace 1`` the run instead times one pass with the
layer wrappers of ``tracing.py`` installed and an equal, schedule-aligned
pass without them, and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402

COLD_STARTS = 8
MIN_TIMED = 100  # so that at least 10 timed inputs lie beyond verdict_p90_ms
DEFAULT_SEED = 0
DIGEST_DIR = HERE / "digests"
DIGEST_CASES = 300  # digests are recorded for the default seed's first cases
# Share of --seconds spent on the traced half of a traced run; the untraced
# half then times the same number of inputs.
TRACE_SHARE = 0.4


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    if not (SRC / "hyplat" / "cli.py").is_file():
        die(f"no hyplat source tree under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    from hyplat import cli

    if Path(cli.__file__).resolve().parent != SRC / "hyplat":
        die(f"imported hyplat from {cli.__file__}, not from {SRC}")
    return cli


def write_files(files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = ROOT / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


class Outcome:
    """What the metrics need of one judged input.  The input itself is not
    kept, so that memory does not grow with the inputs' payloads."""

    __slots__ = ("id", "argv", "seconds", "failure", "mismatch", "decided", "digest")

    def __init__(self, case, seconds):
        self.id, self.seconds = case.id, seconds
        self.argv = self.failure = self.digest = None
        self.mismatch = False
        self.decided = False


def call(cli, argv: list[str]):
    """One timed CLI call: (seconds, stdout, error text or None)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failure to report, not to stop on
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    if error is None and code != 0:
        error = f"exit {code}: {err.getvalue().strip()[:200]}"
    return seconds, out.getvalue(), error


def judge(stream, case, seconds, stdout, error, digests) -> Outcome:
    o = Outcome(case, seconds)
    if error is not None:
        o.failure = error
        return o
    # The canonical report follows the human-readable lines and opens with
    # the only line that is a lone "{".
    lines = stdout.split("\n")
    if "{" not in lines:
        o.failure = "no JSON report on stdout"
        return o
    blob = "\n".join(lines[lines.index("{"):])
    o.digest = hashlib.sha256(blob.encode()).hexdigest()
    report = json.loads(blob)
    problems = stream.check(case, report)
    if problems:
        o.mismatch = True
        o.failure = "oracle mismatch: " + "; ".join(problems)
        return o
    if digests is not None and case.id in digests and digests[case.id] != o.digest:
        o.failure = "canonical JSON differs from the digest recorded for the default seed"
        return o
    o.decided = workloads.headline(case, report) not in workloads.UNDECIDED
    return o


def run_cases(cli, stream, budget: float, digests, count: int | None = None,
              tracer: Tracer | None = None, speed: HostSpeed | None = None) -> list[Outcome]:
    """Decide inputs until their summed latency reaches ``budget`` seconds
    (or ``count`` inputs).  Generation, file writes, checks and kernel
    timings are untimed."""
    outcomes: list[Outcome] = []
    spent = 0.0
    while (spent < budget) if count is None else (len(outcomes) < count):
        (case,) = stream.take(1)
        if tracer is not None:
            tracer.input_id = case.id
        write_files(case.files)
        gc.collect()
        seconds, stdout, error = call(cli, case.argv + ["--json", "-"])
        outcome = judge(stream, case, seconds, stdout, error, digests)
        if outcome.failure:
            outcome.argv = case.argv
        outcomes.append(outcome)
        spent += seconds
        if speed is not None:
            speed.after(seconds)
    return outcomes


def decide_known_defects(cli, stream) -> list[Outcome]:
    """Decide, once and untimed, each input that fails for a known defect.
    They stay out of the timed inputs and of ``attempted``/``failed``, but a
    wrong verdict from them still makes ``correct`` false."""
    outcomes = []
    for case in stream.known_defects:
        write_files(case.files)
        outcome = judge(stream, case, *call(cli, case.argv + ["--json", "-"]), None)
        outcome.argv = case.argv
        outcomes.append(outcome)
    return outcomes


def cold_start_seconds(warmup: list[str]) -> float:
    """Wall time of a fresh interpreter running the warm-up command."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "hyplat.cli", *warmup, "--json", "-"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        die(f"warm-up command failed: {proc.stderr.strip()[-300:]}")
    return elapsed


def load_digests(workload: str, seed: int):
    path = DIGEST_DIR / f"{workload}.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return None
    return json.loads(path.read_text())


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(outcomes: list[Outcome], setup: list[float],
               factor: float) -> dict[str, tuple[float, str, int]]:
    """The end-to-end metrics, every time multiplied by the host-speed factor."""
    lat = [o.seconds * factor for o in outcomes]
    n = len(outcomes)
    return {
        "setup_s": (statistics.median(setup) * factor, "s", len(setup)),
        "verdicts_per_s": (n / sum(lat), "1/s", n),
        "verdict_p50_ms": (statistics.median(lat) * 1e3, "ms", n),
        "verdict_p90_ms": (p90(lat) * 1e3, "ms", n),
        "decided_ratio": (sum(o.decided for o in outcomes) / n, "ratio", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def report(workload, seed, outcomes, metrics, known, speed) -> None:
    failed = [o for o in outcomes if o.failure]
    print(f"workload {workload} seed {seed}: {len(outcomes)} inputs, "
          f"{len(failed)} failed (failed_ratio {len(failed) / len(outcomes):.4f})")
    if speed is not None:
        print(f"  host speed: kernel mean {statistics.fmean(speed.samples) * 1e3:.4f} ms over "
              f"{len(speed.samples)} timings, reference {REFERENCE_S * 1e3:.4f} ms; times below "
              f"are measured times x {speed.factor:.4f}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit:6s} n={samples}")
    for o in failed:
        print(f"  FAILED {o.id} {' '.join(o.argv)}: {o.failure}")
    for o in known:
        print(f"  KNOWN DEFECT {o.id} {' '.join(o.argv)}: {o.failure or 'now passes'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help=f"write the default seed's report digests to {DIGEST_DIR.name}/")
    args = ap.parse_args(argv)

    cli = import_cli()
    os.chdir(ROOT)  # report path tokens are relative to the checkout root
    stream = workloads.WORKLOADS[args.workload](args.seed)
    write_files(stream.shared_files)
    digests = None if args.record_digests else load_digests(args.workload, args.seed)

    # Warm-up: imports, lazy field construction and the lazy sympy import.
    _, _, error = call(cli, stream.warmup + ["--json", "-"])
    if error is not None:
        die(f"warm-up input failed: {error}")
    known = decide_known_defects(cli, stream)
    # Objects that live for the whole run (modules, sympy, caches) leave the
    # collector's view, so the collection before each timed call stays short.
    gc.collect()
    gc.freeze()

    if args.trace:
        # The traced half comes first, so that it holds the stream's fixed
        # early inputs (the bundled figures, the pinned pairs); the untraced
        # half repeats its count on the next inputs.
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_cases(cli, stream, args.seconds * TRACE_SHARE, digests, tracer=tracer)
            extra = (-len(traced)) % len(stream.schedule)  # whole schedule blocks
            traced += run_cases(cli, stream, math.inf, digests, count=extra, tracer=tracer)
        finally:
            tracer.uninstall()
        base = run_cases(cli, stream, math.inf, digests, count=len(traced))
        trace_dir = ROOT / stream.dir
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(trace_dir / "spans.jsonl")
        outcomes = base + traced
        overhead = sum(o.seconds for o in traced) / sum(o.seconds for o in base)
        metrics = {name: (value, unit, len(traced))
                   for name, (value, unit) in tracer.metrics(len(traced), overhead).items()}
        speed = None
    else:
        # One cold start after each slice of the timed loop, so that their
        # median sees the same stretch of host speed as the timed inputs.
        outcomes, setup, speed = [], [], HostSpeed()
        for _ in range(COLD_STARTS):
            outcomes += run_cases(cli, stream, args.seconds / COLD_STARTS, digests, speed=speed)
            speed.sample()
            setup.append(cold_start_seconds(stream.warmup))
            speed.sample()
        if len(outcomes) < MIN_TIMED:
            outcomes += run_cases(cli, stream, math.inf, digests, count=MIN_TIMED - len(outcomes),
                                  speed=speed)
        metrics = end_to_end(outcomes, setup, speed.factor)

    if args.record_digests:
        recorded = {o.id: o.digest for o in outcomes[:DIGEST_CASES]
                    if o.digest and not o.failure}
        DIGEST_DIR.mkdir(exist_ok=True)
        (DIGEST_DIR / f"{args.workload}.json").write_text(
            json.dumps(recorded, indent=0, sort_keys=True) + "\n")

    report(args.workload, args.seed, outcomes, metrics, known, speed)
    result = {
        "correct": not any(o.mismatch for o in outcomes + known),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.failure),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
