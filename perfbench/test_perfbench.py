"""Self-tests of the benchmark.  Run from the checkout root with

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(name: str, seed: int, n: int):
    stream = workloads.WORKLOADS[name](seed)
    return stream.shared_files, [(c.argv, c.files) for c in stream.take(n)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    first = _inputs(name, 7, 25)
    assert first == _inputs(name, 7, 25)
    assert first != _inputs(name, 8, 25)
    argvs = [" ".join(argv) + "".join(files.values()) for argv, files in first[1]]
    assert len(set(argvs)) == len(argvs), "an input repeats within the stream"


def test_oracle_agrees_with_pinned_figures():
    for name, verdict, dim, volume in workloads.FIGURES:
        text = (ROOT / "src/hyplat/data/figures" / f"{name}.cox").read_text()
        rank, edges = None, []
        for line in text.splitlines():
            parts = line.split("#")[0].split()
            if parts[:1] == ["vertices"]:
                rank = int(parts[1])
            elif parts[:1] == ["edge"]:
                m = parts[3] if parts[3] == "inf" else int(parts[3])
                edges.append((int(parts[1]), int(parts[2]), m))
        expected = oracle.coxeter_expected(rank, edges)
        assert (expected["kind"], expected["dim"]) == ("Hyperbolic", dim), name
        assert expected["arithmeticity"]["verdict"] == verdict, name
        assert expected["splittability"]["status"] == "UnsplittableCertified", name
        assert volume is None or expected["volume"] == volume, name


def test_oracle_agrees_with_pinned_pairs():
    # diag(1,1,1,-1) vs diag(1,1,1,-2): discriminant classes -1 and -2 differ
    # in even dimension; diag(2,2,2,-2) is the first form scaled by 2.
    (_, not_comm), (_, comm) = workloads.PINNED_PAIRS
    assert not_comm == "NotCommensurable" and comm == "Commensurable"
    assert oracle.squarefree(-1) != oracle.squarefree(-2)
    e = {"status": comm, "mu": Fraction(2), "odd": False}
    assert workloads.check_rational_verdict(e, {"status": comm, "lambda": "2"}) == []
    assert workloads.check_rational_verdict(e, {"status": not_comm, "lambda": None})


def test_run_cases_with_count_zero_returns_at_once(monkeypatch):
    cli = run.import_cli()
    monkeypatch.chdir(ROOT)
    stream = workloads.CoxeterCatalog(3)
    assert run.run_cases(cli, stream, math.inf, None, count=0) == []
    assert stream.index == 0


def test_outcomes_keep_no_input_payload(monkeypatch):
    cli = run.import_cli()
    monkeypatch.chdir(ROOT)
    stream = workloads.RationalForms(0)
    run.write_files(stream.shared_files)
    outcomes = run.run_cases(cli, stream, math.inf, None, count=4)
    assert all(not hasattr(o, "case") for o in outcomes)
    # Only failed inputs keep their argv, for the report.
    assert all(o.argv is None and o.failure is None for o in outcomes)


def test_known_defect_is_decided_outside_the_timed_inputs(monkeypatch):
    cli = run.import_cli()
    monkeypatch.chdir(ROOT)
    stream = workloads.RationalForms(0)
    assert all(workloads.REPRODUCER != c.argv for c in stream.take(60))
    (known,) = run.decide_known_defects(cli, stream)
    assert known.argv == workloads.REPRODUCER and not known.mismatch
    # ROADMAP item 5: still a traceback at this commit.
    assert known.failure and "1000000000000000003" in known.failure


def test_host_speed_samples_after_every_stretch_of_latency():
    speed = hostspeed.HostSpeed()
    for _ in range(10):
        speed.after(hostspeed.EVERY / 4)
    assert len(speed.samples) == 2
    speed.after(hostspeed.EVERY * 3.6)
    assert len(speed.samples) == 6
    speed.samples = [1e-3, 2e-3, 6e-3]
    assert speed.factor == pytest.approx(hostspeed.REFERENCE_S / 3e-3)
    assert hostspeed.kernel() == hostspeed.kernel()


def _function_objects():
    objects = {}
    for name, module in list(sys.modules.items()):
        if name == "hyplat" or name.startswith("hyplat."):
            for attr, value in vars(module).items():
                objects[name, attr] = value
                if isinstance(value, type):
                    for key, member in vars(value).items():
                        objects[name, f"{attr}.{key}"] = member
    return objects


def test_tracing_off_leaves_hyplat_untouched(monkeypatch):
    cli = run.import_cli()
    monkeypatch.chdir(ROOT)
    stream = workloads.RationalForms(11)
    run.write_files(stream.shared_files)
    before = _function_objects()
    outcomes = run.run_cases(cli, stream, 0.0, None, count=12)
    assert all(not o.mismatch for o in outcomes)
    after = _function_objects()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)

    import hyplat.cli
    import hyplat.coxeter
    import hyplat.hybrid
    import hyplat.quadform

    tracer = Tracer()
    tracer.install()
    try:
        for module, attr in [(hyplat.quadform, "is_square"), (hyplat.hybrid, "is_square"),
                             (hyplat.coxeter, "signature_at"),
                             (hyplat.cli, "vinberg_arithmeticity")]:
            assert hasattr(getattr(module, attr), "__wrapped__"), (module.__name__, attr)
        run.run_cases(cli, stream, 0.0, None, count=12, tracer=tracer)
    finally:
        tracer.uninstall()
    restored = _function_objects()
    assert all(before[k] is restored[k] for k in before)
    assert tracer.calls["cli.main"] == 12


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_run_prints_every_metric_with_its_unit(name, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(run.DEFAULT_SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= (1 if trace else run.MIN_TIMED)
    want = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for metric, unit in want.items():
        assert any(line.split()[:1] == [metric] and unit in line and "n=" in line
                   for line in lines[:-1]), metric
    assert result["failed"] == 0
    assert not [line for line in lines if line.strip().startswith("FAILED")]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rational-forms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
