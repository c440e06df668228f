"""Every script under ``scripts/`` runs to completion.

The scripts call the library's public API directly, and nothing else runs
them, so a deleted or renamed name would break them silently.  Each one
runs in a fresh interpreter with ``src`` on the path and must exit 0 with
some output.  Scripts with a golden under ``tests/golden/scripts`` must
print it byte for byte, also under ``python -O``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "scripts"


def _run(script, *flags):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, *flags, str(script)],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_there_are_scripts():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["default", "O"])
@pytest.mark.parametrize(
    "golden", sorted(GOLDEN.glob("*.txt")), ids=lambda p: p.name
)
def test_script_matches_golden(golden, flags):
    proc = _run(ROOT / "scripts" / f"{golden.stem}.py", *flags)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden.read_text()
