"""Byte-for-byte golden reports for the bundled inputs.

Each file under ``tests/golden/`` is the canonical ``--json`` report of one
command on one bundled input.  Any change to a verdict, a certificate or the
report layout shows up here as a diff.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from hyplat.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FIGURES = sorted(p.stem for p in (GOLDEN / "coxeter_analyze").glob("*.json"))


def test_every_bundled_figure_has_a_golden_report():
    from hyplat.resources import bundled_path

    assert FIGURES == sorted(p.stem for p in bundled_path("figures").glob("*.cox"))


@pytest.mark.parametrize("figure", FIGURES)
def test_coxeter_analyze_report_matches_golden(figure, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["coxeter", "analyze", f"figures/{figure}.cox", "--json", str(out)]) == 0
    capsys.readouterr()
    expected = (GOLDEN / "coxeter_analyze" / f"{figure}.json").read_bytes()
    assert out.read_bytes() == expected
