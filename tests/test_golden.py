"""Byte-for-byte golden reports of the command line.

Each file under ``tests/golden/`` is the canonical ``--json`` report of one
command on one input: ``coxeter analyze`` on the bundled figures and on
three catalog diagrams (a cycle field of degree 4, one of degree 8, and a
non-simplex with splitting candidates); ``hybrid verify``, ``hybrid angle``,
``form check`` and ``form commensurable`` on the complexes and forms in
``tests/golden/inputs/`` over Q(sqrt 2), Q(sqrt 5), x^3 - 3x + 1 and
x^4 - 14x^2 + 9, and ``form commensurable`` on inline diagonal forms over
Q; and ``links compose`` on an inline sum and on a script.  Among them: two
``form commensurable`` pairs whose witness lambda != 1 comes after an
earlier candidate fails, an odd-dimension ``hybrid verify`` similar by
lambda = 3, and ``hybrid angle`` on full Gram matrices with zero
coordinates in e and in Z.
Any change to a verdict, a certificate or the report layout shows up here
as a diff.  The ``coxeter analyze`` reports are also compared in process
with ``MultiquadraticField.galois_action`` disabled: cycle fields come from
monomial supports alone.  The last tests run the CLI in a fresh
interpreter: under ``python -O`` (the only run of the other reports, and a
merged multi-figure ``coxeter analyze`` report), and to see which modules
it loads.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hyplat.algebra.multiquadratic import MultiquadraticField
from hyplat.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FIGURES = sorted(p.stem for p in (GOLDEN / "coxeter_analyze").glob("*.json"))
INPUTS = GOLDEN / "inputs"
COMPLEXES = sorted(p.stem for p in INPUTS.glob("*.cpx"))
# form commensurable: golden name -> (left form, right form)
FORM_PAIRS = {
    "sqrt2_scaled": ("sqrt2_a", "sqrt2_b"),
    "sqrt2_discriminant": ("sqrt2_a", "sqrt2_c"),
    "sqrt2_shifted": ("sqrt2_a", "sqrt2_shifted"),
    "sqrt2_shifted_e1": ("sqrt2_a", "sqrt2_shifted_e1"),
    "sqrt5_scaled": ("sqrt5_a", "sqrt5_b"),
    "sqrt5_golden": ("sqrt5_a", "sqrt5_golden"),
    "sqrt5_golden_b": ("sqrt5_a", "sqrt5_golden_b"),
    "cubic_scaled": ("cubic_a", "cubic_b"),
    "cubic_discriminant": ("cubic_a", "cubic_c"),
    "quartic_scaled": ("quartic_a", "quartic_b"),
    "quartic_discriminant": ("quartic_a", "quartic_c"),
    "cubic_late_witness": ("cubic_late_a", "cubic_late_b"),
    "quartic_late_witness": ("quartic_late_a", "quartic_late_b"),
}
# form commensurable over Q: golden name -> (left, right) inline diagonal forms.
# The big_scaled pairs carry entries that are products of two primes in
# (10^5, 1.5*10^5); auxiliary_prime is similar only by lambda = 33, whose
# prime 3 divides no entry; local_square has its Hasse defect at p = 3, where
# c = -23 is a square; the pinned pairs are acceptance criterion 2(d).
RATIONAL_PAIRS = {
    "rational_big_scaled_dim3": ("diag(20004400114,12482699051,-3)",
                                 "diag(-30,50011000285,62413495255/2)"),
    "rational_big_scaled_dim5": ("diag(22488301457,7,37458823449,2,-1)",
                                 "diag(3/2,112376470347,-3/4,67464904371/4,21)"),
    "rational_discriminant": ("diag(6,10,15,-11)", "diag(3,5,7,-11)"),
    "rational_auxiliary_prime": ("diag(13,22,22,-17)", "diag(14,26,17,-28)"),
    "rational_local_square": ("diag(16,21,23,-21)", "diag(3,27,4,-23)"),
    "rational_odd_forced": ("diag(1,1,-1)", "diag(1,1,-7)"),
    "rational_pinned_discriminant": ("diag(1,1,1,-1)", "diag(1,1,1,-2)"),
    "rational_pinned_scaled": ("diag(1,1,1,-1)", "diag(2,2,2,-2)"),
}
FORMS = sorted(p.stem for p in INPUTS.glob("*.form"))
# hybrid angle: golden name -> (form, line e, subspace Z)
ANGLES = {
    "cubic_plane": ("cubic_a", "1,0,0,1", "1,0,0,0;0,1,0,0"),
    "cubic_hyperplane": ("cubic_a", "t,1,0,1", "1,0,0,0;0,1,0,0;0,0,1,0"),
    "quartic_plane": ("quartic_a", "1,0,0,1", "1,0,0,0;0,1,0,0"),
    "quartic_hyperplane": ("quartic_a", "t,1,0,1", "1,0,0,0;0,1,0,0;0,0,1,0"),
    "cubic_full_gram": ("cubic_gram", "1,0,t,0", "0,1,0,0;0,0,1,t"),
    "sqrt2_full_gram": ("sqrt2_gram", "0,1,0,t", "1,0,0,0;0,0,1,1"),
}
CATALOG = sorted(p.stem for p in INPUTS.glob("*.cox"))
# links compose: golden name -> inline sum or script file
LINKS = {"chain5_whitehead_chain3": "chain5+whitehead+chain3", "belted_script": "belted.lcs"}
# golden file (relative to GOLDEN) -> argv, run from INPUTS
CASES = {
    **{f"coxeter_analyze/{f}.json": ["coxeter", "analyze", f"figures/{f}.cox"]
       for f in FIGURES},
    **{f"coxeter_catalog/{f}.json": ["coxeter", "analyze", f"{f}.cox"] for f in CATALOG},
    **{f"links_compose/{name}.json": ["links", "compose", token]
       for name, token in LINKS.items()},
    **{f"hybrid_verify/{c}.json": ["hybrid", "verify", f"{c}.cpx"] for c in COMPLEXES},
    **{f"form_commensurable/{name}.json": ["form", "commensurable", f"{a}.form", f"{b}.form"]
       for name, (a, b) in FORM_PAIRS.items()},
    **{f"form_commensurable/{name}.json": ["form", "commensurable", a, b]
       for name, (a, b) in RATIONAL_PAIRS.items()},
    **{f"form_check/{f}.json": ["form", "check", f"{f}.form"] for f in FORMS},
    **{f"hybrid_angle/{name}.json": ["hybrid", "angle", f"{form}.form", "--e", e, "--z", z]
       for name, (form, e, z) in ANGLES.items()},
}
# Compared file by file under python -O; the figures go through one merged run.
PER_FILE_CASES = sorted(c for c in CASES if not c.startswith("coxeter_analyze/"))


def test_every_bundled_figure_has_a_golden_report():
    from hyplat.resources import bundled_path

    assert FIGURES == sorted(p.stem for p in bundled_path("figures").glob("*.cox"))


@pytest.fixture
def no_galois_action(monkeypatch):
    """The coxeter path reads cycle fields from supports, never from the
    automorphisms themselves."""
    def refuse(self, j, a):
        raise AssertionError("galois_action called on the coxeter path")

    monkeypatch.setattr(MultiquadraticField, "galois_action", refuse)


def _compare_in_process(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(INPUTS)
    out = tmp_path / "report.json"
    assert main([*CASES[name], "--json", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.usefixtures("no_galois_action")
@pytest.mark.parametrize("figure", FIGURES)
def test_coxeter_analyze_report_matches_golden(figure, tmp_path, monkeypatch, capsys):
    _compare_in_process(f"coxeter_analyze/{figure}.json", tmp_path, monkeypatch, capsys)


@pytest.mark.usefixtures("no_galois_action")
@pytest.mark.parametrize("diagram", CATALOG)
def test_coxeter_catalog_report_matches_golden(diagram, tmp_path, monkeypatch, capsys):
    _compare_in_process(f"coxeter_catalog/{diagram}.json", tmp_path, monkeypatch, capsys)


def test_every_golden_input_is_used():
    used = {a for pair in FORM_PAIRS.values() for a in pair}
    used |= {form for form, _, _ in ANGLES.values()}
    assert used == {p.stem for p in INPUTS.glob("*.form")}
    arguments = {a for argv in CASES.values() for a in argv}
    assert {p.name for p in INPUTS.glob("*.*") if p.suffix != ".form"} <= arguments
    assert sorted(CASES) == sorted(
        str(p.relative_to(GOLDEN)) for p in GOLDEN.glob("*/*.json"))


def _run_cli_subprocess(*args: str) -> str:
    """stdout of ``python <args>`` in a fresh interpreter that imports this
    checkout's hyplat."""
    import hyplat

    src = str(Path(hyplat.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_goldens_hold_under_python_O(tmp_path):
    """``python -O`` strips asserts; every certificate check must survive it.

    Every report but the figures' is compared file by file; the figures go
    through ``python -O -m hyplat.cli`` in one call that writes one report
    to stdout, which must be the per-figure goldens with ``inputs`` merged
    and ``results`` concatenated in input order.
    """
    out = _run_cli_subprocess(
        "-O", "-c",
        "import os\nfrom hyplat.cli import main\n"
        f"os.chdir({str(INPUTS)!r})\n"
        f"cases = {[(name, CASES[name]) for name in PER_FILE_CASES]!r}\n"
        "print([main([*argv, '--json', os.path.join("
        f"{str(tmp_path)!r}, name.replace('/', '_'))]) for name, argv in cases])",
    )
    assert out.splitlines()[-1] == str([0] * len(PER_FILE_CASES))
    for name in PER_FILE_CASES:
        got = (tmp_path / name.replace("/", "_")).read_bytes()
        assert got == (GOLDEN / name).read_bytes(), name

    out = _run_cli_subprocess(
        "-O", "-m", "hyplat.cli", "coxeter", "analyze", "--json", "-",
        *(f"figures/{figure}.cox" for figure in FIGURES),
    )
    lines = out.split("\n")
    blob = "\n".join(lines[lines.index("{"):])
    reports = [json.loads((GOLDEN / "coxeter_analyze" / f"{figure}.json").read_text())
               for figure in FIGURES]
    expected = dict(reports[0], inputs={}, results=[])
    for report in reports:
        expected["inputs"].update(report["inputs"])
        expected["results"] += report["results"]
    assert blob == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_cli_never_imports_sympy(tmp_path):
    """Every verdict path, irreducibility of quartic ``field`` lines
    included, is the package's own code: sympy is a test-time oracle."""
    complex_file = tmp_path / "pair.cplx"
    complex_file.write_text(
        "field 1 0 -2\npattern gps\nshared diag 1 1 [1,1]\n"
        "block N1 alpha 1\nblock N2 alpha 3\nglue N1 N2\n"
    )
    quartic_complex = tmp_path / "quartic.cplx"  # the field-gluings warm-up
    quartic_complex.write_text(
        "field 1 0 -14 0 9\nembedding 0\npattern gps\nshared diag [1] [1] [1,1]\n"
        "block N1 alpha 1\nblock N2 alpha 3\nglue N1 N2\n"
    )
    quartic_form = tmp_path / "quartic.form"
    quartic_form.write_text("field 1 0 -10 0 1\ndiag 1 1 1 1+t\n")
    commands = [
        ["form", "check", "diag(1,1,1,-1)", "diag(2,3,5,-7)"],
        ["form", "check", str(quartic_form)],
        ["form", "commensurable", "diag(1,1,1,-1)", "diag(1,1,3,-3)"],
        ["form", "commensurable", "diag(1,1,1,-1)", "diag(1,1,1,-1000000000000000003)"],
        ["hybrid", "verify", str(complex_file)],
        ["hybrid", "verify", str(quartic_complex)],
        ["hybrid", "angle", "diag(1,1,1,-1)", "--e", "1,1,0,0", "--z", "1,0,0,0"],
        ["coxeter", "analyze", "figures/fig4_h5_simplex.cox"],
        ["links", "compose", "whitehead+chain3"],
    ]
    out = _run_cli_subprocess(
        "-c",
        "import sys\nfrom hyplat.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        "print(codes, 'sympy' in sys.modules)",
    )
    assert out.splitlines()[-1] == "[0, 0, 0, 2, 0, 0, 0, 0, 0] False"
