"""End-to-end tests for the command-line front end."""

from __future__ import annotations

import json

import pytest

from hyplat.cli import main

GPS_COMPLEX = """\
field 1 0
pattern gps
shared diag 1 1 -1
block N1 alpha 1
block N2 alpha 2
glue N1 N2
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# form
# ---------------------------------------------------------------------------


class TestFormCommands:
    def test_check_inline_admissible(self, capsys):
        code, out, _ = run(capsys, "form", "check", "diag(1,1,1,-1)")
        assert code == 0
        assert "admissible" in out
        assert "(3, 1, 0)" in out

    def test_check_reports_inadmissible(self, capsys):
        code, out, _ = run(capsys, "form", "check", "diag(1,1,1,1)")
        assert code == 0  # negative verdicts exit 0 without --strict
        assert "NOT admissible" in out

    def test_strict_flips_exit_code(self, capsys):
        code, _, _ = run(capsys, "form", "check", "--strict", "diag(1,1,1,1)")
        assert code == 1
        code, _, _ = run(capsys, "form", "check", "--strict", "diag(1,1,-1)")
        assert code == 0

    def test_check_file_and_jobs_order(self, capsys, tmp_path):
        a = tmp_path / "a.form"
        a.write_text("diag 1 1 -1\n")
        b = tmp_path / "b.form"
        b.write_text("field 1 0 -2\nembedding 1\ndiag 1 1 -t\n")
        code, out, _ = run(
            capsys, "form", "check", "--jobs", "2", str(a), str(b), "diag(1,-1)"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith(str(a))
        assert lines[1].startswith(str(b))
        assert lines[2].startswith("diag(1,-1)")

    def test_missing_file_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "form", "check", "no-such-file.form")
        assert code == 2
        assert "error" in err

    def test_malformed_file_is_an_input_error(self, capsys, tmp_path):
        f = tmp_path / "bad.form"
        f.write_text("diag 1 oops\n")
        code, _, err = run(capsys, "form", "check", str(f))
        assert code == 2
        assert "bad entry" in err

    def test_commensurable_pair(self, capsys, tmp_path):
        out_json = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "form",
            "commensurable",
            "diag(1,1,1,-1)",
            "diag(2,2,2,-2)",
            "--json",
            str(out_json),
        )
        assert code == 0
        assert "Commensurable" in out
        report = json.loads(out_json.read_text())
        assert report["verdict"]["status"] == "Commensurable"
        assert report["verdict"]["lambda"] is not None

    def test_not_commensurable_pair_strict(self, capsys):
        code, out, _ = run(
            capsys,
            "form",
            "commensurable",
            "--strict",
            "diag(1,1,1,-1)",
            "diag(1,1,1,-2)",
        )
        assert code == 1
        assert "NotCommensurable" in out


# ---------------------------------------------------------------------------
# hybrid
# ---------------------------------------------------------------------------


class TestHybridCommands:
    def test_verify_met(self, capsys, tmp_path):
        f = tmp_path / "pair.cplx"
        f.write_text(GPS_COMPLEX)
        out_json = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "hybrid", "verify", str(f), "--json", str(out_json)
        )
        assert code == 0
        assert "HypothesesMet" in out
        report = json.loads(out_json.read_text())
        assert report["verdict"] == "HypothesesMet"
        (pair,) = report["pairs"]
        assert pair["blocks"] == ["N1", "N2"]
        assert pair["ratio"] == "2"
        assert pair["ratio_square"] is False
        assert pair["forced_orthogonal"] is True

    def test_verify_not_met_strict(self, capsys, tmp_path):
        f = tmp_path / "same.cplx"
        f.write_text(GPS_COMPLEX.replace("alpha 2", "alpha 4"))
        code, out, _ = run(capsys, "hybrid", "verify", "--strict", str(f))
        assert code == 1
        assert "HypothesesNotMet" in out

    def test_verify_runs_one_similarity_per_gluing(self, capsys, tmp_path, monkeypatch):
        import hyplat.hybrid

        calls = []
        original = hyplat.hybrid.similar

        def counting_similar(q1, q2):
            calls.append((q1, q2))
            return original(q1, q2)

        monkeypatch.setattr(hyplat.hybrid, "similar", counting_similar)
        f = tmp_path / "triangle.cplx"
        f.write_text(
            "field 1 0\npattern cycle\nshared diag 1 1 -1\n"
            "block N1 alpha 1\nblock N2 alpha 2\nblock N3 alpha 3\n"
            "glue N1 N2\nglue N2 N3\nglue N3 N1\n"
        )
        code, out, _ = run(capsys, "hybrid", "verify", str(f))
        assert code == 0
        assert "HypothesesMet" in out
        assert len(calls) == 3

    def test_verify_structural_error(self, capsys, tmp_path):
        f = tmp_path / "broken.cplx"
        f.write_text(GPS_COMPLEX + "block N3 alpha 1\n")  # gps needs 2 blocks
        code, _, err = run(capsys, "hybrid", "verify", str(f))
        assert code == 2
        assert "error" in err

    def test_angle_known_value(self, capsys):
        code, out, _ = run(
            capsys,
            "hybrid",
            "angle",
            "diag(1,1,1,-1)",
            "--e",
            "1,1,0,0",
            "--z",
            "1,0,0,0;0,0,1,0",
        )
        assert code == 0
        assert "1/2" in out

    def test_angle_over_number_field(self, capsys, tmp_path):
        f = tmp_path / "lorentz.form"
        f.write_text("field 1 0 -2\nembedding 1\ndiag 1 1 -t\n")
        code, out, _ = run(
            capsys,
            "hybrid",
            "angle",
            str(f),
            "--e",
            "1,1,0",
            "--z",
            "1,0,0",
            "--approx",
        )
        assert code == 0
        assert "1/2" in out
        assert "approx: 0.5" in out

    def test_angle_dimension_mismatch(self, capsys):
        code, _, err = run(
            capsys,
            "hybrid",
            "angle",
            "diag(1,1,-1)",
            "--e",
            "1,1",
            "--z",
            "1,0,0",
        )
        assert code == 2
        assert "entries" in err


# ---------------------------------------------------------------------------
# coxeter
# ---------------------------------------------------------------------------


class TestCoxeterCommands:
    def test_bundled_figure_resolves(self, capsys):
        code, out, _ = run(
            capsys, "coxeter", "analyze", "figures/fig4_h5_simplex.cox"
        )
        assert code == 0
        assert "Hyperbolic dim 5" in out
        assert "FiniteVolumeNoncompact" in out
        assert "Neither" in out
        assert "UnsplittableCertified (simplex)" in out

    def test_json_report_shape(self, capsys, tmp_path):
        out_json = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "coxeter",
            "analyze",
            "figures/fig_336_control.cox",
            "--json",
            str(out_json),
        )
        assert code == 0
        report = json.loads(out_json.read_text())
        (result,) = report["results"]
        assert result["classification"] == "Hyperbolic"
        assert result["signature"] == [3, 1, 0]
        assert result["volume_type"] == "FiniteVolumeNoncompact"
        arith = result["arithmeticity"]
        assert arith["verdict"] == "Arithmetic"
        assert arith["field"]["degree"] == 1
        assert arith["field"]["square_class_generators"] == []
        assert len(arith["cycles"]) == 3  # a tree: edge squares only
        assert result["splittability"]["status"] == "UnsplittableCertified"

    def test_spherical_diagram_skips_hyperbolic_analyses(self, capsys, tmp_path):
        f = tmp_path / "a3.cox"
        f.write_text("vertices 3\nedge 1 2 3\nedge 2 3 3\n")
        out_json = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "coxeter", "analyze", str(f), "--json", str(out_json)
        )
        assert code == 0
        assert "Spherical" in out
        (result,) = json.loads(out_json.read_text())["results"]
        assert result["arithmeticity"] is None
        assert result["splittability"] is None

    def test_jobs_preserve_input_order(self, capsys):
        code, out, _ = run(
            capsys,
            "coxeter",
            "analyze",
            "--jobs",
            "4",
            "figures/fig6_d_536_linear.cox",
            "figures/fig5_a_compact_345.cox",
            "figures/fig4_h5_simplex.cox",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("figures/")]
        assert [l.split(":")[0] for l in lines] == [
            "figures/fig6_d_536_linear.cox",
            "figures/fig5_a_compact_345.cox",
            "figures/fig4_h5_simplex.cox",
        ]

    def test_parse_error_exit_code(self, capsys, tmp_path):
        f = tmp_path / "bad.cox"
        f.write_text("vertices 2\nedge 1 2 7\n")
        code, _, err = run(capsys, "coxeter", "analyze", str(f))
        assert code == 2
        assert "label" in err


# ---------------------------------------------------------------------------
# links
# ---------------------------------------------------------------------------


class TestLinksCommands:
    def test_inline_composition(self, capsys):
        code, out, _ = run(capsys, "links", "compose", "whitehead+chain3")
        assert code == 0
        assert "degree 4" in out
        assert "sqrt(-1), sqrt(7)" in out
        assert "vs whitehead: Incommensurable" in out

    def test_script_file(self, capsys, tmp_path):
        script = tmp_path / "family.sum"
        script.write_text("sum whitehead chain5\nopaque 5\nsum #1 #2\n")
        out_json = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "links", "compose", str(script), "--json", str(out_json)
        )
        assert code == 0
        report = json.loads(out_json.read_text())
        assert report["field"]["degree_bounds"] == [5, 20]
        assert report["belts"] == 0
        assert report["composition"][0] == "sum"

    def test_unknown_link_is_input_error(self, capsys):
        code, _, err = run(capsys, "links", "compose", "borromean+whitehead")
        assert code == 2
        assert "unknown link" in err

    def test_belt_exhaustion_is_input_error(self, capsys):
        code, _, err = run(capsys, "links", "compose", "whitehead+chain3+chain5")
        assert code == 2
        assert "belt" in err

    def test_data_dir_override(self, capsys, tmp_path, monkeypatch):
        data = tmp_path / "data"
        data.mkdir()
        (data / "links.tbl").write_text(
            "link custom disc -11 belts 3\nlink whitehead disc -1 belts 1\n"
        )
        monkeypatch.setenv("HYPLAT_DATA_DIR", str(data))
        code, out, _ = run(capsys, "links", "compose", "custom+whitehead")
        assert code == 0
        assert "sqrt(-1), sqrt(11)" in out


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


class TestReports:
    def test_json_reports_are_byte_identical(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            run(
                capsys,
                "coxeter",
                "analyze",
                "figures/fig5_b_444.cox",
                "--json",
                str(path),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_json_to_stdout(self, capsys):
        code, out, _ = run(
            capsys, "form", "check", "diag(1,-1)", "--json", "-"
        )
        assert code == 0
        payload = out[out.index("{") :]
        report = json.loads(payload)
        assert report["command"] == "form check"
        assert "inputs" in report and "version" in report

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["form"])
        assert exc.value.code == 2

    def test_approx_adds_decimals(self, capsys, tmp_path):
        out_json = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "coxeter",
            "analyze",
            "figures/fig6_b_3436.cox",
            "--approx",
            "--json",
            str(out_json),
        )
        assert code == 0
        (result,) = json.loads(out_json.read_text())["results"]
        cycles = result["arithmeticity"]["cycles"]
        assert any("value_approx" in c for c in cycles)
