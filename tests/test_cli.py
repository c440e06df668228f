"""End-to-end tests for the command-line front end."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from hyplat.cli import main

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

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


@pytest.fixture
def built_fields(monkeypatch):
    """Every NumberField constructed during a test, from an empty field cache;
    a construction that raises is counted too."""
    from hyplat.algebra.numberfield import NumberField, shared_field

    shared_field.cache_clear()
    built = []
    init = NumberField.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NumberField, "__init__", counting_init)
    yield built
    shared_field.cache_clear()


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
        code, out, _ = run(capsys, "form", "check", str(a), str(b), "diag(1,-1)")
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

    def test_factorization_bound_is_an_input_error(self, capsys):
        code, out, err = run(
            capsys, "form", "commensurable",
            "diag(1,1,1,-1)", "diag(1,1,1,-1000000000000000003)",
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "1000000000000000003" in err

    def test_field_with_a_large_prime_constant_term(self, capsys, tmp_path):
        # Q(sqrt(10^18 + 3)): irreducibility needs no factorization of the
        # constant term, which lies past the integer factorization bound.
        f = tmp_path / "large.form"
        f.write_text("field 1 0 -1000000000000000003\ndiag 1 1 -1+t\n")
        code, out, err = run(capsys, "form", "check", str(f))
        assert (code, err) == (0, "")
        assert out == f"{f}: admissible, signature (2, 1, 0)\n"

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

    def test_commensurable_factors_each_entry_once(self, capsys, monkeypatch):
        # The golden rational_big_scaled_dim5 pair: each distinct |numerator|
        # and denominator above 1 is factored once, and nothing else is, so
        # no product of entries and no scaled entry is ever factored.
        import hyplat.quadform

        left = "diag(22488301457,7,37458823449,2,-1)"
        right = "diag(3/2,112376470347,-3/4,67464904371/4,21)"
        factored = []
        factorize = hyplat.quadform.factorize
        monkeypatch.setattr(hyplat.quadform, "factorize",
                            lambda n: factored.append(n) or factorize(n))
        code, out, _ = run(capsys, "form", "commensurable", left, right)
        assert code == 0
        assert "Commensurable (lambda = 3)" in out
        assert len(factored) == len(set(factored)) == 9
        assert set(factored) == {22488301457, 7, 37458823449, 2,
                                 3, 112376470347, 4, 67464904371, 21}

    def test_commensurable_files_share_their_field(self, capsys, built_fields):
        a, b = (str(GOLDEN_INPUTS / f"sqrt2_{x}.form") for x in "ab")
        code, out, _ = run(capsys, "form", "commensurable", a, b)
        assert code == 0
        assert "Commensurable" in out
        assert len(built_fields) == 1

    def test_another_embedding_line_builds_another_field(self, capsys, built_fields):
        a, b = (str(GOLDEN_INPUTS / f"sqrt2_shifted{x}.form") for x in ("", "_e1"))
        code, _, _ = run(capsys, "form", "commensurable", a, b)
        assert code == 0
        first, second = built_fields
        assert first is not second
        assert (first.chosen_embedding, second.chosen_embedding) == (0, 1)


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

    def test_verify_diagonal_forms_take_no_det_and_no_pivot_inverse(self, capsys, monkeypatch):
        # Every form here is diagonal: one elimination for the shared form
        # and one per 1x1 <alpha>, each ambient <alpha> + shared reuses its
        # parts' diagonals, and no elimination clears anything, so no pivot
        # is inverted and no determinant is taken.
        import hyplat.linalg
        import hyplat.quadform
        from hyplat.algebra.numberfield import FieldElement

        counts = {"det": 0, "diagonalize": 0, "pivot inverse": 0}
        inside = []
        det, inverse = hyplat.linalg.Matrix.det, FieldElement.inverse
        diagonalize = hyplat.linalg.symmetric_diagonalize

        def counting_det(matrix):
            counts["det"] += 1
            return det(matrix)

        def counting_diagonalize(G):
            counts["diagonalize"] += 1
            inside.append(G)
            try:
                return diagonalize(G)
            finally:
                inside.pop()

        def counting_inverse(element):
            counts["pivot inverse"] += bool(inside)
            return inverse(element)

        monkeypatch.setattr(hyplat.linalg.Matrix, "det", counting_det)
        monkeypatch.setattr(FieldElement, "inverse", counting_inverse)
        for module in (hyplat.linalg, hyplat.quadform):
            monkeypatch.setattr(module, "symmetric_diagonalize", counting_diagonalize)
        cycle = GOLDEN_INPUTS / "sqrt2_cycle_squares.cpx"  # 3 blocks over Q(sqrt 2)
        code, out, _ = run(capsys, "hybrid", "verify", str(cycle))
        assert code == 0
        assert "HypothesesNotMet" in out
        assert counts["det"] == 0
        assert counts["pivot inverse"] == 0
        assert counts["diagonalize"] == 4

    @pytest.mark.parametrize("name, verdict, gluings", [
        ("sqrt2_cycle_squares", "HypothesesNotMet", 3),  # lambda = 1 is verified first
        ("sqrt2_odd_dimension", "HypothesesUnknown", 1),  # every candidate is tried
    ])
    def test_verify_takes_at_most_dim_inverses_per_similarity(
        self, capsys, monkeypatch, name, verdict, gluings
    ):
        # Scalar candidates b/a are made lazily from one inverse per a.
        import hyplat.hybrid
        from hyplat.algebra.numberfield import FieldElement

        inverses = [0]
        per_call = []
        inverse, similar = FieldElement.inverse, hyplat.hybrid.similar

        def counting_inverse(element):
            inverses[0] += 1
            return inverse(element)

        def counting_similar(q1, q2):
            inverses[0] = 0
            verdict = similar(q1, q2)
            per_call.append((inverses[0], q1.dim))
            return verdict

        monkeypatch.setattr(FieldElement, "inverse", counting_inverse)
        monkeypatch.setattr(hyplat.hybrid, "similar", counting_similar)
        code, out, _ = run(capsys, "hybrid", "verify", str(GOLDEN_INPUTS / f"{name}.cpx"))
        assert code == 0
        assert verdict in out
        assert len(per_call) == gluings
        assert all(count <= dim for count, dim in per_call)

    def test_verify_takes_at_most_two_square_tests_per_similarity(self, capsys, monkeypatch):
        # The blocks' diagonalizations <alpha1, 1, 1, -1+t> and <alpha2, 1, 1,
        # -1+t> share three entries, which pair off before the discriminant
        # test and match without one: only alpha1 * alpha2 is ever tested.
        import hyplat.hybrid
        import hyplat.quadform

        tested = []
        per_call = []
        is_square, similar = hyplat.quadform.is_square, hyplat.hybrid.similar

        def counting_is_square(a):
            tested.append(a)
            return is_square(a)

        def counting_similar(q1, q2):
            tested.clear()
            verdict = similar(q1, q2)
            alphas = q1.diagonal_entries()[0] * q2.diagonal_entries()[0]
            per_call.append((len(tested), all(a == alphas for a in tested)))
            return verdict

        monkeypatch.setattr(hyplat.quadform, "is_square", counting_is_square)
        monkeypatch.setattr(hyplat.hybrid, "similar", counting_similar)
        code, out, _ = run(
            capsys, "hybrid", "verify", str(GOLDEN_INPUTS / "sqrt2_cycle_squares.cpx")
        )
        assert code == 0
        assert "HypothesesNotMet" in out
        assert per_call == [(2, True)] * 3

    def test_verify_builds_a_field_once_per_process(self, capsys, built_fields):
        path = str(GOLDEN_INPUTS / "sqrt2_cycle_squares.cpx")
        for _ in range(2):
            code, _, _ = run(capsys, "hybrid", "verify", path)
            assert code == 0
        assert len(built_fields) == 1

    def test_verify_bad_field_is_an_input_error(self, capsys, tmp_path, built_fields):
        f = tmp_path / "reducible.cplx"
        f.write_text(GPS_COMPLEX.replace("field 1 0", "field 1 0 -4"))
        for _ in range(2):  # a failed construction is not cached
            code, out, err = run(capsys, "hybrid", "verify", str(f))
            assert code == 2
            assert out == ""
            assert err == "error: line 1: defining polynomial has rational root -2\n"
        assert len(built_fields) == 2

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

    def test_angle_approx_does_not_depend_on_refinement(self, capsys, built_fields):
        # The exact value -0.6059572114446765279... renders as its nearest
        # double, also once the shared field's roots are refined to 2^-200.
        argv = ["hybrid", "angle", str(GOLDEN_INPUTS / "quartic_a.form"),
                "--e", "1,0,0,1", "--z", "1,0,0,0;0,1,0,0", "--approx"]
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            outs.append(out)
            (K,) = built_fields
            for j in range(K.degree):
                K._refine(j, Fraction(1, 2**200))
        assert outs[0] == outs[1]
        assert "approx: -0.605957211444677\n" in outs[0]

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

    def test_angle_takes_one_elimination_of_the_restriction(self, capsys, monkeypatch):
        # The restricted Gram matrix is diagonalized once; that gives its
        # degeneracy, the projection and the positivity certificate.
        import hyplat.linalg
        import hyplat.quadform

        counts = {"det": 0, "solve": 0}
        sizes = []
        det, solve = hyplat.linalg.Matrix.det, hyplat.linalg.Matrix.solve
        diagonalize = hyplat.linalg.symmetric_diagonalize

        def counting(name, method):
            def wrapper(*args):
                counts[name] += 1
                return method(*args)
            return wrapper

        def counting_diagonalize(G):
            sizes.append(G.nrows)
            return diagonalize(G)

        monkeypatch.setattr(hyplat.linalg.Matrix, "det", counting("det", det))
        monkeypatch.setattr(hyplat.linalg.Matrix, "solve", counting("solve", solve))
        for module in (hyplat.linalg, hyplat.quadform):
            monkeypatch.setattr(module, "symmetric_diagonalize", counting_diagonalize)
        form = GOLDEN_INPUTS / "cubic_a.form"  # diag(1, 1, 1, t) over x^3 - 3x + 1
        code, out, _ = run(capsys, "hybrid", "angle", str(form),
                           "--e", "t,1,0,1", "--z", "1,0,0,0;0,1,0,0;0,0,1,0")
        assert code == 0
        assert out.startswith("angle value (cos^2): ")
        assert counts == {"det": 0, "solve": 0}
        assert sizes == [4, 3]  # the form at parse time, then its restriction to Z

    def test_angle_skips_zero_products(self, capsys, monkeypatch):
        # hybrid_angle/cubic_full_gram: G v is formed once per inner product,
        # and outside the eliminations (rref and the congruence
        # diagonalization) no product has a zero factor (155 products in all
        # before that).
        import hyplat.linalg
        import hyplat.quadform
        from hyplat.algebra.numberfield import FieldElement

        products, inside = [], []
        mul, diagonalize = FieldElement.__mul__, hyplat.linalg.symmetric_diagonalize
        rref = hyplat.linalg.Matrix.rref

        def counting_mul(a, b):
            products.append(bool(inside) or bool(a and b))
            return mul(a, b)

        def marking(method):
            def wrapper(*args):
                inside.append(method)
                try:
                    return method(*args)
                finally:
                    inside.pop()
            return wrapper

        monkeypatch.setattr(FieldElement, "__mul__", counting_mul)
        monkeypatch.setattr(FieldElement, "__rmul__", counting_mul)
        monkeypatch.setattr(hyplat.linalg.Matrix, "rref", marking(rref))
        for module in (hyplat.linalg, hyplat.quadform):
            monkeypatch.setattr(module, "symmetric_diagonalize", marking(diagonalize))
        code, out, _ = run(capsys, "hybrid", "angle", str(GOLDEN_INPUTS / "cubic_gram.form"),
                           "--e", "1,0,t,0", "--z", "0,1,0,0;0,0,1,t")
        assert code == 0
        assert out == ("angle value (cos^2): 197976/615203 + 54512/615203*t"
                       " + 107969/615203*t^2\n")
        assert len(products) == 85
        assert all(products)

    def test_verify_refutes_a_nonsquare_ratio_by_a_residue(self, capsys, monkeypatch):
        # sqrt2_gps_nonsquare glues alpha = 1 to alpha = 3 over Q(sqrt 2): 3
        # is a nonresidue mod 7, where t -> 3, so neither the ratio nor the
        # discriminant reaches the enclosures of is_square.  The shared
        # entry -1+t gets its sign at each of the two real places once.
        from hyplat.algebra import numberfield

        trace_terms, signs = [], []
        terms, sign = numberfield._trace_terms, numberfield.sign_at_embedding

        def counting_terms(K, A):
            trace_terms.append(A)
            return terms(K, A)

        def counting_sign(a, j=None):
            signs.append((a.coords, j))
            return sign(a, j)

        monkeypatch.setattr(numberfield, "_trace_terms", counting_terms)
        monkeypatch.setattr(numberfield, "sign_at_embedding", counting_sign)
        code, out, _ = run(capsys, "hybrid", "verify",
                           str(GOLDEN_INPUTS / "sqrt2_gps_nonsquare.cpx"))
        assert code == 0
        assert "HypothesesMet" in out and "ratio 3 (nonsquare" in out
        assert trace_terms == []
        assert sorted(j for coords, j in signs if coords == (-1, 1)) == [0, 1]

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

    def test_unwritable_json_path_is_an_input_error(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "r.json"
        code, out, err = run(capsys, "form", "check", "diag(1,-1)", "--json", str(target))
        assert code == 2
        assert out.startswith("diag(1,-1): admissible")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(target) in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["form", "check", "{f}"],
            ["coxeter", "analyze", "{f}"],
            ["hybrid", "verify", "{f}"],
            ["links", "compose", "{f}"],
            ["links", "compose", "whitehead+chain3", "--table", "{f}"],
        ],
    )
    def test_non_utf8_input_is_an_input_error(self, capsys, tmp_path, argv):
        f = tmp_path / "latin1.txt"
        f.write_bytes(b"# caf\xe9\nvertices 2\n")
        code, out, err = run(capsys, *[a.format(f=f) for a in argv])
        assert (code, out) == (2, "")
        assert err == f"error: {f}: not UTF-8 text (byte 0xe9 at offset 5)\n"

    def test_unexpected_exception_exits_3_with_one_line(self, capsys, monkeypatch):
        import hyplat.cli

        def boom(args):
            raise RuntimeError("handler bug")

        monkeypatch.setattr(hyplat.cli, "_cmd_form_check", boom)
        code, out, err = run(capsys, "form", "check", "diag(1,-1)")
        assert (code, out) == (3, "")
        assert err == "internal error: RuntimeError: handler bug\n"

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        import argparse

        import hyplat.cli

        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            if kwargs.get("prog") == "hyplat":
                built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        hyplat.cli._build_parser.cache_clear()
        try:
            assert run(capsys, "form", "check", "diag(1,-1)")[0] == 0
            assert run(capsys, "form", "check", "diag(1,1,-1)")[0] == 0
        finally:
            hyplat.cli._build_parser.cache_clear()
        assert len(built) == 1

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
