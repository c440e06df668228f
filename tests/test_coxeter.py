"""Tests for Coxeter diagrams: Gram matrices, classification, arithmeticity."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplat.algebra.arith import square_class_basis
from hyplat.algebra.numberfield import approx_at_embedding, is_algebraic_integer
from hyplat.coxeter import (
    ARITHMETIC,
    COMPACT,
    EUCLIDEAN,
    FINITE_VOLUME_NONCOMPACT,
    HYPERBOLIC,
    NEITHER,
    POSSIBLY_SPLITTABLE,
    SPHERICAL,
    UNSPLITTABLE_CERTIFIED,
    CoxeterDiagram,
    classify,
    entry_field,
    gram_matrix,
    parse_diagram,
    simple_cycles,
    special_subgroups,
    unsplittable_check,
    vinberg_arithmeticity,
)
from hyplat.coxeter import _cycle_field
from hyplat.errors import NotHyperbolic, ParseError, RankTooLarge, UnsupportedLabel
from hyplat.linalg import signature_at

FIGURES = Path(__file__).resolve().parents[1] / "src" / "hyplat" / "data" / "figures"


def load(name: str) -> CoxeterDiagram:
    return parse_diagram((FIGURES / name).read_text())


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class TestParseDiagram:
    def test_linear_path(self):
        d = parse_diagram("vertices 3\nedge 1 2 3\nedge 2 3 3\n")
        assert d.rank == 3
        assert d.label(1, 2) == 3
        assert d.label(2, 3) == 3
        assert d.label(1, 3) == 2  # absent edge means a right angle

    def test_comments_and_blank_lines(self):
        text = "# a path\n\nvertices 2\n  # indented comment\nedge 1 2 4\n"
        d = parse_diagram(text)
        assert d.label(1, 2) == 4

    def test_infinity_aliases(self):
        for alias in ("inf", "infinity", "oo"):
            d = parse_diagram(f"vertices 2\nedge 1 2 {alias}\n")
            assert d.label(1, 2) == "inf"

    def test_edge_order_is_irrelevant(self):
        d = parse_diagram("vertices 3\nedge 3 1 5\n")
        assert d.label(1, 3) == 5
        assert d.label(3, 1) == 5

    def test_missing_vertices_line(self):
        with pytest.raises(ParseError):
            parse_diagram("edge 1 2 3\n")

    def test_edge_before_vertices_line(self):
        with pytest.raises(ParseError) as exc:
            parse_diagram("edge 1 2 3\nvertices 3\n")
        assert exc.value.line == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_diagram("vertices 2\nedge 1 1 3\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_diagram("vertices 3\nedge 1 2 3\nedge 2 1 4\n")
        assert exc.value.line == 3

    def test_out_of_range_vertex(self):
        with pytest.raises(ParseError):
            parse_diagram("vertices 2\nedge 1 3 3\n")

    def test_unsupported_labels(self):
        with pytest.raises(UnsupportedLabel):
            parse_diagram("vertices 2\nedge 1 2 2\n")
        with pytest.raises(UnsupportedLabel):
            parse_diagram("vertices 2\nedge 1 2 7\n")
        with pytest.raises(UnsupportedLabel):
            parse_diagram("vertices 2\nedge 1 2 dotted\n")

    def test_garbage_label(self):
        with pytest.raises(ParseError):
            parse_diagram("vertices 2\nedge 1 2 3.5\n")

    def test_unknown_directive_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_diagram("vertices 2\ntriangle 1 2 3\n")
        assert exc.value.line == 2

    def test_all_bundled_files_parse(self):
        files = sorted(FIGURES.glob("*.cox"))
        assert len(files) == 9
        for f in files:
            d = parse_diagram(f.read_text())
            assert d.rank >= 4


# ---------------------------------------------------------------------------
# Gram matrix entries
# ---------------------------------------------------------------------------


class TestGramEntries:
    def test_plain_edge_entry(self):
        d = CoxeterDiagram.linear([3])
        G = gram_matrix(d)
        E = entry_field()
        assert G[0, 0] == E.one
        assert G[0, 1] == -E.one / 2
        assert G[1, 0] == G[0, 1]

    def test_label_four_entry_squares_to_half(self):
        G = gram_matrix(CoxeterDiagram.linear([4]))
        g = G[0, 1]
        assert (g * g) * 2 == entry_field().one
        assert g == -entry_field().sqrt(2) / 2

    def test_label_five_entry(self):
        # 2*cos(pi/5) is the golden ratio, so the entry is -(1+sqrt 5)/4.
        G = gram_matrix(CoxeterDiagram.linear([5]))
        E = entry_field()
        g = G[0, 1]
        assert g == -(E.one + E.sqrt(5)) / 4
        # (2g)^2 = (3+sqrt 5)/2 satisfies x^2 - 3x + 1 = 0.
        b2 = (2 * g) ** 2
        assert b2 * b2 - 3 * b2 + 1 == E.zero

    def test_label_six_and_infinity_entries(self):
        E = entry_field()
        G = gram_matrix(CoxeterDiagram.linear([6]))
        assert G[0, 1] == -E.sqrt(3) / 2
        G = gram_matrix(CoxeterDiagram.linear(["inf"]))
        assert G[0, 1] == -E.one

    def test_missing_edge_gives_zero(self):
        G = gram_matrix(CoxeterDiagram.from_edges(3, [(1, 2, 3)]))
        E = entry_field()
        assert G[0, 2] == E.zero
        assert G[1, 2] == E.zero

    def test_numeric_values_match_cosines(self):
        import math

        for m in (3, 4, 5, 6):
            G = gram_matrix(CoxeterDiagram.linear([m]))
            approx = approx_at_embedding(G[0, 1])
            assert abs(float(approx) + math.cos(math.pi / m)) < 1e-12


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class TestClassification:
    def test_spherical_path(self):
        c = classify(CoxeterDiagram.linear([3, 3]))
        assert c.kind == SPHERICAL
        assert c.signature == (3, 0, 0)
        assert c.hyperbolic_dim is None
        assert c.volume_type is None

    def test_euclidean_triangle(self):
        d = CoxeterDiagram.from_edges(3, [(1, 2, 3), (2, 3, 3), (1, 3, 3)])
        c = classify(d)
        assert c.kind == EUCLIDEAN
        assert c.signature == (2, 0, 1)

    def test_euclidean_pair(self):
        c = classify(CoxeterDiagram.linear(["inf"]))
        assert c.kind == EUCLIDEAN
        assert c.signature == (1, 0, 1)

    def test_hyperbolic_simplex_336(self):
        c = classify(CoxeterDiagram.linear([3, 3, 6]))
        assert c.kind == HYPERBOLIC
        assert c.signature == (3, 1, 0)
        assert c.hyperbolic_dim == 3
        assert c.volume_type == FINITE_VOLUME_NONCOMPACT

    def test_compact_simplex_has_all_spherical_links(self):
        d = load("fig5_a_compact_345.cox")
        c = classify(d)
        assert c.volume_type == COMPACT
        for v in d.vertices:
            rest = [w for w in d.vertices if w != v]
            assert classify(d.induced(rest)).kind == SPHERICAL

    def test_degenerate_hyperbolic_has_no_volume_type(self):
        # A hyperbolic triangle next to a parallel pair: indefinite with a
        # null direction, so the simplex volume criterion does not apply.
        d = CoxeterDiagram.from_edges(
            5, [(1, 2, 3), (2, 3, 3), (1, 3, 6), (4, 5, "inf")]
        )
        c = classify(d)
        assert c.kind == HYPERBOLIC
        assert c.signature == (3, 1, 1)
        assert c.hyperbolic_dim == 3
        assert c.volume_type is None

    def test_signatures_match_float_elimination(self):
        # Independent route: numeric symmetric elimination over floats,
        # seeded with interval-certified rational approximations.
        for name in sorted(FIGURE_TABLE):
            d = load(name)
            G = gram_matrix(d)
            n = d.rank
            num = [
                [float(approx_at_embedding(G[i, j])) for j in range(n)]
                for i in range(n)
            ]
            assert _float_signature(num) == classify(d).signature

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_relabeling_invariance(self, data):
        labels = data.draw(
            st.lists(st.sampled_from([3, 4, 5, 6, "inf"]), min_size=2, max_size=4)
        )
        d = CoxeterDiagram.linear(labels)
        perm = list(d.vertices)
        data.draw(st.randoms(use_true_random=False)).shuffle(perm)
        relabel = {v: perm[v - 1] for v in d.vertices}
        d2 = CoxeterDiagram.from_edges(
            d.rank, [(relabel[i], relabel[j], m) for (i, j), m in d.edges]
        )
        c1, c2 = classify(d), classify(d2)
        assert c1.signature == c2.signature
        assert c1.kind == c2.kind
        if c1.kind == HYPERBOLIC:
            r1 = vinberg_arithmeticity(d)
            r2 = vinberg_arithmeticity(d2)
            assert r1.verdict == r2.verdict
            assert r1.field_square_generators == r2.field_square_generators


def _float_signature(a, tol=1e-9):
    """Signature of a small symmetric float matrix by congruence pivoting."""
    a = [row[:] for row in a]
    n = len(a)
    pos = neg = 0
    active = list(range(n))
    while active:
        piv = max(active, key=lambda i: abs(a[i][i]))
        if abs(a[piv][piv]) <= tol:
            off = max(
                (abs(a[i][j]), i, j)
                for i in active
                for j in active
                if i != j
            )
            if off[0] <= tol:
                break  # the rest is the null space
            _, i, j = off
            for k in range(n):  # row/col add turns the off-pivot diagonal
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            continue
        d = a[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(piv)
        row = a[piv][:]
        for i in active:
            f = row[i] / d
            for j in active:
                a[i][j] -= f * row[j]
    return (pos, neg, n - pos - neg)


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------


class TestSimpleCycles:
    def test_tree_has_no_cycles(self):
        assert simple_cycles(CoxeterDiagram.linear([3, 4, 5])) == []

    def test_square_has_one_cycle(self):
        d = CoxeterDiagram.from_edges(
            4, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 1, 3)]
        )
        assert simple_cycles(d) == [(1, 2, 3, 4)]

    def test_theta_graph_has_three_cycles(self):
        # Two vertices joined by three internally disjoint paths.
        d = CoxeterDiagram.from_edges(
            4,
            [(1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 1, 3), (1, 3, 4)],
        )
        cycles = simple_cycles(d)
        assert len(cycles) == 3
        assert (1, 2, 3) in cycles
        assert (1, 3, 4) in cycles
        assert (1, 2, 3, 4) in cycles

    def test_canonical_orientation(self):
        d = CoxeterDiagram.from_edges(3, [(1, 2, 3), (2, 3, 3), (1, 3, 3)])
        (cycle,) = simple_cycles(d)
        assert cycle[0] == min(cycle)
        assert cycle[1] < cycle[-1]


# ---------------------------------------------------------------------------
# Bundled figures: frozen expectations
# ---------------------------------------------------------------------------

# name -> (dim, volume type, arithmeticity verdict, field square generators,
#          field degree)
FIGURE_TABLE = {
    "fig4_h5_simplex.cox": (5, FINITE_VOLUME_NONCOMPACT, NEITHER, (2,), 2),
    "fig5_a_compact_345.cox": (3, COMPACT, NEITHER, (2, 5), 4),
    "fig5_b_444.cox": (3, FINITE_VOLUME_NONCOMPACT, NEITHER, (2,), 2),
    "fig5_c_tadpole_5.cox": (3, FINITE_VOLUME_NONCOMPACT, NEITHER, (5,), 2),
    "fig6_a_3336.cox": (3, FINITE_VOLUME_NONCOMPACT, NEITHER, (3,), 2),
    "fig6_b_3436.cox": (3, FINITE_VOLUME_NONCOMPACT, NEITHER, (6,), 2),
    "fig6_c_3536.cox": (3, FINITE_VOLUME_NONCOMPACT, NEITHER, (3, 5), 4),
    "fig6_d_536_linear.cox": (3, FINITE_VOLUME_NONCOMPACT, NEITHER, (5,), 2),
    "fig_336_control.cox": (3, FINITE_VOLUME_NONCOMPACT, ARITHMETIC, (), 1),
}


class TestBundledFigures:
    @pytest.mark.parametrize("name", sorted(FIGURE_TABLE))
    def test_figure_analysis(self, name):
        dim, vol, verdict, gens, degree = FIGURE_TABLE[name]
        d = load(name)
        c = classify(d)
        assert c.kind == HYPERBOLIC
        assert c.hyperbolic_dim == dim
        assert c.signature == (dim, 1, 0)
        assert c.volume_type == vol
        rep = vinberg_arithmeticity(d)
        assert rep.verdict == verdict
        assert rep.field_square_generators == gens
        assert rep.field_degree == degree
        assert rep.all_cycles_integral is True
        assert rep.totally_real is True
        spl = unsplittable_check(d, dim)
        assert spl.status == UNSPLITTABLE_CERTIFIED
        assert spl.reason == "simplex"
        assert bool(spl) is True

    def test_seven_small_figures_are_not_arithmetic(self):
        small = [n for n in FIGURE_TABLE if n.startswith(("fig5", "fig6"))]
        assert len(small) == 7
        for name in small:
            assert vinberg_arithmeticity(load(name)).verdict == NEITHER

    def test_bool_protocol_on_reports(self):
        assert bool(vinberg_arithmeticity(load("fig_336_control.cox"))) is True
        assert bool(vinberg_arithmeticity(load("fig4_h5_simplex.cox"))) is False


# ---------------------------------------------------------------------------
# Arithmeticity details
# ---------------------------------------------------------------------------


class TestArithmeticity:
    def test_control_simplex_is_arithmetic_over_q(self):
        rep = vinberg_arithmeticity(CoxeterDiagram.linear([3, 3, 6]))
        assert rep.verdict == ARITHMETIC
        assert rep.field_degree == 1
        assert rep.field_square_generators == ()
        assert rep.conjugates_semidefinite is True
        assert rep.all_cycles_integral is True
        assert rep.certificate is None
        # Cycle values of a tree are exactly its edge squares: 1, 1, 3.
        values = sorted(approx_at_embedding(v) for _, v in rep.cycle_values)
        assert values == [1, 1, 3]

    def test_arithmetic_compact_triangle_groups(self):
        # (3,4,4) and (5,5,5) are classical arithmetic reflection triangles.
        t344 = CoxeterDiagram.from_edges(3, [(1, 2, 3), (2, 3, 4), (1, 3, 4)])
        assert vinberg_arithmeticity(t344).verdict == ARITHMETIC
        t555 = CoxeterDiagram.from_edges(3, [(1, 2, 5), (2, 3, 5), (1, 3, 5)])
        rep = vinberg_arithmeticity(t555)
        assert rep.verdict == ARITHMETIC
        assert rep.field_square_generators == (5,)

    def test_nonarithmetic_certificate_names_embedding(self):
        rep = vinberg_arithmeticity(load("fig4_h5_simplex.cox"))
        assert rep.verdict == NEITHER
        assert rep.conjugates_semidefinite is False
        assert "embedding" in rep.certificate
        assert rep.embedding_restrictions
        # The adjacent field is Q(sqrt 2): half of the eight embeddings of
        # the entry field move it.
        assert len(rep.embedding_restrictions) == 8
        assert sum(1 for _, moves in rep.embedding_restrictions if moves) == 4

    def test_hexagon_cycle_value(self):
        d = load("fig4_h5_simplex.cox")
        rep = vinberg_arithmeticity(d)
        # Six edge squares plus one hexagonal cycle.
        assert len(rep.cycle_values) == 7
        E = entry_field()
        by_name = dict(rep.cycle_values)
        cycle_keys = [k for k in by_name if "-" in k and k.count("-") >= 5]
        (key,) = cycle_keys
        assert by_name[key] == E.sqrt(2)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.dictionaries(st.integers(0, 7), st.fractions(-3, 3, max_denominator=4),
                        max_size=4),
        min_size=1, max_size=4,
    ))
    def test_cycle_field_from_supports_matches_galois_action(self, coordinates):
        # Values sum c_S sqrt(d_S) from random monomial coordinates; the
        # automorphisms themselves are the reference for the sign rule.
        E = entry_field()
        values = [sum((c * E.sqrt(E.monomial_discs[s]) for s, c in v.items()), E.zero)
                  for v in coordinates]
        restrictions, square_gens, degree = _cycle_field(values)
        fixing = [j for j in range(8) if all(E.galois_action(j, v) == v for v in values)]
        assert [j for j, moves in restrictions if not moves] == fixing
        assert degree == 8 // len(fixing)
        fixed = [d for d in (2, 3, 5, 6, 10, 15, 30)
                 if all(E.galois_action(j, E.sqrt(d)) == E.sqrt(d) for j in fixing)]
        assert square_gens == square_class_basis(fixed)

    def test_not_hyperbolic_rejected(self):
        with pytest.raises(NotHyperbolic):
            vinberg_arithmeticity(CoxeterDiagram.linear([3, 3]))

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_cycle_values_are_always_algebraic_integers(self, data):
        # Edge squares and cycle products of 2*cos(pi/m) entries are
        # algebraic integers for every diagram, hyperbolic or not.
        rank = data.draw(st.integers(min_value=3, max_value=5))
        labels = data.draw(
            st.lists(
                st.sampled_from([3, 4, 5, 6, "inf"]),
                min_size=rank - 1,
                max_size=rank - 1,
            )
        )
        edges = [(i, i + 1, m) for i, m in enumerate(labels, start=1)]
        close = data.draw(st.booleans())
        if close and rank >= 3:
            edges.append((1, rank, data.draw(st.sampled_from([3, 4, 5, 6, "inf"]))))
        d = CoxeterDiagram.from_edges(rank, edges)
        G = gram_matrix(d)
        for (i, j), _ in d.edges:
            assert is_algebraic_integer((2 * G[i - 1, j - 1]) ** 2)
        for cycle in simple_cycles(d):
            prod = entry_field().one
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                prod = prod * (2 * G[a - 1, b - 1])
            assert is_algebraic_integer(prod)


# ---------------------------------------------------------------------------
# Special subgroups and splittability
# ---------------------------------------------------------------------------


class TestSpecialSubgroups:
    def test_simplex_links_of_336(self):
        subs = special_subgroups(CoxeterDiagram.linear([3, 3, 6]))
        assert len(subs) == 14  # 2^4 - 2 proper nonempty subsets
        kinds = {s.vertices: s.classification.kind for s in subs}
        assert kinds[(1, 2, 3)] == SPHERICAL
        assert kinds[(2, 3, 4)] == EUCLIDEAN  # the affine (3,6) path
        assert kinds[(1, 2)] == SPHERICAL
        assert kinds[(3, 4)] == SPHERICAL

    def test_spherical_diagram_has_spherical_subgroups(self):
        subs = special_subgroups(CoxeterDiagram.linear([3, 4, 3]))
        assert all(s.classification.kind == SPHERICAL for s in subs)

    def test_rank_cap(self):
        big = CoxeterDiagram.from_edges(13, [(i, i + 1, 3) for i in range(1, 13)])
        with pytest.raises(RankTooLarge):
            special_subgroups(big)


class TestSplittability:
    def test_simplex_shortcut(self):
        rep = unsplittable_check(CoxeterDiagram.linear([3, 3, 6]), 3)
        assert rep.status == UNSPLITTABLE_CERTIFIED
        assert rep.reason == "simplex"
        assert rep.candidates == []

    def test_triangle_with_parallel_pair_is_possibly_splittable(self):
        # Rank five, hyperbolic dimension three: the (3,3,6) triangle is a
        # two-dimensional hyperbolic special subgroup, so the certificate
        # fails and the triangle is reported as the candidate.
        d = CoxeterDiagram.from_edges(
            5, [(1, 2, 3), (2, 3, 3), (1, 3, 6), (4, 5, "inf")]
        )
        rep = unsplittable_check(d, 3)
        assert rep.status == POSSIBLY_SPLITTABLE
        assert bool(rep) is False
        assert [s.vertices for s in rep.candidates] == [(1, 2, 3)]
        (cand,) = rep.candidates
        assert cand.classification.kind == HYPERBOLIC
        assert cand.classification.hyperbolic_dim == 2

    def test_rank_seven_possibly_splittable(self):
        # [3,3,6] next to an affine (3,3,3) triangle: hyperbolic of
        # dimension five at rank seven, with three four-dimensional
        # hyperbolic special subgroups.
        d = CoxeterDiagram.from_edges(
            7,
            [(1, 2, 3), (2, 3, 3), (3, 4, 6), (5, 6, 3), (6, 7, 3), (5, 7, 3)],
        )
        c = classify(d)
        assert c.signature == (5, 1, 1)
        rep = unsplittable_check(d, 5)
        assert rep.status == POSSIBLY_SPLITTABLE
        assert [s.vertices for s in rep.candidates] == [
            (1, 2, 3, 4, 5),
            (1, 2, 3, 4, 6),
            (1, 2, 3, 4, 7),
        ]
        assert all(
            s.classification.hyperbolic_dim == 4 for s in rep.candidates
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(NotHyperbolic):
            unsplittable_check(CoxeterDiagram.linear([3, 3, 6]), 5)

    def test_non_hyperbolic_rejected(self):
        with pytest.raises(NotHyperbolic):
            unsplittable_check(CoxeterDiagram.linear([3, 3]), 2)

    def test_simplex_rank_never_reports_splittable(self):
        for labels in ([3, 3, 6], [3, 4, 4], [3, 3, 3, 4]):
            d = CoxeterDiagram.linear(labels)
            c = classify(d)
            if c.kind != HYPERBOLIC:
                continue
            assert d.rank == c.hyperbolic_dim + 1
            rep = unsplittable_check(d, c.hyperbolic_dim)
            assert rep.status == UNSPLITTABLE_CERTIFIED
