"""Tests for building blocks, gluing transport, angles, and finiteness."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplat.algebra.numberfield import QQ, NumberField, is_square
from hyplat.algebra.quadratic_ext import QuadraticExt
from hyplat.cli import main
from hyplat.errors import (
    DegenerateRestriction,
    DimensionMismatch,
    FieldMismatch,
    MalformedComplex,
    NotAdmissible,
    ParseError,
    XiInsideH,
)
from hyplat.hybrid import (
    HYPOTHESES_MET,
    HYPOTHESES_NOT_MET,
    HYPOTHESES_UNKNOWN,
    IRRATIONAL,
    RATIONAL,
    BlockComplex,
    BuildingBlock,
    GlueMap,
    Gluing,
    angle_with_hypersurface,
    field_of_definition,
    finiteness_verdict,
    parse_complex,
    transported_subspace_rational,
    validate_complex,
)
from hyplat.linalg import Subspace, complement_q, vec
from hyplat.quadform import NOT_SIMILAR, QuadraticSpace


def _lorentz4():
    return QuadraticSpace.diagonal(QQ, [1, 1, 1, -1])


def _shared3():
    return QuadraticSpace.diagonal(QQ, [1, 1, -1])


def _subspace(field, n, rows):
    return Subspace(field, n, rows)


# ---------------------------------------------------------------------------
# Blocks and glue maps
# ---------------------------------------------------------------------------


class TestBuildingBlock:
    def test_constructor_builds_admissible_ambient(self):
        b = BuildingBlock("N1", 1, _shared3())
        assert b.ambient.signature() == (3, 1, 0)
        assert b.dim == 4

    def test_negative_alpha_rejected(self):
        with pytest.raises(NotAdmissible):
            BuildingBlock("N1", -1, _shared3())

    def test_inadmissible_shared_rejected(self):
        bad = QuadraticSpace.diagonal(QQ, [1, -1, -1])
        with pytest.raises(NotAdmissible):
            BuildingBlock("N1", 1, bad)

    def test_from_ambient_normalizes(self):
        space = _lorentz4()
        b = BuildingBlock.from_ambient("N1", space, [1, 1, 0, 0])
        assert b.alpha == Fraction(2)
        # the shared form keeps signature (2, 1)
        assert b.shared.signature() == (2, 1, 0)

    def test_from_ambient_rejects_timelike_wall(self):
        with pytest.raises(NotAdmissible):
            BuildingBlock.from_ambient("N1", _lorentz4(), [0, 0, 0, 1])

    def test_glue_map_ratio(self):
        b1 = BuildingBlock("N1", 1, _shared3())
        b2 = BuildingBlock("N2", 2, _shared3())
        g = GlueMap.from_blocks(b1, b2)
        assert g.ratio == Fraction(2)
        assert not g.ratio_is_square
        g2 = GlueMap.from_blocks(b1, BuildingBlock("N4", 4, _shared3()))
        assert g2.ratio_is_square and g2.ratio_sqrt == Fraction(2)

    def test_glue_map_requires_identical_shared_forms(self):
        b1 = BuildingBlock("N1", 1, _shared3())
        other = QuadraticSpace.diagonal(QQ, [1, 2, -1])
        b2 = BuildingBlock("N2", 1, other)
        with pytest.raises(MalformedComplex):
            GlueMap.from_blocks(b1, b2)


# ---------------------------------------------------------------------------
# Transport: worked cases
# ---------------------------------------------------------------------------


class TestTransport:
    def setup_method(self):
        self.glue = GlueMap(QQ, 2, 4)

    def test_xi_equal_wall_normal_is_rational(self):
        U = _subspace(QQ, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        verdict = transported_subspace_rational(self.glue, U, [1, 0, 0, 0])
        assert verdict.status == RATIONAL
        assert verdict.k_basis is not None
        assert verdict.k_basis.dim == 3

    def test_tilted_xi_is_irrational(self):
        U = _subspace(QQ, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        verdict = transported_subspace_rational(self.glue, U, [1, 1, 0, 0])
        assert verdict.status == IRRATIONAL
        assert verdict.k_basis is None

    def test_tilt_absorbed_by_u_is_rational(self):
        U = _subspace(QQ, 4, [[0, 1, 0, 0], [0, 0, 1, 0]])
        verdict = transported_subspace_rational(self.glue, U, [1, 1, 0, 0])
        assert verdict.status == RATIONAL

    def test_square_ratio_always_rational(self):
        glue = GlueMap(QQ, Fraction(9, 4), 4)
        U = _subspace(QQ, 4, [[0, 0, 1, 0]])
        verdict = transported_subspace_rational(glue, U, [2, 5, 7, 11])
        assert verdict.status == RATIONAL
        # only the wall coordinate is rescaled: Phi(xi) = (3, 5, 7, 11)
        assert verdict.k_basis.contains([3, 5, 7, 11])

    def test_xi_inside_hypersurface_raises(self):
        U = _subspace(QQ, 4, [[0, 0, 1, 0]])
        with pytest.raises(XiInsideH):
            transported_subspace_rational(self.glue, U, [0, 1, 0, 0])

    def test_u_outside_hypersurface_rejected(self):
        U = _subspace(QQ, 4, [[1, 0, 0, 0]])
        with pytest.raises(Exception):
            transported_subspace_rational(self.glue, U, [1, 0, 0, 0])

    def test_transport_over_real_quadratic_field(self):
        K = NumberField([-2, 0, 1])  # Q(sqrt 2)
        t = K.gen
        glue = GlueMap(K, t, 3)  # sqrt(t) generates a degree-4 field
        assert not glue.ratio_is_square
        U = Subspace(K, 3, [[0, 1, 0]])
        assert transported_subspace_rational(glue, U, [1, 0, 0]).status == RATIONAL
        assert transported_subspace_rational(glue, U, [1, 0, 1]).status == IRRATIONAL
        assert transported_subspace_rational(glue, U, [1, t, 0]).status == RATIONAL

    def test_xi_with_extension_coordinates(self):
        # xi may live over K(sqrt(ratio)); stability is still decided exactly
        L = QuadraticExt(QQ, 2)
        r = L.gen
        U = _subspace(QQ, 4, [[0, 0, 1, 0]])
        # xi = (1, r, 0, 0): Phi(xi) = (r, r, 0, 0) = r*(1,1,0,0), a K-line
        verdict = transported_subspace_rational(
            self.glue, U, [L.one, r, L.zero, L.zero]
        )
        assert verdict.status == RATIONAL
        assert verdict.k_basis.contains([1, 1, 0, 0])
        # xi = (1, 1 + r, 0, 0) transports to something unstable
        verdict = transported_subspace_rational(
            self.glue, U, [L.one, L.one + r, L.zero, L.zero]
        )
        assert verdict.status == IRRATIONAL


# ---------------------------------------------------------------------------
# Transport: oracle comparison
# ---------------------------------------------------------------------------
#
# For U inside H and xi with nonzero wall coordinate, the span
# span(sqrt(r) xi0 e0 + xi_H, U) is Galois stable exactly when xi_H falls in
# U.  The implementation decides stability by one rank over K; this oracle
# derives the answer independently from the membership test.


def _membership_oracle(U: Subspace, xi) -> str:
    xi_h = [QQ.coerce(0)] + [QQ.coerce(c) for c in xi[1:]]
    return RATIONAL if U.contains(xi_h) else IRRATIONAL


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    ratio=st.sampled_from([2, 3, 5, 6, 7, 10]),
)
def test_transport_matches_membership_oracle(data, ratio):
    n = data.draw(st.integers(min_value=2, max_value=4), label="ambient dim")
    glue = GlueMap(QQ, ratio, n)
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1),
            min_size=0,
            max_size=n - 1,
        ),
        label="U rows (hypersurface coords)",
    )
    U = Subspace(QQ, n, [[0] + r for r in rows])
    xi0 = data.draw(st.integers(1, 3), label="xi0")
    xi_rest = data.draw(
        st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1), label="xi_H"
    )
    xi = [xi0] + xi_rest
    verdict = transported_subspace_rational(glue, U, xi)
    assert verdict.status == _membership_oracle(U, xi)
    if verdict.status == RATIONAL:
        # the rational span is e0 + U itself
        expected = Subspace(QQ, n, [[1] + [0] * (n - 1)] + list(U.basis))
        assert verdict.k_basis == expected


# The descent oracle is the former implementation: build the span over
# L = K(sqrt(ratio)), compare it with its Galois conjugate and descend it
# with `field_of_definition`.  The library decides the same question by one
# rank over K.


def _galois_descent_oracle(glue: GlueMap, U: Subspace, xi):
    L = QuadraticExt(glue.field, glue.ratio)
    w = [L.coerce(c) for c in xi]
    phi_xi = [L.gen * w[0]] + w[1:]
    n = glue.ambient_dim
    W = Subspace(L, n, [phi_xi] + [[L.from_base(c) for c in b] for b in U.basis])
    conj = Subspace(L, n, [[c.conjugate() for c in b] for b in W.basis])
    if W != conj:
        return IRRATIONAL, None
    k_basis = field_of_definition(W)
    assert k_basis is not None
    return RATIONAL, k_basis


_SQRT2 = NumberField([-2, 0, 1])
_T = _SQRT2.gen
# (K, nonsquare ratios of K)
_DESCENT_FIELDS = [
    (QQ, [2, 3, 5, Fraction(3, 2), -1]),
    (_SQRT2, [3, _T, 1 + _T, 3 + _T, -1]),
]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), case=st.sampled_from(_DESCENT_FIELDS))
def test_transport_matches_galois_descent_oracle(data, case):
    K, ratios = case
    n = data.draw(st.integers(2, 4), label="ambient dim")
    glue = GlueMap(K, data.draw(st.sampled_from(ratios), label="ratio"), n)
    L = QuadraticExt(K, glue.ratio)
    small = st.integers(-2, 2)

    def base_element(label):
        coords = data.draw(st.lists(small, min_size=K.degree, max_size=K.degree),
                           label=label)
        return K.element(coords)

    rows = data.draw(st.integers(0, n - 1), label="U rank bound")
    U = Subspace(K, n, [[0] + [base_element("U entry") for _ in range(n - 1)]
                        for _ in range(rows)])
    xi = []
    for _ in range(n):
        x = base_element("x")
        if data.draw(st.booleans(), label="over L"):
            xi.append(L.element(x, base_element("y")))
        else:
            xi.append(x)
    if not xi[0]:
        with pytest.raises(XiInsideH):
            transported_subspace_rational(glue, U, xi)
        return
    verdict = transported_subspace_rational(glue, U, xi)
    assert (verdict.status, verdict.k_basis) == _galois_descent_oracle(glue, U, xi)


def test_transport_rejects_coordinates_of_another_extension():
    glue = GlueMap(QQ, 2, 3)
    U = Subspace(QQ, 3, [[0, 1, 0]])
    other = QuadraticExt(QQ, 3)
    with pytest.raises(FieldMismatch):
        transported_subspace_rational(glue, U, [1, other.gen, 0])
    with pytest.raises(FieldMismatch):
        transported_subspace_rational(glue, U, [1, _T, 0])


def test_transport_rejects_extension_coordinates_under_a_square_ratio():
    glue = GlueMap(QQ, 4, 3)
    L = QuadraticExt(QQ, 2)
    U = Subspace(QQ, 3, [[0, 1, 0]])
    with pytest.raises(TypeError):
        transported_subspace_rational(glue, U, [L.one, L.gen, L.zero])


def test_transport_rejects_non_numbers():
    glue = GlueMap(QQ, 2, 3)
    U = Subspace(QQ, 3, [[0, 1, 0]])
    with pytest.raises(TypeError):
        transported_subspace_rational(glue, U, [1, "1", 0])
    with pytest.raises(DimensionMismatch):
        transported_subspace_rational(glue, U, [1, 0])


# ---------------------------------------------------------------------------
# Field of definition
# ---------------------------------------------------------------------------


class TestFieldOfDefinition:
    def setup_method(self):
        self.L = QuadraticExt(QQ, 2)
        self.r = self.L.gen

    def test_unstable_line_has_no_k_form(self):
        one = self.L.one
        S = Subspace(self.L, 2, [[one, self.r]])
        assert field_of_definition(S) is None

    def test_conjugate_pair_descends_to_full_plane(self):
        one = self.L.one
        S = Subspace(self.L, 2, [[one, self.r], [one, -self.r]])
        SK = field_of_definition(S)
        assert SK is not None
        assert SK == Subspace.full(QQ, 2)

    def test_rational_line_descends(self):
        one = self.L.one
        S = Subspace(self.L, 3, [[one, 2 * one, -one]])
        SK = field_of_definition(S)
        assert SK == Subspace(QQ, 3, [[1, 2, -1]])

    def test_round_trip_on_symmetrized_spans(self):
        # span{v, conj v} is always defined over K
        one = self.L.one
        v = [one + self.r, 3 * self.r, one]
        vbar = [c.conjugate() for c in v]
        S = Subspace(self.L, 3, [v, vbar])
        SK = field_of_definition(S)
        assert SK is not None and SK.dim == 2
        embedded = Subspace(
            self.L, 3, [[self.L.from_base(c) for c in b] for b in SK.basis]
        )
        assert embedded == S

    def test_rejects_plain_number_fields(self):
        with pytest.raises(TypeError):
            field_of_definition(Subspace(QQ, 2, [[1, 0]]))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_field_of_definition_round_trip_random(data):
    L = QuadraticExt(QQ, 3)
    n = data.draw(st.integers(2, 4), label="ambient")
    k = data.draw(st.integers(1, n), label="rank")
    rows = []
    for _ in range(k):
        row = []
        for _ in range(n):
            x = data.draw(st.integers(-2, 2))
            y = data.draw(st.integers(-2, 2))
            row.append(L.element(x, y))
        rows.append(row)
    order = data.draw(st.randoms(use_true_random=False))
    sym = rows + [[c.conjugate() for c in r] for r in rows]
    order.shuffle(sym)
    S = Subspace(L, n, sym)
    SK = field_of_definition(S)
    assert SK is not None
    embedded = Subspace(L, n, [[L.from_base(c) for c in b] for b in SK.basis])
    assert embedded == S


# ---------------------------------------------------------------------------
# Angles
# ---------------------------------------------------------------------------


class TestAngle:
    def test_worked_half(self):
        space = _lorentz4()
        Z = Subspace(QQ, 4, [[1, 1, 0, 0]])
        v = angle_with_hypersurface(space, [1, 0, 0, 0], Z)
        assert v == Fraction(1, 2)

    def test_zero_when_z_inside_hypersurface(self):
        space = _lorentz4()
        e = [1, 0, 0, 0]
        Z = Subspace(QQ, 4, [[0, 1, 0, 0], [0, 0, 1, 0]])
        assert angle_with_hypersurface(space, e, Z) == 0

    def test_one_when_e_inside_z(self):
        space = _lorentz4()
        Z = Subspace(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert angle_with_hypersurface(space, [1, 0, 0, 0], Z) == 1

    def test_negative_value_when_z_is_indefinite(self):
        # q is indefinite on Z, so the nonnegativity certificate does not
        # apply: P_Z e = (0, 0, 0, 1) is timelike and the value is returned.
        space = _lorentz4()
        Z = Subspace(QQ, 4, [[1, 0, 0, 0], [0, 0, 0, 1]])
        assert angle_with_hypersurface(space, [0, 2, 0, 1], Z) == Fraction(-1, 3)

    def test_zero_dimensional_z(self):
        space = _lorentz4()
        assert angle_with_hypersurface(space, [1, 0, 0, 0], Subspace.zero(QQ, 4)) == 0

    def test_isotropic_wall_normal_rejected(self):
        space = _lorentz4()
        Z = Subspace(QQ, 4, [[1, 0, 0, 0]])
        with pytest.raises(DegenerateRestriction):
            angle_with_hypersurface(space, [0, 0, 1, 1], Z)

    def test_degenerate_restriction_rejected(self):
        space = _lorentz4()
        Z = Subspace(QQ, 4, [[0, 0, 1, 1]])  # isotropic line
        with pytest.raises(DegenerateRestriction):
            angle_with_hypersurface(space, [1, 0, 0, 0], Z)

    def test_angle_over_quadratic_field(self):
        K = NumberField([-5, 0, 1])  # Q(sqrt 5)
        t = K.gen
        space = QuadraticSpace.diagonal(K, [1, 1, -1])
        Z = Subspace(K, 3, [[1, t, 0]])
        v = angle_with_hypersurface(space, [1, 0, 0], Z)
        # <e,z> = 1, q(z) = 1 + 5 = 6, q(Pz e) = 1/6
        assert v == K.from_fraction(Fraction(1, 6))

    def test_complement_of_span_containing_e_gives_zero(self):
        space = _lorentz4()
        e = [1, 0, 0, 0]
        W = Subspace(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        Z = complement_q(space.gram, W)
        assert angle_with_hypersurface(space, e, Z) == 0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_angle_range_for_spacelike_lines(data):
    # value in [0,1] exactly when the plane span(e, z) is positive
    # semidefinite (the hyperplanes meet); above 1 otherwise (they diverge
    # and the value is the cosh^2 of the distance)
    space = _lorentz4()
    e = [1, 0, 0, 0]
    row = data.draw(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3).filter(any),
        label="spanning row",
    )
    z = [data.draw(st.integers(-3, 3), label="tilt")] + row
    Z = Subspace(QQ, 4, [z])
    restricted = space.restrict(Z)
    if restricted.is_degenerate or restricted.signature() != (1, 0, 0):
        return
    v = angle_with_hypersurface(space, e, Z).to_fraction()
    assert v >= 0
    qz = space.evaluate(z).to_fraction()
    ez = space.inner_product(vec(QQ, e), vec(QQ, z)).to_fraction()
    plane_det = qz - ez * ez  # det of the (e, z) Gram, q(e) = 1
    if plane_det >= 0:
        assert v <= 1
    else:
        assert v > 1


# ---------------------------------------------------------------------------
# Complexes, patterns, verdicts
# ---------------------------------------------------------------------------


def _blocks(alphas, shared=None):
    shared = shared or _shared3()
    return {
        f"N{i}": BuildingBlock(f"N{i}", a, shared)
        for i, a in enumerate(alphas, start=1)
    }


class TestValidate:
    def test_gps_ok(self):
        cx = BlockComplex("gps", _blocks([1, 2]), [Gluing("N1", "N2")])
        pairs = validate_complex(cx)
        assert [(p.left, p.right) for p in pairs] == [("N1", "N2")]

    def test_gps_wrong_counts(self):
        cx = BlockComplex("gps", _blocks([1, 2, 3]),
                          [Gluing("N1", "N2"), Gluing("N2", "N3")])
        with pytest.raises(MalformedComplex):
            validate_complex(cx)

    def test_cycle_ok(self):
        cx = BlockComplex(
            "cycle",
            _blocks([1, 2, 3]),
            [Gluing("N1", "N2"), Gluing("N2", "N3"), Gluing("N3", "N1")],
        )
        validate_complex(cx)

    def test_cycle_two_blocks_parallel_edges(self):
        cx = BlockComplex(
            "cycle", _blocks([1, 2]), [Gluing("N1", "N2"), Gluing("N2", "N1")]
        )
        validate_complex(cx)

    def test_cycle_wrong_degree(self):
        cx = BlockComplex(
            "cycle",
            _blocks([1, 2, 3]),
            [Gluing("N1", "N2"), Gluing("N2", "N3")],
        )
        with pytest.raises(MalformedComplex):
            validate_complex(cx)

    def test_cycle_disconnected(self):
        cx = BlockComplex(
            "cycle",
            _blocks([1, 2, 3, 5]),
            [
                Gluing("N1", "N2"),
                Gluing("N2", "N1"),
                Gluing("N3", "N4"),
                Gluing("N4", "N3"),
            ],
        )
        with pytest.raises(MalformedComplex):
            validate_complex(cx)

    def test_unknown_block_reference(self):
        cx = BlockComplex("general", _blocks([1]), [Gluing("N1", "N9")])
        with pytest.raises(MalformedComplex):
            validate_complex(cx)

    def test_gl_ok(self):
        shared = _shared3()
        blocks = {
            "E": BuildingBlock("E", 1, shared, color=0),
            "P1": BuildingBlock("P1", 2, shared, color=1),
            "P2": BuildingBlock("P2", 3, shared, color=1),
        }
        gluings = [
            Gluing("E", "P1", "a"),
            Gluing("P1", "E", "b"),
            Gluing("E", "P2", "b"),
            Gluing("P2", "E", "a"),
            Gluing("P1", "P2", "a"),
            Gluing("P2", "P1", "b"),
        ]
        cx = BlockComplex("gl", blocks, gluings)
        validate_complex(cx)

    def test_gl_missing_label(self):
        shared = _shared3()
        blocks = {
            "E": BuildingBlock("E", 1, shared, color=0),
            "P1": BuildingBlock("P1", 2, shared, color=1),
            "P2": BuildingBlock("P2", 3, shared, color=1),
        }
        gluings = [
            Gluing("E", "P1", "a"),
            Gluing("P1", "E", "b"),
            Gluing("E", "P2", "b"),
            Gluing("P2", "E", "a"),
            Gluing("P1", "P2", None),
            Gluing("P2", "P1", "b"),
        ]
        with pytest.raises(MalformedComplex):
            validate_complex(BlockComplex("gl", blocks, gluings))

    def test_gl_needs_singleton_color_class(self):
        shared = _shared3()
        blocks = {
            "E": BuildingBlock("E", 1, shared, color=0),
            "F": BuildingBlock("F", 2, shared, color=0),
        }
        gluings = [
            Gluing("E", "F", "a"),
            Gluing("F", "E", "a"),
            Gluing("E", "F", "b"),
            Gluing("F", "E", "b"),
        ]
        with pytest.raises(MalformedComplex):
            validate_complex(BlockComplex("gl", blocks, gluings))

    def test_bad_pattern_name(self):
        with pytest.raises(MalformedComplex):
            BlockComplex("ring", _blocks([1]), [])


class TestFiniteness:
    def test_gps_distinct_discs_met(self):
        cx = BlockComplex("gps", _blocks([1, 2]), [Gluing("N1", "N2")])
        rep = finiteness_verdict(cx)
        assert rep.verdict == HYPOTHESES_MET
        pair = rep.pairs[0]
        assert pair.similarity.status == "NotSimilar"
        assert pair.ratio == Fraction(2)
        assert not pair.ratio_is_square
        assert pair.forced_orthogonal

    def test_square_ratio_not_met(self):
        cx = BlockComplex("gps", _blocks([1, 4]), [Gluing("N1", "N2")])
        rep = finiteness_verdict(cx)
        assert rep.verdict == HYPOTHESES_NOT_MET
        assert rep.pairs[0].ratio_is_square
        assert not rep.pairs[0].forced_orthogonal

    def test_validate_records_dissimilar_pair(self):
        cx = BlockComplex("gps", _blocks([1, 2]), [Gluing("N1", "N2")])
        (pair,) = validate_complex(cx)
        assert pair.similarity.status == NOT_SIMILAR

    def test_monotone_under_added_blocks(self):
        # once a dissimilar pair exists, adding blocks never downgrades
        blocks = _blocks([1, 2])
        cx = BlockComplex("general", dict(blocks), [Gluing("N1", "N2")])
        assert finiteness_verdict(cx).verdict == HYPOTHESES_MET
        grown = dict(blocks)
        grown["M1"] = BuildingBlock("M1", 4, _shared3())
        grown["M2"] = BuildingBlock("M2", 9, _shared3())
        cx2 = BlockComplex(
            "general",
            grown,
            [Gluing("N1", "N2"), Gluing("N2", "M1"), Gluing("M1", "M2")],
        )
        assert finiteness_verdict(cx2).verdict == HYPOTHESES_MET

    def test_cycle_one_bad_edge_met(self):
        # alphas 1, 4, 2: edges (1,4) similar, (4,2) and (2,1) not (disc)
        cx = BlockComplex(
            "cycle",
            _blocks([1, 4, 2]),
            [Gluing("N1", "N2"), Gluing("N2", "N3"), Gluing("N3", "N1")],
        )
        rep = finiteness_verdict(cx)
        assert rep.verdict == HYPOTHESES_MET

    def test_square_ratio_of_large_height_is_not_a_dissimilarity(self, tmp_path, capsys):
        # b = 1/(10^30+57) + 3t/(10^30+61) over Q(sqrt 2): the ambient forms
        # <1> + q and <b^2> + q are isometric, so no dissimilarity holds.
        K = NumberField([-2, 0, 1], embedding=0)
        b = Fraction(1, 10**30 + 57) + 3 * K.gen / (10**30 + 61)
        c0, c1 = (b * b).coords
        path = tmp_path / "pair.cpx"
        path.write_text(
            "field 1 0 -2\npattern gps\nshared diag 1 1 -1+t\n"
            f"block N1 alpha 1\nblock N2 alpha [{c0},{c1}]\nglue N1 N2\n"
        )
        assert main(["hybrid", "verify", str(path), "--json", "-"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        assert report["verdict"] == HYPOTHESES_NOT_MET
        (pair,) = report["pairs"]
        assert pair["similarity"]["status"] == "Similar"
        assert pair["similarity"]["lambda"] == "1"
        assert pair["ratio_square"] is True

    def test_unknown_edges_possible_over_number_field(self):
        K = NumberField([-2, 0, 1])
        t = K.gen
        # negative at the chosen (larger) embedding, positive at the other
        shared = QuadraticSpace.diagonal(K, [1, 1, -t])
        blocks = {
            "N1": BuildingBlock("N1", 1, shared),
            "N2": BuildingBlock("N2", 3 + t, shared),
        }
        cx = BlockComplex("gps", blocks, [Gluing("N1", "N2")])
        rep = finiteness_verdict(cx)
        assert rep.verdict in (HYPOTHESES_MET, HYPOTHESES_UNKNOWN)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


GPS_TEXT = """
# a two-block complex over Q(sqrt 2); [a,b] means a + b*t
field 1 0 -2
embedding 1
pattern gps
shared diag 1 1 [0,-1]
block N1 alpha 1
block N2 alpha [2,1]
glue N1 N2
"""


class TestParse:
    def test_gps_file(self):
        cx = parse_complex(GPS_TEXT)
        assert cx.pattern == "gps"
        assert set(cx.blocks) == {"N1", "N2"}
        K = cx.field
        assert cx.blocks["N2"].alpha == K.from_fraction(2) + K.gen
        validate_complex(cx)
        rep = finiteness_verdict(cx)
        assert rep.verdict in (HYPOTHESES_MET, HYPOTHESES_UNKNOWN,
                               HYPOTHESES_NOT_MET)

    def test_parse_gl_labels(self):
        text = """
field 1 -2
pattern gl
shared diag 1 1 -1
block E alpha 1 color 0
block P1 alpha 2 color 1
block P2 alpha 3 color 1
glue E P1 label a
glue P1 E label b
glue E P2 label b
glue P2 E label a
glue P1 P2 label a
glue P2 P1 label b
"""
        cx = parse_complex(text)
        validate_complex(cx)

    def test_missing_field_line(self):
        with pytest.raises(ParseError):
            parse_complex("pattern gps\nshared diag 1 -1\nblock A alpha 1\n")

    def test_bad_directive_reports_line(self):
        try:
            parse_complex("field 1 0 -2\nwibble 3\n")
        except ParseError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected ParseError")

    def test_duplicate_block(self):
        text = (
            "field 1 -2\npattern general\nshared diag 1 -1\n"
            "block A alpha 1\nblock A alpha 2\n"
        )
        with pytest.raises(ParseError):
            parse_complex(text)

    def test_inadmissible_alpha_rejected_at_parse(self):
        text = (
            "field 1 -2\npattern general\nshared diag 1 -1\nblock A alpha -1\n"
        )
        with pytest.raises(ParseError):
            parse_complex(text)

    def test_multiline_block_with_inline_form(self):
        text = """
field 1 -2
pattern gps
block A
diag 1 1 -1
alpha 1
block B alpha 2
diag 1 1 -1
glue A B
"""
        # block B is a one-liner, so its 'diag' line must be rejected
        with pytest.raises(ParseError):
            parse_complex(text)
        text_ok = """
field 1 -2
pattern gps
block A
diag 1 1 -1
alpha 1
block B
diag 1 1 -1
alpha 2
glue A B
"""
        cx = parse_complex(text_ok)
        assert cx.blocks["A"].alpha == 1
        assert cx.blocks["B"].alpha == 2
        assert finiteness_verdict(cx).verdict == HYPOTHESES_MET

    def test_block_without_any_form(self):
        text = "field 1 -2\npattern general\nblock A alpha 1\n"
        with pytest.raises(ParseError):
            parse_complex(text)

    def test_block_missing_alpha(self):
        text = "field 1 -2\npattern general\nblock A\ndiag 1 -1\nglue A A\n"
        with pytest.raises(ParseError):
            parse_complex(text)

    def test_embedding_directive(self):
        # with embedding 0 chosen (t = -sqrt 2), diag(1, t) is Lorentzian
        # there and positive definite at the unchosen embedding
        text = (
            "field 1 0 -2\nembedding 0\npattern general\n"
            "shared diag 1 [0,1]\nblock A alpha 1\n"
        )
        cx = parse_complex(text)
        assert cx.field.chosen_embedding == 0
