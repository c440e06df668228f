"""Exact arithmetic kernels: polynomials, number fields, squares, integrality."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplat.algebra import polynomials as P
from hyplat.algebra.numberfield import (
    QQ,
    NumberField,
    approx_at_embedding,
    element_charpoly,
    is_algebraic_integer,
    is_square,
    rational_square_root,
    sign_at_embedding,
)
from hyplat.errors import DivisionByZero, FieldMismatch

F = Fraction


# ---------------------------------------------------------------------------
# polynomial layer
# ---------------------------------------------------------------------------


def test_poly_divmod_roundtrip():
    f = P.poly([1, 0, -3, 2, 1])
    g = P.poly([2, 1, 1])
    q, r = P.poly_divmod(f, g)
    assert P.poly_add(P.poly_mul(q, g), r) == f
    assert P.degree(r) < P.degree(g)


def test_gcd_of_coprime_is_one():
    assert P.poly_gcd(P.poly([-2, 0, 1]), P.poly([-3, 0, 1])) == P.poly([1])


def test_sturm_counts_quadratic():
    f = P.poly([-2, 0, 1])  # x^2 - 2
    roots = P.isolate_real_roots(f)
    assert len(roots) == 2
    (a1, b1), (a2, b2) = roots
    assert a1 < -F(14142, 10001) < b1 or (a1 <= -1 and b1 >= -2)  # contains -sqrt2
    assert all(P.poly_eval(f, e) != 0 for e in (a1, b1, a2, b2))


def test_isolate_octic_biquadratic():
    # (x^2-2)(x^2-3)(x^2-5)(x^2-7) has 8 simple real roots
    f = P.poly([-2, 0, 1])
    for c in (-3, -5, -7):
        f = P.poly_mul(f, P.poly([c, 0, 1]))
    assert len(P.isolate_real_roots(f)) == 8


def test_interval_eval_encloses():
    f = P.poly([1, -2, 3])
    lo, hi = P.interval_eval(f, F(1, 2), F(3, 4))
    for x in (F(1, 2), F(5, 8), F(3, 4)):
        assert lo <= P.poly_eval(f, x) <= hi


def test_resultant_and_discriminant():
    # disc(x^2 + bx + c) = b^2 - 4c
    assert P.discriminant(P.poly([3, 5, 1])) == 25 - 12
    # disc(x^2 - 2) = 8
    assert P.discriminant(P.poly([-2, 0, 1])) == 8
    # resultant of polynomials with a common root is 0
    f = P.poly_mul(P.poly([-1, 1]), P.poly([1, 1]))
    assert P.resultant(f, P.poly([-1, 1])) == 0


def test_rational_roots():
    f = P.poly_mul(P.poly([-1, 2]), P.poly([3, 1]))  # (2x-1)(x+3)
    assert P.rational_roots(f) == [F(-3), F(1, 2)]


@st.composite
def _rational_matrices(draw):
    n = draw(st.integers(1, 8))
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@settings(max_examples=40, deadline=None)
@given(_rational_matrices())
def test_charpoly_rational_trace_det(rows):
    import sympy

    n = len(rows)
    cp = P.charpoly_rational(rows)
    ref = sympy.Matrix(rows).charpoly().all_coeffs()  # descending
    assert cp == P.poly(F(int(c.p), int(c.q)) for c in reversed(ref))
    # x^n - tr x^(n-1) + ... + (-1)^n det
    assert cp[n] == 1
    assert cp[n - 1] == -sum(rows[i][i] for i in range(n))


# ---------------------------------------------------------------------------
# number fields
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def K2():
    return NumberField([-2, 0, 1])  # Q(sqrt2), chosen embedding = +sqrt2


@pytest.fixture(scope="module")
def K5():
    return NumberField([-5, 0, 1])


def test_field_validation_rejects_bad_polys():
    with pytest.raises(ValueError):
        NumberField([2, 0, 2])  # not monic
    with pytest.raises(ValueError):
        NumberField([F(1, 2), 1])  # not integral
    with pytest.raises(ValueError):
        NumberField([-1, 0, 1])  # reducible: (x-1)(x+1)
    with pytest.raises(ValueError):
        NumberField([0, 0, 1])  # not squarefree
    with pytest.raises(ValueError):
        NumberField([1, 0, 1])  # no real root
    with pytest.raises(ValueError):
        NumberField([1, 2, 0, 0, 1])  # reducible quartic (x^2+x+1)(x^2-x+1)


def test_quartic_irreducible_accepted():
    K = NumberField([1, 0, -10, 0, 1])  # min poly of sqrt2+sqrt3
    assert K.degree == 4
    assert K.is_totally_real


def test_element_arithmetic_sqrt2(K2):
    t = K2.gen
    one = K2.one
    assert (one + t) * (one - t) == -1
    assert 1 / t == t / 2
    assert (t / 2) * t == 1
    assert t**2 == 2
    assert (one + t) ** 2 == 3 + 2 * t


def test_division_by_zero(K2):
    with pytest.raises(DivisionByZero):
        K2.one / K2.zero


def test_field_mismatch(K2, K5):
    with pytest.raises(FieldMismatch):
        K2.gen + K5.gen
    # rational elements cross fields fine
    assert K2.from_fraction(3) + K5.from_fraction(4) == 7


def test_sign_at_embedding_spec_value(K2):
    t = K2.gen
    a = 3 - 2 * t
    # 3 - 2*sqrt(2) is positive (about 0.17): sign +1 at the chosen embedding
    assert sign_at_embedding(a) == 1
    # and positive at the conjugate too
    assert sign_at_embedding(a, 0) == 1
    b = 1 - t
    assert sign_at_embedding(b, 1) == -1
    assert sign_at_embedding(b, 0) == 1
    assert sign_at_embedding(K2.zero) == 0


def test_approx_at_embedding(K2):
    v = approx_at_embedding(K2.gen, digits=20)
    assert abs(v * v - 2) < F(1, 10**18)


def test_is_square_spec_witness(K2):
    t = K2.gen
    r = is_square(3 + 2 * t)
    assert r == 1 + t
    assert is_square(K2.from_fraction(2)) == t
    assert is_square(3 - 2 * t) == t - 1  # normalized positive at largest root
    assert is_square(K2.from_fraction(-1)) is None
    assert is_square(t - 3) is None  # negative at an embedding
    assert is_square(K2.zero) == 0
    assert is_square(K2.from_fraction(F(9, 4))) == F(3, 2)
    assert is_square(t) is None  # 2^(1/4) is not in the field


def test_is_square_rationals():
    assert is_square(QQ.from_fraction(F(49, 9))) == F(7, 3)
    assert is_square(QQ.from_fraction(2)) is None
    assert rational_square_root(F(50, 2)) == 5
    assert rational_square_root(F(-4)) is None


def test_is_square_quartic_field():
    K = NumberField([1, 0, -10, 0, 1])  # Q(sqrt2+sqrt3) = Q(sqrt2, sqrt3)
    g = K.gen  # sqrt2 + sqrt3
    # (g)^2 = 5 + 2*sqrt6, and sqrt6 = (g^3 - 9g)/2... just square something:
    a = (1 + g) * (1 + g)
    assert is_square(a) == 1 + g
    # 2 is a square in this field: sqrt2 = (g^3 - 9g)/(-2)
    r = is_square(K.from_fraction(2))
    assert r is not None and r * r == 2
    assert sign_at_embedding(r) == 1


def test_is_algebraic_integer_golden_ratio(K5):
    t = K5.gen
    phi = (1 + t) / 2
    assert is_algebraic_integer(phi)
    assert element_charpoly(phi) == P.poly([-1, -1, 1])
    assert not is_algebraic_integer((1 + t) / 3)
    assert not is_algebraic_integer(t / 2)
    assert is_algebraic_integer(K5.from_fraction(7))
    assert not is_algebraic_integer(K5.from_fraction(F(1, 2)))
    # degree 8: the Coxeter entry field Q(sqrt 2, sqrt 3, sqrt 5)
    from hyplat.coxeter import entry_field

    E = entry_field()
    r2, r3, r5 = E.sqrt(2), E.sqrt(3), E.sqrt(5)
    assert is_algebraic_integer((E.one + r5) / 2)
    assert is_algebraic_integer(r2 * r3 - 7 * r5)
    assert is_algebraic_integer((E.one + r5) / 2 * (r2 + r3))
    assert not is_algebraic_integer(r2 / 2)
    assert not is_algebraic_integer((E.one + r5) / 4)
    assert not is_algebraic_integer(r3 / 2 + r5 / 3)


def test_degree_one_field_roundtrip():
    assert QQ.degree == 1
    a = QQ.from_fraction(F(3, 7))
    assert a.to_fraction() == F(3, 7)
    assert sign_at_embedding(a) == 1
    assert is_algebraic_integer(QQ.from_fraction(5))
    assert not is_algebraic_integer(a)


def test_power_and_inverse(K5):
    t = K5.gen
    a = (2 + t) / (7 - 3 * t)
    assert a * (7 - 3 * t) == 2 + t
    assert a ** 0 == 1
    assert a ** 3 == a * a * a
    assert a ** -2 == 1 / (a * a)


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

small_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@st.composite
def k2_elements(draw):
    K = NumberField([-2, 0, 1])
    return K.element([draw(small_fracs), draw(small_fracs)])


@given(k2_elements(), k2_elements())
@settings(max_examples=60)
def test_mul_commutes_and_distributes(a, b):
    assert a * b == b * a
    assert a * (b + 1) == a * b + a


@given(k2_elements())
@settings(max_examples=60)
def test_inverse_roundtrip(a):
    if a:
        assert a * a.inverse() == 1


@given(k2_elements())
@settings(max_examples=60)
def test_square_always_recognized(a):
    sq = a * a
    r = is_square(sq)
    assert r is not None
    assert r * r == sq


@given(k2_elements())
@settings(max_examples=40)
def test_sign_consistent_with_approx(a):
    s = sign_at_embedding(a)
    v = approx_at_embedding(a, digits=25)
    if s == 0:
        assert v == 0
    else:
        assert (v > 0) == (s > 0)


@given(st.fractions(min_value=0, max_value=1000, max_denominator=50))
@settings(max_examples=60)
def test_rational_square_root_exact(q):
    sq = q * q
    assert rational_square_root(sq) == q
