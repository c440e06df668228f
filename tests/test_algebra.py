"""Exact arithmetic kernels: polynomials, number fields, squares, integrality."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyplat.algebra import polynomials as P
from hyplat.algebra.arith import in_square_class_span
from hyplat.algebra.numberfield import (
    QQ,
    NumberField,
    approx_at_embedding,
    is_algebraic_integer,
    is_square,
    multiplication_matrix,
    rational_square_root,
    sign_at_embedding,
)
from hyplat.algebra.quadratic_ext import QuadraticExt
from hyplat.coxeter import entry_field
from hyplat.errors import DivisionByZero, FieldMismatch, NotTotallyReal

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


@given(st.lists(st.fractions(max_denominator=50), max_size=6),
       st.fractions(max_denominator=10**30))
def test_poly_sign_is_the_sign_of_poly_eval(coeffs, x):
    v = P.poly_eval(P.poly(coeffs), x)
    assert P.poly_sign(P.poly(coeffs), x) == (v > 0) - (v < 0)


def _int_mul(f, g):
    return [int(c) for c in P.poly_mul(P.poly(f), P.poly(g))]


@st.composite
def _monic_int_polys(draw):
    """Monic integer polynomials of degree 2..8; half of them products of
    two random monic factors."""
    coeff = st.integers(-20, 20)
    if draw(st.booleans()):
        f = draw(st.lists(coeff, min_size=2, max_size=8)) + [1]
    else:
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        f = _int_mul(draw(st.lists(coeff, min_size=a, max_size=a)) + [1],
                     draw(st.lists(coeff, min_size=b, max_size=b)) + [1])
    return f


@settings(max_examples=150, deadline=None)
@given(_monic_int_polys())
def test_factor_squarefree_matches_sympy(f):
    import sympy

    if not P.is_squarefree(P.poly(f)):
        return
    x = sympy.Symbol("x")
    ref = sympy.Poly(list(reversed(f)), x)
    factors = P.factor_squarefree(f)
    theirs = sorted(
        (tuple(int(c) for c in reversed(g.all_coeffs())) for g, _ in ref.factor_list()[1]),
        key=lambda g: (len(g), g),
    )
    assert factors == theirs
    assert (len(factors) == 1) == ref.is_irreducible


# Irreducible over Q but reducible modulo every prime, so only the
# recombination over Z proves them irreducible.
EVERYWHERE_REDUCIBLE = {
    "x^4 + 1": [1, 0, 0, 0, 1],
    "x^4 - 10x^2 + 1": [1, 0, -10, 0, 1],
    "x^4 - 14x^2 + 9": [9, 0, -14, 0, 1],
    "min poly of sqrt2 + sqrt3 + sqrt5": [576, 0, -960, 0, 352, 0, -40, 0, 1],
}


@pytest.mark.parametrize("name", EVERYWHERE_REDUCIBLE)
def test_irreducible_though_reducible_mod_every_prime(name):
    f = EVERYWHERE_REDUCIBLE[name]
    assert P.factor_squarefree(f) == [tuple(f)]
    if name != "x^4 + 1":  # the only one with no real root
        assert NumberField(f).is_totally_real


def test_factor_squarefree_splits_products():
    quad, cubic = [-2, 0, 1], [1, -3, 0, 1]
    assert P.factor_squarefree(_int_mul(quad, cubic)) == [tuple(quad), tuple(cubic)]
    linears = [(-3, 1), (0, 1), (2, 1), (5, 1)]
    f = [1]
    for g in linears:
        f = _int_mul(f, g)
    assert P.factor_squarefree(f) == sorted(linears)
    # Coefficients past the Miller-Rabin proof range: a Mersenne modulus.
    big = 10**30
    assert P.factor_squarefree([-3 * big, big - 3, 1]) == [(-3, 1), (big, 1)]
    assert P.factor_squarefree([-(big + 7), 0, 1]) == [(-(big + 7), 0, 1)]
    with pytest.raises(ValueError, match="too large to factor"):
        P.factor_squarefree([-(2**1300 + 1), 0, 1])


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
    with pytest.raises(ValueError, match="rational root -1$"):
        NumberField([-1, 0, 1])  # (x-1)(x+1): the least root is named
    with pytest.raises(ValueError, match="squarefree"):
        NumberField([0, 0, 1])
    with pytest.raises(ValueError, match="no real root"):
        NumberField([1, 0, 1])
    with pytest.raises(ValueError, match="rational root -1$"):
        NumberField([1, 2, 0, 0, 1])  # x^4 + 2x + 1
    with pytest.raises(ValueError, match="is reducible"):
        NumberField([1, 0, 1, 0, 1])  # x^4 + x^2 + 1 = (x^2+x+1)(x^2-x+1)
    with pytest.raises(ValueError, match="is reducible"):
        NumberField([6, 0, -5, 0, 1])  # (x^2-2)(x^2-3)


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


def test_is_square_refuses_fields_with_complex_embeddings():
    K = NumberField([-2, 0, 0, 1])  # Q(cbrt 2): one real, two complex embeddings
    with pytest.raises(NotTotallyReal):
        is_square(K.gen)
    with pytest.raises(NotTotallyReal):
        QuadraticExt(K, K.gen)


def test_is_algebraic_integer_golden_ratio(K5):
    t = K5.gen
    phi = (1 + t) / 2
    assert is_algebraic_integer(phi)
    assert P.charpoly_rational(multiplication_matrix(phi)) == P.poly([-1, -1, 1])
    assert not is_algebraic_integer((1 + t) / 3)
    assert not is_algebraic_integer(t / 2)
    assert is_algebraic_integer(K5.from_fraction(7))
    assert not is_algebraic_integer(K5.from_fraction(F(1, 2)))
    # degree 8: the Coxeter entry field Q(sqrt 2, sqrt 3, sqrt 5)
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


# Totally real fields, each with the square classes of the integers whose
# square roots it holds: Q(sqrt 2), Q(sqrt 5), x^3 - 3x + 1 (none),
# x^4 - 14x^2 + 9 = Q(sqrt 2, sqrt 5) and the degree-8 entry field.
SQUARE_FIELDS = [
    (NumberField([-2, 0, 1], embedding=0), (2,)),
    (NumberField([-5, 0, 1]), (5,)),
    (NumberField([1, -3, 0, 1], embedding=0), ()),
    (NumberField([9, 0, -14, 0, 1], embedding=0), (2, 5)),
    (entry_field(), (2, 3, 5)),
]


@st.composite
def high_elements(draw):
    """(field, square classes, nonzero b) with b's height up to 10^40: integer
    coordinates and a common denominator, each at most 10^40 in size."""
    K, classes = draw(st.sampled_from(SQUARE_FIELDS))
    den = draw(st.integers(1, 10**40))
    nums = draw(st.lists(st.integers(-(10**40), 10**40), min_size=K.degree,
                         max_size=K.degree).filter(any))
    return K, classes, K.element([Fraction(c, den) for c in nums])


# One element of height exactly 10^40 in each field, with a scalar d.
TALL = [
    ((K, classes, K.element([Fraction((-1) ** i * (10**40 - 7 * i), 10**40 - 3)
                             for i in range(K.degree)])), d)
    for (K, classes), d in zip(SQUARE_FIELDS, (2, 5, 3, 10, 30))
]


@given(high_elements(), st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15, 30, -1, -2]))
@example(*TALL[0])
@example(*TALL[1])
@example(*TALL[2])
@example(*TALL[3])
@example(*TALL[4])
@settings(max_examples=60, deadline=None)
def test_square_always_recognized(field_b, d):
    K, classes, b = field_b
    sq = b * b
    r = is_square(sq)
    assert r is not None
    assert r * r == sq
    assert sign_at_embedding(r, K.n_real_embeddings - 1) > 0
    r = is_square(sq * d)
    assert (r is None) == (not in_square_class_span(classes, d))
    assert r is None or r * r == sq * d


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
