"""Multiquadratic composita and quadratic extensions."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplat.algebra import polynomials as P
from hyplat.algebra.arith import is_squarefree
from hyplat.algebra.multiquadratic import (
    ImaginaryCompositum,
    MultiquadraticField,
    multiquadratic_field,
)
from hyplat.algebra.numberfield import QQ, NumberField, is_square, sign_at_embedding
from hyplat.algebra.quadratic_ext import QuadraticExt
from hyplat.errors import DivisionByZero, FieldMismatch

F = Fraction


def test_min_poly_of_sqrt2_sqrt3():
    K = multiquadratic_field([2, 3])
    assert isinstance(K, MultiquadraticField)
    assert K.degree == 4
    assert K.poly == P.poly([1, 0, -10, 0, 1])  # x^4 - 10x^2 + 1


def test_dependent_generators_collapse():
    K = multiquadratic_field([2, 3, 6])
    assert K.degree == 4
    assert K.generators == (2, 3)
    assert K.contains_sqrt(6)
    K2 = multiquadratic_field([2, 2])
    assert K2.degree == 2


def test_sqrt_elements_square_correctly():
    K = multiquadratic_field([2, 5])
    for d in (2, 5, 10):
        r = K.sqrt(d)
        assert r * r == d
        assert sign_at_embedding(r) == 1
    with pytest.raises(ValueError):
        K.sqrt(3)


def test_chosen_embedding_all_positive():
    K = multiquadratic_field([2, 3, 5])
    assert K.degree == 8
    assert K.is_totally_real
    assert all(
        s == 1 for s in K.embedding_sign_vector(K.chosen_embedding)
    )
    # All 8 sign vectors are distinct (they separate the embeddings).
    vecs = {K.embedding_sign_vector(j) for j in range(8)}
    assert len(vecs) == 8


def test_imaginary_compositum_bookkeeping():
    C = multiquadratic_field([-1, -7])
    assert isinstance(C, ImaginaryCompositum)
    assert C.degree == 4
    # Q(i, sqrt(-7)) = Q(i, sqrt(7)): canonical generators
    assert C.generators == (-1, 7)
    assert C.contains_sqrt(-7)
    assert C.contains_sqrt(7)
    assert C.contains_sqrt(-1)
    assert not C.contains_sqrt(5)


def test_validation():
    with pytest.raises(ValueError):
        multiquadratic_field([4])
    with pytest.raises(ValueError):
        multiquadratic_field([0])
    with pytest.raises(ValueError):
        multiquadratic_field([1])
    assert not is_squarefree(12)
    assert is_squarefree(-15)


def test_empty_generators_is_rationals():
    K = multiquadratic_field([])
    assert isinstance(K, MultiquadraticField)
    assert K.degree == 1
    assert K.contains_sqrt(1)
    assert not K.contains_sqrt(2)


def test_monomial_coordinates_roundtrip():
    K = multiquadratic_field([2, 3])
    a = K.sqrt(2) + 5 * K.sqrt(6) - F(7, 2)
    mono = K.to_monomial(a)
    # bitmask order: 1, sqrt2, sqrt3, sqrt6
    assert mono == [F(-7, 2), F(1), F(0), F(5)]


def test_is_square_in_biquadratic():
    K = multiquadratic_field([2, 3])
    a = (1 + K.sqrt(2)) * (1 + K.sqrt(2))
    assert is_square(a) == 1 + K.sqrt(2)
    assert is_square(K.from_fraction(6)) == K.sqrt(6)
    assert is_square(K.from_fraction(7)) is None


# ---------------------------------------------------------------------------
# quadratic extensions
# ---------------------------------------------------------------------------


def test_quadratic_ext_basic_arithmetic():
    L = QuadraticExt(QQ, QQ.from_fraction(5))
    r = L.gen
    assert r * r == 5
    a = 2 + 3 * r  # coercion through __radd__/__rmul__
    b = a.conjugate()
    assert a + b == 4
    assert a * b == 4 - 45
    assert (a / a) == 1
    assert a.norm() == QQ.from_fraction(-41)
    with pytest.raises(DivisionByZero):
        a / L.zero


def test_quadratic_ext_negative_delta():
    # delta = -1: the "complexified" case; arithmetic stays exact.
    L = QuadraticExt(QQ, QQ.from_fraction(-1))
    i = L.gen
    assert i * i == -1
    assert (1 + i) ** 4 == -4
    assert (1 + i).inverse() == (1 - i) / 2


def test_quadratic_ext_rejects_squares():
    with pytest.raises(ValueError):
        QuadraticExt(QQ, QQ.from_fraction(4))
    K = NumberField([-2, 0, 1])
    with pytest.raises(ValueError):
        QuadraticExt(K, K.from_fraction(2))  # 2 is a square there


def test_quadratic_ext_over_number_field():
    K = NumberField([-2, 0, 1])
    t = K.gen
    L = QuadraticExt(K, 1 + t)  # sqrt(1+sqrt2)
    s = L.gen
    assert s * s == 1 + t
    v = (t + s) * (t - s)
    assert v == L.from_base(2 - (1 + t))
    assert v.is_base and v.to_base() == 1 - t


def test_quadratic_ext_field_mismatch():
    L1 = QuadraticExt(QQ, QQ.from_fraction(5))
    L2 = QuadraticExt(QQ, QQ.from_fraction(7))
    with pytest.raises(FieldMismatch):
        L1.gen + L2.gen


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
@settings(max_examples=60)
def test_quadext_norm_multiplicative(x1, y1, x2, y2):
    L = QuadraticExt(QQ, QQ.from_fraction(3))
    a = L.element(x1, y1)
    b = L.element(x2, y2)
    assert (a * b).norm() == a.norm() * b.norm()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
