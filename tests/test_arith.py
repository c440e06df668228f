"""Integer kernels and the rational Gauss-Jordan, against sympy and brute force."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplat.algebra import polynomials as P
from hyplat.algebra.arith import (
    MILLER_RABIN_BOUND,
    factorize,
    in_square_class_span,
    is_prime,
    primes_outside,
    square_class_basis,
    squarefree_part,
)
from hyplat.errors import FactorizationBound

F = Fraction


# ---------------------------------------------------------------------------
# factorization and primes
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(-(10**12), 10**12).filter(bool))
def test_factorize_multiplies_back_to_primes(n):
    f = factorize(n)
    assert prod(p**e for p, e in f.items()) == abs(n)
    assert all(sympy.isprime(p) and e >= 1 for p, e in f.items())
    assert list(f) == sorted(f)


def test_factorize_bound_names_the_number():
    with pytest.raises(FactorizationBound, match="1000000000000000003"):
        factorize(1000000000000000003)
    with pytest.raises(ValueError):
        factorize(0)


def test_is_prime_and_primes_outside():
    assert [n for n in range(-5, 2000) if is_prime(n)] == list(sympy.primerange(2000))
    assert primes_outside([2, 3, 7], 5) == [5, 11, 13, 17, 19]


# The least strong pseudoprimes to all prime bases up to 7, 11, 31 and 37,
# and primes above the 10^12 trial-division bound.
PSEUDOPRIMES = [3215031751, 2152302898747, 3825123056546413051,
                318665857834031151167461]
LARGE_PRIMES = [10**12 + 39, 999999999989, 1000000000000000003, 2**61 - 1,
                10**24 + 7]


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(-10, 10**6), st.integers(10**6, 10**24)))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_on_pseudoprimes_and_large_primes():
    for n in PSEUDOPRIMES + [p * q for p, q in combinations(LARGE_PRIMES[:3], 2)]:
        assert not sympy.isprime(n) and not is_prime(n), n
    for p in LARGE_PRIMES:
        assert sympy.isprime(p) and is_prime(p), p
    # The least strong pseudoprime to all 13 bases, where the proof ends.
    assert not sympy.isprime(MILLER_RABIN_BOUND)
    with pytest.raises(FactorizationBound, match="cannot certify"):
        is_prime(MILLER_RABIN_BOUND)
    with pytest.raises(FactorizationBound, match="cannot certify"):
        is_prime(2**89 - 1)
    assert not is_prime(2**89 + 1)


# ---------------------------------------------------------------------------
# square classes
# ---------------------------------------------------------------------------

_classes = st.lists(st.integers(-60, 60).filter(bool), max_size=6)


def _span(ds) -> set[int]:
    """Every square class in the group the ds generate, by enumeration."""
    return {
        squarefree_part(prod(sub))
        for k in range(len(ds) + 1)
        for sub in combinations(ds, k)
    }


@settings(max_examples=80, deadline=None)
@given(_classes, st.randoms(use_true_random=False))
def test_square_class_basis_ignores_order_and_repeats(ds, rng):
    shuffled = ds + ds[: len(ds) // 2]
    rng.shuffle(shuffled)
    basis = square_class_basis(ds)
    assert square_class_basis(shuffled) == basis
    assert list(basis) == sorted(basis, key=lambda d: (abs(d), d))


@settings(max_examples=80, deadline=None)
@given(_classes, st.integers(-60, 60).filter(bool))
def test_square_class_basis_spans_the_input_group(ds, d):
    basis = square_class_basis(ds)
    span = _span(ds)
    assert _span(basis) == span
    assert len(span) == 1 << len(basis)  # the basis is independent
    assert all(b != 1 and squarefree_part(b) == b for b in basis)
    assert in_square_class_span(ds, d) == (squarefree_part(d) in span)


# ---------------------------------------------------------------------------
# rational Gauss-Jordan
# ---------------------------------------------------------------------------


@st.composite
def _rational_matrices(draw, extra_cols=0):
    n = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=7)
    return [[draw(entry) for _ in range(n + extra_cols)] for _ in range(n)]


def _sympy(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows])


def _fractions(M):
    return [[F(int(v.p), int(v.q)) for v in M.row(i)] for i in range(M.rows)]


@settings(max_examples=40, deadline=None)
@given(_rational_matrices(extra_cols=1))
def test_rational_rref_matches_sympy_and_solves(rows):
    red, pivots = P.rational_rref(rows)
    ref, ref_pivots = _sympy(rows).rref()
    assert pivots == ref_pivots
    assert red == _fractions(ref)
    n = len(rows)
    A = _sympy([r[:n] for r in rows])
    if A.det() != 0:
        x = A.LUsolve(_sympy([[r[n]] for r in rows]))
        assert [r[n] for r in red] == [v for (v,) in _fractions(x)]


@settings(max_examples=40, deadline=None)
@given(_rational_matrices())
def test_rational_rref_inverts(rows):
    n = len(rows)
    red, pivots = P.rational_rref([r + [int(i == j) for j in range(n)] for i, r in enumerate(rows)])
    A = _sympy(rows)
    if A.det() == 0:
        assert pivots[:n] != tuple(range(n))
    else:
        assert pivots == tuple(range(n))
        assert [r[n:] for r in red] == _fractions(A.inv())


@settings(max_examples=40, deadline=None)
@given(_rational_matrices(), st.data())
def test_rational_rref_minimal_polynomial(rows, data):
    """The relation among v, Av, ..., A^n v that the rref finds is the
    minimal polynomial of A on v; with full degree it is the charpoly."""
    n = len(rows)
    v = [data.draw(st.integers(-3, 3)) for _ in range(n)]
    krylov = [v]
    for _ in range(n):
        krylov.append([sum(a * b for a, b in zip(r, krylov[-1])) for r in rows])
    red, pivots = P.rational_rref([list(col) for col in zip(*krylov)])
    k = len(pivots)
    assert pivots == tuple(range(k))  # the first dependence ends the pivots
    if k == n:
        minpoly = P.poly([-r[n] for r in red] + [1])
        assert minpoly == P.charpoly_rational(rows)
