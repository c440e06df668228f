"""Quadratic spaces: local invariants, isometry, similarity, commensurability.

The Hilbert symbol has an independent brute-force oracle here (solvability of
z^2 = ax^2 + by^2 over Z/p^k with a primitivity condition); the closed-form
Legendre-symbol implementation must agree with it on everything we throw at
both.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplat.algebra.numberfield import QQ, NumberField
from hyplat.errors import (
    DegenerateRestriction,
    FieldMismatch,
    NotAdmissible,
    NotSymmetric,
)
from hyplat.linalg import Matrix, Subspace
from hyplat.quadform import (
    NOT_COMMENSURABLE,
    NOT_SIMILAR,
    SIMILAR,
    UNKNOWN,
    QuadraticSpace,
    commensurable,
    direct_sum,
    disc_class,
    hasse_invariant,
    hilbert_symbol,
    is_admissible,
    isometric_over_Q,
    rational_diagonal,
    relevant_primes,
    similar,
    squarefree_part,
)

F = Fraction


# ---------------------------------------------------------------------------
# The independent local-solvability oracle
# ---------------------------------------------------------------------------


def hilbert_bruteforce(a: int, b: int, p: int) -> int:
    """(a, b)_p by searching primitive solutions of z^2 = ax^2 + by^2 mod p^k.

    Valid for integers a, b with |valuation| small (our test inputs); the
    exponent k is generous enough for Hensel lifting of any solution found.
    """
    k = 8 if p == 2 else 4
    m = p**k
    squares = {(z * z) % m for z in range(m)}
    unit_squares = {(z * z) % m for z in range(m) if z % p}
    for x in range(m):
        ax2 = a * x * x
        for y in range(m):
            r = (ax2 + b * y * y) % m
            if r in unit_squares:
                return 1
            if (x % p or y % p) and r in squares:
                return 1
    return -1


def test_hilbert_spec_value():
    assert hilbert_symbol(2, 3, 3) == -1


def test_hilbert_small_table():
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, "inf") == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(2, 2, 2) == 1
    assert hilbert_symbol(5, 2, 5) == -1  # 2 is a nonresidue mod 5
    assert hilbert_symbol(F(1, 2), 3, 3) == -1  # half-integer input


def test_hilbert_rejects_bad_place():
    with pytest.raises(ValueError):
        hilbert_symbol(2, 3, 4)
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hilbert_formula_matches_bruteforce(p):
    vals = [-10, -6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 10]
    for a in vals:
        for b in vals:
            assert hilbert_symbol(a, b, p) == hilbert_bruteforce(a, b, p), (a, b, p)


@given(
    st.integers(-30, 30).filter(lambda n: n != 0),
    st.integers(-30, 30).filter(lambda n: n != 0),
)
@settings(max_examples=150)
def test_hilbert_product_formula(a, b):
    places = list(relevant_primes([F(a)], [F(b)])) + ["inf"]
    prod = 1
    for v in places:
        prod *= hilbert_symbol(a, b, v)
    assert prod == 1


@given(
    st.integers(-20, 20).filter(lambda n: n != 0),
    st.integers(-20, 20).filter(lambda n: n != 0),
    st.integers(-20, 20).filter(lambda n: n != 0),
)
@settings(max_examples=80)
def test_hilbert_bimultiplicative(a, b, c):
    for v in (2, 3, 7, "inf"):
        assert hilbert_symbol(a * b, c, v) == hilbert_symbol(a, c, v) * hilbert_symbol(
            b, c, v
        )


def test_squarefree_part():
    assert squarefree_part(F(50)) == 2
    assert squarefree_part(F(-18)) == -2
    assert squarefree_part(F(4, 9)) == 1
    assert squarefree_part(F(8, 3)) == 6
    with pytest.raises(ValueError):
        squarefree_part(F(0))


# ---------------------------------------------------------------------------
# spaces, admissibility, the hyperboloid
# ---------------------------------------------------------------------------


def test_space_validation():
    with pytest.raises(NotSymmetric):
        QuadraticSpace(QQ, Matrix(QQ, [[1, 2], [3, 4]]))
    with pytest.raises(DegenerateRestriction):
        QuadraticSpace(QQ, Matrix(QQ, [[1, 1], [1, 1]]))
    sp = QuadraticSpace(QQ, Matrix(QQ, [[1, 1], [1, 1]]), allow_degenerate=True)
    assert sp.is_degenerate


def test_restrict_flags_degenerate():
    sp = QuadraticSpace.diagonal(QQ, [1, 1, -1])
    iso = Subspace(QQ, 3, [[1, 0, 1]])  # isotropic line
    r = sp.restrict(iso)
    assert r.is_degenerate and r.dim == 1
    good = sp.restrict(Subspace(QQ, 3, [[1, 0, 0], [0, 1, 0]]))
    assert not good.is_degenerate
    assert good.signature() == (2, 0, 0)


def test_inner_product_polarization():
    sp = QuadraticSpace.diagonal(QQ, [1, 2, -3])
    u, v = [1, 1, 0], [0, 2, 1]
    lhs = sp.inner_product(u, v)
    qs = sp.evaluate([a + b for a, b in zip(u, v)]) - sp.evaluate(u) - sp.evaluate(v)
    assert 2 * lhs == qs


def test_admissibility_over_Q():
    assert is_admissible(QuadraticSpace.diagonal(QQ, [1, 1, 1, -1]))
    rep = is_admissible(QuadraticSpace.diagonal(QQ, [1, 1, 1, 1]))
    assert not rep and "signature" in rep.reasons[0]


def test_admissibility_over_real_quadratic():
    K = NumberField([-2, 0, 1])  # chosen embedding: sqrt2 > 0
    t = K.gen
    sp = QuadraticSpace.diagonal(K, [1, 1, -t])
    assert is_admissible(sp)
    # At the wrong embedding the conjugate is indefinite: not admissible.
    K0 = NumberField([-2, 0, 1], embedding=0)
    sp0 = QuadraticSpace.diagonal(K0, [1, 1, -K0.gen])
    rep = is_admissible(sp0)
    assert not rep


# ---------------------------------------------------------------------------
# isometry over Q
# ---------------------------------------------------------------------------


def test_isometric_diag11_diag22():
    q1 = QuadraticSpace.diagonal(QQ, [1, 1])
    q2 = QuadraticSpace.diagonal(QQ, [2, 2])
    assert isometric_over_Q(q1, q2)
    # independent witness: T = [[1,1],[1,-1]] satisfies T^t I T = diag(2,2)
    T = Matrix(QQ, [[1, 1], [1, -1]])
    assert T.transpose() @ q1.gram @ T == q2.gram


def test_isometric_negative_cases():
    q1 = QuadraticSpace.diagonal(QQ, [1, 1])
    assert not isometric_over_Q(q1, QuadraticSpace.diagonal(QQ, [1, -1]))
    assert not isometric_over_Q(q1, QuadraticSpace.diagonal(QQ, [1, 2]))
    assert "dimension" in isometric_over_Q(
        q1, QuadraticSpace.diagonal(QQ, [1, 1, 1])
    ).reason


def test_isometry_needs_entry_support_primes():
    """diag(21,21) vs diag(1,1): same dimension, signature, discriminant
    class (1) and even the same Hasse invariant at 2 — the defect lives at
    p=3 and p=7, primes that cancel out of the discriminant entirely.  Any
    prime set derived from the discriminants alone is blind here."""
    q1 = QuadraticSpace.diagonal(QQ, [21, 21])
    q2 = QuadraticSpace.diagonal(QQ, [1, 1])
    d1, d2 = rational_diagonal(q1), rational_diagonal(q2)
    assert disc_class(d1) == disc_class(d2) == 1
    assert hasse_invariant(d1, 2) == hasse_invariant(d2, 2)
    assert {3, 7} <= set(relevant_primes(d1, d2))
    assert hasse_invariant(d1, 3) != hasse_invariant(d2, 3)
    assert not isometric_over_Q(q1, q2)
    assert "p=3" in isometric_over_Q(q1, q2).reason
    # similarity still holds (lambda = 21), and the search finds it
    v = similar(q1, q2)
    assert v.status == SIMILAR and v.lambda_witness.to_fraction() == F(1, 21) or (
        v.lambda_witness.to_fraction() == 21
    )


def test_isometry_invariant_under_congruence():
    q = QuadraticSpace.diagonal(QQ, [1, -2, 3])
    T = Matrix(QQ, [[1, 2, 0], [0, 1, 5], [3, 0, 1]])
    assert T.det() != 0
    q2 = QuadraticSpace(QQ, T.transpose() @ q.gram @ T)
    assert isometric_over_Q(q, q2)


# ---------------------------------------------------------------------------
# similarity over Q
# ---------------------------------------------------------------------------


def test_similar_by_scaling():
    q1 = QuadraticSpace.diagonal(QQ, [1, 1])
    v = similar(q1, QuadraticSpace.diagonal(QQ, [2, 2]))
    assert v.status == SIMILAR
    lam = v.lambda_witness.to_fraction()
    assert isometric_over_Q(q1.scale(lam), QuadraticSpace.diagonal(QQ, [2, 2]))


def test_similar_negative_lambda():
    q1 = QuadraticSpace.diagonal(QQ, [1, 1])
    v = similar(q1, QuadraticSpace.diagonal(QQ, [-1, -1]))
    assert v.status == SIMILAR
    assert v.lambda_witness.to_fraction() < 0


def test_similar_hasse_twist_found():
    # 5*(5,-10) is isometric to (1,-2)... scaled: diag(25,-50) ~ diag(1,-2)
    q1 = QuadraticSpace.diagonal(QQ, [5, -10])
    q2 = QuadraticSpace.diagonal(QQ, [1, -2])
    v = similar(q1, q2)
    assert v.status == SIMILAR
    assert v.lambda_witness.to_fraction() == 5


def test_not_similar_signature():
    v = similar(
        QuadraticSpace.diagonal(QQ, [1, 1]),
        QuadraticSpace.diagonal(QQ, [1, -1]),
    )
    assert v.status == NOT_SIMILAR and "signature" in v.reason


def test_not_similar_discriminant_even_dim():
    v = similar(
        QuadraticSpace.diagonal(QQ, [1, 1]),
        QuadraticSpace.diagonal(QQ, [1, 2]),
    )
    assert v.status == NOT_SIMILAR and "discriminant" in v.reason


def test_not_similar_odd_dim_forced_scalar():
    # dim 3: lambda is forced to disc1*disc2 mod squares; (1,1,1) vs (1,1,-1)
    # signature kills it; (1,1,2) vs (1,1,3) forces lambda=6 which fails.
    v = similar(
        QuadraticSpace.diagonal(QQ, [1, 1, 2]),
        QuadraticSpace.diagonal(QQ, [1, 1, 3]),
    )
    assert v.status == NOT_SIMILAR


def test_not_similar_local_obstruction_even_dim():
    """disc agrees, signatures agree, but the Hasse defect sits at a place
    where the twisting symbol is blind: certified NotSimilar."""
    q1 = QuadraticSpace.diagonal(QQ, [1, 1, 1, 1])
    q2 = QuadraticSpace.diagonal(QQ, [1, 1, 3, 3])
    assert disc_class(rational_diagonal(q2)) == 1
    v = similar(q1, q2)
    assert v.status == NOT_SIMILAR
    assert "no scalar" in v.reason


def test_similar_dim_mismatch():
    v = similar(
        QuadraticSpace.diagonal(QQ, [1, 1]),
        QuadraticSpace.diagonal(QQ, [1, 1, 1]),
    )
    assert v.status == NOT_SIMILAR and "dimension" in v.reason


def test_similar_rejects_degenerate():
    dg = QuadraticSpace(QQ, Matrix(QQ, [[1, 1], [1, 1]]), allow_degenerate=True)
    with pytest.raises(DegenerateRestriction):
        similar(dg, QuadraticSpace.diagonal(QQ, [1, 1]))


def test_similar_requires_same_field():
    K = NumberField([-2, 0, 1])
    with pytest.raises(FieldMismatch):
        similar(
            QuadraticSpace.diagonal(QQ, [1, 1]),
            QuadraticSpace.diagonal(K, [1, 1]),
        )


# ---------------------------------------------------------------------------
# similarity over a general field
# ---------------------------------------------------------------------------


def test_similar_over_K_scaling():
    K = NumberField([-2, 0, 1])
    t = K.gen
    q1 = QuadraticSpace.diagonal(K, [1, 1, -t])
    q2 = QuadraticSpace.diagonal(K, [3, 3, -3 * t])
    v = similar(q1, q2)
    assert v.status == SIMILAR
    assert v.lambda_witness == 3


def test_similar_over_K_square_ratio_blocks():
    K = NumberField([-2, 0, 1])
    t = K.gen
    # <2> + r vs <1> + r with r = diag(1, -t): lambda=1 works since 2 = t^2
    q1 = QuadraticSpace.diagonal(K, [2, 1, -t])
    q2 = QuadraticSpace.diagonal(K, [1, 1, -t])
    v = similar(q1, q2)
    assert v.status == SIMILAR and v.lambda_witness == 1


def test_not_similar_over_K_signature_profile():
    K = NumberField([-2, 0, 1])
    t = K.gen
    # q2's conjugate is indefinite while q1's is definite: no scalar helps.
    q1 = QuadraticSpace.diagonal(K, [1, 1, -t])
    q2 = QuadraticSpace.diagonal(K, [1, 1, -1])
    v = similar(q1, q2)
    assert v.status == NOT_SIMILAR and "embedding" in v.reason


def test_not_similar_over_K_discriminant():
    K = NumberField([-5, 0, 1])
    q1 = QuadraticSpace.diagonal(K, [1, 1])
    # totally positive at every embedding, so only the discriminant class
    # (2, a nonsquare in Q(sqrt5)) obstructs
    q2 = QuadraticSpace.diagonal(K, [1, 2])
    v = similar(q1, q2)
    assert v.status == NOT_SIMILAR and "discriminant" in v.reason


def test_similar_over_K_unknown_is_possible():
    K = NumberField([-2, 0, 1])
    t = K.gen
    q1 = QuadraticSpace.diagonal(K, [1, 1, -t])
    q2 = QuadraticSpace.diagonal(K, [1, 3, -3 * t])
    v = similar(q1, q2)
    assert v.status in (SIMILAR, UNKNOWN)  # layered test may not decide
    if v.status == SIMILAR:
        assert v.lambda_witness is not None


# ---------------------------------------------------------------------------
# commensurability
# ---------------------------------------------------------------------------


def test_commensurable_same_field_scaled():
    K = NumberField([-2, 0, 1])
    t = K.gen
    s1 = QuadraticSpace.diagonal(K, [1, 1, -t])
    s2 = QuadraticSpace.diagonal(K, [3, 3, -3 * t])
    v = commensurable(s1, s2)
    assert bool(v) and v.lambda_witness == 3


def test_not_commensurable_different_fields():
    K2 = NumberField([-2, 0, 1])
    K3 = NumberField([-3, 0, 1])
    s1 = QuadraticSpace.diagonal(K2, [1, 1, -K2.gen])
    s2 = QuadraticSpace.diagonal(K3, [1, 1, -K3.gen])
    v = commensurable(s1, s2)
    assert v.status == NOT_COMMENSURABLE and "not isomorphic" in v.reason


def test_commensurable_isomorphic_presentations():
    """x^2-2 and x^2-2x-1 both present Q(sqrt2); the identification must
    match distinguished places and then find the scalar."""
    K1 = NumberField([-2, 0, 1])
    t = K1.gen
    K2 = NumberField([-1, -2, 1])  # roots 1 +- sqrt2, chosen 1+sqrt2
    u = K2.gen
    s1 = QuadraticSpace.diagonal(K1, [2, 2, -2 - 2 * t])
    s2 = QuadraticSpace.diagonal(K2, [1, 1, -u])
    v = commensurable(s1, s2)
    assert bool(v)
    assert v.lambda_witness is not None


def test_commensurable_requires_admissible():
    with pytest.raises(NotAdmissible):
        commensurable(
            QuadraticSpace.diagonal(QQ, [1, 1]),
            QuadraticSpace.diagonal(QQ, [1, -1]),
        )


def test_commensurable_over_Q_definitive():
    s1 = QuadraticSpace.diagonal(QQ, [1, 1, -1])
    s2 = QuadraticSpace.diagonal(QQ, [2, 2, -2])
    assert commensurable(s1, s2)
    s3 = QuadraticSpace.diagonal(QQ, [1, 1, -7])
    v = commensurable(s1, s3)
    assert v.status in (NOT_COMMENSURABLE,)
    # dual check: dim-3 odd similarity is decisive over Q
    assert similar(s1, s3).status == NOT_SIMILAR


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

diag_entries = st.lists(
    st.integers(-9, 9).filter(lambda n: n != 0), min_size=2, max_size=4
)


@given(diag_entries, st.integers(-7, 7).filter(lambda n: n != 0))
@settings(max_examples=80, deadline=None)
def test_similar_recognizes_scalings(entries, lam):
    q = QuadraticSpace.diagonal(QQ, entries)
    v = similar(q, q.scale(F(lam)))
    assert v.status == SIMILAR
    w = v.lambda_witness.to_fraction()
    assert isometric_over_Q(q.scale(w), q.scale(F(lam)))


@given(diag_entries, diag_entries)
@settings(max_examples=60, deadline=None)
def test_similar_symmetric(e1, e2):
    if len(e1) != len(e2):
        e2 = (e2 * 4)[: len(e1)]
    q1 = QuadraticSpace.diagonal(QQ, e1)
    q2 = QuadraticSpace.diagonal(QQ, e2)
    assert similar(q1, q2).status == similar(q2, q1).status


@given(diag_entries)
@settings(max_examples=40, deadline=None)
def test_isometric_reflexive_and_scaled_similar(entries):
    q = QuadraticSpace.diagonal(QQ, entries)
    assert isometric_over_Q(q, q)
    assert similar(q, q).status == SIMILAR
