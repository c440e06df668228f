"""Exact matrices, diagonalization, signatures, subspaces, projections."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplat.algebra.numberfield import QQ, NumberField, sign_at_embedding
from hyplat.algebra.quadratic_ext import QuadraticExt
from hyplat.errors import (
    DegenerateRestriction,
    DimensionMismatch,
    FieldMismatch,
    NotSymmetric,
)
from hyplat.linalg import (
    Matrix,
    Subspace,
    complement_q,
    project_q,
    signature_at,
    signature_profile,
    symmetric_diagonalize,
    vec,
)

F = Fraction


def test_matmul_and_identity():
    A = Matrix(QQ, [[1, 2], [3, 4]])
    I = Matrix.identity(QQ, 2)
    assert A @ I == A
    assert (A @ A).rows[0][0] == 7


def test_det_inverse_solve():
    A = Matrix(QQ, [[2, 1], [1, 1]])
    assert A.det() == 1
    Ainv = A.inverse()
    assert A @ Ainv == Matrix.identity(QQ, 2)
    x = A.solve([3, 2])
    assert x == vec(QQ, [1, 1])
    B = Matrix(QQ, [[1, 2], [2, 4]])
    assert B.det() == 0
    assert B.solve([1, 3]) is None
    assert B.solve([1, 2]) is not None


def test_rref_and_kernel():
    A = Matrix(QQ, [[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    red, pivots = A.rref()
    assert pivots == (0, 1)
    assert A.rank() == 2
    ker = A.right_kernel()
    assert len(ker) == 1
    assert all(not e for e in A.apply(ker[0]))


def test_charpoly_number_field_matrix():
    K = NumberField([-2, 0, 1])
    t = K.gen
    A = Matrix(K, [[t, 1], [1, -t]])
    cp = A.charpoly()  # x^2 - tr x + det = x^2 - (t^2+1)... tr=0, det=-t^2-1=-3
    assert cp[2] == 1 and cp[1] == 0 and cp[0] == -3


def test_symmetric_diagonalize_hyperbolic_plane():
    G = Matrix(QQ, [[0, 1], [1, 0]])
    D, T = symmetric_diagonalize(G)
    assert D == [QQ.from_fraction(2), QQ.from_fraction(F(-1, 2))]
    assert T.transpose() @ G @ T == Matrix.diagonal(QQ, D)


def test_symmetric_diagonalize_congruence_property():
    K = NumberField([-5, 0, 1])
    t = K.gen
    G = Matrix(K, [[1, t, 0], [t, 2, 1], [0, 1, -1]])
    D, T = symmetric_diagonalize(G)
    assert T.transpose() @ G @ T == Matrix.diagonal(K, D)
    assert T.det()  # invertible


def test_not_symmetric_raises():
    with pytest.raises(NotSymmetric):
        symmetric_diagonalize(Matrix(QQ, [[1, 2], [3, 4]]))


def test_signature_euclidean_triangle():
    # Equilateral triangle reflection group Gram: signature (2, 0, 1)
    h = F(-1, 2)
    G = Matrix(QQ, [[1, h, h], [h, 1, h], [h, h, 1]])
    assert signature_at(G) == (2, 0, 1)


def test_signature_at_other_embedding():
    K = NumberField([-2, 0, 1])
    t = K.gen
    G = Matrix.diagonal(K, [t, K.one])
    assert signature_at(G) == (2, 0, 0)  # sqrt2 > 0 at the chosen embedding
    assert signature_at(G, 0) == (1, 1, 0)  # -sqrt2 < 0 at the other


def test_signature_degenerate():
    G = Matrix(QQ, [[1, 1], [1, 1]])
    assert signature_at(G) == (1, 0, 1)


# ---------------------------------------------------------------------------
# Signature profiles, checked against conjugated matrices
# ---------------------------------------------------------------------------


def _chosen_signature_by_diagonalization(G):
    """Signature at the chosen embedding, straight from a diagonalization."""
    D, _ = symmetric_diagonalize(G)
    signs = [sign_at_embedding(d) for d in D]
    return signs.count(1), signs.count(-1), signs.count(0)


def _conjugate_route(G, conjugate):
    """Signatures at every embedding j: conjugate each entry by the j-th
    automorphism, then read the chosen embedding."""
    K = G.field
    return tuple(
        _chosen_signature_by_diagonalization(
            Matrix(K, [[conjugate(j, x) for x in row] for row in G.rows])
        )
        for j in range(K.n_real_embeddings)
    )


@lru_cache(maxsize=1)
def _entry_field_matrices():
    from hyplat.coxeter import entry_field, gram_matrix, parse_diagram
    from hyplat.resources import bundled_path

    E = entry_field()
    r2, r3, r5 = E.sqrt(2), E.sqrt(3), E.sqrt(5)
    out = {
        path.stem: gram_matrix(parse_diagram(path.read_text()))
        for path in sorted(bundled_path("figures").glob("*.cox"))
    }
    assert len(out) == 9
    a = r2 - 1
    out["rank_one"] = Matrix(E, [[a, a], [a, a]])
    out["zero"] = Matrix.zeros(E, 3, 3)
    out["off_diagonal_pivot"] = Matrix(
        E, [[0, r3, 0], [r3, 0, 0], [0, 0, 0]]
    )
    out["mixed_kernel"] = Matrix(
        E, [[1, r5, 0, 0], [r5, 5, 0, 0], [0, 0, r2 - r3, 0], [0, 0, 0, r5 - 2]]
    )
    return out


@pytest.mark.parametrize("name", sorted(_entry_field_matrices()))
def test_signature_profile_matches_conjugated_matrices(name):
    G = _entry_field_matrices()[name]
    E = G.field
    profile = signature_profile(G)
    assert profile == _conjugate_route(G, E.galois_action)
    assert profile[E.chosen_embedding] == signature_at(G)


def test_signature_profile_real_quadratic_space():
    from hyplat.quadform import QuadraticSpace

    K = NumberField([-2, 0, 1])
    t = K.gen
    space = QuadraticSpace(K, Matrix(K, [[1, t, 0], [t, 3, 1], [0, 1, -t]]))

    def conjugate(j, x):  # t -> -t is the nontrivial automorphism
        a, b = x.coords
        return x if j == K.chosen_embedding else K.element([a, -b])

    per_embedding = tuple(space.signature(j) for j in range(2))
    assert per_embedding == signature_profile(space.gram)
    assert per_embedding == tuple(signature_at(space.gram, j) for j in range(2))
    assert per_embedding == _conjugate_route(space.gram, conjugate)
    assert space.signature() == space.signature(K.chosen_embedding)
    assert per_embedding[0] != per_embedding[1]


def test_subspace_canonical_equality():
    S1 = Subspace(QQ, 3, [[1, 1, 0], [0, 0, 1]])
    S2 = Subspace(QQ, 3, [[2, 2, 2], [1, 1, -1]])
    assert S1 == S2
    assert S1.dim == 2
    assert S1.contains([3, 3, 7])
    assert not S1.contains([1, 0, 0])


def test_subspace_intersection_and_sum():
    S1 = Subspace(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    S2 = Subspace(QQ, 3, [[0, 1, 0], [0, 0, 1]])
    meet = S1.intersect(S2)
    assert meet.dim == 1
    assert meet.contains([0, 5, 0])
    join = S1 + S2
    assert join.dim == 3
    assert S1.intersect(Subspace.zero(QQ, 3)).is_zero


def test_subspace_intersection_over_quadratic_extension():
    # The standard bilinear dot product degenerates over Q(i); the
    # echelon-based intersection must not care.
    L = QuadraticExt(QQ, QQ.from_fraction(-1))
    i = L.gen
    # span{(1, i)} is isotropic for the naive dot product.
    S1 = Subspace(L, 2, [[L.one, i]])
    S2 = Subspace(L, 2, [[L.one, i], [L.one, -i]])
    assert S2.dim == 2
    meet = S1.intersect(S2)
    assert meet == S1
    S3 = Subspace(L, 2, [[L.one, -i]])
    assert S1.intersect(S3).is_zero


def test_complement_q_and_project_q():
    G = Matrix.diagonal(QQ, [1, 1, 1, -1])
    S = Subspace(QQ, 4, [[1, 1, 0, 0]])
    C = complement_q(G, S)
    assert C.dim == 3
    assert C.contains([0, 0, 1, 0])
    assert C.contains([1, -1, 0, 0])
    assert C.contains([0, 0, 0, 1])
    p = project_q(G, S, [1, 0, 0, 0])
    assert p == vec(QQ, [F(1, 2), F(1, 2), 0, 0])
    # idempotent and difference orthogonal to S
    assert project_q(G, S, p) == p
    diff = [a - b for a, b in zip(vec(QQ, [1, 0, 0, 0]), p)]
    assert complement_q(G, S).contains(diff)


def test_project_q_degenerate():
    G = Matrix.diagonal(QQ, [1, -1])
    S = Subspace(QQ, 2, [[1, 1]])  # isotropic line
    with pytest.raises(DegenerateRestriction):
        project_q(G, S, [1, 0])


def test_project_q_zero_subspace():
    G = Matrix.diagonal(QQ, [1, 1])
    S = Subspace.zero(QQ, 2)
    assert project_q(G, S, [3, 4]) == vec(QQ, [0, 0])


def test_dimension_and_field_mismatches():
    A = Matrix(QQ, [[1, 2]])
    B = Matrix(QQ, [[1], [2]])
    with pytest.raises(DimensionMismatch):
        A + B
    K = NumberField([-2, 0, 1])
    with pytest.raises(FieldMismatch):
        A @ Matrix(K, [[1], [2]])
    with pytest.raises(DimensionMismatch):
        Subspace(QQ, 2, [[1, 2, 3]])


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

entries3 = st.lists(st.integers(-6, 6), min_size=9, max_size=9)


def _sym3(vals):
    a, b, c, d, e, f = vals[:6]
    return Matrix(QQ, [[a, b, c], [b, d, e], [c, e, f]])


@given(entries3)
@settings(max_examples=80)
def test_diagonalize_always_congruent(vals):
    G = _sym3(vals)
    D, T = symmetric_diagonalize(G)
    assert T.transpose() @ G @ T == Matrix.diagonal(QQ, D)
    assert T.det() != 0


@given(entries3, entries3)
@settings(max_examples=60)
def test_signature_congruence_invariant(vals, tvals):
    """Signatures are invariant under congruence by invertible matrices."""
    G = _sym3(vals)
    T = Matrix(QQ, [tvals[0:3], tvals[3:6], tvals[6:9]])
    if not T.det():
        return
    assert signature_at(T.transpose() @ G @ T) == signature_at(G)


@given(entries3, st.lists(st.integers(-5, 5), min_size=3, max_size=3))
@settings(max_examples=60)
def test_projection_properties(vals, wvals):
    G = _sym3(vals)
    S = Subspace(QQ, 3, [wvals]) if any(wvals) else Subspace.zero(QQ, 3)
    try:
        p = project_q(G, S, [1, 2, 3])
    except DegenerateRestriction:
        return
    assert project_q(G, S, p) == p
    if not S.is_zero:
        assert S.contains(p)
    diff = [a - b for a, b in zip(vec(QQ, [1, 2, 3]), p)]
    assert complement_q(G, S).contains(diff)


@given(entries3, entries3)
@settings(max_examples=60)
def test_zassenhaus_against_membership(vals, wals):
    A = Subspace(QQ, 3, [vals[0:3], vals[3:6]])
    B = Subspace(QQ, 3, [wals[0:3], wals[6:9]])
    meet = A.intersect(B)
    assert A.contains_subspace(meet)
    assert B.contains_subspace(meet)
    # dim formula
    assert (A + B).dim == A.dim + B.dim - meet.dim
