"""Exact linear algebra over number fields and their quadratic extensions.

Matrices are dense and immutable; entries are field elements (anything with
the arithmetic dunders plus a ``field`` attribute exposing ``zero``, ``one``
and ``coerce``).  Everything is division-based Gaussian elimination with
canonical reduced row echelon normalization — entries are field elements, so
fraction-free pivoting would buy nothing, and canonical rref makes subspace
equality a tuple comparison.

Signatures come from one congruence diagonalization T^t G T = diag(D).  That
identity holds over K, so applying a real embedding sigma_j to it shows that
sigma_j(G) is congruent over the reals to diag(sigma_j(D)); by Sylvester's
law of inertia its signature is read off the signs of sigma_j(D).  One
diagonalization therefore gives the signature at every real embedding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from hyplat.algebra.numberfield import FieldElement, NumberField, sign_at_embedding
from hyplat.errors import (
    DegenerateRestriction,
    DimensionMismatch,
    FieldMismatch,
    NotSymmetric,
)

__all__ = [
    "Matrix",
    "Subspace",
    "vec",
    "symmetric_diagonalize",
    "signature_at",
    "signature_profile",
    "diagonal_signature_profile",
    "complement_q",
    "projection_coefficients",
    "project_q",
]

Vector = tuple


def vec(field, entries: Iterable) -> Vector:
    """Coerce a sequence into a vector over `field`."""
    return tuple(field.coerce(e) for e in entries)


def _dot(u: Vector, v: Vector):
    """sum u_i v_i over the terms where neither factor is zero (None for
    empty vectors)."""
    acc = None
    for a, b in zip(u, v):
        if a and b:
            acc = a * b if acc is None else acc + a * b
    if acc is None and u:
        return u[0].field.zero
    return acc


class Matrix:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows: Iterable[Iterable]):
        self.field = field
        self.rows: tuple[Vector, ...] = tuple(
            tuple(field.coerce(e) for e in row) for row in rows
        )
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise DimensionMismatch("ragged rows")

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        return cls(
            field,
            [[field.one if i == j else field.zero for j in range(n)] for i in range(n)],
        )

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        return cls(field, [[field.zero] * ncols for _ in range(nrows)])

    @classmethod
    def diagonal(cls, field, entries: Sequence) -> "Matrix":
        es = [field.coerce(e) for e in entries]
        n = len(es)
        return cls(
            field,
            [[es[i] if i == j else field.zero for j in range(n)] for i in range(n)],
        )

    # -- shape / access -------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.nrows, self.ncols

    def __getitem__(self, idx: tuple[int, int]):
        i, j = idx
        return self.rows[i][j]

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        body = "; ".join("[" + ", ".join(map(str, r)) + "]" for r in self.rows)
        return f"Matrix[{body}]"

    # -- arithmetic ----------------------------------------------------------

    def _check_same(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        return Matrix(
            self.field,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, [[-a for a in r] for r in self.rows])

    def __mul__(self, scalar) -> "Matrix":
        s = self.field.coerce(scalar)
        return Matrix(self.field, [[a * s for a in r] for r in self.rows])

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_same(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        cols = [other.col(j) for j in range(other.ncols)]
        return Matrix(
            self.field, [[_dot(r, c) for c in cols] for r in self.rows]
        )

    def apply(self, v: Sequence) -> Vector:
        """Matrix-vector product."""
        w = vec(self.field, v)
        if len(w) != self.ncols:
            raise DimensionMismatch(f"{self.shape} applied to length {len(w)}")
        return tuple(_dot(r, w) for r in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [self.col(j) for j in range(self.ncols)])

    @property
    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot column indices."""
        rows = [list(r) for r in self.rows]
        nr, nc = self.nrows, self.ncols
        pivots: list[int] = []
        r = 0
        for c in range(nc):
            pr = next((i for i in range(r, nr) if rows[i][c]), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            inv = rows[r][c].inverse()
            rows[r] = [a * inv for a in rows[r]]
            for i in range(nr):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == nr:
                break
        return Matrix(self.field, rows), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.nrows
        rows = [list(r) for r in self.rows]
        det = self.field.one
        for c in range(n):
            pr = next((i for i in range(c, n) if rows[i][c]), None)
            if pr is None:
                return self.field.zero
            if pr != c:
                rows[c], rows[pr] = rows[pr], rows[c]
                det = -det
            det = det * rows[c][c]
            below = [i for i in range(c + 1, n) if rows[i][c]]
            if below:  # invert the pivot only when there is something to clear
                inv = rows[c][c].inverse()
                for i in below:
                    f = rows[i][c] * inv
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
        return det

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.nrows
        aug = Matrix(
            self.field,
            [
                list(self.rows[i])
                + [self.field.one if i == j else self.field.zero for j in range(n)]
                for i in range(n)
            ],
        )
        red, pivots = aug.rref()
        if tuple(range(n)) != pivots[:n] or len(pivots) != n:
            raise ZeroDivisionError("matrix is singular")
        return Matrix(self.field, [r[n:] for r in red.rows])

    def solve(self, b: Sequence) -> Vector | None:
        """One solution of Ax = b, or None if inconsistent."""
        rhs = vec(self.field, b)
        if len(rhs) != self.nrows:
            raise DimensionMismatch("right-hand side length mismatch")
        aug = Matrix(self.field, [list(r) + [rhs[i]] for i, r in enumerate(self.rows)])
        red, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [self.field.zero] * self.ncols
        for r, c in enumerate(pivots):
            x[c] = red.rows[r][-1]
        return tuple(x)

    def right_kernel(self) -> list[Vector]:
        """Canonical basis of {x : Ax = 0}."""
        red, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            v = [self.field.zero] * self.ncols
            v[fc] = self.field.one
            for r, pc in enumerate(pivots):
                v[pc] = -red.rows[r][fc]
            basis.append(tuple(v))
        return basis


# ---------------------------------------------------------------------------
# Symmetric diagonalization and signatures
# ---------------------------------------------------------------------------


def symmetric_diagonalize(G: Matrix) -> tuple[list, Matrix]:
    """Congruence diagonalization: returns (D, T) with T^t G T = diag(D).

    Symmetric pivoting; when the remaining diagonal vanishes but some
    off-diagonal entry g_ij is nonzero, the column operation
    col_i += col_j creates the pivot 2*g_ij (characteristic zero).  T is a
    product of swaps and shears col_i += c*col_j, so det T = +-1 and
    det G = prod(D); a pivot is inverted only when its row has an entry to
    clear, so a diagonal G costs no inversion.
    """
    if not G.is_symmetric:
        raise NotSymmetric("symmetric_diagonalize needs a symmetric matrix")
    field = G.field
    n = G.nrows
    A = [list(r) for r in G.rows]
    T = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]

    def col_op(dst: int, src: int, factor) -> None:
        # col_dst += factor * col_src, applied to A congruently and to T.
        for i in range(n):
            A[i][dst] = A[i][dst] + factor * A[i][src]
        for j in range(n):
            A[dst][j] = A[dst][j] + factor * A[src][j]
        for i in range(n):
            T[i][dst] = T[i][dst] + factor * T[i][src]

    def col_swap(i: int, j: int) -> None:
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        A[i], A[j] = A[j], A[i]
        for r in range(n):
            T[r][i], T[r][j] = T[r][j], T[r][i]

    for k in range(n):
        if not A[k][k]:
            j = next((j for j in range(k + 1, n) if A[j][j]), None)
            if j is not None:
                col_swap(k, j)
            else:
                pair = next(
                    (
                        (i, j)
                        for i in range(k, n)
                        for j in range(i + 1, n)
                        if A[i][j]
                    ),
                    None,
                )
                if pair is None:
                    break  # remaining block is zero
                i, j = pair
                col_op(i, j, field.one)
                if i != k:
                    col_swap(k, i)
        clear = [i for i in range(k + 1, n) if A[k][i]]
        if clear:
            inv = A[k][k].inverse()
            for i in clear:
                col_op(i, k, -(A[k][i] * inv))
    D = [A[i][i] for i in range(n)]
    return D, Matrix(field, T)


def diagonal_signature_profile(field, D: Sequence) -> tuple[tuple[int, int, int], ...]:
    """Signature (p, m, z) of diag(D) at every real embedding of `field`.

    Entry j is the signature at the j-th real embedding, counted from the
    signs of sigma_j(D).  `field` must be a NumberField (not a quadratic
    extension).
    """
    if not isinstance(field, NumberField):
        raise FieldMismatch("signatures need entries over a number field")
    profile = []
    for j in range(field.n_real_embeddings):
        p = m = z = 0
        for d in D:
            s = sign_at_embedding(d, j)
            if s > 0:
                p += 1
            elif s < 0:
                m += 1
            else:
                z += 1
        profile.append((p, m, z))
    return tuple(profile)


def signature_profile(G: Matrix) -> tuple[tuple[int, int, int], ...]:
    """Signature (p, m, z) of a symmetric matrix at every real embedding.

    One congruence diagonalization serves every embedding (Sylvester's law
    of inertia, see the module docstring).
    """
    D, _ = symmetric_diagonalize(G)
    return diagonal_signature_profile(G.field, D)


def signature_at(G: Matrix, j: int | None = None) -> tuple[int, int, int]:
    """Signature (p, m, z) of a symmetric matrix at the j-th real embedding.

    Requires entries over a NumberField (not a quadratic extension); defaults
    to the field's chosen embedding.  Callers that need several embeddings
    should read one `signature_profile` instead.
    """
    return signature_profile(G)[G.field.chosen_embedding if j is None else j]


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------


class Subspace:
    """A linear subspace of field^n with a canonical (rref) basis."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field, ambient_dim: int, vectors: Iterable[Sequence]):
        self.field = field
        self.ambient_dim = ambient_dim
        vs = [vec(field, v) for v in vectors]
        for v in vs:
            if len(v) != ambient_dim:
                raise DimensionMismatch(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        if vs:
            red, pivots = Matrix(field, vs).rref()
            self.basis: tuple[Vector, ...] = tuple(red.rows[: len(pivots)])
        else:
            self.basis = ()

    @classmethod
    def zero(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, [])

    @classmethod
    def full(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim).rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    def basis_matrix(self) -> Matrix:
        return Matrix(self.field, self.basis or [])

    def contains(self, v: Sequence) -> bool:
        w = vec(self.field, v)
        if len(w) != self.ambient_dim:
            raise DimensionMismatch("vector/ambient dimension mismatch")
        if not any(w):
            return True
        if not self.basis:
            return False
        stacked = Matrix(self.field, list(self.basis) + [w])
        return stacked.rank() == self.dim

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace(
            self.field, self.ambient_dim, list(self.basis) + list(other.basis)
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: rref of [[A, A], [B, 0]]; zero-left rows carry it."""
        self._check(other)
        n = self.ambient_dim
        z = [self.field.zero] * n
        stacked = [list(v) + list(v) for v in self.basis] + [
            list(v) + z for v in other.basis
        ]
        if not stacked:
            return Subspace.zero(self.field, n)
        red, _ = Matrix(self.field, stacked).rref()
        out = [
            row[n:]
            for row in red.rows
            if not any(row[:n]) and any(row[n:])
        ]
        return Subspace(self.field, n, out)

    def _check(self, other: "Subspace") -> None:
        if self.field != other.field:
            raise FieldMismatch("subspaces over different fields")
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces of different ambient dimension")

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def complement_q(G: Matrix, S: Subspace) -> Subspace:
    """q-orthogonal complement {v : <v, s> = 0 for all s in S}."""
    if not G.is_symmetric:
        raise NotSymmetric("Gram matrix must be symmetric")
    if G.nrows != S.ambient_dim:
        raise DimensionMismatch("Gram/subspace dimension mismatch")
    if S.is_zero:
        return Subspace.full(G.field, S.ambient_dim)
    BG = S.basis_matrix() @ G
    return Subspace(G.field, S.ambient_dim, BG.right_kernel())


def projection_coefficients(
    G: Matrix, S: Subspace, v: Sequence
) -> tuple[list, Vector, Vector]:
    """(D, c, r) for the q-orthogonal projection B^t c of v onto S.

    B is S's basis matrix and r = B G v.  One congruence diagonalization
    T^t (B G B^t) T = diag(D) decides degeneracy, since det(B G B^t) =
    prod(D) (DegenerateRestriction when some entry is 0), and solves
    (B G B^t) c = r as c = T diag(D)^-1 T^t r: one inverse per entry of D
    and no further elimination.  S = 0 gives empty D and c.
    """
    if not G.is_symmetric:
        raise NotSymmetric("Gram matrix must be symmetric")
    w = vec(G.field, v)
    if len(w) != S.ambient_dim or G.nrows != S.ambient_dim:
        raise DimensionMismatch("Gram/subspace/vector dimension mismatch")
    if S.is_zero:
        return [], (), ()
    B = S.basis_matrix()
    BG = B @ G
    r = BG.apply(w)
    D, T = symmetric_diagonalize(BG @ B.transpose())
    if not all(D):
        raise DegenerateRestriction("form restricted to the subspace is degenerate")
    y = [x / d for x, d in zip(T.transpose().apply(r), D)]
    return D, T.apply(y), r


def project_q(G: Matrix, S: Subspace, v: Sequence) -> Vector:
    """q-orthogonal projection of v onto S (see `projection_coefficients`);
    raises DegenerateRestriction when q restricted to S is degenerate."""
    _, coeffs, _ = projection_coefficients(G, S, v)
    out = [G.field.zero] * S.ambient_dim
    for c, b in zip(coeffs, S.basis):
        out = [o + c * e for o, e in zip(out, b)]
    return tuple(out)
