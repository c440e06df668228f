"""Quadratic spaces over number fields and their rational classification.

The exact decision theory lives over Q: isometry via the classical complete
invariant set (dimension, signature, discriminant class, Hasse invariants at
a sound finite prime set) and similarity via a complete scalar search, see
docs/similarity.md.  Over a general (totally real) field the similarity test
is layered and may return Unknown; Similar verdicts always carry a verified
scalar witness and NotSimilar verdicts always carry a genuine invariant
obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from hyplat.algebra.arith import (
    factorize,
    is_prime,
    primes_outside,
    squarefree_part,
)
from hyplat.algebra.numberfield import (
    FieldElement,
    NumberField,
    QQ,
    class_times,
    is_square,
    sign_at_embedding,
    square_class,
)
from hyplat.linalg import (
    Matrix,
    Subspace,
    diagonal_signature_profile,
    symmetric_diagonalize,
    vec,
)
from hyplat.syntax import FieldHeader, directive_lines, parse_entry, parse_int
from hyplat.errors import (
    CertificateError,
    DegenerateRestriction,
    DimensionMismatch,
    FieldMismatch,
    NotAdmissible,
    NotSymmetric,
    NotTotallyReal,
    ParseError,
)

__all__ = [
    "QuadraticSpace",
    "AdmissibilityReport",
    "IsometryVerdict",
    "SimilarityVerdict",
    "CommensurabilityVerdict",
    "SIMILAR",
    "NOT_SIMILAR",
    "UNKNOWN",
    "hilbert_symbol",
    "hasse_invariant",
    "squarefree_part",
    "rational_diagonal",
    "relevant_primes",
    "is_admissible",
    "isometric_over_Q",
    "similar",
    "commensurable",
    "parse_form",
]

SIMILAR = "Similar"
NOT_SIMILAR = "NotSimilar"
UNKNOWN = "Unknown"

COMMENSURABLE = "Commensurable"
NOT_COMMENSURABLE = "NotCommensurable"


# ---------------------------------------------------------------------------
# Quadratic spaces
# ---------------------------------------------------------------------------


class QuadraticSpace:
    """A finite-dimensional quadratic space (V, q) over a number field.

    Degenerate Gram matrices are allowed only when `allow_degenerate` is set
    (restrictions to subspaces must be representable); such spaces are
    flagged and rejected by every classification routine.

    A space is its Gram matrix G plus one diagonalization D: G is
    congruent to diag(D) by swaps and shears only, so det G = prod(D)
    exactly.  Degeneracy (some D entry is 0), the discriminant, the
    signatures at every embedding and the diagonal entries are all read
    from D.  G is immutable, so D is found once, by one elimination at
    construction, or carried over by `scale` and `direct_sum`.  Over a
    field of degree > 1 the same holds for the square classes of D's
    entries (`square_classes`), which give the signatures and the square
    tests of `similar`: `direct_sum` concatenates its parts' classes and
    `scale` multiplies them by the scalar's class.
    """

    def __init__(self, field: NumberField, gram: Matrix, allow_degenerate: bool = False):
        if gram.field != field:
            gram = Matrix(field, gram.rows)
        if gram.nrows != gram.ncols:
            raise DimensionMismatch("Gram matrix must be square")
        if not gram.is_symmetric:
            raise NotSymmetric("Gram matrix must be symmetric")
        self._set(field, gram, symmetric_diagonalize(gram)[0], allow_degenerate)

    def _set(self, field: NumberField, gram: Matrix, D: list[FieldElement],
             allow_degenerate: bool, classes: list | None = None) -> None:
        self.field = field
        self.gram = gram
        self._diagonal = D
        self.is_degenerate = not all(D)
        if self.is_degenerate and not allow_degenerate:
            raise DegenerateRestriction("Gram matrix is singular")
        self._profile: tuple[tuple[int, int, int], ...] | None = None
        self._classes = classes

    def square_classes(self) -> list | None:
        """The square class of each diagonal entry, None for a zero entry;
        None over Q, whose classes come from factorizations instead."""
        if self._classes is None and isinstance(self.field, NumberField) \
                and self.field.degree > 1:
            self._classes = [square_class(d) if d else None for d in self._diagonal]
        return self._classes

    @classmethod
    def diagonal(cls, field: NumberField, entries: Sequence, **kw) -> "QuadraticSpace":
        return cls(field, Matrix.diagonal(field, entries), **kw)

    @property
    def dim(self) -> int:
        return self.gram.nrows

    def inner_product(self, u: Sequence, v: Sequence) -> FieldElement:
        """u^t G v, from G v formed once; zero entries take no product."""
        uu = vec(self.field, u)
        vv = vec(self.field, v)
        if len(uu) != self.dim or len(vv) != self.dim:
            raise DimensionMismatch("vector length does not match the space")
        support = [(j, y) for j, y in enumerate(vv) if y]
        out = self.field.zero
        for x, row in zip(uu, self.gram.rows):
            if x:
                gv = self.field.zero
                for j, y in support:
                    if row[j]:
                        gv = gv + row[j] * y
                if gv:
                    out = out + x * gv
        return out

    def evaluate(self, v: Sequence) -> FieldElement:
        return self.inner_product(v, v)

    def restrict(self, S: Subspace) -> "QuadraticSpace":
        """The restriction of q to a subspace, degenerate restrictions flagged."""
        if S.ambient_dim != self.dim:
            raise DimensionMismatch("subspace lives in a different ambient dimension")
        B = S.basis_matrix() if not S.is_zero else Matrix.zeros(self.field, 0, self.dim)
        gram = B @ self.gram @ B.transpose()
        return QuadraticSpace(self.field, gram, allow_degenerate=True)

    def scale(self, lam) -> "QuadraticSpace":
        """The space (V, lam*q), diagonalized by lam*D with no new
        elimination: for lam != 0, eliminating lam*G would take the same
        pivots and the same ratios as eliminating G."""
        lam = self.field.coerce(lam)
        classes = None
        if self._classes is not None and lam:
            c = square_class(lam)
            classes = [x and class_times(c, x) for x in self._classes]
        space = QuadraticSpace.__new__(QuadraticSpace)
        space._set(self.field, self.gram * lam, [lam * d for d in self._diagonal],
                   self.is_degenerate, classes)
        return space

    def signature(self, j: int | None = None) -> tuple[int, int, int]:
        if self._profile is None:
            classes = self.square_classes()
            if classes is not None:
                # Entry signs are the real-place bits of the square classes.
                zero = classes.count(None)
                negative = [sum(1 for c in classes if c and c[0] >> k & 1)
                            for k in range(self.field.n_real_embeddings)]
                self._profile = tuple((self.dim - m - zero, m, zero) for m in negative)
            else:
                self._profile = diagonal_signature_profile(self.field, self._diagonal)
        return self._profile[self.field.chosen_embedding if j is None else j]

    def diagonal_entries(self) -> list[FieldElement]:
        return list(self._diagonal)

    def __repr__(self) -> str:
        return f"QuadraticSpace(dim {self.dim} over {self.field!r})"


def direct_sum(a: QuadraticSpace, b: QuadraticSpace) -> QuadraticSpace:
    """a + b on the block-diagonal Gram matrix, diagonalized by D_a + D_b
    with no new elimination: that is a diagonalization, since the blocks
    do not interact.  The square classes are the parts' classes, found once
    per part, so a form shared by many sums is classified once."""
    if a.field != b.field:
        raise FieldMismatch("direct sum over different fields")
    n, m = a.dim, b.dim
    field = a.field
    rows = []
    for i in range(n):
        rows.append(list(a.gram.rows[i]) + [field.zero] * m)
    for i in range(m):
        rows.append([field.zero] * n + list(b.gram.rows[i]))
    classes = a.square_classes()
    if classes is not None:
        classes = classes + b.square_classes()
    space = QuadraticSpace.__new__(QuadraticSpace)
    space._set(field, Matrix(field, rows), a._diagonal + b._diagonal,
               a.is_degenerate or b.is_degenerate, classes)
    return space


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


@dataclass
class AdmissibilityReport:
    admissible: bool
    reasons: list[str]
    signature_chosen: tuple[int, int, int]
    definite_elsewhere: bool

    def __bool__(self) -> bool:
        return self.admissible


def is_admissible(space: QuadraticSpace) -> AdmissibilityReport:
    """Signature (n, 1) at the chosen real place, positive definite at all
    other real places of a totally real field, nondegenerate."""
    reasons: list[str] = []
    if space.is_degenerate:
        reasons.append("Gram matrix is degenerate")
    K = space.field
    if not K.is_totally_real:
        reasons.append("field is not totally real")
    sig = space.signature()
    n = space.dim
    if sig != (n - 1, 1, 0):
        reasons.append(
            f"signature at chosen embedding is {sig}, expected {(n - 1, 1, 0)}"
        )
    definite = True
    for j in range(K.n_real_embeddings):
        if j == K.chosen_embedding:
            continue
        sj = space.signature(j)
        if sj != (n, 0, 0):
            definite = False
            reasons.append(
                f"signature at embedding {j} is {sj}, expected positive definite"
            )
    return AdmissibilityReport(not reasons, reasons, sig, definite)


# ---------------------------------------------------------------------------
# Rational local invariants
# ---------------------------------------------------------------------------

def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p, a coprime to p."""
    r = pow(a % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _split(q: Fraction, p: int) -> tuple[int, int]:
    """q = p^alpha * u with u a p-unit; returns (alpha, u mod p^3) exactly as
    an integer unit representative."""
    alpha = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        alpha += 1
    while den % p == 0:
        den //= p
        alpha -= 1
    # unit = num/den as an integer modulo a high power of p
    mod = p**4
    unit = num * pow(den, -1, mod) % mod
    return alpha, unit


def _place(place) -> int | None:
    """The prime of a finite place, proven prime; None for the real place."""
    if place in ("inf", "infinity", None) or place == float("inf"):
        return None
    p = int(place)
    if not is_prime(p):
        raise ValueError(f"place {place!r} is not a prime or 'inf'")
    return p


def _hilbert(a, b, p: int | None) -> int:
    """(a, b)_p for nonzero ints or Fractions a, b at a place checked by `_place`."""
    if p is None:
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _split(a, p)
    beta, v = _split(b, p)
    if p != 2:
        eps = ((p - 1) // 2) & 1
        result = 1
        if eps and (alpha & 1) and (beta & 1):
            result = -result
        if beta & 1:
            result *= legendre(u, p)
        if alpha & 1:
            result *= legendre(v, p)
        return result
    # p = 2
    def eps2(x: int) -> int:
        return ((x - 1) // 2) & 1

    def omega(x: int) -> int:
        return ((x * x - 1) // 8) & 1

    e = eps2(u) * eps2(v) + alpha * omega(v) + beta * omega(u)
    return -1 if e & 1 else 1


def hilbert_symbol(a: Fraction | int, b: Fraction | int, place) -> int:
    """Hilbert symbol (a, b)_v over Q_v; place is a prime or "inf"."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    return _hilbert(a, b, _place(place))


def _hasse(diag: Sequence, p: int | None) -> int:
    out = 1
    for i, a in enumerate(diag):
        for b in diag[i + 1:]:
            out *= _hilbert(a, b, p)
    return out


def hasse_invariant(diag: Sequence[Fraction], place) -> int:
    """prod_{i<j} (d_i, d_j)_v, with the place proven prime once."""
    if any(d == 0 for d in diag):
        raise ValueError("Hilbert symbol needs nonzero arguments")
    return _hasse(diag, _place(place))


def rational_diagonal(space: QuadraticSpace) -> list[Fraction]:
    """Diagonalization of a nondegenerate rational space, as Fractions."""
    if not space.field.is_rationals:
        raise FieldMismatch("rational invariants need a form over Q")
    if space.is_degenerate:
        raise DegenerateRestriction("degenerate space has no complete invariants")
    return [d.to_fraction() for d in space.diagonal_entries()]


# A square class of Q*: its sign and the set of primes of odd exponent.  The
# classes form a GF(2) vector space, so a product of classes is the product
# of the signs and the symmetric difference (XOR) of the prime sets.
SquareClass = tuple[int, frozenset]


def _square_classes(*diags: Sequence[Fraction]) -> list[list[SquareClass]]:
    """The square class of every entry, from one `factorize` of each
    distinct |numerator| and denominator among them."""
    odd: dict[int, frozenset] = {1: frozenset()}

    def primes(n: int) -> frozenset:
        if n not in odd:
            odd[n] = frozenset(p for p, e in factorize(n).items() if e & 1)
        return odd[n]

    return [[(1 if d > 0 else -1, primes(abs(d.numerator)) ^ primes(d.denominator))
             for d in diag] for diag in diags]


def _times(a: SquareClass, b: SquareClass) -> SquareClass:
    return a[0] * b[0], a[1] ^ b[1]


def _disc(classes: Sequence[SquareClass]) -> SquareClass:
    out: SquareClass = (1, frozenset())
    for c in classes:
        out = _times(out, c)
    return out


def _squarefree(c: SquareClass) -> int:
    """The signed squarefree integer in the class."""
    return c[0] * prod(c[1])


def _relevant(*class_lists: Sequence[SquareClass]) -> list[int]:
    return sorted({2}.union(*(c[1] for classes in class_lists for c in classes)))


def disc_class(diag: Sequence[Fraction]) -> int:
    return _squarefree(_disc(_square_classes(diag)[0]))


def relevant_primes(*diags: Sequence[Fraction]) -> list[int]:
    """{2} plus every prime dividing a squarefree-reduced diagonal entry.

    Outside this set all entries are p-adic units for odd p, so every Hilbert
    symbol — hence both Hasse invariants — is +1.
    """
    return _relevant(*_square_classes(*diags))


def _signature_from_diagonal(diag: Sequence[Fraction]) -> tuple[int, int]:
    p = sum(1 for d in diag if d > 0)
    return p, len(diag) - p


# ---------------------------------------------------------------------------
# Isometry over Q (complete via Hasse-Minkowski)
# ---------------------------------------------------------------------------


@dataclass
class IsometryVerdict:
    isometric: bool
    reason: str

    def __bool__(self) -> bool:
        return self.isometric


def _isometric_classes(c1: Sequence[SquareClass], c2: Sequence[SquareClass]) -> IsometryVerdict:
    """Hasse-Minkowski on the square classes of two diagonals of the same
    dimension and signature: discriminant class, then the Hasse invariants
    at the relevant primes, evaluated on squarefree representatives (a
    Hilbert symbol depends only on the classes of its arguments)."""
    D1, D2 = _squarefree(_disc(c1)), _squarefree(_disc(c2))
    if D1 != D2:
        return IsometryVerdict(False, f"discriminant class {D1} != {D2}")
    primes = _relevant(c1, c2)
    v1, v2 = [_squarefree(c) for c in c1], [_squarefree(c) for c in c2]
    for p in primes:
        if _hasse(v1, p) != _hasse(v2, p):
            return IsometryVerdict(False, f"Hasse invariant differs at p={p}")
    # Outside the relevant set the invariants are provably trivial; spot
    # check the first two excluded odd primes.
    extra = [p for p in (3, 5, 7, 11, 13) if p not in primes][:2]
    for p in extra:
        if not _hasse(v1, p) == 1 == _hasse(v2, p):
            raise CertificateError(
                f"Hasse invariant at p={p}, outside the relevant primes, is not 1"
            )
    return IsometryVerdict(
        True,
        "dimension, signature, discriminant and Hasse invariants at "
        f"{{{', '.join(map(str, primes))}}} all match",
    )


def isometric_over_Q(q1: QuadraticSpace, q2: QuadraticSpace) -> IsometryVerdict:
    """Complete isometry decision over Q.

    dimension + signature + discriminant square class + Hasse invariants at
    the relevant primes classify rational quadratic forms completely.
    """
    if q1.dim != q2.dim:
        return IsometryVerdict(False, f"dimension {q1.dim} != {q2.dim}")
    d1, d2 = rational_diagonal(q1), rational_diagonal(q2)
    s1, s2 = _signature_from_diagonal(d1), _signature_from_diagonal(d2)
    if s1 != s2:
        return IsometryVerdict(False, f"signature {s1} != {s2}")
    return _isometric_classes(*_square_classes(d1, d2))


# ---------------------------------------------------------------------------
# Similarity
# ---------------------------------------------------------------------------


@dataclass
class SimilarityVerdict:
    status: str  # SIMILAR | NOT_SIMILAR | UNKNOWN
    lambda_witness: FieldElement | None
    reason: str

    def __bool__(self) -> bool:
        return self.status == SIMILAR


def _similar_over_Q(q1: QuadraticSpace, q2: QuadraticSpace) -> SimilarityVerdict:
    m = q1.dim
    d1, d2 = rational_diagonal(q1), rational_diagonal(q2)
    s1, s2 = _signature_from_diagonal(d1), _signature_from_diagonal(d2)
    signs: list[int] = []
    if s1 == s2:
        signs.append(1)
    if (s1[1], s1[0]) == s2:
        signs.append(-1)
    if not signs:
        return SimilarityVerdict(
            NOT_SIMILAR, None,
            f"no scalar sign matches signatures {s1} vs {s2}",
        )
    # Every class below is a product of these by XOR: nothing else is factored.
    c1, c2 = _square_classes(d1, d2)
    D1, D2 = _disc(c1), _disc(c2)

    def verify(lam: SquareClass) -> SimilarityVerdict | None:
        # The sign test is the signature test of lam*q1 against q2.
        if lam[0] not in signs:
            return None
        if _isometric_classes([_times(lam, c) for c in c1], c2):
            value = _squarefree(lam)
            return SimilarityVerdict(
                SIMILAR, QQ.from_fraction(value),
                f"lambda = {value} verified by the complete isometry test",
            )
        return None

    if m % 2 == 1:
        # disc(lambda q) = lambda^m disc(q) == lambda * disc(q) mod squares:
        # the square class of lambda is forced.
        forced = _times(D1, D2)
        got = verify(forced)
        if got:
            return got
        return SimilarityVerdict(
            NOT_SIMILAR, None,
            f"odd dimension forces lambda = {_squarefree(forced)} mod squares, "
            "which fails the isometry invariants",
        )

    # Even dimension: the discriminant class is a similarity invariant.
    if D1 != D2:
        return SimilarityVerdict(
            NOT_SIMILAR, None,
            f"discriminant class {_squarefree(D1)} != {_squarefree(D2)} (even dimension)",
        )
    primes = _relevant(c1, c2)
    # The squarefree divisors of prod(primes), as sets of known primes.
    supported = [frozenset()]
    for p in primes:
        supported += [t | {p} for t in supported]
    for t in supported:
        for sign in (1, -1):
            got = verify((sign, t))
            if got:
                return got
    # No bad-set scalar works.  Scaling twists the Hasse invariant by
    # (lambda, c)_v with c = (-1)^(m(m-1)/2) * disc; if c is a square in some
    # Q_v where the invariants disagree, no scalar can ever fix place v.
    c = (-1) ** ((m * (m - 1) // 2) % 2) * _squarefree(D1)
    v1, v2 = [_squarefree(x) for x in c1], [_squarefree(x) for x in c2]
    for p in primes:
        delta = _hasse(v1, p) * _hasse(v2, p)
        if delta == -1 and _is_local_square(c, p):
            return SimilarityVerdict(
                NOT_SIMILAR, None,
                f"Hasse invariants differ at p={p} but c={c} is a square in "
                f"Q_{p}, so no scalar can repair that place",
            )
    # A suitable scalar exists (see docs/similarity.md); it may need one
    # auxiliary prime outside the bad set.
    aux = primes_outside(primes, count=40)
    for r in aux:
        for t in supported:
            for sign in (1, -1):
                got = verify((sign, t | {r}))
                if got:
                    return got
    raise RuntimeError(
        "similarity search exhausted its auxiliary primes; this contradicts "
        "the existence analysis and indicates a bug"
    )


def _is_local_square(c: int, p: int) -> bool:
    """Is the squarefree integer c a square in Q_p?"""
    if c == 1:
        return True
    alpha, u = _split(Fraction(c), p)
    if alpha & 1:
        return False
    if p == 2:
        return u % 8 == 1
    return legendre(u, p) == 1


def _perfect_matching(m: int, edge) -> bool:
    """Backtracking perfect matching of rows 0..m-1 to columns 0..m-1, with
    the edges tried in row-major order."""
    used = [False] * m

    def extend(i: int) -> bool:
        if i == m:
            return True
        for j in range(m):
            if not used[j] and edge(i, j):
                used[j] = True
                if extend(i + 1):
                    return True
                used[j] = False
        return False

    return extend(0)


def _compatible(x, y) -> bool:
    """Can x*y be a square, as far as the classes x and y show?"""
    return not (x[0] ^ y[0]) & x[1] & y[1]


def _similar_over_K(q1: QuadraticSpace, q2: QuadraticSpace) -> SimilarityVerdict:
    K = q1.field
    m = q1.dim
    # (ii) per-embedding signature profiles must match up to a global flip
    # with a consistent sign pattern for lambda: lambda must be positive at
    # the embeddings in `pos` and negative at those in `neg`.
    pos = neg = 0
    for j in range(K.n_real_embeddings):
        s1, s2 = q1.signature(j), q2.signature(j)
        plus, minus = s1 == s2, (s1[1], s1[0], s1[2]) == s2
        if not (plus or minus):
            return SimilarityVerdict(
                NOT_SIMILAR, None,
                f"signatures at embedding {j} are {s1} vs {s2}: no scalar sign works",
            )
        pos |= (not minus) << j
        neg |= (not plus) << j
    if not K.is_totally_real:
        raise NotTotallyReal(f"squares are decided over totally real fields only, not {K}")
    # Every square test below first asks the square classes, which refute
    # most non-squares without forming a product; only a product whose class
    # is compatible reaches the exact `is_square`.
    diag1, diag2 = q1.diagonal_entries(), q2.diagonal_entries()
    c1, c2 = q1.square_classes(), q2.square_classes()
    if m % 2 == 0:
        # det G = prod(D) for each space (see QuadraticSpace): no elimination.
        # Equal entries pair off first: a pair x, x is the nonzero square x^2.
        entries, classes = diag1 + diag2, c1 + c2
        odd: list[int] = []
        for k, x in enumerate(entries):
            i = next((i for i in odd if entries[i] == x), None)
            if i is None:
                odd.append(k)
            else:
                odd.remove(i)
        disc = (0, -1)
        for k in odd:
            disc = class_times(disc, classes[k])
        rest = [entries[k] for k in odd]
        if rest and (disc[0] or is_square(prod(rest[1:], start=rest[0])) is None):
            return SimilarityVerdict(
                NOT_SIMILAR, None,
                "discriminant classes differ (even dimension), no scalar "
                "changes the discriminant class",
            )
    # Sufficient branch: try scalar candidates built from diagonal entry
    # ratios (plus 1), certifying via entrywise square matching.  A candidate
    # b_j/a_i has the class of b_j times a_i; its signs must fit the pattern
    # above and its classes must admit a perfect matching before a_i is
    # inverted (once per i) and the candidate formed.  The first verified
    # one is the witness.
    signs = (1 << K.n_real_embeddings) - 1
    inverses: dict[int, FieldElement] = {}
    seen: list[FieldElement] = []
    for i, j in [(-1, -1)] + [(i, j) for i in range(m) for j in range(m)]:
        lam_class = (0, -1) if i < 0 else class_times(c2[j], c1[i])
        sign = lam_class[0] & signs
        if sign & pos or ~sign & neg:
            continue
        scaled_classes = [class_times(lam_class, c) for c in c1]
        if not _perfect_matching(m, lambda k, l: _compatible(scaled_classes[k], c2[l])):
            continue
        if i < 0:
            lam = K.one
        else:
            if i not in inverses:
                inverses[i] = diag1[i].inverse()
            lam = diag2[j] * inverses[i]
        if any(lam == s for s in seen):
            continue
        seen.append(lam)
        scaled = diag1 if lam == 1 else [lam * d for d in diag1]

        def edge(k: int, l: int) -> bool:
            # Equal entries make the nonzero square x^2 without a test.
            return scaled[k] == diag2[l] or (
                _compatible(scaled_classes[k], c2[l])
                and is_square(scaled[k] * diag2[l]) is not None)

        if _perfect_matching(m, edge):
            return SimilarityVerdict(
                SIMILAR, lam,
                "scalar verified by entrywise square-class matching of "
                "diagonalizations",
            )
    return SimilarityVerdict(
        UNKNOWN, None,
        "no invariant obstruction found and no verified scalar witness; "
        "the layered test over a general field is incomplete",
    )


def similar(q1: QuadraticSpace, q2: QuadraticSpace) -> SimilarityVerdict:
    """Decide whether q2 is isometric to lambda*q1 for some scalar lambda.

    Complete over Q.  Over a general totally real field the test is layered
    (signature profiles, discriminant class, verified scalar candidates) and
    may return Unknown; it never returns a wrong certificate.
    """
    if q1.field != q2.field:
        raise FieldMismatch("similarity compares forms over the same field")
    if q1.is_degenerate or q2.is_degenerate:
        raise DegenerateRestriction("similarity is defined for nondegenerate forms")
    if q1.dim != q2.dim:
        return SimilarityVerdict(
            NOT_SIMILAR, None, f"dimension {q1.dim} != {q2.dim}"
        )
    if q1.field.is_rationals:
        return _similar_over_Q(q1, q2)
    return _similar_over_K(q1, q2)


# ---------------------------------------------------------------------------
# Commensurability
# ---------------------------------------------------------------------------


@dataclass
class CommensurabilityVerdict:
    status: str  # COMMENSURABLE | NOT_COMMENSURABLE | UNKNOWN
    reason: str
    lambda_witness: FieldElement | None = None

    def __bool__(self) -> bool:
        return self.status == COMMENSURABLE


def _quadratic_disc(K: NumberField) -> int:
    b, c = K.poly[1], K.poly[0]
    return squarefree_part(Fraction(b * b - 4 * c))


def _map_into(q2: QuadraticSpace, K1: NumberField) -> QuadraticSpace:
    """Transport a form over a quadratic field K2 isomorphic to K1 into K1.

    The generator of K2 is sent to the root of K2's polynomial in K1 that
    lies, at K1's chosen embedding, in the isolating interval of K2's chosen
    root (exact signs at both ends), so distinguished places correspond.
    Equal squarefree discriminants make both roots lie in K1 and real there.
    """
    K2 = q2.field
    b, c = K2.poly[1], K2.poly[0]
    r = is_square(K1.from_fraction(b * b - 4 * c))  # the raw discriminant
    lo, hi = K2.real_roots[K2.chosen_embedding]
    roots = [] if r is None else [(r - b) / 2, (-r - b) / 2]
    theta = next(
        (x for x in roots if sign_at_embedding(x - lo) > 0 and sign_at_embedding(x - hi) < 0),
        None,
    )
    if theta is None:
        raise CertificateError(f"{K2} has no image in {K1} at its chosen place")

    # e = c0 + c1*t maps to c0 + c1*theta: a rational combination of the
    # coordinates of 1 and theta, with no product in K1.
    powers = (K1.one.coords, theta.coords)

    def convert(e: FieldElement) -> FieldElement:
        acc = [Fraction(0)] * K1.degree
        for c, power in zip(e.coords, powers):
            if c:
                acc = [a + c * x for a, x in zip(acc, power)]
        return FieldElement(K1, tuple(acc))

    return QuadraticSpace(K1, Matrix(K1, [[convert(e) for e in row] for row in q2.gram.rows]))


def commensurable(s1: QuadraticSpace, s2: QuadraticSpace) -> CommensurabilityVerdict:
    """Commensurability of the lattices attached to two admissible spaces:
    the defining fields must be isomorphic (matching distinguished places)
    and the forms similar over the identified field."""
    for s in (s1, s2):
        rep = is_admissible(s)
        if not rep:
            raise NotAdmissible("; ".join(rep.reasons))
    K1, K2 = s1.field, s2.field
    if K1.degree != K2.degree:
        return CommensurabilityVerdict(
            NOT_COMMENSURABLE,
            f"defining fields have different degrees {K1.degree} != {K2.degree}",
        )
    if s1.dim != s2.dim:
        return CommensurabilityVerdict(
            NOT_COMMENSURABLE, f"dimension {s1.dim} != {s2.dim}"
        )
    if K1.degree == 1:
        verdict = similar(s1, s2)
    elif K1.degree == 2:
        if _quadratic_disc(K1) != _quadratic_disc(K2):
            return CommensurabilityVerdict(
                NOT_COMMENSURABLE,
                f"quadratic fields Q(sqrt({_quadratic_disc(K1)})) and "
                f"Q(sqrt({_quadratic_disc(K2)})) are not isomorphic",
            )
        verdict = similar(s1, _map_into(s2, K1))
    elif K1.poly == K2.poly and K1.chosen_embedding == K2.chosen_embedding:
        verdict = similar(s1, QuadraticSpace(K1, s2.gram))
    else:
        return CommensurabilityVerdict(
            UNKNOWN,
            "field isomorphism detection beyond degree 2 is not implemented",
        )
    if verdict.status == SIMILAR:
        return CommensurabilityVerdict(
            COMMENSURABLE,
            f"fields isomorphic and forms similar: {verdict.reason}",
            verdict.lambda_witness,
        )
    if verdict.status == NOT_SIMILAR:
        return CommensurabilityVerdict(
            NOT_COMMENSURABLE, f"forms not similar: {verdict.reason}"
        )
    return CommensurabilityVerdict(UNKNOWN, verdict.reason)


# ---------------------------------------------------------------------------
# Form files
# ---------------------------------------------------------------------------


def parse_form(text: str) -> QuadraticSpace:
    """Parse the quadratic-form file format.

    ::

        # comment
        field 1 0 -2     # optional monic integer coefficients; omitted = Q
        embedding 1      # optional (default 0 = smallest real root)
        diag 1 1 [entries]    -- or an explicit Gram matrix:
        form 3
        1 -1/2 0
        -1/2 1 t
        0 t 1

    Entries follow ``hyplat.syntax``: rationals, polynomials in the
    generator ``t`` or ``[c0,c1,...]`` power-basis coordinates.
    """
    header = FieldHeader()
    entries: list[FieldElement] | None = None  # of a diag line
    rows: list[list[FieldElement]] | None = None  # of a form block
    dim = 0
    lineno = 1
    for lineno, parts in directive_lines(text):
        if rows is not None and len(rows) < dim:
            if len(parts) != dim:
                raise ParseError(
                    f"expected {dim} entries per row, got {len(parts)}", lineno
                )
            rows.append([parse_entry(t, header.field(), lineno) for t in parts])
            continue
        head = parts[0]
        if head in ("field", "embedding"):
            header.read(parts, lineno)
        elif head not in ("diag", "form"):
            raise ParseError(f"unknown directive {head!r}", lineno)
        elif entries is not None or rows is not None:
            raise ParseError("only one form per file", lineno)
        elif head == "diag":
            if len(parts) < 2:
                raise ParseError("'diag' needs at least one entry", lineno)
            entries = [parse_entry(t, header.field(), lineno) for t in parts[1:]]
        else:
            if len(parts) != 2:
                raise ParseError("expected 'form <dimension>'", lineno)
            dim = parse_int(parts[1], "form dimension", lineno)
            if dim < 1:
                raise ParseError("form dimension must be positive", lineno)
            header.field()
            rows = []

    K = header.field()
    if entries is not None:
        return QuadraticSpace.diagonal(K, entries)
    if rows is None:
        raise ParseError("file contains no form", lineno)
    if len(rows) < dim:
        raise ParseError("missing Gram rows", lineno)
    return QuadraticSpace(K, Matrix(K, rows))
