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
from typing import Iterable, Sequence

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
    is_square,
    sign_at_embedding,
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

    The Gram matrix is immutable, so it is congruence-diagonalized at most
    once, on first use; signatures at every embedding and diagonal entries
    are read from that one result.
    """

    def __init__(self, field: NumberField, gram: Matrix, allow_degenerate: bool = False):
        if gram.field != field:
            gram = Matrix(field, gram.rows)
        if gram.nrows != gram.ncols:
            raise DimensionMismatch("Gram matrix must be square")
        if not gram.is_symmetric:
            raise NotSymmetric("Gram matrix must be symmetric")
        self.field = field
        self.gram = gram
        self.is_degenerate = not gram.det()
        if self.is_degenerate and not allow_degenerate:
            raise DegenerateRestriction("Gram matrix is singular")
        self._diagonalization: tuple[list[FieldElement], Matrix] | None = None
        self._profile: tuple[tuple[int, int, int], ...] | None = None

    @classmethod
    def diagonal(cls, field: NumberField, entries: Sequence, **kw) -> "QuadraticSpace":
        return cls(field, Matrix.diagonal(field, entries), **kw)

    @property
    def dim(self) -> int:
        return self.gram.nrows

    def inner_product(self, u: Sequence, v: Sequence) -> FieldElement:
        uu = vec(self.field, u)
        vv = vec(self.field, v)
        if len(uu) != self.dim or len(vv) != self.dim:
            raise DimensionMismatch("vector length does not match the space")
        return sum(
            (uu[i] * self.gram[i, j] * vv[j] for i in range(self.dim) for j in range(self.dim)),
            self.field.zero,
        )

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
        return QuadraticSpace(
            self.field, self.gram * self.field.coerce(lam),
            allow_degenerate=self.is_degenerate,
        )

    def _diagonalize(self) -> tuple[list[FieldElement], Matrix]:
        """(D, T) with T^t G T = diag(D), computed once per space."""
        if self._diagonalization is None:
            self._diagonalization = symmetric_diagonalize(self.gram)
        return self._diagonalization

    def signature(self, j: int | None = None) -> tuple[int, int, int]:
        if self._profile is None:
            self._profile = diagonal_signature_profile(
                self.field, self._diagonalize()[0]
            )
        return self._profile[self.field.chosen_embedding if j is None else j]

    def diagonal_entries(self) -> list[FieldElement]:
        return list(self._diagonalize()[0])

    def __repr__(self) -> str:
        return f"QuadraticSpace(dim {self.dim} over {self.field!r})"


def direct_sum(a: QuadraticSpace, b: QuadraticSpace) -> QuadraticSpace:
    if a.field != b.field:
        raise FieldMismatch("direct sum over different fields")
    n, m = a.dim, b.dim
    field = a.field
    rows = []
    for i in range(n):
        rows.append(list(a.gram.rows[i]) + [field.zero] * m)
    for i in range(m):
        rows.append([field.zero] * n + list(b.gram.rows[i]))
    return QuadraticSpace(field, Matrix(field, rows),
                          allow_degenerate=a.is_degenerate or b.is_degenerate)


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


def hilbert_symbol(a: Fraction | int, b: Fraction | int, place) -> int:
    """Hilbert symbol (a, b)_v over Q_v; place is a prime or "inf"."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if place in ("inf", "infinity", None) or place == float("inf"):
        return -1 if a < 0 and b < 0 else 1
    p = int(place)
    if not is_prime(p):
        raise ValueError(f"place {place!r} is not a prime or 'inf'")
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


def rational_diagonal(space: QuadraticSpace) -> list[Fraction]:
    """Diagonalization of a nondegenerate rational space, as Fractions."""
    if not space.field.is_rationals:
        raise FieldMismatch("rational invariants need a form over Q")
    if space.is_degenerate:
        raise DegenerateRestriction("degenerate space has no complete invariants")
    return [d.to_fraction() for d in space.diagonal_entries()]


def disc_class(diag: Sequence[Fraction]) -> int:
    prod = Fraction(1)
    for d in diag:
        prod *= d
    return squarefree_part(prod)


def hasse_invariant(diag: Sequence[Fraction], place) -> int:
    out = 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            out *= hilbert_symbol(diag[i], diag[j], place)
    return out


def relevant_primes(*diags: Sequence[Fraction]) -> list[int]:
    """{2} plus every prime dividing a squarefree-reduced diagonal entry.

    Outside this set all entries are p-adic units for odd p, so every Hilbert
    symbol — hence both Hasse invariants — is +1.
    """
    primes = {2}
    for diag in diags:
        for d in diag:
            sf = squarefree_part(d)
            primes.update(factorize(abs(sf)).keys() if abs(sf) > 1 else ())
    return sorted(primes)


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
    if disc_class(d1) != disc_class(d2):
        return IsometryVerdict(
            False, f"discriminant class {disc_class(d1)} != {disc_class(d2)}"
        )
    primes = relevant_primes(d1, d2)
    for p in primes:
        h1, h2 = hasse_invariant(d1, p), hasse_invariant(d2, p)
        if h1 != h2:
            return IsometryVerdict(False, f"Hasse invariant differs at p={p}")
    # Outside the relevant set the invariants are provably trivial; spot
    # check the first two excluded odd primes.
    extra = [p for p in (3, 5, 7, 11, 13) if p not in primes][:2]
    for p in extra:
        if not hasse_invariant(d1, p) == 1 == hasse_invariant(d2, p):
            raise CertificateError(
                f"Hasse invariant at p={p}, outside the relevant primes, is not 1"
            )
    return IsometryVerdict(
        True,
        "dimension, signature, discriminant and Hasse invariants at "
        f"{{{', '.join(map(str, primes))}}} all match",
    )


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
    D1, D2 = disc_class(d1), disc_class(d2)

    def verify(lam: int) -> SimilarityVerdict | None:
        if (1 if lam > 0 else -1) not in signs:
            return None
        if isometric_over_Q(q1.scale(Fraction(lam)), q2):
            return SimilarityVerdict(
                SIMILAR, QQ.from_fraction(lam),
                f"lambda = {lam} verified by the complete isometry test",
            )
        return None

    if m % 2 == 1:
        # disc(lambda q) = lambda^m disc(q) == lambda * disc(q) mod squares:
        # the square class of lambda is forced.
        forced = squarefree_part(Fraction(D1 * D2))
        got = verify(forced)
        if got:
            return got
        return SimilarityVerdict(
            NOT_SIMILAR, None,
            f"odd dimension forces lambda = {forced} mod squares, which fails "
            "the isometry invariants",
        )

    # Even dimension: the discriminant class is a similarity invariant.
    if D1 != D2:
        return SimilarityVerdict(
            NOT_SIMILAR, None, f"discriminant class {D1} != {D2} (even dimension)"
        )
    primes = relevant_primes(d1, d2)
    # The squarefree divisors of prod(primes), built from the known primes
    # rather than by factoring their product: two primes above 10^6 would
    # put that product past the factorization bound.
    supported = [1]
    for p in primes:
        supported += [t * p for t in supported]
    for t in supported:
        for lam in (t, -t):
            got = verify(lam)
            if got:
                return got
    # No bad-set scalar works.  Scaling twists the Hasse invariant by
    # (lambda, c)_v with c = (-1)^(m(m-1)/2) * disc; if c is a square in some
    # Q_v where the invariants disagree, no scalar can ever fix place v.
    c = squarefree_part(Fraction((-1) ** ((m * (m - 1) // 2) % 2) * D1))
    for p in primes:
        delta = hasse_invariant(d1, p) * hasse_invariant(d2, p)
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
            for lam in (t * r, -t * r):
                got = verify(lam)
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


def _match_diagonals_by_squares(
    d1: list[FieldElement], d2: list[FieldElement]
) -> bool:
    """Backtracking perfect matching with edges 'ratio is a square'."""
    m = len(d1)
    used = [False] * m

    def extend(i: int) -> bool:
        if i == m:
            return True
        for j in range(m):
            if not used[j] and is_square(d1[i] * d2[j]) is not None:
                used[j] = True
                if extend(i + 1):
                    return True
                used[j] = False
        return False

    return extend(0)


def _similar_over_K(q1: QuadraticSpace, q2: QuadraticSpace) -> SimilarityVerdict:
    K = q1.field
    m = q1.dim
    # (ii) per-embedding signature profiles must match up to a global flip
    # with a consistent sign pattern for lambda.
    flips: list[set[int]] = []
    for j in range(K.n_real_embeddings):
        s1, s2 = q1.signature(j), q2.signature(j)
        allowed = set()
        if s1 == s2:
            allowed.add(1)
        if (s1[1], s1[0], s1[2]) == s2:
            allowed.add(-1)
        if not allowed:
            return SimilarityVerdict(
                NOT_SIMILAR, None,
                f"signatures at embedding {j} are {s1} vs {s2}: no scalar sign works",
            )
        flips.append(allowed)
    if m % 2 == 0:
        det1, det2 = q1.gram.det(), q2.gram.det()
        if is_square(det1 * det2) is None:
            return SimilarityVerdict(
                NOT_SIMILAR, None,
                "discriminant classes differ (even dimension), no scalar "
                "changes the discriminant class",
            )
    # Sufficient branch: try scalar candidates built from diagonal entry
    # ratios (plus 1), certifying via entrywise square matching.
    diag1 = q1.diagonal_entries()
    diag2 = q2.diagonal_entries()
    candidates: list[FieldElement] = [K.one]
    for a in diag1:
        for b in diag2:
            candidates.append(b / a)
    seen: list[FieldElement] = []
    for lam in candidates:
        if not lam or any(lam == s for s in seen):
            continue
        seen.append(lam)
        if all(
            (1 if sign_at_embedding(lam, j) > 0 else -1) in flips[j]
            for j in range(K.n_real_embeddings)
        ):
            if _match_diagonals_by_squares([lam * d for d in diag1], diag2):
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

    def convert(e: FieldElement) -> FieldElement:
        acc = K1.zero
        power = K1.one
        for c in e.coords:
            acc = acc + power * c
            power = power * theta
        return acc

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
