"""Number fields presented by a monic integer defining polynomial.

A field K = Q[x]/(f) is represented by f (monic, integral, irreducible,
ascending coefficients) together with Sturm isolating intervals for its real
roots and a *chosen* real embedding used wherever a single archimedean place
is needed (signatures, positivity, hyperboloid membership).  Elements are
coordinate vectors over the power basis 1, t, ..., t^(d-1) with Fraction
entries; all arithmetic is exact.  Construction proves f irreducible by
factoring it over the integers (`polynomials.factor_squarefree`), for every
degree, with no library outside the package.

Over a totally real field `is_square` decides squares exactly: the traces of
an integral multiple of a square root are rational integers, which interval
enclosures narrower than 1 determine, and squaring verifies the root.

The rationals are the degree-1 field Q[x]/(x); `QQ` below is the shared
instance.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, isqrt, lcm
from typing import Iterable, Sequence

from hyplat.algebra import polynomials as P
from hyplat.errors import DivisionByZero, FieldMismatch, NotTotallyReal

__all__ = [
    "NumberField",
    "FieldElement",
    "QQ",
    "sign_at_embedding",
    "approx_at_embedding",
    "is_algebraic_integer",
    "is_square",
    "rational_square_root",
]


class NumberField:
    """Q[x]/(f) with a distinguished real embedding.

    Parameters
    ----------
    coefficients:
        Ascending integer coefficients of the monic defining polynomial.
    embedding:
        Index into the ascending list of real roots; defaults to the largest
        real root, the all-positive embedding that multiquadratic composita
        use.  Form and complex files default to index 0, the smallest root
        (``hyplat.syntax.FieldHeader`` says why the two differ).
    """

    def __init__(
        self,
        coefficients: Sequence[int | Fraction],
        embedding: int | None = None,
        _trusted: bool = False,
    ):
        f = P.poly(coefficients)
        if P.degree(f) < 1:
            raise ValueError("defining polynomial must have degree >= 1")
        if any(c.denominator != 1 for c in f):
            raise ValueError("defining polynomial must have integer coefficients")
        if f[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        if not _trusted:
            _check_irreducible(f)
        self.poly: P.Poly = f
        self.degree: int = P.degree(f)
        self.real_roots: list[tuple[Fraction, Fraction]] = P.isolate_real_roots(f)
        if not self.real_roots:
            raise ValueError(
                "defining polynomial has no real root; totally imaginary fields "
                "are handled as composita bookkeeping only"
            )
        if embedding is None:
            embedding = len(self.real_roots) - 1
        if not -len(self.real_roots) <= embedding < len(self.real_roots):
            raise ValueError(
                f"embedding index {embedding} out of range for "
                f"{len(self.real_roots)} real roots"
            )
        self.chosen_embedding: int = embedding % len(self.real_roots)
        # Mutable cache of progressively refined isolating intervals.
        self._intervals: list[tuple[Fraction, Fraction]] = list(self.real_roots)
        self._trace_inv: list[list[Fraction]] | None = None

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NumberField)
            and self.poly == other.poly
            and self.chosen_embedding == other.chosen_embedding
        )

    def __hash__(self) -> int:
        return hash((self.poly, self.chosen_embedding))

    def __repr__(self) -> str:
        return f"NumberField({_poly_str(self.poly)}, embedding={self.chosen_embedding})"

    # -- basic data --------------------------------------------------------

    @property
    def is_rationals(self) -> bool:
        return self.degree == 1

    @property
    def n_real_embeddings(self) -> int:
        return len(self.real_roots)

    @property
    def is_totally_real(self) -> bool:
        return len(self.real_roots) == self.degree

    # -- element constructors ----------------------------------------------

    def element(self, coords: Iterable[Fraction | int]) -> "FieldElement":
        c = [Fraction(v) for v in coords]
        if len(c) > self.degree:
            raise ValueError(f"too many coordinates for degree {self.degree}")
        c += [Fraction(0)] * (self.degree - len(c))
        return FieldElement(self, tuple(c))

    def from_fraction(self, q: Fraction | int) -> "FieldElement":
        return self.element([Fraction(q)])

    @property
    def zero(self) -> "FieldElement":
        return self.from_fraction(0)

    @property
    def one(self) -> "FieldElement":
        return self.from_fraction(1)

    @property
    def gen(self) -> "FieldElement":
        """The class of x (a root of the defining polynomial)."""
        if self.degree == 1:
            return self.from_fraction(-self.poly[0])
        return self.element([0, 1])

    def coerce(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field == self:
                return value
            if value.is_rational:
                return self.from_fraction(value.to_fraction())
            raise FieldMismatch(f"cannot coerce element of {value.field} into {self}")
        if isinstance(value, (int, Fraction)):
            return self.from_fraction(value)
        raise TypeError(f"cannot coerce {type(value).__name__} into a field element")

    # -- embeddings ---------------------------------------------------------

    def _refine(self, j: int, width: Fraction | None = None) -> tuple[Fraction, Fraction]:
        """Shrink root j's interval below `width` (default: by 16x) and keep it."""
        lo, hi = self._intervals[j]
        if lo != hi:
            lo, hi = P.refine_interval(self.poly, lo, hi, width or (hi - lo) / 16)
            self._intervals[j] = (lo, hi)
        return lo, hi

    def _trace_inverse(self) -> list[list[Fraction]]:
        """Inverse of the integer trace matrix (Tr t^(i+k)), det = disc f."""
        if self._trace_inv is None:
            d, power, traces = self.degree, self.one, []
            for _ in range(2 * d - 1):
                m = multiplication_matrix(power)
                traces.append(sum(m[i][i] for i in range(d)))
                power = power * self.gen
            red, _ = P.rational_rref(
                [traces[i : i + d] + [int(i == k) for k in range(d)] for i in range(d)]
            )
            self._trace_inv = [row[d:] for row in red]
        return self._trace_inv


class FieldElement:
    """An element of a NumberField in power-basis coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: tuple[Fraction, ...]):
        self.field = field
        self.coords = coords

    # -- plumbing ------------------------------------------------------------

    def _pair(self, other) -> tuple["FieldElement", "FieldElement"]:
        if isinstance(other, FieldElement):
            if other.field == self.field:
                return self, other
            if other.is_rational:
                return self, self.field.from_fraction(other.to_fraction())
            if self.is_rational:
                return other.field.from_fraction(self.to_fraction()), other
            raise FieldMismatch(
                f"elements of {self.field} and {other.field} cannot be combined"
            )
        if isinstance(other, (int, Fraction)):
            return self, self.field.from_fraction(other)
        return self, NotImplemented  # type: ignore[return-value]

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

    def __bool__(self) -> bool:
        return any(self.coords)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.coords[0] == other
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.field == self.field:
            return self.coords == other.coords
        if self.is_rational and other.is_rational:
            return self.coords[0] == other.coords[0]
        return False

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(self.coords[0])
        return hash((self.field, self.coords))

    def __repr__(self) -> str:
        return _poly_str(P.poly(self.coords))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(a.field, tuple(x + y for x, y in zip(a.coords, b.coords)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-x for x in self.coords))

    def __sub__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(a.field, tuple(x - y for x, y in zip(a.coords, b.coords)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        prod = P.poly_mod(P.poly_mul(P.poly(a.coords), P.poly(b.coords)), a.field.poly)
        return a.field.element(prod)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not self:
            raise DivisionByZero("inverse of zero")
        # Extended Euclid: u*g + v*f = 1 with g this element's representative.
        g = P.poly(self.coords)
        f = self.field.poly
        r0, r1 = f, g
        s0, s1 = P.poly([]), P.poly([1])
        while P.degree(r1) > 0:
            q, r = P.poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, P.poly_sub(s0, P.poly_mul(q, s1))
        # r1 is a nonzero constant (f irreducible, g nonzero of lower degree).
        c = r1[0]
        return self.field.element(P.poly_scale(s1, 1 / c))

    def __truediv__(self, other):
        a, b = self._pair(other)
        if b is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


# ---------------------------------------------------------------------------
# Embedding evaluation
# ---------------------------------------------------------------------------


def sign_at_embedding(a: FieldElement, j: int | None = None) -> int:
    """Sign (+1, -1 or 0) of the image of `a` under the j-th real embedding.

    Certified by interval arithmetic over the isolating interval of the root:
    the interval is refined until the interval image of a's representative
    polynomial excludes zero, which terminates because a nonzero element
    cannot vanish at a root of the irreducible defining polynomial.
    """
    K = a.field
    if j is None:
        j = K.chosen_embedding
    if not a:
        return 0
    g = P.poly(a.coords)
    lo, hi = K._intervals[j]
    if lo == hi:
        return P.poly_sign(g, lo)
    while True:
        mlo, mhi = P.interval_eval(g, lo, hi)
        if mlo > 0:
            return 1
        if mhi < 0:
            return -1
        lo, hi = K._refine(j)


def approx_at_embedding(
    a: FieldElement, j: int | None = None, digits: int = 15
) -> Fraction:
    """Rational approximation of the embedded value, |err| <= 10^-digits."""
    K = a.field
    if j is None:
        j = K.chosen_embedding
    g = P.poly(a.coords)
    if not g:
        return Fraction(0)
    tol = Fraction(1, 10**digits)
    lo, hi = K._intervals[j]
    if lo == hi:
        return P.poly_eval(g, lo)
    while True:
        mlo, mhi = P.interval_eval(g, lo, hi)
        if mhi - mlo <= 2 * tol:
            return (mlo + mhi) / 2
        lo, hi = K._refine(j)


# ---------------------------------------------------------------------------
# Integrality
# ---------------------------------------------------------------------------


def multiplication_matrix(a: FieldElement) -> list[list[Fraction]]:
    """Matrix of y -> a*y over the power basis (columns = images of t^i).

    Column i+1 is t times column i: shift the coordinates up one degree and
    reduce t^d by the monic defining polynomial.
    """
    f = a.field.poly
    d = a.field.degree
    cols = [list(a.coords)]
    for _ in range(d - 1):
        prev = cols[-1]
        top = prev[-1]
        cols.append([-top * f[0]] + [prev[k - 1] - top * f[k] for k in range(1, d)])
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def is_algebraic_integer(a: FieldElement) -> bool:
    """True iff `a` is integral over Z.

    The characteristic polynomial of the multiplication-by-a matrix is a
    power of a's minimal polynomial; it has integer coefficients exactly when
    the minimal polynomial does.  It is computed over the integers: with m
    the common denominator of the matrix A, B = m*A is integral and the
    coefficient of x^(d-k) is c_k(B) / m^k (see `charpoly_rational`).
    """
    cp = P.charpoly_rational(multiplication_matrix(a))
    return all(c.denominator == 1 for c in cp)


# ---------------------------------------------------------------------------
# Square testing
# ---------------------------------------------------------------------------


def rational_square_root(q: Fraction | int) -> Fraction | None:
    """Exact nonnegative square root of a rational, or None."""
    q = Fraction(q)
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _fixed_mul(x: tuple[int, int], y: tuple[int, int], p: int) -> tuple[int, int]:
    """Product of intervals [x0, x1] * [y0, y1] in fixed point 2^-p, rounded out."""
    c = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return min(c) >> p, -(-max(c) >> p)


def _trace_terms(K: NumberField, A: P.Poly) -> tuple[list[list[tuple[int, int]]], int]:
    """Enclosures [L, H] * 2^-p of sqrt(A(r_j)) * r_j^k for every real root
    r_j and every k < d, fine enough that sum_j (H - L) < 2^p for each k."""
    d, p = K.degree, 64
    while True:
        terms = []
        for j in range(d):
            lo, hi = K._refine(j, Fraction(1, 1 << p))
            alo, ahi = P.interval_eval(A, lo, hi)
            row = [(isqrt(max(floor(alo * 4**p), 0)), isqrt(ceil(ahi * 4**p)) + 1)]
            root = (floor(lo * 2**p), ceil(hi * 2**p))
            for _ in range(d - 1):
                row.append(_fixed_mul(row[-1], root, p))
            terms.append(row)
        if all(sum(H - L for L, H in col) < 1 << p for col in zip(*terms)):
            return terms, p
        p *= 2


def is_square(a: FieldElement) -> FieldElement | None:
    """An exact square root of `a` in its field, or None if `a` is no square.

    A decision over totally real fields; over any other field of degree > 1
    it raises NotTotallyReal.  Let q be the common denominator of a's
    coordinates.  If b^2 = a then b' = q*b satisfies b'^2 = q*(q*a), which
    has integral coordinates, so b' is an algebraic integer and each trace
    Tr(b' t^k) = sum_j e_j sqrt(q^2 a(r_j)) r_j^k is a rational integer, with
    e_j the sign of b' at the real root r_j.  For each sign pattern (e = +1
    at the largest root, which fixes the sign of b) the enclosures of these
    sums are narrower than 1: a pattern whose enclosures miss an integer is
    rejected, and otherwise the integers are the traces of b', which the
    inverse of the trace matrix (Tr t^(i+k)), of determinant disc f != 0,
    turns into coordinates.  Squaring verifies the candidate, so a square
    root is always found and never a wrong one returned.

    The returned root is nonnegative at the largest real embedding.
    """
    K = a.field
    if not a:
        return K.zero
    if K.degree == 1:
        r = rational_square_root(a.to_fraction())
        return None if r is None else K.from_fraction(r)
    if not K.is_totally_real:
        raise NotTotallyReal(f"squares are decided over totally real fields only, not {K}")
    d = K.degree
    if any(sign_at_embedding(a, j) < 0 for j in range(d)):
        return None
    if a.is_rational:
        r = rational_square_root(a.to_fraction())
        if r is not None:
            return K.from_fraction(r)
        # A rational non-square may still be a square in K; fall through.
    q = lcm(*(c.denominator for c in a.coords))
    terms, p = _trace_terms(K, P.poly(c * q * q for c in a.coords))
    inverse = K._trace_inverse()
    for mask in range(1 << (d - 1)):
        traces = []
        for col in zip(*terms):
            lo = sum(-H if mask >> j & 1 else L for j, (L, H) in enumerate(col))
            hi = sum(-L if mask >> j & 1 else H for j, (L, H) in enumerate(col))
            t = -(-lo >> p)  # the least integer >= lo * 2^-p
            if t << p > hi:
                break
            traces.append(t)
        else:
            root = K.element(sum(x * t for x, t in zip(row, traces)) / q for row in inverse)
            if root * root == a:
                return root
    return None


# ---------------------------------------------------------------------------
# Irreducibility validation
# ---------------------------------------------------------------------------


def _check_irreducible(f: P.Poly) -> None:
    """Raise ValueError unless the monic integer f is irreducible over Q.

    One exact path for every degree: f must be squarefree, and then its
    factorization over Z (`P.factor_squarefree`) must have one factor.  A
    linear factor is reported as the least rational root.
    """
    if P.degree(f) == 1:
        return
    if not P.is_squarefree(f):
        raise ValueError("defining polynomial must be squarefree")
    factors = P.factor_squarefree([int(c) for c in f])
    if len(factors) == 1:
        return
    roots = [-g[0] for g in factors if len(g) == 2]
    if roots:
        raise ValueError(f"defining polynomial has rational root {min(roots)}")
    raise ValueError("defining polynomial is reducible")


def _poly_str(f: P.Poly, var: str = "t") -> str:
    if not f:
        return "0"
    parts = []
    for i, c in enumerate(f):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
            if c < 0:
                term = "-" + term
            parts.append(term)
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


QQ = NumberField([0, 1])
"""The rational field, modeled as Q[x]/(x)."""
