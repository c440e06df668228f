"""Univariate polynomials over the rationals.

A polynomial is a tuple of Fractions in *ascending* degree order with no
trailing zeros; the zero polynomial is the empty tuple.  This module carries
the exact real-root machinery (Sturm chains, isolating intervals, interval
refinement) that the number-field layer builds on, and the factorization
over the integers (`factor_squarefree`) that decides irreducibility.

Real signs are exact and computed over the integers: a polynomial is
cleared to its integer numerators once (`integer_numerators`), a point or
an interval is kept as integer numerators over one common denominator, and
`poly_sign`, `interval_eval` and `refine_interval` evaluate by integer
Horner, with no Fraction built per step.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations
from math import isqrt, lcm
from typing import Iterable, Sequence

from hyplat.algebra.arith import MILLER_RABIN_BOUND, is_prime

Poly = tuple[Fraction, ...]


def poly(coeffs: Iterable[Fraction | int]) -> Poly:
    """Normalize a coefficient sequence (ascending) into a Poly."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(f: Poly) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(f) - 1


def leading(f: Poly) -> Fraction:
    if not f:
        raise ValueError("zero polynomial has no leading coefficient")
    return f[-1]


def poly_add(f: Poly, g: Poly) -> Poly:
    n = max(len(f), len(g))
    return poly(
        (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)
    )


def poly_neg(f: Poly) -> Poly:
    return tuple(-c for c in f)


def poly_sub(f: Poly, g: Poly) -> Poly:
    return poly_add(f, poly_neg(g))


def poly_mul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ()
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return poly(out)


def poly_scale(f: Poly, c: Fraction | int) -> Poly:
    c = Fraction(c)
    if c == 0:
        return ()
    return tuple(a * c for a in f)


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    r = list(f)
    dg, lg = degree(g), leading(g)
    while len(r) >= len(g) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(g):
            break
        shift = len(r) - len(g)
        c = r[-1] / lg
        q[shift] = c
        for i in range(len(g)):
            r[shift + i] -= c * g[i]
        r.pop()
    return poly(q), poly(r)


def poly_mod(f: Poly, g: Poly) -> Poly:
    return poly_divmod(f, g)[1]


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd."""
    a, b = f, g
    while b:
        a, b = b, poly_mod(a, b)
    if not a:
        return ()
    return poly_scale(a, 1 / leading(a))


def poly_derivative(f: Poly) -> Poly:
    return poly(i * c for i, c in enumerate(f) if i > 0)


def poly_eval(f: Poly, x: Fraction | int) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def is_squarefree(f: Poly) -> bool:
    return degree(poly_gcd(f, poly_derivative(f))) <= 0


# ---------------------------------------------------------------------------
# Signs and enclosures over the integers
# ---------------------------------------------------------------------------
#
# A real interval [lo/m, hi/m] is kept as integer numerators over one common
# denominator m > 0, and a polynomial f as D*f, its integer numerators over
# the least common denominator D of its coefficients.  Every sign and
# enclosure below is then computed by Horner's rule on integers, m^e D f(x)
# for e = deg f, which has the sign of f(x) and needs no gcd per step.


def integer_numerators(f: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """(F, D): D the least common denominator of f's coefficients and
    F = D*f, an integer polynomial with the signs of f."""
    D = lcm(*(c.denominator for c in f))
    return [c.numerator * (D // c.denominator) for c in f], D


def poly_sign(F: Sequence[int], n: int, m: int) -> int:
    """Sign of F(n/m) for integer coefficients F and m > 0: the sign of
    m^e F(n/m) = sum F_k n^k m^(e-k), by Horner over the integers.  For a
    rational polynomial f, F = `integer_numerators(f)[0]` has f's signs."""
    acc, mpow = 0, 1
    for c in reversed(F):
        acc, mpow = acc * n + c * mpow, mpow * m
    return (acc > 0) - (acc < 0)


def interval_eval(F: Sequence[int], lo: int, hi: int, m: int) -> tuple[int, int]:
    """Integers [L, H] enclosing {m^e F(x) : lo/m <= x <= hi/m}, e = len(F) - 1.

    Interval Horner: each step multiplies the enclosure by [lo, hi] and adds
    F_k m^(e-k).  This is the rational interval Horner on [lo/m, hi/m]
    scaled by m^e > 0, so both give the same enclosure up to that factor.
    """
    L = H = 0
    mpow = 1
    for c in reversed(F):
        products = (L * lo, L * hi, H * lo, H * hi)
        c *= mpow
        L, H, mpow = min(products) + c, max(products) + c, mpow * m
    return L, H


def refine_interval(
    F: Sequence[int], lo: int, hi: int, m: int, width: Fraction
) -> tuple[int, int, int]:
    """Shrink the isolating interval [lo/m, hi/m] of a root of the integer
    polynomial F below `width` by sign bisection; returns (lo, hi, m).

    Each step doubles m, so the midpoint lo + hi stays an integer numerator
    and dyadic endpoints stay dyadic.  Requires F(lo/m) != 0 and a single
    root inside; exact points (lo == hi) pass through, and a rational root
    hit by a midpoint collapses the interval onto it.
    """
    if lo == hi:
        return lo, hi, m
    flo = poly_sign(F, lo, m)
    wn, wd = width.numerator, width.denominator
    while (hi - lo) * wd > wn * m:
        mid, lo, hi, m = lo + hi, 2 * lo, 2 * hi, 2 * m
        fmid = poly_sign(F, mid, m)
        if fmid == 0:
            return mid, mid, m
        if fmid == flo:
            lo = mid
        else:
            hi = mid
    return lo, hi, m


# ---------------------------------------------------------------------------
# Sturm chains and real root isolation
# ---------------------------------------------------------------------------


def sturm_chain(f: Poly) -> list[Poly]:
    chain = [f, poly_derivative(f)]
    while chain[-1]:
        r = poly_mod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(poly_neg(r))
    return chain


def _sign_variations(chain: Sequence[Sequence[int]], n: int, m: int) -> int:
    signs = [s for s in (poly_sign(F, n, m) for F in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_in(chain: Sequence[Sequence[int]], a: int, b: int, m: int) -> int:
    """Number of distinct real roots in (a/m, b/m] of the squarefree chain[0],
    for a Sturm chain cleared to integer numerators."""
    return _sign_variations(chain, a, m) - _sign_variations(chain, b, m)


def cauchy_bound(f: Poly) -> Fraction:
    """All real roots lie in (-B, B)."""
    lc = abs(leading(f))
    b = max((abs(c) for c in f[:-1]), default=Fraction(0))
    return 1 + b / lc


def isolate_real_roots(f: Poly) -> list[tuple[int, int, int]]:
    """Isolating intervals [lo/m, hi/m] for the distinct real roots of f,
    ascending, as integer triples (lo, hi, m) with m > 0.

    f must be squarefree.  Each interval has non-root endpoints and contains
    exactly one root; degenerate intervals (lo == hi) are returned for
    rational roots (possible only for reducible or degree-1 inputs, which for
    this package means degree-1 defining polynomials).  The Sturm chain is
    cleared to integer numerators once and every point is signed by
    `poly_sign`; for a monic integer f the Cauchy bound is an integer and
    every split takes a midpoint, so m is a power of 2.
    """
    if degree(f) < 1:
        return []
    if degree(f) == 1:
        r = -f[0] / f[1]
        return [(r.numerator, r.numerator, r.denominator)]
    chain = [integer_numerators(p)[0] for p in sturm_chain(f)]
    B = cauchy_bound(f)
    out: list[tuple[int, int, int]] = []

    def split(lo: int, hi: int, m: int, n: int) -> None:
        # The interval [lo/m, hi/m] holds n roots; midpoints double m.
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi, m))
            return
        mid, lo, hi, m = lo + hi, 2 * lo, 2 * hi, 2 * m
        # A rational midpoint can be a root only if f has a rational root;
        # nudge until it is not one so (lo,mid] / (mid,hi] counts are exact.
        while poly_sign(chain[0], mid, m) == 0:
            mid, lo, hi, m = lo + mid, 2 * lo, 2 * hi, 2 * m
        left = count_roots_in(chain, lo, mid, m)
        split(lo, mid, m, left)
        split(mid, hi, m, n - left)

    b, m = B.numerator, B.denominator
    split(-b, b, m, count_roots_in(chain, -b, b, m))
    return out


# ---------------------------------------------------------------------------
# Rational matrices
# ---------------------------------------------------------------------------


def charpoly_rational(rows: Sequence[Sequence[Fraction]]) -> Poly:
    """Characteristic polynomial det(xI - A), ascending coefficients, monic.

    Computed over the integers: with m the least common denominator of A,
    B = m*A is an integer matrix and det(xI - A) = m^-n det(m x I - B), so
    the coefficient of x^(n-k) is c_k / m^k where c_k is that of B's
    characteristic polynomial.  Faddeev-LeVerrier on B stays integral (its
    divisions by k are exact, since each c_k is an integer).  Used for
    integrality certificates of field elements via their multiplication
    matrices.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    A = [[Fraction(v) for v in r] for r in rows]
    m = 1
    for r in A:
        for v in r:
            m = lcm(m, v.denominator)
    B = [[int(v * m) for v in r] for r in A]
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]  # descending: x^n coefficient first
    scale = 1
    for k in range(1, n + 1):
        cols = list(zip(*M))
        AM = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in B]
        ck = -sum(AM[i][i] for i in range(n)) // k
        scale *= m
        coeffs.append(Fraction(ck, scale))
        for i in range(n):
            AM[i][i] += ck
        M = AM
    return poly(reversed(coeffs))


def rational_rref(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Reduced row echelon form of a rational matrix and its pivot columns.

    Gauss-Jordan elimination on Fractions; the one elimination behind every
    rational solve, inverse and linear-dependence search in the package.
    """
    A = [list(r) for r in rows]
    nr, nc = len(A), len(A[0]) if A else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        pv = Fraction(A[r][c])
        A[r] = [v / pv for v in A[r]]
        for i in range(nr):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return A, tuple(pivots)


# ---------------------------------------------------------------------------
# Factorization over the integers (Zassenhaus, no Hensel lifting)
# ---------------------------------------------------------------------------
#
# Polynomials mod p (and the integer ones being factored) are lists of ints
# in ascending order with no trailing zeros.

# Exponents e of the Mersenne primes 2^e - 1 that serve as moduli past the
# range where `is_prime` is a proof.  The list stops where one factorization
# of degree 8 takes seconds.
_MERSENNE_EXPONENTS = (89, 107, 127, 521, 607, 1279)


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _divmod_monic(a: list[int], g: list[int], p: int = 0) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic g, mod p (over Z if p = 0)."""
    dg = len(g) - 1
    r = list(a)
    q = [0] * max(len(a) - dg, 0)
    for i in range(len(a) - 1 - dg, -1, -1):
        c = r[i + dg] % p if p else r[i + dg]
        if c:
            q[i] = c
            for j in range(dg):
                r[i + j] -= c * g[j]
    r = r[:dg]
    if p:
        r = [c % p for c in r]
    return _trim(q), _trim(r)


def _monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over GF(p); a must be nonzero."""
    while b:
        b = _monic(b, p)
        a, b = b, _divmod_monic(a, b, p)[1]
    return _monic(a, p)


def _mulmod(a: list[int], b: list[int], g: list[int], p: int) -> list[int]:
    """a*b mod (g, p) for a monic g, a and b reduced mod g."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _divmod_monic(out, g, p)[1]


def _powmod(a: list[int], e: int, g: list[int], p: int) -> list[int]:
    """a^e mod (g, p) by square and multiply, for a reduced mod g."""
    out, base = [1], a
    while e:
        if e & 1:
            out = _mulmod(out, base, g, p)
        e >>= 1
        if e:
            base = _mulmod(base, base, g, p)
    return out


def _minus_monomial(a: list[int], k: int, p: int) -> list[int]:
    """a - x^k mod p."""
    out = a + [0] * (k + 1 - len(a))
    out[k] = (out[k] - 1) % p
    return _trim(out)


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """(g, k): g the product of f's irreducible factors of degree k mod p,
    for f monic and squarefree mod p."""
    out = []
    h, k = [0, 1], 0
    while len(f) - 1 >= 2 * (k + 1):
        k += 1
        h = _powmod(h, p, f, p)  # x^(p^k) mod f
        g = _gcd(f, _minus_monomial(h, 1, p), p)
        if len(g) > 1:
            out.append((g, k))
            f = _divmod_monic(f, g, p)[0]
            h = _divmod_monic(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g: list[int], k: int, p: int, rng: random.Random) -> list[list[int]]:
    """The monic irreducible factors mod an odd p of g, a product of
    distinct irreducibles of degree k (Cantor-Zassenhaus)."""
    if len(g) - 1 == k:
        return [g]
    e = (p**k - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        s = _gcd(g, _minus_monomial(_powmod(a, e, g, p), 0, p), p)
        if 1 < len(s) < len(g):
            rest = _divmod_monic(g, s, p)[0]
            return _equal_degree(s, k, p, rng) + _equal_degree(rest, k, p, rng)


def _modulus(f: list[int], bound: int) -> int:
    """The least prime above `bound` modulo which f stays squarefree; past
    MILLER_RABIN_BOUND, the least such Mersenne prime from the list."""
    df = [i * c for i, c in enumerate(f)][1:]
    primes = (n for n in range(bound + 1, MILLER_RABIN_BOUND) if is_prime(n))
    mersenne = (m for m in (2**e - 1 for e in _MERSENNE_EXPONENTS) if m > bound)
    for p in chain(primes, mersenne):
        if len(_gcd([c % p for c in f], _trim([c % p for c in df]), p)) == 1:
            return p
    raise ValueError("defining polynomial has coefficients too large to factor")


def factor_squarefree(f: Sequence[int]) -> list[tuple[int, ...]]:
    """The irreducible factors over Z of a monic squarefree integer
    polynomial, as ascending coefficient tuples sorted by (degree, coefficients).

    Every coefficient of a proper monic factor of f is at most
    B = 2^(d-1) * ceil(|f|_2) in absolute value (Landau-Mignotte).  So mod a
    prime p > 2B, with f squarefree mod p, each factor over Z is the
    symmetric lift of a product of f's irreducible factors mod p, and no
    Hensel lifting is needed.  f is factored mod p by distinct-degree and
    Cantor-Zassenhaus equal-degree splitting (a seeded generator keeps the
    work deterministic); products of at most half of the modular factors
    are lifted and kept when they divide f exactly (Cohen, GTM 138, 3.5).
    """
    f = [int(c) for c in f]
    d = len(f) - 1
    if d <= 1:
        return [tuple(f)]
    norm2 = sum(c * c for c in f)
    norm = isqrt(norm2)
    norm += norm * norm < norm2
    p = _modulus(f, 2 ** d * norm)
    rng = random.Random(0)
    fp = [c % p for c in f]
    modular = [
        h for g, k in _distinct_degree(fp, p) for h in _equal_degree(g, k, p, rng)
    ]
    factors, size = [], 1
    while 2 * size <= len(modular):
        for subset in combinations(range(len(modular)), size):
            g = [1]
            for i in subset:  # a proper divisor of f: reducing mod f is exact
                g = _mulmod(g, modular[i], fp, p)
            g = [c - p if 2 * c > p else c for c in g]
            q, r = _divmod_monic(f, g)
            if not r:
                factors.append(tuple(g))
                f = q
                modular = [h for i, h in enumerate(modular) if i not in subset]
                break
        else:
            size += 1
    factors.append(tuple(f))
    return sorted(factors, key=lambda g: (len(g), g))
