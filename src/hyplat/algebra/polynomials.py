"""Univariate polynomials over the rationals.

A polynomial is a tuple of Fractions in *ascending* degree order with no
trailing zeros; the zero polynomial is the empty tuple.  This module carries
the exact real-root machinery (Sturm chains, isolating intervals, interval
refinement) that the number-field layer builds on.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

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


def poly_compose(f: Poly, g: Poly) -> Poly:
    """f(g(x))."""
    acc: Poly = ()
    for c in reversed(f):
        acc = poly_add(poly_mul(acc, g), poly((c,)))
    return acc


def interval_eval(f: Poly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval Horner evaluation: encloses {f(x) : lo <= x <= hi}."""
    mlo = mhi = Fraction(0)
    for c in reversed(f):
        candidates = (mlo * lo, mlo * hi, mhi * lo, mhi * hi)
        mlo, mhi = min(candidates) + c, max(candidates) + c
    return mlo, mhi


def is_squarefree(f: Poly) -> bool:
    return degree(poly_gcd(f, poly_derivative(f))) <= 0


def squarefree_part(f: Poly) -> Poly:
    g = poly_gcd(f, poly_derivative(f))
    if degree(g) <= 0:
        return poly_scale(f, 1 / leading(f))
    q, _ = poly_divmod(f, g)
    return poly_scale(q, 1 / leading(q))


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


def _sign_variations(chain: Sequence[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_in(chain: Sequence[Poly], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b] (f squarefree at chain[0])."""
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def cauchy_bound(f: Poly) -> Fraction:
    """All real roots lie in (-B, B)."""
    lc = abs(leading(f))
    b = max((abs(c) for c in f[:-1]), default=Fraction(0))
    return 1 + b / lc


def isolate_real_roots(f: Poly) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for the distinct real roots of f, ascending.

    f must be squarefree.  Each interval (lo, hi) has non-root endpoints and
    contains exactly one root; degenerate [r, r] intervals are returned for
    rational roots (possible only for reducible or degree-1 inputs, which for
    this package means degree-1 defining polynomials).
    """
    if degree(f) < 1:
        return []
    if degree(f) == 1:
        r = -f[0] / f[1]
        return [(r, r)]
    chain = sturm_chain(f)
    B = cauchy_bound(f)
    out: list[tuple[Fraction, Fraction]] = []

    def split(lo: Fraction, hi: Fraction, n: int) -> None:
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        # A rational midpoint can be a root only if f has a rational root;
        # nudge until it is not one so (lo,mid] / (mid,hi] counts are exact.
        while poly_eval(f, mid) == 0:
            mid = (lo + mid) / 2
        left = count_roots_in(chain, lo, mid)
        split(lo, mid, left)
        split(mid, hi, n - left)

    total = count_roots_in(chain, -B, B)
    split(-B, B, total)
    return sorted(out)


def refine_interval(
    f: Poly, lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of f below `width` by sign bisection.

    Requires f(lo) != 0 and a single root in (lo, hi); exact points pass
    through unchanged.
    """
    if lo == hi:
        return lo, hi
    flo = poly_eval(f, lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        fmid = poly_eval(f, mid)
        if fmid == 0:
            # Rational root: collapse to an exact point.
            return mid, mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return lo, hi


# ---------------------------------------------------------------------------
# Resultants and rational matrix characteristic polynomials
# ---------------------------------------------------------------------------


def resultant(f: Poly, g: Poly) -> Fraction:
    """Res(f, g) via the Euclidean remainder sequence."""
    if not f or not g:
        return Fraction(0)
    a, b = f, g
    res = Fraction(1)
    while True:
        da, db = degree(a), degree(b)
        if db == 0:
            return res * b[0] ** da
        r = poly_mod(a, b)
        if not r:
            return Fraction(0)
        dr = degree(r)
        res *= Fraction(-1) ** (da * db) * leading(b) ** (da - dr)
        a, b = b, r


def discriminant(f: Poly) -> Fraction:
    n = degree(f)
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    r = resultant(f, poly_derivative(f))
    return Fraction(-1) ** (n * (n - 1) // 2) * r / leading(f)


def rational_roots(f: Poly) -> list[Fraction]:
    """All rational roots of a nonzero f with rational coefficients."""
    if not f:
        raise ValueError("zero polynomial")
    den = 1
    for c in f:
        den = den * c.denominator // _gcd(den, c.denominator) if c else den
    ints = [int(c * den) for c in f]
    while ints and ints[0] == 0:
        ints = ints[1:]  # factor out x
    roots = set()
    if len(ints) != len(f):
        roots.add(Fraction(0))
    if not ints:
        return sorted(roots)
    a0, an = abs(ints[0]), abs(ints[-1])
    for p in _divisors(a0):
        for q in _divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if poly_eval(f, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


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
