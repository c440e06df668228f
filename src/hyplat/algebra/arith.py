"""Integer kernels: factorization, primes, squarefree parts and square classes.

Every rational square-class question in the package comes here.  The
nonzero rationals modulo squares form a GF(2) vector space with one
coordinate for the sign and one for the parity of each prime's exponent;
`square_class_basis` reduces a set of classes to its canonical reduced
echelon basis, which is how multiquadratic composita and Vinberg's cycle
field name their generators.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from hyplat.errors import FactorizationBound

__all__ = [
    "factorize",
    "is_prime",
    "squarefree_part",
    "is_squarefree",
    "divisors",
    "primes_outside",
    "square_class_basis",
    "in_square_class_span",
]

_FACTOR_BOUND = 10**6


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division up to 10^6, primes in
    ascending order.  A cofactor above 10^12 left by the trial division
    cannot be certified prime and raises FactorizationBound."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d <= _FACTOR_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        if n > _FACTOR_BOUND * _FACTOR_BOUND:
            raise FactorizationBound(
                f"factor {n} exceeds the supported factorization bound"
            )
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == {n: 1}


def squarefree_part(q: Fraction | int) -> int:
    """The signed squarefree integer representing q's rational square class."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("0 has no square class")
    n = q.numerator * q.denominator
    out = -1 if n < 0 else 1
    for p, e in factorize(n).items():
        if e & 1:
            out *= p
    return out


def is_squarefree(n: int) -> bool:
    return n != 0 and all(e == 1 for e in factorize(n).values())


def divisors(n: int) -> list[int]:
    """Positive divisors of n != 0, built prime by prime from its
    factorization: 1, p1, p2, p1*p2, p3, ... for squarefree n."""
    out = [1]
    for p, e in factorize(n).items():
        out += [d * p**k for k in range(1, e + 1) for d in out]
    return out


def primes_outside(excluded: Iterable[int], count: int) -> list[int]:
    """The `count` smallest primes not in `excluded`."""
    banned = set(excluded)
    out: list[int] = []
    n = 2
    while len(out) < count:
        if n not in banned and is_prime(n):
            out.append(n)
        n += 1
    return out


def square_class_basis(ds: Iterable[int]) -> tuple[int, ...]:
    """Canonical squarefree generators of the group the classes of ds span.

    Each nonzero integer is a GF(2) vector: bit 0 is the sign and bit i+1
    the exponent parity of the i-th smallest prime occurring in ds.  The
    basis is the reduced row echelon form with the highest bit leading, so
    it depends only on the subgroup, not on the order or repetition of ds.
    Returned sorted by (|d|, d).
    """
    factors = {d: factorize(d) for d in ds}
    primes = sorted({p for f in factors.values() for p in f})
    bit = {p: 1 << (i + 1) for i, p in enumerate(primes)}
    pivots: dict[int, int] = {}  # leading bit -> row
    for d, f in factors.items():
        v = int(d < 0)
        for p, e in f.items():
            if e & 1:
                v |= bit[p]
        for lead in sorted(pivots, reverse=True):
            if v >> lead & 1:
                v ^= pivots[lead]
        if v:
            pivots[v.bit_length() - 1] = v
    for lead in sorted(pivots):
        for other in pivots:
            if other != lead and pivots[other] >> lead & 1:
                pivots[other] ^= pivots[lead]
    out = []
    for v in pivots.values():
        d = -1 if v & 1 else 1
        for p in primes:
            if v & bit[p]:
                d *= p
        out.append(d)
    return tuple(sorted(out, key=lambda d: (abs(d), d)))


def in_square_class_span(gens: Sequence[int], d: int) -> bool:
    """Is the square class of d in the group generated by those of gens?"""
    basis = square_class_basis(gens)
    return len(square_class_basis([*basis, d])) == len(basis)
