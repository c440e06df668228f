"""Multiquadratic composita Q(sqrt(d1), ..., sqrt(dt)).

Generators are squarefree integers (!= 0, 1).  They are canonicalized by
`arith.square_class_basis` (GF(2) reduction of square classes), which both
removes multiplicative dependencies (e.g. {2, 3, 6}) and gives a canonical
generator list so that equal composita always present identical generators.

A totally real compositum (all canonical generators positive) is constructed
as an honest :class:`~hyplat.algebra.numberfield.NumberField` of degree 2^t
over the power basis of gamma = sum_i sqrt(d_i), together with conversion to
and from the monomial basis {prod_{i in S} sqrt(d_i)}.  A compositum with a
negative generator is returned as an :class:`ImaginaryCompositum` — a
degree/containment bookkeeping descriptor with no element arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from hyplat.algebra import polynomials as P
from hyplat.algebra.arith import in_square_class_span, is_squarefree, square_class_basis
from hyplat.algebra.numberfield import (
    FieldElement,
    NumberField,
    rational_square_root,
    sign_at_embedding,
)

__all__ = [
    "multiquadratic_field",
    "MultiquadraticField",
    "ImaginaryCompositum",
]


@dataclass(frozen=True)
class ImaginaryCompositum:
    """Bookkeeping descriptor for a compositum with complex embeddings.

    Carries exact degree and square-class containment, no element arithmetic.
    """

    generators: tuple[int, ...]

    @property
    def degree(self) -> int:
        return 1 << len(self.generators)

    @property
    def is_totally_real(self) -> bool:
        return False

    def contains_sqrt(self, d: int) -> bool:
        return in_square_class_span(self.generators, d)

    def __repr__(self) -> str:
        gens = ", ".join(f"sqrt({d})" for d in self.generators)
        return f"ImaginaryCompositum(Q({gens}), degree {self.degree})"


class MultiquadraticField(NumberField):
    """A totally real multiquadratic compositum as a concrete number field."""

    def __init__(self, generators: Sequence[int]):
        gens = tuple(generators)
        t = len(gens)
        n = 1 << t
        # Monomial basis indexed by bitmasks: index S <-> prod_{i in S} sqrt(d_i);
        # products obey e_S * e_T = (prod_{i in S&T} d_i) * e_{S^T}.
        disc_prod = [1] * n
        for s in range(n):
            for i in range(t):
                if s & (1 << i):
                    disc_prod[s] *= gens[i]

        def mono_mul(u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
            out = [Fraction(0)] * n
            for s, a in enumerate(u):
                if a:
                    for r, b in enumerate(v):
                        if b:
                            out[s ^ r] += a * b * disc_prod[s & r]
            return out

        gamma = [Fraction(0)] * n
        for i in range(t):
            gamma[1 << i] = Fraction(1)
        if t == 0:
            gamma = [Fraction(0)]  # the zero element; field is Q

        # Powers of gamma in monomial coordinates; pm has gamma^j as column j.
        powers: list[list[Fraction]] = []
        cur = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for _ in range(n + 1):
            powers.append(cur)
            cur = mono_mul(cur, gamma)
        pm = [[powers[j][s] for j in range(n)] for s in range(n)]
        # One Gauss-Jordan on [pm | gamma^n | I]: pivots 0..n-1 mean gamma has
        # full degree; then column n writes gamma^n in the lower powers (the
        # minimal polynomial) and the last n columns are pm^-1.
        red, pivots = P.rational_rref(
            [row + [powers[n][s]] + [int(s == k) for k in range(n)]
             for s, row in enumerate(pm)]
        )
        if pivots != tuple(range(n)):
            raise ValueError(
                "generators do not produce a primitive element of full degree "
                f"(got degree {sum(p < n for p in pivots)}, expected {n})"
            )
        super().__init__([-row[n] for row in red] + [1], _trusted=True)
        if not self.is_totally_real:
            raise AssertionError("real multiquadratic compositum must be totally real")

        self.generators: tuple[int, ...] = gens
        self.t = t
        self._power_to_mono = pm
        self._mono_to_power = [row[n + 1:] for row in red]

        self._sqrts: dict[int, FieldElement] = {}
        for i in range(t):
            self._sqrts[gens[i]] = self.element(
                [self._mono_to_power[k][1 << i] for k in range(n)]
            )
        # Chosen embedding: the one where every sqrt generator is positive.
        chosen = None
        for j in range(self.n_real_embeddings):
            if all(sign_at_embedding(self._sqrts[d], j) > 0 for d in gens):
                chosen = j
                break
        if chosen is None:
            raise AssertionError("no all-positive embedding found")
        self.chosen_embedding = chosen
        self._sign_vectors: dict[int, tuple[int, ...]] = {}

    # -- multiquadratic-specific API ----------------------------------------

    def contains_sqrt(self, d: int) -> bool:
        return in_square_class_span(self.generators, d)

    def sqrt(self, d: int) -> FieldElement:
        """The (positive at chosen embedding) square root of integer d."""
        if d == 1:
            return self.one
        if not self.contains_sqrt(d):
            raise ValueError(f"sqrt({d}) is not in {self!r}")
        # Find the monomial subset S whose generator product matches d mod
        # squares, then scale: prod_{i in S} sqrt(d_i) = m * sqrt(d).
        t, n = self.t, 1 << self.t
        for s in range(n):
            prod = 1
            for i in range(t):
                if s & (1 << i):
                    prod *= self.generators[i]
            ratio = rational_square_root(Fraction(prod, d))
            if ratio is not None:
                mono = self.element([self._mono_to_power[k][s] for k in range(n)])
                return mono / ratio
        raise AssertionError("span membership held but no monomial matched")

    def to_monomial(self, a: FieldElement) -> list[Fraction]:
        """Coordinates of `a` over the monomial basis (bitmask order)."""
        n = 1 << self.t
        return [
            sum(self._power_to_mono[s][j] * a.coords[j] for j in range(n))
            for s in range(n)
        ]

    def embedding_sign_vector(self, j: int) -> tuple[int, ...]:
        """Signs (sigma_j(sqrt(d_i)))_i characterizing the j-th embedding."""
        if j not in self._sign_vectors:
            self._sign_vectors[j] = tuple(
                sign_at_embedding(self._sqrts[d], j) for d in self.generators
            )
        return self._sign_vectors[j]

    def galois_action(self, j: int, a) -> FieldElement:
        """The automorphism sending each sqrt(d_i) to its sign at embedding j.

        The field is Galois over the rationals, so every embedding is an
        automorphism; evaluating an element at embedding j equals evaluating
        galois_action(j, element) at the chosen embedding.
        """
        a = self.coerce(a)
        signs = self.embedding_sign_vector(j)
        mono = self.to_monomial(a)
        for s in range(len(mono)):
            flip = 1
            for i in range(self.t):
                if s & (1 << i) and signs[i] < 0:
                    flip = -flip
            if flip < 0:
                mono[s] = -mono[s]
        n = 1 << self.t
        coords = [
            sum(self._mono_to_power[k][s] * mono[s] for s in range(n))
            for k in range(n)
        ]
        return self.element(coords)

    def __repr__(self) -> str:
        gens = ", ".join(f"sqrt({d})" for d in self.generators)
        return f"MultiquadraticField(Q({gens}), degree {self.degree})"


def multiquadratic_field(
    discs: Iterable[int],
) -> MultiquadraticField | ImaginaryCompositum:
    """Compositum Q(sqrt(d) for d in discs) with canonical generators.

    Returns a full :class:`MultiquadraticField` when the compositum is
    totally real (all canonical generators positive) and an
    :class:`ImaginaryCompositum` descriptor otherwise.
    """
    ds = list(discs)
    for d in ds:
        if not isinstance(d, int) or d in (0, 1):
            raise ValueError(f"discriminant {d!r} must be an integer != 0, 1")
        if not is_squarefree(d):
            raise ValueError(f"discriminant {d} is not squarefree")
    gens = square_class_basis(ds)
    if any(d < 0 for d in gens):
        return ImaginaryCompositum(tuple(gens))
    return MultiquadraticField(gens)
