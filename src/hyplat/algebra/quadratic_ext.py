"""Quadratic extensions L = K(sqrt(delta)) of a number field K.

Elements are pairs (x, y) = x + y*sqrt(delta) with x, y in K; delta is a
nonsquare of K of either sign.  Transport across a nonsquare gluing is
decided over K (`hyplat.hybrid`); xi may still be given with coordinates
here, and `hyplat.hybrid.field_of_definition` descends subspaces over L.  The
point of the class is exact linear algebra and Galois conjugation — not
embeddings (delta may be negative at the distinguished real place, making L
complex there).
"""

from __future__ import annotations

from fractions import Fraction

from hyplat.algebra.numberfield import FieldElement, NumberField, is_square
from hyplat.errors import DivisionByZero, FieldMismatch

__all__ = ["QuadraticExt", "QuadExtElement"]


class QuadraticExt:
    """K(sqrt(delta)) for a certified nonsquare delta in K."""

    def __init__(self, base: NumberField, delta: FieldElement):
        delta = base.coerce(delta)
        if not delta:
            raise ValueError("delta must be nonzero")
        if is_square(delta) is not None:
            raise ValueError(
                "delta is a square in the base field; the extension is not a field"
            )
        self.base = base
        self.delta = delta

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QuadraticExt)
            and self.base == other.base
            and self.delta == other.delta
        )

    def __hash__(self) -> int:
        return hash((self.base, self.delta.coords))

    def __repr__(self) -> str:
        return f"QuadraticExt({self.base!r}, sqrt({self.delta!r}))"

    # -- element constructors ------------------------------------------------

    def element(self, x, y) -> "QuadExtElement":
        return QuadExtElement(self, self.base.coerce(x), self.base.coerce(y))

    def from_base(self, x) -> "QuadExtElement":
        return self.element(x, 0)

    def coerce(self, value) -> "QuadExtElement":
        if isinstance(value, QuadExtElement):
            if value.ext == self:
                return value
            raise FieldMismatch("element belongs to a different quadratic extension")
        if isinstance(value, (int, Fraction, FieldElement)):
            return self.from_base(value)
        raise TypeError(f"cannot coerce {type(value).__name__}")

    @property
    def zero(self) -> "QuadExtElement":
        return self.from_base(0)

    @property
    def one(self) -> "QuadExtElement":
        return self.from_base(1)

    @property
    def gen(self) -> "QuadExtElement":
        """sqrt(delta)."""
        return self.element(0, 1)


class QuadExtElement:
    """x + y*sqrt(delta) with exact base-field coordinates."""

    __slots__ = ("ext", "x", "y")

    def __init__(self, ext: QuadraticExt, x: FieldElement, y: FieldElement):
        self.ext = ext
        self.x = x
        self.y = y

    @property
    def field(self) -> QuadraticExt:
        return self.ext

    # -- structure -------------------------------------------------------

    def conjugate(self) -> "QuadExtElement":
        """The nontrivial Galois conjugate over K: sqrt(delta) -> -sqrt(delta)."""
        return QuadExtElement(self.ext, self.x, -self.y)

    def norm(self) -> FieldElement:
        """Field norm to K: x^2 - delta*y^2."""
        return self.x * self.x - self.ext.delta * self.y * self.y

    @property
    def is_base(self) -> bool:
        return not self.y

    def to_base(self) -> FieldElement:
        if not self.is_base:
            raise ValueError(f"{self} is not in the base field")
        return self.x

    # -- plumbing ----------------------------------------------------------

    def _pair(self, other):
        if isinstance(other, QuadExtElement):
            if other.ext == self.ext:
                return other
            raise FieldMismatch("elements of different quadratic extensions")
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.ext.from_base(other)
        return None

    def __bool__(self) -> bool:
        return bool(self.x) or bool(self.y)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, FieldElement)):
            return not self.y and self.x == other
        if not isinstance(other, QuadExtElement):
            return NotImplemented
        return self.ext == other.ext and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        if not self.y:
            return hash(self.x)
        return hash((self.ext, self.x, self.y))

    def __repr__(self) -> str:
        return f"({self.x}) + ({self.y})*r" if self.y else f"({self.x})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        b = self._pair(other)
        if b is None:
            return NotImplemented
        return QuadExtElement(self.ext, self.x + b.x, self.y + b.y)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtElement(self.ext, -self.x, -self.y)

    def __sub__(self, other):
        b = self._pair(other)
        if b is None:
            return NotImplemented
        return QuadExtElement(self.ext, self.x - b.x, self.y - b.y)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        b = self._pair(other)
        if b is None:
            return NotImplemented
        d = self.ext.delta
        return QuadExtElement(
            self.ext,
            self.x * b.x + d * self.y * b.y,
            self.x * b.y + self.y * b.x,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExtElement":
        n = self.norm()
        if not n:
            raise DivisionByZero("inverse of zero")
        ninv = n.inverse()
        return QuadExtElement(self.ext, self.x * ninv, -self.y * ninv)

    def __truediv__(self, other):
        b = self._pair(other)
        if b is None:
            return NotImplemented
        return self * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ext.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result
