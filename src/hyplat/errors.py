"""Exception vocabulary shared across the package.

Every operation that can fail for a *mathematical* reason raises one of the
exceptions below rather than a bare ValueError, so callers (and the CLI) can
distinguish bad input from genuine mathematical obstructions.
"""

from __future__ import annotations


class HyplatError(Exception):
    """Base class for all package-specific errors."""


class DivisionByZero(HyplatError, ZeroDivisionError):
    """Division by the zero element of a field."""


class FieldMismatch(HyplatError):
    """Two operands live over different fields and no coercion applies."""


class NotSymmetric(HyplatError):
    """A Gram matrix argument was not symmetric."""


class DimensionMismatch(HyplatError):
    """Vector/matrix dimensions are incompatible."""


class DegenerateRestriction(HyplatError):
    """A form restricted to a subspace is degenerate where it must not be."""


class NotAdmissible(HyplatError):
    """A quadratic space fails the admissibility requirements."""


class MalformedComplex(HyplatError):
    """A block complex violates its declared gluing pattern."""


class XiInsideH(HyplatError):
    """The distinguished vector lies inside the shared hypersurface."""


class ParseError(HyplatError):
    """Input text could not be parsed.

    Carries the 1-based ``line`` when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class UnsupportedLabel(HyplatError):
    """A Coxeter edge label outside the supported set."""


class RankTooLarge(HyplatError):
    """A diagram rank exceeds the supported enumeration bound."""


class NotHyperbolic(HyplatError):
    """An operation required a hyperbolic diagram of a specific dimension."""


class NoBeltAvailable(HyplatError):
    """A belted-sum operand has no belt left to sum along."""


class NotTotallyReal(HyplatError):
    """A decision that needs every embedding of the field to be real was
    asked over a field with complex embeddings."""


class FactorizationBound(HyplatError):
    """An integer is too large to certify prime: a cofactor above 10^12
    left by trial division, or a number past the Miller-Rabin proof bound."""


class CertificateError(HyplatError):
    """An internal certificate check failed: a verdict's justification does
    not hold, which indicates a bug rather than bad input."""
