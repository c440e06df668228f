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

    Carries ``line`` and ``col`` (1-based) when known; ``col`` may be None
    for whole-line problems.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        prefix = ""
        if line is not None:
            prefix = f"line {line}" + (f", col {col}" if col is not None else "") + ": "
        super().__init__(prefix + message)


class UnsupportedLabel(HyplatError):
    """A Coxeter edge label outside the supported set."""


class RankTooLarge(HyplatError):
    """A diagram rank exceeds the supported enumeration bound."""


class NotHyperbolic(HyplatError):
    """An operation required a hyperbolic diagram of a specific dimension."""


class NoBeltAvailable(HyplatError):
    """A belted-sum operand has no belt left to sum along."""


class CertificateError(HyplatError):
    """An internal certificate check failed: a verdict's justification does
    not hold, which indicates a bug rather than bad input."""
