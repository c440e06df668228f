"""Belted sums of cusped blocks and trace-field degree bookkeeping.

A *belt* is an unknotted component of a link whose twice-punctured disc
can be made totally geodesic in the complement.  Cutting two manifolds
along such discs and gluing the results composes the pieces into a new
link complement (the *belted sum*) while keeping both trace fields
visible: the field of the sum is the compositum of the fields of the
summands.

Composing the table of arithmetic base links (whose fields are imaginary
quadratic) therefore produces multiquadratic composita whose degrees we
can track exactly: square classes of the discriminants are reduced over
GF(2), and the degree is ``2^t`` for ``t`` independent classes.  Blocks
obtained by surgery carry fields we cannot compute here; they enter the
bookkeeping as *opaque* generators of known degree, turning exact degrees
into certified lower/upper bounds.  That is enough to separate
commensurability classes (the invariant trace field is an invariant) and
to certify that degrees in a composition family grow without bound.

Everything in this module is immutable and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .algebra.multiquadratic import multiquadratic_field, squarefree_int
from .errors import CertificateError, NoBeltAvailable, ParseError
from .resources import bundled_path

__all__ = [
    "INCOMMENSURABLE",
    "UNKNOWN",
    "ArithmeticLinkRecord",
    "BeltedManifold",
    "CommensurabilityVerdict",
    "DegreeGrowthReport",
    "FieldDescriptor",
    "belted_sum",
    "compose_inline",
    "family_degree_growth",
    "field_report",
    "incommensurability_verdict",
    "invariant_trace_field",
    "load_link_table",
    "manifold_from_record",
    "opaque_manifold",
    "parse_composition_script",
    "parse_link_table",
]

INCOMMENSURABLE = "Incommensurable"
UNKNOWN = "Unknown"

LINK_TABLE_FILE = "links.tbl"


# ---------------------------------------------------------------------------
# Records and manifolds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArithmeticLinkRecord:
    """A base link with a known imaginary quadratic trace field.

    ``bianchi_disc`` is the negative squarefree integer d with field
    Q(sqrt d); ``belt_count`` is the number of belt components available
    for composition.
    """

    name: str
    bianchi_disc: int
    belt_count: int

    def __post_init__(self):
        if self.bianchi_disc >= 0:
            raise ValueError(f"disc {self.bianchi_disc} must be negative")
        if not squarefree_int(self.bianchi_disc):
            raise ValueError(f"disc {self.bianchi_disc} must be squarefree")
        if self.belt_count < 1:
            raise ValueError("a base link needs at least one belt")


@dataclass(frozen=True)
class BeltedManifold:
    """A (possibly composed) block together with its field bookkeeping.

    ``composition`` records the build tree: a link name, an
    ``("opaque", degree)`` leaf, or ``("sum", left, right)``.
    ``generators`` is the canonical square-class basis of all known
    quadratic generators; ``opaque_degrees`` lists the degrees of
    generators only known opaquely.
    """

    composition: object
    generators: tuple[int, ...]
    opaque_degrees: tuple[int, ...]
    remaining_belts: int


def manifold_from_record(record: ArithmeticLinkRecord) -> BeltedManifold:
    return BeltedManifold(
        composition=record.name,
        generators=(record.bianchi_disc,),
        opaque_degrees=(),
        remaining_belts=record.belt_count,
    )


def opaque_manifold(degree: int, belts: int = 1) -> BeltedManifold:
    """A block whose trace field is known only by its degree over Q."""
    if degree < 1:
        raise ValueError("opaque degree must be positive")
    if belts < 0:
        raise ValueError("belt count cannot be negative")
    return BeltedManifold(
        composition=("opaque", degree),
        generators=(),
        opaque_degrees=(degree,),
        remaining_belts=belts,
    )


def belted_sum(m1: BeltedManifold, m2: BeltedManifold) -> BeltedManifold:
    """Glue two blocks along a belt disc from each side.

    Consumes one belt per summand; the field generators accumulate
    (compositum) and are re-reduced to a canonical square-class basis.
    """
    for m, side in ((m1, "left"), (m2, "right")):
        if m.remaining_belts < 1:
            raise NoBeltAvailable(f"{side} summand has no belt left")
    gens = multiquadratic_field(m1.generators + m2.generators).generators
    return BeltedManifold(
        composition=("sum", m1.composition, m2.composition),
        generators=tuple(gens),
        opaque_degrees=tuple(sorted(m1.opaque_degrees + m2.opaque_degrees)),
        remaining_belts=m1.remaining_belts + m2.remaining_belts - 2,
    )


# ---------------------------------------------------------------------------
# Fields and verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldDescriptor:
    """Invariant trace field of a composed block: exact or bounded degree."""

    generators: tuple[int, ...]
    degree: int | None
    degree_bounds: tuple[int, int] | None

    @property
    def is_exact(self) -> bool:
        return self.degree is not None

    def degree_range(self) -> tuple[int, int]:
        if self.degree is not None:
            return (self.degree, self.degree)
        if self.degree_bounds is None:
            raise CertificateError("field descriptor has neither a degree nor bounds")
        return self.degree_bounds

    def __repr__(self) -> str:
        gens = ", ".join(f"sqrt({d})" for d in self.generators) or "1"
        if self.degree is not None:
            return f"Q({gens}) of degree {self.degree}"
        lo, hi = self.degree_bounds
        return f"Q({gens}, ...) of degree in [{lo}, {hi}]"


def invariant_trace_field(m: BeltedManifold) -> FieldDescriptor:
    """Exact compositum degree, or bounds when opaque parts are present.

    The known quadratic part has degree exactly ``2^t`` for ``t``
    canonical generators.  Each opaque generator of degree ``d`` keeps the
    total degree between ``max(2^t, d)`` and ``2^t * prod(d)``.
    """
    base = 1 << len(m.generators)
    if not m.opaque_degrees:
        return FieldDescriptor(m.generators, base, None)
    lo = max(base, *m.opaque_degrees)
    hi = base
    for d in m.opaque_degrees:
        hi *= d
    return FieldDescriptor(m.generators, None, (lo, hi))


@dataclass(frozen=True)
class CommensurabilityVerdict:
    """Either a certified incommensurability or an honest Unknown."""

    status: str
    reason: str
    detail: str

    def __bool__(self) -> bool:
        return self.status == INCOMMENSURABLE


def incommensurability_verdict(
    m1: BeltedManifold, m2: BeltedManifold
) -> CommensurabilityVerdict:
    """Compare invariant trace fields; never asserts commensurability.

    The field is a commensurability invariant, so distinct exact fields
    (or provably disjoint degree ranges) separate the classes.  Agreement
    proves nothing and yields Unknown.
    """
    f1 = invariant_trace_field(m1)
    f2 = invariant_trace_field(m2)
    if f1.is_exact and f2.is_exact:
        if f1.generators != f2.generators:
            return CommensurabilityVerdict(
                INCOMMENSURABLE,
                "field",
                f"invariant trace fields differ: {f1!r} vs {f2!r}",
            )
        return CommensurabilityVerdict(
            UNKNOWN,
            "equal fields",
            "equal invariant trace fields do not decide commensurability",
        )
    lo1, hi1 = f1.degree_range()
    lo2, hi2 = f2.degree_range()
    if hi1 < lo2 or hi2 < lo1:
        return CommensurabilityVerdict(
            INCOMMENSURABLE,
            "degree",
            f"field degree ranges [{lo1},{hi1}] and [{lo2},{hi2}] are disjoint",
        )
    return CommensurabilityVerdict(
        UNKNOWN,
        "overlapping degrees",
        f"field degree ranges [{lo1},{hi1}] and [{lo2},{hi2}] overlap",
    )


@dataclass(frozen=True)
class DegreeGrowthReport:
    """Per-member lower bounds for a family of one-opaque compositions."""

    lower_bounds: tuple[int, ...]
    strictly_increasing: bool
    certificate: str

    def __bool__(self) -> bool:
        return self.strictly_increasing


def family_degree_growth(
    base: BeltedManifold, opaque_degrees: list[int] | tuple[int, ...]
) -> DegreeGrowthReport:
    """Lower bounds on [k_r : Q] for compositions of ``base`` with one
    opaque generator of degree d_r each.

    The bound for member r is ``max(2^t, d_r)`` with ``t`` the canonical
    generator count of the base.  Unbounded growth of the family is
    certified exactly when the resulting bound sequence strictly
    increases; the degrees themselves are inputs, not computed here.
    """
    if not opaque_degrees:
        raise ValueError("opaque degree list must be nonempty")
    if any(d < 1 for d in opaque_degrees):
        raise ValueError("opaque degrees must be positive")
    t = len(base.generators)
    bounds = tuple(max(1 << t, d) for d in opaque_degrees)
    increasing = all(a < b for a, b in zip(bounds, bounds[1:]))
    if increasing:
        cert = (
            "lower bounds strictly increase; any family continuing the "
            "trend has degrees going to infinity"
        )
    else:
        stall = next(i for i, (a, b) in enumerate(zip(bounds, bounds[1:])) if a >= b)
        cert = f"lower bounds stall at position {stall + 1}; growth not certified"
    return DegreeGrowthReport(bounds, increasing, cert)


def field_report(m: BeltedManifold) -> dict:
    """JSON-shaped summary: field generators, degree (or bounds), belts."""
    f = invariant_trace_field(m)
    field: dict = {"generators": list(f.generators)}
    if f.degree is not None:
        field["degree"] = f.degree
    else:
        field["degree_bounds"] = list(f.degree_bounds)
    return {"field": field, "belts": m.remaining_belts}


# ---------------------------------------------------------------------------
# Link table and composition scripts
# ---------------------------------------------------------------------------


def parse_link_table(text: str) -> dict[str, ArithmeticLinkRecord]:
    """Parse ``link <name> disc <d> belts <k>`` lines (# comments allowed)."""
    table: dict[str, ArithmeticLinkRecord] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 6 or parts[0] != "link" or parts[2] != "disc" or parts[4] != "belts":
            raise ParseError("expected 'link <name> disc <d> belts <k>'", lineno)
        name = parts[1]
        if name in table:
            raise ParseError(f"duplicate link name {name!r}", lineno)
        try:
            disc = int(parts[3])
            belts = int(parts[5])
        except ValueError:
            raise ParseError("disc and belts must be integers", lineno) from None
        try:
            table[name] = ArithmeticLinkRecord(name, disc, belts)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    return table


def load_link_table(path: str | Path | None = None) -> dict[str, ArithmeticLinkRecord]:
    """Load a link table file, defaulting to the bundled one."""
    p = Path(path) if path is not None else bundled_path(LINK_TABLE_FILE)
    return parse_link_table(p.read_text())


def _resolve(
    token: str,
    table: dict[str, ArithmeticLinkRecord],
    created: list[BeltedManifold],
    lineno: int,
) -> BeltedManifold:
    if token.startswith("#"):
        try:
            k = int(token[1:])
        except ValueError:
            raise ParseError(f"bad reference {token!r}", lineno) from None
        if not 1 <= k <= len(created):
            raise ParseError(
                f"reference {token!r} is out of range (have {len(created)})", lineno
            )
        return created[k - 1]
    if token in table:
        return manifold_from_record(table[token])
    raise ParseError(f"unknown link {token!r}", lineno)


def parse_composition_script(
    text: str, table: dict[str, ArithmeticLinkRecord] | None = None
) -> list[BeltedManifold]:
    """Run a composition script, returning every manifold it creates.

    Lines: ``sum <name|#k> <name|#k>`` or ``opaque <degree> [belts <b>]``.
    ``#k`` refers to the k-th created manifold (1-based).  The last entry
    of the returned list is the final result.
    """
    if table is None:
        table = load_link_table()
    created: list[BeltedManifold] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # '#' also starts reference tokens like '#2', so comment stripping
        # must not eat those.
        line = _strip_comment(raw).strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "sum":
            if len(parts) != 3:
                raise ParseError("expected 'sum <ref> <ref>'", lineno)
            left = _resolve(parts[1], table, created, lineno)
            right = _resolve(parts[2], table, created, lineno)
            created.append(belted_sum(left, right))
        elif parts[0] == "opaque":
            if len(parts) not in (2, 4):
                raise ParseError("expected 'opaque <degree> [belts <b>]'", lineno)
            if len(parts) == 4 and parts[2] != "belts":
                raise ParseError("expected 'opaque <degree> [belts <b>]'", lineno)
            try:
                degree = int(parts[1])
                belts = int(parts[3]) if len(parts) == 4 else 1
            except ValueError:
                raise ParseError("degree and belts must be integers", lineno) from None
            try:
                created.append(opaque_manifold(degree, belts))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    if not created:
        raise ParseError("script creates no manifolds", max(1, len(text.splitlines())))
    return created


def _strip_comment(raw: str) -> str:
    """Remove a trailing comment: a '#' that starts a word opens a
    reference like '#2', so only '#' preceded by whitespace (or at the
    start) and followed by non-reference text counts."""
    out = []
    for i, ch in enumerate(raw):
        if ch == "#":
            prev_ws = i == 0 or raw[i - 1].isspace()
            rest = raw[i + 1 :]
            is_ref = rest[:1].isdigit()
            if prev_ws and not is_ref:
                break
        out.append(ch)
    return "".join(out)


def compose_inline(
    expr: str, table: dict[str, ArithmeticLinkRecord] | None = None
) -> BeltedManifold:
    """Evaluate ``a+b+c`` as left-associated belted sums of table links."""
    if table is None:
        table = load_link_table()
    names = [t.strip() for t in expr.split("+")]
    if not names or any(not n for n in names):
        raise ParseError(f"bad composition expression {expr!r}", 1)
    manifolds = []
    for n in names:
        if n not in table:
            raise ParseError(f"unknown link {n!r}", 1)
        manifolds.append(manifold_from_record(table[n]))
    result = manifolds[0]
    for m in manifolds[1:]:
        result = belted_sum(result, m)
    return result
