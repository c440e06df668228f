"""Building blocks glued along a shared hypersurface form.

A building block is an admissible space <alpha> + q where q (the *shared*
form) is the restriction to the common hypersurface wall H = e0-perp, in
coordinates (y0, y1, ..., yn) with e0 the wall normal.  A block complex glues
blocks along such walls following a declared pattern:

- ``gps``      two blocks, one gluing
- ``cycle``    every block has degree two and the gluings form one cycle
- ``gl``       4-regular, 2-colored with a single exceptional block, edges
               labeled a / a- / b / b- so every block sees all four labels
- ``general``  no combinatorial constraint

The gluing map between blocks i and j rescales the wall-normal coordinate by
sqrt(alpha_j/alpha_i).  Whether a subspace spanned by a distinguished vector
xi and a subspace U of H stays defined over the base field after transport is
decided over K alone, by one rank: the span is Galois stable over
K(sqrt(ratio)) exactly when the two K-parts of the transported xi are
dependent modulo U.  The angle a wall makes with the hypersurface is the
exact closed form q(P_Z e)/q(e).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, Sequence

from hyplat.algebra.numberfield import (
    FieldElement,
    NumberField,
    SquareClass,
    class_times,
    is_square,
    sign_at_embedding,
)
from hyplat.algebra.quadratic_ext import QuadExtElement, QuadraticExt
from hyplat.errors import (
    CertificateError,
    DegenerateRestriction,
    DimensionMismatch,
    FieldMismatch,
    MalformedComplex,
    NotAdmissible,
    ParseError,
    XiInsideH,
)
from hyplat.linalg import Matrix, Subspace, complement_q, projection_coefficients, vec
from hyplat.quadform import (
    NOT_SIMILAR,
    SIMILAR,
    UNKNOWN,
    QuadraticSpace,
    SimilarityVerdict,
    direct_sum,
    is_admissible,
    similar,
)
from hyplat.syntax import FieldHeader, directive_lines, parse_entry, parse_int

__all__ = [
    "BuildingBlock",
    "Gluing",
    "BlockComplex",
    "GlueMap",
    "PairAnalysis",
    "TransportVerdict",
    "FinitenessReport",
    "RATIONAL",
    "IRRATIONAL",
    "HYPOTHESES_MET",
    "HYPOTHESES_UNKNOWN",
    "HYPOTHESES_NOT_MET",
    "validate_complex",
    "transported_subspace_rational",
    "field_of_definition",
    "angle_with_hypersurface",
    "finiteness_verdict",
    "parse_complex",
]

RATIONAL = "Rational"
IRRATIONAL = "Irrational"

HYPOTHESES_MET = "HypothesesMet"
HYPOTHESES_UNKNOWN = "HypothesesUnknown"
HYPOTHESES_NOT_MET = "HypothesesNotMet"

PATTERNS = ("gps", "cycle", "gl", "general")
EDGE_LABELS = ("a", "a-", "b", "b-")
_INVERSE_LABEL = {"a": "a-", "a-": "a", "b": "b-", "b-": "b"}


# ---------------------------------------------------------------------------
# Blocks and complexes
# ---------------------------------------------------------------------------


class BuildingBlock:
    """An admissible ambient form <alpha> + shared, wall-first coordinates."""

    def __init__(
        self,
        label: str,
        alpha: FieldElement,
        shared: QuadraticSpace,
        color: int | None = None,
    ):
        self.label = label
        self.field: NumberField = shared.field
        self.alpha = self.field.coerce(alpha)
        self.shared = shared
        self.color = color
        one_block = QuadraticSpace.diagonal(self.field, [self.alpha])
        self.ambient = direct_sum(one_block, shared)
        report = is_admissible(self.ambient)
        if not report:
            raise NotAdmissible(
                f"block {label!r}: ambient <alpha> + shared is not admissible: "
                + "; ".join(report.reasons)
            )

    @classmethod
    def from_ambient(
        cls,
        label: str,
        space: QuadraticSpace,
        wall_normal: Sequence,
        color: int | None = None,
    ) -> "BuildingBlock":
        """Normalize an arbitrary admissible space along a designated wall.

        alpha = q(w) and the shared form is q restricted to w-perp over the
        canonical basis of that complement.
        """
        rep = is_admissible(space)
        if not rep:
            raise NotAdmissible("; ".join(rep.reasons))
        w = vec(space.field, wall_normal)
        alpha = space.evaluate(w)
        if not alpha or sign_at_embedding(alpha) <= 0:
            raise NotAdmissible(
                "wall normal must be spacelike at the chosen embedding"
            )
        H = complement_q(space.gram, Subspace(space.field, space.dim, [w]))
        shared = space.restrict(H)
        if shared.is_degenerate:
            raise DegenerateRestriction("wall restriction is degenerate")
        return cls(label, alpha, shared, color)

    @property
    def dim(self) -> int:
        return self.ambient.dim

    def __repr__(self) -> str:
        return f"BuildingBlock({self.label!r}, alpha={self.alpha})"


@dataclass(frozen=True)
class Gluing:
    left: str
    right: str
    label: str | None = None


@dataclass
class BlockComplex:
    pattern: str
    blocks: dict[str, BuildingBlock]
    gluings: list[Gluing]

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise MalformedComplex(f"unknown pattern {self.pattern!r}")

    @property
    def field(self) -> NumberField:
        return next(iter(self.blocks.values())).field

    def glue_map(self, gluing: Gluing) -> "GlueMap":
        b1, b2 = self.blocks[gluing.left], self.blocks[gluing.right]
        return GlueMap.from_blocks(b1, b2)


class GlueMap:
    """The transport map Phi(y0, y) = (sqrt(ratio) * y0, y) between blocks."""

    def __init__(self, field: NumberField, ratio: FieldElement, ambient_dim: int,
                 ratio_class: SquareClass | None = None):
        self.field = field
        self.ratio = field.coerce(ratio)
        if not self.ratio:
            raise ValueError("gluing ratio must be nonzero")
        self.ambient_dim = ambient_dim
        # A ratio whose square class (when known) is odd somewhere is no square.
        refuted = ratio_class is not None and ratio_class[0]
        self.ratio_sqrt = None if refuted else is_square(self.ratio)

    @classmethod
    def from_blocks(cls, b1: BuildingBlock, b2: BuildingBlock) -> "GlueMap":
        if b1.field != b2.field:
            raise MalformedComplex("glued blocks live over different fields")
        if b1.shared.gram != b2.shared.gram:
            raise MalformedComplex(
                f"blocks {b1.label!r} and {b2.label!r} do not share the same "
                "hypersurface form"
            )
        # alpha leads each ambient diagonal, so its class leads the classes.
        c1, c2 = b1.ambient.square_classes(), b2.ambient.square_classes()
        ratio_class = None if c1 is None else class_times(c1[0], c2[0])
        return cls(b1.field, b2.alpha / b1.alpha, b1.dim, ratio_class)

    @property
    def ratio_is_square(self) -> bool:
        return self.ratio_sqrt is not None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass
class PairAnalysis:
    """Per-gluing record: similarity of the two ambient forms plus the
    square status of the gluing ratio (nonsquare ratio forces crossing
    geodesic pieces orthogonal to the cutting hypersurface)."""

    left: str
    right: str
    similarity: SimilarityVerdict
    ratio: FieldElement
    ratio_is_square: bool

    @property
    def forced_orthogonal(self) -> bool:
        return not self.ratio_is_square


def _degrees(complex: BlockComplex) -> dict[str, int]:
    deg = {label: 0 for label in complex.blocks}
    for g in complex.gluings:
        deg[g.left] += 1
        deg[g.right] += 1
    return deg


def validate_complex(complex: BlockComplex) -> list[PairAnalysis]:
    """Structural validation plus per-gluing similarity analysis.

    Raises MalformedComplex on any structural violation; otherwise returns,
    for every gluing in order, the similarity verdict of the two ambient
    forms and the square status of the gluing ratio.
    """
    if not complex.blocks:
        raise MalformedComplex("complex has no blocks")
    field = complex.field
    for b in complex.blocks.values():
        if b.field != field:
            raise MalformedComplex("blocks live over different fields")
    pairs: list[PairAnalysis] = []
    for g in complex.gluings:
        for end in (g.left, g.right):
            if end not in complex.blocks:
                raise MalformedComplex(f"gluing references unknown block {end!r}")
        if g.left == g.right and complex.pattern != "gl":
            raise MalformedComplex(f"self-gluing at {g.left!r}")
        b1, b2 = complex.blocks[g.left], complex.blocks[g.right]
        gm = GlueMap.from_blocks(b1, b2)
        pairs.append(
            PairAnalysis(
                g.left,
                g.right,
                similar(b1.ambient, b2.ambient),
                gm.ratio,
                gm.ratio_is_square,
            )
        )

    pattern = complex.pattern
    if pattern == "gps":
        if len(complex.blocks) != 2 or len(complex.gluings) != 1:
            raise MalformedComplex(
                "gps pattern needs exactly two blocks and one gluing"
            )
    elif pattern == "cycle":
        deg = _degrees(complex)
        if any(d != 2 for d in deg.values()):
            bad = next(k for k, d in deg.items() if d != 2)
            raise MalformedComplex(f"cycle pattern: block {bad!r} has degree "
                                   f"{deg[bad]}, expected 2")
        if len(complex.gluings) != len(complex.blocks):
            raise MalformedComplex("cycle pattern: edge count must equal block count")
        if not _connected(complex):
            raise MalformedComplex("cycle pattern: gluing graph is disconnected")
    elif pattern == "gl":
        deg = _degrees(complex)
        if any(d != 4 for d in deg.values()):
            bad = next(k for k, d in deg.items() if d != 4)
            raise MalformedComplex(
                f"gl pattern: block {bad!r} has degree {deg[bad]}, expected 4"
            )
        colors = {label: b.color for label, b in complex.blocks.items()}
        if any(c is None for c in colors.values()):
            raise MalformedComplex("gl pattern: every block needs a color")
        classes: dict[int, list[str]] = {}
        for label, c in colors.items():
            classes.setdefault(c, []).append(label)
        if len(classes) != 2 or min(len(v) for v in classes.values()) != 1:
            raise MalformedComplex(
                "gl pattern: expected a 2-coloring with exactly one "
                "exceptional block"
            )
        seen: dict[str, list[str]] = {label: [] for label in complex.blocks}
        for g in complex.gluings:
            if g.label not in EDGE_LABELS:
                raise MalformedComplex(
                    f"gl pattern: gluing {g.left!r}-{g.right!r} needs a label "
                    f"from {EDGE_LABELS}"
                )
            seen[g.left].append(g.label)
            seen[g.right].append(_INVERSE_LABEL[g.label])
        for label, ls in seen.items():
            if sorted(ls) != sorted(EDGE_LABELS):
                raise MalformedComplex(
                    f"gl pattern: block {label!r} sees labels {sorted(ls)}, "
                    f"expected all of {sorted(EDGE_LABELS)}"
                )
        if not _connected(complex):
            raise MalformedComplex("gl pattern: gluing graph is disconnected")
    return pairs


def _connected(complex: BlockComplex) -> bool:
    labels = list(complex.blocks)
    adj: dict[str, set[str]] = {l: set() for l in labels}
    for g in complex.gluings:
        adj[g.left].add(g.right)
        adj[g.right].add(g.left)
    seen = {labels[0]}
    stack = [labels[0]]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(labels)


# ---------------------------------------------------------------------------
# Transport and descent
# ---------------------------------------------------------------------------


@dataclass
class TransportVerdict:
    status: str  # RATIONAL | IRRATIONAL
    k_basis: Subspace | None  # over K when Rational
    detail: str

    def __bool__(self) -> bool:
        return self.status == RATIONAL


def transported_subspace_rational(
    glue: GlueMap, U: Subspace, xi: Sequence
) -> TransportVerdict:
    """Is span(Phi(xi), Phi(U)) = span(sqrt(ratio)*xi0*e0 + xi_H, U) defined
    over the base field?

    Preconditions: U inside the hypersurface H = {y0 = 0}; xi outside H
    (XiInsideH otherwise).  xi may have coordinates in K(sqrt(ratio)) when
    the ratio is a nonsquare.  Write xi = x + sqrt(ratio)*y with x, y over
    K; then Phi(xi) = a + sqrt(ratio)*b with a = (ratio*y0, x_H) and
    b = (x0, y_H).  Phi(xi) is not in U (a0 or b0 is nonzero), so the span
    is Galois stable iff [U; a; b] has rank dim U + 1 over K, and that
    K-span is its K-form.
    """
    K = glue.field
    n = glue.ambient_dim
    if U.ambient_dim != n:
        raise DimensionMismatch("U lives in the wrong ambient dimension")
    if len(xi) != n:
        raise DimensionMismatch("xi has the wrong length")
    for b in U.basis:
        if b[0]:
            raise DimensionMismatch(
                "U must be contained in the hypersurface y0 = 0"
            )
    if glue.ratio_sqrt is not None:
        w = vec(K, xi)
        if not w[0]:
            raise XiInsideH("xi lies inside the shared hypersurface")
        s = glue.ratio_sqrt
        phi_xi = tuple([s * w[0]] + list(w[1:]))
        span = Subspace(K, n, [phi_xi] + list(U.basis))
        return TransportVerdict(
            RATIONAL, span, "gluing ratio is a square; transport stays over K"
        )
    x, y = [], []
    for c in xi:
        if isinstance(c, QuadExtElement):
            if c.ext.base != K or c.ext.delta != glue.ratio:
                raise FieldMismatch(
                    "element belongs to a different quadratic extension"
                )
            x.append(c.x)
            y.append(c.y)
        else:
            x.append(K.coerce(c))
            y.append(K.zero)
    if not x[0] and not y[0]:
        raise XiInsideH("xi lies inside the shared hypersurface")
    a = [glue.ratio * y[0]] + x[1:]
    b = [x[0]] + y[1:]
    span = Subspace(K, n, list(U.basis) + [a, b])
    if span.dim == U.dim + 1:
        return TransportVerdict(
            RATIONAL, span, "span is Galois stable over K(sqrt(ratio))"
        )
    return TransportVerdict(
        IRRATIONAL, None, "span is not Galois stable over K(sqrt(ratio))"
    )


def field_of_definition(S: Subspace) -> Subspace | None:
    """Descend a subspace over K(sqrt(delta)) to K, if it is defined there.

    Symmetrize each basis vector v into (v + conj v)/2 and (v - conj v) /
    (2 sqrt(delta)) — coordinate-wise the x and y parts — and compare
    dimensions.  Returns the K-form, or None when S is not Galois stable.
    """
    L = S.field
    if not isinstance(L, QuadraticExt):
        raise TypeError("field_of_definition expects a subspace over K(sqrt(delta))")
    K = L.base
    candidates = []
    for v in S.basis:
        candidates.append([c.x for c in v])
        candidates.append([c.y for c in v])
    SK = Subspace(K, S.ambient_dim, candidates)
    if SK.dim != S.dim:
        return None
    # embed back and confirm equality (guards against dimension coincidences)
    embedded = Subspace(
        L, S.ambient_dim, [[L.from_base(c) for c in b] for b in SK.basis]
    )
    if embedded == S:
        return SK
    return None


# ---------------------------------------------------------------------------
# Angles
# ---------------------------------------------------------------------------


def angle_with_hypersurface(
    space: QuadraticSpace, e: Sequence, Z: Subspace
) -> FieldElement:
    """sup over z in Z of <e,z>^2 / (q(e) q(z)), in exact closed form.

    The supremum equals q(P_Z e)/q(e) where P_Z is the q-orthogonal
    projection onto Z (Cauchy-Schwarz on the positive definite restriction;
    maximizer z = P_Z e).  Z = 0 gives 0.  Requires q(e) != 0 and q
    nondegenerate on Z (DegenerateRestriction otherwise).

    One diagonalization diag(D) of the restriction B G B^t to Z's basis B
    decides degeneracy and gives the coefficients c of P_Z e = B^t c
    (`projection_coefficients`); then q(P_Z e) = c^t (B G B^t) c = c.(B G e)
    with no further evaluation of q.

    When q(e) > 0 and every D entry is positive at the chosen embedding
    (q positive definite on Z there) the value is certified nonnegative.
    It is cos^2 of the angle between the geodesic hyperplanes normal to e
    and tangent to Z when they meet (value <= 1); a value above 1 is
    cosh^2 of their divergence distance and is returned as-is.
    """
    qe = space.evaluate(e)
    if not qe:
        raise DegenerateRestriction("q(e) = 0: the wall normal is isotropic")
    if Z.is_zero:
        return space.field.zero
    D, c, r = projection_coefficients(space.gram, Z, e)
    value = sum((ci * ri for ci, ri in zip(c, r)), space.field.zero) / qe
    if (
        sign_at_embedding(qe) > 0
        and all(sign_at_embedding(d) > 0 for d in D)
        and sign_at_embedding(value) < 0
    ):
        raise CertificateError(
            "angle value is negative although q(e) > 0 and q is positive "
            "definite on Z"
        )
    return value


# ---------------------------------------------------------------------------
# Finiteness verdict
# ---------------------------------------------------------------------------


@dataclass
class FinitenessReport:
    verdict: str  # HYPOTHESES_MET | HYPOTHESES_UNKNOWN | HYPOTHESES_NOT_MET
    pairs: list[PairAnalysis]
    reason: str

    def __bool__(self) -> bool:
        return self.verdict == HYPOTHESES_MET


def finiteness_verdict(complex: BlockComplex) -> FinitenessReport:
    """Check the dissimilarity hypotheses across every gluing.

    One certified non-similar adjacent pair suffices (the conclusion is
    monotone under adding blocks): verdict HypothesesMet.  Otherwise any
    Unknown edge leaves HypothesesUnknown, and all-similar means
    HypothesesNotMet.  The per-pair records carry the square status of each
    gluing ratio: a nonsquare ratio forces crossing geodesic pieces to meet
    the cutting hypersurface orthogonally.
    """
    pairs = validate_complex(complex)
    for p in pairs:
        if p.similarity.status == NOT_SIMILAR:
            return FinitenessReport(
                HYPOTHESES_MET,
                pairs,
                f"blocks {p.left!r} and {p.right!r} have non-similar ambient "
                f"forms: {p.similarity.reason}",
            )
    if any(p.similarity.status == UNKNOWN for p in pairs):
        return FinitenessReport(
            HYPOTHESES_UNKNOWN,
            pairs,
            "some adjacent pairs could not be separated or matched",
        )
    return FinitenessReport(
        HYPOTHESES_NOT_MET,
        pairs,
        "every glued pair has similar ambient forms; the dissimilarity "
        "hypotheses do not apply to this complex",
    )


# ---------------------------------------------------------------------------
# Complex files
# ---------------------------------------------------------------------------


class _PendingBlock:
    __slots__ = ("label", "alpha", "color", "diag", "lineno")

    def __init__(self, label: str, color: int | None, lineno: int):
        self.label = label
        self.alpha = None
        self.color = color
        self.diag = None  # per-block shared-form override
        self.lineno = lineno


def parse_complex(text: str) -> BlockComplex:
    """Parse the block-complex file format.

    ::

        # comment
        field 1 0 -2          # descending coefficients, defines K
        embedding 1           # optional: index into the ascending real roots
        pattern cycle
        shared diag 1 1 -1    # default hypersurface form for every block
        block N1 alpha 1      # one-line block using the default shared form
        block N2 color 0      # multi-line block: inline form plus alpha
        diag 1 1 -1
        alpha 2
        glue N1 N2
        glue N2 N1 label a    # labels only matter for the gl pattern

    Entries (``shared diag``, block ``diag``, ``alpha``) follow
    ``hyplat.syntax``, as in form files.
    """
    header = FieldHeader()
    pattern: str | None = None
    shared: QuadraticSpace | None = None
    pending: list[_PendingBlock] = []
    open_block: _PendingBlock | None = None
    gluings: list[Gluing] = []

    def ensure_field(lineno: int) -> NumberField:
        if header.coeffs is None:
            raise ParseError("a 'field' line must come first", lineno)
        return header.field()

    def close_block(lineno: int) -> None:
        nonlocal open_block
        if open_block is not None and open_block.alpha is None:
            raise ParseError(
                f"block {open_block.label!r} is missing its alpha", lineno
            )
        open_block = None

    def parse_color(tokens: list[str], lineno: int) -> int | None:
        if not tokens:
            return None
        if len(tokens) != 2 or tokens[0] != "color":
            raise ParseError("trailing tokens; expected 'color <c>'", lineno)
        return parse_int(tokens[1], "color", lineno)

    lineno = 1
    for lineno, parts in directive_lines(text):
        head = parts[0]
        if head in ("field", "embedding"):
            close_block(lineno)
            header.read(parts, lineno)
        elif head == "pattern":
            close_block(lineno)
            if len(parts) != 2 or parts[1] not in PATTERNS:
                raise ParseError(
                    f"pattern must be one of {', '.join(PATTERNS)}", lineno
                )
            pattern = parts[1]
        elif head == "shared":
            close_block(lineno)
            K = ensure_field(lineno)
            if len(parts) < 3 or parts[1] != "diag":
                raise ParseError("expected 'shared diag <entries>'", lineno)
            entries = [parse_entry(tok, K, lineno) for tok in parts[2:]]
            shared = QuadraticSpace.diagonal(K, entries)
        elif head == "block":
            close_block(lineno)
            K = ensure_field(lineno)
            if len(parts) < 2:
                raise ParseError("block needs a label", lineno)
            label = parts[1]
            if label in {b.label for b in pending}:
                raise ParseError(f"duplicate block label {label!r}", lineno)
            rest = parts[2:]
            blk = _PendingBlock(label, None, lineno)
            if rest and rest[0] == "alpha":
                if len(rest) < 2:
                    raise ParseError("alpha needs a value", lineno)
                blk.alpha = parse_entry(rest[1], K, lineno)
                blk.color = parse_color(rest[2:], lineno)
                pending.append(blk)
            else:
                blk.color = parse_color(rest, lineno)
                pending.append(blk)
                open_block = blk
        elif head == "alpha":
            K = ensure_field(lineno)
            if open_block is None:
                raise ParseError("'alpha' outside a block", lineno)
            if open_block.alpha is not None:
                raise ParseError("duplicate alpha for this block", lineno)
            if len(parts) != 2:
                raise ParseError("alpha needs exactly one value", lineno)
            open_block.alpha = parse_entry(parts[1], K, lineno)
        elif head == "diag":
            K = ensure_field(lineno)
            if open_block is None:
                raise ParseError("'diag' outside a block", lineno)
            if open_block.diag is not None:
                raise ParseError("duplicate form for this block", lineno)
            open_block.diag = [parse_entry(tok, K, lineno) for tok in parts[1:]]
        elif head == "glue":
            close_block(lineno)
            if len(parts) not in (3, 5):
                raise ParseError(
                    "expected 'glue <l1> <l2>' or 'glue <l1> <l2> label <x>'",
                    lineno,
                )
            lab = None
            if len(parts) == 5:
                if parts[3] != "label":
                    raise ParseError("expected 'label' before the edge label", lineno)
                lab = {"a-1": "a-", "b-1": "b-"}.get(parts[4], parts[4])
                if lab not in EDGE_LABELS:
                    raise ParseError(
                        f"edge label must be one of {', '.join(EDGE_LABELS)}", lineno
                    )
            gluings.append(Gluing(parts[1], parts[2], lab))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    close_block(lineno)

    if header.coeffs is None:
        raise ParseError("missing 'field' line", lineno)
    if pattern is None:
        raise ParseError("missing 'pattern' line", lineno)
    K = ensure_field(lineno)
    blocks: dict[str, BuildingBlock] = {}
    for blk in pending:
        if blk.diag is not None:
            form = QuadraticSpace.diagonal(K, blk.diag)
        elif shared is not None:
            form = shared
        else:
            raise ParseError(
                f"block {blk.label!r} has no form and no 'shared' default",
                blk.lineno,
            )
        try:
            blocks[blk.label] = BuildingBlock(blk.label, blk.alpha, form, blk.color)
        except NotAdmissible as exc:
            raise ParseError(str(exc), blk.lineno) from exc
    if not blocks:
        raise ParseError("complex declares no blocks", lineno)
    return BlockComplex(pattern, blocks, gluings)
