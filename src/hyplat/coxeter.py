"""Coxeter diagrams: exact Gram matrices, classification, arithmeticity.

Diagrams carry edge labels m in {3, 4, 5, 6, inf}; an absent edge means a
right angle (label 2).  The Gram matrix g_ii = 1, g_ij = -cos(pi/m) lives in
the fixed degree-8 totally real field containing sqrt 2, sqrt 3, sqrt 5 —
every supported cosine is exact there, and labels needing other cosines are
rejected rather than approximated.

Classification is by the signature at the all-positive embedding; volume
type for simplex diagrams follows the vertex-link test.  Arithmeticity uses
the cyclic-product criterion: with b_ij = 2 g_ij, the field K generated by
the products b over simple cycles (plus the edge squares b_ij^2) must be
totally real, every nonidentity embedding of K must send the Gram matrix to
a positive semidefinite one, and — for full arithmeticity rather than mere
quasi-arithmeticity — every cycle value must be an algebraic integer.  K and
its embeddings come from the monomial supports of the cycle values: each
entry-field automorphism multiplies the monomial prod_{i in S} sqrt(d_i) by a
sign, and fixes a value exactly when that sign is +1 on its whole support.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from hyplat.algebra.arith import square_class_basis
from hyplat.algebra.multiquadratic import MultiquadraticField
from hyplat.algebra.numberfield import FieldElement, is_algebraic_integer
from hyplat.errors import (
    CertificateError,
    NotHyperbolic,
    ParseError,
    RankTooLarge,
    UnsupportedLabel,
)
# signature_at stays importable from here: perfbench/test_perfbench.py checks
# that the benchmark's tracer wraps this binding.
from hyplat.linalg import Matrix, signature_at, signature_profile  # noqa: F401
from hyplat.syntax import directive_lines, parse_int

__all__ = [
    "CoxeterDiagram",
    "Classification",
    "ArithmeticityReport",
    "SpecialSubgroup",
    "SplittabilityReport",
    "SPHERICAL",
    "EUCLIDEAN",
    "HYPERBOLIC",
    "OTHER_INDEFINITE",
    "COMPACT",
    "FINITE_VOLUME_NONCOMPACT",
    "INFINITE_VOLUME",
    "ARITHMETIC",
    "QUASI_ARITHMETIC_ONLY",
    "NEITHER",
    "UNSPLITTABLE_CERTIFIED",
    "POSSIBLY_SPLITTABLE",
    "entry_field",
    "parse_diagram",
    "gram_matrix",
    "classify",
    "simple_cycles",
    "vinberg_arithmeticity",
    "special_subgroups",
    "unsplittable_check",
]

SPHERICAL = "Spherical"
EUCLIDEAN = "Euclidean"
HYPERBOLIC = "Hyperbolic"
OTHER_INDEFINITE = "OtherIndefinite"

COMPACT = "Compact"
FINITE_VOLUME_NONCOMPACT = "FiniteVolumeNoncompact"
INFINITE_VOLUME = "InfiniteVolume"

ARITHMETIC = "Arithmetic"
QUASI_ARITHMETIC_ONLY = "QuasiArithmeticOnly"
NEITHER = "Neither"

UNSPLITTABLE_CERTIFIED = "UnsplittableCertified"
POSSIBLY_SPLITTABLE = "PossiblySplittable"

SUPPORTED_LABELS = (3, 4, 5, 6, "inf")

MAX_ENUMERATION_RANK = 12

# Diagrams whose signature profiles are kept; one rank-7 analysis touches
# 127 (the diagram and its proper vertex subsets).
PROFILE_CACHE_SIZE = 1024


@lru_cache(maxsize=1)
def entry_field() -> MultiquadraticField:
    """The degree-8 field containing every supported Gram entry."""
    return MultiquadraticField((2, 3, 5))


@dataclass(frozen=True)
class CoxeterDiagram:
    """Vertices 1..rank; edges keyed by sorted vertex pairs."""

    rank: int
    edges: tuple[tuple[tuple[int, int], int | str], ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("diagram needs at least one vertex")
        seen = set()
        for (i, j), label in self.edges:
            if not (1 <= i < j <= self.rank):
                raise ValueError(f"edge ({i},{j}) out of range for rank {self.rank}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
            if label not in SUPPORTED_LABELS:
                raise UnsupportedLabel(f"label {label!r} is not supported")

    @classmethod
    def from_edges(
        cls, rank: int, edges: Iterable[tuple[int, int, int | str]]
    ) -> "CoxeterDiagram":
        normalized = []
        for i, j, label in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            a, b = (i, j) if i < j else (j, i)
            normalized.append(((a, b), label))
        return cls(rank, tuple(normalized))

    @classmethod
    def linear(cls, labels: Sequence[int | str]) -> "CoxeterDiagram":
        """A path diagram [m1, m2, ...] on len(labels) + 1 vertices."""
        return cls.from_edges(
            len(labels) + 1,
            [(k, k + 1, m) for k, m in enumerate(labels, start=1)],
        )

    @property
    def vertices(self) -> range:
        return range(1, self.rank + 1)

    def label(self, i: int, j: int) -> int | str:
        a, b = (i, j) if i < j else (j, i)
        for pair, label in self.edges:
            if pair == (a, b):
                return label
        return 2

    def neighbors(self, i: int) -> list[int]:
        out = []
        for (a, b), _ in self.edges:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return sorted(out)

    def induced(self, vertices: Sequence[int]) -> "CoxeterDiagram":
        """Subdiagram on the given vertices, relabeled 1..k in sorted order."""
        vs = sorted(set(vertices))
        index = {v: k for k, v in enumerate(vs, start=1)}
        edges = [
            ((index[a], index[b]), label)
            for (a, b), label in self.edges
            if a in index and b in index
        ]
        return CoxeterDiagram(len(vs), tuple(edges))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _parse_label(token: str, lineno: int) -> int | str:
    if token in ("inf", "infinity", "oo"):
        return "inf"
    if token == "dotted":
        raise UnsupportedLabel(
            "dotted (ultraparallel) edges are out of scope; only intersecting "
            "or parallel walls are modeled"
        )
    m = parse_int(token, "edge label", lineno)
    if m == 2:
        raise UnsupportedLabel(
            "label 2 encodes a right angle; omit the edge instead"
        )
    if m not in (3, 4, 5, 6):
        raise UnsupportedLabel(
            f"label {m} needs a cosine outside the entry field; supported "
            "labels are 3, 4, 5, 6 and inf"
        )
    return m


def parse_diagram(text: str) -> CoxeterDiagram:
    """Parse the diagram file format.

    ::

        # comment
        vertices 4
        edge 1 2 3
        edge 2 3 3
        edge 3 4 6
    """
    rank: int | None = None
    edges: list[tuple[int, int, int | str]] = []
    seen_pairs: set[tuple[int, int]] = set()
    lineno = 1
    for lineno, parts in directive_lines(text):
        if parts[0] == "vertices":
            if rank is not None:
                raise ParseError("duplicate 'vertices' line", lineno)
            if len(parts) != 2:
                raise ParseError("expected 'vertices N'", lineno)
            rank = parse_int(parts[1], "vertex count", lineno)
            if rank < 1:
                raise ParseError("vertex count must be positive", lineno)
        elif parts[0] == "edge":
            if rank is None:
                raise ParseError("'vertices N' must come before edges", lineno)
            if len(parts) != 4:
                raise ParseError("expected 'edge i j m'", lineno)
            i, j = (parse_int(p, "edge endpoint", lineno) for p in parts[1:3])
            if i == j:
                raise ParseError(f"self-loop at vertex {i}", lineno)
            if not (1 <= i <= rank and 1 <= j <= rank):
                raise ParseError(
                    f"edge ({i},{j}) out of range 1..{rank}", lineno
                )
            label = _parse_label(parts[3], lineno)
            pair = (i, j) if i < j else (j, i)
            if pair in seen_pairs:
                raise ParseError(
                    f"duplicate edge between {pair[0]} and {pair[1]}", lineno
                )
            seen_pairs.add(pair)
            edges.append((i, j, label))
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    if rank is None:
        raise ParseError("missing 'vertices' line", lineno)
    return CoxeterDiagram.from_edges(rank, edges)


# ---------------------------------------------------------------------------
# Gram matrices and classification
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _entries() -> dict[int | str, FieldElement]:
    E = entry_field()
    half = Fraction(1, 2)
    return {
        3: E.from_fraction(-half),
        4: -E.sqrt(2) / 2,
        5: -(E.one + E.sqrt(5)) / 4,
        6: -E.sqrt(3) / 2,
        "inf": E.from_fraction(-1),
    }


def gram_matrix(diagram: CoxeterDiagram) -> Matrix:
    """g_ii = 1, g_ij = -cos(pi/label), exact over the entry field."""
    E = entry_field()
    table = _entries()
    n = diagram.rank
    rows = [[E.one if i == j else E.zero for j in range(n)] for i in range(n)]
    for (i, j), label in diagram.edges:
        value = table[label]
        rows[i - 1][j - 1] = value
        rows[j - 1][i - 1] = value
    return Matrix(E, rows)


@dataclass(frozen=True)
class Classification:
    kind: str  # SPHERICAL | EUCLIDEAN | HYPERBOLIC | OTHER_INDEFINITE
    signature: tuple[int, int, int]
    hyperbolic_dim: int | None = None
    volume_type: str | None = None  # simplex diagrams only

    def __repr__(self) -> str:
        extra = ""
        if self.kind == HYPERBOLIC:
            extra = f"({self.hyperbolic_dim})"
        if self.volume_type:
            extra += f", {self.volume_type}"
        return f"Classification({self.kind}{extra}, signature={self.signature})"


def _classify_signature(sig: tuple[int, int, int]) -> tuple[str, int | None]:
    p, m, z = sig
    if m == 0:
        return (SPHERICAL, None) if z == 0 else (EUCLIDEAN, None)
    if m == 1:
        return HYPERBOLIC, p
    return OTHER_INDEFINITE, None


@lru_cache(maxsize=PROFILE_CACHE_SIZE)
def _signature_profile(diagram: CoxeterDiagram) -> tuple[tuple[int, int, int], ...]:
    """Signature of the Gram matrix at every embedding of the entry field.

    Cached per diagram, holding only the integer triples: classification,
    vertex links, conjugate signatures and special subgroups all read their
    signatures here, so each diagram is diagonalized once.
    """
    return signature_profile(gram_matrix(diagram))


def _signature(diagram: CoxeterDiagram) -> tuple[int, int, int]:
    """Signature at the all-positive (chosen) embedding."""
    return _signature_profile(diagram)[entry_field().chosen_embedding]


def classify(diagram: CoxeterDiagram) -> Classification:
    """Signature-based classification, plus volume type for simplexes.

    A hyperbolic simplex diagram (rank n+1, signature (n,1)) is Compact when
    every vertex link (delete one vertex) is Spherical, finite-volume
    noncompact when links are Spherical or Euclidean, and infinite-volume
    otherwise.
    """
    sig = _signature(diagram)
    kind, dim = _classify_signature(sig)
    volume = None
    if kind == HYPERBOLIC and sig[2] == 0 and diagram.rank == dim + 1:
        link_kinds = []
        for v in diagram.vertices:
            rest = [u for u in diagram.vertices if u != v]
            sub_sig = _signature(diagram.induced(rest))
            link_kinds.append(_classify_signature(sub_sig)[0])
        if all(k == SPHERICAL for k in link_kinds):
            volume = COMPACT
        elif all(k in (SPHERICAL, EUCLIDEAN) for k in link_kinds):
            volume = FINITE_VOLUME_NONCOMPACT
        else:
            volume = INFINITE_VOLUME
    return Classification(kind, sig, dim, volume)


# ---------------------------------------------------------------------------
# Cycles and the arithmeticity criterion
# ---------------------------------------------------------------------------


def simple_cycles(diagram: CoxeterDiagram) -> list[tuple[int, ...]]:
    """All simple cycles of length >= 3, each listed once.

    Canonical form: smallest vertex first, second vertex smaller than the
    last (fixes direction).
    """
    adj = {v: set(diagram.neighbors(v)) for v in diagram.vertices}
    cycles: list[tuple[int, ...]] = []

    def extend(path: list[int]) -> None:
        head, start = path[-1], path[0]
        for nxt in sorted(adj[head]):
            if nxt == start and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif nxt > start and nxt not in path:
                path.append(nxt)
                extend(path)
                path.pop()

    for s in diagram.vertices:
        extend([s])
    return cycles


@dataclass
class ArithmeticityReport:
    cycle_values: list[tuple[str, FieldElement]]  # (description, value)
    field_square_generators: tuple[int, ...]  # K = Q(sqrt d : d here)
    field_degree: int
    totally_real: bool
    conjugates_semidefinite: bool
    all_cycles_integral: bool
    verdict: str  # ARITHMETIC | QUASI_ARITHMETIC_ONLY | NEITHER
    certificate: str | None
    embedding_restrictions: list[tuple[int, bool]]  # (embedding, moves K)

    def __bool__(self) -> bool:
        return self.verdict == ARITHMETIC


def _cycle_field(
    values: Iterable[FieldElement],
) -> tuple[list[tuple[int, bool]], tuple[int, ...], int]:
    """(embedding, moves K) pairs, square-class generators and degree of the
    field K that entry-field values generate.

    Embedding sigma_j multiplies each monomial e_S = prod_{i in S} sqrt(d_i)
    by the sign chi_S(sigma_j), so it moves K exactly when chi_S(sigma_j) = -1
    for some nonconstant S in the support of some value, and
    K = Q(sqrt(d_S) : S in the supports).  The index of the fixing subgroup
    and the GF(2) rank of the d_S are two independent routes to the degree.
    """
    E = entry_field()
    supports = {s for v in values for s, c in enumerate(E.to_monomial(v)) if s and c}
    restrictions = [
        (j, any(E.monomial_signs(j)[s] < 0 for s in supports))
        for j in range(E.n_real_embeddings)
    ]
    degree = E.n_real_embeddings // sum(not moves for _, moves in restrictions)
    square_gens = square_class_basis(E.monomial_discs[s] for s in supports)
    if degree != 1 << len(square_gens):
        raise CertificateError(
            f"cycle field has degree {degree} but its square classes "
            f"{square_gens} generate degree {1 << len(square_gens)}"
        )
    return restrictions, square_gens, degree


def vinberg_arithmeticity(diagram: CoxeterDiagram) -> ArithmeticityReport:
    """The cyclic-product arithmeticity test for hyperbolic diagrams.

    With b_ij = 2 g_ij, the tested cycle values are b_ij * b_ji for every
    edge plus the products of b around every simple cycle; K is the field
    they generate.  Conditions: (a) K totally real — automatic inside the
    totally real entry field; (b) every entry-field embedding that restricts
    nontrivially to K sends the Gram matrix to a positive semidefinite one
    (embeddings restricting trivially give matrices congruent to the
    original by a diagonal sign rescale, so they are excluded); (c) every
    cycle value is an algebraic integer.  Arithmetic = a and b and c;
    QuasiArithmeticOnly = a and b and not c; Neither otherwise.

    K is read off the monomial supports of the cycle values (`_cycle_field`).
    """
    base = classify(diagram)
    if base.kind != HYPERBOLIC:
        raise NotHyperbolic(
            f"arithmeticity is defined for hyperbolic diagrams; this one is "
            f"{base.kind} with signature {base.signature}"
        )
    E = entry_field()
    G = gram_matrix(diagram)
    two = E.from_fraction(2)

    values: list[tuple[str, FieldElement]] = []
    for (i, j), _ in diagram.edges:
        b = two * G[i - 1, j - 1]
        values.append((f"edge ({i},{j}) squared", b * b))
    for cyc in simple_cycles(diagram):
        prod = E.one
        for k in range(len(cyc)):
            i, j = cyc[k], cyc[(k + 1) % len(cyc)]
            prod = prod * (two * G[i - 1, j - 1])
        values.append(("cycle " + "-".join(map(str, cyc)), prod))

    restrictions, square_gens, field_degree = _cycle_field(v for _, v in values)

    certificate = None
    semidefinite = True
    profile = _signature_profile(diagram)
    for j, moves in restrictions:  # the chosen embedding never moves K
        sig = profile[j]
        if moves and sig[1] != 0:
            semidefinite = False
            certificate = (
                f"embedding {j} moves the cycle field but the conjugated "
                f"Gram matrix has signature {sig}, not positive semidefinite"
            )
            break

    integral = True
    if semidefinite:
        for desc, v in values:
            if not is_algebraic_integer(v):
                integral = False
                certificate = f"{desc} = {v} is not an algebraic integer"
                break
    else:
        integral = all(is_algebraic_integer(v) for _, v in values)

    if semidefinite and integral:
        verdict = ARITHMETIC
    elif semidefinite:
        verdict = QUASI_ARITHMETIC_ONLY
    else:
        verdict = NEITHER

    return ArithmeticityReport(
        cycle_values=values,
        field_square_generators=square_gens,
        field_degree=field_degree,
        totally_real=True,
        conjugates_semidefinite=semidefinite,
        all_cycles_integral=integral,
        verdict=verdict,
        certificate=certificate,
        embedding_restrictions=restrictions,
    )


# ---------------------------------------------------------------------------
# Special subgroups and splittability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecialSubgroup:
    vertices: tuple[int, ...]
    classification: Classification


def special_subgroups(diagram: CoxeterDiagram) -> list[SpecialSubgroup]:
    """Every proper nonempty vertex subset with its induced classification."""
    if diagram.rank > MAX_ENUMERATION_RANK:
        raise RankTooLarge(
            f"subset enumeration is capped at rank {MAX_ENUMERATION_RANK}; "
            f"got {diagram.rank}"
        )
    out = []
    verts = list(diagram.vertices)
    for size in range(1, diagram.rank):
        for subset in itertools.combinations(verts, size):
            sub = diagram.induced(subset)
            out.append(SpecialSubgroup(subset, classify(sub)))
    return out


@dataclass
class SplittabilityReport:
    status: str  # UNSPLITTABLE_CERTIFIED | POSSIBLY_SPLITTABLE
    reason: str
    candidates: list[SpecialSubgroup]

    def __bool__(self) -> bool:
        return self.status == UNSPLITTABLE_CERTIFIED


def unsplittable_check(diagram: CoxeterDiagram, n: int) -> SplittabilityReport:
    """Unsplittability certificates for a Coxeter polyhedron in H^n.

    A simplex (rank n+1) is unsplittable outright.  Otherwise a splitting
    hypersurface would be bounded by a Coxeter polyhedron of H^(n-1) whose
    group embeds as a special subgroup, so the absence of any special
    subgroup of hyperbolic dimension n-1 is a certificate.  Candidates are
    necessary-condition witnesses only; the check never certifies
    splittability.
    """
    base = classify(diagram)
    if base.kind != HYPERBOLIC or base.hyperbolic_dim != n:
        raise NotHyperbolic(
            f"expected a Hyperbolic({n}) diagram, got {base.kind} "
            f"with signature {base.signature}"
        )
    if diagram.rank == n + 1:
        return SplittabilityReport(UNSPLITTABLE_CERTIFIED, "simplex", [])
    candidates = [
        s
        for s in special_subgroups(diagram)
        if s.classification.kind == HYPERBOLIC
        and s.classification.hyperbolic_dim == n - 1
    ]
    if not candidates:
        return SplittabilityReport(
            UNSPLITTABLE_CERTIFIED, "no hyperbolic special subgroup", []
        )
    return SplittabilityReport(
        POSSIBLY_SPLITTABLE,
        f"{len(candidates)} special subgroup(s) of hyperbolic dimension "
        f"{n - 1} found; splittability is not decided",
        candidates,
    )
