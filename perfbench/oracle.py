"""Floating-point oracles that check hyplat's verdicts without hyplat.

Everything here uses numpy eigenvalues, float evaluation at the real roots
of a defining polynomial, and small exact integer helpers.  Generators use
the same functions to make inputs valid by construction, so no input is ever
chosen by asking hyplat.  A value within ``AMBIGUOUS`` of zero is treated as
undecidable in floating point; generators resample such inputs.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

TOL = 1e-9
AMBIGUOUS = 1e-6


class Ambiguous(ValueError):
    """A float test landed too close to zero to be trusted."""


def sign(x: float) -> int:
    if abs(x) <= TOL:
        return 0
    if abs(x) < AMBIGUOUS:
        raise Ambiguous(f"value {x!r} is too close to zero")
    return 1 if x > 0 else -1


def signature(G) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a real symmetric matrix."""
    ev = np.linalg.eigvalsh(np.asarray(G, dtype=float))
    s = [sign(float(v)) for v in ev]
    return s.count(1), s.count(-1), s.count(0)


# ---------------------------------------------------------------------------
# Number fields as float embeddings
# ---------------------------------------------------------------------------


def real_roots(desc_coeffs) -> list[float]:
    """Ascending real roots of a polynomial given leading coefficient first."""
    roots = np.roots([float(c) for c in desc_coeffs])
    real = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9)
    if len(real) != len(desc_coeffs) - 1:
        raise ValueError("benchmark fields are totally real")
    return real


def evaluate(coords, root: float) -> float:
    """Power-basis coordinates (ascending) evaluated at a root."""
    return sum(float(c) * root**k for k, c in enumerate(coords))


def parse_rendered(text: str) -> list[Fraction]:
    """Ascending coordinates of hyplat's polynomial rendering, e.g.
    ``5/3*t - 7/72*t^3``, or a bare rational such as ``-2/3``."""
    coords: dict[int, Fraction] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        term = term.strip()
        neg = term.startswith("-")
        body = term[1:] if neg else term
        if "t" in body:
            coef, _, power = body.partition("t")
            coef = coef.rstrip("*") or "1"
            k = int(power[1:]) if power.startswith("^") else 1
        else:
            coef, k = body, 0
        value = Fraction(coef)
        coords[k] = coords.get(k, Fraction(0)) + (-value if neg else value)
    top = max(coords) if coords else 0
    return [coords.get(k, Fraction(0)) for k in range(top + 1)]


# ---------------------------------------------------------------------------
# Square classes of integers
# ---------------------------------------------------------------------------


def factor_support(n: int) -> frozenset[int]:
    """Primes (and -1 for a negative sign) dividing n to an odd power.
    Trial division: callers pass integers below about 10^12."""
    out = {-1} if n < 0 else set()
    n = abs(n)
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e & 1:
            out.add(p)
        p += 1
    if n > 1:
        out.add(n)
    return frozenset(out)


def squarefree(n: int) -> int:
    """Signed squarefree kernel of a nonzero integer."""
    return math.prod(factor_support(n))


def is_rational_square(q: Fraction) -> bool:
    if q < 0:
        return False
    return all(math.isqrt(x) ** 2 == x for x in (q.numerator, q.denominator))


def span_gf2(classes) -> set[frozenset[int]]:
    """The group of square classes generated by ``classes``, each class as
    its set of odd-exponent primes (with -1 for the sign)."""
    group = {frozenset()}
    for d in classes:
        v = factor_support(d)
        group |= {g ^ v for g in group}
    return group


# ---------------------------------------------------------------------------
# Coxeter diagrams
# ---------------------------------------------------------------------------

# cos(pi/m) as a function of the embedding's signs on (sqrt2, sqrt3, sqrt5).
_COS = {
    3: lambda s: 0.5,
    4: lambda s: s[0] * math.sqrt(2) / 2,
    5: lambda s: (1 + s[2] * math.sqrt(5)) / 4,
    6: lambda s: s[1] * math.sqrt(3) / 2,
    "inf": lambda s: 1.0,
}
IDENTITY = (1, 1, 1)
EMBEDDINGS = list(itertools.product((1, -1), repeat=3))
_SQRT_MASK = {2: (1, 0, 0), 3: (0, 1, 0), 5: (0, 0, 1), 6: (1, 1, 0),
              10: (1, 0, 1), 15: (0, 1, 1), 30: (1, 1, 1)}


def coxeter_gram(rank: int, edges, s=IDENTITY) -> np.ndarray:
    G = np.eye(rank)
    for i, j, m in edges:
        G[i - 1, j - 1] = G[j - 1, i - 1] = -_COS[m](s)
    return G


def _kind(sig) -> tuple[str, int | None]:
    p, m, z = sig
    if m == 0:
        return ("Spherical" if z == 0 else "Euclidean"), None
    if m == 1:
        return "Hyperbolic", p
    return "OtherIndefinite", None


def _induced(edges, vertices):
    index = {v: k for k, v in enumerate(sorted(vertices), start=1)}
    return [(index[i], index[j], m) for i, j, m in edges if i in index and j in index]


def coxeter_classify(rank: int, edges) -> dict:
    sig = signature(coxeter_gram(rank, edges))
    kind, dim = _kind(sig)
    volume = None
    if kind == "Hyperbolic" and sig[2] == 0 and rank == dim + 1:
        links = []
        for v in range(1, rank + 1):
            rest = [u for u in range(1, rank + 1) if u != v]
            links.append(_kind(signature(coxeter_gram(rank - 1, _induced(edges, rest))))[0])
        if all(k == "Spherical" for k in links):
            volume = "Compact"
        elif all(k in ("Spherical", "Euclidean") for k in links):
            volume = "FiniteVolumeNoncompact"
        else:
            volume = "InfiniteVolume"
    return {"kind": kind, "signature": list(sig), "dim": dim, "volume": volume}


def simple_cycles(rank: int, edges) -> list[tuple[int, ...]]:
    adj = {v: set() for v in range(1, rank + 1)}
    for i, j, _ in edges:
        adj[i].add(j)
        adj[j].add(i)
    out = []
    for start in range(1, rank + 1):
        stack = [(start, [start])]
        while stack:
            head, path = stack.pop()
            for nxt in adj[head]:
                if nxt == start and len(path) >= 3 and path[1] < path[-1]:
                    out.append(tuple(path))
                elif nxt > start and nxt not in path:
                    stack.append((nxt, path + [nxt]))
    return out


def _cycle_values(rank: int, edges, s) -> list[float]:
    label = {(min(i, j), max(i, j)): m for i, j, m in edges}
    vals = [(2 * _COS[m](s)) ** 2 for _, _, m in edges]
    for cyc in simple_cycles(rank, edges):
        prod = 1.0
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            prod *= -2 * _COS[label[min(a, b), max(a, b)]](s)
        vals.append(prod)
    return vals


def coxeter_expected(rank: int, edges) -> dict:
    """Every verdict ``coxeter analyze`` reports, recomputed in floats."""
    out = coxeter_classify(rank, edges)
    out["arithmeticity"] = out["splittability"] = None
    if out["kind"] != "Hyperbolic":
        return out
    base = _cycle_values(rank, edges, IDENTITY)
    fixing = [s for s in EMBEDDINGS
              if all(abs(a - b) <= 1e-7 for a, b in zip(base, _cycle_values(rank, edges, s)))]
    fixed = [d for d, mask in _SQRT_MASK.items()
             if all(math.prod(s[k] for k in range(3) if mask[k]) == 1 for s in fixing)]
    semidefinite = all(
        signature(coxeter_gram(rank, edges, s))[1] == 0
        for s in EMBEDDINGS if s != IDENTITY and s not in fixing
    )
    n_cycles = len(simple_cycles(rank, edges))
    out["arithmeticity"] = {
        # Every cycle value is a product of 2cos(pi/m), an algebraic integer.
        "verdict": "Arithmetic" if semidefinite else "Neither",
        "degree": 8 // len(fixing),
        "square_classes": span_gf2(fixed),
        "semidefinite": semidefinite,
        "integral": True,
        "n_values": len(edges) + n_cycles,
    }
    n = out["dim"]
    if rank == n + 1:
        out["splittability"] = {"status": "UnsplittableCertified", "candidates": []}
        return out
    candidates = []
    for size in range(1, rank):
        for subset in itertools.combinations(range(1, rank + 1), size):
            c = coxeter_classify(size, _induced(edges, subset))
            if c["kind"] == "Hyperbolic" and c["dim"] == n - 1:
                candidates.append(list(subset))
    status = "PossiblySplittable" if candidates else "UnsplittableCertified"
    out["splittability"] = {"status": status, "candidates": candidates}
    return out


def check_coxeter(expected: dict, got: dict) -> list[str]:
    """Differences between an oracle verdict and one ``results`` entry."""
    bad = []

    def same(name, want, have):
        if want != have:
            bad.append(f"{name}: expected {want!r}, got {have!r}")

    same("classification", expected["kind"], got["classification"])
    same("signature", expected["signature"], got["signature"])
    same("hyperbolic_dim", expected["dim"], got["hyperbolic_dim"])
    same("volume_type", expected["volume"], got["volume_type"])
    want_a, have_a = expected["arithmeticity"], got["arithmeticity"]
    if want_a is None or have_a is None:
        same("arithmeticity", want_a, have_a)
    else:
        same("arithmeticity.verdict", want_a["verdict"], have_a["verdict"])
        same("field.degree", want_a["degree"], have_a["field"]["degree"])
        gens = have_a["field"]["square_class_generators"]
        same("field.square_classes", want_a["square_classes"], span_gf2(gens))
        same("field.generator_count", want_a["degree"], 1 << len(gens))
        same("conjugates_semidefinite", want_a["semidefinite"], have_a["conjugates_semidefinite"])
        same("integral", want_a["integral"], have_a["integral"])
        same("cycle_count", want_a["n_values"], len(have_a["cycles"]))
    want_s, have_s = expected["splittability"], got["splittability"]
    if want_s is None or have_s is None:
        same("splittability", want_s, have_s)
    else:
        same("splittability.status", want_s["status"], have_s["status"])
        same("splittability.candidates", want_s["candidates"], have_s["candidates"])
    return bad


# ---------------------------------------------------------------------------
# Quadratic forms over a totally real field
# ---------------------------------------------------------------------------


def gram_at(rows, root: float) -> np.ndarray:
    """A Gram matrix of coordinate vectors evaluated at one real root."""
    return np.array([[evaluate(c, root) for c in row] for row in rows])


def angle_value(rows, root: float, e, Z) -> float:
    """q(P_Z e) / q(e), with P_Z the q-orthogonal projection onto span Z."""
    G = gram_at(rows, root)
    ev = np.array([evaluate(c, root) for c in e])
    Zm = np.array([[evaluate(c, root) for c in z] for z in Z]).T
    coeffs = np.linalg.solve(Zm.T @ G @ Zm, Zm.T @ G @ ev)
    p = Zm @ coeffs
    return float(p @ G @ p) / float(ev @ G @ ev)
