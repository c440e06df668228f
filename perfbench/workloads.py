"""Seeded input streams for the three benchmark workloads.

Each workload is an endless, deterministic stream of ``Case`` objects: the
same seed yields byte-identical files and argv.  Inputs are valid by
construction, checked with the float oracles in ``oracle.py`` and never with
hyplat.  No input repeats within a stream.  Case ``i`` takes its category
from a fixed schedule indexed by ``i``, so every run of every seed sees the
same mix in the same proportions; only the random draws inside a category
depend on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

WORK_DIR = ".perfbench-work"

UNDECIDED = {"Unknown", "HypothesesUnknown", "PossiblySplittable", "EnumerationSkipped"}


@dataclass
class Case:
    id: str
    kind: str
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


def _fmt(q) -> str:
    return str(Fraction(q))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


SMALL_PRIMES = [p for p in range(2, 60) if _is_prime(p)]
LINK_PRIMES = [p for p in range(2, 1000) if _is_prime(p)]


class Stream:
    """Base class: numbering, file paths and de-duplication."""

    name = ""
    prefix = ""
    schedule: list = []
    warmup: list[str] = []

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.index = 0
        self.seen: set[str] = set()
        self.dir = f"{WORK_DIR}/{self.name}/s{seed}"
        self.shared_files: dict[str, str] = {}
        # Inputs that fail at this commit for a known defect: decided once per
        # run, outside the timed inputs and their counts, and reported.
        self.known_defects: list[Case] = []

    def path(self, i: int, ext: str) -> str:
        return f"{self.dir}/{self.prefix}{i:05d}.{ext}"

    def fresh(self, key: str) -> bool:
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def take(self, n: int) -> list[Case]:
        out = []
        for _ in range(n):
            out.append(self.make(self.index))
            self.index += 1
        return out

    def make(self, i: int) -> Case:  # pragma: no cover - abstract
        raise NotImplementedError


def headline(case: Case, report: dict) -> str:
    """The status that says whether an input was decided."""
    if case.kind == "coxeter":
        r = report["results"][0]
        if r["splittability"]:
            return r["splittability"]["status"]
        return r["classification"]
    if case.kind in ("commensurable", "commensurable-k"):
        return report["verdict"]["status"]
    if case.kind == "hybrid-verify":
        return report["verdict"]
    return "Decided"


# ---------------------------------------------------------------------------
# coxeter-catalog
# ---------------------------------------------------------------------------

# The bundled figures with the verdicts acceptance criterion 3 pins:
# (name, arithmeticity, hyperbolic dimension, volume type or None if unpinned).
# Every one is a simplex, so splittability is certified by "simplex".
FIGURES = [
    ("fig4_h5_simplex", "Neither", 5, "FiniteVolumeNoncompact"),
    ("fig5_a_compact_345", "Neither", 3, "Compact"),
    ("fig5_b_444", "Neither", 3, None),
    ("fig5_c_tadpole_5", "Neither", 3, None),
    ("fig6_a_3336", "Neither", 3, "FiniteVolumeNoncompact"),
    ("fig6_b_3436", "Neither", 3, "FiniteVolumeNoncompact"),
    ("fig6_c_3536", "Neither", 3, "FiniteVolumeNoncompact"),
    ("fig6_d_536_linear", "Neither", 3, "FiniteVolumeNoncompact"),
    ("fig_336_control", "Arithmetic", 3, None),
]
RATIONAL_LABELS = [3, 3, 3, "inf"]    # cos(pi/m) rational
IRRATIONAL_LABELS = [4, 4, 5, 6, 6]   # sqrt 2, sqrt 5, sqrt 3
# Connected affine diagrams: A~1, A~2, C~2, G~2.
AFFINE = [
    (2, [(1, 2, "inf")]),
    (3, [(1, 2, 3), (2, 3, 3), (1, 3, 3)]),
    (3, [(1, 2, 4), (2, 3, 4)]),
    (3, [(1, 2, 6), (2, 3, 3)]),
]
# One block of 15 inputs.  "S<r>": a hyperbolic simplex of rank r that is a
# tree, "S<r>c" one with exactly one cycle; "O": spherical, euclidean or
# indefinite; "A<r>": a rank-4 hyperbolic simplex tree plus an affine
# component, total rank r, whose degenerate signature sends
# ``unsplittable_check`` through subgroup enumeration; "F": a bundled figure
# in the first 9 blocks, then an "S5".  Rank and cycle count fix the number
# of cycle values, each of which costs one degree-8 characteristic
# polynomial, so fixing them per slot keeps the cost of a block about equal
# across seeds.  An odd block length puts the median inside one slot's
# latency band rather than between two.
COXETER_SCHEDULE = [
    "F", "S4", "S5", "O", "S4c", "S6", "A6", "S5",
    "S4", "S7", "S5c", "O", "S4", "A7", "S6c",
]


def diagram_text(rank: int, edges) -> str:
    return f"vertices {rank}\n" + "".join(f"edge {i} {j} {m}\n" for i, j, m in edges)


class CoxeterCatalog(Stream):
    name = "coxeter-catalog"
    prefix = "c"
    schedule = COXETER_SCHEDULE
    # The compact tetrahedron [5,3,5]; with two irrational labels on three
    # edges the stream never generates it, so no timed input repeats it.
    warmup_file = f"{WORK_DIR}/coxeter-catalog/warmup.cox"
    warmup = ["coxeter", "analyze", warmup_file]

    def __init__(self, seed: int):
        super().__init__(seed)
        self.shared_files[self.warmup_file] = diagram_text(4, [(1, 2, 5), (2, 3, 3), (3, 4, 5)])

    def _random_diagram(self, rank: int, cycle: bool):
        """A random tree, plus one edge closing a cycle if asked.  Half the
        edges, rounded down, carry an irrational cosine: exact arithmetic on
        those entries is what costs, so a fixed count keeps the cost of a
        slot steady across seeds."""
        rng = self.rng
        pairs = [(rng.randint(1, v - 1), v) for v in range(2, rank + 1)]
        if cycle:
            pairs.append(rng.choice([(i, j) for i in range(1, rank + 1)
                                     for j in range(i + 1, rank + 1) if (i, j) not in pairs]))
        irrational = set(rng.sample(range(len(pairs)), len(pairs) // 2))
        return [(i, j, rng.choice(IRRATIONAL_LABELS if k in irrational else RATIONAL_LABELS))
                for k, (i, j) in enumerate(pairs)]

    def _simplex(self, rank: int, cycle: bool = False):
        while True:
            edges = self._random_diagram(rank, cycle)
            try:
                c = oracle.coxeter_classify(rank, edges)
            except oracle.Ambiguous:
                continue
            if c["kind"] == "Hyperbolic" and c["signature"] == [rank - 1, 1, 0]:
                return edges

    def make(self, i: int) -> Case:
        slot = COXETER_SCHEDULE[i % len(COXETER_SCHEDULE)]
        block = i // len(COXETER_SCHEDULE)
        if slot == "F":
            if block < len(FIGURES):
                token = f"figures/{FIGURES[block][0]}.cox"
                return Case(f"c{i:05d}", "coxeter", ["coxeter", "analyze", token],
                            expect={"figure": FIGURES[block]})
            slot = "S5"
        while True:
            if slot[0] == "S":
                rank = int(slot[1])
                edges = self._simplex(rank, slot.endswith("c"))
            elif slot == "O":
                rank = self.rng.choice([4, 5, 6, 7])
                edges = self._random_diagram(rank, self.rng.random() < 0.3)
                try:
                    if oracle.coxeter_classify(rank, edges)["kind"] == "Hyperbolic":
                        continue
                except oracle.Ambiguous:
                    continue
            else:
                k, affine = self.rng.choice([a for a in AFFINE if a[0] == int(slot[1:]) - 4])
                edges = self._simplex(4) + [(a + 4, b + 4, m) for a, b, m in affine]
                rank = 4 + k
            text = diagram_text(rank, edges)
            if not self.fresh(text):
                continue
            try:
                expected = oracle.coxeter_expected(rank, edges)
            except oracle.Ambiguous:
                continue
            path = self.path(i, "cox")
            return Case(f"c{i:05d}", "coxeter", ["coxeter", "analyze", path],
                        {path: text}, {"oracle": expected})

    @staticmethod
    def check(case: Case, report: dict) -> list[str]:
        r = report["results"][0]
        if "figure" in case.expect:
            _, verdict, dim, volume = case.expect["figure"]
            want = {"classification": "Hyperbolic", "hyperbolic_dim": dim,
                    "splittability": {"status": "UnsplittableCertified", "reason": "simplex",
                                      "candidates": []}}
            if volume is not None:
                want["volume_type"] = volume
            bad = [f"{key}: {r[key]!r} != pinned {value!r}"
                   for key, value in want.items() if r[key] != value]
            if r["arithmeticity"]["verdict"] != verdict:
                bad.append(f"arithmeticity {r['arithmeticity']['verdict']} != pinned {verdict}")
            return bad
        return oracle.check_coxeter(case.expect["oracle"], r)


# ---------------------------------------------------------------------------
# rational-forms
# ---------------------------------------------------------------------------

# One block of 15.  "check"/"checkbig"/"gram": form check on a desk-scale
# diagonal form, a large-height diagonal form, a desk-scale full Gram matrix;
# "scaled"/"disc"/"odd": form commensurable on a scaled pair, an even-dimension
# discriminant obstruction, an odd-dimension pair with an unconstrained answer;
# "bigscaled": a scaled pair in the large-height band; "links"/"script":
# links compose on an inline chain or a composition script.
# Large-height pairs take a fifth of the inputs and most of the time, so
# the 90th percentile lies inside their band rather than on its edge.
RATIONAL_SCHEDULE = [
    "check", "scaled", "links", "disc", "bigscaled", "checkbig", "script", "odd",
    "gram", "bigscaled", "links", "scaled", "check", "bigscaled", "links",
]
# ROADMAP item 5: factorization of 10^18 + 3 overflows the trial-division
# bound and ends in a traceback.  It is not one of the timed inputs, whose
# runs must not fail; run.py decides it once per rational-forms run, untimed,
# and prints what became of it.
REPRODUCER = ["form", "commensurable", "diag(1,1,1,-1)", "diag(1,1,1,-1000000000000000003)"]
PINNED_PAIRS = [  # acceptance criterion 2(d)
    (["diag(1,1,1,-1)", "diag(1,1,1,-2)"], "NotCommensurable"),
    (["diag(1,1,1,-1)", "diag(2,2,2,-2)"], "Commensurable"),
]
N_LINKS = 20


def _large_prime(rng: random.Random) -> int:
    # A narrow range keeps trial division's cost, which grows with the
    # second-largest prime factor, about equal across inputs.
    while True:
        p = rng.randrange(10**5, 15 * 10**4) | 1
        if _is_prime(p):
            return p


class RationalForms(Stream):
    name = "rational-forms"
    prefix = "r"
    schedule = RATIONAL_SCHEDULE
    # Scaled by 7, which no generated pair uses, so no timed input repeats it.
    warmup = ["form", "commensurable", "diag(1,1,-1)", "diag(7,7,-7)"]

    def __init__(self, seed: int):
        super().__init__(seed)
        self.table = self._link_table()
        self.table_path = f"{self.dir}/links.tbl"
        self.shared_files[self.table_path] = "".join(
            f"link {n} disc {d} belts {b}\n" for n, (d, b) in self.table.items()
        )
        # Discriminant classes -1 and -(10^18 + 3) differ in even dimension.
        self.known_defects = [Case("item5", "commensurable", list(REPRODUCER),
                                   expect={"status": "NotCommensurable", "odd": False})]

    def _link_table(self) -> dict[str, tuple[int, int]]:
        rng, table, used = self.rng, {}, set()
        while len(table) < N_LINKS:
            d = -math.prod(rng.sample(LINK_PRIMES, rng.randint(1, 3)))
            if d < -10**6 or d in used:
                continue
            used.add(d)
            table[f"L{len(table):02d}"] = (d, rng.choice([1, 2, 2, 3]))
        return table

    # -- forms ---------------------------------------------------------------

    def _desk_diag(self, n: int, bound: int = 12) -> list[int]:
        rng = self.rng
        entries = [rng.randint(1, bound) for _ in range(n)]
        entries[rng.randrange(n)] *= -1
        return entries

    def _big_diag(self, n: int) -> list[int]:
        """Diagonal entries, two of them a product of two primes near 10^5."""
        rng = self.rng
        entries = self._desk_diag(n, 9)
        for pos in rng.sample(range(n), 2):
            p, q = _large_prime(rng), _large_prime(rng)
            while q == p:
                q = _large_prime(rng)
            entries[pos] *= p * q
        return entries

    @staticmethod
    def _diag_token(entries) -> str:
        return "diag(" + ",".join(_fmt(e) for e in entries) + ")"

    def _scaled_partner(self, entries, mu: Fraction, squares=(1, 2, 3)):
        rng = self.rng
        perm = list(range(len(entries)))
        rng.shuffle(perm)
        return [mu * entries[k] * rng.choice(squares) ** 2 for k in perm]

    def _form_check(self, i: int, slot: str) -> Case:
        rng = self.rng
        n = rng.randint(3, 6)
        admissible = rng.random() < 0.8
        if slot == "checkbig":
            entries = self._big_diag(n)
        else:
            entries = self._desk_diag(n, 60)
        if not admissible:
            flip = rng.choice([k for k, e in enumerate(entries) if e > 0])
            entries[flip] = -entries[flip]
        if slot == "gram":
            # S^T diag(entries) S with S unit upper triangular.
            S = [[1 if r == c else (rng.randint(-1, 1) if c > r else 0) for c in range(n)]
                 for r in range(n)]
            G = [[sum(S[k][r] * entries[k] * S[k][c] for k in range(n)) for c in range(n)]
                 for r in range(n)]
            path = self.path(i, "form")
            text = f"form {n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in G)
            files, token = {path: text}, path
        else:
            G = [[entries[r] if r == c else 0 for c in range(n)] for r in range(n)]
            files, token = {}, self._diag_token(entries)
        sig = oracle.signature(G)
        return Case(f"r{i:05d}", "form-check", ["form", "check", token], files,
                    {"admissible": sig == (n - 1, 1, 0), "signature": list(sig)})

    def _commensurable(self, i: int, slot: str) -> Case:
        rng = self.rng
        mu = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        if slot == "bigscaled":
            n = 3 if i % 2 == 0 else 5  # fixed per slot
            q1 = self._big_diag(n)
            q2 = self._scaled_partner(q1, mu, (1, 2))
            expect = {"status": "Commensurable", "mu": mu}
        elif slot == "scaled":
            n = rng.randint(3, 6)
            q1 = self._desk_diag(n)
            q2 = self._scaled_partner(q1, mu)
            expect = {"status": "Commensurable", "mu": mu}
        elif slot == "disc":
            n = rng.choice([4, 6])
            q1 = self._desk_diag(n)
            twisted = list(q1)
            pos = rng.choice([k for k, e in enumerate(q1) if e > 0])
            twisted[pos] *= rng.choice([2, 3, 5, 7])
            q2 = self._scaled_partner(twisted, mu)
            expect = {"status": "NotCommensurable"}
        else:  # odd dimension, two entries twisted by the same prime
            n = rng.choice([3, 5])
            q1 = self._desk_diag(n)
            twisted = list(q1)
            c = rng.choice([2, 3, 5, 7])
            for pos in rng.sample(range(n), 2):
                twisted[pos] *= c
            q2 = self._scaled_partner(twisted, mu)
            expect = {"status": None, "mu": mu}
        expect["odd"] = n % 2 == 1
        left, right = self._diag_token(q1), self._diag_token(q2)
        return Case(f"r{i:05d}", "commensurable", ["form", "commensurable", left, right],
                    expect=expect)

    # -- links ---------------------------------------------------------------

    def _links(self, i: int, slot: str) -> Case:
        rng = self.rng
        names = list(self.table)
        while True:
            k = rng.randint(2, 5)
            chain = [rng.choice(names)]
            remaining = self.table[chain[0]][1]
            for _ in range(k - 1):
                if remaining < 1:
                    break
                nxt = rng.choice(names)
                chain.append(nxt)
                remaining += self.table[nxt][1] - 2
            if len(chain) >= 2 and remaining >= 0:
                break
        discs = [self.table[n][0] for n in chain]
        belts = sum(self.table[n][1] for n in chain) - 2 * (len(chain) - 1)
        expect = {"discs": discs, "belts": belts,
                  "table": {n: d for n, (d, _) in self.table.items()}}
        if slot == "links":
            argv = ["links", "compose", "+".join(chain)]
            files = {}
        else:
            path = self.path(i, "links")
            lines = [f"sum {chain[0]} {chain[1]}"]
            lines += [f"sum #{k} {name}" for k, name in enumerate(chain[2:], start=1)]
            argv, files = ["links", "compose", path], {path: "\n".join(lines) + "\n"}
        return Case(f"r{i:05d}", "links", argv + ["--table", self.table_path], files, expect)

    def make(self, i: int) -> Case:
        block = i // len(RATIONAL_SCHEDULE)
        slot = RATIONAL_SCHEDULE[i % len(RATIONAL_SCHEDULE)]
        if slot == "odd" and block < len(PINNED_PAIRS):
            pair, status = PINNED_PAIRS[block]
            self.fresh(" ".join(pair))
            return Case(f"r{i:05d}", "commensurable", ["form", "commensurable", *pair],
                        expect={"status": status, "mu": Fraction(2), "odd": False})
        while True:
            if slot in ("check", "checkbig", "gram"):
                case = self._form_check(i, slot)
            elif slot in ("links", "script"):
                case = self._links(i, slot)
            else:
                case = self._commensurable(i, slot)
            if self.fresh(" ".join(case.argv) + "".join(case.files.values())):
                return case

    @staticmethod
    def check(case: Case, report: dict) -> list[str]:
        e = case.expect
        if case.kind == "form-check":
            r = report["results"][0]
            bad = []
            if r["admissible"] != e["admissible"]:
                bad.append(f"admissible {r['admissible']} != {e['admissible']}")
            if r["signature"] != e["signature"]:
                bad.append(f"signature {r['signature']} != {e['signature']}")
            return bad
        if case.kind == "commensurable":
            return check_rational_verdict(e, report["verdict"])
        return check_links(e, report)


def check_rational_verdict(e: dict, v: dict) -> list[str]:
    bad = []
    if e["status"] is not None and v["status"] != e["status"]:
        bad.append(f"status {v['status']} != {e['status']}")
    if v["status"] == "Commensurable":
        lam = Fraction(v["lambda"])
        if lam <= 0:
            bad.append(f"lambda {lam} must be positive for signature (n-1, 1)")
        elif e["odd"] and not oracle.is_rational_square(lam / e["mu"]):
            bad.append(f"odd dimension forces lambda = {e['mu']} mod squares, got {lam}")
    elif v["lambda"] is not None:
        bad.append("lambda witness without a Commensurable verdict")
    return bad


def check_links(e: dict, report: dict) -> list[str]:
    bad = []
    span = oracle.span_gf2(e["discs"])
    gens = report["field"]["generators"]
    if oracle.span_gf2(gens) != span:
        bad.append(f"field generators {gens} do not span the classes of {e['discs']}")
    if report["field"].get("degree") != len(span):
        bad.append(f"degree {report['field'].get('degree')} != {len(span)}")
    if report["belts"] != e["belts"]:
        bad.append(f"belts {report['belts']} != {e['belts']}")
    for name, d in e["table"].items():
        want = "Unknown" if oracle.span_gf2([d]) == span else "Incommensurable"
        have = report["verdicts"][name]["status"]
        if have != want:
            bad.append(f"verdict vs {name}: {have} != {want}")
    return bad


# ---------------------------------------------------------------------------
# field-gluings
# ---------------------------------------------------------------------------

QUADRATIC_D = [2, 3, 5, 6, 7, 10, 11, 13]
CUBIC = [1, 0, -3, 1]          # x^3 - 3x + 1, descending
QUARTIC = [1, 0, -14, 0, 9]    # x^4 - 14x^2 + 9, generating Q(sqrt 2, sqrt 5)
# One block of 15: (command, field, shared dimension, blocks).  Fields: q
# quadratic, c cubic, 4 quartic.  Shared dimension 3 gives an even ambient
# dimension, where the discriminant decides every pair with a nonsquare
# ratio; shared dimension 2 sends such pairs through the candidate search,
# which costs seconds per pair past three blocks, so it comes with few blocks.
# An odd block length puts the median and the 90th percentile inside one
# slot's latency band rather than between two.
FIELD_SCHEDULE = [
    ("angle", "q", 0, 0), ("gps", "q", 3, 2), ("commensurable", "q", 0, 0),
    ("general", "q", 3, 3), ("cycle", "c", 3, 3), ("angle", "c", 0, 0),
    ("gps", "4", 3, 2), ("cycle", "q", 3, 4), ("general", "q", 2, 3),
    ("commensurable", "c", 0, 0), ("general", "c", 3, 4), ("angle", "4", 0, 0),
    ("cycle", "q", 3, 6), ("gps", "c", 2, 2), ("general", "q", 3, 5),
]


class FieldSpec:
    """A totally real field with known rational square classes."""

    def __init__(self, desc, embedding: int, rational_classes):
        self.desc = list(desc)
        self.degree = len(desc) - 1
        self.roots = oracle.real_roots(desc)
        self.embedding = embedding
        # Square-free rationals that are squares in K.
        self.rational_classes = set(rational_classes)

    @property
    def header(self) -> str:
        line = "field " + " ".join(str(c) for c in self.desc) + "\n"
        return line + f"embedding {self.embedding}\n"

    @property
    def root(self) -> float:
        return self.roots[self.embedding]

    def values(self, coords) -> list[float]:
        return [oracle.evaluate(coords, r) for r in self.roots]

    def nonsquare_classes(self) -> list[int]:
        """1 and primes whose pairwise ratios stay nonsquares in K."""
        bad = {p for d in self.rational_classes for p in SMALL_PRIMES if d % p == 0}
        return [1] + [p for p in (2, 3, 5, 7, 11, 13) if p not in bad][:3]


def _field(rng: random.Random, kind: str) -> FieldSpec:
    if kind == "q":
        d = rng.choice(QUADRATIC_D)
        return FieldSpec([1, 0, -d], rng.choice([0, 1]), {1, d})
    if kind == "c":
        return FieldSpec(CUBIC, rng.randrange(3), {1})
    return FieldSpec(QUARTIC, rng.randrange(4), {1, 2, 5, 10})


def _coords_token(coords) -> str:
    return "[" + ",".join(_fmt(c) for c in coords) + "]"


def _expr_token(coords) -> str:
    out = ""
    for k, c in enumerate(coords):
        c = Fraction(c)
        if c == 0:
            continue
        term = _fmt(abs(c)) + ("" if k == 0 else ("*t" if k == 1 else f"*t^{k}"))
        out += ("-" if c < 0 else ("+" if out else "")) + term
    return out or "0"


def _mul(K: FieldSpec, a, b):
    """Exact product in Q[t]/(f) for coordinate lists (f monic)."""
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += Fraction(x) * Fraction(y)
    f = [Fraction(c) for c in reversed(K.desc)]  # ascending, monic
    d = K.degree
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c:
            for m in range(d + 1):
                prod[k - d + m] -= c * f[m]
    prod = (prod + [Fraction(0)] * d)[:d]
    return prod


class FieldGluings(Stream):
    name = "field-gluings"
    prefix = "g"
    schedule = FIELD_SCHEDULE
    # A quartic field, so the warm-up also pays the lazy sympy import.
    warmup_file = f"{WORK_DIR}/field-gluings/warmup.cpx"
    warmup = ["hybrid", "verify", warmup_file]

    def __init__(self, seed: int):
        super().__init__(seed)
        self.shared_files[self.warmup_file] = (
            "field 1 0 -14 0 9\nembedding 0\npattern gps\nshared diag [1] [1] [1,1]\n"
            "block N1 alpha 1\nblock N2 alpha 3\nglue N1 N2\n"
        )

    def _element(self, K: FieldSpec, signs, small: bool = False):
        """Random small coordinates whose signs at the real roots match
        ``signs`` (None = any nonzero), with a margin against zero."""
        rng = self.rng
        span = 1 if small else 2
        while True:
            coords = [rng.randint(-span, span) for _ in range(K.degree)]
            if small and rng.random() < 0.5:
                coords[0] = rng.randint(1, 3)
            vals = K.values(coords)
            if any(abs(v) < 0.05 for v in vals):
                continue
            if signs is None or all((v > 0) == (s > 0) for v, s in zip(vals, signs)):
                return coords

    def _shared(self, K: FieldSpec, m: int):
        """m diagonal entries: signature (m-1, 1) at the chosen root,
        positive definite at the others."""
        positive = [1] * K.degree
        negative = [(-1 if j == K.embedding else 1) for j in range(K.degree)]
        entries = [self._element(K, positive) for _ in range(m - 1)]
        entries.insert(self.rng.randrange(m), self._element(K, negative))
        return entries

    def _alpha(self, K: FieldSpec, c: int):
        s = self._element(K, None, small=True)
        return _mul(K, [c], _mul(K, s, s))

    def _complex(self, i: int, pattern: str, K: FieldSpec, m: int, k: int) -> Case:
        rng = self.rng
        shared = self._shared(K, m)
        if pattern == "gps":
            gluings = [(0, 1)]
        elif pattern == "cycle":
            gluings = [(a, (a + 1) % k) for a in range(k)]
        else:  # a random tree plus one more gluing
            gluings = [(rng.randrange(b), b) for b in range(1, k)]
            gluings.append(rng.choice([(a, b) for a in range(k) for b in range(a + 1, k)
                                       if (a, b) not in gluings]))
        # Square classes of the block scalars: alternating in even blocks of
        # the schedule, all equal but the last in odd ones.  A square ratio
        # costs a witness search and a nonsquare one a discriminant test, so
        # a fixed pattern keeps each slot's cost steady across seeds.
        classes = K.nonsquare_classes()
        same = rng.choice(classes)
        other = [rng.choice([c for c in classes if c != same]) for _ in range(k)]
        if (i // len(FIELD_SCHEDULE)) % 2 == 0:
            cls = [same if b % 2 == 0 else other[b] for b in range(k)]
        else:
            cls = [same] * (k - 1) + [other[-1]]
        alphas = [self._alpha(K, c) for c in cls]
        even = (m + 1) % 2 == 0
        pairs = []
        for a, b in gluings:
            square = cls[a] == cls[b]
            similar = "Similar" if square else ("NotSimilar" if even else None)
            ratio = oracle.evaluate(alphas[b], K.root) / oracle.evaluate(alphas[a], K.root)
            pairs.append({"blocks": [f"B{a}", f"B{b}"], "square": square,
                          "similar": similar, "ratio": ratio})
        text = K.header + f"pattern {pattern}\nshared diag " + " ".join(
            _coords_token(e) for e in shared) + "\n"
        text += "".join(f"block B{b} alpha {_coords_token(alphas[b])}\n" for b in range(k))
        text += "".join(f"glue B{a} B{b}\n" for a, b in gluings)
        path = self.path(i, "cpx")
        return Case(f"g{i:05d}", "hybrid-verify", ["hybrid", "verify", path], {path: text},
                    {"pattern": pattern, "pairs": pairs, "K": K})

    def _form_file(self, K: FieldSpec, entries) -> str:
        return K.header + "diag " + " ".join(_expr_token(e) for e in entries) + "\n"

    def _angle(self, i: int, K: FieldSpec) -> Case:
        rng = self.rng
        n = rng.choice([3, 4])
        entries = self._shared(K, n)
        rows = [[entries[r] if r == c else [0] for c in range(n)] for r in range(n)]
        G = oracle.gram_at(rows, K.root)
        while True:
            e = [self._element(K, None, small=True) if rng.random() < 0.7 else [0]
                 for _ in range(n)]
            Z = [[self._element(K, None, small=True) if rng.random() < 0.6 else [0]
                  for _ in range(n)] for _ in range(rng.choice([1, 2]))]
            ev = [oracle.evaluate(c, K.root) for c in e]
            Zm = [[oracle.evaluate(c, K.root) for c in z] for z in Z]
            qe = sum(G[r][r] * ev[r] ** 2 for r in range(n))
            gram_z = [[sum(G[r][r] * za[r] * zb[r] for r in range(n)) for zb in Zm] for za in Zm]
            det = gram_z[0][0] if len(Z) == 1 else (
                gram_z[0][0] * gram_z[1][1] - gram_z[0][1] ** 2)
            if abs(qe) > 0.05 and abs(det) > 0.05:
                break
        path = self.path(i, "form")
        argv = ["hybrid", "angle", path,
                "--e=" + ",".join(_expr_token(c) for c in e),
                "--z=" + ";".join(",".join(_expr_token(c) for c in z) for z in Z)]
        value = oracle.angle_value(rows, K.root, e, Z)
        return Case(f"g{i:05d}", "angle", argv, {path: self._form_file(K, entries)},
                    {"value": value, "dim": len(Z), "K": K})

    def _commensurable(self, i: int, K: FieldSpec) -> Case:
        rng = self.rng
        n = 4
        q1 = self._shared(K, n)
        mu = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        disc = (i // len(FIELD_SCHEDULE)) % 2 == 1  # scaled and obstructed pairs alternate
        twisted = [list(e) for e in q1]
        if disc:
            pos = rng.choice([k for k in range(n) if all(v > 0 for v in K.values(q1[k]))])
            twisted[pos] = _mul(K, [K.nonsquare_classes()[1]], twisted[pos])
        perm = list(range(n))
        rng.shuffle(perm)
        q2 = []
        for k in perm:
            s = self._element(K, None, small=True)
            q2.append(_mul(K, [mu], _mul(K, twisted[k], _mul(K, s, s))))
        p1, p2 = self.path(i, "form"), f"{self.dir}/g{i:05d}b.form"
        files = {p1: self._form_file(K, q1), p2: self._form_file(K, q2)}
        status = "NotCommensurable" if disc else "Commensurable"
        return Case(f"g{i:05d}", "commensurable-k", ["form", "commensurable", p1, p2], files,
                    {"status": status, "K": K})

    def make(self, i: int) -> Case:
        what, fk, m, k = FIELD_SCHEDULE[i % len(FIELD_SCHEDULE)]
        while True:
            K = _field(self.rng, fk)
            if what == "angle":
                case = self._angle(i, K)
            elif what == "commensurable":
                case = self._commensurable(i, K)
            else:
                case = self._complex(i, what, K, m, k)
            if self.fresh(" ".join(case.argv[3:]) + "".join(case.files.values())):
                return case

    @staticmethod
    def check(case: Case, report: dict) -> list[str]:
        e = case.expect
        K: FieldSpec = e["K"]
        bad = []
        if case.kind == "angle":
            got = oracle.evaluate(oracle.parse_rendered(report["value"]), K.root)
            if abs(got - e["value"]) > 1e-6 * max(1.0, abs(e["value"])):
                bad.append(f"angle value {got} != {e['value']}")
            if report["subspace_dim"] != e["dim"]:
                bad.append(f"subspace_dim {report['subspace_dim']} != {e['dim']}")
            return bad
        if case.kind == "commensurable-k":
            v = report["verdict"]
            # Over a general field the similarity test may stay undecided.
            if v["status"] not in (e["status"], "Unknown"):
                bad.append(f"status {v['status']} != {e['status']}")
            if v["status"] == "Commensurable":
                lam = oracle.parse_rendered(v["lambda"])
                if any(x <= 0 for x in K.values(lam)):
                    bad.append(f"lambda {v['lambda']} is not totally positive")
            return bad
        if report["pattern"] != e["pattern"]:
            bad.append(f"pattern {report['pattern']} != {e['pattern']}")
        if len(report["pairs"]) != len(e["pairs"]):
            return bad + ["pair count differs"]
        statuses = []
        for want, have in zip(e["pairs"], report["pairs"]):
            tag = "~".join(want["blocks"])
            status = have["similarity"]["status"]
            statuses.append(status)
            if have["blocks"] != want["blocks"]:
                bad.append(f"{tag}: blocks {have['blocks']}")
            if have["ratio_square"] != want["square"]:
                bad.append(f"{tag}: ratio_square {have['ratio_square']} != {want['square']}")
            if have["forced_orthogonal"] == want["square"]:
                bad.append(f"{tag}: forced_orthogonal must be the negation of ratio_square")
            ratio = oracle.evaluate(oracle.parse_rendered(have["ratio"]), K.root)
            if abs(ratio - want["ratio"]) > 1e-9 * max(1.0, abs(want["ratio"])):
                bad.append(f"{tag}: ratio {ratio} != {want['ratio']}")
            if want["similar"] is not None and status not in (want["similar"], "Unknown"):
                bad.append(f"{tag}: similarity {status} != {want['similar']}")
        if "NotSimilar" in statuses:
            verdict = "HypothesesMet"
        elif "Unknown" in statuses:
            verdict = "HypothesesUnknown"
        else:
            verdict = "HypothesesNotMet"
        if report["verdict"] != verdict:
            bad.append(f"verdict {report['verdict']} != {verdict}")
        return bad


WORKLOADS = {cls.name: cls for cls in (CoxeterCatalog, RationalForms, FieldGluings)}
