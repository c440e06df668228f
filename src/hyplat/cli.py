"""The ``hyplat`` command-line front end.

Subcommands tie the library modules together:

- ``form check``            admissibility of quadratic forms
- ``form commensurable``    commensurability of two lattices
- ``hybrid verify``         block-complex validation and finiteness hypotheses
- ``hybrid angle``          exact angle of a line against a hypersurface space
- ``coxeter analyze``       classification, arithmeticity, splittability
- ``links compose``         belted sums and trace-field bookkeeping

Reports are deterministic: exact values rendered as rationals or
polynomials in the field generator, canonical JSON (sorted keys, input
digests, no timestamps), results in input order.  Exit codes: 0 on
success, 1 only with ``--strict`` on an analysis-level negative verdict, 2
on input errors (one ``error:`` line), 3 on an internal error (one
``internal error:`` line), never a traceback.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .algebra.numberfield import FieldElement, float_at_embedding
from .coxeter import (
    HYPERBOLIC,
    classify,
    parse_diagram,
    unsplittable_check,
    vinberg_arithmeticity,
)
from .errors import HyplatError, RankTooLarge
from .hybrid import (
    HYPOTHESES_MET,
    angle_with_hypersurface,
    finiteness_verdict,
    parse_complex,
)
from .linalg import Subspace
from .linkfields import (
    compose_inline,
    field_report,
    incommensurability_verdict,
    load_link_table,
    manifold_from_record,
    parse_composition_script,
)
from .quadform import COMMENSURABLE, commensurable, is_admissible, parse_form
from .resources import bundled_path
from .syntax import parse_entry, read_text

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Input loading and rendering
# ---------------------------------------------------------------------------


def _load_text(token: str) -> str:
    """Read ``token`` as a file, falling back to the bundled data dir."""
    p = Path(token)
    if p.is_file():
        return read_text(p)
    if not p.is_absolute():
        q = bundled_path(token)
        if q.is_file():
            return read_text(q)
    raise OSError(f"no such input file: {token}")


def _split_entries(spec: str) -> list[str]:
    """Comma-separated entries; commas inside ``[c0,c1,...]`` do not split."""
    return [e.strip() for e in re.split(r",(?![^\[]*\])", spec)]


def _load_form_text(token: str) -> str:
    """A form argument: inline ``diag(a,b,...)`` or a file path."""
    t = token.strip()
    if t.startswith("diag(") and t.endswith(")"):
        entries = _split_entries(t[len("diag(") : -1])
        if not all(re.fullmatch(r"[^\s#]+", e) for e in entries):
            raise HyplatError(f"bad inline form {token!r}")
        return "diag " + " ".join(entries) + "\n"
    return _load_text(token)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _render(value) -> str:
    """Exact rendering: rationals as a/b, elements as polynomials in t."""
    if isinstance(value, Fraction):
        return str(value)
    return repr(value)


def _approx(value) -> float:
    if isinstance(value, FieldElement):
        return float_at_embedding(value)
    return float(value)


def _maybe_approx(d: dict, key: str, value, want: bool) -> None:
    if want and value is not None:
        d[key + "_approx"] = f"{_approx(value):.15g}"


def _tree(x):
    """Composition trees (nested tuples) as JSON-friendly nested lists."""
    if isinstance(x, tuple):
        return [_tree(part) for part in x]
    return x


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (human lines, payload, negative?, inputs)
# ---------------------------------------------------------------------------


def _cmd_form_check(args):
    texts = [(token, _load_form_text(token)) for token in args.form]
    results = []
    for token, text in texts:
        rep = is_admissible(parse_form(text))
        results.append({
            "input": token,
            "admissible": rep.admissible,
            "signature": list(rep.signature_chosen),
            "reasons": rep.reasons,
        })
    lines = []
    for r in results:
        if r["admissible"]:
            lines.append(f"{r['input']}: admissible, signature {tuple(r['signature'])}")
        else:
            lines.append(f"{r['input']}: NOT admissible ({'; '.join(r['reasons'])})")
    negative = any(not r["admissible"] for r in results)
    inputs = {token: _sha256(text) for token, text in texts}
    return lines, {"results": results}, negative, inputs


def _cmd_form_commensurable(args):
    pairs = [(args.left, _load_form_text(args.left)), (args.right, _load_form_text(args.right))]
    s1 = parse_form(pairs[0][1])
    s2 = parse_form(pairs[1][1])
    verdict = commensurable(s1, s2)
    result = {
        "status": verdict.status,
        "reason": verdict.reason,
        "lambda": _render(verdict.lambda_witness)
        if verdict.lambda_witness is not None
        else None,
    }
    _maybe_approx(result, "lambda", verdict.lambda_witness, args.approx)
    if verdict.lambda_witness is not None:
        line = f"{verdict.status} (lambda = {result['lambda']}): {verdict.reason}"
    else:
        line = f"{verdict.status}: {verdict.reason}"
    negative = verdict.status != COMMENSURABLE
    inputs = {token: _sha256(text) for token, text in pairs}
    return [line], {"verdict": result}, negative, inputs


def _pair_payload(p, want_approx: bool) -> dict:
    d = {
        "blocks": [p.left, p.right],
        "similarity": {
            "status": p.similarity.status,
            "reason": p.similarity.reason,
            "lambda": _render(p.similarity.lambda_witness)
            if p.similarity.lambda_witness is not None
            else None,
        },
        "ratio": _render(p.ratio),
        "ratio_square": p.ratio_is_square,
        "forced_orthogonal": p.forced_orthogonal,
    }
    _maybe_approx(d, "ratio", p.ratio, want_approx)
    return d


def _cmd_hybrid_verify(args):
    text = _load_text(args.complex)
    cx = parse_complex(text)
    rep = finiteness_verdict(cx)
    payload = {
        "verdict": rep.verdict,
        "reason": rep.reason,
        "pattern": cx.pattern,
        "pairs": [_pair_payload(p, args.approx) for p in rep.pairs],
    }
    lines = [f"{args.complex}: {rep.verdict} — {rep.reason}"]
    for p in payload["pairs"]:
        sim = p["similarity"]
        lam = f", lambda {sim['lambda']}" if sim["lambda"] is not None else ""
        lines.append(
            f"  {p['blocks'][0]} ~ {p['blocks'][1]}: {sim['status']}{lam}; "
            f"ratio {p['ratio']} "
            f"({'square' if p['ratio_square'] else 'nonsquare'}; "
            f"{'orthogonal crossing forced' if p['forced_orthogonal'] else 'no orthogonality forced'})"
        )
    negative = rep.verdict != HYPOTHESES_MET
    return lines, payload, negative, {args.complex: _sha256(text)}


def _parse_vector(spec: str, field, dim: int):
    entries = _split_entries(spec)
    if len(entries) != dim:
        raise HyplatError(
            f"vector {spec!r} has {len(entries)} entries, the form has {dim}"
        )
    return [parse_entry(e, field, None) for e in entries]


def _cmd_hybrid_angle(args):
    text = _load_form_text(args.form)
    space = parse_form(text)
    K = space.field
    e = _parse_vector(args.e, K, space.dim)
    z_vectors = [
        _parse_vector(part, K, space.dim)
        for part in args.z.split(";")
        if part.strip()
    ]
    Z = Subspace(K, space.dim, z_vectors)
    value = angle_with_hypersurface(space, e, Z)
    payload = {"value": _render(value), "subspace_dim": Z.dim}
    _maybe_approx(payload, "value", value, args.approx)
    lines = [f"angle value (cos^2): {payload['value']}"]
    if args.approx:
        lines.append(f"  approx: {payload['value_approx']}")
    return lines, payload, False, {args.form: _sha256(text)}


def _coxeter_one(token_text, want_approx: bool) -> dict:
    token, text = token_text
    diagram = parse_diagram(text)
    c = classify(diagram)
    result: dict = {
        "input": token,
        "classification": c.kind,
        "signature": list(c.signature),
        "hyperbolic_dim": c.hyperbolic_dim,
        "volume_type": c.volume_type,
        "arithmeticity": None,
        "splittability": None,
    }
    if c.kind == HYPERBOLIC:
        rep = vinberg_arithmeticity(diagram)
        cycles = []
        for name, value in rep.cycle_values:
            entry = {"name": name, "value": _render(value)}
            _maybe_approx(entry, "value", value, want_approx)
            cycles.append(entry)
        result["arithmeticity"] = {
            "verdict": rep.verdict,
            "cycles": cycles,
            "field": {
                "square_class_generators": list(rep.field_square_generators),
                "degree": rep.field_degree,
                "totally_real": rep.totally_real,
            },
            "integral": rep.all_cycles_integral,
            "conjugates_semidefinite": rep.conjugates_semidefinite,
            "certificate": rep.certificate,
        }
        try:
            spl = unsplittable_check(diagram, c.hyperbolic_dim)
            result["splittability"] = {
                "status": spl.status,
                "reason": spl.reason,
                "candidates": [list(s.vertices) for s in spl.candidates],
            }
        except RankTooLarge as exc:
            result["splittability"] = {
                "status": "EnumerationSkipped",
                "reason": str(exc),
                "candidates": [],
            }
    return result


def _cmd_coxeter_analyze(args):
    texts = [(token, _load_text(token)) for token in args.diagram]
    results = [_coxeter_one(pair, args.approx) for pair in texts]
    lines = []
    for r in results:
        sig = tuple(r["signature"])
        head = f"{r['input']}: {r['classification']}"
        if r["hyperbolic_dim"] is not None:
            head += f" dim {r['hyperbolic_dim']}"
        head += f", signature {sig}"
        if r["volume_type"]:
            head += f", {r['volume_type']}"
        lines.append(head)
        if r["arithmeticity"]:
            a = r["arithmeticity"]
            gens = a["field"]["square_class_generators"]
            fieldname = (
                "Q" if not gens else "Q(" + ", ".join(f"sqrt {d}" for d in gens) + ")"
            )
            lines.append(
                f"  arithmeticity: {a['verdict']} "
                f"(adjacent field {fieldname}, degree {a['field']['degree']})"
            )
            if a["certificate"]:
                lines.append(f"    certificate: {a['certificate']}")
        if r["splittability"]:
            s = r["splittability"]
            lines.append(f"  splittability: {s['status']} ({s['reason']})")
            for cand in s["candidates"]:
                lines.append(f"    candidate subgroup on vertices {cand}")
    inputs = {token: _sha256(text) for token, text in texts}
    return lines, {"results": results}, False, inputs


def _cmd_links_compose(args):
    table = load_link_table(args.table)
    token = args.script
    p = Path(token)
    if p.is_file():
        source = read_text(p)
        final = parse_composition_script(source, table)[-1]
    else:
        source = token
        final = compose_inline(token, table)
    payload = field_report(final)
    payload["composition"] = _tree(final.composition)
    verdicts = {}
    for name in sorted(table):
        v = incommensurability_verdict(final, manifold_from_record(table[name]))
        verdicts[name] = {"status": v.status, "reason": v.reason, "detail": v.detail}
    payload["verdicts"] = verdicts
    f = payload["field"]
    gens = ", ".join(f"sqrt({d})" for d in f["generators"]) or "trivial"
    if "degree" in f:
        deg = f"degree {f['degree']}"
    else:
        lo, hi = f["degree_bounds"]
        deg = f"degree in [{lo}, {hi}]"
    lines = [
        f"field generators: {gens}",
        f"{deg}; remaining belts: {payload['belts']}",
    ]
    for name, v in sorted(verdicts.items()):
        lines.append(f"  vs {name}: {v['status']} ({v['detail']})")
    return lines, payload, False, {token: _sha256(source)}


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it
    unchanged).  Each subcommand records only its name; ``main`` looks up
    its ``_cmd_*`` handler by that name on every call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", metavar="PATH", help="write a canonical JSON report ('-' = stdout)"
    )
    common.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on an analysis-level negative verdict",
    )
    common.add_argument(
        "--approx",
        action="store_true",
        help="add 15-digit decimal renderings next to exact values",
    )

    parser = argparse.ArgumentParser(
        prog="hyplat",
        description="Exact computations for quadratic-form lattices, hybrid "
        "gluings, Coxeter diagrams, and belted sums.",
    )
    parser.add_argument("--version", action="version", version=f"hyplat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    form = sub.add_parser("form", help="quadratic-form checks")
    form_sub = form.add_subparsers(dest="subcommand", required=True)
    fc = form_sub.add_parser(
        "check", parents=[common], help="admissibility of forms"
    )
    fc.add_argument("form", nargs="+", help="form file or inline diag(a,b,...)")
    fc.set_defaults(command_name="form check")
    fk = form_sub.add_parser(
        "commensurable", parents=[common], help="commensurability of two lattices"
    )
    fk.add_argument("left")
    fk.add_argument("right")
    fk.set_defaults(command_name="form commensurable")

    hybrid = sub.add_parser("hybrid", help="block complexes")
    hybrid_sub = hybrid.add_subparsers(dest="subcommand", required=True)
    hv = hybrid_sub.add_parser(
        "verify", parents=[common], help="validate a complex and test hypotheses"
    )
    hv.add_argument("complex", help="complex file")
    hv.set_defaults(command_name="hybrid verify")
    ha = hybrid_sub.add_parser(
        "angle", parents=[common], help="angle of a line against a subspace"
    )
    ha.add_argument("form", help="form file or inline diag(a,b,...)")
    ha.add_argument("--e", required=True, help="line vector, comma-separated")
    ha.add_argument(
        "--z", required=True, help="subspace span: vectors separated by ';'"
    )
    ha.set_defaults(command_name="hybrid angle")

    coxeter = sub.add_parser("coxeter", help="Coxeter diagrams")
    coxeter_sub = coxeter.add_subparsers(dest="subcommand", required=True)
    ca = coxeter_sub.add_parser(
        "analyze",
        parents=[common],
        help="classification, arithmeticity, splittability",
    )
    ca.add_argument("diagram", nargs="+", help="diagram file(s)")
    ca.set_defaults(command_name="coxeter analyze")

    links = sub.add_parser("links", help="belted sums of links")
    links_sub = links.add_subparsers(dest="subcommand", required=True)
    lc = links_sub.add_parser(
        "compose", parents=[common], help="compose links and report the field"
    )
    lc.add_argument("script", help="composition script file or inline a+b+c")
    lc.add_argument("--table", help="alternative link table file")
    lc.set_defaults(command_name="links compose")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = globals()["_cmd_" + args.command_name.replace(" ", "_")]
    try:
        lines, payload, negative, inputs = handler(args)
        for line in lines:
            print(line)
        if args.json:
            report = {
                "command": args.command_name,
                "version": __version__,
                "inputs": inputs,
            }
            report.update(payload)
            blob = json.dumps(report, sort_keys=True, indent=2) + "\n"
            if args.json == "-":
                sys.stdout.write(blob)
            else:
                Path(args.json).write_text(blob)
    except (HyplatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input: one line and its own code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 1 if (negative and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
