"""Per-layer tracing of hyplat from outside the package.

``Tracer.install`` wraps named hyplat functions and methods and patches
every binding of each one, including names copied into other modules by
``from ... import``, so a call reaches the wrapper whichever name it uses.
``Tracer.uninstall`` restores the original objects.  Nothing is patched
unless a tracer is installed.

Each wrapped call pushes a frame; its self time is its duration minus the
time of the wrapped calls it made.  Calls marked hot (field arithmetic and
interval refinement, which run hundreds of thousands of times) keep only a
counter and accumulated times.  The others also record a span
``(name, start, end, parent span, input id)`` kept in memory until
``write_spans``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "algebra", "linalg", "quadform", "hybrid", "coxeter", "linkfields")

NF = "hyplat.algebra.numberfield"
MQ = "hyplat.algebra.multiquadratic"
QE = "hyplat.algebra.quadratic_ext"

# (module, attribute path, span name, hot).  Besides the functions that the
# per-layer metrics name, each layer's entry points and the field arithmetic
# are wrapped, so that self time lands in the layer that does the work rather
# than in its caller.
TARGETS = [
    ("hyplat.cli", "main", "cli.main", False),
    (NF, "FieldElement.__mul__", "algebra.mul", True),
    (NF, "FieldElement.__add__", "algebra.add", True),
    (NF, "FieldElement.__sub__", "algebra.sub", True),
    (NF, "FieldElement.__neg__", "algebra.neg", True),
    (NF, "FieldElement.__truediv__", "algebra.div", True),
    (NF, "FieldElement.__eq__", "algebra.element_eq", True),
    (NF, "FieldElement.inverse", "algebra.inverse", True),
    (NF, "NumberField.__eq__", "algebra.field_eq", True),
    (NF, "NumberField._refine", "algebra.refine", True),
    (NF, "NumberField.__init__", "algebra.field_init", False),
    (NF, "sign_at_embedding", "algebra.sign", True),
    (NF, "approx_at_embedding", "algebra.approx", True),
    (NF, "is_algebraic_integer", "algebra.integral", False),
    (NF, "is_square", "algebra.is_square", False),
    (MQ, "MultiquadraticField.galois_action", "algebra.galois", True),
    (MQ, "multiquadratic_field", "algebra.multiquadratic_field", False),
    (QE, "QuadraticExt.__init__", "algebra.ext_init", False),
    (QE, "QuadExtElement.__mul__", "algebra.ext_mul", True),
    ("hyplat.linalg", "symmetric_diagonalize", "linalg.diagonalize", False),
    ("hyplat.linalg", "signature_at", "linalg.signature", False),
    ("hyplat.linalg", "Matrix.rref", "linalg.rref", False),
    ("hyplat.linalg", "Matrix.det", "linalg.det", False),
    ("hyplat.linalg", "Matrix.inverse", "linalg.inverse", False),
    ("hyplat.linalg", "Matrix.solve", "linalg.solve", False),
    ("hyplat.linalg", "Matrix.__matmul__", "linalg.matmul", False),
    ("hyplat.linalg", "project_q", "linalg.project", False),
    ("hyplat.linalg", "complement_q", "linalg.complement", False),
    ("hyplat.linalg", "Subspace.__init__", "linalg.subspace", False),
    ("hyplat.quadform", "parse_form", "quadform.parse_form", False),
    ("hyplat.quadform", "is_admissible", "quadform.admissible", False),
    ("hyplat.quadform", "commensurable", "quadform.commensurable", False),
    ("hyplat.quadform", "similar", "quadform.similar", False),
    ("hyplat.quadform", "isometric_over_Q", "quadform.isometric", False),
    ("hyplat.quadform", "hasse_invariant", "quadform.hasse", False),
    ("hyplat.quadform", "relevant_primes", "quadform.relevant_primes", False),
    ("hyplat.quadform", "hilbert_symbol", "quadform.hilbert", True),
    ("hyplat.quadform", "factorize", "quadform.factorize", True),
    ("hyplat.quadform", "squarefree_part", "quadform.squarefree_part", True),
    ("hyplat.hybrid", "parse_complex", "hybrid.parse_complex", False),
    ("hyplat.hybrid", "validate_complex", "hybrid.validate", False),
    ("hyplat.hybrid", "finiteness_verdict", "hybrid.finiteness", False),
    ("hyplat.hybrid", "angle_with_hypersurface", "hybrid.angle", False),
    ("hyplat.hybrid", "BuildingBlock.__init__", "hybrid.block", False),
    ("hyplat.hybrid", "GlueMap.__init__", "hybrid.glue_map", False),
    ("hyplat.coxeter", "parse_diagram", "coxeter.parse", False),
    ("hyplat.coxeter", "gram_matrix", "coxeter.gram", False),
    ("hyplat.coxeter", "classify", "coxeter.classify", False),
    ("hyplat.coxeter", "vinberg_arithmeticity", "coxeter.arithmeticity", False),
    ("hyplat.coxeter", "unsplittable_check", "coxeter.splittability", False),
    ("hyplat.coxeter", "special_subgroups", "coxeter.special_subgroups", False),
    ("hyplat.linkfields", "load_link_table", "linkfields.load_table", False),
    ("hyplat.linkfields", "parse_composition_script", "linkfields.parse_script", False),
    ("hyplat.linkfields", "compose_inline", "linkfields.compose_inline", False),
    ("hyplat.linkfields", "belted_sum", "linkfields.belted_sum", False),
    ("hyplat.linkfields", "incommensurability_verdict", "linkfields.verdict", False),
    ("hyplat.linkfields", "field_report", "linkfields.field_report", False),
]


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list = []
        self.input_id = ""
        self._stack: list[list] = []
        self._in_similar = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "hyplat" or name.startswith("hyplat.")) and m is not None]
        for module, path, name, hot in TARGETS:
            owner, original = _resolve(module, path)
            wrapper = self._wrap(original, name, hot)
            if isinstance(owner, type):
                # Patch every alias in the class, e.g. __rmul__ = __mul__.
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, attr, wrapper)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, hot: bool):
        layer = name.split(".", 1)[0]
        stack, calls, total = self._stack, self.calls, self.total
        layer_self, spans = self.layer_self, self.spans
        clock = time.perf_counter
        similar = name == "quadform.similar"
        in_similar_counter = {"algebra.is_square": "is_square_in_similar",
                              "quadform.isometric": "isometric_in_similar"}.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if in_similar_counter and tracer._in_similar:
                tracer.counts[in_similar_counter] += 1
            if similar:
                tracer._in_similar += 1
            span_id = -1
            if not hot:
                span_id = len(spans)
                spans.append(None)
            frame = [0.0, span_id, layer]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[2] != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                if similar:
                    tracer._in_similar -= 1
                dt = t1 - t0
                calls[name] += 1
                total[name] += dt
                layer_self[layer] += dt - frame[0]
                if parent is not None:
                    parent[0] += dt
                if not hot:
                    spans[span_id] = (name, t0, t1, parent[1] if parent else -1,
                                      tracer.input_id)
            if name == "algebra.is_square" and result is not None:
                tracer.counts["is_square_found"] += 1
            elif name == "coxeter.special_subgroups":
                tracer.counts["subgroups_enumerated"] += len(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- results -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")

    def metrics(self, verdicts: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``."""
        c, t = self.calls, self.total
        n = max(verdicts, 1)

        def per_call(key, scale):
            return t[key] * scale / c[key] if c[key] else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms_per_verdict"] = (self.layer_self[layer] * 1e3 / n, "ms")
        mul_calls = c["algebra.mul"]
        out.update({
            "algebra.mul.calls": (mul_calls, "count"),
            "algebra.mul.us_per_call": (per_call("algebra.mul", 1e6), "us"),
            "algebra.inverse.calls": (c["algebra.inverse"], "count"),
            "algebra.inverse.us_per_call": (per_call("algebra.inverse", 1e6), "us"),
            "algebra.field_eq.calls": (c["algebra.field_eq"], "count"),
            "algebra.galois.calls": (c["algebra.galois"], "count"),
            "algebra.galois.us_per_call": (per_call("algebra.galois", 1e6), "us"),
            "algebra.integral.calls": (c["algebra.integral"], "count"),
            "algebra.integral.ms_per_call": (per_call("algebra.integral", 1e3), "ms"),
            "algebra.sign.calls": (c["algebra.sign"], "count"),
            "algebra.sign.us_per_call": (per_call("algebra.sign", 1e6), "us"),
            "algebra.refine.calls": (c["algebra.refine"], "count"),
            "algebra.is_square.calls": (c["algebra.is_square"], "count"),
            "algebra.is_square.ms_per_call": (per_call("algebra.is_square", 1e3), "ms"),
            "algebra.is_square.found_ratio": (
                ratio(self.counts["is_square_found"], c["algebra.is_square"]), "ratio"),
            "algebra.field_init.calls": (c["algebra.field_init"], "count"),
            "algebra.field_init.ms_per_call": (per_call("algebra.field_init", 1e3), "ms"),
            "algebra.multiquadratic_field.us_per_call": (
                per_call("algebra.multiquadratic_field", 1e6), "us"),
            "linalg.diagonalize.calls": (c["linalg.diagonalize"], "count"),
            "linalg.diagonalize.ms_per_call": (per_call("linalg.diagonalize", 1e3), "ms"),
            "linalg.signature.calls": (c["linalg.signature"], "count"),
            "linalg.diagonalize_per_signature": (
                ratio(c["linalg.diagonalize"], c["linalg.signature"]), "ratio"),
            "linalg.rref.calls": (c["linalg.rref"], "count"),
            "linalg.rref.us_per_call": (per_call("linalg.rref", 1e6), "us"),
            "linalg.det.calls": (c["linalg.det"], "count"),
            "linalg.project.calls": (c["linalg.project"], "count"),
            "quadform.admissible.calls": (c["quadform.admissible"], "count"),
            "quadform.similar.calls": (c["quadform.similar"], "count"),
            "quadform.similar.ms_per_call": (per_call("quadform.similar", 1e3), "ms"),
            "quadform.isometry_tests_per_similar": (
                ratio(self.counts["isometric_in_similar"], c["quadform.similar"]), "ratio"),
            "quadform.is_square_per_similar": (
                ratio(self.counts["is_square_in_similar"], c["quadform.similar"]), "ratio"),
            "quadform.hilbert.calls": (c["quadform.hilbert"], "count"),
            "quadform.factorize.calls": (c["quadform.factorize"], "count"),
            "quadform.factorize.us_per_call": (per_call("quadform.factorize", 1e6), "us"),
            "hybrid.parse_complex.ms_per_call": (per_call("hybrid.parse_complex", 1e3), "ms"),
            "hybrid.finiteness.ms_per_call": (per_call("hybrid.finiteness", 1e3), "ms"),
            "hybrid.angle.ms_per_call": (per_call("hybrid.angle", 1e3), "ms"),
            "hybrid.glue_map.calls": (c["hybrid.glue_map"], "count"),
            "coxeter.classify.calls": (c["coxeter.classify"], "count"),
            "coxeter.classify.ms_per_call": (per_call("coxeter.classify", 1e3), "ms"),
            "coxeter.arithmeticity.ms_per_call": (per_call("coxeter.arithmeticity", 1e3), "ms"),
            "coxeter.splittability.ms_per_call": (per_call("coxeter.splittability", 1e3), "ms"),
            "coxeter.subgroups_enumerated": (self.counts["subgroups_enumerated"], "count"),
            "linkfields.belted_sum.calls": (c["linkfields.belted_sum"], "count"),
        })
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out
