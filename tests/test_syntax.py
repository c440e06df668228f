"""The shared input syntax: comments, the entry grammar, and fuzzing of every
reader and of the command line built on them."""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyplat.algebra.numberfield import QQ, NumberField
from hyplat.cli import main
from hyplat.coxeter import parse_diagram
from hyplat.errors import HyplatError, ParseError
from hyplat.hybrid import parse_complex
from hyplat.linkfields import parse_composition_script, parse_link_table
from hyplat.quadform import parse_form
from hyplat.syntax import directive_lines, parse_entry

SQRT2 = NumberField([-2, 0, 1], embedding=0)


# ---------------------------------------------------------------------------
# Comments
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "line, words",
    [
        ("diag 1 -1  # trailing", ["diag", "1", "-1"]),
        ("   # indented comment", None),
        ("sum #1 #12 # refs", ["sum", "#1", "#12"]),
        ("sum x#c y", ["sum", "x"]),  # '#' inside a word opens a comment
        ("sum #c #1", ["sum"]),  # '#' not followed by a digit
        ("sum #2x#3 y", ["sum", "#2x"]),
        ("diag 1#2", ["diag", "1"]),
    ],
)
def test_comment_rule(line, words):
    got = list(directive_lines("\n" + line + "\n"))
    assert got == ([(2, words)] if words else [])


def test_reference_words_are_rejected_outside_scripts():
    with pytest.raises(ParseError, match="bad entry '#1'"):
        parse_form("diag 1 #1\n")
    with pytest.raises(ParseError):
        parse_diagram("vertices 2 #1\n")
    with pytest.raises(ParseError):
        parse_link_table("link a disc -1 belts 1 #1\n")


# ---------------------------------------------------------------------------
# One entry grammar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "token, field, expected",
    [
        ("-3/2", QQ, [-1.5]),
        ("1.5", QQ, [1.5]),
        ("[-3/2]", QQ, [-1.5]),
        ("1-1/2*t", SQRT2, [1, -0.5]),
        ("[1,-1/2]", SQRT2, [1, -0.5]),
        ("-1/2*t+1", SQRT2, [1, -0.5]),
        ("t^2", SQRT2, [2, 0]),
        ("2*t*t-t", SQRT2, [4, -1]),
        ("[0,1]", SQRT2, [0, 1]),
    ],
)
def test_entry_grammar(token, field, expected):
    assert parse_entry(token, field, 1) == field.element(expected)


@pytest.mark.parametrize(
    "token",
    ["", "+", "--1", "1e3", "1_0", "2t", "x", "1/0", "[1,,2]", "[]", "[1",
     "[1,2,3]", "t^12345", "٣", "#1"],
)
def test_entry_grammar_rejects(token):
    with pytest.raises(ParseError):
        parse_entry(token, SQRT2, 7)


def test_generator_is_an_error_over_q():
    with pytest.raises(ParseError, match="field is Q"):
        parse_entry("1+t", QQ, 1)


# A quadratic, a cubic and a quartic field.
POWER_FIELDS = [SQRT2, NumberField([1, -3, 0, 1]), NumberField([9, 0, -14, 0, 1])]


@st.composite
def _power_sums(draw):
    """(field, token, [(c, k)]): a sum of terms c*t^k with 0 <= k <= 2*degree,
    each spelt one of several ways."""
    K = draw(st.sampled_from(POWER_FIELDS))
    coeff = st.sampled_from([Fraction(1), Fraction(3), Fraction(1, 2), Fraction(5, 3)])
    terms = draw(st.lists(st.tuples(st.booleans(), coeff, st.integers(0, 2 * K.degree)),
                          min_size=1, max_size=5))
    token = ""
    for i, (negative, c, k) in enumerate(terms):
        power = "t" if k == 1 else f"t^{k}"
        spellings = [f"{c}*{power}", f"{power}*{c}"] if k else [str(c), f"{c}*t^0"]
        if c == 1 and k:
            spellings.append(power)
        sign = "-" if negative else draw(st.sampled_from(["+", ""])) if i == 0 else "+"
        token += sign + draw(st.sampled_from(spellings))
    return K, token, [(-c if negative else c, k) for negative, c, k in terms]


@given(_power_sums())
@settings(max_examples=150, deadline=None)
def test_powers_of_t_parse_to_sums_of_generator_powers(case):
    K, token, terms = case
    expected = sum((K.from_fraction(c) * K.gen**k for c, k in terms), K.zero)
    assert parse_entry(token, K, 1) == expected


# Where the token sits in each input, so that the block stays admissible:
# a negative rational in the timelike slot over Q, the others as alpha over
# Q(sqrt 2) at its negative embedding, where t < 0 < 1 - t/2.
SAME_ELEMENT = [
    ("field 1 0", "-3/2", "shared diag 1 1 {tok}\nblock A alpha 1", 3),
    ("field 1 0 -2", "1-1/2*t", "shared diag 1 1 t\nblock A alpha {tok}", 0),
    ("field 1 0 -2", "[1,-1/2]", "shared diag 1 1 t\nblock A alpha {tok}", 0),
    ("field 1 0 -2", "1+t", "shared diag 1 1 {tok}\nblock A alpha 1", 3),
]


@pytest.mark.parametrize("header, token, body, index", SAME_ELEMENT)
def test_one_token_one_element(tmp_path, capsys, header, token, body, index):
    from_form = parse_form(f"{header}\ndiag {token} 1\n").gram[0, 0]

    complex_text = f"{header}\npattern general\n{body.format(tok=token)}\n"
    ambient = parse_complex(complex_text).blocks["A"].ambient.gram
    assert ambient[index, index] == from_form

    # --e: with e = (1, x, 0) and Z spanned by (1, 0, 0) the angle value is
    # q(P_Z e)/q(e) = 1/(1 + x^2) for the form diag(1, 1, -1).
    form = tmp_path / "lorentz.form"
    form.write_text(f"{header}\ndiag 1 1 -1\n")
    code = main(["hybrid", "angle", str(form), "--e", f"1,{token},0", "--z", "1,0,0",
                 "--json", "-"])
    out = capsys.readouterr().out
    assert code == 0
    K = from_form.field
    report = json.loads(out[out.index("{"):])
    assert report["value"] == repr(K.one / (K.one + from_form * from_form))


# ---------------------------------------------------------------------------
# Fuzzing: every reader either parses or raises HyplatError
# ---------------------------------------------------------------------------

def _line(*parts):
    """A line of words, each given as a string or a strategy."""
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts)).map(
        " ".join
    )


ENTRY = st.sampled_from(
    ["0", "1", "-1", "2", "-3/2", "1/2", "t", "-t", "1-t", "t^2", "[1,-1/2]", "[0,1]"]
)
FIELD = st.sampled_from(["field 1 0", "field 1 0 -2", "field 1 0 -5", "field 1 -1 -1"])
LABEL = st.sampled_from(["A", "B", "C"])
REF = st.sampled_from(["whitehead", "chain3", "chain5", "#1", "#2", "#3"])


def _entries(lo, hi):
    return st.lists(ENTRY, min_size=lo, max_size=hi).map(" ".join)


# Well-formed lines of each format; _texts mixes them with junk lines and
# comments, so that inputs get past the first line as often as not.
LINES = {
    parse_form: [
        FIELD, _line("embedding", st.sampled_from("01")), _line("diag", _entries(1, 4)),
        _line("form", st.sampled_from("123")), _entries(1, 3),
    ],
    parse_complex: [
        FIELD, _line("pattern", st.sampled_from(["gps", "cycle", "gl", "general"])),
        _line("shared diag", _entries(2, 4)), _line("block", LABEL, "alpha", ENTRY),
        _line("block", LABEL, "alpha", ENTRY, "color", st.sampled_from("01")),
        _line("block", LABEL), _line("diag", _entries(2, 4)), _line("alpha", ENTRY),
        _line("glue", LABEL, LABEL),
        _line("glue", LABEL, LABEL, "label", st.sampled_from(["a", "a-", "b", "b-1"])),
    ],
    parse_diagram: [
        _line("vertices", st.sampled_from("1234")),
        _line("edge", st.sampled_from("01234"), st.sampled_from("1234"),
              st.sampled_from(["3", "4", "5", "6", "inf", "2", "7"])),
    ],
    parse_link_table: [
        _line("link", st.sampled_from(["a", "b", "whitehead"]), "disc",
              st.sampled_from(["-1", "-3", "-7", "5", "4"]), "belts",
              st.sampled_from("0123")),
    ],
    parse_composition_script: [
        _line("sum", REF, REF), _line("opaque", st.sampled_from("1234")),
        _line("opaque", st.sampled_from("1234"), "belts", st.sampled_from("012")),
    ],
}
# A well-formed start, so that a share of the inputs parses.
HEAD = {
    parse_form: FIELD.map(lambda f: f + "\ndiag 1 1 -1"),
    parse_complex: FIELD.map(lambda f: f + "\npattern general\nshared diag 1 1 -1"),
    parse_diagram: st.just("vertices 4\nedge 1 2 3\nedge 2 3 5"),
    parse_link_table: st.just("link a disc -1 belts 1"),
    parse_composition_script: st.just("sum whitehead chain3"),
}
JUNK = st.sampled_from(["#", "#1", "#c", "x#1", "[", "1/0", "é", "*", "+", "x", "sum"])


def _texts(parse):
    junk_line = st.lists(st.one_of(JUNK, ENTRY), min_size=1, max_size=4).map(" ".join)
    line = st.one_of(*LINES[parse], junk_line)
    comment = st.sampled_from(["", "", "", "", "", " # note", " #1", "#c"])
    lines = st.lists(st.tuples(line, comment).map("".join), max_size=6)
    head = st.one_of(st.just(""), HEAD[parse])
    return st.tuples(head, lines).map(lambda t: "\n".join([t[0], *t[1]]))


def _fuzz_parser(parse):
    @settings(max_examples=80, deadline=None)
    @given(text=_texts(parse))
    def check(text):
        try:
            parse(text)
        except HyplatError:
            pass

    return check


test_fuzz_parse_form = _fuzz_parser(parse_form)
test_fuzz_parse_complex = _fuzz_parser(parse_complex)
test_fuzz_parse_diagram = _fuzz_parser(parse_diagram)
test_fuzz_parse_link_table = _fuzz_parser(parse_link_table)
test_fuzz_parse_composition_script = _fuzz_parser(parse_composition_script)


# ---------------------------------------------------------------------------
# Fuzzing the command line: exit 0/1/2, one error line, the same bytes twice
# ---------------------------------------------------------------------------


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _no_options(texts):
    return texts.map(lambda text: ((text,), []))


def _vectors(size):
    vector = st.lists(ENTRY, min_size=size, max_size=size).map(",".join)
    return st.tuples(vector, st.lists(vector, min_size=1, max_size=2).map(";".join))


def _complex(parts):
    (field, negative), shared, alphas, gluings = parts
    blocks = [f"block {label} alpha {alpha}" for label, alpha in zip("ABC", alphas)]
    return "\n".join(
        [field, "pattern general", f"shared diag {shared} {negative}", *blocks, *gluings])


# Well-formed complexes (a shared form negative at the chosen place only,
# mostly positive block scalars) and angle inputs, so that a share of the
# fuzzed calls reaches a verdict rather than an input error.
POSITIVE = st.sampled_from(["1", "2", "3", "1/2", "3/2", "4", "t^2", "2*t^2", "3+2*t", "6+t"])
COMPLEX = st.tuples(
    st.sampled_from([("field 1 0", "-1"), ("field 1 0 -2", "t"), ("field 1 0 -5", "t"),
                     ("field 1 -1 -1", "t")]),
    st.lists(POSITIVE, min_size=1, max_size=2).map(" ".join),
    st.lists(POSITIVE, min_size=3, max_size=3),
    st.lists(st.sampled_from(["glue A B", "glue B C", "glue A C"]), min_size=1, max_size=3),
).map(_complex)
ANGLE = st.one_of(
    st.tuples(_texts(parse_form), st.integers(1, 4).flatmap(_vectors)),
    st.tuples(st.tuples(FIELD, _entries(3, 3)).map(lambda t: f"{t[0]}\ndiag {t[1]}"),
              _vectors(3)),
).map(lambda t: ((t[0],), ["--e=" + t[1][0], "--z=" + t[1][1]]))


@st.composite
def _form_pairs(draw):
    """Two diagonal forms over one field, negative at its chosen place only
    when the other entries are totally positive; the second is often a
    permutation of the first."""
    field, negative = draw(st.sampled_from(
        [("field 1 0", "-1"), ("field 1 0 -2", "t"), ("field 1 0 -5", "t"),
         ("field 1 -1 -1", "t"), ("field 1 0 -3 1", "t")]))
    left = draw(st.lists(POSITIVE, min_size=1, max_size=3))
    right = draw(st.one_of(st.permutations(left), st.lists(POSITIVE, min_size=1, max_size=3)))
    return tuple(f"{field}\ndiag {' '.join(entries)} {negative}" for entries in (left, right))


# (input file texts, options after them)
CLI_INPUTS = {
    "form check": _no_options(_texts(parse_form)),
    "form commensurable": st.one_of(
        _form_pairs(), st.tuples(_texts(parse_form), _texts(parse_form))
    ).map(lambda texts: (texts, [])),
    "coxeter analyze": _no_options(_texts(parse_diagram)),
    "links compose": _no_options(_texts(parse_composition_script)),
    "hybrid verify": _no_options(st.one_of(_texts(parse_complex), COMPLEX)),
    "hybrid angle": ANGLE,
}


@pytest.mark.parametrize("command", sorted(CLI_INPUTS))
def test_fuzz_cli(command, tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=CLI_INPUTS[command])
    def check(case):
        texts, options = case
        paths = [directory / f"input{i}.txt" for i in range(len(texts))]
        for path, text in zip(paths, texts):
            path.write_text(text, encoding="utf-8")
        argv = [*command.split(), *map(str, paths), *options, "--json", "-"]
        first = _run(argv)
        code, _, err = first
        assert code in (0, 1, 2)
        assert err.count("\n") == (1 if code == 2 else 0)
        assert _run(argv) == first

    check()
