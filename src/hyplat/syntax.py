"""The input syntax shared by every file format and command-line vector.

Form files, complex files, diagram files, link tables and composition
scripts are read by :func:`read_text` and take their lines from
:func:`directive_lines` and their integer words from :func:`parse_int`;
form files, complex files and ``hybrid angle --e/--z`` take their field
entries from :func:`parse_entry`; form and complex files share
:class:`FieldHeader`.

**Comments.**  A ``#`` opens a comment that runs to the end of the line,
unless it starts a word and is followed by a digit.  Such a word (``#2``)
is a back-reference: composition scripts accept it, every other reader
rejects it like any other unexpected word.

**Entries** contain no spaces::

    entry    := coords | poly
    coords   := "[" rational ("," rational)* "]"    c0 + c1 t + c2 t^2 + ...
    poly     := [sign] term (sign term)*
    term     := factor ("*" factor)*
    factor   := number | "t" | "t^" digits      (at most 4 digits)
    rational := [sign] number
    number   := digits ["/" digits | "." digits]
    sign     := "+" | "-"

``t`` is the generator of the field (the class of x in Q[x]/(f)), so it is
an error over Q, and ``coords`` may list at most degree-many coordinates.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from hyplat.algebra.numberfield import QQ, FieldElement, NumberField, shared_field
from hyplat.errors import ParseError

__all__ = ["directive_lines", "parse_entry", "parse_int", "FieldHeader", "read_text"]

# int() refuses strings of more than 4300 digits.
_MAX_DIGITS = 4000
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")
# t^k takes log k squarings of ever larger coefficients, so k stays below 10^4.
_POWER = re.compile(r"t(?:\^([0-9]{1,4}))?")


def read_text(path: Path) -> str:
    """The UTF-8 text of an input file; other bytes are a ParseError that
    names the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} "
            f"at offset {exc.start})"
        ) from None


def directive_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, words)`` for every line that has a word left once
    its comment is removed; line numbers are 1-based."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        words = []
        for word in line.split():
            is_reference = word.startswith("#") and word[1:2].isdigit()
            cut = word.find("#", 1 if is_reference else 0)
            if cut < 0:
                words.append(word)
                continue
            if cut:
                words.append(word[:cut])
            break
        if words:
            yield lineno, words


def parse_int(word: str, what: str, lineno: int) -> int:
    """A signed decimal integer word; ``what`` names it in the error."""
    if not _INTEGER.fullmatch(word) or len(word) > _MAX_DIGITS:
        raise ParseError(f"{what} must be an integer, not {word!r}", lineno)
    return int(word)


def _rational(text: str, token: str, lineno: int | None) -> Fraction:
    if not _RATIONAL.fullmatch(text) or len(text) > _MAX_DIGITS:
        raise ParseError(f"bad entry {token!r}: cannot read {text!r}", lineno)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"bad entry {token!r}: zero denominator", lineno) from None


def parse_entry(token: str, field: NumberField, lineno: int | None) -> FieldElement:
    """One entry of the grammar above as an element of ``field``.

    ``lineno`` is the line an error names; None for command-line vectors.
    """
    if token.startswith("["):
        if not token.endswith("]"):
            raise ParseError(f"bad entry {token!r}: unterminated coordinates", lineno)
        coords = [_rational(c, token, lineno) for c in token[1:-1].split(",")]
        if len(coords) > field.degree:
            raise ParseError(
                f"bad entry {token!r}: {len(coords)} coordinates for a field "
                f"of degree {field.degree}",
                lineno,
            )
        return field.element(coords)
    terms = re.split(r"(?=[+-])", token)
    if terms[0] == "":
        terms = terms[1:]
    if not terms:
        raise ParseError(f"empty entry {token!r}", lineno)
    acc = field.zero
    for term in terms:
        coeff = Fraction(-1 if term[0] == "-" else 1)
        body = term[1:] if term[0] in "+-" else term
        if not body:
            raise ParseError(f"dangling sign in entry {token!r}", lineno)
        power = 0
        for factor in body.split("*"):
            match = _POWER.fullmatch(factor)
            if match is None:
                coeff *= _rational(factor, token, lineno)
                continue
            if field.degree == 1:
                raise ParseError(
                    f"entry {token!r} uses the generator t but the field is Q", lineno
                )
            power += int(match.group(1) or 1)
        if power < field.degree:  # coeff * t^power is a coordinate vector
            acc = acc + field.element([0] * power + [coeff])
        else:
            acc = acc + field.gen**power * field.from_fraction(coeff)
    return acc


class FieldHeader:
    """The ``field`` and ``embedding`` lines shared by form and complex files.

    ``field`` lists the descending integer coefficients of the monic defining
    polynomial; ``embedding`` indexes its ascending real roots, negative
    indices counting from the largest.  Without an ``embedding`` line a file
    uses index 0, the smallest root, while ``NumberField`` without an
    embedding takes the largest: the file default is the first index of the
    ``embedding`` line, the library default is the all-positive embedding
    that multiquadratic composita use.  Each decides signatures and verdicts
    for its existing inputs, so neither is changed; write ``embedding -1``
    for the largest root in a file.

    Both lines must come before the first entry that needs the field, and
    every problem, a bad polynomial included, is a ParseError.
    """

    def __init__(self):
        self.coeffs: list[int] | None = None
        self.embedding = 0
        self.lineno = 0
        self._field: NumberField | None = None

    def read(self, parts: list[str], lineno: int) -> None:
        """Take one ``field`` or ``embedding`` line, already split."""
        head = parts[0]
        if head == "field" and self.coeffs is not None:
            raise ParseError("duplicate 'field' line", lineno)
        if self._field is not None:
            raise ParseError(f"'{head}' must come before the form", lineno)
        if head == "field":
            self.coeffs = [parse_int(p, "field coefficient", lineno) for p in parts[1:]]
            if len(self.coeffs) < 2:
                raise ParseError("field needs at least two coefficients", lineno)
            self.lineno = lineno
        else:
            if len(parts) != 2:
                raise ParseError("expected 'embedding <index>'", lineno)
            self.embedding = parse_int(parts[1], "embedding index", lineno)

    def field(self) -> NumberField:
        """The declared field (one per field/embedding pair and process), else Q."""
        if self._field is None:
            if self.coeffs is None:
                self._field = QQ
            else:
                try:
                    self._field = shared_field(tuple(reversed(self.coeffs)), self.embedding)
                except ValueError as exc:
                    raise ParseError(str(exc), self.lineno) from None
        return self._field
