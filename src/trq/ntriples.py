"""The reader of every text input, and the N-Triples parser.

Each non-blank, non-comment line holds one statement:

    <subject> <predicate> <object> .

Subjects are absolute IRIs or ``_:label`` blank nodes, predicates are
absolute IRIs, objects may additionally be literals ``"value"`` with an
optional ``@lang`` tag or ``^^<datatype>`` suffix. A ``#`` comment may
follow the closing dot. Escapes inside IRIs are restricted to \\u/\\U;
literals accept the usual ECHAR set as well. A \\u or \\U escape takes
exactly 4 or 8 hex digits; a raw CR or LF in a literal is an error.
Every pattern here is built from the term rules of :mod:`trq.terms`,
and ``trq.sparql`` reads each query constant with :func:`parse_term`
and checks a prefixed name's expansion with :func:`iri_term`.

Two readers share this grammar. :data:`TRIPLE_LINE` is one compiled
pattern for the common line: absolute IRIs without escapes or forbidden
characters, ``_:label`` blank nodes and literals without backslashes,
each term given back as its raw token. A document loader tries it first
and hands every line it does not match (comments, blank lines, escapes,
malformed input) to :func:`parse_line`, the full parser, which builds
the terms and raises the line-numbered :class:`NTriplesError`. A line
the pattern matches is one :func:`parse_line` accepts, and
:func:`token_term` turns each raw token into the term :func:`parse_line`
gives for it.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

from .terms import BLANK_LABEL, IRI_CHAR, IRI_SCHEME, LANG_TAG, LITERAL_CHAR, Term, TermKind, unescape_string

_BLANK_LABEL = re.compile(rf"_:({BLANK_LABEL})")
_LANG_TAG = re.compile(rf"@({LANG_TAG})")
_WS = re.compile(r"[ \t]*")
# What an IRI may hold once its escapes are resolved.
_IRI_BODY = re.compile(rf"{IRI_CHAR}*")
# A backslash that does not start a \u or \U escape, the only ones IRIs admit.
_IRI_ECHAR = re.compile(r"\\(?![uU])(.?)")
# A literal's opening quote and what follows it up to the closing quote:
# LITERAL_CHARs and backslash pairs, which unescape_string reads.
_LITERAL_BODY = re.compile(rf'"(?:{LITERAL_CHAR}|\\[^\n\r])*')

# The common line, whose three groups are the raw subject, predicate and
# object tokens. IRIs are absolute and hold no escape (so no backslash)
# and only IRI characters; literals hold no backslash.
_IRI = rf"<{IRI_SCHEME}{IRI_CHAR}*>"
_BLANK = rf"_:{BLANK_LABEL}"
_LITERAL = rf'"{LITERAL_CHAR}*"(?:@{LANG_TAG}|\^\^{_IRI})?'
TRIPLE_LINE = re.compile(
    rf"[ \t]*({_IRI}|{_BLANK})[ \t]*({_IRI})[ \t]*({_IRI}|{_BLANK}|{_LITERAL})"
    r"[ \t]*\.[ \t]*(?:#.*)?\r*"
)


def token_term(token: str) -> Term:
    """The term of a raw token that :data:`TRIPLE_LINE` matched."""
    if token[0] == "<":  # the pattern has checked the IRI: its body is the term
        return Term(TermKind.IRI, token[1:-1])
    return parse_term(token)


class NTriplesError(ValueError):
    """A fault on one line of a text input (N-Triples or another line
    format), carrying the one-based line number and offending text."""

    def __init__(self, message: str, lineno: int, line: str):
        super().__init__(f"line {lineno}: {message}")
        self.reason = message
        self.lineno = lineno
        self.line = line


def _skip_ws(line: str, i: int) -> int:
    return _WS.match(line, i).end()


def iri_term(value: str, written: str = "") -> Term:
    """The IRI term of ``value``, an IRI with its escapes resolved, or a
    ValueError naming it as ``written`` (by default, its repr)."""
    if not _IRI_BODY.fullmatch(value):
        raise ValueError(f"malformed IRI {written or repr(value)}")
    return Term.iri(value)


def _parse_iri(line: str, i: int) -> tuple[Term, int]:
    end = line.find(">", i + 1)
    if end < 0:
        raise ValueError("unterminated IRI")
    raw = line[i + 1 : end]
    echar = _IRI_ECHAR.search(raw)
    if echar:
        raise ValueError(f"escape \\{echar.group(1)} not allowed in IRI")
    return iri_term(unescape_string(raw), f"<{raw}>"), end + 1


def _parse_blank(line: str, i: int) -> tuple[Term, int]:
    m = _BLANK_LABEL.match(line, i)
    if not m:
        raise ValueError("malformed blank node label")
    return Term.blank(m.group(1)), m.end()


def _parse_literal(line: str, i: int) -> tuple[Term, int]:
    j = _LITERAL_BODY.match(line, i).end()
    if not line.startswith('"', j):
        # the match stops at the end of the line, at a raw line break, or
        # at a backslash before either
        raise ValueError("unterminated literal" if line[j:] in ("", "\\") else "raw line break in literal")
    value = unescape_string(line[i + 1 : j])
    j += 1
    if line.startswith("@", j):
        m = _LANG_TAG.match(line, j)
        if not m:
            raise ValueError("malformed language tag")
        return Term.literal(value, lang=m.group(1)), m.end()
    if line.startswith("^^", j):
        if not line.startswith("<", j + 2):
            raise ValueError("datatype must be an IRI")
        dt, j = _parse_iri(line, j + 2)
        return Term.literal(value, datatype=dt.lexical), j
    return Term.literal(value), j


def _parse_any(line: str, i: int, error: str, blank: str = "", literal: str = "") -> tuple[Term, int]:
    """The IRI, blank node or literal at ``line[i]``; anything else is a
    ValueError, ``error`` formatted with the rest of the line, and so is
    a blank node or literal when ``blank`` or ``literal`` names it."""
    if line.startswith("<", i):
        return _parse_iri(line, i)
    if line.startswith("_:", i):
        if blank:
            raise ValueError(blank)
        return _parse_blank(line, i)
    if line.startswith('"', i):
        if literal:
            raise ValueError(literal)
        return _parse_literal(line, i)
    raise ValueError(error.format(line[i:]))


def parse_term(text: str, lineno: int = 1) -> Term:
    """Parse a single N-Triples term from a string (a report field or a
    query constant)."""
    text = text.strip()
    try:
        if not text:
            raise ValueError("empty term")
        term, end = _parse_any(text, 0, "unrecognized term: {!r}")
        if text[end:].strip():
            raise ValueError(f"trailing characters after term: {text!r}")
    except ValueError as exc:
        raise NTriplesError(str(exc), lineno, text) from None
    return term


def parse_line(line: str, lineno: int) -> tuple[Term, Term, Term] | None:
    """Parse one raw line; returns None for blank and comment lines."""
    i = _skip_ws(line.rstrip("\r\n"), 0)
    line = line.rstrip("\r\n")
    if i >= len(line) or line[i] == "#":
        return None
    try:
        s, i = _parse_any(line, i, "expected IRI or blank node subject", literal="literal not allowed as subject")
        i = _skip_ws(line, i)
        p, i = _parse_any(
            line, i, "expected IRI predicate", "blank node not allowed as predicate", "literal not allowed as predicate"
        )
        i = _skip_ws(line, i)
        o, i = _parse_any(line, i, "expected IRI, blank node, or literal object")
        i = _skip_ws(line, i)
        if not line.startswith(".", i):
            raise ValueError("missing terminating dot")
        i = _skip_ws(line, i + 1)
        if i < len(line) and line[i] != "#":
            raise ValueError("trailing characters after dot")
    except ValueError as exc:
        raise NTriplesError(str(exc), lineno, line) from None
    return s, p, o


def split_lines(source: str | bytes | Path) -> tuple[list[str], dict[int, str]]:
    """The lines of any text input, split on ``\\n`` alone, and the
    lines that are not valid UTF-8 by line number.

    A path is read as bytes, so every kind of source splits the same
    way; any other type of source is a TypeError. Bytes that do not
    decode as a whole are decoded line by line; an undecodable line is
    ``""`` in the list and its text, decoded with replacement characters,
    is in the dict.
    """
    if isinstance(source, Path):
        source = source.read_bytes()
    elif not isinstance(source, (bytes, str)):
        raise TypeError(f"unsupported source type: {type(source).__name__}")
    if isinstance(source, str):
        return source.split("\n"), {}
    try:
        return source.decode("utf-8").split("\n"), {}
    except UnicodeDecodeError:
        pass
    # A UTF-8 multibyte sequence never holds the byte 0x0A, so splitting
    # the bytes gives the lines that splitting the text would.
    lines: list[str] = []
    invalid: dict[int, str] = {}
    for lineno, raw in enumerate(source.split(b"\n"), start=1):
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            lines.append("")
            invalid[lineno] = raw.decode("utf-8", "replace")
    return lines, invalid


@contextmanager
def text_input(path: str | Path) -> Iterator[bytes]:
    """The bytes of a file, or of stdin for the str ``-``; an
    :class:`NTriplesError` raised in the block becomes
    ``ValueError("{path}: line N: ...")``, stdin named ``<stdin>``."""
    stdin = path == "-"
    try:
        yield sys.stdin.buffer.read() if stdin else Path(path).read_bytes()
    except NTriplesError as exc:
        raise ValueError(f"{'<stdin>' if stdin else path}: {exc}") from None


def read_lines(path: str | Path, parse: Callable[[str, int], object] = lambda line, lineno: line) -> list:
    """``parse(line, lineno)`` of each line of a :func:`text_input` in
    order, None left out; a line that is not UTF-8 raises when reached."""
    with text_input(path) as data:
        lines, invalid = split_lines(data)
        out = []
        for lineno, line in enumerate(lines, start=1):
            if lineno in invalid:
                raise NTriplesError("invalid UTF-8", lineno, invalid[lineno])
            item = parse(line, lineno)
            if item is not None:
                out.append(item)
    return out
