"""Core RDF term and triple values shared across the package.

A term is an IRI, a literal, or a blank node. Literal identity is the full
canonical lexical form (quoted value plus optional datatype IRI or language
tag), so two literals are equal exactly when their canonical forms match;
no value-space normalization is attempted. Blank node labels are file
scoped: the loader replaces them with fresh internal labels, so terms can
be compared by value everywhere else.

Each lexical rule of a term is written here once, as a regex string
that :mod:`trq.ntriples`, the checks of :class:`Term` and the SPARQL
tokenizer compile their patterns from. As in W3C N-Triples 1.1, a \\u or
\\U escape takes exactly 4 or 8 hex digits and a literal holds no raw
CR or LF.

A :class:`Term` is an immutable named tuple ``(kind, lexical)``, so its
hashing and equality run in C, and a term equals the plain tuple
``(kind, lexical)`` of the same two values (with ``kind`` a
:class:`TermKind` member, or the int it stands for).
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

# Dense non-negative dictionary code for a term within one Graph.
TermId = int


class TermKind(enum.IntEnum):
    IRI = 0
    LITERAL = 1
    BLANK = 2


# The lexical rules of a term. An IRI starts with a scheme and then holds
# only IRI characters, once its escapes are resolved.
IRI_SCHEME = r"[A-Za-z][A-Za-z0-9+.\-]*:"
IRI_CHAR = r'[^\x00-\x20<>"{}|^`\\]'
BLANK_LABEL = r"[A-Za-z0-9_]+"
LANG_TAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
# A character between a literal's quotes that is not part of an escape:
# a raw quote, backslash or line break never is.
LITERAL_CHAR = r'[^"\\\n\r]'
# ECHAR, or UCHAR with exactly four or eight hex digits.
ESCAPE = r"""\\(?:[tbnrf"'\\]|u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})"""

_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})
_UNESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}
# An escape, or else a backslash that starts none.
_ESCAPE = re.compile(rf"{ESCAPE}|\\")
_ABSOLUTE_IRI = re.compile(IRI_SCHEME)
_BLANK_LABEL = re.compile(BLANK_LABEL)


def escape_string(value: str) -> str:
    """Escape a raw string for the canonical quoted literal form."""
    return value.translate(_ESCAPES)


def _resolve(m: re.Match[str]) -> str:
    """The character an :data:`ESCAPE` match stands for; a bare backslash
    match is a ValueError naming what follows it."""
    text = m.group()
    if len(text) == 2:
        return _UNESCAPES[text[1]]
    if len(text) > 2:
        point = int(text[2:], 16)
        if point < 0xD800 or 0xDFFF < point <= 0x10FFFF:
            return chr(point)
        raise ValueError(f"bad \\{text[1]} escape: {text[2:]!r}")
    rest = m.string[m.end() :]
    if not rest:
        raise ValueError("dangling backslash escape")
    e = rest[0]
    if e not in "uU":
        raise ValueError(f"unknown escape \\{e}")
    width = 4 if e == "u" else 8
    if len(rest) <= width:
        raise ValueError(f"truncated \\{e} escape")
    raise ValueError(f"bad \\{e} escape: {rest[1 : 1 + width]!r}")


def unescape_string(raw: str) -> str:
    """Resolve backslash escapes (ECHAR plus \\uXXXX and \\UXXXXXXXX).

    Raises ValueError on a malformed escape sequence, or one that names a
    surrogate, which UTF-8 cannot encode, or no code point at all.
    """
    return _ESCAPE.sub(_resolve, raw)


def is_absolute_iri(value: str) -> bool:
    """True when the string starts with a URI scheme (pragmatic check)."""
    return bool(_ABSOLUTE_IRI.match(value))


class Term(NamedTuple):
    """An RDF term; equality is (kind, lexical form)."""

    kind: TermKind
    lexical: str

    @staticmethod
    def iri(value: str) -> "Term":
        if not is_absolute_iri(value):
            raise ValueError(f"IRI must be absolute: {value!r}")
        return Term(TermKind.IRI, value)

    @staticmethod
    def literal(value: str, datatype: str | None = None, lang: str | None = None) -> "Term":
        """Build a literal from its raw value; the lexical form is canonicalized."""
        if datatype is not None and lang is not None:
            raise ValueError("a literal carries a datatype or a language tag, not both")
        lex = '"' + escape_string(value) + '"'
        if lang is not None:
            lex += "@" + lang.lower()
        elif datatype is not None:
            lex += "^^<" + datatype + ">"
        return Term(TermKind.LITERAL, lex)

    @staticmethod
    def blank(label: str) -> "Term":
        if not _BLANK_LABEL.fullmatch(label):
            raise ValueError(f"bad blank node label: {label!r}")
        return Term(TermKind.BLANK, label)

    @property
    def is_iri(self) -> bool:
        return self.kind is TermKind.IRI

    @property
    def is_literal(self) -> bool:
        return self.kind is TermKind.LITERAL

    def nt(self) -> str:
        """Render in N-Triples syntax."""
        if self.kind is TermKind.IRI:
            return f"<{self.lexical}>"
        if self.kind is TermKind.BLANK:
            return f"_:{self.lexical}"
        return self.lexical


RDF_TYPE = Term.iri(RDF_TYPE_IRI)


class Triple(NamedTuple):
    """A dictionary-encoded triple; field order gives SPO sort order."""

    s: TermId
    p: TermId
    o: TermId
