"""Core RDF term and triple values shared across the package.

A term is an IRI, a literal, or a blank node. Literal identity is the full
canonical lexical form (quoted value plus optional datatype IRI or language
tag), so two literals are equal exactly when their canonical forms match;
no value-space normalization is attempted. Blank node labels are file
scoped: the loader replaces them with fresh internal labels, so terms can
be compared by value everywhere else.

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


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
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
_ABSOLUTE_IRI = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_BLANK_LABEL = re.compile(r"[A-Za-z0-9_]+")


def escape_string(value: str) -> str:
    """Escape a raw string for the canonical quoted literal form."""
    return "".join(_ESCAPES.get(ch, ch) for ch in value)


def unescape_string(raw: str) -> str:
    """Resolve backslash escapes (ECHAR plus \\uXXXX and \\UXXXXXXXX).

    Raises ValueError on a malformed escape sequence, or one that names a
    surrogate code point, which UTF-8 cannot encode.
    """
    if "\\" not in raw:
        return raw
    out: list[str] = []
    i = 0
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise ValueError("dangling backslash escape")
        e = raw[i + 1]
        if e in _UNESCAPES:
            out.append(_UNESCAPES[e])
            i += 2
        elif e in ("u", "U"):
            width = 4 if e == "u" else 8
            code = raw[i + 2 : i + 2 + width]
            if len(code) != width:
                raise ValueError(f"truncated \\{e} escape")
            try:
                point = int(code, 16)
                if 0xD800 <= point <= 0xDFFF:
                    raise ValueError("a surrogate is not a character")
                out.append(chr(point))
            except ValueError as exc:
                raise ValueError(f"bad \\{e} escape: {code!r}") from exc
            i += 2 + width
        else:
            raise ValueError(f"unknown escape \\{e}")
    return "".join(out)


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
