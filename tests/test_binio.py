"""The term-table reader and writer shared by the TRQG and TRQE formats."""

from __future__ import annotations

import io
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from trq.binio import read_terms, write_terms
from trq.embedding import EmbeddingFormatError, load_embeddings
from trq.store import SnapshotError, load_snapshot
from trq.terms import Term, TermKind


def _trqg(count: int, table: bytes) -> bytes:
    """A snapshot of ``count`` terms read from ``table`` and no triples."""
    return b"TRQG" + struct.pack("<HQQ", 1, count, 0) + table


def _trqe(count: int, table: bytes) -> bytes:
    """A transe file of dim 1 with ``count`` entity terms read from
    ``table``, no relations and no matrix bytes: each table below is at
    least 9 bytes per term long, so the header counts fit the file and the
    term table is read."""
    return b"TRQE" + struct.pack("<HBBIIdQQ", 1, 1, 1, 1, 1, 1.0, count, 0) + table


FORMATS = {
    "trqg": (_trqg, load_snapshot, SnapshotError),
    "trqe": (_trqe, load_embeddings, EmbeddingFormatError),
}


def _entry(kind: int, body: bytes, length: int | None = None) -> bytes:
    return struct.pack("<BI", kind, len(body) if length is None else length) + body


def _load(fmt: str, count: int, table: bytes, match: str):
    build, load, error = FORMATS[fmt]
    with pytest.raises(error, match=match):
        load(io.BytesIO(build(count, table)))


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("kind", [3, 255])
def test_unknown_term_kind_is_named(fmt, kind):
    _load(fmt, 1, _entry(kind, b"abcd"), f"unknown term kind {kind}$")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_truncated_term_header(fmt):
    # the second term's 5-byte header has only 3 bytes left
    _load(fmt, 2, _entry(0, b"http://example.org/a") + b"\x00\x01\x00", "truncated term table")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_truncated_term_body(fmt):
    _load(fmt, 1, _entry(0, b"http://example.org/a", length=100), "truncated term table")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_invalid_utf8_names_the_term(fmt):
    table = _entry(0, b"abcd") + _entry(1, b"\xff\xfe\xfd\xfc")
    _load(fmt, 2, table, r"^term 1 is not valid UTF-8$")


_TERMS = st.lists(st.builds(Term, st.sampled_from(TermKind), st.text(max_size=12)), max_size=20)


@settings(max_examples=200, deadline=None)
@given(_TERMS)
@example([])
@example([Term(TermKind.IRI, ""), Term(TermKind.LITERAL, '"\U0001F600"'), Term(TermKind.BLANK, "\U00010348")])
def test_term_table_round_trip(terms):
    buf = io.BytesIO()
    write_terms(buf, terms)
    data = b"\x00\x00" + buf.getvalue() + b"tail"
    loaded, pos = read_terms(data, 2, len(terms), ValueError)
    assert loaded == terms
    assert pos == len(data) - 4
    assert all(type(t) is Term and type(t.kind) is TermKind for t in loaded)


def test_write_terms_writes_each_table_once():
    class Writes(io.BytesIO):
        calls = 0

        def write(self, b):
            self.calls += 1
            return super().write(b)

    fh = Writes()
    write_terms(fh, [Term.iri("http://example.org/a"), Term.literal("x"), Term.blank("b0")])
    assert fh.calls == 1
    assert fh.getvalue() == (
        _entry(0, b"http://example.org/a") + _entry(1, b'"x"') + _entry(2, b"b0")
    )
