"""The term-table reader and writer shared by the TRQG and TRQE formats."""

from __future__ import annotations

import io
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trq.binio import read_keys, term_of, write_keys
from trq.embedding import EmbeddingFormatError, load_embeddings, save_embeddings
from trq.store import SnapshotError, load_snapshot, parse_ntriples, save_snapshot
from trq.terms import Term, TermKind

from conftest import TermKeyedIndexes, keys_of, parent_align, parent_read_terms, small_emb


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
@pytest.mark.parametrize("src", [123, b"TRQG", None])
def test_a_source_that_is_no_path_or_file_is_a_type_error(fmt, src):
    load = FORMATS[fmt][1]
    with pytest.raises(TypeError, match=f"^unsupported source type: {type(src).__name__}$"):
        load(src)


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


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_a_character_split_across_two_entries_is_invalid(fmt):
    # "\xc3\xa9" is one character; each entry holds half of it
    table = _entry(0, b"abcd") + _entry(1, b'"caf\xc3') + _entry(1, b'\xa9"@fr-be') + _entry(0, b"efgh")
    _load(fmt, 4, table, r"^term 1 is not valid UTF-8$")
    table = _entry(0, b"abcd") + _entry(1, b'"caf') + _entry(1, b'\xa9"@fr-be') + _entry(0, b"efgh")
    _load(fmt, 4, table, r"^term 2 is not valid UTF-8$")


def test_snapshot_names_a_term_listed_twice():
    table = _entry(0, b"http://example.org/a") + _entry(1, b'"x"') + _entry(1, b'"x"')
    _load("trqg", 3, table, r'^term table lists "x" twice$')


_TERMS = st.lists(st.builds(Term, st.sampled_from(TermKind), st.text(max_size=12)), max_size=20)


@settings(max_examples=200, deadline=None)
@given(_TERMS)
@example([])
@example([Term(TermKind.IRI, ""), Term(TermKind.LITERAL, '"\U0001F600"'), Term(TermKind.BLANK, "\U00010348")])
def test_term_table_round_trip(terms):
    buf = io.BytesIO()
    write_keys(buf, keys_of(terms))
    data = b"\x00\x00" + buf.getvalue() + b"tail"
    keys, pos = read_keys(data, 2, len(terms), ValueError)
    loaded = [term_of(k) for k in keys]
    assert loaded == terms
    assert keys == keys_of(terms)
    assert pos == len(data) - 4
    assert all(type(t) is Term and type(t.kind) is TermKind for t in loaded)


_ENTRY = st.tuples(
    st.sampled_from([0, 1, 2, 3, 255]),
    st.one_of(
        st.text(max_size=6).map(lambda x: x.encode("utf-8")),
        st.binary(max_size=6),
        st.sampled_from([b"\xc3", b"\xa9", b"\xe2\x82", b"\xac", b"\xed\xa0\x80", b"\xf0\x9f\x98"]),
    ),
    st.sampled_from([None, None, None, 0, 1, 7, 2**32 - 1]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_ENTRY, max_size=8), st.integers(0, 10), st.integers(0, 12))
def test_read_keys_matches_the_term_reader(entries, count, cut):
    """On any table, whole, cut short or followed by more bytes, the
    entry reader decodes to the terms the Term reader gave, or fails with
    its message."""
    table = b"".join(_entry(kind, body, length) for kind, body, length in entries)
    data = b"\x00" + table[: max(0, len(table) - cut)] if cut % 2 else b"\x00" + table + b"\xc3tail"
    try:
        expected = parent_read_terms(data, 1, count, ValueError)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            read_keys(data, 1, count, ValueError)
        assert str(got.value) == str(exc)
        return
    keys, pos = read_keys(data, 1, count, ValueError)
    assert ([term_of(k) for k in keys], pos) == expected
    assert keys == keys_of(expected[0])


_LABEL = st.text(st.sampled_from("abcXYZ09_"), min_size=1, max_size=4)
_LEXICAL = st.text(st.characters(blacklist_categories=["Cs"]), max_size=5)
_IRI = st.text(st.sampled_from("az09_-~%\u00e9\u20ac\U0001F600\U00010348"), max_size=4).map(
    lambda x: Term.iri("http://example.org/" + x)
)
_NODE = st.one_of(_IRI, _LABEL.map(Term.blank))
_OBJECT = st.one_of(
    _NODE,
    _LEXICAL.map(Term.literal),
    st.tuples(_LEXICAL, st.sampled_from(["en", "fr-BE", "x"])).map(lambda v: Term.literal(v[0], lang=v[1])),
    st.tuples(_LEXICAL, _IRI).map(lambda v: Term.literal(v[0], datatype=v[1].lexical)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_NODE, _IRI, _OBJECT), min_size=1, max_size=12), st.lists(_OBJECT, max_size=4))
@example(
    [(Term.blank("x"), Term.iri("http://example.org/"), Term.literal(""))],
    [Term.literal("\U0001F600", lang="en"), Term.iri("http://example.org/\U00010348")],
)
def test_a_parsed_graph_and_its_snapshot_agree_on_terms(triples, probes):
    """A graph parsed from N-Triples and the graph loaded from its
    snapshot give the same terms, ids and bind rows, and the rows equal
    the Term-keyed alignment."""
    text = "".join(f"{s.nt()} {p.nt()} {o.nt()} .\n" for s, p, o in triples)
    parsed = parse_ntriples(text)
    buf = io.BytesIO()
    save_snapshot(parsed, buf)
    loaded = load_snapshot(io.BytesIO(buf.getvalue()))
    assert list(loaded.terms()) == list(parsed.terms())
    assert loaded.term_keys == parsed.term_keys
    for i in range(parsed.term_count):
        assert loaded.term(i) == parsed.term(i)
        assert loaded.id(parsed.term(i)) == parsed.id(loaded.term(i)) == i
    for t in probes:
        assert loaded.id(t) == parsed.id(t) == next((i for i, u in enumerate(parsed.terms()) if u == t), None)
    emb = small_emb(parsed, dim=2, epochs=1)
    buf = io.BytesIO()
    save_embeddings(emb, buf)
    reloaded = load_embeddings(io.BytesIO(buf.getvalue()))
    oracle = parent_align(TermKeyedIndexes(emb), loaded)
    for e, g in ((emb, parsed), (reloaded, parsed), (reloaded, loaded)):
        e._view = None  # the set train returns comes bound to its graph
        view = e.bind(g)
        assert np.array_equal(view.ent_row, oracle[0]) and np.array_equal(view.rel_row, oracle[1])


def test_write_terms_writes_each_table_once():
    class Writes(io.BytesIO):
        calls = 0

        def write(self, b):
            self.calls += 1
            return super().write(b)

    fh = Writes()
    write_keys(fh, keys_of([Term.iri("http://example.org/a"), Term.literal("x"), Term.blank("b0")]))
    assert fh.calls == 1
    assert fh.getvalue() == (
        _entry(0, b"http://example.org/a") + _entry(1, b'"x"') + _entry(2, b"b0")
    )
