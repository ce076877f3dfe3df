"""The term-table reader and writer shared by the TRQG and TRQE formats."""

from __future__ import annotations

import io
import struct
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trq.binio import read_keys, term_key, term_of, write_keys
from trq.embedding import EmbeddingFormatError, EmbeddingSet, load_embeddings, save_embeddings
from trq.store import Graph, SnapshotError, load_snapshot, parse_ntriples, save_snapshot
from trq.terms import Term, TermKind

from conftest import TermKeyedIndexes, keys_of, parent_align, parent_read_terms, small_emb


def _trqg(count: int, table: bytes, rows: bytes = b"") -> bytes:
    """A snapshot of ``count`` terms read from ``table`` and the u32 triple
    block ``rows`` (none by default)."""
    return b"TRQG" + struct.pack("<HQQ", 1, count, len(rows) // 12) + table + rows


def _trqe(count: int, table: bytes, rows: bytes = b"") -> bytes:
    """A transe file of dim 1 with ``count`` entity terms read from
    ``table``, no relations and the matrix bytes ``rows`` (none by
    default): each table below is at least 9 bytes per term long, so the
    header counts fit the file and the term table is read."""
    return b"TRQE" + struct.pack("<HBBIIdQQ", 1, 1, 1, 1, 1, 1.0, count, 0) + table + rows


class Format(NamedTuple):
    build: Callable[..., bytes]
    load: Callable
    error: type[Exception]
    noun: str  # what the format's layout errors call a file
    head: int  # header bytes after the magic, the u16 version first
    rows: bytes  # the array bytes that follow one term of a valid file


FORMATS = {
    "trqg": Format(_trqg, load_snapshot, SnapshotError, "snapshot", 18, struct.pack("<3I", 0, 0, 0)),
    "trqe": Format(_trqe, load_embeddings, EmbeddingFormatError, "embedding file", 36, struct.pack("<f", 0.5)),
}


def _entry(kind: int, body: bytes, length: int | None = None) -> bytes:
    return struct.pack("<BI", kind, len(body) if length is None else length) + body


def _load(fmt: str, count: int, table: bytes, match: str):
    f = FORMATS[fmt]
    with pytest.raises(f.error, match=match):
        f.load(io.BytesIO(f.build(count, table)))


def _valid(fmt: str) -> bytes:
    """A file of ``fmt`` holding one term and the array bytes after it."""
    f = FORMATS[fmt]
    data = f.build(1, _entry(0, b"http://example.org/a"), f.rows)
    f.load(io.BytesIO(data))
    return data


# name: the file made from a valid one (``d``) of the format ``f``, and the
# message, in the order the loader checks them
_LAYOUT_FAULTS = {
    **{f"{n}-bytes": (lambda d, f, n=n: d[:n], "truncated {noun}") for n in range(4)},
    "bad-magic": (lambda d, f: b"TRQX" + d[4:], "not a {magic} {noun} (bad magic)"),
    "magic-only": (lambda d, f: d[:4], "truncated {noun}"),
    "header-cut": (lambda d, f: d[: 4 + f.head - 1], "truncated {noun}"),
    "version-2": (lambda d, f: d[:4] + struct.pack("<H", 2) + d[6:], "unsupported {noun} version 2"),
    # a million terms, each at least 5 bytes long
    "counts": (
        lambda d, f: f.build(10**6, _entry(0, b"http://example.org/a"), f.rows),
        "truncated {noun}: header counts exceed the file size",
    ),
    "payload-short": (lambda d, f: d[:-1], "truncated {noun}"),
    "trailing": (lambda d, f: d + b"\x00", "trailing bytes after {noun} payload"),
}


@pytest.mark.parametrize("fault", list(_LAYOUT_FAULTS))
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_layout_faults_are_named(fmt, fault):
    """Each fault of the layout both formats share raises the format's
    own error class with one exact message."""
    f = FORMATS[fmt]
    data = _valid(fmt)
    make, message = _LAYOUT_FAULTS[fault]
    with pytest.raises(f.error) as got:
        f.load(io.BytesIO(make(data, f)))
    assert type(got.value) is f.error
    assert str(got.value) == message.format(noun=f.noun, magic=data[:4].decode())


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("kind", [3, 255])
def test_unknown_term_kind_is_named(fmt, kind):
    _load(fmt, 1, _entry(kind, b"abcd"), f"unknown term kind {kind}$")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("src", [123, b"TRQG", None])
def test_a_source_that_is_no_path_or_file_is_a_type_error(fmt, src):
    load = FORMATS[fmt].load
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


def _table_bytes(terms) -> bytes:
    """A term table as the module docs lay it out: kind u8, byte length
    u32, UTF-8 lexical form."""
    return b"".join(
        struct.pack("<BI", int(t.kind), len(t.lexical.encode("utf-8"))) + t.lexical.encode("utf-8") for t in terms
    )


def _saved(save, obj, tmp_path) -> bytes:
    """The bytes ``save`` writes to a file object, checked equal to those
    it writes to a path."""
    buf = io.BytesIO()
    save(obj, buf)
    path = tmp_path / "out.bin"
    save(obj, path)
    assert path.read_bytes() == buf.getvalue()
    return buf.getvalue()


_WRITER_TERMS = [
    Term.iri("http://example.org/a"),
    Term.iri("http://example.org/p"),
    Term.literal("caf\u00e9", lang="fr"),
    Term.blank("b0"),
    Term.iri("http://example.org/q"),
]


@pytest.mark.parametrize(
    "model, norm, dim, rel_dim, extra",
    [("transe", "l1", 3, 3, None), ("transh", "l2", 3, 3, (2, 3)), ("transr", "l1", 3, 2, (2, 2, 3))],
)
def test_writers_lay_out_the_documented_bytes(tmp_path, model, norm, dim, rel_dim, extra):
    """``save_snapshot`` and ``save_embeddings`` write exactly the bytes the
    TRQG and TRQE field tables describe, built here with struct and numpy."""
    rows = [(3, 1, 2), (0, 1, 2), (0, 4, 3), (0, 1, 2), (2, 4, 0)]
    g = Graph([term_key(t) for t in _WRITER_TERMS], rows)
    distinct = sorted(set(rows))
    assert _saved(save_snapshot, g, tmp_path) == (
        b"TRQG"
        + struct.pack("<HQQ", 1, len(_WRITER_TERMS), len(distinct))
        + _table_bytes(_WRITER_TERMS)
        + b"".join(struct.pack("<III", *t) for t in distinct)
    )

    ent_terms, rel_terms = [_WRITER_TERMS[i] for i in (0, 3, 2)], [_WRITER_TERMS[i] for i in (1, 4)]
    shapes = [(len(ent_terms), dim), (len(rel_terms), rel_dim)] + ([extra] if extra else [])
    mats = [(np.arange(np.prod(s), dtype=np.float32).reshape(s) - 2.5) / (k + 3) for k, s in enumerate(shapes)]
    emb = EmbeddingSet(
        model=model,
        norm=norm,
        dim=dim,
        rel_dim=rel_dim,
        margin=0.75,
        entity_keys=[term_key(t) for t in ent_terms],
        relation_keys=[term_key(t) for t in rel_terms],
        entity_vecs=mats[0],
        relation_vecs=mats[1],
        normals=mats[2] if model == "transh" else None,
        maps=mats[2] if model == "transr" else None,
    )
    tag = {"transe": 1, "transh": 2, "transr": 3}[model]
    data = _saved(save_embeddings, emb, tmp_path)
    assert data == (
        b"TRQE"
        + struct.pack("<HBBIIdQQ", 1, tag, 1 if norm == "l1" else 2, dim, rel_dim, 0.75, len(ent_terms), len(rel_terms))
        + _table_bytes(ent_terms)
        + _table_bytes(rel_terms)
        + b"".join(struct.pack(f"<{m.size}f", *m.ravel().tolist()) for m in mats)
    )
    loaded = load_embeddings(io.BytesIO(data))
    got = [loaded.entity_vecs, loaded.relation_vecs] + [x for x in (loaded.normals, loaded.maps) if x is not None]
    assert len(got) == len(mats) and all(np.array_equal(a, b) for a, b in zip(got, mats))
