from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from trq.store import load_snapshot, parse_ntriples, save_snapshot
from trq.terms import (
    RDF_TYPE,
    RDF_TYPE_IRI,
    Term,
    TermKind,
    Triple,
    escape_string,
    is_absolute_iri,
    unescape_string,
)


def test_iri_factory():
    t = Term.iri("http://example.org/a")
    assert t.kind is TermKind.IRI
    assert t.lexical == "http://example.org/a"
    assert t.nt() == "<http://example.org/a>"


def test_iri_must_be_absolute():
    with pytest.raises(ValueError):
        Term.iri("relative/path")
    with pytest.raises(ValueError):
        Term.iri("")


@pytest.mark.parametrize(
    "iri,ok",
    [
        ("http://a", True),
        ("urn:x", True),
        ("tag:2024", True),
        ("a+b-c.d:rest", True),
        ("1http://a", False),
        ("no-colon", False),
        (":empty-scheme", False),
    ],
)
def test_absolute_iri_check(iri, ok):
    assert is_absolute_iri(iri) is ok


def test_plain_literal_identity():
    t = Term.literal("hello")
    assert t.kind is TermKind.LITERAL
    assert t.lexical == '"hello"'
    assert t.nt() == '"hello"'


def test_typed_literal_identity():
    t = Term.literal("42", datatype="http://www.w3.org/2001/XMLSchema#integer")
    assert t.lexical == '"42"^^<http://www.w3.org/2001/XMLSchema#integer>'


def test_lang_literal_lowercases_tag():
    a = Term.literal("chat", lang="FR")
    b = Term.literal("chat", lang="fr")
    assert a == b
    assert a.lexical == '"chat"@fr'


def test_literal_escaping_in_lexical_form():
    t = Term.literal('say "hi"\n')
    assert t.lexical == '"say \\"hi\\"\\n"'


def test_lang_and_datatype_exclusive():
    with pytest.raises(ValueError):
        Term.literal("x", datatype="http://example.org/dt", lang="en")


def test_blank_label_validation():
    t = Term.blank("b0")
    assert t.nt() == "_:b0"
    with pytest.raises(ValueError):
        Term.blank("not ok")
    with pytest.raises(ValueError):
        Term.blank("")


def test_distinct_kinds_never_equal():
    # same lexical payload, different kinds
    assert Term.iri("http://a") != Term.literal("http://a")
    assert Term.blank("x") != Term.iri("urn:x")


def test_terms_hashable_and_interchangeable_as_keys():
    d = {Term.iri("http://a"): 1, Term.literal("a"): 2}
    assert d[Term.iri("http://a")] == 1


def test_rdf_type_constant():
    assert RDF_TYPE == Term.iri(RDF_TYPE_IRI)
    assert RDF_TYPE_IRI.endswith("22-rdf-syntax-ns#type")


def test_triple_ordering_and_fields():
    a, p, b = Term.iri("http://a"), Term.iri("http://p"), Term.iri("http://b")
    t = Triple(a, p, b)
    assert tuple(t) == (a, p, b)
    assert Triple(a, p, b) == Triple(a, p, b)


@pytest.mark.parametrize(
    "raw,escaped",
    [
        ("plain", "plain"),
        ('q"q', 'q\\"q'),
        ("back\\slash", "back\\\\slash"),
        ("tab\there", "tab\\there"),
        ("nl\n", "nl\\n"),
        ("cr\r", "cr\\r"),
    ],
)
def test_escape_examples(raw, escaped):
    assert escape_string(raw) == escaped
    assert unescape_string(escaped) == raw


def test_unescape_numeric_forms():
    assert unescape_string("\\u0041") == "A"
    assert unescape_string("\\U0001F600") == "\U0001F600"
    assert unescape_string("\\u00e9\\u00E9") == "\u00e9\u00e9"
    with pytest.raises(ValueError, match="^bad \\\\u escape: '00G1'$"):
        unescape_string("\\u00G1")
    with pytest.raises(ValueError, match="^dangling backslash escape$"):
        unescape_string("trailing\\")
    for surrogate in ("\\uD800", "\\uDFFF", "\\U0000DC00"):
        with pytest.raises(ValueError, match="escape"):
            unescape_string(surrogate)
    # exactly 4 or 8 hex digits: no sign, space, underscore or other digit
    for raw, message in [
        ("\\u+041", "bad \\u escape: '+041'"),
        ("\\u 041", "bad \\u escape: ' 041'"),
        ("\\u0_41", "bad \\u escape: '0_41'"),
        ("\\u-041", "bad \\u escape: '-041'"),
        ("\\u\u0660\u0660\u0664\u0661", "bad \\u escape: '\u0660\u0660\u0664\u0661'"),  # Arabic-Indic digits
        ("\\U+0000041", "bad \\U escape: '+0000041'"),
        ("\\U0000_041", "bad \\U escape: '0000_041'"),
        ("\\u004", "truncated \\u escape"),
        ("\\U0000004", "truncated \\U escape"),
        ("\\q", "unknown escape \\q"),
    ]:
        with pytest.raises(ValueError) as e:
            unescape_string(raw)
        assert str(e.value) == message


@given(st.text(max_size=200))
def test_escape_round_trip(s):
    assert unescape_string(escape_string(s)) == s


def test_term_is_an_immutable_tuple():
    t = Term.iri("http://example.org/a")
    with pytest.raises(AttributeError):
        t.kind = TermKind.LITERAL
    with pytest.raises(AttributeError):
        t.lexical = "http://example.org/b"
    assert t == (TermKind.IRI, "http://example.org/a")


@given(st.sampled_from(TermKind), st.text(max_size=20))
def test_equal_terms_hash_equal(kind, lexical):
    a, b = Term(kind, lexical), Term(kind, "".join(list(lexical)))
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((kind, lexical))


def test_loaded_term_kinds_are_members(tmp_path):
    save_snapshot(parse_ntriples('_:x <http://e/p> "v"@en .\n'), tmp_path / "g.trqg")
    terms = list(load_snapshot(tmp_path / "g.trqg").terms())
    assert [t.kind for t in terms] == [TermKind.BLANK, TermKind.IRI, TermKind.LITERAL]
    assert all(type(t.kind) is TermKind for t in terms)
