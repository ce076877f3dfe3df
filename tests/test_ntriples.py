from __future__ import annotations

import ast
import io
import re

import pytest
from hypothesis import given, settings, strategies as st

from trq.ntriples import TRIPLE_LINE, NTriplesError, parse_line, parse_term
from trq.store import parse_ntriples
from trq.terms import Term, TermKind, unescape_string

from conftest import (
    build_graph,
    nt_text,
    reference_parse_line,
    reference_parse_ntriples,
    reference_unescape_string,
)


def test_basic_line():
    s, p, o = parse_line("<http://a> <http://p> <http://b> .", 1)
    assert s == Term.iri("http://a")
    assert p == Term.iri("http://p")
    assert o == Term.iri("http://b")


def test_literal_objects():
    _, _, o = parse_line('<http://a> <http://p> "v" .', 1)
    assert o == Term.literal("v")
    _, _, o = parse_line('<http://a> <http://p> "v"@EN-GB .', 1)
    assert o == Term.literal("v", lang="en-gb")
    _, _, o = parse_line('<http://a> <http://p> "1"^^<http://www.w3.org/2001/XMLSchema#int> .', 1)
    assert o == Term.literal("1", datatype="http://www.w3.org/2001/XMLSchema#int")


def test_escapes_decoded_then_recanonicalized():
    _, _, o = parse_line('<http://a> <http://p> "a\\u0041b\\n" .', 1)
    # A collapses to a plain character; \n stays escaped canonically
    assert o.lexical == '"aAb\\n"'


def test_blank_nodes_allowed_in_subject_and_object():
    s, _, o = parse_line("_:x <http://p> _:y .", 1)
    assert s.kind is TermKind.BLANK and o.kind is TermKind.BLANK


def test_comment_and_empty_lines_skipped():
    assert parse_line("", 1) is None
    assert parse_line("   ", 2) is None
    assert parse_line("# a comment", 3) is None
    assert parse_line("  # indented comment", 4) is None


def test_trailing_comment_after_dot():
    s, p, o = parse_line("<http://a> <http://p> <http://b> . # trailing", 9)
    assert o == Term.iri("http://b")


# Each malformed line and the reason its error gives.
MALFORMED_LINES = {
    "<http://a> <http://p> <http://b>": "missing terminating dot",
    "<http://a> <http://p> .": "expected IRI, blank node, or literal object",
    "<http://a> <http://p> <http://b> <http://c> .": "missing terminating dot",  # extra term
    '"lit" <http://p> <http://b> .': "literal not allowed as subject",
    "<http://a> _:p <http://b> .": "blank node not allowed as predicate",
    '<http://a> "p" <http://b> .': "literal not allowed as predicate",
    "<relative> <http://p> <http://b> .": "IRI must be absolute: 'relative'",
    "<http://a> <http://p> <http://b> . junk": "trailing characters after dot",
    '<http://a> <http://p> "unterminated .': "unterminated literal",
    '<http://a> <http://p> "bad\\q" .': "unknown escape \\q",
    # a surrogate, which UTF-8 cannot encode
    '<http://a> <http://p> "\\uD800" .': "bad \\u escape: 'D800'",
    "<http://a/\\U0000DFFF> <http://p> <http://b> .": "bad \\U escape: '0000DFFF'",
    "<http://sp ace> <http://p> <http://b> .": "malformed IRI <http://sp ace>",
    # a backslash, once resolved
    "<http://a/\\u005C> <http://p> <http://b> .": "malformed IRI <http://a/\\u005C>",
    '<http://a> <http://p> "v"^^bad .': "datatype must be an IRI",
    "_: <http://p> <http://b> .": "malformed blank node label",
    # a hex escape takes exactly 4 or 8 hex digits, with no sign, space or _
    '<http://a/\\u+041> <http://p> "x\\u 041" .': "bad \\u escape: '+041'",
    '<http://a> <http://p> "x\\u 041" .': "bad \\u escape: ' 041'",
    "<http://e/\\u0_41> <http://p> <http://b> .": "bad \\u escape: '0_41'",
    '<http://a> <http://p> "\\U-0000041" .': "bad \\U escape: '-0000041'",
    '<http://a> <http://p> "\\u004" .': "truncated \\u escape",
    # a raw line break inside a literal, on its own or after a backslash
    '<http://a> <http://p> "a\rb" .': "raw line break in literal",
    '<http://a> <http://p> "a\nb" .': "raw line break in literal",
    '<http://a> <http://p> "a\\\rb" .': "raw line break in literal",
    '<http://a> <http://p> "a\\': "unterminated literal",
}


@pytest.mark.parametrize("line", list(MALFORMED_LINES))
def test_malformed_lines(line):
    message = MALFORMED_LINES[line]
    with pytest.raises(NTriplesError) as e:
        parse_line(line, 7)
    assert e.value.reason == message
    assert str(e.value) == f"line 7: {message}"


def test_error_carries_line_number():
    with pytest.raises(NTriplesError) as e:
        parse_line("<http://a> oops .", 42)
    assert e.value.lineno == 42
    assert "line 42" in str(e.value)


def test_parse_term_single():
    assert parse_term("<http://a>") == Term.iri("http://a")
    assert parse_term('"x"@en') == Term.literal("x", lang="en")
    assert parse_term("_:b7").kind is TermKind.BLANK
    with pytest.raises(NTriplesError):
        parse_term("<http://a> extra")


def test_duplicate_lines_collapse():
    text = (
        "<http://a> <http://p> <http://b> .\n" * 3
        + "<http://a> <http://p> <http://c> .\n"
    )
    g = parse_ntriples(text)
    assert g.triple_count == 2


def test_document_parse_counts():
    doc = """# header comment
<http://e/s1> <http://e/p> <http://e/o1> .

<http://e/s2> <http://e/p> "lit"@en .
<http://e/s2> <http://e/p> "lit" .
"""
    g = parse_ntriples(doc)
    assert g.triple_count == 3
    assert g.term_count == 6


def test_strict_mode_raises_with_line_number():
    text = "<http://a> <http://p> <http://b> .\nbad line\n"
    with pytest.raises(NTriplesError) as e:
        parse_ntriples(text)
    assert e.value.lineno == 2


def test_lax_mode_skips_and_reports():
    text = "<http://a> <http://p> <http://b> .\nbad\n<http://a> <http://p> <http://c> .\n"
    errors = []
    g = parse_ntriples(text, on_error=errors.append)
    assert g.triple_count == 2
    assert len(errors) == 1 and errors[0].lineno == 2


def test_blank_labels_skolemized_per_document():
    text = "_:alpha <http://p> _:beta .\n_:alpha <http://p> _:alpha .\n"
    g = parse_ntriples(text)
    labels = {t.lexical for t in g.terms() if t.kind is TermKind.BLANK}
    assert labels == {"b0", "b1"}
    # same source label maps to the same skolem label within a document
    trs = sorted(g.triples())
    assert trs[0].s == trs[1].s


def test_bytes_input_decoded_as_utf8():
    g = parse_ntriples("<http://a> <http://p> \"café\" .\n".encode())
    assert g.triple_count == 1


def test_round_trip_via_nt_text():
    rows = [("s1", "p", "o1"), ("s1", "p", "o2"), ("s2", "q", "s1")]
    g1 = build_graph(rows)
    g2 = parse_ntriples(nt_text(rows))
    assert {tuple(t) for t in g1.triples()} == {
        (g1.id(g2.term(t.s)), g1.id(g2.term(t.p)), g1.id(g2.term(t.o)))
        for t in g2.triples()
    }


_literal_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40
)


@given(_literal_text, st.sampled_from([None, "en", "de-AT"]))
def test_literal_round_trip_through_syntax(value, lang):
    t = Term.literal(value, lang=lang)
    line = f"<http://s> <http://p> {t.nt()} ."
    _, _, o = parse_line(line, 1)
    assert o == t


def test_path_and_bytes_give_the_same_graph(tmp_path):
    # A raw CR inside a literal ends no line: it is the literal's fault.
    cr_literal = tmp_path / "cr_literal.nt"
    cr_literal.write_bytes(b'<http://a> <http://p> "x\ry" .\n')
    errors = []
    for source in (cr_literal, cr_literal.read_bytes()):
        with pytest.raises(NTriplesError) as e:
            parse_ntriples(source)
        errors.append(str(e.value))
    assert errors == ["line 1: raw line break in literal"] * 2
    # A lone CR does not end a line.
    lone_cr = tmp_path / "lone_cr.nt"
    lone_cr.write_bytes(b"<http://a> <http://p> <http://b> .\r<http://a> <http://p> <http://c> .\r")
    errors = []
    for source in (lone_cr, lone_cr.read_bytes()):
        with pytest.raises(NTriplesError) as e:
            parse_ntriples(source)
        errors.append(str(e.value))
    assert errors == ["line 1: trailing characters after dot"] * 2


def test_a_file_object_is_not_a_source():
    with pytest.raises(TypeError, match="unsupported source type: BytesIO"):
        parse_ntriples(io.BytesIO(b"<http://a> <http://p> <http://b> .\n"))


def test_a_str_that_names_a_file_is_text_and_the_error_says_so(tmp_path):
    path = tmp_path / "films.nt"
    path.write_text("<http://a> <http://p> <http://b> .\n")
    assert parse_ntriples(path).triple_count == 1
    with pytest.raises(NTriplesError, match="str source is document text and a Path is read as a file") as e:
        parse_ntriples(str(path))
    assert e.value.lineno == 1 and e.value.line == str(path)
    assert str(e.value).startswith("line 1: expected N-Triples, got the name of a file")
    errors = []
    assert parse_ntriples(str(path), on_error=errors.append).triple_count == 0
    assert "a Path is read as a file" in str(errors[0])
    # text that names no file, even one too long for a file name, keeps the plain error
    for text in (str(tmp_path / "missing.nt"), "x" * 5000):
        with pytest.raises(NTriplesError) as e:
            parse_ntriples(text)
        assert str(e.value) == "line 1: expected IRI or blank node subject"


def test_invalid_utf8_is_a_line_numbered_error():
    doc = b'<http://a> <http://p> <http://b> .\n<http://a> <http://p> "\xff" .\n\n<http://a> <http://p> "\xc3" .\n'
    with pytest.raises(NTriplesError) as e:
        parse_ntriples(doc)
    assert str(e.value) == "line 2: invalid UTF-8"
    assert e.value.line == '<http://a> <http://p> "\ufffd" .'
    errors = []
    g = parse_ntriples(doc, on_error=errors.append)
    assert [err.lineno for err in errors] == [2, 4]
    assert g.triple_count == 1


def test_raw_token_memo_keeps_one_id_per_term():
    # Two raw tokens of one term: a memo miss must still find the term's id.
    # The escaped IRI's line falls back to parse_line, the next line does not.
    doc = (
        '<http://a> <http://p> "x"@EN .\n'
        '<http://a> <http://p> "x"@en .\n'
        "<http://a/\\u0041> <http://p> <http://a> .\n"
        "<http://a/A> <http://p> <http://a> .\n"
    )
    g = parse_ntriples(doc)
    assert [t.nt() for t in g.terms()] == ["<http://a>", "<http://p>", '"x"@en', "<http://a/A>"]
    assert g.triple_count == 2


def test_line_pattern_groups_are_the_raw_tokens():
    m = TRIPLE_LINE.fullmatch(' _:b1\t<http://p>"v"^^<http://t> . # c\r\r')
    assert m.groups() == ("_:b1", "<http://p>", '"v"^^<http://t>')
    for line in ("", "# c", "<http://a> <http://p> <http://b\\u0041> .", "<http://a> <http://p> <http://b> .\r \r"):
        assert TRIPLE_LINE.fullmatch(line) is None


# -- the fast path against the line-by-line reference ------------------


def _pieces(pieces):
    return st.lists(st.sampled_from(pieces), max_size=5).map("".join)


def _mostly(clean, noisy, one_in=4):
    """A draw from ``noisy`` once in ``one_in`` draws, else from ``clean``."""
    return st.sampled_from([clean] * (one_in - 1) + [noisy]).flatmap(lambda strategy: strategy)


def _triple_line(subject, predicate, obj, end):
    return st.builds(
        lambda lead, s, g1, p, g2, o, e: f"{lead}{s}{g1}{p}{g2}{o}{e}",
        st.sampled_from(["", " ", "\t"]),
        subject,
        st.sampled_from(["", " ", "\t", "  ", " \t"]),
        predicate,
        st.sampled_from(["", " ", "\t", "  ", " \t"]),
        obj,
        end,
    )


# Terms and line ends the line pattern takes ...
_iri = st.builds(
    lambda scheme, body: f"<{scheme}{body}>",
    st.sampled_from(["http://ex.org/", "urn:x:", "a+b.c-d:"]),
    _pieces(list("ab/:#.-é\x7f")),
)
_blank = st.sampled_from(["_:a", "_:b", "_:x_1", "_:B"])
_literal = st.builds(
    lambda body, suffix: f'"{body}"{suffix}',
    _pieces(list("ab é'\t")),
    st.sampled_from(["", "@en", "@EN", "@en-GB", "@En-gb", "^^<http://www.w3.org/2001/XMLSchema#int>"]),
)
_end = st.sampled_from([".", " .", "\t.", " . # c", " .# c", " .\r", " .\r\r", "  . \t# c\r"])
# ... and those it leaves to parse_line: IRIs with one forbidden
# character, escapes (most of them spell a term above another way),
# then other errors and relative IRIs.
_bad_char_iri = st.builds(
    lambda head, bad, tail: f"<http://ex.org/{head}{bad}{tail}>",
    _pieces(list("ab/")),
    st.sampled_from(list(' <"{}|^`\t\x00\x1f')),
    _pieces(list("ab/")),
)
_escaped_iri = st.sampled_from(["<http://ex.org/\\u0061>", "<http://ex.org/\\U00000062>", "<urn:x:\\u00e9>"])
_escaped_literal = st.sampled_from(
    ['"a\\u0062"', '"\\t"@EN', '"\\u0061"', '"a\\r"^^<http://www.w3.org/2001/XMLSchema#int>', '"\\\\"']
    + ['"a\\"', '"\\q"', '"\\u00"']  # not valid
)
_odd_iri = st.builds(
    lambda scheme, body: f"<{scheme}{body}>",
    st.sampled_from(["http://ex.org/", "", "1x:", "rel/"]),
    _pieces(list("ab/:") + list(' <>"{}|^`\t\x00') + ["\\u0041", "\\u003E", "\\n", "\\u00"]),
)
_odd_blank = st.sampled_from(["_:", "_:a-b", "_:a.b", "_:é"])
_odd_literal = st.builds(
    lambda body, suffix: f'"{body}"{suffix}',
    _pieces(list("a\t\r") + ["\\n", '\\"', "\\u00e9", "\\t", "\\q", "\\", '"']),
    st.sampled_from(["", "@EN", "@", "@1", "@en-", "^^<rel>", "^^x", "^^<http://t/\\u0041>"]),
)
_odd_end = st.sampled_from(["", " .\r \r", " . \r", " . x", " ..", " \r."])
_any_term = st.one_of(_iri, _blank, _literal, _odd_iri, _odd_blank, _odd_literal)

_line = _mostly(
    _mostly(
        _triple_line(
            _mostly(st.one_of(_iri, _blank), st.one_of(_escaped_iri, _bad_char_iri)),
            _mostly(_iri, _bad_char_iri),
            _mostly(
                st.one_of(_iri, _blank, _literal),
                st.one_of(_escaped_iri, _escaped_literal, _bad_char_iri, _odd_literal),
            ),
            _end,
        ),
        _triple_line(_any_term, _any_term, _any_term, st.one_of(_end, _odd_end)),
    ),
    st.sampled_from(["", " ", "\r", "# comment", "  # indented\r", "junk"]),
)


@st.composite
def _documents(draw):
    """Lines from the mix above, some repeated, with LF or CRLF ends."""
    lines = draw(st.lists(_line, min_size=1, max_size=6))
    picks = draw(st.lists(st.sampled_from(lines), min_size=1, max_size=10))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in picks)


def _outcome(parse, doc):
    try:
        g = parse(doc)
    except NTriplesError as exc:
        return str(exc)
    return [t.nt() for t in g.terms()], [tuple(t) for t in g.triples()]


@settings(max_examples=500, deadline=None)
@given(_documents())
def test_fast_path_matches_the_line_by_line_reference(doc):
    expected = _outcome(reference_parse_ntriples, doc)
    assert _outcome(parse_ntriples, doc) == expected
    assert _outcome(parse_ntriples, doc.encode()) == expected
    skipped, reference_skipped = [], []
    g = parse_ntriples(doc, on_error=skipped.append)
    ref = reference_parse_ntriples(doc, on_error=reference_skipped.append)
    assert [(e.lineno, str(e)) for e in skipped] == [(e.lineno, str(e)) for e in reference_skipped]
    assert list(g.terms()) == list(ref.terms())
    assert list(g.triples()) == list(ref.triples())


# -- the term rules against the character-loop reader ------------------


def _loosely_hex(code: str) -> bool:
    """True when ``code`` is not 4 or 8 ASCII hex digits but the reference
    reads it as a \\u or \\U escape's character: ``int(code, 16)`` also
    takes a sign, spaces, ``_`` and other scripts' digits."""
    try:
        point = int(code, 16)
    except ValueError:
        return False
    return not re.fullmatch(r"[0-9A-Fa-f]+", code) and 0 <= point <= 0x10FFFF and not 0xD800 <= point <= 0xDFFF


# \u and \U digits: hex that names a character, hex that names none or
# one an IRI forbids, and loose forms (the last of each too short)
_CODES4 = ["0041", "00e9", "00E9", "FFFD"]
_CODES8 = ["00000041", "0001F600", "0010FFFF"]
_BAD4 = ["D800", "DFFF", "0020", "005C", "003E", "0022"]
_BAD8 = ["00110000", "0000DC00"]
_LOOSE4 = ["+041", " 041", "041 ", "0_41", "-041", "-000", "\u0660\u0660\u0664\u0661", "00G1", "0 41", "004"]
_LOOSE8 = ["+0000041", "0000_041", " 0000041", "0000004G", "0000041"]


def _uchar(codes4, codes8):
    return st.one_of(st.sampled_from(codes4).map("\\u".__add__), st.sampled_from(codes8).map("\\U".__add__))


_good_uchar = _uchar(_CODES4, _CODES8)
_odd_uchar = _uchar(_BAD4 + _LOOSE4, _BAD8 + _LOOSE8)
_echar = st.sampled_from(["\\t", "\\b", "\\n", "\\r", "\\f", '\\"', "\\'", "\\\\"])
_bad_escape = st.sampled_from(["\\q", "\\x41", "\\", "\\u00", "\\U0001"])
_raw_break = st.sampled_from(["\r", "\n", "\r\n"])
# Lines with every escape kind, tags, datatypes, blank nodes and tabs;
# one piece or term in ten is malformed.
_literal_body = st.lists(
    _mostly(
        st.one_of(st.sampled_from(list("ab \té'#<>_")), _echar, _good_uchar),
        st.one_of(_odd_uchar, _bad_escape, _raw_break),
        10,
    ),
    max_size=5,
).map("".join)
_iri_body = st.lists(
    _mostly(
        st.one_of(st.sampled_from(list("ab/#:.é~")), _good_uchar),
        st.one_of(_odd_uchar, _echar, _bad_escape, st.sampled_from([" ", "{", "\t", "\r"])),
        10,
    ),
    max_size=4,
).map("".join)
_oracle_iri = st.builds(
    lambda scheme, body: f"<{scheme}{body}>",
    _mostly(st.sampled_from(["http://ex.org/", "urn:x:", "a+b.c-d:"]), st.sampled_from(["", "rel/", "1x:"]), 10),
    _iri_body,
)
_oracle_blank = _mostly(st.sampled_from(["_:a", "_:b1", "_:x_y", "_:B"]), st.sampled_from(["_:", "_:a-b", "_:é"]), 10)
_oracle_literal = st.builds(
    lambda body, suffix: f'"{body}"{suffix}',
    _literal_body,
    _mostly(
        st.one_of(st.sampled_from(["", "@en", "@EN-gb", "@de-AT-1996"]), _oracle_iri.map("^^".__add__)),
        st.sampled_from(["@", "@-x", "^^bad"]),
        10,
    ),
)
_oracle_line = st.builds(
    lambda lead, s, g1, p, g2, o, end: f"{lead}{s}{g1}{p}{g2}{o}{end}",
    st.sampled_from(["", " ", "\t"]),
    _mostly(st.one_of(_oracle_iri, _oracle_blank), _oracle_literal, 10),
    st.sampled_from(["", " ", "\t", " \t"]),
    _mostly(_oracle_iri, st.one_of(_oracle_blank, _oracle_literal), 10),
    st.sampled_from(["", " ", "\t", " \t"]),
    st.one_of(_oracle_iri, _oracle_blank, _oracle_literal),
    _mostly(st.sampled_from([" .", "\t.", ".", " . # c", " .\r"]), st.sampled_from(["", " . x", " .."]), 10),
)


def _changed_reading(got, line: str) -> bool:
    """True when ``got`` is the reason of an error that only the term
    rules raise: a raw line break in a literal, or an escape whose digits
    are loosely hex."""
    if got == "raw line break in literal":
        return "\r" in line or "\n" in line
    m = re.fullmatch(r"bad \\[uU] escape: (.*)", got, re.S)
    return m is not None and _loosely_hex(ast.literal_eval(m.group(1)))


def _read(parse, line):
    """The terms ``parse`` reads off ``line``, or its error's reason."""
    try:
        return parse(line, 3)
    except NTriplesError as exc:
        assert str(exc) == f"line 3: {exc.reason}"
        return exc.reason


@settings(max_examples=1000, deadline=None)
@given(_oracle_line)
def test_term_rules_read_lines_as_the_character_loops_did(line):
    expected = _read(reference_parse_line, line)
    got = _read(parse_line, line)
    assert got == expected or (isinstance(got, str) and _changed_reading(got, line))


@settings(max_examples=500, deadline=None)
@given(_literal_body)
def test_unescape_matches_the_character_loop(raw):
    try:
        expected = reference_unescape_string(raw)
    except ValueError as exc:
        expected = str(exc)
    try:
        got = unescape_string(raw)
    except ValueError as exc:
        assert str(exc) == expected or _changed_reading(str(exc), raw)
    else:
        assert got == expected
