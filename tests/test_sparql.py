from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trq.ntriples import NTriplesError, parse_term
from trq.sparql import (
    Const,
    Query,
    QueryForm,
    QuerySyntaxError,
    UnsupportedFeatureError,
    Var,
    ask,
    evaluate_bgp,
    parse_query,
    resolve_patterns,
)
from trq.terms import RDF_TYPE, Term

from conftest import (
    EX,
    brute_solutions,
    build_graph,
    ex,
    pattern,
    reference_evaluate_bgp,
    reference_first_rows,
    reference_greedy,
)

PROLOG = f"PREFIX ex: <{EX}>\n"


# -- parsing -----------------------------------------------------------


def test_parse_simple_select():
    q = parse_query(PROLOG + "SELECT ?x WHERE { ?x ex:p ex:b . }")
    assert q.form is QueryForm.SELECT
    assert q.projected == ("x",)
    assert q.patterns == (pattern("?x", "p", "b"),)


def test_parse_select_distinct_multiple_vars():
    q = parse_query(PROLOG + "SELECT DISTINCT ?x ?y WHERE { ?x ex:p ?y . ?y ex:q ?x . }")
    assert q.form is QueryForm.SELECT
    assert q.projected == ("x", "y")
    assert len(q.patterns) == 2


def test_parse_star_projects_in_first_appearance_order():
    q = parse_query(PROLOG + "SELECT * WHERE { ?b ex:p ?a . ?a ex:q ?c . }")
    assert q.projected == ("b", "a", "c")


def test_parse_full_iris_without_prefix():
    q = parse_query("SELECT ?x WHERE { ?x <http://e/p> <http://e/o> . }")
    assert q.patterns[0].p == Const(Term.iri("http://e/p"))


def test_parse_a_shorthand_for_rdf_type():
    q = parse_query(PROLOG + "SELECT ?x WHERE { ?x a ex:C . }")
    assert q.patterns[0].p == Const(RDF_TYPE)


def test_parse_literal_objects():
    q = parse_query(PROLOG + 'SELECT ?x WHERE { ?x ex:name "Ann"@en . }')
    assert q.patterns[0].o == Const(Term.literal("Ann", lang="en"))
    q = parse_query(
        PROLOG + 'SELECT ?x WHERE { ?x ex:age "7"^^<http://www.w3.org/2001/XMLSchema#int> . }'
    )
    assert q.patterns[0].o == Const(
        Term.literal("7", datatype="http://www.w3.org/2001/XMLSchema#int")
    )


def test_parse_ask():
    q = parse_query(PROLOG + "ASK { ex:a ex:p ex:b . }")
    assert q.form is QueryForm.ASK
    assert q.projected == ()


def test_parse_where_keyword_optional():
    q = parse_query(PROLOG + "SELECT ?x { ?x ex:p ?y . }")
    assert q.projected == ("x",)


def test_parse_final_dot_optional():
    q = parse_query(PROLOG + "SELECT ?x WHERE { ?x ex:p ?y . ?y ex:q ?x }")
    assert len(q.patterns) == 2


def test_parse_case_insensitive_keywords():
    q = parse_query(PROLOG + "select distinct ?x where { ?x ex:p ?y . }")
    assert q.form is QueryForm.SELECT and q.projected == ("x",)


def test_parse_multiline_and_comments():
    q = parse_query(
        PROLOG
        + """
        SELECT ?x WHERE {
          # match on p
          ?x ex:p ?y .
        }
        """
    )
    assert len(q.patterns) == 1


def test_prefix_resolution_errors():
    with pytest.raises(QuerySyntaxError):
        parse_query("SELECT ?x WHERE { ?x undeclared:p ?y . }")


def test_projection_must_use_pattern_variables():
    with pytest.raises(QuerySyntaxError):
        parse_query(PROLOG + "SELECT ?z WHERE { ?x ex:p ?y . }")


@pytest.mark.parametrize(
    "body",
    [
        "SELECT ?x WHERE { ?x ex:p ?y . FILTER(?x > 3) }",
        "SELECT ?x WHERE { OPTIONAL { ?x ex:p ?y . } }",
        "SELECT ?x WHERE { { ?x ex:p ?y . } UNION { ?x ex:q ?y . } }",
        "SELECT ?x WHERE { ?x ex:p ?y . MINUS { ?x ex:q ?y . } }",
        "SELECT ?x WHERE { GRAPH ?g { ?x ex:p ?y . } }",
        "SELECT ?x WHERE { BIND(1 AS ?x) }",
        "SELECT ?x WHERE { VALUES ?x { ex:a } }",
        "SELECT ?x WHERE { ?x ex:p ?y . } LIMIT 5",
        "SELECT ?x WHERE { ?x ex:p ?y . } ORDER BY ?x",
        "SELECT ?x WHERE { SERVICE ex:s { ?x ex:p ?y . } }",
        "SELECT COUNT(DISTINCT ?x) WHERE { ?x ex:p ?y . }",
        "SELECT (COUNT(DISTINCT ?x) AS ?n) WHERE { ?x ex:p ?y . }",
    ],
)
def test_unsupported_features_are_named_errors(body):
    with pytest.raises(UnsupportedFeatureError):
        parse_query(PROLOG + body)


def test_select_expressions_name_their_feature():
    for head, feature in [
        ("SELECT COUNT(DISTINCT ?x)", "COUNT"),
        ("SELECT (COUNT(DISTINCT ?x) AS ?n)", "COUNT"),
        ("SELECT (?x AS ?n)", "expression in SELECT clause"),
    ]:
        with pytest.raises(UnsupportedFeatureError) as exc:
            parse_query(PROLOG + head + " WHERE { ?x ex:p ?y . }")
        assert exc.value.feature == feature


def test_unsupported_syntax_shorthands():
    with pytest.raises(UnsupportedFeatureError):
        parse_query(PROLOG + "SELECT ?x WHERE { ?x ex:p 5 . }")
    with pytest.raises(UnsupportedFeatureError):
        parse_query(PROLOG + "SELECT ?x WHERE { ?x ex:p _:b . }")
    with pytest.raises(UnsupportedFeatureError):
        parse_query(PROLOG + "SELECT ?x WHERE { ?x ex:p ?y ; ex:q ?z . }")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "SELECT WHERE { ?x ex:p ?y . }",
        "SELECT ?x WHERE { ?x ex:p . }",
        "SELECT ?x WHERE { ?x ex:p ?y",
        "ASK { }",
        "SELECT ?x WHERE { }",
    ],
)
def test_syntax_errors(text):
    with pytest.raises(QuerySyntaxError):
        parse_query(PROLOG + text)


# -- constants: the N-Triples term grammar --------------------------------

# Pieces of a written IRI body (a scheme is drawn apart) and of a literal's
# quoted content, valid and invalid: forbidden characters, \u escapes of
# forbidden characters, ECHAR escapes (which IRIs forbid), a surrogate
# and a malformed escape. None is whitespace, < or >, which end a token.
# Valid pieces are listed more than once, so that about half the queries
# parse.
IRI_PIECES = ["a", "/", "#", "\u00e9", "\\u00E9", "\\U0001F600"] * 6 + [
    "{", "}", "|", "^", '"', "`", "\\u0020", "\\u000A", "\\u005C", "\\n", "\\t", "\\\\", "\\u12"]
LITERAL_PIECES = ["a", " ", "\u00e9", "\\n", '\\"', "\\'", "\\u00E9", "\\U0001F600"] * 6 + ["\\q", "\\uD800"]
IRI_BODIES = st.builds(
    lambda scheme, pieces: scheme + "".join(pieces),
    st.sampled_from(["e:", "http://x/"] * 6 + ["", "1e:"]),  # the last two are relative
    st.lists(st.sampled_from(IRI_PIECES), max_size=3),
)
LOCALS = st.sampled_from(["", "p", "a-b", "x.y", "1"])
# ("iri", body) is written <body>; ("pname", local) is written ex:local
IRIS = st.one_of(st.tuples(st.just("iri"), IRI_BODIES), st.tuples(st.just("pname"), LOCALS))
LITERALS = st.tuples(
    st.just("literal"),
    st.lists(st.sampled_from(LITERAL_PIECES), max_size=4).map("".join),
    st.one_of(st.just(None), st.tuples(st.just("lang"), st.sampled_from(["en", "EN-gb"])), IRIS),
)


def written(slot, ns):
    """A constant slot as the query writes it, and as N-Triples writes
    its term when ``ex:`` names the IRI written ``<ns>``."""
    if slot[0] == "iri":
        return f"<{slot[1]}>", f"<{slot[1]}>"
    if slot[0] == "pname":
        return f"ex:{slot[1]}", f"<{ns}{slot[1]}>"
    _, content, suffix = slot
    quoted = f'"{content}"'
    if suffix is None:
        return quoted, quoted
    if suffix[0] == "lang":
        return f"{quoted}@{suffix[1]}", f"{quoted}@{suffix[1]}"
    query_dt, nt_dt = written(suffix, ns)
    return f"{quoted}^^{query_dt}", f"{quoted}^^{nt_dt}"


def reads(nt):
    try:
        parse_term(nt)
    except NTriplesError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(IRI_BODIES, st.lists(st.tuples(IRIS, IRIS, st.one_of(IRIS, LITERALS)), min_size=1, max_size=2))
def test_constants_are_the_terms_ntriples_reads(ns, slots):
    # a query holds exactly the constants parse_term reads from the same
    # text (a prefixed name expanded), and each writes back as itself
    forms = [written(slot, ns) for row in slots for slot in row]
    body = " . ".join(" ".join(query for query, _ in forms[i : i + 3]) for i in range(0, len(forms), 3))
    text = f"PREFIX ex: <{ns}>\nASK {{ {body} }}"
    if not all(map(reads, [f"<{ns}>", *(nt for _, nt in forms)])):
        with pytest.raises(QuerySyntaxError):
            parse_query(text)
        return
    constants = [atom.term for p in parse_query(text).patterns for atom in p.atoms()]
    assert constants == [parse_term(nt) for _, nt in forms]
    assert all(parse_term(c.nt()) == c for c in constants)


MALFORMED_IRIS = [
    "<e:a{b>", "<e:a}b>", "<e:a|b>", "<e:a^b>", '<e:a"b>', "<e:a`b>",  # forbidden characters
    "<e:a\\u0020b>", "<e:a\\u000Ab>", "<e:a\\u007Cb>", "<e:a\\u005Cb>",  # forbidden once the escape is resolved
    "<e:a\\nb>", "<e:a\\tb>", "<e:a\\\\b>", '<e:a\\"b>',  # ECHAR, which IRIs forbid
    "<a/b>", "<>",  # relative
]


# A hex escape takes exactly 4 or 8 hex digits, and a literal holds no
# raw line break; each query gives its reader's message.
MALFORMED_ESCAPES_AND_BREAKS = {
    "SELECT * WHERE { <e:\\u+041> <e:p> ?x }": "bad \\u escape: '+041'",
    "SELECT * WHERE { <e:\\u0_41> <e:p> ?x }": "bad \\u escape: '0_41'",
    'SELECT * WHERE { ?x <e:p> "x\\u 041" }': "bad \\u escape: ' 041'",
    'SELECT * WHERE { ?x <e:p> "x\\U+0000041" }': "bad \\U escape: '+0000041'",
    'SELECT * WHERE { ?x <e:p> "x\\u04" }': "truncated \\u escape",
    'SELECT * WHERE { ?x <e:p> "a\nb" }': "raw line break in literal",
    'SELECT * WHERE { ?x <e:p> "a\rb"@en }': "raw line break in literal",
    'SELECT * WHERE { ?x <e:p> "a\\\nb" }': "raw line break in literal",
}


@pytest.mark.parametrize(
    "text",
    [
        *("SELECT * WHERE { " + where.format(iri) + " }" for iri in MALFORMED_IRIS
          for where in ("{} <e:p> ?x", "?x {} ?y", "?x <e:p> {}")),
        # a prefixed name that would expand to a forbidden or relative IRI
        "PREFIX ex: <e:a{> SELECT * WHERE { ?x ex:p ?y }",
        "PREFIX ex: <e:\\u0020> SELECT * WHERE { ?x ex:p ?y }",
        "PREFIX ex: <rel/> SELECT * WHERE { ?x ex:p ?y }",
        # a malformed datatype IRI
        'SELECT * WHERE { ?x <e:p> "7"^^<e:a|b> }',
        'SELECT * WHERE { ?x <e:p> "7"^^<e:a\\nb> }',
        'SELECT * WHERE { ?x <e:p> "7"^^<int> }',
        'PREFIX ex: <rel#> SELECT * WHERE { ?x <e:p> "7"^^ex:int }',
        # a malformed literal
        'SELECT * WHERE { ?x <e:p> "a\\qb" }',
        'SELECT * WHERE { ?x <e:p> "\\uD800" }',
        *MALFORMED_ESCAPES_AND_BREAKS,
    ],
)
def test_malformed_constants_are_syntax_errors(text):
    # the reader's message, on one line and without its "line 1:"
    with pytest.raises(QuerySyntaxError) as exc:
        parse_query(text)
    assert not isinstance(exc.value, UnsupportedFeatureError)
    assert "\n" not in str(exc.value) and not str(exc.value).startswith("line ")
    if text in MALFORMED_ESCAPES_AND_BREAKS:
        assert str(exc.value) == MALFORMED_ESCAPES_AND_BREAKS[text]


def test_variables_helper():
    q = parse_query(PROLOG + "SELECT ?x WHERE { ?x ex:p ?y . ?y ex:q ex:c . }")
    assert q.variables() == ("x", "y")


# -- evaluation --------------------------------------------------------


@pytest.fixture
def films():
    return build_graph(
        [
            ("f1", "starring", "ann"),
            ("f1", "starring", "bob"),
            ("ann", "spouse", "bob"),
            ("f1", "type", "Film"),
            ("f2", "starring", "ann"),
            ("f2", "type", "Film"),
            ("cat", "type", "Animal"),
        ]
    )


def evaluate(g, patterns, limit=None):
    """``evaluate_bgp`` of parsed patterns, resolved first."""
    return evaluate_bgp(g, resolve_patterns(g, patterns), limit)


def _mapping_set(g, result):
    return {tuple(sorted(m.items())) for m in result.mappings}


def test_evaluate_single_pattern(films):
    res = evaluate(films, (pattern("?f", "type", "Film"),))
    assert not res.truncated
    assert _mapping_set(films, res) == {
        (("f", films.id(ex("f1"))),),
        (("f", films.id(ex("f2"))),),
    }


def test_evaluate_join(films):
    pats = (pattern("?f", "starring", "?a"), pattern("?f", "type", "Film"))
    res = evaluate(films, pats)
    assert res.mappings and _mapping_set(films, res) == brute_solutions(films, pats)


def test_evaluate_repeated_variable_consistency(films):
    # ?x starring ?x has no solutions; ?a spouse ?b with ?a=?b neither
    assert evaluate(films, (pattern("?x", "starring", "?x"),)).mappings == []
    assert evaluate(films, (pattern("?a", "spouse", "?a"),)).mappings == []


def test_evaluate_unknown_constant_is_empty(films):
    res = evaluate(films, (pattern("?x", "starring", "nobody"),))
    assert res.mappings == [] and res.variables == ("x",) and not res.truncated


def test_evaluate_cartesian_product_of_disconnected_patterns(films):
    pats = (pattern("?f", "type", "Film"), pattern("?z", "type", "Animal"))
    res = evaluate(films, pats)
    assert len(res.mappings) == 2
    assert _mapping_set(films, res) == brute_solutions(films, pats)


def test_limit_and_truncated_flag(films):
    pats = (pattern("?f", "starring", "?a"),)
    res = evaluate(films, pats, limit=2)
    assert len(res.mappings) == 2 and res.truncated
    res_all = evaluate(films, pats, limit=3)
    assert len(res_all.mappings) == 3 and not res_all.truncated


def test_evaluate_empty_graph():
    g = build_graph([])
    res = evaluate(g, (pattern("?x", "p", "?y"),))
    assert res.mappings == [] and not res.truncated


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_evaluate_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    rows = [
        (f"e{rng.integers(n)}", f"r{rng.integers(3)}", f"e{rng.integers(n)}")
        for _ in range(int(rng.integers(4, 30)))
    ]
    g = build_graph(rows)
    names = ["x", "y", "z"][: int(rng.integers(1, 4))]
    pats = []
    for _ in range(int(rng.integers(1, 4))):
        rel = f"r{rng.integers(3)}"
        pick = lambda: (
            f"?{names[rng.integers(len(names))]}"
            if rng.random() < 0.7
            else f"e{rng.integers(n)}"
        )
        pats.append(pattern(pick(), rel, pick()))
    if not set().union(*[p.variables() for p in pats]):
        return
    got = {tuple(sorted(m.items())) for m in evaluate(g, tuple(pats)).mappings}
    assert got == brute_solutions(g, pats)


def _random_bgp(rng):
    """A small graph and patterns over it. Subjects and objects are
    variables, known constants or a constant absent from the graph;
    predicates are variables now and then; a pattern may repeat a
    variable (?x p ?x)."""
    n = int(rng.integers(2, 6))
    rows = [
        (f"e{rng.integers(n)}", f"r{rng.integers(2)}", f"e{rng.integers(n)}")
        for _ in range(int(rng.integers(1, 30)))
    ]
    g = build_graph(rows)
    names = ["x", "y", "z"]

    def node():
        u = rng.random()
        if u < 0.65:
            return f"?{names[rng.integers(3)]}"
        return f"e{rng.integers(n)}" if u < 0.93 else "ghost"

    def pred():
        u = rng.random()
        if u < 0.2:
            return f"?{names[rng.integers(3)]}"
        return f"r{rng.integers(2)}" if u < 0.95 else "ghost"

    pats = []
    for _ in range(int(rng.integers(1, 4))):
        s = node()
        o = s if rng.random() < 0.15 else node()
        pats.append(pattern(s, pred(), o))
    return g, tuple(pats)


def _ordered(mappings):
    return [list(m.items()) for m in mappings]


def _greedy_parts(g, resolved):
    """The greedy join order from no bound variable, cut into its
    variable-disjoint parts, less an empty first part."""
    import trq.sparql as sparql_mod

    return [part for part in sparql_mod._parts(sparql_mod._greedy(g, resolved, set()), resolved) if part]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_join_matches_reference_walk(seed):
    """Same rows, in the same order (dict key order included), and the
    same truncated flag as the depth-first walk, for every limit from 1
    to past the result size and for join chunks down to a single row."""
    import trq.sparql as sparql_mod

    g, pats = _random_bgp(np.random.default_rng(seed))
    variables = tuple(sorted(set().union(*[p.variables() for p in pats])))
    resolved = resolve_patterns(g, pats)
    full, _ = reference_evaluate_bgp(g, resolved)
    default_chunk = sparql_mod.JOIN_CHUNK
    try:
        for chunk in (default_chunk, 1, 3):
            sparql_mod.JOIN_CHUNK = chunk
            res = evaluate(g, pats)
            assert res.variables == variables
            assert _ordered(res.mappings) == _ordered(full)
            assert not res.truncated
            for limit in sorted({1, 2, len(full), len(full) + 1} - {0}):
                ref, ref_truncated = reference_evaluate_bgp(g, resolved, limit)
                res = evaluate(g, pats, limit)
                assert res.variables == variables
                assert _ordered(res.mappings) == _ordered(ref), (chunk, limit)
                assert res.truncated == ref_truncated, (chunk, limit)
    finally:
        sparql_mod.JOIN_CHUNK = default_chunk


def test_windows_find_their_parents_by_run_length(monkeypatch):
    """At JOIN_CHUNK = 2 the second step's 7 rows come from parents with
    0, 1, 5, 0, 0, 1 and 0 children: x2's children cross the window
    boundaries at rows 2 and 4, and childless parents sit at the first
    window's start, on both sides of the boundary at row 6 and after the
    last window's end. A ground step repeats its one range for each row."""
    import trq.sparql as sparql_mod

    children = [0, 1, 5, 0, 0, 1, 0]
    g = build_graph(
        [(f"x{i}", "type", "T") for i in range(len(children))]
        + [(f"x{i}", "p", f"y{i}_{j}") for i, n in enumerate(children) for j in range(n)]
    )
    pats = (pattern("?x", "type", "T"), pattern("?x", "p", "?y"))
    resolved = resolve_patterns(g, pats)
    assert [pat for part in _greedy_parts(g, resolved) for pat in part] == resolved
    monkeypatch.setattr(sparql_mod, "JOIN_CHUNK", 2)
    steps, _ = sparql_mod._compile(resolved)
    parents = np.array([[g.id(ex(f"x{i}"))] for i in range(len(children))])
    windows = list(sparql_mod._expand(g, steps[1], parents))
    assert [len(w) for w in windows] == [2, 2, 2, 1]
    assert [row[0] for w in windows for row in w.tolist()] == [
        g.id(ex(f"x{i}")) for i, n in enumerate(children) for _ in range(n)
    ]
    for limit in (None, 1, 2, 3, 6, 7, 8):
        ref, ref_truncated = reference_evaluate_bgp(g, resolved, limit)
        res = evaluate_bgp(g, resolved, limit)
        assert res.variables == ("x", "y")
        assert res.rows.tolist() == [list(m.values()) for m in ref], limit
        assert res.truncated == ref_truncated, limit
    ground = sparql_mod._compile(resolve_patterns(g, (pattern("x2", "p", "y2_0"),)))[0][0]
    rows = np.concatenate(list(sparql_mod._expand(g, ground, parents[:3])))
    assert rows.tolist() == parents[:3].tolist()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([0, 1, 1, 2, 5]))
def test_whole_table_steps_match_the_windowed_walk(seed, parents):
    """The join steps from a table of ``parents`` rows, each extending
    the whole table while its rows fit in JOIN_CHUNK, give the rows of
    the windowed depth-first walk, in its order and dtype, under caps of
    None, 1 and around the result size and at JOIN_CHUNK 1, 2, 3 and
    its default: patterns in a random order (products, ground steps,
    unknown constants, repeated variables), parents that bind a random
    set of variables (a one-row table looks its ids up as scalars)."""
    import trq.sparql as sparql_mod

    rng = np.random.default_rng(seed)
    g, pats = _random_bgp(rng)
    resolved = resolve_patterns(g, pats)
    bound = tuple(v for v in sorted(set().union(*[p.variables() for p in pats])) if rng.random() < 0.5)
    table = rng.integers(0, g.term_count, size=(parents, len(bound)), dtype=np.int64)
    steps, columns = sparql_mod._compile(resolved, bound)
    full = reference_first_rows(g, steps, table, len(columns), None)
    caps = [None] + sorted({1, len(full) - 1, len(full), len(full) + 1} - {0, -1})
    default_chunk = sparql_mod.JOIN_CHUNK
    try:
        for chunk in (default_chunk, 1, 2, 3):
            sparql_mod.JOIN_CHUNK = chunk
            for cap in caps:
                want = reference_first_rows(g, steps, table, len(columns), cap)
                got = sparql_mod._first_rows(g, steps, table, len(columns), cap)
                assert got.dtype == want.dtype == np.int64
                assert got.shape == want.shape, (chunk, cap)
                assert got.tolist() == want.tolist(), (chunk, cap)
    finally:
        sparql_mod.JOIN_CHUNK = default_chunk


def test_a_step_over_the_chunk_walks_in_windows_from_there(monkeypatch):
    """At JOIN_CHUNK = 4 the first step's 2 rows come in one window of the
    whole table; the second step's 6 rows do not fit, so they come in
    windows of 4 and 2, and the third step runs on each of them: 8 rows
    in windows of 4 from the first, and from the second 4 rows, which fit,
    in one window."""
    import trq.sparql as sparql_mod

    g = build_graph(
        [(f"x{i}", "type", "T") for i in range(2)]
        + [(f"x{i}", "p", f"y{j}") for i in range(2) for j in range(3)]
        + [(f"y{j}", "q", f"z{k}") for j in range(3) for k in range(2)]
    )
    resolved = resolve_patterns(g, (pattern("?x", "type", "T"), pattern("?x", "p", "?y"), pattern("?y", "q", "?z")))
    steps, columns = sparql_mod._compile(resolved)
    monkeypatch.setattr(sparql_mod, "JOIN_CHUNK", 4)
    walked = []
    real_expand = sparql_mod._expand

    def recorded(g, step, table):
        windows = []
        walked.append((next(i for i, s in enumerate(steps) if s is step), len(table), windows))
        for window in real_expand(g, step, table):
            windows.append(len(window))
            yield window

    monkeypatch.setattr(sparql_mod, "_expand", recorded)
    start = np.empty((1, 0), dtype=np.int64)
    rows = sparql_mod._first_rows(g, steps, start, len(columns), None)
    assert walked == [(0, 1, [2]), (1, 2, [4, 2]), (2, 4, [4, 4]), (2, 2, [4])]
    assert len(rows) == 12
    assert rows.tolist() == reference_first_rows(g, steps, start, len(columns), None).tolist()


def test_a_one_row_table_looks_its_ids_up_as_scalars(monkeypatch):
    """A one-row parent passes its bound ids to ``Graph.ranges`` as ids,
    not arrays, and its row is paired with each match; a longer table
    passes its columns."""
    import trq.sparql as sparql_mod

    g = build_graph([("x0", "p", f"y{j}") for j in range(3)] + [("x1", "p", "y0")])
    calls = []
    real_ranges = type(g).ranges
    monkeypatch.setattr(type(g), "ranges", lambda self, *a: calls.append(a) or real_ranges(self, *a))
    steps, columns = sparql_mod._compile(resolve_patterns(g, (pattern("?x", "p", "?y"),)), ("x",))
    x0, x1 = g.id(ex("x0")), g.id(ex("x1"))
    rows = sparql_mod._first_rows(g, steps, np.array([[x0]]), len(columns), None)
    assert rows.tolist() == [[x0, g.id(ex(f"y{j}"))] for j in range(3)]
    assert not any(isinstance(a, np.ndarray) for a in calls[-1])
    rows = sparql_mod._first_rows(g, steps, np.array([[x1], [x0]]), len(columns), None)
    assert rows.tolist() == [[x1, g.id(ex("y0"))]] + [[x0, g.id(ex(f"y{j}"))] for j in range(3)]
    assert isinstance(calls[-1][0], np.ndarray)


def _product_bgp(rng):
    """A small graph and patterns whose variables fall into 2-3 groups
    that meet only at constants, with ground patterns (no variable) mixed
    in, most of them facts of the graph."""
    n = int(rng.integers(2, 5))
    rows = [
        (f"e{rng.integers(n)}", f"r{rng.integers(2)}", f"e{rng.integers(n)}")
        for _ in range(int(rng.integers(3, 16)))
    ]
    g = build_graph(rows)
    pats = []
    for group in range(int(rng.integers(2, 4))):
        names = [f"?g{group}v{j}" for j in range(int(rng.integers(1, 3)))]

        def node(term):
            return names[rng.integers(len(names))] if rng.random() < 0.8 else term

        for _ in range(int(rng.integers(1, 3))):
            s, p, o = rows[rng.integers(len(rows))]
            pats.append(pattern(node(s), names[0] if rng.random() < 0.1 else p, node(o)))
    for _ in range(int(rng.integers(0, 3))):
        fact = rows[rng.integers(len(rows))]
        pats.append(pattern(*fact) if rng.random() < 0.8 else pattern(fact[2], fact[1], fact[0]))
    rng.shuffle(pats)
    return g, tuple(pats)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_product_of_parts_matches_reference_walk(seed):
    """A BGP whose variables meet only at constants is evaluated part by
    part; its rows, their order, its variables and its truncated flag
    equal the depth-first walk's at limits around every part's size and
    the full size, for join chunks down to a single row."""
    import trq.sparql as sparql_mod

    g, pats = _product_bgp(np.random.default_rng(seed))
    variables = tuple(sorted(set().union(*[p.variables() for p in pats])))
    resolved = resolve_patterns(g, pats)
    full, _ = reference_evaluate_bgp(g, resolved)
    limits = {1, 2, len(full), len(full) + 1}
    for part in _greedy_parts(g, resolved):
        size = len(reference_evaluate_bgp(g, part)[0])
        limits |= {size - 1, size, size + 1}
    expected = {None: (full, False)}
    expected.update({limit: reference_evaluate_bgp(g, resolved, limit) for limit in limits if limit > 0})
    default_chunk = sparql_mod.JOIN_CHUNK
    try:
        for chunk in (default_chunk, 1, 3):
            sparql_mod.JOIN_CHUNK = chunk
            for limit, (ref, ref_truncated) in expected.items():
                res = evaluate_bgp(g, resolved, limit)
                assert res.variables == variables
                assert _ordered(res.mappings) == _ordered(ref), (chunk, limit)
                assert res.truncated == ref_truncated, (chunk, limit)
    finally:
        sparql_mod.JOIN_CHUNK = default_chunk


def _greedy_order(g, resolved):
    """The greedy join order as one list: cheapest estimated pattern next,
    preferring one that shares a variable with what is already bound."""
    import trq.sparql as sparql_mod

    names = [{x for x in pat if isinstance(x, str)} for pat in resolved]
    remaining = list(range(len(resolved)))
    bound, order = set(), []
    while remaining:
        def key(i):
            connected = not bound or not names[i] or bool(names[i] & bound)
            return (not connected, sparql_mod._cardinality_estimate(g, resolved[i], bound), i)

        best = min(remaining, key=key)
        remaining.remove(best)
        order.append(resolved[best])
        bound |= names[best]
    return order


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_greedy_order_comes_cut_into_variable_disjoint_parts(seed):
    """The parts flattened are the greedy order, no variable is in two
    parts, every part after the first opens with a pattern that has a
    variable and shares none with the parts before it, and no later
    pattern of a part could have opened one."""
    import trq.sparql as sparql_mod

    rng = np.random.default_rng(seed)
    for g, pats in (_random_bgp(rng), _product_bgp(rng)):
        resolved = resolve_patterns(g, pats)
        parts = _greedy_parts(g, resolved)
        assert all(parts)
        assert [pat for part in parts for pat in part] == _greedy_order(g, resolved)
        bound = set()
        for i, part in enumerate(parts):
            names = [{x for x in pat if isinstance(x, str)} for pat in part]
            assert not set().union(*names) & bound
            if i:
                assert names[0] and not names[0] & bound
            bound |= names[0]
            for later in names[1:]:
                assert not later or later & bound
                bound |= later


def count_step_rows(monkeypatch) -> list[int]:
    """The rows each join step yields from now on, over all its windows
    (one entry per call of ``_expand``)."""
    import trq.sparql as sparql_mod

    yielded = []
    real_expand = sparql_mod._expand

    def counting_expand(g, step, table):
        yielded.append(0)
        for child in real_expand(g, step, table):
            yielded[-1] += len(child)
            yield child

    monkeypatch.setattr(sparql_mod, "_expand", counting_expand)
    return yielded


def test_product_is_never_enumerated_past_the_limit(monkeypatch):
    """Each part of a product is joined on its own and stops at limit + 1
    rows, so no step yields more, however large the product is."""
    import trq.sparql as sparql_mod

    films = [f"film{i}" for i in range(300)]
    people = [f"person{i}" for i in range(250)]
    g = build_graph([(f, "type", "Film") for f in films] + [(p, "type", "Person") for p in people])
    pats = (pattern("?f", "type", "Film"), pattern("?p", "type", "Person"))
    assert len(films) * len(people) > sparql_mod.JOIN_CHUNK
    resolved = resolve_patterns(g, pats)

    yielded = count_step_rows(monkeypatch)
    limit = 1_000
    res = evaluate_bgp(g, resolved, limit)
    assert len(res.rows) == limit and res.truncated
    assert yielded and max(yielded) <= limit + 1

    # a first part with no row stops the evaluation before the second is looked up
    pats = (pattern("?f", "film0", "?x"), pattern("?p", "type", "Person"))
    resolved = resolve_patterns(g, pats)
    assert _greedy_parts(g, resolved)[0][0] == resolved[0]
    ranges = []
    real_ranges = type(g).ranges
    monkeypatch.setattr(type(g), "ranges", lambda self, *a: ranges.append(a) or real_ranges(self, *a))
    res = evaluate_bgp(g, resolved, limit)
    assert len(res.rows) == 0 and not res.truncated and res.variables == ("f", "p", "x")
    assert len(ranges) == 1


def test_a_prefix_never_holds_a_product_of_parts(monkeypatch):
    """``?f in K . K has ?p`` meet only at K, a constant that is no leaf.
    The shared prefixes ``recommend`` joins from stop before the pattern
    that opens the second part, so no join step yields more rows than
    one pattern matches, not the product's 75,000, and the candidates
    are the product's first rows."""
    from trq.recommend import RecommendRequest, recommend

    g = build_graph([(f"f{i}", "in", "K") for i in range(300)] + [("K", "has", f"p{j}") for j in range(250)])
    q = parse_query(PROLOG + "SELECT * WHERE { ?f ex:in ex:K . ex:K ex:has ?p . }")
    yielded = count_step_rows(monkeypatch)
    rec = recommend(g, RecommendRequest(query=q, embeddings=None, per_tree_limit=10, uniform_f=0.5))
    assert yielded and max(yielded) <= 300
    assert rec.candidates_seen == 10 and rec.truncated
    assert [s.binding_key for s in rec.solutions] == [(ex(f"f{i}").nt(), ex("p0").nt()) for i in range(10)]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1), st.booleans())
def test_join_prefixes_evaluate_the_patterns_left(seed, products):
    """Without any subset of the patterns, the shared-prefix join gives
    the rows ``evaluate_bgp`` gives for the patterns left, in an order of
    its own; under a limit, the first ``limit`` rows of that order, with
    the same truncated flag. With join chunks down to one row, a
    relaxation whose prefix is over the chunk starts from a shorter
    kept prefix and still gives those rows."""
    import itertools

    import trq.sparql as sparql_mod

    g, pats = (_product_bgp if products else _random_bgp)(np.random.default_rng(seed))
    resolved = resolve_patterns(g, pats)
    subsets = [set(c) for k in range(len(resolved) + 1) for c in itertools.combinations(range(len(resolved)), k)]
    default_chunk = sparql_mod.JOIN_CHUNK
    try:
        for chunk in (default_chunk, 1, 3):
            sparql_mod.JOIN_CHUNK = chunk
            joined = sparql_mod.JoinPrefixes(g, resolved)
            for dropped in subsets:
                want = evaluate_bgp(g, [pat for i, pat in enumerate(resolved) if i not in dropped])
                full = joined.without(dropped)
                assert full.variables == want.variables
                assert sorted(full.rows.tolist()) == sorted(want.rows.tolist()), (chunk, dropped)
                assert not full.truncated
                for limit in sorted({1, 2, len(want.rows), len(want.rows) + 1} - {0}):
                    res = joined.without(dropped, limit)
                    assert res.rows.tolist() == full.rows[:limit].tolist(), (chunk, dropped, limit)
                    assert res.truncated == (len(want.rows) > limit)
    finally:
        sparql_mod.JOIN_CHUNK = default_chunk


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_join_prefixes_order_the_rest_as_greedy_does(seed):
    """The query's order, and for each single pattern dropped in turn
    from one ``JoinPrefixes``, the order its other patterns are joined in
    from the prefix's variables, with each pattern's opening flag, are
    those of the reference greedy order."""
    import trq.sparql as sparql_mod

    rng = np.random.default_rng(seed)
    for g, pats in (_random_bgp(rng), _product_bgp(rng)):
        resolved = resolve_patterns(g, pats)
        orders = []
        real_greedy = sparql_mod._greedy
        sparql_mod._greedy = lambda *args: orders.append(real_greedy(*args)) or orders[-1]
        try:
            joined = sparql_mod.JoinPrefixes(g, resolved)
            assert orders == [reference_greedy(g, resolved, set())]
            for i in range(len(resolved)):
                orders.clear()
                assert joined.without({i}) is not None
                m = joined._order.index(i)
                while joined._prefix(m) is None:  # the prefix it starts from
                    m -= 1
                bound = set(joined._columns[: joined._prefix(m).shape[1]])
                rest = [resolved[j] for j in joined._order[m:] if j != i]
                assert orders == [reference_greedy(g, rest, bound)], i
        finally:
            sparql_mod._greedy = real_greedy


def test_join_prefixes_read_a_product_off_its_parts(monkeypatch):
    """Without ``?b r ?c``, ``?b a C . ?c a C`` share no variable: the
    relaxation starts from the prefix ``?b a C`` and reads the product
    with ``?c a C`` off the two tables, so no join step yields the
    product's rows; its rows, their order and the limit rule are those
    of the depth-first walk."""
    import trq.sparql as sparql_mod

    nodes = [f"n{i}" for i in range(30)]
    g = build_graph([(n, "type", "C") for n in nodes] + [(nodes[i % 30], "r", f"m{i}") for i in range(40)])
    pats = (pattern("?b", "type", "C"), pattern("?c", "type", "C"), pattern("?b", "r", "?c"))
    resolved = resolve_patterns(g, pats)
    joined = sparql_mod.JoinPrefixes(g, resolved)
    assert joined._order == [0, 2, 1]
    yielded = count_step_rows(monkeypatch)
    full = joined.without({2})
    assert len(full.rows) == 900 and not full.truncated and full.variables == ("b", "c")
    assert yielded and max(yielded) <= 30
    walk, _ = reference_evaluate_bgp(g, resolved[:2])
    assert full.rows.tolist() == [list(m.values()) for m in walk]
    for limit in (1, 29, 30, 31, 899, 900, 901):
        res = joined.without({2}, limit)
        assert res.rows.tolist() == full.rows[:limit].tolist(), limit
        assert res.truncated == (limit < 900), limit


def test_join_prefixes_keep_a_prefix_up_to_the_chunk(monkeypatch):
    """A relaxation starts from the longest prefix of the greedy order
    that avoids its patterns; the first prefix with more than JOIN_CHUNK
    rows, and every longer one, is not kept, so a relaxation that needs
    one starts from the longest prefix that is, under the same limit
    rule."""
    import trq.sparql as sparql_mod

    # greedy order: ?x a T (3 rows), ?x p ?y (6 rows), ?y q ?z (6 rows)
    g = build_graph(
        [(f"x{i}", "type", "T") for i in range(3)]
        + [(f"x{i}", "p", f"y{j}") for i in range(3) for j in range(2)]
        + [(f"y{j}", "q", f"z{k}") for j in range(2) for k in range(3)]
    )
    resolved = resolve_patterns(g, (pattern("?y", "q", "?z"), pattern("?x", "type", "T"), pattern("?x", "p", "?y")))
    joined = sparql_mod.JoinPrefixes(g, resolved)
    assert joined._order == [1, 2, 0]
    monkeypatch.setattr(sparql_mod, "JOIN_CHUNK", 5)
    # its prefix (?x a T, ?x p ?y) holds 6 rows: it starts from ?x a T (3 rows)
    full = joined.without({0})
    assert len(full.rows) == 6 and not full.truncated and full.variables == ("x", "y")
    cut = joined.without({0}, limit=4)
    assert cut.rows.tolist() == full.rows[:4].tolist() and cut.truncated
    assert len(joined.without({2}).rows) == 3 * 6  # from the 3-row prefix, then a product
    assert len(joined.without({1}).rows) == 18  # from the one empty row
    assert [len(t) if t is not None else None for t in joined._prefixes] == [1, 3, None]


def test_limit_must_be_positive(films):
    import trq.sparql as sparql_mod

    with pytest.raises(ValueError):
        evaluate(films, (pattern("?f", "starring", "?a"),), limit=0)
    joined = sparql_mod.JoinPrefixes(films, resolve_patterns(films, (pattern("?f", "starring", "?a"),)))
    for limit in (0, -1, -2):
        with pytest.raises(ValueError, match="limit must be at least 1"):
            joined.without((), limit)


def test_join_order_invariance(films):
    pats = [
        pattern("?f", "starring", "?a"),
        pattern("?f", "type", "Film"),
        pattern("?a", "spouse", "?b"),
        pattern("?f", "starring", "?b"),
    ]
    baseline = None
    import itertools

    for perm in itertools.permutations(pats):
        got = {
            tuple(sorted(m.items()))
            for m in evaluate(films, perm).mappings
        }
        if baseline is None:
            baseline = got
        assert got == baseline
    assert baseline


# -- ask ---------------------------------------------------------------


def test_ask_ground(films):
    assert ask(films, parse_query(PROLOG + "ASK { ex:f1 ex:starring ex:ann . }"))
    assert not ask(films, parse_query(PROLOG + "ASK { ex:ann ex:starring ex:f1 . }"))
    assert not ask(films, parse_query(PROLOG + "ASK { ex:f1 ex:starring ex:zzz . }"))


def test_ask_with_variables(films):
    assert ask(films, parse_query(PROLOG + "ASK { ?f ex:starring ?a . ?a ex:spouse ?b . }"))
    assert not ask(films, parse_query(PROLOG + "ASK { ?a ex:spouse ex:cat . }"))


def test_ask_joins_once_from_the_one_empty_row(monkeypatch):
    """``ask`` joins its pattern once, in windows of JOIN_CHUNK, and stops
    at the first: no prefix is joined past the chunk and thrown away."""
    import trq.sparql as sparql_mod

    g = build_graph([(f"x{i}", "p", f"y{i}") for i in range(10)])
    monkeypatch.setattr(sparql_mod, "JOIN_CHUNK", 4)
    yielded = count_step_rows(monkeypatch)
    assert ask(g, parse_query(PROLOG + "ASK { ?x ex:p ?y . }"))
    assert sum(yielded) <= 4


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1), st.booleans())
def test_ask_and_exact_solutions_match_brute_force(seed, products):
    """``ask`` holds exactly when the brute-force evaluation has a
    solution, and ``exact_solutions`` is that evaluation's solutions as
    N-Triples terms, for joins and products and join chunks down to one
    row."""
    import trq.sparql as sparql_mod
    from trq.evalkit import exact_solutions

    g, pats = (_product_bgp if products else _random_bgp)(np.random.default_rng(seed))
    q = Query(QueryForm.SELECT, pats, tuple(sorted(set().union(*[p.variables() for p in pats]))))
    brute = brute_solutions(g, pats)
    want = {tuple(g.term(t).nt() for _, t in m) for m in brute}
    default_chunk = sparql_mod.JOIN_CHUNK
    try:
        for chunk in (default_chunk, 1, 3):
            sparql_mod.JOIN_CHUNK = chunk
            assert ask(g, Query(QueryForm.ASK, pats)) == bool(brute), chunk
            assert exact_solutions(g, q) == want, chunk
    finally:
        sparql_mod.JOIN_CHUNK = default_chunk


def test_movie_query_shape_parses():
    from conftest import MOVIE_QUERY

    q = parse_query(MOVIE_QUERY)
    assert len(q.patterns) == 7
    assert q.projected == ("film", "actor1", "actor2")
    assert q.variables() == ("film", "actor1", "actor2", "child")
