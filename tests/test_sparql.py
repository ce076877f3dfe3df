from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trq.sparql import (
    Const,
    Query,
    QueryForm,
    QuerySyntaxError,
    UnsupportedFeatureError,
    Var,
    ask,
    count_distinct,
    evaluate_bgp,
    parse_query,
)
from trq.terms import RDF_TYPE, Term

from conftest import (
    EX,
    brute_solutions,
    build_graph,
    ex,
    make_query,
    pattern,
    reference_evaluate_bgp,
)

PROLOG = f"PREFIX ex: <{EX}>\n"


# -- parsing -----------------------------------------------------------


def test_parse_simple_select():
    q = parse_query(PROLOG + "SELECT ?x WHERE { ?x ex:p ex:b . }")
    assert q.form is QueryForm.SELECT
    assert q.projected == ("x",)
    assert not q.distinct
    assert q.patterns == (pattern("?x", "p", "b"),)


def test_parse_select_distinct_multiple_vars():
    q = parse_query(PROLOG + "SELECT DISTINCT ?x ?y WHERE { ?x ex:p ?y . ?y ex:q ?x . }")
    assert q.distinct
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


def test_parse_count_distinct():
    q = parse_query(PROLOG + "SELECT COUNT(DISTINCT ?x) WHERE { ?x ex:p ?y . }")
    assert q.form is QueryForm.COUNT_DISTINCT
    assert q.projected == ("x",)
    q2 = parse_query(PROLOG + "SELECT (COUNT(DISTINCT ?x) AS ?n) WHERE { ?x ex:p ?y . }")
    assert q2.form is QueryForm.COUNT_DISTINCT
    assert q2.projected == ("x",)


def test_parse_where_keyword_optional():
    q = parse_query(PROLOG + "SELECT ?x { ?x ex:p ?y . }")
    assert q.projected == ("x",)


def test_parse_final_dot_optional():
    q = parse_query(PROLOG + "SELECT ?x WHERE { ?x ex:p ?y . ?y ex:q ?x }")
    assert len(q.patterns) == 2


def test_parse_case_insensitive_keywords():
    q = parse_query(PROLOG + "select distinct ?x where { ?x ex:p ?y . }")
    assert q.distinct


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
    ],
)
def test_unsupported_features_are_named_errors(body):
    with pytest.raises(UnsupportedFeatureError):
        parse_query(PROLOG + body)


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


def _mapping_set(g, result):
    return {tuple(sorted(m.items())) for m in result.mappings}


def test_evaluate_single_pattern(films):
    q = make_query([pattern("?f", "type", "Film")])
    res = evaluate_bgp(films, q)
    assert not res.truncated
    assert _mapping_set(films, res) == {
        (("f", films.id(ex("f1"))),),
        (("f", films.id(ex("f2"))),),
    }


def test_evaluate_join(films):
    q = make_query([pattern("?f", "starring", "?a"), pattern("?f", "type", "Film")])
    res = evaluate_bgp(films, q)
    assert res.mappings and _mapping_set(films, res) == brute_solutions(
        films, q.patterns
    )


def test_evaluate_repeated_variable_consistency(films):
    # ?x starring ?x has no solutions; ?a spouse ?b with ?a=?b neither
    q = make_query([pattern("?x", "starring", "?x")])
    assert evaluate_bgp(films, q).mappings == []
    q2 = make_query([pattern("?a", "spouse", "?a")])
    assert evaluate_bgp(films, q2).mappings == []


def test_evaluate_unknown_constant_is_empty(films):
    q = make_query([pattern("?x", "starring", "nobody")])
    assert evaluate_bgp(films, q).mappings == []


def test_evaluate_cartesian_product_of_disconnected_patterns(films):
    q = make_query([pattern("?f", "type", "Film"), pattern("?z", "type", "Animal")])
    res = evaluate_bgp(films, q)
    assert len(res.mappings) == 2
    assert _mapping_set(films, res) == brute_solutions(films, q.patterns)


def test_distinct_projection_collapses(films):
    # two starring edges for f1; project only the film
    q = make_query(
        [pattern("?f", "starring", "?a")], projected=["f"], distinct=True
    )
    res = evaluate_bgp(films, q)
    assert sorted(m["f"] for m in res.mappings) == sorted(
        [films.id(ex("f1")), films.id(ex("f2"))]
    )


def test_non_distinct_keeps_duplicate_projections(films):
    q = make_query([pattern("?f", "starring", "?a")], projected=["f"], distinct=False)
    res = evaluate_bgp(films, q)
    assert len(res.mappings) == 3


def test_mappings_are_total_even_with_projection(films):
    q = make_query([pattern("?f", "starring", "?a")], projected=["f"], distinct=True)
    for m in evaluate_bgp(films, q).mappings:
        assert set(m) == {"f", "a"}


def test_limit_and_truncated_flag(films):
    q = make_query([pattern("?f", "starring", "?a")], distinct=True)
    res = evaluate_bgp(films, q, limit=2)
    assert len(res.mappings) == 2 and res.truncated
    res_all = evaluate_bgp(films, q, limit=3)
    assert len(res_all.mappings) == 3 and not res_all.truncated


def test_evaluate_empty_graph():
    g = build_graph([])
    q = make_query([pattern("?x", "p", "?y")])
    res = evaluate_bgp(g, q)
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
    used = set().union(*[p.variables() for p in pats])
    if not used:
        return
    q = make_query(pats, projected=sorted(used))
    got = {tuple(sorted(m.items())) for m in evaluate_bgp(g, q).mappings}
    assert got == brute_solutions(g, pats)


def _random_bgp(rng):
    """A small graph and query over it. Subjects and objects are variables,
    known constants or a constant absent from the graph; predicates are
    variables now and then; a pattern may repeat a variable (?x p ?x)."""
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
    used = sorted(set().union(*[p.variables() for p in pats]))
    projected = [v for v in used if rng.random() < 0.6] or used
    return g, make_query(pats, projected=projected, distinct=bool(rng.random() < 0.6))


def _ordered(mappings):
    return [list(m.items()) for m in mappings]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_join_matches_reference_walk(seed):
    """Same rows, in the same order (dict key order included), and the
    same truncated flag as the depth-first walk, for every limit from 1
    to past the result size and for join chunks down to a single row."""
    import trq.sparql as sparql_mod

    g, q = _random_bgp(np.random.default_rng(seed))
    full, _ = reference_evaluate_bgp(g, q)
    default_chunk = sparql_mod.JOIN_CHUNK
    try:
        for chunk in (default_chunk, 1, 3):
            sparql_mod.JOIN_CHUNK = chunk
            res = evaluate_bgp(g, q)
            assert _ordered(res.mappings) == _ordered(full)
            assert not res.truncated
            for limit in sorted({1, 2, len(full), len(full) + 1} - {0}):
                ref, ref_truncated = reference_evaluate_bgp(g, q, limit)
                res = evaluate_bgp(g, q, limit)
                assert _ordered(res.mappings) == _ordered(ref), (chunk, limit)
                assert res.truncated == ref_truncated, (chunk, limit)
    finally:
        sparql_mod.JOIN_CHUNK = default_chunk


def test_limit_must_be_positive(films):
    with pytest.raises(ValueError):
        evaluate_bgp(films, make_query([pattern("?f", "starring", "?a")]), limit=0)


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
            for m in evaluate_bgp(films, make_query(perm)).mappings
        }
        if baseline is None:
            baseline = got
        assert got == baseline
    assert baseline


# -- ask / count -------------------------------------------------------


def test_ask_ground(films):
    assert ask(films, parse_query(PROLOG + "ASK { ex:f1 ex:starring ex:ann . }"))
    assert not ask(films, parse_query(PROLOG + "ASK { ex:ann ex:starring ex:f1 . }"))
    assert not ask(films, parse_query(PROLOG + "ASK { ex:f1 ex:starring ex:zzz . }"))


def test_ask_with_variables(films):
    assert ask(films, parse_query(PROLOG + "ASK { ?f ex:starring ?a . ?a ex:spouse ?b . }"))
    assert not ask(films, parse_query(PROLOG + "ASK { ?a ex:spouse ex:cat . }"))


def test_count_distinct(films):
    q = parse_query(PROLOG + "SELECT COUNT(DISTINCT ?a) WHERE { ?f ex:starring ?a . }")
    assert count_distinct(films, q) == 2
    q2 = parse_query(PROLOG + "SELECT COUNT(DISTINCT ?f) WHERE { ?f ex:starring ?a . }")
    assert count_distinct(films, q2) == 2
    q3 = parse_query(PROLOG + "SELECT COUNT(DISTINCT ?f) WHERE { ?f ex:type ex:Nope . }")
    assert count_distinct(films, q3) == 0


def test_count_distinct_requires_count_form(films):
    q = parse_query(PROLOG + "SELECT ?f WHERE { ?f ex:starring ?a . }")
    with pytest.raises(ValueError):
        count_distinct(films, q)


def test_movie_query_shape_parses():
    from conftest import MOVIE_QUERY

    q = parse_query(MOVIE_QUERY)
    assert len(q.patterns) == 7
    assert q.projected == ("film", "actor1", "actor2")
    assert q.variables() == ("film", "actor1", "actor2", "child")
