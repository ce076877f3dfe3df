from __future__ import annotations

import itertools
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import conftest
import trq.qgraph
from trq.qgraph import (
    BudgetExceededError,
    DisconnectedQueryError,
    NoVariableError,
    SubqueryTree,
    enumerate_subquery_trees,
)
from trq.sparql import Const, Query, QueryForm, TriplePattern, Var, parse_query
from trq.terms import Term, TermKind

from conftest import EX, MOVIE_QUERY, make_query, pattern, reference_subquery_trees

PROLOG = f"PREFIX ex: <{EX}>\n"


def q_of(*pats):
    return make_query(list(pats))


def node_variables(q, tree):
    """The variables in subject or object position of the patterns a tree covers."""
    return {a.name for i in tree.covered for a in (q.patterns[i].s, q.patterns[i].o) if isinstance(a, Var)}


# -- nodes ---------------------------------------------------------------


def test_build_merges_shared_atoms():
    # ?x, ?y and c are one node each; were the two c's apart, both would be
    # stripped as leaves and only pattern 0 would be left
    q = q_of(pattern("?x", "p", "?y"), pattern("?y", "q", "c"), pattern("?x", "r", "c"))
    assert enumerate_subquery_trees(q) == [SubqueryTree((0,), (1, 2)), SubqueryTree((1, 2), (0,))]


def test_build_keeps_parallel_edges_with_origins():
    # each parallel edge at c is a spanning tree on its own; c is then a
    # leaf, so both trees strip to the same empty tree
    q = q_of(pattern("?x", "p", "c"), pattern("?x", "q", "c"))
    assert enumerate_subquery_trees(q) == [SubqueryTree((), (0, 1))]


def test_build_distinguishes_predicate_position():
    # a constant used only as predicate is not a node: were ex:p one, one
    # edge could not span three nodes
    assert enumerate_subquery_trees(q_of(pattern("?x", "p", "?y"))) == [SubqueryTree((0,), ())]


def test_self_loop_pattern():
    # a variable self-loop spans its single node with no edge
    assert enumerate_subquery_trees(q_of(pattern("?x", "p", "?x"))) == [SubqueryTree((), (0,))]
    # a self-loop adds 2 to its node's degree: c is no leaf, so it stays apart
    with pytest.raises(DisconnectedQueryError):
        enumerate_subquery_trees(q_of(pattern("c", "p", "c"), pattern("?x", "q", "?y")))


# -- constant-leaf removal ---------------------------------------------


def test_strip_single_constant_leaf():
    q = q_of(pattern("?x", "p", "?y"), pattern("?x", "type", "C"))
    assert enumerate_subquery_trees(q) == [SubqueryTree((0,), (1,))]


def test_strip_cascades():
    # c1 is a leaf, and once its edge is gone c2 is one
    q = q_of(pattern("c1", "p", "c2"), pattern("c2", "p", "?x"), pattern("?x", "q", "?y"))
    assert enumerate_subquery_trees(q) == [SubqueryTree((2,), (0, 1))]


def test_strip_keeps_shared_constants():
    # constant with degree 3 stays, and the star is the one tree
    q = q_of(pattern("?x", "p", "c"), pattern("?y", "q", "c"), pattern("?z", "r", "c"))
    assert enumerate_subquery_trees(q) == [SubqueryTree((0, 1, 2), ())]


def test_strip_never_removes_variables():
    # variable leaf nodes survive even at degree 1
    q = q_of(pattern("?x", "p", "c"), pattern("c", "q", "?y"))
    assert enumerate_subquery_trees(q) == [SubqueryTree((0, 1), ())]


def test_strip_idempotent():
    # a tree's patterns strip no further: each is its own only tree
    q = parse_query(MOVIE_QUERY)
    for t in enumerate_subquery_trees(q):
        own = make_query([q.patterns[i] for i in t.covered])
        assert enumerate_subquery_trees(own) == [SubqueryTree(tuple(range(len(t.covered))), ())]


def test_movie_query_reduction_shape(monkeypatch):
    # 6 nodes and 7 edges strip to 4 nodes and 5 edges: C(5,3) = 10
    monkeypatch.setattr(trq.qgraph, "MAX_COMBINATIONS", 0)
    with pytest.raises(BudgetExceededError) as e:
        enumerate_subquery_trees(parse_query(MOVIE_QUERY))
    assert (e.value.edges, e.value.choose, e.value.combinations) == (5, 3, 10)


# -- connectivity ------------------------------------------------------


def test_connected_checks():
    assert enumerate_subquery_trees(q_of(pattern("?x", "p", "?y"))) == [SubqueryTree((0,), ())]
    # c1 and c3 are leaves; c2 is left at degree 0 and stays a node apart
    q = q_of(pattern("c1", "p", "c2"), pattern("c3", "p", "c2"), pattern("?x", "q", "?y"))
    with pytest.raises(DisconnectedQueryError):
        enumerate_subquery_trees(q)


def test_disconnected_query_raises():
    q = q_of(pattern("?x", "p", "?y"), pattern("?a", "p", "?b"))
    with pytest.raises(DisconnectedQueryError):
        enumerate_subquery_trees(q)


@pytest.mark.parametrize(
    "patterns",
    [
        [("a", "p", "b")],  # every node a constant leaf: the reduced graph is empty
        [("a", "p", "b"), ("b", "p", "a")],  # a constant cycle survives the stripping
        [("a", "?p", "b")],  # a variable predicate is no node
    ],
)
def test_query_without_node_variable_raises(patterns):
    q = q_of(*(pattern(*t) for t in patterns))
    with pytest.raises(NoVariableError, match="trq ask"):
        enumerate_subquery_trees(q)


def test_disconnection_by_constant_removal_detected():
    # c has degree 2, so it is no leaf and joins ?x to ?y
    q = q_of(pattern("?x", "p", "c"), pattern("?y", "q", "c"))
    assert enumerate_subquery_trees(q) == [SubqueryTree((0, 1), ())]


def test_empty_graph_connected():
    # one node is connected: c1 is stripped and ?x is left alone
    assert enumerate_subquery_trees(q_of(pattern("c1", "p", "?x"))) == [SubqueryTree((), (0,))]


# -- deduplication -----------------------------------------------------


def test_canonical_form_ignores_edge_order():
    # patterns 0 and 2, and 1 and 3, are equal: every spanning tree is ?x p ?y . ?y q ?z
    a, b = pattern("?x", "p", "?y"), pattern("?y", "q", "?z")
    assert enumerate_subquery_trees(q_of(a, b, a, b)) == [SubqueryTree((0, 1), (2, 3))]


def test_canonical_form_distinguishes_direction():
    q = q_of(pattern("?x", "p", "?y"), pattern("?y", "p", "?x"))
    assert [t.covered for t in enumerate_subquery_trees(q)] == [(0,), (1,)]


# -- tree enumeration --------------------------------------------------


def tree_count(q):
    return len(enumerate_subquery_trees(q))


def test_path_query_single_tree():
    q = q_of(pattern("?x", "p", "?y"), pattern("?y", "q", "?z"))
    trees = enumerate_subquery_trees(q)
    assert len(trees) == 1
    assert trees[0] == SubqueryTree((0, 1), ())


def test_cycle4_has_four_trees():
    q = q_of(
        pattern("?a", "p", "?b"),
        pattern("?b", "p", "?c"),
        pattern("?c", "p", "?d"),
        pattern("?d", "p", "?a"),
    )
    trees = enumerate_subquery_trees(q)
    assert len(trees) == 4
    # each tree drops exactly one cycle edge
    assert sorted(t.dropped for t in trees) == [(0,), (1,), (2,), (3,)]


def test_k4_has_sixteen_trees():
    pats = []
    names = ["a", "b", "c", "d"]
    for i, j in itertools.combinations(range(4), 2):
        pats.append(pattern(f"?{names[i]}", f"p{i}{j}", f"?{names[j]}"))
    assert tree_count(make_query(pats)) == 16  # Cayley: 4^{4-2}


def test_movie_query_eight_trees():
    q = parse_query(MOVIE_QUERY)
    trees = enumerate_subquery_trees(q)
    assert len(trees) == 8
    # reduced graph has 5 edges over 4 nodes: C(5,3) = 10 subsets, 2 not spanning
    for t in trees:
        # type edges (origins 3 and 6) hang off constant leaves: never covered
        assert {3, 6} <= set(t.dropped)
        assert node_variables(q, t) == {"film", "actor1", "actor2", "child"}


def test_parallel_edges_give_separate_trees():
    q = q_of(pattern("?x", "p", "?y"), pattern("?x", "q", "?y"))
    trees = enumerate_subquery_trees(q)
    assert len(trees) == 2
    assert sorted(t.covered for t in trees) == [(0,), (1,)]


def test_duplicate_patterns_dedup_to_one_tree():
    q = q_of(pattern("?x", "p", "?y"), pattern("?x", "p", "?y"))
    # both edges have the same labels; spanning trees are isomorphic
    assert tree_count(q) == 1


def test_variable_set_preserved_in_every_tree():
    q = q_of(
        pattern("?a", "p", "?b"),
        pattern("?b", "q", "?c"),
        pattern("?c", "r", "?a"),
        pattern("?a", "type", "C"),
    )
    for t in enumerate_subquery_trees(q):
        assert node_variables(q, t) == {"a", "b", "c"}


def test_second_strip_drops_tree_constant_leaves():
    # a shared constant has degree 2 in the reduced triangle; spanning
    # trees that take only one of its edges leave it at degree 1 and the
    # re-strip removes it, so the two one-edge trees collapse into one
    q = q_of(pattern("?x", "p", "c"), pattern("?y", "q", "c"), pattern("?x", "r", "?y"))
    trees = enumerate_subquery_trees(q)
    assert sorted(t.covered for t in trees) == [(0, 1), (2,)]


def test_dropped_plus_covered_partition_origins():
    q = parse_query(MOVIE_QUERY)
    all_origins = set(range(len(q.patterns)))
    for t in enumerate_subquery_trees(q):
        assert set(t.covered) | set(t.dropped) == all_origins
        assert set(t.covered) & set(t.dropped) == set()
        assert list(t.covered) == sorted(t.covered) and list(t.dropped) == sorted(t.dropped)


def test_budget_error_reports_counts(monkeypatch):
    # 12 parallel edges between two vars: C(12,1) = 12 fine; crank max down
    monkeypatch.setattr(trq.qgraph, "MAX_COMBINATIONS", 5)
    pats = [pattern("?x", f"p{i}", "?y") for i in range(12)]
    with pytest.raises(BudgetExceededError) as e:
        enumerate_subquery_trees(make_query(pats))
    assert e.value.combinations == 12
    assert "spanning-tree candidates" in str(e.value)


def test_max_edges_budget():
    pats = [pattern(f"?v{i}", "p", f"?v{i + 1}") for i in range(17)]
    with pytest.raises(BudgetExceededError) as e:
        enumerate_subquery_trees(make_query(pats))
    # the edge cap trips, not the combinations: C(17,17) = 1
    assert (e.value.edges, e.value.choose, e.value.combinations) == (17, 17, 1)
    assert str(e.value) == (
        "combinatorial budget exceeded: 17 edges after constant-leaf removal, more than the cap of 16"
    )
    assert "spanning-tree candidates" not in str(e.value)


def test_degenerate_single_node_query_yields_no_edges():
    # c1 -> ?x -> c2 reduces to an isolated variable: one empty tree
    q = q_of(pattern("c1", "p", "?x"), pattern("?x", "q", "c2"))
    trees = enumerate_subquery_trees(q)
    assert trees == [SubqueryTree((), (0, 1))]


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 6), st.integers(0, 2**31 - 1))
def test_random_cycles_tree_count_equals_cycle_length(k, seed):
    # a simple k-cycle of variables has exactly k spanning trees
    pats = [pattern(f"?v{i}", f"p{i}", f"?v{(i + 1) % k}") for i in range(k)]
    assert tree_count(make_query(pats)) == k


# -- the enumerator over graph objects as the oracle ---------------------

# Subject/object atoms, variables drawn more often so that more queries
# connect. The literal and the IRI hold ; and |, which cannot make two
# trees' label strings equal in these forms.
NODES = ("?a", "?b", "?c", "?d", "?a", "?b", "?c", "c1", "c2", "c1",
         Const(Term.literal("x|y;z")), Const(Term.iri("http://e/a;b")))
PREDICATES = ("p", "q", "?v")


def outcome(enumerate_, q):
    """The trees as (covered, dropped) index tuples, or the error raised."""
    try:
        trees = enumerate_(q)
    except ValueError as exc:
        counts = (exc.edges, exc.choose, exc.combinations) if isinstance(exc, BudgetExceededError) else None
        return type(exc), str(exc), counts
    return [
        (t.covered, t.dropped) if isinstance(t, SubqueryTree) else (t.covered_origins(), tuple(sorted(t.dropped_origins)))
        for t in trees
    ]


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(NODES), st.sampled_from(PREDICATES), st.sampled_from(NODES)), min_size=1, max_size=8),
    st.sampled_from([16, 16, 3, 1]),
    st.sampled_from([trq.qgraph.MAX_COMBINATIONS, trq.qgraph.MAX_COMBINATIONS, 2]),
)
@example(  # parallel edges, a duplicated pattern and a self-loop
    [("?a", "p", "?b"), ("?a", "q", "?b"), ("?a", "p", "?b"), ("?b", "p", "?b"), ("?b", "q", "?c"), ("?c", "p", "?a")],
    16,
    trq.qgraph.MAX_COMBINATIONS,
)
@example([("c1", "p", "c2"), ("c3", "p", "c2"), ("?a", "q", "?b")], 16, trq.qgraph.MAX_COMBINATIONS)  # isolated constant
@example([("c1", "p", "c2"), ("c3", "p", "c2")], 16, trq.qgraph.MAX_COMBINATIONS)  # no variable
@example([("c1", "p", "?a"), ("?a", "p", "c1"), ("?a", "?v", "?a")], 16, trq.qgraph.MAX_COMBINATIONS)  # one node
@example([("?a", "p", "?b"), ("?b", "p", "?c"), ("?c", "p", "?d")], 2, trq.qgraph.MAX_COMBINATIONS)  # edge cap
@example([("?a", "p", "?b"), ("?b", "p", "?c"), ("?c", "p", "?a")], 16, 2)  # combinations cap
def test_trees_match_the_graph_object_enumerator(patterns, max_edges, max_combinations):
    q = make_query([pattern(*t) for t in patterns])
    with (
        mock.patch.object(trq.qgraph, "MAX_COMBINATIONS", max_combinations),
        mock.patch.object(conftest, "MAX_COMBINATIONS", max_combinations),
        mock.patch.object(trq.qgraph, "MAX_EDGES", max_edges),
        mock.patch.object(conftest, "MAX_EDGES", max_edges),
    ):
        assert outcome(enumerate_subquery_trees, q) == outcome(reference_subquery_trees, q)


def test_trees_whose_label_strings_join_alike_stay_apart():
    # The graph-object enumerator keyed a tree by its sorted edge labels
    # joined with | and ;. IRIs holding those characters and < > make the
    # trees on patterns 0, 1, 4 and 2, 3, 4 join to the same string, so it
    # kept only the first. No query text writes such an IRI, so the query
    # is built from its terms.
    def iri(value):
        return Const(Term(TermKind.IRI, value))

    x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")
    q = Query(QueryForm.SELECT, (
        TriplePattern(x, iri("e:a>|?y;?y|<e:b"), z),
        TriplePattern(z, iri("e:c"), w),
        TriplePattern(x, iri("e:a"), y),
        TriplePattern(y, iri("e:b>|?z;?z|<e:c"), w),
        TriplePattern(z, iri("e:d"), y),
    ), ("x", "z", "w", "y"))
    covers = [t.covered for t in enumerate_subquery_trees(q)]
    assert (0, 1, 4) in covers and (2, 3, 4) in covers and len(covers) == 8
    assert [t.covered_origins() for t in reference_subquery_trees(q)] == covers[:-1]
