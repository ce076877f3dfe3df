from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import trq.qgraph
from trq.qgraph import (
    BudgetExceededError,
    DisconnectedQueryError,
    NoVariableError,
    QueryGraph,
    build_query_graph,
    canonical_form,
    del_constant_leaf,
    enumerate_subquery_trees,
    is_connected,
)
from trq.sparql import Const, Var, parse_query

from conftest import EX, MOVIE_QUERY, make_query, pattern

PROLOG = f"PREFIX ex: <{EX}>\n"


def q_of(*pats):
    return make_query(list(pats))


# -- graph construction ------------------------------------------------


def test_build_merges_shared_atoms():
    q = q_of(pattern("?x", "p", "?y"), pattern("?y", "q", "c"), pattern("?x", "r", "c"))
    g = build_query_graph(q)
    assert len(g.nodes) == 3  # ?x ?y c
    assert len(g.edges) == 3
    assert g.variables() == {"x", "y"}


def test_build_keeps_parallel_edges_with_origins():
    q = q_of(pattern("?x", "p", "?y"), pattern("?x", "q", "?y"))
    g = build_query_graph(q)
    assert len(g.edges) == 2
    assert sorted(e.origin for e in g.edges) == [0, 1]


def test_build_distinguishes_predicate_position():
    # a constant used only as predicate is not a node
    q = q_of(pattern("?x", "p", "?y"))
    g = build_query_graph(q)
    assert all(isinstance(n, Var) for n in g.nodes)


def test_self_loop_pattern():
    q = q_of(pattern("?x", "p", "?x"))
    g = build_query_graph(q)
    assert len(g.nodes) == 1
    assert g.degrees()[Var("x")] == 2


# -- constant-leaf removal ---------------------------------------------


def test_strip_single_constant_leaf():
    q = q_of(pattern("?x", "p", "?y"), pattern("?x", "type", "C"))
    r = del_constant_leaf(build_query_graph(q))
    assert len(r.nodes) == 2
    assert [e.origin for e in r.edges] == [0]


def test_strip_cascades():
    # c1 -> ?x -> c2: both constants are leaves; ?x survives alone
    q = q_of(pattern("c1", "p", "?x"), pattern("?x", "q", "c2"))
    r = del_constant_leaf(build_query_graph(q))
    assert [n for n in r.nodes] == [Var("x")]
    assert r.edges == ()


def test_strip_keeps_shared_constants():
    # constant with degree 2 stays
    q = q_of(pattern("?x", "p", "c"), pattern("?y", "q", "c"), pattern("?x", "r", "?y"))
    r = del_constant_leaf(build_query_graph(q))
    assert len(r.nodes) == 3
    assert len(r.edges) == 3


def test_strip_never_removes_variables():
    # variable leaf nodes survive even at degree 1
    q = q_of(pattern("?x", "p", "?y"), pattern("?y", "q", "?z"))
    r = del_constant_leaf(build_query_graph(q))
    assert set(r.nodes) == {Var("x"), Var("y"), Var("z")}


def test_strip_idempotent():
    q = parse_query(MOVIE_QUERY)
    r1 = del_constant_leaf(build_query_graph(q))
    r2 = del_constant_leaf(r1)
    assert r1 == r2


def test_movie_query_reduction_shape():
    q = parse_query(MOVIE_QUERY)
    g = build_query_graph(q)
    assert (len(g.nodes), len(g.edges)) == (6, 7)
    r = del_constant_leaf(g)
    assert (len(r.nodes), len(r.edges)) == (4, 5)
    assert {n.name for n in r.nodes if isinstance(n, Var)} == {
        "film",
        "actor1",
        "actor2",
        "child",
    }


# -- connectivity ------------------------------------------------------


def test_connected_checks():
    q = q_of(pattern("?x", "p", "?y"))
    assert is_connected(build_query_graph(q))
    q2 = q_of(pattern("?x", "p", "?y"), pattern("?a", "p", "?b"))
    assert not is_connected(build_query_graph(q2))


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
    # two var components joined only through a shared... not joined at all:
    # c is a leaf on each side only if degree 1; here degree 2 keeps it, so
    # the graph stays connected through the constant.
    q = q_of(pattern("?x", "p", "c"), pattern("?y", "q", "c"))
    trees = enumerate_subquery_trees(q)
    assert trees  # connected through the shared constant


def test_empty_graph_connected():
    assert is_connected(QueryGraph((), ()))


# -- canonical form ----------------------------------------------------


def test_canonical_form_ignores_edge_order():
    q1 = q_of(pattern("?x", "p", "?y"), pattern("?y", "q", "?z"))
    q2 = q_of(pattern("?y", "q", "?z"), pattern("?x", "p", "?y"))
    c1 = canonical_form(build_query_graph(q1))
    c2 = canonical_form(build_query_graph(q2))
    assert c1 == c2


def test_canonical_form_distinguishes_direction():
    c1 = canonical_form(build_query_graph(q_of(pattern("?x", "p", "?y"))))
    c2 = canonical_form(build_query_graph(q_of(pattern("?y", "p", "?x"))))
    assert c1 != c2


# -- tree enumeration --------------------------------------------------


def tree_count(q):
    return len(enumerate_subquery_trees(q))


def test_path_query_single_tree():
    q = q_of(pattern("?x", "p", "?y"), pattern("?y", "q", "?z"))
    trees = enumerate_subquery_trees(q)
    assert len(trees) == 1
    assert trees[0].covered_origins() == (0, 1)
    assert trees[0].dropped_origins == frozenset()


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
    assert sorted(tuple(t.dropped_origins) for t in trees) == [(0,), (1,), (2,), (3,)]


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
        assert {3, 6} <= set(t.dropped_origins)
        assert t.graph.variables() == {"film", "actor1", "actor2", "child"}


def test_parallel_edges_give_separate_trees():
    q = q_of(pattern("?x", "p", "?y"), pattern("?x", "q", "?y"))
    trees = enumerate_subquery_trees(q)
    assert len(trees) == 2
    assert sorted(t.covered_origins() for t in trees) == [(0,), (1,)]


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
        assert t.graph.variables() == {"a", "b", "c"}


def test_second_strip_drops_tree_constant_leaves():
    # a shared constant has degree 2 in the reduced triangle; spanning
    # trees that take only one of its edges leave it at degree 1 and the
    # re-strip removes it, so the two one-edge trees collapse into one
    q = q_of(pattern("?x", "p", "c"), pattern("?y", "q", "c"), pattern("?x", "r", "?y"))
    trees = enumerate_subquery_trees(q)
    covers = sorted(t.covered_origins() for t in trees)
    assert covers == [(0, 1), (2,)]
    star = next(t for t in trees if t.covered_origins() == (0, 1))
    assert any(isinstance(n, Const) for n in star.graph.nodes)


def test_dropped_plus_covered_partition_origins():
    q = parse_query(MOVIE_QUERY)
    all_origins = set(range(len(q.patterns)))
    for t in enumerate_subquery_trees(q):
        covered = set(t.covered_origins())
        assert covered | set(t.dropped_origins) == all_origins
        assert covered & set(t.dropped_origins) == set()


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
        enumerate_subquery_trees(make_query(pats), max_edges=16)
    # the edge cap trips, not the combinations: C(17,17) = 1
    assert (e.value.edges, e.value.choose, e.value.combinations) == (17, 17, 1)
    assert "17 edges" in str(e.value) and "max_edges = 16" in str(e.value)
    assert "spanning-tree candidates" not in str(e.value)


@pytest.mark.parametrize("max_edges", [0, -1])
def test_max_edges_below_one_is_rejected(max_edges):
    q = make_query([pattern("?x", "p", "?y"), pattern("?y", "q", "?z")])
    with pytest.raises(ValueError, match="max_edges must be at least 1") as e:
        enumerate_subquery_trees(q, max_edges=max_edges)
    assert not isinstance(e.value, BudgetExceededError)


def test_degenerate_single_node_query_yields_no_edges():
    # c1 -> ?x -> c2 reduces to an isolated variable: one empty tree
    q = q_of(pattern("c1", "p", "?x"), pattern("?x", "q", "c2"))
    trees = enumerate_subquery_trees(q)
    assert len(trees) == 1
    assert trees[0].graph.edges == ()
    assert set(trees[0].dropped_origins) == {0, 1}


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 6), st.integers(0, 2**31 - 1))
def test_random_cycles_tree_count_equals_cycle_length(k, seed):
    # a simple k-cycle of variables has exactly k spanning trees
    pats = [pattern(f"?v{i}", f"p{i}", f"?v{(i + 1) % k}") for i in range(k)]
    assert tree_count(make_query(pats)) == k
