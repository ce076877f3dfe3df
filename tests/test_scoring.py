from __future__ import annotations

import math

import numpy as np
import pytest

from trq.recommend import _top
from trq.scoring import (
    delta,
    edge_weights,
    in_graph_flags,
    score_graph,
    score_table,
    scored_solution,
)
from trq.sparql import resolve_patterns

from conftest import build_graph, ex, make_query, pattern, small_emb


def delta_of(g, s, p, o):
    """``delta`` of one parsed pattern, resolved first."""
    return delta(g, resolve_patterns(g, [pattern(s, p, o)])[0])


def score_row(view, patterns, mapping, weights=None, uniform_f=None):
    """One total mapping scored as recommend scores its candidates: a
    one-row binding table over the sorted variables, every pattern's flag
    looked up, then score_table, with the binding key ``_top`` renders."""
    g = view.graph
    resolved = resolve_patterns(g, patterns)
    if weights is None:
        weights = edge_weights(g, resolved)
    variables = tuple(sorted(mapping))
    row = np.array([[mapping[v] for v in variables]], dtype=np.int64)
    flags = in_graph_flags(g, resolved, variables, row, range(len(patterns)))
    total, f, fallback = score_table(view, resolved, weights, variables, row, flags, uniform_f)
    distance = (~flags).sum(axis=1)
    _, (key,) = _top(g, row, total, distance, 1)
    return scored_solution(mapping, key, weights, flags[0], distance[0], f[0], fallback[0], total[0])


@pytest.fixture(scope="module")
def twop():
    # two triples sharing their object: dom(p) = 2, ran(p) = 1
    return build_graph([("a", "p", "b"), ("c", "p", "b")])


def test_delta_var_var(twop):
    assert delta_of(twop, "?x", "p", "?y") == 1.5


def test_delta_var_const(twop):
    assert delta_of(twop, "?x", "p", "b") == 2.0
    # no subject reaches a through p: clamped to 1
    assert delta_of(twop, "?x", "p", "a") == 1.0


def test_delta_const_var(twop):
    assert delta_of(twop, "a", "p", "?y") == 1.0
    assert delta_of(twop, "c", "p", "?y") == 1.0


def test_delta_const_const(twop):
    assert delta_of(twop, "a", "p", "b") == 1.0
    assert delta_of(twop, "a", "p", "zzz") == 1.0


def test_delta_unknown_relation_clamps_to_one(twop):
    assert delta_of(twop, "?x", "nosuch", "?y") == 1.0


def test_delta_variable_predicate_rejected(twop):
    with pytest.raises(ValueError):
        delta(twop, ("x", "p", "y"))


def test_index_and_weights_worked_example(twop):
    pats = [pattern("?x", "p", "?y"), pattern("?x", "p", "b")]
    resolved = resolve_patterns(twop, pats)
    assert sum(delta(twop, e) for e in resolved) == 3.5
    ws = edge_weights(twop, resolved)
    assert ws[0] == pytest.approx(7.0 / 3.0)
    assert ws[1] == pytest.approx(1.75)
    assert edge_weights(twop, resolved)[0] == pytest.approx(7.0 / 3.0)
    assert score_graph(twop, pats) == pytest.approx(49.0 / 12.0)


def test_selective_patterns_weigh_more():
    g = build_graph(
        [("a", "p", f"x{i}") for i in range(9)]
        + [("b", "q", "c")]
    )
    pats = [pattern("?s", "p", "?o"), pattern("?s2", "q", "c")]
    ws = edge_weights(g, resolve_patterns(g, pats))
    # q reaches one subject, p many: the q pattern dominates
    assert ws[1] > ws[0]


def test_in_graph_flags_count_edit_distance(twop):
    pats = [pattern("?x", "p", "?y"), pattern("?x", "p", "b")]
    a, b, c = twop.id(ex("a")), twop.id(ex("b")), twop.id(ex("c"))
    # one row per mapping, columns (x, y)
    rows = np.array([[a, b], [b, a], [c, b]], dtype=np.int64)
    flags = in_graph_flags(twop, resolve_patterns(twop, pats), ("x", "y"), rows, range(2))
    assert (~flags).sum(axis=1).tolist() == [0, 2, 0]
    # unknown constant resolves to None and counts as missing
    pats2 = [pattern("?x", "p", "?y"), pattern("?x", "p", "zzz")]
    resolved = resolve_patterns(twop, pats2)
    assert resolved[1] == ("x", twop.id(ex("p")), None)
    flags = in_graph_flags(twop, resolved, ("x", "y"), rows[:1], range(2))
    assert (~flags).sum(axis=1).tolist() == [1]


def test_in_graph_flags_look_up_only_the_named_patterns(twop):
    pats = [pattern("?x", "p", "?y"), pattern("?x", "p", "b")]
    a, b = twop.id(ex("a")), twop.id(ex("b"))
    rows = np.array([[b, a]], dtype=np.int64)  # misses both patterns
    flags = in_graph_flags(twop, resolve_patterns(twop, pats), ("x", "y"), rows, [1])
    assert flags.tolist() == [[True, False]]


def test_exact_solution_scores_score_graph_bitwise(twop):
    emb = small_emb(twop)
    pats = [pattern("?x", "p", "?y"), pattern("?x", "p", "b")]
    a, b = twop.id(ex("a")), twop.id(ex("b"))
    sol = score_row(emb.bind(twop), pats, {"x": a, "y": b})
    assert sol.edit_distance == 0
    # identical float operations: equality is exact, not approximate
    assert sol.score == score_graph(twop, pats)
    assert all(e.f == 1.0 and e.in_graph for e in sol.per_edge)


def test_inexact_solution_scores_strictly_below_maximum(twop):
    emb = small_emb(twop)
    pats = [pattern("?x", "p", "?y"), pattern("?x", "p", "b")]
    b, c = twop.id(ex("b")), twop.id(ex("c"))
    sol = score_row(emb.bind(twop), pats, {"x": b, "y": c})
    assert sol.edit_distance == 2
    assert sol.score < score_graph(twop, pats)
    assert all(0.0 < e.f < 1.0 for e in sol.per_edge)


def test_score_decomposes_per_edge(twop):
    emb = small_emb(twop)
    pats = [pattern("?x", "p", "?y"), pattern("?x", "p", "b")]
    a, c = twop.id(ex("a")), twop.id(ex("c"))
    sol = score_row(emb.bind(twop), pats, {"x": a, "y": c})
    assert sol.score == pytest.approx(sum(e.weight * e.f for e in sol.per_edge))
    assert sol.per_edge[0].weight == pytest.approx(7.0 / 3.0)


def test_uniform_f_overrides_embedding(twop):
    emb = small_emb(twop)
    pats = [pattern("?x", "p", "?y"), pattern("?x", "p", "b")]
    a, c = twop.id(ex("a")), twop.id(ex("c"))
    sol = score_row(emb.bind(twop), pats, {"x": a, "y": c}, uniform_f=0.5)
    assert sol.score == pytest.approx(0.5 * score_graph(twop, pats))
    assert {e.f for e in sol.per_edge} == {0.5}


def test_unknown_constant_falls_back_to_floor(twop):
    emb = small_emb(twop)
    pats = [pattern("?x", "p", "zzz")]
    a = twop.id(ex("a"))
    sol = score_row(emb.bind(twop), pats, {"x": a})
    floor = 1.0 / (1.0 + emb.margin)
    assert sol.per_edge[0].fallback
    assert sol.per_edge[0].f == floor


def test_unembedded_term_falls_back_to_floor(twop):
    emb = small_emb(twop)
    g2 = build_graph([("a", "p", "b"), ("c", "p", "b"), ("new", "p", "a")])
    pats = [pattern("?x", "p", "?y")]
    sol = score_row(emb.bind(g2), pats, {"x": g2.id(ex("new")), "y": g2.id(ex("b"))})
    assert sol.per_edge[0].fallback
    assert sol.per_edge[0].f == 1.0 / (1.0 + emb.margin)


def test_precomputed_weights_reused(twop):
    emb = small_emb(twop)
    pats = [pattern("?x", "p", "?y"), pattern("?x", "p", "b")]
    a, b = twop.id(ex("a")), twop.id(ex("b"))
    ws = [10.0, 20.0]
    sol = score_row(emb.bind(twop), pats, {"x": a, "y": b}, weights=ws)
    assert sol.score == pytest.approx(30.0)


def test_binding_key_sorted_variable_order(twop):
    emb = small_emb(twop)
    pats = [pattern("?zeta", "p", "?alpha")]
    a, b = twop.id(ex("a")), twop.id(ex("b"))
    sol = score_row(emb.bind(twop), pats, {"zeta": a, "alpha": b})
    # alpha sorts first
    assert sol.binding_key == (ex("b").nt(), ex("a").nt())


def test_score_monotone_in_f(twop):
    # every weight is positive, so raising any f raises the score
    emb = small_emb(twop)
    pats = [pattern("?x", "p", "?y"), pattern("?x", "p", "b")]
    ws = edge_weights(twop, resolve_patterns(twop, pats))
    assert all(w > 0 for w in ws)
    lo = sum(w * 0.2 for w in ws)
    hi = sum(w * 0.9 for w in ws)
    assert lo < hi <= sum(ws) * 0.9 + 1e-12
