from __future__ import annotations

import math

import numpy as np
import pytest

from trq.scoring import (
    EdgeForm,
    classify,
    delta,
    edge_weights,
    edit_distance,
    index_of,
    instantiate_ids,
    score_graph,
    score_solution,
)

from conftest import build_graph, ex, make_query, pattern, small_emb


@pytest.fixture(scope="module")
def twop():
    # two triples sharing their object: dom(p) = 2, ran(p) = 1
    return build_graph([("a", "p", "b"), ("c", "p", "b")])


def test_classify_forms():
    assert classify(pattern("?x", "p", "?y")) is EdgeForm.VAR_VAR
    assert classify(pattern("?x", "p", "b")) is EdgeForm.VAR_CONST
    assert classify(pattern("a", "p", "?y")) is EdgeForm.CONST_VAR
    assert classify(pattern("a", "p", "b")) is EdgeForm.CONST_CONST
    from trq.sparql import TriplePattern, Var

    vp = TriplePattern(Var("x"), Var("p"), Var("y"))
    assert classify(vp) is EdgeForm.VAR_PREDICATE


def test_delta_var_var(twop):
    assert delta(twop, pattern("?x", "p", "?y")) == 1.5


def test_delta_var_const(twop):
    assert delta(twop, pattern("?x", "p", "b")) == 2.0
    # no subject reaches a through p: clamped to 1
    assert delta(twop, pattern("?x", "p", "a")) == 1.0


def test_delta_const_var(twop):
    assert delta(twop, pattern("a", "p", "?y")) == 1.0
    assert delta(twop, pattern("c", "p", "?y")) == 1.0


def test_delta_const_const(twop):
    assert delta(twop, pattern("a", "p", "b")) == 1.0
    assert delta(twop, pattern("a", "p", "zzz")) == 1.0


def test_delta_unknown_relation_clamps_to_one(twop):
    assert delta(twop, pattern("?x", "nosuch", "?y")) == 1.0


def test_delta_variable_predicate_rejected(twop):
    from trq.sparql import TriplePattern, Var

    with pytest.raises(ValueError):
        delta(twop, TriplePattern(Var("x"), Var("p"), Var("y")))


def test_index_and_weights_worked_example(twop):
    pats = [pattern("?x", "p", "?y"), pattern("?x", "p", "b")]
    assert index_of(twop, pats) == 3.5
    ws = edge_weights(twop, pats)
    assert ws[0] == pytest.approx(7.0 / 3.0)
    assert ws[1] == pytest.approx(1.75)
    assert edge_weights(twop, pats)[0] == pytest.approx(7.0 / 3.0)
    assert score_graph(twop, pats) == pytest.approx(49.0 / 12.0)


def test_selective_patterns_weigh_more():
    g = build_graph(
        [("a", "p", f"x{i}") for i in range(9)]
        + [("b", "q", "c")]
    )
    pats = [pattern("?s", "p", "?o"), pattern("?s2", "q", "c")]
    ws = edge_weights(g, pats)
    # q reaches one subject, p many: the q pattern dominates
    assert ws[1] > ws[0]


def test_instantiate_and_edit_distance(twop):
    pats = [pattern("?x", "p", "?y"), pattern("?x", "p", "b")]
    a, b, c = twop.id(ex("a")), twop.id(ex("b")), twop.id(ex("c"))
    assert edit_distance(twop, pats, {"x": a, "y": b}) == 0
    assert edit_distance(twop, pats, {"x": b, "y": a}) == 2
    assert edit_distance(twop, pats, {"x": c, "y": b}) == 0
    # unknown constant counts as missing
    pats2 = [pattern("?x", "p", "?y"), pattern("?x", "p", "zzz")]
    assert edit_distance(twop, pats2, {"x": a, "y": b}) == 1
    assert instantiate_ids(twop, pats2[1], {"x": a, "y": b}) is None


def test_edit_distance_requires_total_mapping(twop):
    with pytest.raises(KeyError):
        edit_distance(twop, [pattern("?x", "p", "?y")], {"x": 0})


def test_exact_solution_scores_score_graph_bitwise(twop):
    emb = small_emb(twop)
    pats = [pattern("?x", "p", "?y"), pattern("?x", "p", "b")]
    a, b = twop.id(ex("a")), twop.id(ex("b"))
    sol = score_solution(twop, pats, {"x": a, "y": b}, emb)
    assert sol.edit_distance == 0
    # identical float operations: equality is exact, not approximate
    assert sol.score == score_graph(twop, pats)
    assert all(e.f == 1.0 and e.in_graph for e in sol.per_edge)


def test_inexact_solution_scores_strictly_below_maximum(twop):
    emb = small_emb(twop)
    pats = [pattern("?x", "p", "?y"), pattern("?x", "p", "b")]
    b, c = twop.id(ex("b")), twop.id(ex("c"))
    sol = score_solution(twop, pats, {"x": b, "y": c}, emb)
    assert sol.edit_distance == 2
    assert sol.score < score_graph(twop, pats)
    assert all(0.0 < e.f < 1.0 for e in sol.per_edge)


def test_score_decomposes_per_edge(twop):
    emb = small_emb(twop)
    pats = [pattern("?x", "p", "?y"), pattern("?x", "p", "b")]
    a, c = twop.id(ex("a")), twop.id(ex("c"))
    sol = score_solution(twop, pats, {"x": a, "y": c}, emb)
    assert sol.score == pytest.approx(sum(e.weight * e.f for e in sol.per_edge))
    assert sol.per_edge[0].weight == pytest.approx(7.0 / 3.0)


def test_uniform_f_overrides_embedding(twop):
    emb = small_emb(twop)
    pats = [pattern("?x", "p", "?y"), pattern("?x", "p", "b")]
    a, c = twop.id(ex("a")), twop.id(ex("c"))
    sol = score_solution(twop, pats, {"x": a, "y": c}, emb, uniform_f=0.5)
    assert sol.score == pytest.approx(0.5 * score_graph(twop, pats))
    assert {e.f for e in sol.per_edge} == {0.5}


def test_unknown_constant_falls_back_to_floor(twop):
    emb = small_emb(twop)
    pats = [pattern("?x", "p", "zzz")]
    a = twop.id(ex("a"))
    sol = score_solution(twop, pats, {"x": a}, emb)
    floor = 1.0 / (1.0 + emb.margin)
    assert sol.per_edge[0].fallback
    assert sol.per_edge[0].f == floor


def test_unembedded_term_falls_back_to_floor(twop):
    emb = small_emb(twop)
    g2 = build_graph([("a", "p", "b"), ("c", "p", "b"), ("new", "p", "a")])
    emb.bind(g2)
    pats = [pattern("?x", "p", "?y")]
    sol = score_solution(g2, pats, {"x": g2.id(ex("new")), "y": g2.id(ex("b"))}, emb)
    assert sol.per_edge[0].fallback
    assert sol.per_edge[0].f == 1.0 / (1.0 + emb.margin)


def test_precomputed_weights_reused(twop):
    emb = small_emb(twop)
    pats = [pattern("?x", "p", "?y"), pattern("?x", "p", "b")]
    a, b = twop.id(ex("a")), twop.id(ex("b"))
    ws = [10.0, 20.0]
    sol = score_solution(twop, pats, {"x": a, "y": b}, emb, weights=ws)
    assert sol.score == pytest.approx(30.0)


def test_binding_key_sorted_variable_order(twop):
    emb = small_emb(twop)
    pats = [pattern("?zeta", "p", "?alpha")]
    a, b = twop.id(ex("a")), twop.id(ex("b"))
    sol = score_solution(twop, pats, {"zeta": a, "alpha": b}, emb)
    # alpha sorts first
    assert sol.binding_key == (ex("b").nt(), ex("a").nt())


def test_score_monotone_in_f(twop):
    # every weight is positive, so raising any f raises the score
    emb = small_emb(twop)
    pats = [pattern("?x", "p", "?y"), pattern("?x", "p", "b")]
    ws = edge_weights(twop, pats)
    assert all(w > 0 for w in ws)
    lo = sum(w * 0.2 for w in ws)
    hi = sum(w * 0.9 for w in ws)
    assert lo < hi <= sum(ws) * 0.9 + 1e-12
