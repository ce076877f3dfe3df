from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import trq.sparql as sparql_mod
from trq.recommend import (
    QueryUnmatchableError,
    Recommendation,
    RecommendRequest,
    VariablePredicateError,
    _repeated,
    _top,
    recommend,
    relaxations,
)
from trq.qgraph import enumerate_subquery_trees
from trq.scoring import ScoredSolution, in_graph_flags, score_graph
from trq.sparql import Const, JoinPrefixes, TriplePattern, Var, parse_query, resolve_patterns
from trq.store import Graph

from conftest import (
    MOVIE_QUERY,
    _reference_repeated,
    binding_keys,
    brute_candidates,
    build_graph,
    candidate_instance,
    ex,
    make_query,
    movie_graph,
    pattern,
    reference_rank,
    reference_recommend,
    reference_score_solution,
    small_emb,
)


@pytest.fixture(scope="module")
def movies():
    return movie_graph()


@pytest.fixture(scope="module")
def movie_emb(movies):
    return small_emb(movies, seed=7, dim=16, epochs=40)


@pytest.fixture(scope="module")
def stars():
    return build_graph(
        [
            ("f1", "starring", "ann"),
            ("f1", "starring", "bob"),
            ("f2", "starring", "ann"),
            ("f1", "type", "Film"),
            ("f2", "type", "Film"),
            ("f3", "starring", "cat"),
        ]
    )


def _req(q, emb, **kw):
    return RecommendRequest(query=q, embeddings=emb, **kw)


# -- ranking -----------------------------------------------------------


def _ranked(candidates, k, width=1):
    """``_top``'s first ``k`` of (score, edit distance, binding names)
    candidates, each as (score, edit distance, N-Triples binding key),
    and the same from ``reference_rank``."""
    g = build_graph([(x, "p", x) for _, _, names in candidates for x in names])
    rows = np.array([[g.id(ex(x)) for x in names] for _, _, names in candidates], dtype=np.int64)
    scores = np.array([score for score, _, _ in candidates], dtype=np.float64)
    distance = np.array([ed for _, ed, _ in candidates], dtype=np.int64)
    chosen, keys = _top(g, rows.reshape(len(candidates), width), scores, distance, min(k, len(candidates)))
    sols = [
        ScoredSolution({}, ed, score, (), tuple(ex(x).nt() for x in names))
        for score, ed, names in candidates
    ]
    assert keys == [sols[i].binding_key for i in chosen.tolist()]
    got = [(scores[i], distance[i], sols[i].binding_key) for i in chosen.tolist()]
    return got, [(s.score, s.edit_distance, s.binding_key) for s in reference_rank(sols, k)]


def test_rank_orders_by_score_then_edit_then_key():
    got, want = _ranked([(1.0, 2, ("b",)), (2.0, 1, ("z",)), (1.0, 1, ("c",)), (1.0, 1, ("a",))], 10)
    assert got == want
    assert [score for score, _, _ in got] == [2.0, 1.0, 1.0, 1.0]
    assert [key for _, _, key in got[1:]] == [(ex(x).nt(),) for x in ("a", "c", "b")]


def test_rank_truncates_to_k():
    got, want = _ranked([(float(i), 0, (f"t{i}",)) for i in range(9)], 3)
    assert got == want
    assert [score for score, _, _ in got] == [8.0, 7.0, 6.0]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([1.0, 2.0, 2.5]),
            st.integers(0, 2),
            st.tuples(st.text("ab", min_size=1, max_size=2), st.text("ab", min_size=1, max_size=2)),
        ),
        max_size=12,
    ),
    st.integers(1, 13),
)
def test_rank_matches_reference_sort(candidates, k):
    # ties on the score, on the edit distance and on either binding
    got, want = _ranked(candidates, k, width=2)
    assert got == want


# -- pipeline on the film toy ------------------------------------------


def test_movie_query_exactly_three_candidates(movies, movie_emb):
    q = parse_query(MOVIE_QUERY)
    rec = recommend(movies, _req(q, movie_emb))
    assert len(rec.solutions) == 3
    assert all(s.edit_distance == 1 for s in rec.solutions)
    # at threshold 2 a relaxation is one pattern that some tree drops: the
    # two type leaves are dropped by all eight trees, and each of the five
    # other patterns by at least one, so every pattern is one
    assert rec.trees_evaluated == 7
    assert not rec.truncated


def test_movie_scores_differ_only_in_type_edge(movies, movie_emb):
    q = parse_query(MOVIE_QUERY)
    rec = recommend(movies, _req(q, movie_emb))
    # pattern 6 (?child rdf:type ScreenWriter) is the only non-member edge
    for s in rec.solutions:
        for e in s.per_edge:
            if e.pattern == 6:
                assert not e.in_graph and 0.0 < e.f < 1.0
            else:
                assert e.in_graph and e.f == 1.0
    fs = [s.per_edge[6].f for s in rec.solutions]
    assert len(set(fs)) == 3
    # ranking follows the type-edge plausibility
    assert fs == sorted(fs, reverse=True)


def test_movie_solutions_bind_couples_not_swaps(movies, movie_emb):
    q = parse_query(MOVIE_QUERY)
    rec = recommend(movies, _req(q, movie_emb))
    got = {
        (
            movies.term(s.mapping["film"]),
            movies.term(s.mapping["actor1"]),
            movies.term(s.mapping["actor2"]),
        )
        for s in rec.solutions
    }
    from conftest import MOVIE_FAMILIES

    expect = {(ex(f), ex(a), ex(b)) for f, a, b, _ in MOVIE_FAMILIES}
    assert got == expect


def test_movie_uniform_f_ties_break_lexicographically(movies, movie_emb):
    q = parse_query(MOVIE_QUERY)
    rec = recommend(movies, _req(q, movie_emb, uniform_f=1.0))
    scores = {s.score for s in rec.solutions}
    assert len(scores) == 1  # structure only: all three tie
    keys = [s.binding_key for s in rec.solutions]
    assert keys == sorted(keys)
    # uniform_f reads no embedding, so it needs none
    assert _view(recommend(movies, _req(q, None, uniform_f=1.0)).solutions) == _view(rec.solutions)
    with pytest.raises(ValueError, match="needs uniform_f"):
        recommend(movies, _req(q, None))


def test_constants_are_encoded_once_and_terms_decoded_once(movies, movie_emb, monkeypatch):
    # Graph.id only resolves the query's constants, once per atom, and
    # Graph.term renders each term of the rows _top orders once; here
    # every candidate ties with or beats the k-th score, so _top orders
    # all of them
    q = parse_query(MOVIE_QUERY)
    encoded, decoded = [], []
    graph_id, graph_term = Graph.id, Graph.term

    def counting_id(self, term):
        encoded.append(term)
        return graph_id(self, term)

    def counting_term(self, tid):
        decoded.append(tid)
        return graph_term(self, tid)

    monkeypatch.setattr(Graph, "id", counting_id)
    monkeypatch.setattr(Graph, "term", counting_term)
    rec = recommend(movies, _req(q, movie_emb))
    monkeypatch.undo()
    assert rec.trees_evaluated >= 2 and len(rec.solutions) < 10
    constants = [a.term for pat in q.patterns for a in pat.atoms() if isinstance(a, Const)]
    assert sorted(encoded) == sorted(constants)
    assert len(decoded) == len(set(decoded))
    assert set(decoded) == {tid for s in rec.solutions for tid in s.mapping.values()}


def _view(solutions):
    return [(s.binding_key, s.score, s.edit_distance, s.per_edge, s.mapping) for s in solutions]


@pytest.mark.parametrize("model", ["transe", "transh"])
@pytest.mark.parametrize("uniform_f", [None, 0.5])
def test_top_k_is_the_head_of_the_full_ranking(model, uniform_f):
    # only the top k rows become ScoredSolutions; the result must still be
    # the first k of ranking every candidate, ties on the score included
    for seed in range(6):
        g, q = candidate_instance(np.random.default_rng(seed))
        emb = small_emb(g, model=model, epochs=2, dim=6)
        full = recommend(g, _req(q, emb, top_k=10**9, uniform_f=uniform_f)).solutions
        for k in sorted({1, 2, 5, max(1, len(full) - 1)}):
            got = recommend(g, _req(q, emb, top_k=k, uniform_f=uniform_f)).solutions
            assert _view(got) == _view(full[:k]), (seed, k)


_REFERENCE_SEEDS = range(4)


@pytest.fixture(scope="module")
def reference_instances():
    """Instances with their brute-force candidate mappings (threshold 2)."""
    out = []
    for seed in _REFERENCE_SEEDS:
        g, q = candidate_instance(np.random.default_rng(seed))
        out.append((g, q, [dict(c) for c in brute_candidates(g, q.patterns, 2)]))
    return out


def _edges(s):
    return [(e.in_graph, e.fallback) for e in s.per_edge]


def _assert_ranking_close(got, ranked, k):
    """``got`` holds the reference's solutions up to 1e-12 relative in
    every score and f, is in rank order on its own scores, and leaves out
    nothing that ranks clearly above its last row. Rows whose scores tie
    within the tolerance may come in either order: the same f summed at
    different pattern positions rounds differently, so such ties fall
    either way by an ulp."""
    ref = {s.binding_key: s for s in ranked}
    assert len(got) == min(k, len(ranked))
    for s in got:
        r = ref[s.binding_key]
        assert (s.edit_distance, _edges(s)) == (r.edit_distance, _edges(r))
        assert s.score == pytest.approx(r.score, rel=1e-12, abs=0)
        assert [e.f for e in s.per_edge] == pytest.approx([e.f for e in r.per_edge], rel=1e-12, abs=0)
    assert reference_rank(got, len(got)) == got
    chosen = {s.binding_key for s in got}
    bar = got[-1].score * (1 + 1e-12) if got else float("-inf")
    assert all(r.score <= bar for r in ranked if r.binding_key not in chosen)


@pytest.mark.parametrize("model", ["transe", "transh", "transr"])
@pytest.mark.parametrize("uniform_f", [None, 0.5])
@pytest.mark.parametrize("top_k", [3, 10**9])  # fewer than kept; every candidate
def test_recommend_matches_reference_scoring(reference_instances, model, uniform_f, top_k):
    # every brute-force candidate scored by the scalar per-edge loop and
    # ordered by `reference_rank` is what recommend returns: exactly for TransE,
    # within 1e-12 relative for the models whose kernel math differs
    cut = 0
    for g, q, candidates in reference_instances:
        # trained without n00's facts, so edges that read n00 fall back
        rows = [[g.term(x) for x in t] for t in g.triples()]
        trained = build_graph([r for r in rows if ex("n00") not in (r[0], r[2])])
        emb = small_emb(trained, model=model, epochs=2, dim=6)
        got = recommend(g, _req(q, emb, top_k=top_k, per_tree_limit=10**9, uniform_f=uniform_f)).solutions
        view = emb.bind(g)
        scored = [reference_score_solution(view, q.patterns, m, uniform_f) for m in candidates]
        ranked = reference_rank(scored, len(scored))
        cut += len(candidates) > top_k
        if model == "transe":
            assert _view(got) == _view(ranked[:top_k])
        else:
            _assert_ranking_close(got, ranked, top_k)
    assert cut or top_k > 3


# -- exactness guarantees ----------------------------------------------


def test_exact_solutions_rank_first(stars):
    emb = small_emb(stars)
    q = make_query([pattern("?f", "starring", "?a"), pattern("?f", "type", "Film")])
    rec = recommend(stars, _req(q, emb))
    assert len(rec.solutions) == 4
    top = rec.solutions[:3]
    assert all(s.edit_distance == 0 for s in top)
    smax = score_graph(stars, q.patterns)
    assert all(s.score == smax for s in top)
    assert rec.solutions[3].edit_distance == 1
    assert rec.solutions[3].score < smax
    assert rec.solutions[3].mapping["f"] == stars.id(ex("f3"))


def test_threshold_one_keeps_only_exacts(stars):
    emb = small_emb(stars)
    q = make_query([pattern("?f", "starring", "?a"), pattern("?f", "type", "Film")])
    rec = recommend(stars, _req(q, emb, threshold=1))
    assert len(rec.solutions) == 3
    assert all(s.edit_distance == 0 for s in rec.solutions)


def test_top_k_truncation(stars):
    emb = small_emb(stars)
    q = make_query([pattern("?f", "starring", "?a"), pattern("?f", "type", "Film")])
    rec = recommend(stars, _req(q, emb, top_k=2))
    assert len(rec.solutions) == 2
    assert all(s.edit_distance == 0 for s in rec.solutions)


def test_candidates_deduplicated_across_trees(stars):
    emb = small_emb(stars)
    # two parallel edges: both trees produce the same mappings
    g = build_graph([("a", "p", "b"), ("a", "q", "b")])
    emb2 = small_emb(g)
    q = make_query([pattern("?x", "p", "?y"), pattern("?x", "q", "?y")])
    rec = recommend(g, _req(q, emb2))
    assert rec.trees_evaluated == 2
    assert rec.candidates_seen == 1
    assert len(rec.solutions) == 1
    assert rec.solutions[0].edit_distance == 0


def test_per_tree_limit_sets_truncated_flag(stars):
    # one pattern: its one tree drops nothing, so the one relaxation is
    # the query itself, and its first two of four rows are kept
    emb = small_emb(stars)
    q = make_query([pattern("?f", "starring", "?a")])
    rec = recommend(stars, _req(q, emb, per_tree_limit=2))
    assert rec.truncated
    assert rec.trees_evaluated == 1
    assert rec.candidates_seen == len(rec.solutions) == 2


def _pooled_oracle(g, q, threshold, limit):
    """``candidates_seen`` and the candidate mappings as pooling every
    relaxation's rows, deduplicating them with ``np.unique`` and cutting
    them at the threshold gives them, and how many rows of a later
    relaxation miss only patterns an earlier truncated relaxation drops
    without being among that relaxation's rows."""
    variables = tuple(sorted(q.variables()))
    resolved = resolve_patterns(g, q.patterns)
    sets = relaxations([t for t in enumerate_subquery_trees(q) if t.covered], threshold)
    joined = JoinPrefixes(g, resolved)
    tables, truncated = [], []
    for dropped in sets:
        result = joined.without(dropped, limit)
        tables.append(result.rows)
        truncated.append(result.truncated)

    def holds(mapping, i):
        atoms = [mapping[a] if isinstance(a, str) else a for a in resolved[i]]
        return None not in atoms and g.contains(*atoms)

    beyond = 0
    for j, table in enumerate(tables):
        for row in table.tolist():
            mapping = dict(zip(variables, row))
            misses = {i for i in range(len(resolved)) if not holds(mapping, i)}
            assert misses <= set(sets[j])
            for i in range(j):
                kept = set(map(tuple, tables[i].tolist()))
                beyond += truncated[i] and misses <= set(sets[i]) and tuple(row) not in kept
    rows = np.concatenate(tables)
    _, first = np.unique(rows, axis=0, return_index=True)
    mappings = [dict(zip(variables, row)) for row in rows[np.sort(first)].tolist()]
    near = [m for m in mappings if sum(not holds(m, i) for i in range(len(q.patterns))) < threshold]
    return len(near), near, beyond


def test_dedupe_across_truncated_trees_matches_pooling():
    # With a small per_tree_limit, an earlier relaxation stops before rows
    # that a later one yields although their misses lie inside the earlier
    # one's dropped patterns; those rows are new candidates, not repeats.
    beyond = 0
    for seed in range(12):
        g, q = candidate_instance(np.random.default_rng(seed), n_noise=120)
        emb = small_emb(g, epochs=2, dim=6)
        view = emb.bind(g)
        for limit in (2, 5, 11):
            for threshold in (1, 2, 3):
                seen, near, hit = _pooled_oracle(g, q, threshold, limit)
                beyond += hit
                rec = recommend(g, _req(q, emb, threshold=threshold, top_k=None, per_tree_limit=limit))
                assert rec.candidates_seen == seen, (seed, limit, threshold)
                ranked = reference_rank([reference_score_solution(view, q.patterns, m) for m in near], len(near))
                assert _view(rec.solutions) == _view(ranked), (seed, limit, threshold)
    assert beyond > 0


def test_repeated_at_threshold_two_matches_the_tree_check():
    """At threshold 2, with the relaxations without ?a r0 ?b (truncated
    at the limit of 3), without nothing (an empty M, not truncated),
    without ?b r1 ?a and without ?a r2 C, each relaxation's repeats are
    those the tree path's check finds from the patterns each earlier one
    keeps: one mask from the untruncated ones, and a truncated one's rows
    looked up where that mask misses."""
    g = build_graph(
        [(f"a{i}", "r0", f"b{i}") for i in range(4)]
        + [("a0", "r0", "b1")]
        + [(f"b{i}", "r1", f"a{i}") for i in range(4)]
        + [("b2", "r1", "a0")]
        + [(f"a{i}", "r2", "C") for i in range(3)]
    )
    q = make_query([pattern("?a", "r0", "?b"), pattern("?b", "r1", "?a"), pattern("?a", "r2", "C")])
    resolved = resolve_patterns(g, q.patterns)
    variables = tuple(sorted(q.variables()))
    joined = JoinPrefixes(g, resolved)
    earlier, covered = [], []
    repeats, looked_up = [], 0
    for dropped in [(0,), (), (1,), (2,)]:
        result = joined.without(dropped, limit=3)
        table = result.rows
        flags = in_graph_flags(g, resolved, variables, table, dropped)
        got = _repeated(table, flags, dropped, earlier)
        assert got.tolist() == _reference_repeated(table, flags, covered).tolist(), dropped
        # rows whose misses lie inside a truncated relaxation's M but are not among its rows
        looked_up += sum(
            int((flags[:, [i for i in dropped if i not in other]].all(axis=1) & ~got).sum())
            for other, rows in earlier
            if rows is not None
        )
        repeats.append(int(got.sum()))
        rows = table if result.truncated else None
        earlier.append((dropped, rows))
        covered.append(([i for i in range(len(resolved)) if i not in dropped], rows))
    assert [rows is not None for _, rows in earlier] == [True, False, True, True]
    assert repeats[0] == 0 and all(repeats[1:])
    assert looked_up > 0


_NODES = ["n0", "n1", "n2", "n3"]
_RELS = ["r0", "r1", "r2"]


@st.composite
def _small_instances(draw):
    """Triples over four terms and three relations, and a query over one
    to three variables: a path through the variables, then up to three
    more patterns, each an edge between two of them (closing a cycle, or
    a self-loop) or a constant leaf (a known constant or one the graph
    lacks), and now and then a repeated pattern, in any order."""
    triples = draw(st.lists(st.tuples(*(st.sampled_from(x) for x in (_NODES, _RELS, _NODES))), min_size=4, max_size=40))
    names = ["?a", "?b", "?c"][: draw(st.sampled_from([1, 2, 2, 3, 3]))]

    def oriented(u, v):
        return (u, draw(st.sampled_from(_RELS)), v) if draw(st.booleans()) else (v, draw(st.sampled_from(_RELS)), u)

    patterns = [oriented(u, v) for u, v in zip(names, names[1:])]
    for _ in range(draw(st.integers(1 if len(names) == 1 else 0, 3))):
        u = draw(st.sampled_from(names))
        kind = draw(st.sampled_from(["edge", "edge", "const", "ghost"]))
        v = draw(st.sampled_from(names)) if kind == "edge" else draw(st.sampled_from(_NODES)) if kind == "const" else "ghost"
        patterns.append(oriented(u, v))
    if draw(st.booleans()):
        patterns.append(draw(st.sampled_from(patterns)))
    return triples, draw(st.permutations(patterns))


# no exact answer, and the candidates missing ?a r0 ?b come from the
# second tree only (the graph and query of CI's installed-script check)
_TWO_TREES = (
    [("n0", "r0", "n1"), ("n1", "r0", "n2"), ("n2", "r1", "n0"), ("n0", "r2", "n3")],
    [("?a", "r0", "?b"), ("?b", "r1", "?a"), ("?a", "r2", "n3")],
)


@settings(max_examples=150, deadline=None)
@given(_small_instances(), st.sampled_from([3, 10**6]), st.sampled_from([None, 2]))
@example(_TWO_TREES, 10**6, None)
@example(_TWO_TREES, 10**6, 2)
def test_relaxations_match_the_tree_path(instance, limit, chunk):
    """At thresholds 1-4, wherever the tree path is not truncated, the
    relaxations give its candidate set, edit distances and full ranking,
    also when a join chunk of two rows keeps no longer prefix, so a
    relaxation starts from a shorter one; a query the tree path rejects
    is rejected with the same error."""
    triples, patterns = instance
    g = build_graph(triples)
    q = make_query([pattern(*p) for p in patterns])
    emb = small_emb(g, epochs=1, dim=4)
    for threshold in (1, 2, 3, 4):
        req = _req(q, emb, threshold=threshold, top_k=None, per_tree_limit=limit)
        try:
            want, _, truncated = reference_recommend(g, req)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                recommend(g, req)
            continue
        default_chunk = sparql_mod.JOIN_CHUNK
        try:
            sparql_mod.JOIN_CHUNK = chunk or default_chunk
            got = recommend(g, req)
        finally:
            sparql_mod.JOIN_CHUNK = default_chunk
        if truncated:
            continue
        assert not got.truncated, threshold
        assert _view(got.solutions) == _view(want), threshold
        assert got.candidates_seen == len(want), threshold


def test_unmatchable_query_raises(stars):
    emb = small_emb(stars)
    q = make_query([pattern("f1", "starring", "?x"), pattern("?x", "spouse", "f2")])
    with pytest.raises(QueryUnmatchableError):
        recommend(stars, _req(q, emb))


def test_variable_predicate_rejected(stars):
    emb = small_emb(stars)
    q = make_query([TriplePattern(Var("x"), Var("p"), Var("y"))])
    with pytest.raises(VariablePredicateError):
        recommend(stars, _req(q, emb))


def test_request_validation(stars):
    emb = small_emb(stars)
    q = make_query([pattern("?f", "starring", "?a")])
    for kw in ({"threshold": 0}, {"top_k": 0}, {"per_tree_limit": 0}):
        with pytest.raises(ValueError):
            recommend(stars, _req(q, emb, **kw))


@pytest.mark.parametrize("uniform_f", [float("nan"), float("inf"), float("-inf"), -3.0, 0.0, 1.5])
def test_request_rejects_uniform_f_outside_unit_interval(stars, uniform_f):
    emb = small_emb(stars)
    q = make_query([pattern("?f", "starring", "?a")])
    with pytest.raises(ValueError, match="uniform_f"):
        recommend(stars, _req(q, emb, uniform_f=uniform_f))


def test_top_k_none_ranks_every_candidate(stars):
    emb = small_emb(stars)
    q = make_query([pattern("?f", "starring", "?a"), pattern("?f", "type", "Film")])
    every = recommend(stars, _req(q, emb, top_k=None))
    assert len(every.solutions) == every.candidates_seen > 1
    assert _view(every.solutions) == _view(recommend(stars, _req(q, emb, top_k=10**9)).solutions)


@pytest.mark.parametrize("threshold", [1, 2, 3])
def test_edit_distance_is_the_count_of_missing_edges(threshold):
    # counted once per tree for the threshold and carried to every printed row
    for seed in range(4):
        g, q = candidate_instance(np.random.default_rng(seed))
        emb = small_emb(g, epochs=2, dim=6)
        solutions = recommend(g, _req(q, emb, threshold=threshold, top_k=None)).solutions
        assert solutions
        for s in solutions:
            assert type(s.edit_distance) is int and s.edit_distance < threshold
            assert s.edit_distance == sum(not e.in_graph for e in s.per_edge)


def test_timings_cover_all_phases(stars):
    emb = small_emb(stars)
    q = make_query([pattern("?f", "starring", "?a")])
    rec = recommend(stars, _req(q, emb), parse_seconds=0.125)
    assert set(rec.timings) == {"parse", "plan", "evaluate", "score", "rank"}
    assert rec.timings["parse"] == 0.125
    assert all(v >= 0 for v in rec.timings.values())


# -- completeness against brute force ----------------------------------


def _all_solutions(g, q, emb, threshold=2):
    req = _req(q, emb, threshold=threshold, top_k=10**9, per_tree_limit=10**6)
    return recommend(g, req)


def test_candidate_set_matches_brute_force_fixed_seeds():
    for seed in (0, 1, 2, 3, 4):
        rng = np.random.default_rng(seed)
        g, q = candidate_instance(rng)
        emb = small_emb(g, epochs=2, dim=6)
        rec = _all_solutions(g, q, emb)
        got = {s.binding_key: s.edit_distance for s in rec.solutions}
        oracle = brute_candidates(g, q.patterns, 2)
        want = {
            tuple(g.term(tid).nt() for _, tid in key): ed
            for key, ed in oracle.items()
        }
        assert got == want, f"seed {seed}"


def test_tree_queries_find_all_exacts_and_only_near_misses():
    # a path query's candidate set may miss some one-edge-away mappings,
    # but it must contain every exact solution and nothing above threshold
    g = build_graph(
        [("a", "p", "b"), ("b", "q", "c"), ("x", "p", "y"), ("y", "q", "z"), ("k", "p", "m")]
    )
    emb = small_emb(g, epochs=2, dim=6)
    q = make_query([pattern("?u", "p", "?v"), pattern("?v", "q", "?w")])
    rec = _all_solutions(g, q, emb)
    got = {s.binding_key for s in rec.solutions}
    oracle = brute_candidates(g, q.patterns, 2)
    want_all = {tuple(g.term(t).nt() for _, t in key) for key in oracle}
    exact = {
        tuple(g.term(t).nt() for _, t in key)
        for key, ed in oracle.items()
        if ed == 0
    }
    assert exact <= got <= want_all
