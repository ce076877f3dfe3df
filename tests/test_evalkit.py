from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trq.embedding
import trq.evalkit
from trq.embedding import EmbeddingConfig, save_embeddings
from trq.evalkit import (
    BenchCase,
    MissingDeletionError,
    corrupt_graph,
    exact_solutions,
    load_cases,
    load_manifest,
    mean_rank,
    reciprocal_rank,
    run_benchmark,
)
from trq.recommend import RecommendRequest, recommend
from trq.sparql import Const, parse_query
from trq.store import parse_ntriples
from trq.terms import Term, Triple

from conftest import (
    EX,
    RDF_TYPE_IRI,
    build_graph,
    deletion_cases,
    ex,
    exact_instance,
    make_query,
    pattern,
    planted_kg,
    reference_corrupt_graph,
    reference_mean_rank,
    reference_run_benchmark,
    reference_training_input,
    small_emb,
)


# -- rank metrics ------------------------------------------------------


def test_reciprocal_rank_basics():
    assert reciprocal_rank(["a", "b", "c"], {"a"}) == 1.0
    assert reciprocal_rank(["a", "b", "c"], {"b"}) == 0.5
    assert reciprocal_rank(["a", "b", "c"], {"c", "b"}) == 0.5
    assert reciprocal_rank(["a", "b"], {"z"}) == 0.0
    assert reciprocal_rank([], {"z"}) == 0.0


def test_mean_rank_single_truth():
    assert mean_rank(["a", "b", "c"], {"b"}) == 2.0


def test_mean_rank_ignores_other_truths_above():
    # truths at positions 1 and 3: the second truth has only one
    # non-truth candidate above it, so its rank is 2; mean = 1.5
    assert mean_rank(["t1", "x", "t2"], {"t1", "t2"}) == 1.5


def test_mean_rank_perfect_prefix_is_one():
    assert mean_rank(["t1", "t2", "t3", "x"], {"t1", "t2", "t3"}) == 1.0


def test_mean_rank_missing_truth_counts_past_end():
    # one truth at position 2, one absent: (2 + 4) / 2
    assert mean_rank(["x", "t1", "y"], {"t1", "zz"}) == 3.0


def test_mean_rank_all_missing():
    assert mean_rank(["x", "y"], {"a", "b"}) == 3.0


def test_mean_rank_empty_truth_rejected():
    with pytest.raises(ValueError):
        mean_rank(["a"], set())


def test_mean_rank_duplicate_listing_uses_first():
    assert mean_rank(["t1", "t1", "x"], {"t1"}) == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 30))
def test_mean_rank_one_for_any_truth_prefix(k, extra):
    ranked = [f"t{i}" for i in range(k)] + [f"x{i}" for i in range(extra)]
    assert mean_rank(ranked, {f"t{i}" for i in range(k)}) == 1.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 12), max_size=40), st.sets(st.integers(0, 15), min_size=1, max_size=8))
def test_mean_rank_matches_the_reference(ranked, truth):
    """Duplicates in the ranking and truth tuples absent from it included."""
    assert mean_rank(ranked, truth) == reference_mean_rank(ranked, truth)


# -- graph corruption --------------------------------------------------


@pytest.fixture
def g5():
    return build_graph(
        [("a", "p", "b"), ("b", "p", "c"), ("c", "q", "a"), ("a", "type", "C")]
    )


def test_corrupt_graph_removes_exact_triples(g5):
    t = Triple(g5.id(ex("a")), g5.id(ex("p")), g5.id(ex("b")))
    g2 = corrupt_graph(g5, [t])
    assert g2.triple_count == g5.triple_count - 1
    assert not g2.contains(g2.id(ex("a")), g2.id(ex("p")), g2.id(ex("b")))
    # untouched facts survive
    assert g2.contains(g2.id(ex("b")), g2.id(ex("p")), g2.id(ex("c")))


def test_corrupt_graph_leaves_original_untouched(g5):
    t = Triple(g5.id(ex("a")), g5.id(ex("p")), g5.id(ex("b")))
    corrupt_graph(g5, [t])
    assert g5.contains(*t)


def test_corrupt_graph_missing_deletion_raises(g5):
    bogus = Triple(0, 0, 0)
    with pytest.raises(MissingDeletionError) as e:
        corrupt_graph(g5, [bogus])
    assert e.value.missing == [bogus]


def test_missing_deletions_are_named_in_ntriples(g5):
    # present and absent deletions mixed, ids outside the graph included:
    # only the absent ones are reported, in sorted order
    a, p, b = g5.id(ex("a")), g5.id(ex("p")), g5.id(ex("b"))
    absent = [Triple(b, p, a), Triple(a, p, g5.term_count), Triple(-1, p, b)]
    with pytest.raises(MissingDeletionError) as e:
        corrupt_graph(g5, [Triple(a, p, b)] + absent)
    assert e.value.missing == sorted(absent)
    assert "3 deletion(s) not present in the graph: " in str(e.value)
    assert f"<{EX}b> <{EX}p> <{EX}a> ." in str(e.value)


def test_corrupt_graph_empty_deletions_is_copy(g5):
    g2 = corrupt_graph(g5, [])
    assert g2.triple_count == g5.triple_count


@pytest.mark.parametrize("seed", range(4))
def test_corrupt_graph_matches_reference_builder(seed):
    # on blank-free graphs the key mask gives the builder loop's term ids
    # and triples, for no, some and all triples deleted
    rng = np.random.default_rng(seed)
    g = planted_kg(n_clusters=4, seed=seed)[0] if seed % 2 else exact_instance(rng, 20, 60)[0]
    triples = list(g.triples())
    for n in (0, 1, len(triples) // 3, len(triples)):
        deletions = [triples[i] for i in rng.choice(len(triples), n, replace=False)]
        got, want = corrupt_graph(g, deletions), reference_corrupt_graph(g, deletions)
        assert list(got.terms()) == list(want.terms())
        assert list(got.triples()) == list(want.triples())


def test_corrupt_graph_keeps_blank_node_labels():
    # the source labels _:x as b0 and _:y as b1; with _:x's facts deleted,
    # re-interning would relabel _:y as b0 and lose the truth tuple
    g = parse_ntriples(
        "_:x <http://e/p> <http://e/a> .\n"
        "_:y <http://e/q> <http://e/b> .\n"
        "_:x <http://e/r> <http://e/c> .\n"
        "_:y <http://e/r> <http://e/d> .\n"
    )
    q = parse_query("SELECT ?s WHERE { ?s <http://e/q> <http://e/b> . }")
    x = g.id(Term.blank("b0"))
    corrupted = corrupt_graph(g, [t for t in g.triples() if t.s == x])
    assert exact_solutions(corrupted, q) == exact_solutions(g, q) == {("_:b1",)}


# -- exact solutions ---------------------------------------------------


def test_exact_solutions_binding_tuples(g5):
    q = make_query([pattern("?x", "p", "?y")])
    out = exact_solutions(g5, q)
    assert out == {
        (ex("a").nt(), ex("b").nt()),
        (ex("b").nt(), ex("c").nt()),
    }


def test_exact_solutions_sorted_variable_order(g5):
    # variables sort alphabetically regardless of pattern order
    q = make_query([pattern("?z", "p", "?a")], projected=["z", "a"])
    out = exact_solutions(g5, q)
    assert (ex("b").nt(), ex("a").nt()) in out  # (?a=b, ?z=a)


# -- benchmark driver --------------------------------------------------


@pytest.fixture(scope="module")
def bench_world():
    rows = []
    for i in range(4):
        rows += [
            (f"m{i}", "memberOf", "G"),
            (f"m{i}", "worksAt", "Lab"),
        ]
    rows += [("p0", "coauth", "m0"), ("p1", "coauth", "m0"), ("p0", "worksAt", "Office")]
    return build_graph(rows)


def member_query():
    return make_query(
        [pattern("?a", "coauth", "?b"), pattern("?b", "memberOf", "G")]
    )


def test_run_benchmark_retrains_by_default(bench_world):
    g = bench_world
    case = BenchCase(
        name="m0",
        query=member_query(),
        deletions=[Triple(g.id(ex("m0")), g.id(ex("memberOf")), g.id(ex("G")))],
    )
    report = run_benchmark(
        g, [case], embed_config=EmbeddingConfig(dim=8, epochs=5, seed=0)
    )
    assert report.failures == 0
    row = report.rows[0]
    assert row.truth_size == 2
    assert row.rr is not None and 0.0 <= row.rr <= 1.0
    assert row.mr is not None and row.mr >= 1.0
    assert row.candidates >= 2
    assert row.elapsed > 0


def test_run_benchmark_accepts_pretrained(bench_world):
    g = bench_world
    emb = small_emb(g, epochs=3)
    case = BenchCase(
        name="m0",
        query=member_query(),
        deletions=[Triple(g.id(ex("m0")), g.id(ex("memberOf")), g.id(ex("G")))],
    )
    report = run_benchmark(g, [case], embeddings=emb)
    assert report.failures == 0


def test_run_benchmark_explicit_truth_overrides_derivation(bench_world):
    g = bench_world
    truth = {(ex("p0").nt(), ex("m0").nt())}
    case = BenchCase(
        name="m0",
        query=member_query(),
        deletions=[Triple(g.id(ex("m0")), g.id(ex("memberOf")), g.id(ex("G")))],
        truth=truth,
    )
    report = run_benchmark(g, [case], embeddings=small_emb(g, epochs=3))
    assert report.rows[0].truth_size == 1


def test_run_benchmark_records_case_errors_and_continues(bench_world):
    g = bench_world
    bad = BenchCase(
        name="bad",
        query=member_query(),
        deletions=[Triple(0, 0, 0)],  # not a triple of the graph
    )
    good = BenchCase(
        name="good",
        query=member_query(),
        deletions=[Triple(g.id(ex("m0")), g.id(ex("memberOf")), g.id(ex("G")))],
    )
    report = run_benchmark(g, [bad, good], embeddings=small_emb(g, epochs=3))
    assert report.failures == 1
    assert report.rows[0].error is not None
    assert report.rows[1].error is None
    assert report.mean_rr is not None  # aggregates skip failed rows


def test_run_benchmark_empty_truth_is_case_error(bench_world):
    g = bench_world
    case = BenchCase(
        name="empty",
        query=make_query([pattern("?a", "coauth", "?b"), pattern("?b", "memberOf", "Office")]),
        deletions=[],
    )
    report = run_benchmark(g, [case], embeddings=small_emb(g, epochs=3))
    assert report.failures == 1
    assert "truth" in report.rows[0].error


def test_run_benchmark_requires_some_embedding_source(bench_world):
    with pytest.raises(ValueError):
        run_benchmark(bench_world, [])


@pytest.mark.parametrize(
    "setting",
    [
        {"uniform_f": float("nan")},
        {"uniform_f": 0.0},
        {"threshold": 0},
        {"top_k": 0},
        {"per_tree_limit": 0},
    ],
)
def test_run_benchmark_rejects_bad_settings_before_training(bench_world, monkeypatch, setting):
    trainings = []

    def counting_train(g, cfg):
        trainings.append(cfg)
        return trq.embedding.train(g, cfg)

    monkeypatch.setattr(trq.evalkit, "train", counting_train)
    g = bench_world
    cases = [
        BenchCase(
            name=f"m{i}",
            query=member_query(),
            deletions=[Triple(g.id(ex(f"m{i}")), g.id(ex("memberOf")), g.id(ex("G")))],
        )
        for i in range(3)
    ]
    with pytest.raises(ValueError, match=next(iter(setting))):
        run_benchmark(g, cases, embed_config=EmbeddingConfig(dim=8, epochs=2, seed=0), **setting)
    assert trainings == []


def test_benchmark_uniform_f_ablation_runs(bench_world):
    g = bench_world
    case = BenchCase(
        name="m0",
        query=member_query(),
        deletions=[Triple(g.id(ex("m0")), g.id(ex("memberOf")), g.id(ex("G")))],
    )
    report = run_benchmark(g, [case], embeddings=small_emb(g, epochs=3), uniform_f=1.0)
    assert report.failures == 0


def test_uniform_f_trains_no_model(bench_world, monkeypatch):
    trainings, rankings = [], []
    train, recommend = trq.evalkit.train, trq.evalkit.recommend

    def ranking(g, req):
        rec = recommend(g, req)
        rankings.append([(s.binding_key, s.score) for s in rec.solutions])
        return rec

    monkeypatch.setattr(trq.evalkit, "train", lambda g, cfg: trainings.append(cfg) or train(g, cfg))
    monkeypatch.setattr(trq.evalkit, "recommend", ranking)
    g = bench_world
    cases = [
        BenchCase(f"m{i}", member_query(), [Triple(g.id(ex(f"m{i}")), g.id(ex("memberOf")), g.id(ex("G")))])
        for i in range(3)
    ]
    cfg = EmbeddingConfig(dim=8, epochs=2, seed=0)
    skipped = run_benchmark(g, cases, embed_config=cfg, uniform_f=0.5)
    assert trainings == [] and skipped.failures == 0
    # the rankings of a run that reads a trained set's f nowhere
    with_set = run_benchmark(g, cases, embeddings=small_emb(g, epochs=3), uniform_f=0.5)
    assert [(r.rr, r.mr, r.candidates) for r in skipped.rows] == [(r.rr, r.mr, r.candidates) for r in with_set.rows]
    assert rankings[:3] == rankings[3:]
    # without uniform_f, one training for the run
    run_benchmark(g, cases, embed_config=cfg)
    assert len(trainings) == 1


@pytest.fixture(scope="module")
def typed_world():
    rows = []
    for i in range(4):
        rows += [(f"m{i}", "type", "Member"), (f"m{i}", "memberOf", "G"), (f"m{i}", "worksAt", "Lab")]
    rows += [("p0", "type", "Person"), ("p0", "coauth", "m0"), ("p1", "coauth", "m0"), ("p1", "coauth", "m1")]
    return build_graph(rows + [("p0", "worksAt", "Office"), ("p1", "type", "Person")])


def typed_cases(g):
    def fact(s, p, o):
        return Triple(*(g.id(Term.iri(RDF_TYPE_IRI) if x == "type" else ex(x)) for x in (s, p, o)))

    q = make_query([pattern("?a", "coauth", "?b"), pattern("?b", "memberOf", "G"), pattern("?b", "type", "Member")])
    deletions = {
        "relational": [fact("m0", "memberOf", "G")],
        # m0's type triple comes first, so Member keeps its first appearance
        "type-kept": [fact("m1", "type", "Member")],
        # Member now first appears after m0's other objects: rows renumber
        "type-moved": [fact("m0", "type", "Member")],
        "nothing": [],
        "types-kept": [fact("m2", "type", "Member"), fact("m3", "type", "Member")],
        # a fact the graph holds beside one it lacks: neither is held out
        "absent": [fact("m1", "memberOf", "G"), fact("m0", "coauth", "p0")],
    }
    return [BenchCase(name, q, facts) for name, facts in deletions.items()]


def bench_fields(r):
    return (r.name, r.rr, r.mr, r.candidates, r.truth_size, r.error)


@pytest.mark.parametrize("include_type_triples", [False, True])
@pytest.mark.parametrize("model", ["transe", "transh", "transr"])
def test_a_run_trains_one_model_without_every_present_deletion(typed_world, monkeypatch, model, include_type_triples):
    g = typed_world
    cfg = EmbeddingConfig(model=model, dim=6, epochs=4, batch_size=8, seed=1, include_type_triples=include_type_triples)
    trainings = []
    train = trq.evalkit.train
    monkeypatch.setattr(trq.evalkit, "train", lambda g, cfg: trainings.append(g) or train(g, cfg))
    for n in (1, 2, 6):
        cases = typed_cases(g)[:n]
        trainings.clear()
        report = run_benchmark(g, cases, embed_config=cfg)
        assert [bench_fields(r) for r in report.rows] == [
            bench_fields(r) for r in reference_run_benchmark(g, cases, embed_config=cfg).rows
        ]
        assert [r.error is None for r in report.rows] == [c.name != "absent" for c in cases]
        assert len(trainings) == 1 and report.train_s > 0
        held_out = corrupt_graph(g, {t for c in cases if c.name != "absent" for t in c.deletions})
        [trained] = trainings
        assert list(trained.triples()) == list(held_out.triples())
        assert [trained.term(i) for i in range(trained.term_count)] == [
            held_out.term(i) for i in range(held_out.term_count)
        ]


def test_a_run_whose_every_case_deletes_trains_one_model(typed_world, monkeypatch):
    g = typed_world
    cases = [c for c in typed_cases(g) if c.name in ("relational", "type-moved")]
    trainings = []
    train = trq.evalkit.train
    monkeypatch.setattr(trq.evalkit, "train", lambda g, cfg: trainings.append(g) or train(g, cfg))
    report = run_benchmark(g, cases, embed_config=EmbeddingConfig(dim=6, epochs=2, seed=0))
    assert len(trainings) == 1 and report.train_s > 0
    assert all(r.error is None for r in report.rows)
    [trained] = trainings
    held_out = corrupt_graph(g, {t for c in cases for t in c.deletions})
    assert list(trained.triples()) == list(held_out.triples())


def test_a_run_that_trains_nothing_reports_no_training_time(typed_world):
    g = typed_world
    cases = typed_cases(g)[:4]
    for report in (
        run_benchmark(g, cases, embeddings=small_emb(g, epochs=2)),
        run_benchmark(g, cases, embed_config=EmbeddingConfig(dim=6, epochs=2), uniform_f=0.5),
        run_benchmark(g, typed_cases(g)[5:], embed_config=EmbeddingConfig(dim=6, epochs=2)),
    ):
        assert report.train_s == 0.0


# (name, rr, mr, candidates, truth_size, error) of one fixed run per model:
# a change that moves any bench ranking fails here. A change that moves them
# on purpose updates these rows and says why.
_ABSENT = (
    "MissingDeletionError: 1 deletion(s) not present in the graph: "
    "<http://example.org/n004> <http://example.org/attr0> <http://example.org/val0_01> ."
)
PINNED_BENCH_ROWS = {
    "transe": [2.8, 3.8, 3.8, 2.0],
    "transh": [3.6, 4.2, 5.0, 3.4],
    "transr": [2.4, 3.8, 4.8, 3.0],
}


@pytest.mark.parametrize("model", sorted(PINNED_BENCH_ROWS))
def test_a_fixed_run_gives_the_pinned_rows(model):
    g, items = planted_kg(n_clusters=8)
    cases = [
        BenchCase(name, parse_query(text), [Triple(*(g.id(ex(x)) for x in fact))])
        for name, text, fact in deletion_cases(items, 4)
    ]
    cases.append(BenchCase("absent", cases[0].query, [Triple(*(g.id(ex(x)) for x in (items[0][0], "attr0", "val0_01")))]))
    cfg = EmbeddingConfig(model=model, dim=8, epochs=20, batch_size=32, learning_rate=0.1, margin=2.0, norm="l2", seed=3)
    report = run_benchmark(g, cases, embed_config=cfg)
    expected = [(f"cluster-{i:02d}", 1.0, mr, 40, 5, None) for i, mr in enumerate(PINNED_BENCH_ROWS[model])]
    assert [bench_fields(r) for r in report.rows] == expected + [("absent", None, None, 0, 0, _ABSENT)]


def trqe_bytes(emb) -> bytes:
    buf = io.BytesIO()
    save_embeddings(emb, buf)
    return buf.getvalue()


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_equal_training_inputs_train_identical_sets(data):
    # a random graph with rdf:type facts, its triples written in a random
    # order so that its ids need not follow first appearance in SPO order
    ents = st.integers(0, 5)
    relational = data.draw(st.lists(st.tuples(ents, st.sampled_from(["r0", "r1"]), ents), min_size=1, max_size=10))
    typed = data.draw(st.lists(st.tuples(ents, st.sampled_from(["C0", "C1", "C2"])), min_size=1, max_size=8))
    rows = [(f"e{s}", r, f"e{o}") for s, r, o in relational] + [(f"e{s}", "type", c) for s, c in typed]
    g = build_graph(data.draw(st.permutations(rows)))
    triples = list(g.triples())
    type_facts = [t for t in triples if t.p == g.rdf_type_id]
    pool = data.draw(st.sampled_from([type_facts, triples]))
    deletions = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=3))
    cfg = EmbeddingConfig(
        model=data.draw(st.sampled_from(["transe", "transh", "transr"])),
        dim=4,
        epochs=3,
        batch_size=4,
        negatives_per_positive=data.draw(st.integers(1, 2)),
        seed=data.draw(st.integers(0, 3)),
        include_type_triples=data.draw(st.booleans()),
    )
    corrupted = corrupt_graph(g, deletions)
    ours_in, source_in = reference_training_input(corrupted, cfg), reference_training_input(g, cfg)
    if (ours_in.entity_keys, ours_in.relation_keys) != (source_in.entity_keys, source_in.relation_keys):
        return
    if not np.array_equal(ours_in.triples, source_in.triples):
        return
    ours, source = trq.embedding.train(corrupted, cfg), trq.embedding.train(g, cfg)
    assert trqe_bytes(ours) == trqe_bytes(source)
    assert ours.losses == source.losses
    assert ours.sampler_redraws == source.sampler_redraws


def test_run_benchmark_ranks_every_candidate_of_every_tree():
    # the 2-cycle ?x p ?y . ?y q ?x has two trees, p alone and q alone;
    # after the deletion each yields 4 rows, so 8 candidates pool across
    # trees and a truth missing from them is charged 8 + 1
    rows = [(f"a{i}", "p", f"b{i}") for i in range(4)] + [(f"d{i}", "q", f"c{i}") for i in range(4)]
    g = build_graph(rows + [("b3", "q", "a3")])
    case = BenchCase(
        name="two-trees",
        query=make_query([pattern("?x", "p", "?y"), pattern("?y", "q", "?x")]),
        deletions=[Triple(g.id(ex("b3")), g.id(ex("q")), g.id(ex("a3")))],
        truth={(ex("nobody").nt(), ex("nowhere").nt())},
    )
    emb = small_emb(g, epochs=3)
    [row] = run_benchmark(g, [case], embeddings=emb, per_tree_limit=4).rows
    assert (row.candidates, row.rr, row.mr) == (8, 0.0, 9.0)
    [row] = run_benchmark(g, [case], embeddings=emb, per_tree_limit=4, top_k=3).rows
    assert (row.candidates, row.mr) == (8, 4.0)


# -- ranking over the kept ids against a re-ingest -----------------------


def ranking_fields(g, req):
    """What ``recommend`` gives that no id reads: each row's binding key,
    score, edit distance and per-edge scores, the candidate count and the
    truncation flag; or the error it raises."""
    try:
        rec = recommend(g, req)
    except Exception as exc:  # noqa: BLE001 - both graphs must fail alike
        return f"{type(exc).__name__}: {exc}"
    rows = [
        (s.binding_key, s.score, s.edit_distance, [(e.pattern, e.weight, e.f, e.in_graph, e.fallback) for e in s.per_edge])
        for s in rec.solutions
    ]
    return rows, rec.candidates_seen, rec.truncated


def typed_pattern(data, names, classes, rels):
    kind = data.draw(st.sampled_from(["var", "type", "const"]))
    subject = data.draw(st.sampled_from(["?a", "?b"]))
    if kind == "type":
        return pattern(subject, "type", data.draw(st.sampled_from(classes)))
    rel = data.draw(st.sampled_from(rels))
    return pattern(subject, rel, "?c" if kind == "var" else data.draw(st.sampled_from(names)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ranking_over_the_kept_ids_matches_a_reingest(data):
    # A random typed graph, its triples in a random order. Each case
    # deletes facts of one term of the query, often every one of them, so
    # the last fact of a query constant, a class, a predicate or rdf:type
    # goes.
    names, classes, rels = [f"e{i}" for i in range(5)], ["C0", "C1"], ["r0", "r1", "r2"]
    ents = st.sampled_from(names)
    rows = data.draw(st.lists(st.tuples(ents, st.sampled_from(rels), ents), min_size=2, max_size=12))
    rows += [(s, "type", c) for s, c in data.draw(st.lists(st.tuples(ents, st.sampled_from(classes)), max_size=6))]
    g = build_graph(data.draw(st.permutations(rows)))
    q = make_query(
        [pattern("?a", data.draw(st.sampled_from(rels)), "?b")]
        + [typed_pattern(data, names, classes, rels) for _ in range(data.draw(st.integers(1, 2)))]
    )
    triples = list(g.triples())
    # a term of the query (rdf:type included) that the graph holds, else any
    known = [x for p in q.patterns for x in (p.p, p.o) if isinstance(x, Const) and g.id(x.term) is not None]
    terms = [g.id(x.term) for x in known] or list(range(g.term_count))

    def deletions():
        term = data.draw(st.sampled_from(terms))
        facts = [t for t in triples if term in t]
        if data.draw(st.booleans()):  # every fact of the term: its last goes
            return facts
        return data.draw(st.lists(st.sampled_from(data.draw(st.sampled_from([facts, triples]))), min_size=1, max_size=3))

    cases = [BenchCase(f"case{i}", q, deletions()) for i in range(data.draw(st.integers(1, 3)))]
    cfg = EmbeddingConfig(
        model=data.draw(st.sampled_from(["transe", "transh", "transr"])), dim=4, epochs=2, batch_size=4, seed=0
    )
    emb = trq.embedding.train(g, cfg)
    for case in cases:
        threshold = data.draw(st.integers(1, 3))
        req = RecommendRequest(query=q, embeddings=emb, threshold=threshold, top_k=None)
        kept = g.without(np.array(case.deletions, dtype=np.int64))
        assert ranking_fields(kept, req) == ranking_fields(corrupt_graph(g, case.deletions), req)
    for kwargs in ({"embed_config": cfg}, {"embeddings": emb}):
        assert [bench_fields(r) for r in run_benchmark(g, cases, **kwargs).rows] == [
            bench_fields(r) for r in reference_run_benchmark(g, cases, **kwargs).rows
        ]


def test_a_class_left_with_no_instance_is_unknown_to_its_case():
    # <e:D> has one instance, whose type fact the case deletes. D is then
    # in no fact, so the case's graph does not know it: the class edge of
    # every row falls back to the floor, as over a re-ingested graph, and
    # is not scored against the zero type vector of a class with no
    # embedded instance.
    rows = [("a", "type", "C"), ("a", "p", "b"), ("b", "type", "C"), ("b", "p", "c"), ("c", "type", "C")]
    rows += [("c", "q", "a"), ("d", "type", "D"), ("d", "p", "a")]
    g = build_graph(rows)
    q = make_query([pattern("?x", "p", "?y"), pattern("?x", "type", "D")])
    fact = Triple(g.id(ex("d")), g.rdf_type_id, g.id(ex("D")))
    kept = g.without(np.array([fact]))
    assert kept.id(ex("D")) is None and kept.term_count == g.term_count - 1
    for emb in (small_emb(g, epochs=3), small_emb(corrupt_graph(g, [fact]), epochs=3)):
        req = RecommendRequest(query=q, embeddings=emb, top_k=None)
        got = ranking_fields(kept, req)
        assert got == ranking_fields(corrupt_graph(g, [fact]), req)
        solutions, candidates, _ = got
        assert candidates == 3 and all(edges[1][4] and edges[1][2] == 0.5 for _, _, _, edges in solutions)
    case = BenchCase("d", q, [fact], truth={(ex("d").nt(), ex("a").nt())})
    cfg = EmbeddingConfig(dim=4, epochs=2, seed=0)
    assert [bench_fields(r) for r in run_benchmark(g, [case], embed_config=cfg).rows] == [
        bench_fields(r) for r in reference_run_benchmark(g, [case], embed_config=cfg).rows
    ]


# -- manifests ---------------------------------------------------------


def test_load_manifest(tmp_path):
    (tmp_path / "q1.rq").write_text("SELECT ?x WHERE { ?x <http://p> <http://o> . }")
    (tmp_path / "q2.rq").write_text("SELECT ?x WHERE { ?x <http://p> <http://o> . }")
    (tmp_path / "d1.nt").write_text("")
    (tmp_path / "t1.tsv").write_text("")
    (tmp_path / "bench.manifest").write_text(
        "# comment\n"
        "\n"
        "q1.rq d1.nt t1.tsv\n"
        "q2.rq d1.nt -\n"
        "q2.rq d1.nt\n"
    )
    entries = load_manifest(tmp_path / "bench.manifest")
    assert [e.name for e in entries] == ["q1", "q2", "q2-2"]
    assert entries[0].truth_path == tmp_path / "t1.tsv"
    assert entries[1].truth_path is None
    assert entries[2].truth_path is None
    assert entries[0].deletions_path == tmp_path / "d1.nt"


def test_load_manifest_bad_column_count(tmp_path):
    manifest = tmp_path / "bench.manifest"
    manifest.write_text("only-one-column\n")
    with pytest.raises(ValueError) as e:
        load_manifest(manifest)
    assert str(e.value) == f"{manifest}: line 1: expected 2 or 3 columns, got 1"


def test_load_cases_resolves_every_file(tmp_path):
    g = parse_ntriples("_:x <p:p> <p:a> .\n_:y <p:p> <p:b> .\n<p:a> <p:q> <p:b> .\n")
    (tmp_path / "q.rq").write_text("SELECT ?s ?o WHERE {\n  ?s <p:p> ?o .\n}")
    (tmp_path / "d.nt").write_text("# blank nodes go by the store's labels\n_:b1 <p:p> <p:b> .\n")
    (tmp_path / "t.tsv").write_text("<p:a>\t_:b0\n\n<p:b>\t_:b1\n")  # ?o ?s
    (tmp_path / "bench.manifest").write_text("q.rq d.nt t.tsv\nq.rq d.nt\n")
    a, b = load_cases(g, tmp_path / "bench.manifest")
    assert (a.name, b.name) == ("q", "q-2")
    assert a.query.patterns == parse_query("SELECT ?s ?o WHERE { ?s <p:p> ?o . }").patterns
    assert a.deletions == b.deletions == [Triple(g.id(Term.blank("b1")), g.id(Term.iri("p:p")), g.id(Term.iri("p:b")))]
    assert a.truth == {("<p:a>", "_:b0"), ("<p:b>", "_:b1")} and b.truth is None


def test_load_cases_rejects_a_manifest_without_cases(tmp_path):
    manifest = tmp_path / "bench.manifest"
    manifest.write_text("# nothing yet\n")
    with pytest.raises(ValueError) as e:
        load_cases(parse_ntriples("<p:a> <p:q> <p:b> .\n"), manifest)
    assert str(e.value) == f"{manifest}: lists no case"
    assert run_benchmark(parse_ntriples("<p:a> <p:q> <p:b> .\n"), [], uniform_f=0.5).rows == []
