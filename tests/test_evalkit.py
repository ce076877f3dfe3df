from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trq.embedding import EmbeddingConfig
from trq.evalkit import (
    BenchCase,
    MissingDeletionError,
    corrupt_graph,
    exact_solutions,
    load_manifest,
    mean_rank,
    reciprocal_rank,
    run_benchmark,
)
from trq.sparql import parse_query
from trq.store import parse_ntriples
from trq.terms import Term, Triple

from conftest import (
    build_graph,
    ex,
    exact_instance,
    make_query,
    pattern,
    planted_kg,
    reference_corrupt_graph,
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
    assert not g2.contains_triple(
        Triple(g2.id(ex("a")), g2.id(ex("p")), g2.id(ex("b")))
    )
    # untouched facts survive
    assert g2.contains_triple(Triple(g2.id(ex("b")), g2.id(ex("p")), g2.id(ex("c"))))


def test_corrupt_graph_leaves_original_untouched(g5):
    t = Triple(g5.id(ex("a")), g5.id(ex("p")), g5.id(ex("b")))
    corrupt_graph(g5, [t])
    assert g5.contains_triple(t)


def test_corrupt_graph_missing_deletion_raises(g5):
    bogus = Triple(0, 0, 0)
    with pytest.raises(MissingDeletionError) as e:
        corrupt_graph(g5, [bogus])
    assert e.value.missing == [bogus]


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


def test_benchmark_uniform_f_ablation_runs(bench_world):
    g = bench_world
    case = BenchCase(
        name="m0",
        query=member_query(),
        deletions=[Triple(g.id(ex("m0")), g.id(ex("memberOf")), g.id(ex("G")))],
    )
    report = run_benchmark(g, [case], embeddings=small_emb(g, epochs=3), uniform_f=1.0)
    assert report.failures == 0


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
    (tmp_path / "bench.manifest").write_text("only-one-column\n")
    with pytest.raises(ValueError):
        load_manifest(tmp_path / "bench.manifest")
