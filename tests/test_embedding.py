from __future__ import annotations

import dataclasses
import functools
import io
import itertools
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trq.embedding
from trq.embedding import (
    EMBED_MAGIC,
    EmbeddingConfig,
    EmbeddingFormatError,
    EmbeddingSet,
    NonFiniteEmbeddingError,
    UnembeddedTermError,
    load_embeddings,
    margin_loss_and_grads,
    save_embeddings,
    train,
)
from trq.evalkit import BenchCase, run_benchmark
from trq.scoring import in_graph_flags, score_table
from trq.store import GraphBuilder, parse_ntriples
from trq.terms import RDF_TYPE, Term, TermKind

from conftest import (
    build_graph,
    ex,
    make_query,
    nt_text,
    pattern,
    planted_kg,
    reference_extended_score,
    small_emb,
)


@pytest.fixture(scope="module")
def chain():
    rows = [(f"e{i}", "r0" if i % 2 else "r1", f"e{i + 1}") for i in range(12)]
    rows += [("e0", "type", "C"), ("e1", "type", "C"), ("e2", "type", "D")]
    return build_graph(rows)


# -- config ------------------------------------------------------------


def test_config_defaults_valid():
    EmbeddingConfig().validate()


@pytest.mark.parametrize(
    "kw",
    [
        {"model": "transz"},
        {"norm": "l3"},
        {"dim": 0},
        {"epochs": 0},
        {"batch_size": 0},
        {"negatives_per_positive": 0},
        {"margin": 0.0},
        {"learning_rate": -1.0},
        {"model": "transe", "rel_dim": 5, "dim": 8},
        {"model": "transr", "rel_dim": 0},
    ],
)
def test_config_rejections(kw):
    with pytest.raises(ValueError):
        EmbeddingConfig(**kw).validate()


def test_rel_dim_resolution():
    assert EmbeddingConfig(dim=7).resolved_rel_dim() == 7
    assert EmbeddingConfig(model="transr", dim=7, rel_dim=4).resolved_rel_dim() == 4


# -- gradients ---------------------------------------------------------


def _random_state(rng, model, n_ent=5, n_rel=3, dim=6, rel_dim=None):
    rel_dim = rel_dim or dim
    ent = rng.normal(size=(n_ent, dim))
    rel = rng.normal(size=(n_rel, rel_dim))
    normals = None
    maps = None
    if model == "transh":
        normals = rng.normal(size=(n_rel, dim))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    if model == "transr":
        maps = rng.normal(size=(n_rel, rel_dim, dim))
    return ent, rel, normals, maps


@pytest.mark.parametrize("model", ["transe", "transh", "transr"])
@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_gradients_match_finite_differences(model, norm):
    rng = np.random.default_rng(5)
    rel_dim = 4 if model == "transr" else 6
    ent, rel, normals, maps = _random_state(rng, model, rel_dim=rel_dim)
    pos = np.array([[0, 0, 1], [2, 1, 3], [4, 2, 0]])
    neg = np.array([[1, 0, 1], [2, 1, 4], [3, 2, 0]])
    margin = 1.0

    def loss_of(e, r, w, m):
        val, _ = margin_loss_and_grads(model, norm, margin, e, r, w, m, pos, neg)
        return val

    base, grads = margin_loss_and_grads(model, norm, margin, ent, rel, normals, maps, pos, neg)
    assert base > 0.0

    eps = 1e-6
    checks = [("entities", ent), ("relations", rel)]
    if model == "transh":
        checks.append(("normals", normals))
    if model == "transr":
        checks.append(("maps", maps))
    probes = 0
    for name, arr in checks:
        grad = grads[name]
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in rng.choice(flat.size, size=min(10, flat.size), replace=False):
            saved = flat[idx]
            flat[idx] = saved + eps
            up = loss_of(ent, rel, normals, maps)
            flat[idx] = saved - eps
            down = loss_of(ent, rel, normals, maps)
            flat[idx] = saved
            fd = (up - down) / (2 * eps)
            assert abs(fd - gflat[idx]) <= 1e-5 * max(1.0, abs(fd)), (name, idx)
            probes += 1
    assert probes >= 20


def test_zero_when_margin_satisfied():
    # pushing the positive far below the negative leaves no active pairs
    ent = np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 50.0]])
    rel = np.array([[1.0, 0.0]])
    pos = np.array([[0, 0, 1]])  # g = 0
    neg = np.array([[0, 0, 2]])  # g huge
    loss, grads = margin_loss_and_grads("transe", "l1", 1.0, ent, rel, None, None, pos, neg)
    assert loss == 0.0
    assert not grads["entities"].any() and not grads["relations"].any()


# -- model reductions --------------------------------------------------


def _manual_set(model, ent, rel, terms_e, terms_r, normals=None, maps=None, norm="l2"):
    return EmbeddingSet(
        model=model,
        norm=norm,
        dim=ent.shape[1],
        rel_dim=rel.shape[1],
        margin=1.0,
        entity_terms=terms_e,
        relation_terms=terms_r,
        entity_vecs=ent.astype(np.float32),
        relation_vecs=rel.astype(np.float32),
        normals=None if normals is None else normals.astype(np.float32),
        maps=None if maps is None else maps.astype(np.float32),
    )


def test_transh_with_zero_normal_reduces_to_transe():
    g = build_graph([("a", "p", "b")])
    rng = np.random.default_rng(0)
    ent = rng.normal(size=(3, 4))
    rel = rng.normal(size=(1, 4))
    terms_e = [ex("a"), ex("b"), ex("c")]
    terms_r = [ex("p")]
    se = _manual_set("transe", ent, rel, terms_e, terms_r).bind(g)
    sh = _manual_set(
        "transh", ent, rel, terms_e, terms_r, normals=np.zeros((1, 4))
    ).bind(g)
    a, p, b = g.id(ex("a")), g.id(ex("p")), g.id(ex("b"))
    assert sh.score_triple(a, p, b) == pytest.approx(se.score_triple(a, p, b), abs=1e-9)


def test_transr_with_identity_map_reduces_to_transe():
    g = build_graph([("a", "p", "b")])
    rng = np.random.default_rng(1)
    ent = rng.normal(size=(3, 4))
    rel = rng.normal(size=(1, 4))
    terms_e = [ex("a"), ex("b"), ex("c")]
    terms_r = [ex("p")]
    se = _manual_set("transe", ent, rel, terms_e, terms_r).bind(g)
    sr = _manual_set(
        "transr", ent, rel, terms_e, terms_r, maps=np.eye(4)[None, :, :]
    ).bind(g)
    a, p, b = g.id(ex("a")), g.id(ex("p")), g.id(ex("b"))
    assert sr.score_triple(a, p, b) == pytest.approx(se.score_triple(a, p, b), abs=1e-9)


def test_transh_projection_formula():
    g = build_graph([("a", "p", "b")])
    ent = np.array([[1.0, 1.0], [0.0, 2.0]])
    rel = np.array([[0.5, -0.5]])
    w = np.array([[1.0, 0.0]])  # project out the first axis
    s = _manual_set("transh", ent, rel, [ex("a"), ex("b")], [ex("p")], normals=w, norm="l1").bind(g)
    # h_perp = (0, 1), t_perp = (0, 2): d = (0,1)+(0.5,-0.5)-(0,2) = (0.5,-1.5)
    assert s.score_triple(0, g.id(ex("p")), g.id(ex("b"))) == pytest.approx(2.0)


def test_l1_l2_score_difference():
    g = build_graph([("a", "p", "b")])
    ent = np.array([[0.0, 0.0], [3.0, 4.0]])
    rel = np.array([[0.0, 0.0]])
    terms_e, terms_r = [ex("a"), ex("b")], [ex("p")]
    l1 = _manual_set("transe", ent, rel, terms_e, terms_r, norm="l1").bind(g)
    l2 = _manual_set("transe", ent, rel, terms_e, terms_r, norm="l2").bind(g)
    p, b = g.id(ex("p")), g.id(ex("b"))
    assert l1.score_triple(0, p, b) == pytest.approx(7.0)
    assert l2.score_triple(0, p, b) == pytest.approx(5.0)


# -- training behaviour ------------------------------------------------


def test_training_is_deterministic(chain):
    cfg = EmbeddingConfig(dim=8, epochs=6, batch_size=8, seed=3)
    a = train(chain, cfg)
    b = train(chain, cfg)
    assert np.array_equal(a.entity_vecs, b.entity_vecs)
    assert np.array_equal(a.relation_vecs, b.relation_vecs)
    assert a.losses == b.losses


def test_seed_changes_result(chain):
    a = train(chain, EmbeddingConfig(dim=8, epochs=2, seed=0))
    b = train(chain, EmbeddingConfig(dim=8, epochs=2, seed=1))
    assert not np.array_equal(a.entity_vecs, b.entity_vecs)


def test_loss_decreases_on_learnable_graph():
    rows = [(f"a{i}", "p", f"b{i}") for i in range(8)]
    g = build_graph(rows)
    emb = train(g, EmbeddingConfig(dim=16, epochs=40, batch_size=8, seed=0))
    assert len(emb.losses) == 40
    assert emb.losses[-1] < emb.losses[0]


def test_trained_triples_score_below_corrupted(chain):
    emb = train(chain, EmbeddingConfig(dim=16, epochs=60, batch_size=16, seed=2)).bind(chain)
    better = 0
    total = 0
    for tr in chain.triples():
        if tr.p == chain.rdf_type_id:
            continue
        total += 1
        # corrupt the tail with an arbitrary different entity
        for cand in range(chain.term_count):
            if cand != tr.o and emb.ent_row[cand] >= 0 and not chain.contains(tr.s, tr.p, cand):
                if emb.score_triple(tr.s, tr.p, tr.o) < emb.score_triple(tr.s, tr.p, cand):
                    better += 1
                break
    assert better / total >= 0.7


def test_entity_rows_stay_in_unit_ball(chain):
    for model in ("transe", "transh", "transr"):
        emb = train(chain, EmbeddingConfig(model=model, dim=8, epochs=4, seed=0))
        norms = np.linalg.norm(emb.entity_vecs.astype(np.float64), axis=1)
        assert (norms <= 1.0 + 1e-6).all()


def test_transh_normals_stay_unit(chain):
    emb = train(chain, EmbeddingConfig(model="transh", dim=8, epochs=4, seed=0))
    norms = np.linalg.norm(emb.normals.astype(np.float64), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-6)


def test_every_term_gets_rows_even_type_terms(chain):
    emb = train(chain, EmbeddingConfig(dim=8, epochs=2, seed=0))
    # classes and rdf:type itself have rows despite batch exclusion
    assert ex("C") in emb.entity_index
    assert RDF_TYPE in emb.relation_index
    assert chain.term_count >= emb.entity_count


def test_include_type_triples_changes_training(chain):
    a = train(chain, EmbeddingConfig(dim=8, epochs=4, seed=0))
    b = train(chain, EmbeddingConfig(dim=8, epochs=4, seed=0, include_type_triples=True))
    assert not np.array_equal(a.entity_vecs, b.entity_vecs)


def test_type_only_graph_trains_with_empty_batches():
    g = build_graph([("a", "type", "C"), ("b", "type", "C")])
    emb = train(g, EmbeddingConfig(dim=4, epochs=3, seed=0))
    assert emb.losses == [0.0, 0.0, 0.0]


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        train(GraphBuilder().build(), EmbeddingConfig())


def test_transr_rectangular_relation_space(chain):
    emb = train(chain, EmbeddingConfig(model="transr", dim=8, rel_dim=5, epochs=3, seed=0))
    assert emb.entity_vecs.shape[1] == 8
    assert emb.relation_vecs.shape[1] == 5
    assert emb.maps.shape[1:] == (5, 8)
    emb.bind(chain).score_triple(0, chain.id(ex("r0")), 2)


# -- type vectors and normalized plausibility --------------------------


def _entity_vec(emb, term):
    return emb.entity_vecs[emb.entity_index[term]].astype(np.float64)


def test_type_vector_is_instance_mean(chain):
    emb = small_emb(chain)
    c = chain.id(ex("C"))
    e0 = _entity_vec(emb, ex("e0"))
    e1 = _entity_vec(emb, ex("e1"))
    expect = (e0 + e1) / 2.0
    assert np.allclose(emb.bind(chain).type_vector(c), expect, atol=1e-7)


def test_type_vector_falls_back_to_own_row(chain):
    emb = small_emb(chain)
    # e5 has no instances; its own entity row is the fallback
    e5 = chain.id(ex("e5"))
    assert np.allclose(emb.bind(chain).type_vector(e5), _entity_vec(emb, ex("e5")))


def test_type_vector_zero_for_unknown_class():
    g1 = build_graph([("a", "p", "b")])
    g2 = build_graph([("a", "p", "b"), ("x", "q", "y")])
    emb = small_emb(g1)
    # x never seen at training time: no row, no instances
    assert not np.any(emb.bind(g2).type_vector(g2.id(ex("x"))))


def test_extended_score_uses_type_vector_for_membership(chain):
    emb = small_emb(chain).bind(chain)
    e2 = chain.id(ex("e2"))
    c = chain.id(ex("C"))
    ty = chain.rdf_type_id
    manual = float(
        np.abs(_entity_vec(emb.embeddings, ex("e2")) - emb.type_vector(c)).sum()
    )
    assert emb.extended_score(e2, ty, c) == pytest.approx(manual, rel=1e-9)
    # non-membership relations defer to the model score
    r0 = chain.id(ex("r0"))
    assert emb.extended_score(e2, r0, e2) == pytest.approx(
        emb.score_triple(e2, r0, e2), rel=1e-12
    )


def test_normalize_members_exactly_one(chain):
    emb = small_emb(chain).bind(chain)
    for tr in chain.triples():
        assert emb.normalize(tr.s, tr.p, tr.o) == 1.0


def test_normalize_nonmembers_in_open_unit_interval(chain):
    emb = small_emb(chain).bind(chain)
    e0, e5 = chain.id(ex("e0")), chain.id(ex("e5"))
    r0 = chain.id(ex("r0"))
    v = emb.normalize(e5, r0, e0)
    if not chain.contains(e5, r0, e0):
        assert 0.0 < v < 1.0


@pytest.mark.parametrize("model", ["transe", "transh", "transr"])
@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_score_table_f_equals_normalize(chain, model, norm):
    # the column-wise plausibility of a (?h ?r ?t) table is the scalar
    # normalize of each row, and falls back exactly where normalize raises
    emb = train(chain, EmbeddingConfig(model=model, norm=norm, dim=6, epochs=5, batch_size=8, seed=1))
    # "stray" has no embedding row: the set was trained without it
    rows = [(chain.term(t.s), chain.term(t.p), chain.term(t.o)) for t in chain.triples()]
    g = build_graph(rows + [("e0", "r0", "stray"), ("stray", "type", "C")])
    view = emb.bind(g)
    ents = [g.id(t) for t in g.terms() if t not in (ex("r0"), ex("r1"), RDF_TYPE)]
    rels = [g.id(ex("r0")), g.id(ex("r1")), g.id(RDF_TYPE)]
    table = np.array(list(itertools.product(ents, rels, ents)), dtype=np.int64)
    want = []
    for ids in table.tolist():
        try:
            want.append(view.normalize(*ids))
        except UnembeddedTermError:
            want.append(np.nan)
    resolved, variables = [["h", "r", "t"]], ("h", "r", "t")
    flags = in_graph_flags(g, resolved, variables, table, [0])
    _, f, fallback = score_table(view, resolved, [1.0], variables, table, flags)
    got = np.where(fallback[:, 0], np.nan, f[:, 0])
    assert np.isnan(want).any() and (np.asarray(want) == 1.0).any()
    assert np.array_equal(got, np.asarray(want), equal_nan=True)


@pytest.mark.parametrize("model", ["transe", "transh", "transr"])
@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_score_rows_matches_reference(chain, model, norm, monkeypatch):
    # the batched kernel against the scalar three-branch math it replaced:
    # exact for TransE and membership rows, within 1e-12 relative for the
    # projections; and the same value whatever the chunk size
    emb = train(chain, EmbeddingConfig(model=model, norm=norm, dim=6, epochs=5, batch_size=8, seed=1))
    rows = [(chain.term(t.s), chain.term(t.p), chain.term(t.o)) for t in chain.triples()]
    g = build_graph(rows + [("e0", "r0", "stray"), ("stray", "type", "C")])
    emb = emb.bind(g)
    ents = [g.id(t) for t in g.terms() if t not in (ex("r0"), ex("r1"), RDF_TYPE)]
    rels = [g.id(ex("r0")), g.id(ex("r1")), g.id(RDF_TYPE)]
    h, r, t = (np.array(c, dtype=np.int64) for c in zip(*itertools.product(ents, rels, ents)))
    want = []
    for ids in zip(h.tolist(), r.tolist(), t.tolist()):
        try:
            want.append(reference_extended_score(emb, *ids))
        except UnembeddedTermError:
            want.append(np.nan)
    want = np.asarray(want)
    got, scored = emb.score_rows(h, r, t)
    assert np.array_equal(scored, ~np.isnan(want)) and not scored.all()
    membership = r == g.rdf_type_id
    exact = membership if model != "transe" else np.ones(len(r), dtype=bool)
    assert np.array_equal(got[scored & exact], want[scored & exact])
    assert got[scored] == pytest.approx(want[scored], rel=1e-12, abs=0)
    for chunk in (1, 3):
        monkeypatch.setattr(trq.embedding, "SCORE_CHUNK", chunk)
        assert np.array_equal(emb.score_rows(h, r, t)[0], got)


def test_unembedded_term_raises(chain):
    emb = small_emb(chain)
    g2 = build_graph([("e0", "r0", "brandnew")])
    with pytest.raises(UnembeddedTermError):
        emb.bind(g2).score_triple(g2.id(ex("e0")), g2.id(ex("r0")), g2.id(ex("brandnew")))


@pytest.mark.parametrize("first", ["trained", "reversed"])
def test_views_on_two_graphs_match_fresh_binds(chain, first):
    # one set bound to two graphs that hold the same terms under different
    # ids: each view scores with its own graph's ids, whichever came first
    emb = small_emb(chain)
    rows = [(chain.term(t.s), chain.term(t.p), chain.term(t.o)) for t in chain.triples()]
    flipped = parse_ntriples("".join(reversed(nt_text(rows).splitlines(True))))
    assert list(flipped.terms()) != list(chain.terms())
    graphs = [chain, flipped] if first == "trained" else [flipped, chain]
    views = [emb.bind(g) for g in graphs]
    for g, view in zip(graphs, views):
        fresh = dataclasses.replace(emb).bind(g)
        ents = [g.id(t) for t in emb.entity_terms]
        rels = [g.id(t) for t in emb.relation_terms]
        triples = list(itertools.product(ents, rels, ents))
        h, r, t = (np.array(c, dtype=np.int64) for c in zip(*triples))
        assert [view.score_triple(*x) for x in triples] == [fresh.score_triple(*x) for x in triples]
        assert np.array_equal(view.score_rows(h, r, t)[0], fresh.score_rows(h, r, t)[0])


def test_bind_aligns_once_per_graph(bench_graph, monkeypatch):
    # train's own view needs no alignment; run_benchmark with shared
    # embeddings aligns once per case, for that case's corrupted graph
    graphs = []
    align = trq.embedding._align
    monkeypatch.setattr(trq.embedding, "_align", lambda emb, g: graphs.append(g) or align(emb, g))
    emb = train(bench_graph, EmbeddingConfig(dim=8, epochs=1))
    view = emb.bind(bench_graph)
    assert emb.bind(bench_graph) is view and graphs == []
    assert all(np.array_equal(a, b) for a, b in zip((view.ent_row, view.rel_row), align(emb, bench_graph)))
    cases = []
    for c in range(3):
        value = bench_graph.id(ex(f"val0_{c:02d}"))
        q = make_query([pattern("?a", "linked", "?b"), pattern("?b", "attr0", f"val0_{c:02d}")])
        cases.append(BenchCase(f"c{c}", q, [next(bench_graph.match(None, bench_graph.id(ex("attr0")), value))]))
    report = run_benchmark(bench_graph, cases, embeddings=emb)
    assert report.failures == 0
    assert len(graphs) == len(cases) and len({id(g) for g in graphs}) == len(cases)


# -- persistence -------------------------------------------------------


@pytest.mark.parametrize("model", ["transe", "transh", "transr"])
def test_save_load_round_trip(tmp_path, chain, model):
    cfg = EmbeddingConfig(model=model, dim=6, rel_dim=4 if model == "transr" else None,
                          epochs=2, seed=0, norm="l2", margin=2.5)
    emb = train(chain, cfg)
    path = tmp_path / f"{model}.trqe"
    save_embeddings(emb, path)
    back = load_embeddings(path)
    assert back.model == model
    assert back.norm == "l2"
    assert back.margin == 2.5
    assert back.dim == emb.dim and back.rel_dim == emb.rel_dim
    assert back.entity_terms == emb.entity_terms
    assert back.relation_terms == emb.relation_terms
    assert np.array_equal(back.entity_vecs, emb.entity_vecs)
    assert np.array_equal(back.relation_vecs, emb.relation_vecs)
    if model == "transh":
        assert np.array_equal(back.normals, emb.normals)
    if model == "transr":
        assert np.array_equal(back.maps, emb.maps)
    # scores are bitwise identical after the round trip
    r0 = chain.id(ex("r0"))
    assert back.bind(chain).score_triple(0, r0, 2) == emb.bind(chain).score_triple(0, r0, 2)


def test_save_bytes_deterministic(chain):
    emb = train(chain, EmbeddingConfig(dim=4, epochs=1, seed=0))
    b1, b2 = io.BytesIO(), io.BytesIO()
    save_embeddings(emb, b1)
    save_embeddings(emb, b2)
    assert b1.getvalue() == b2.getvalue()
    assert b1.getvalue()[:4] == EMBED_MAGIC


def test_load_model_expectation(tmp_path, chain):
    emb = train(chain, EmbeddingConfig(model="transh", dim=4, epochs=1, seed=0))
    path = tmp_path / "e.trqe"
    save_embeddings(emb, path)
    load_embeddings(path, expect_model="transh")
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(path, expect_model="transe")


def test_load_rejects_bad_magic(chain):
    emb = train(chain, EmbeddingConfig(dim=4, epochs=1, seed=0))
    buf = io.BytesIO()
    save_embeddings(emb, buf)
    data = bytearray(buf.getvalue())
    data[:4] = b"NOPE"
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(io.BytesIO(bytes(data)))


@pytest.fixture(scope="module")
def bench_graph():
    return planted_kg(n_clusters=8)[0]  # 200 triples


@pytest.mark.parametrize("model", ["transe", "transh", "transr"])
def test_divergent_training_is_a_named_error(model, bench_graph):
    with warnings.catch_warnings(), pytest.raises(NonFiniteEmbeddingError, match="diverged"):
        warnings.simplefilter("error")
        train(bench_graph, EmbeddingConfig(model=model, dim=8, epochs=5, learning_rate=1e300))


def test_divergence_stops_at_the_first_non_finite_epoch(bench_graph, monkeypatch):
    # TransR at this rate overflows in its first epoch; no later batch runs
    batches = []
    grads = trq.embedding.margin_loss_and_grads
    monkeypatch.setattr(trq.embedding, "margin_loss_and_grads", lambda *a: batches.append(1) or grads(*a))
    cfg = EmbeddingConfig(model="transr", dim=8, epochs=5, batch_size=64, learning_rate=1e300)
    with warnings.catch_warnings(), pytest.raises(NonFiniteEmbeddingError, match="in epoch 1 of 5"):
        warnings.simplefilter("error")
        train(bench_graph, cfg)
    assert len(batches) == -(-bench_graph.triple_count // 64)


def test_run_benchmark_records_divergence_on_the_case(bench_graph):
    q = make_query([pattern("?a", "linked", "?b"), pattern("?b", "attr0", "val0_00")])
    deleted = next(iter(bench_graph.match(None, bench_graph.id(ex("attr0")), bench_graph.id(ex("val0_00")))))
    cfg = EmbeddingConfig(dim=8, epochs=5, learning_rate=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_benchmark(bench_graph, [BenchCase("c", q, [deleted])], embed_config=cfg)
    assert report.failures == 1
    assert report.rows[0].error.startswith("NonFiniteEmbeddingError")


@functools.cache
def _trqe_bytes(model: str) -> bytes:
    g = build_graph([("a", "p", "b"), ("b", "q", Term.literal("caf\u00e9")), ("a", "type", "C")])
    buf = io.BytesIO()
    save_embeddings(train(g, EmbeddingConfig(model=model, dim=3, epochs=2, seed=0)), buf)
    return buf.getvalue()


# header offsets: dim u32 at 8, rel_dim u32 at 12, entity and relation
# counts u64 at 24 and 32; the first term's byte length u32 at 41
_HEADER_FIELDS = {8: "<I", 12: "<I", 24: "<Q", 32: "<Q"}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_load_rejects_non_finite_values(bad):
    data = bytearray(_trqe_bytes("transe"))
    data[-4:] = struct.pack("<f", bad)
    with pytest.raises(EmbeddingFormatError, match="non-finite"):
        load_embeddings(io.BytesIO(bytes(data)))


def test_load_rejects_zero_dimension():
    # a header with dim = rel_dim = 0 and no matrix bytes is consistent in size
    raw = bytearray(_trqe_bytes("transe"))
    dim, rel_dim = struct.unpack_from("<II", raw, 8)
    n_ent, n_rel = struct.unpack_from("<QQ", raw, 24)
    raw = raw[: len(raw) - 4 * (n_ent * dim + n_rel * rel_dim)]
    raw[8:16] = struct.pack("<II", 0, 0)
    with pytest.raises(EmbeddingFormatError, match="positive"):
        load_embeddings(io.BytesIO(bytes(raw)))


def test_load_rejects_dimensions_beyond_the_file(tmp_path):
    # read from a path, a matrix of 2**31 columns would be allocated before
    # the read comes up short
    raw = bytearray(_trqe_bytes("transe"))
    raw[8:16] = struct.pack("<II", 2**31, 2**31)
    path = tmp_path / "huge.trqe"
    path.write_bytes(bytes(raw))
    with pytest.raises(EmbeddingFormatError, match="exceed the file size"):
        load_embeddings(path)


def test_load_rejects_relation_width_of_another_model():
    raw = bytearray(_trqe_bytes("transe"))
    raw[12:16] = struct.pack("<I", 4)
    with pytest.raises(EmbeddingFormatError, match="differs"):
        load_embeddings(io.BytesIO(bytes(raw)))


def test_load_rejects_non_utf8_term():
    data = bytearray(_trqe_bytes("transe"))
    data[45] = 0xFF
    with pytest.raises(EmbeddingFormatError, match="UTF-8"):
        load_embeddings(io.BytesIO(bytes(data)))


@settings(max_examples=300, deadline=None)
@given(
    st.data(),
    st.sampled_from(["transe", "transh", "transr"]),
    st.sampled_from(["truncate", "flip", "count", "length"]),
)
def test_embedding_loader_fuzz_raises_only_format_error(data, model, how):
    raw = bytearray(_trqe_bytes(model))
    if how == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
    elif how == "flip":
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(0, len(raw) - 1))
            raw[i] ^= data.draw(st.integers(1, 255))
    elif how == "count":
        offset = data.draw(st.sampled_from(sorted(_HEADER_FIELDS)))
        fmt = _HEADER_FIELDS[offset]
        top = 2 ** (8 * struct.calcsize(fmt)) - 1
        value = data.draw(st.one_of(st.integers(0, 64), st.sampled_from([2**31, 2**32 - 1, top])))
        raw[offset : offset + struct.calcsize(fmt)] = struct.pack(fmt, min(value, top))
    else:
        raw[41:45] = struct.pack("<I", data.draw(st.integers(0, 2**32 - 1)))
    try:
        emb = load_embeddings(io.BytesIO(bytes(raw)))
    except EmbeddingFormatError:
        return
    assert emb.entity_vecs.shape == (emb.entity_count, emb.dim)
    assert emb.relation_vecs.shape == (emb.relation_count, emb.rel_dim)
    assert np.isfinite(emb.entity_vecs).all() and np.isfinite(emb.relation_vecs).all()


def test_failed_save_leaves_existing_file_untouched(tmp_path, chain):
    path = tmp_path / "e.trqe"
    save_embeddings(small_emb(chain), path)
    before = path.read_bytes()
    emb = small_emb(chain, seed=1)
    # a lone surrogate cannot be encoded: the write fails after the header
    emb.relation_terms[-1] = Term(TermKind.IRI, "http://example.org/\ud800")
    with pytest.raises(UnicodeEncodeError):
        save_embeddings(emb, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["e.trqe"]


def test_load_rejects_truncation_and_trailing(chain):
    emb = train(chain, EmbeddingConfig(dim=4, epochs=1, seed=0))
    buf = io.BytesIO()
    save_embeddings(emb, buf)
    data = buf.getvalue()
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(io.BytesIO(data[:-2]))
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(io.BytesIO(data + b"!"))
