from __future__ import annotations

import dataclasses
import functools
import io
import itertools
import math
import re
import struct
import tracemalloc
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
    load_embeddings,
    save_embeddings,
    train,
)
from trq.binio import term_key
from trq.evalkit import BenchCase, run_benchmark
from trq.store import Graph, TermTable, parse_ntriples
from trq.terms import RDF_TYPE, Term

from conftest import (
    NoEmbeddingRow,
    build_graph,
    dense_pair_grads,
    edge_plausibility,
    ex,
    keys_of,
    make_query,
    match_triples,
    nt_text,
    parent_batch_scores,
    parent_train_step,
    pattern,
    planted_kg,
    reference_extended_score,
    reference_run_benchmark,
    reference_score_triple,
    reference_train_step,
    reference_training_input,
    row_score,
    small_emb,
    step_workspace,
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


@pytest.mark.parametrize("name", ["margin", "learning_rate"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_config_rejects_non_finite_settings(name, value):
    with pytest.raises(ValueError, match=name):
        EmbeddingConfig(**{name: value}).validate()


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
        val, _ = dense_pair_grads(model, norm, margin, e, r, w, m, pos, neg)
        return val

    base, grads = dense_pair_grads(model, norm, margin, ent, rel, normals, maps, pos, neg)
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
    loss, grads = dense_pair_grads("transe", "l1", 1.0, ent, rel, None, None, pos, neg)
    assert loss == 0.0
    assert not grads["entities"].any() and not grads["relations"].any()


# -- the training step ---------------------------------------------------


def _step_batch(model, k, rng):
    """A unit-ball state and a batch of k negatives per positive."""
    ent, rel, normals, maps = _random_state(rng, model, n_ent=9, rel_dim=4 if model == "transr" else 6)
    ent /= np.linalg.norm(ent, axis=1, keepdims=True)
    pos = np.repeat(np.array([[0, 0, 1], [2, 1, 3], [4, 2, 0], [1, 0, 5], [0, 1, 2]]), k, axis=0)
    neg = pos.copy()
    side = np.where(rng.random(len(pos)) < 0.5, 0, 2)
    neg[np.arange(len(pos)), side] = rng.integers(9, size=len(pos))
    return [ent, rel, normals, maps], pos, neg


def _copy(params):
    return [None if x is None else x.copy() for x in params]


@pytest.mark.parametrize("model", ["transe", "transh", "transr"])
@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("active", ["some", "none"])
def test_train_step_matches_the_dense_reference(model, norm, k, active):
    params, pos, neg = _step_batch(model, k, np.random.default_rng(17))
    margin = 1.0
    if active == "none":
        # keep the pairs whose negative scores higher and a margin below
        # every gap, so no pair is active
        ent, rel, normals, maps = params
        gap = parent_batch_scores(model, norm, ent, rel, normals, maps, *neg.T)[0]
        gap -= parent_batch_scores(model, norm, ent, rel, normals, maps, *pos.T)[0]
        pos, neg = pos[gap > 0], neg[gap > 0]
        margin = gap[gap > 0].min() / 2
        assert len(pos)
    got, want = _copy(params), _copy(params)
    ws = step_workspace(model, len(pos), got[0], got[1])
    loss = trq.embedding._train_step(ws, model, norm, margin, 0.5, *got, pos, neg)
    assert loss == pytest.approx(reference_train_step(model, norm, margin, 0.5, *want, pos, neg), rel=1e-12)
    assert (loss == 0.0) == (active == "none")
    for a, b in zip(got, want):
        if a is not None:
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
    if active == "none":
        for a, b in zip(got, params):
            if a is not None:
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("model", ["transe", "transh", "transr"])
@pytest.mark.parametrize("k", [1, 3])
def test_training_matches_training_with_the_reference_step(chain, model, k, monkeypatch):
    cfg = EmbeddingConfig(
        model=model, dim=8, rel_dim=5 if model == "transr" else None, epochs=6, batch_size=4,
        negatives_per_positive=k, learning_rate=0.05, norm="l2", seed=4,
    )
    got = train(chain, cfg)
    monkeypatch.setattr(trq.embedding, "_train_step", lambda ws, *a: reference_train_step(*a))
    want = train(chain, cfg)
    assert got.losses == pytest.approx(want.losses, rel=1e-9)
    assert got.sampler_redraws == want.sampler_redraws
    for name in ("entity_vecs", "relation_vecs", "normals", "maps"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-6)


@pytest.mark.parametrize("model", ["transe", "transh", "transr"])
@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("active", ["some", "none", "all"])
def test_train_step_is_bit_identical_to_the_parent_step(model, norm, k, active):
    params, pos, neg = _step_batch(model, k, np.random.default_rng(23))
    # g(pos) - g(neg): a pair is within the margin when margin + diff <= 0
    diff = parent_batch_scores(model, norm, *params, *pos.T)[0] - parent_batch_scores(model, norm, *params, *neg.T)[0]
    # "some": about half the pairs are within the margin
    margin = {"some": -np.median(diff), "all": 100.0}.get(active)
    if active == "none":
        # the pairs whose negative scores higher, and a margin below every gap
        pos, neg, diff = pos[diff < 0], neg[diff < 0], diff[diff < 0]
        margin = -diff.max() / 2
    live = np.count_nonzero(margin + diff > 0)
    assert {"some": 0 < live < len(pos), "none": live == 0 < len(pos), "all": live == len(pos)}[active]
    got, want = _copy(params), _copy(params)
    ws = step_workspace(model, len(pos), got[0], got[1])
    # a full batch, then a shorter last one through the same workspace
    for part in (slice(None), slice(len(pos) // 2 + 1)):
        loss = trq.embedding._train_step(ws, model, norm, margin, 0.5, *got, pos[part], neg[part])
        assert loss == parent_train_step(model, norm, margin, 0.5, *want, pos[part], neg[part])
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            assert a is None or np.array_equal(a, b)


def _parent_trained(g, cfg, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(trq.embedding, "_train_step", lambda ws, *a: parent_train_step(*a))
        return train(g, cfg)


def _file_bytes(emb) -> bytes:
    buf = io.BytesIO()
    save_embeddings(emb, buf)
    return buf.getvalue()


@pytest.mark.parametrize("model", ["transe", "transh", "transr"])
@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_training_is_bit_identical_to_training_with_the_parent_step(chain, model, norm, monkeypatch):
    # 24 pairs an epoch in batches of 10: the last batch is short
    cfg = EmbeddingConfig(
        model=model, norm=norm, dim=8, rel_dim=5 if model == "transr" else None, epochs=6, batch_size=5,
        negatives_per_positive=2, learning_rate=0.05, seed=4,
    )
    got, want = train(chain, cfg), _parent_trained(chain, cfg, monkeypatch)
    assert got.losses == want.losses
    assert got.sampler_redraws == want.sampler_redraws
    assert _file_bytes(got) == _file_bytes(want)


def test_bench_training_is_bit_identical_to_training_with_the_parent_step(bench_graph, monkeypatch):
    cfg = EmbeddingConfig(
        model="transh", dim=16, epochs=20, batch_size=128, learning_rate=0.1, margin=2.0, norm="l2", seed=0
    )
    got, want = train(bench_graph, cfg), _parent_trained(bench_graph, cfg, monkeypatch)
    assert got.losses == want.losses
    assert _file_bytes(got) == _file_bytes(want)


def test_a_training_step_allocates_little(chain, monkeypatch):
    # a deletion-bench step: TransH, 128 pairs, dim 16, about 330 entities;
    # the step before the workspace peaked at about 549 KiB here
    rng = np.random.default_rng(0)
    n_ent, n_rel, dim, n = 330, 8, 16, 128
    ent, rel, normals, _ = _random_state(rng, "transh", n_ent=n_ent, n_rel=n_rel, dim=dim)
    ent /= np.linalg.norm(ent, axis=1, keepdims=True)
    pos = np.stack([rng.integers(n_ent, size=n), rng.integers(n_rel, size=n), rng.integers(n_ent, size=n)], axis=1)
    neg = pos.copy()
    neg[:, 2] = rng.integers(n_ent, size=n)
    ws = step_workspace("transh", n, ent, rel)
    args = (ws, "transh", "l2", 2.0, 0.1, ent, rel, normals, None, pos, neg)
    assert trq.embedding._train_step(*args) > 0
    tracemalloc.start()
    try:
        trq.embedding._train_step(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024

    # the workspace is sized by the pairs an epoch has, not by the flag
    sizes = []
    workspace = trq.embedding._Workspace
    monkeypatch.setattr(trq.embedding, "_Workspace", lambda *a: sizes.append(a[1]) or workspace(*a))
    train(chain, EmbeddingConfig(dim=8, epochs=2, batch_size=10**9, negatives_per_positive=3))
    assert sizes == [2 * 12 * 3]


# -- model reductions --------------------------------------------------


def _manual_set(model, ent, rel, terms_e, terms_r, normals=None, maps=None, norm="l2"):
    return EmbeddingSet(
        model=model,
        norm=norm,
        margin=1.0,
        entity_keys=keys_of(terms_e),
        relation_keys=keys_of(terms_r),
        entity_vecs=ent.astype(np.float32),
        relation_vecs=rel.astype(np.float32),
        normals=None if normals is None else normals.astype(np.float32),
        maps=None if maps is None else maps.astype(np.float32),
    )


def test_a_set_with_more_entity_rows_than_entities_is_refused(tmp_path):
    # 3 entity keys and a 4 x 2 entity_vecs once saved 112 bytes that
    # load_embeddings rejected as trailing bytes
    terms_e, terms_r = [ex("a"), ex("b"), ex("c")], [ex("p")]
    with pytest.raises(ValueError, match="^entity_vecs has 4 rows for 3 entity table entries$"):
        _manual_set("transe", np.zeros((4, 2)), np.zeros((1, 2)), terms_e, terms_r)


@pytest.mark.parametrize(
    ("model", "rel", "normals", "maps", "message"),
    [
        ("transe", (2, 2), None, None, "relation_vecs has 2 rows for 1 relation table entries"),
        ("transh", (1, 3), (1, 2), None, "relation_vecs is 3 wide for entity rows 2 wide in a transh set"),
        ("transe", (1, 2), (1, 2), None, r"a transe set has no normals, got shape \(1, 2\)"),
        ("transr", (1, 3), (1, 2), (1, 3, 2), r"a transr set has no normals, got shape \(1, 2\)"),
        ("transh", (1, 2), (1, 2), (1, 2, 2), r"a transh set has no maps, got shape \(1, 2, 2\)"),
        ("transh", (1, 2), None, None, r"normals has shape None for 1 relations, transh needs \(1, 2\)"),
        ("transh", (1, 2), (2, 2), None, r"normals has shape \(2, 2\) for 1 relations, transh needs \(1, 2\)"),
        ("transr", (1, 3), None, (1, 2, 3), r"maps has shape \(1, 2, 3\) for 1 relations, transr needs \(1, 3, 2\)"),
    ],
)
def test_a_set_whose_matrices_do_not_fit_its_tables_or_model_is_refused(model, rel, normals, maps, message):
    def zeros(shape):
        return None if shape is None else np.zeros(shape)

    with pytest.raises(ValueError, match=f"^{message}$"):
        _manual_set(model, np.zeros((3, 2)), zeros(rel), [ex("a"), ex("b"), ex("c")], [ex("p")], zeros(normals), zeros(maps))


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
    assert row_score(sh, a, p, b) == pytest.approx(row_score(se, a, p, b), abs=1e-9)


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
    assert row_score(sr, a, p, b) == pytest.approx(row_score(se, a, p, b), abs=1e-9)


def test_transh_projection_formula():
    g = build_graph([("a", "p", "b")])
    ent = np.array([[1.0, 1.0], [0.0, 2.0]])
    rel = np.array([[0.5, -0.5]])
    w = np.array([[1.0, 0.0]])  # project out the first axis
    s = _manual_set("transh", ent, rel, [ex("a"), ex("b")], [ex("p")], normals=w, norm="l1").bind(g)
    # h_perp = (0, 1), t_perp = (0, 2): d = (0,1)+(0.5,-0.5)-(0,2) = (0.5,-1.5)
    assert row_score(s, 0, g.id(ex("p")), g.id(ex("b"))) == pytest.approx(2.0)


def test_l1_l2_score_difference():
    g = build_graph([("a", "p", "b")])
    ent = np.array([[0.0, 0.0], [3.0, 4.0]])
    rel = np.array([[0.0, 0.0]])
    terms_e, terms_r = [ex("a"), ex("b")], [ex("p")]
    l1 = _manual_set("transe", ent, rel, terms_e, terms_r, norm="l1").bind(g)
    l2 = _manual_set("transe", ent, rel, terms_e, terms_r, norm="l2").bind(g)
    p, b = g.id(ex("p")), g.id(ex("b"))
    assert row_score(l1, 0, p, b) == pytest.approx(7.0)
    assert row_score(l2, 0, p, b) == pytest.approx(5.0)


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
                if row_score(emb, tr.s, tr.p, tr.o) < row_score(emb, tr.s, tr.p, cand):
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
    assert ex("C") in emb.entity_terms
    assert RDF_TYPE in emb.relation_terms
    assert chain.term_count >= emb.entity_count


@pytest.mark.parametrize("include_type_triples", [False, True])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_train_numbers_rows_by_first_appearance_in_spo(include_type_triples, data):
    # triples written in a random order, so that ids need not follow first
    # appearance in SPO order; r0 is a predicate and an entity
    ents = st.sampled_from(["e0", "e1", "e2", "e3", "r0"])
    relational = data.draw(st.lists(st.tuples(ents, st.sampled_from(["r0", "r1"]), ents), max_size=10))
    typed = data.draw(st.lists(st.tuples(ents, st.sampled_from(["C0", "C1"])), min_size=1, max_size=6))
    rows = relational + [(s, "type", c) for s, c in typed] + [("r0", "r1", "e0"), ("e1", "r0", "e2")]
    g = build_graph(data.draw(st.permutations(rows)))
    cfg = EmbeddingConfig(dim=2, epochs=1, include_type_triples=include_type_triples)
    emb, want = train(g, cfg), reference_training_input(g, cfg)
    assert list(emb.entity_table.keys) == want.entity_keys
    assert list(emb.relation_table.keys) == want.relation_keys


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
        train(Graph([], []), EmbeddingConfig())


# -- negative sampler ----------------------------------------------------


def _sampled_pairs(g, cfg, monkeypatch):
    """Train, recording every batch's (pos, neg) as graph term-id rows."""
    batches = []
    step = trq.embedding._train_step
    monkeypatch.setattr(
        trq.embedding, "_train_step", lambda *a: batches.append((a[-2].copy(), a[-1].copy())) or step(*a)
    )
    emb = train(g, cfg)
    ent_ids = np.array([g.id(t) for t in emb.entity_terms])
    rel_ids = np.array([g.id(t) for t in emb.relation_terms])

    def ids(rows):
        return np.stack([ent_ids[rows[:, 0]], rel_ids[rows[:, 1]], ent_ids[rows[:, 2]]], axis=1)

    pos = np.concatenate([ids(p) for p, _ in batches])
    neg = np.concatenate([ids(n) for _, n in batches])
    return emb, pos, neg


def _known(g, rows):
    return np.array([g.contains(*row) for row in rows.tolist()], dtype=bool)


@pytest.fixture(scope="module")
def typed_graph():
    # most entities share one class, so many head corruptions of a type
    # triple are known type triples
    rows = [(f"x{i}", "type", "C") for i in range(10)]
    rows += [(f"x{i}", "p", f"x{(i + 1) % 10}") for i in range(10)] + [("y", "p", "x0"), ("x1", "q", "z")]
    return build_graph(rows)


@pytest.mark.parametrize("k", [1, 2])
def test_negatives_corrupt_one_side_and_are_never_known(typed_graph, k, monkeypatch):
    cfg = EmbeddingConfig(dim=4, epochs=4, batch_size=5, negatives_per_positive=k, include_type_triples=True)
    emb, pos, neg = _sampled_pairs(typed_graph, cfg, monkeypatch)
    assert len(pos) == 4 * k * typed_graph.triple_count
    diff = neg != pos
    assert not diff[:, 1].any()
    assert (diff[:, 0] != diff[:, 2]).all()  # exactly one side replaced
    assert (pos[:, 1] == typed_graph.rdf_type_id).any()
    assert not _known(typed_graph, neg).any()
    # the known type triples made some draws collide
    assert len(emb.sampler_redraws) == 4 and sum(emb.sampler_redraws) > 0
    assert all(0 <= r <= k * typed_graph.triple_count for r in emb.sampler_redraws)


def test_sampler_skips_a_side_whose_every_corruption_is_known(monkeypatch):
    # (a, p) already has every entity as tail: only head corruptions of
    # its triples are unknown
    ents = ["a"] + [f"b{i}" for i in range(6)]
    g = build_graph([("a", "p", e) for e in ents])
    _, pos, neg = _sampled_pairs(g, EmbeddingConfig(dim=4, epochs=3, batch_size=3), monkeypatch)
    assert not _known(g, neg).any()
    assert (neg[:, 0] != pos[:, 0]).all() and (neg[:, 2] == pos[:, 2]).all()


def test_sampler_terminates_when_every_corruption_is_known(monkeypatch):
    ents = ["a", "b", "c"]
    g = build_graph([(h, "p", t) for h in ents for t in ents])
    cfg = EmbeddingConfig(dim=4, epochs=2, batch_size=4, negatives_per_positive=2)
    emb, pos, neg = _sampled_pairs(g, cfg, monkeypatch)
    # every negative kept its last draw, which is a known triple
    assert _known(g, neg).all() and len(neg) == 2 * 2 * 9
    assert emb.sampler_redraws == [18, 18]


@pytest.mark.parametrize("model", ["transe", "transh", "transr"])
def test_same_seed_gives_identical_trqe_bytes(chain, model):
    cfg = EmbeddingConfig(model=model, dim=6, epochs=5, batch_size=4, negatives_per_positive=2, seed=9)
    files = []
    for _ in range(2):
        buf = io.BytesIO()
        save_embeddings(train(chain, cfg), buf)
        files.append(buf.getvalue())
    assert files[0] == files[1]


def test_sampler_redraws_are_not_stored(chain):
    emb = train(chain, EmbeddingConfig(dim=4, epochs=3, seed=0))
    assert len(emb.sampler_redraws) == 3
    buf = io.BytesIO()
    save_embeddings(emb, buf)
    assert load_embeddings(io.BytesIO(buf.getvalue())).sampler_redraws == []


def test_transr_rectangular_relation_space(chain):
    emb = train(chain, EmbeddingConfig(model="transr", dim=8, rel_dim=5, epochs=3, seed=0))
    assert emb.entity_vecs.shape[1] == 8
    assert emb.relation_vecs.shape[1] == 5
    assert emb.maps.shape[1:] == (5, 8)
    row_score(emb.bind(chain), 0, chain.id(ex("r0")), 2)


# -- type vectors and normalized plausibility --------------------------


def _entity_vec(emb, term):
    return emb.entity_vecs[emb.entity_terms.index(term)].astype(np.float64)


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
    assert row_score(emb, e2, ty, c) == pytest.approx(manual, rel=1e-9)
    # non-membership relations defer to the model score
    r0 = chain.id(ex("r0"))
    assert row_score(emb, e2, r0, e2) == pytest.approx(
        reference_score_triple(emb, e2, r0, e2), rel=1e-12
    )


def test_normalize_members_exactly_one(chain):
    emb = small_emb(chain).bind(chain)
    index, _, _ = chain.ranges()
    f, _ = edge_plausibility(emb, np.stack(index.columns(), axis=1))
    assert len(f) == chain.triple_count and (f == 1.0).all()


def test_normalize_nonmembers_in_open_unit_interval(chain):
    emb = small_emb(chain).bind(chain)
    e0, e5 = chain.id(ex("e0")), chain.id(ex("e5"))
    r0 = chain.id(ex("r0"))
    [v], _ = edge_plausibility(emb, np.array([[e5, r0, e0]]))
    if not chain.contains(e5, r0, e0):
        assert 0.0 < v < 1.0


@pytest.mark.parametrize("model", ["transe", "transh", "transr"])
@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_score_table_f_equals_normalize(chain, model, norm):
    # the column-wise plausibility of a (?h ?r ?t) table is 1 for members
    # and 1 / (1 + the scalar extended score) for the others, and falls
    # back exactly where that score has no embedding row
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
        if g.contains(*ids):
            want.append(1.0)
            continue
        try:
            want.append(1.0 / (1.0 + reference_extended_score(view, *ids)))
        except NoEmbeddingRow:
            want.append(np.nan)
    want = np.asarray(want)
    f, fallback = edge_plausibility(view, table)
    got = np.where(fallback, np.nan, f)
    assert np.isnan(want).any() and (want == 1.0).any()
    assert np.array_equal(got == 1.0, want == 1.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, equal_nan=True)


@pytest.mark.parametrize("model", ["transe", "transh", "transr"])
@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_score_rows_matches_reference(chain, model, norm, monkeypatch):
    # the batched kernel against the scalar three-branch math it replaced:
    # exact for TransE and membership rows, within 1e-12 relative for the
    # projections; and the same value whatever the chunk size. Ids outside
    # the graph (-1 and term_count) in the h and r columns score nothing.
    emb = train(chain, EmbeddingConfig(model=model, norm=norm, dim=6, epochs=5, batch_size=8, seed=1))
    rows = [(chain.term(t.s), chain.term(t.p), chain.term(t.o)) for t in chain.triples()]
    g = build_graph(rows + [("e0", "r0", "stray"), ("stray", "type", "C")])
    emb = emb.bind(g)
    ents = [g.id(t) for t in g.terms() if t not in (ex("r0"), ex("r1"), RDF_TYPE)]
    rels = [g.id(ex("r0")), g.id(ex("r1")), g.id(RDF_TYPE)]
    outside = [-1, g.term_count]
    h, r, t = (np.array(c, dtype=np.int64) for c in zip(*itertools.product(ents + outside, rels + outside, ents)))
    want = []
    for ids in zip(h.tolist(), r.tolist(), t.tolist()):
        try:
            want.append(reference_extended_score(emb, *ids))
        except NoEmbeddingRow:
            want.append(np.nan)
    want = np.asarray(want)
    got, scored = emb.score_rows(h, r, t)
    assert np.array_equal(scored, ~np.isnan(want)) and not scored.all()
    beyond = np.isin(h, outside) | np.isin(r, outside)
    assert beyond.any() and not scored[beyond].any() and not got[~scored].any()
    membership = r == g.rdf_type_id
    exact = membership if model != "transe" else np.ones(len(r), dtype=bool)
    assert np.array_equal(got[scored & exact], want[scored & exact])
    assert got[scored] == pytest.approx(want[scored], rel=1e-12, abs=0)
    for chunk in (1, 3):
        monkeypatch.setattr(trq.embedding, "SCORE_CHUNK", chunk)
        assert np.array_equal(emb.score_rows(h, r, t)[0], got)


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
        tables = {"entity_keys": emb.entity_table.keys, "relation_keys": emb.relation_table.keys}
        fresh = dataclasses.replace(emb, **tables).bind(g)
        ents = [g.id(t) for t in emb.entity_terms]
        rels = [g.id(t) for t in emb.relation_terms]
        triples = list(itertools.product(ents, rels, ents))
        h, r, t = (np.array(c, dtype=np.int64) for c in zip(*triples))
        assert np.array_equal(view.score_rows(h, r, t)[0], fresh.score_rows(h, r, t)[0])


def test_bind_aligns_once_per_graph(bench_graph, monkeypatch):
    # the trained graph is aligned once, and a graph that Graph.without
    # made from it needs no alignment: the alignment reads the term table alone
    looked_up = []
    ids = TermTable.ids
    monkeypatch.setattr(TermTable, "ids", lambda table, keys: looked_up.append(keys) or ids(table, keys))

    def aligned(*graphs):
        """Whether the alignments so far were of the keys of ``graphs``, in
        order: each looks them up in the entity, then the relation table."""
        return [id(keys) for keys in looked_up] == [id(g.term_keys) for g in graphs for _ in "er"]

    emb = train(bench_graph, EmbeddingConfig(dim=8, epochs=1))
    assert emb._view is None
    view = emb.bind(bench_graph)
    assert emb.bind(bench_graph) is view and aligned(bench_graph)
    want = (ids(emb.entity_table, bench_graph.term_keys), ids(emb.relation_table, bench_graph.term_keys))
    assert all(np.array_equal(a, b) for a, b in zip((view.ent_row, view.rel_row), want))
    cases = []
    for c in range(3):
        value = bench_graph.id(ex(f"val0_{c:02d}"))
        q = make_query([pattern("?a", "linked", "?b"), pattern("?b", "attr0", f"val0_{c:02d}")])
        cases.append(BenchCase(f"c{c}", q, [match_triples(bench_graph, None, bench_graph.id(ex("attr0")), value)[0]]))
    report = run_benchmark(bench_graph, cases, embeddings=emb)
    assert report.failures == 0 and aligned(bench_graph)
    # a run that trains binds the first case's graph to the trained set's
    # own (renumbered) table once; every later case shares that table
    trained = []
    monkeypatch.setattr(trq.evalkit, "train", lambda g, cfg: trained.append(train(g, cfg)) or trained[-1])
    report = run_benchmark(bench_graph, cases, embed_config=EmbeddingConfig(dim=8, epochs=1))
    assert report.failures == 0 and len(trained) == 1 and aligned(bench_graph, bench_graph)
    # an equal table that is another object is aligned again
    copy = Graph(list(bench_graph.term_keys), np.stack(bench_graph.ranges()[0].columns(), axis=1))
    assert copy.term_keys == bench_graph.term_keys and copy.term_keys is not bench_graph.term_keys
    assert copy.term_table is not bench_graph.term_table
    emb.bind(bench_graph)
    looked_up.clear()
    assert np.array_equal(emb.bind(copy).ent_row, view.ent_row) and aligned(copy)
    # views that share rows keep their own type vectors
    g = build_graph([("e0", "type", "C"), ("e1", "type", "C"), ("e0", "p", "e1"), ("e1", "p", "e2")])
    typed = train(g, EmbeddingConfig(dim=4, epochs=1))
    one, cls = typed.bind(g), g.id(ex("C"))
    vec = one.type_vector(cls)
    other = typed.bind(g.without(np.array([[g.id(ex("e1")), g.rdf_type_id, cls]])))
    assert other.ent_row is one.ent_row and other._type_cache is not one._type_cache
    assert cls not in other._type_cache
    # e0 alone is C's instance now
    assert np.array_equal(other.type_vector(cls), typed.entity_vecs[one.ent_row[g.id(ex("e0"))]].astype(np.float64))
    assert not np.array_equal(other.type_vector(cls), vec)


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
    assert row_score(back.bind(chain), 0, r0, 2) == row_score(emb.bind(chain), 0, r0, 2)


def test_save_bytes_deterministic(chain):
    emb = train(chain, EmbeddingConfig(dim=4, epochs=1, seed=0))
    b1, b2 = io.BytesIO(), io.BytesIO()
    save_embeddings(emb, b1)
    save_embeddings(emb, b2)
    assert b1.getvalue() == b2.getvalue()
    assert b1.getvalue()[:4] == EMBED_MAGIC


def test_changing_the_key_lists_a_set_was_made_of_changes_nothing(chain):
    # the set's tables are its one copy of its keys: reordering the lists
    # it was made of changes neither its file bytes nor its bound rows
    emb = small_emb(chain)
    want_bytes, want_view = io.BytesIO(), emb.bind(chain)
    save_embeddings(emb, want_bytes)
    entity_keys, relation_keys = list(emb.entity_table.keys), list(emb.relation_table.keys)
    made = dataclasses.replace(emb, entity_keys=entity_keys, relation_keys=relation_keys)
    entity_keys.reverse()
    relation_keys.reverse()
    got_bytes, got_view = io.BytesIO(), made.bind(chain)
    save_embeddings(made, got_bytes)
    assert got_bytes.getvalue() == want_bytes.getvalue()
    assert np.array_equal(got_view.ent_row, want_view.ent_row)
    assert np.array_equal(got_view.rel_row, want_view.rel_row)


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
    step = trq.embedding._train_step
    monkeypatch.setattr(trq.embedding, "_train_step", lambda *a: batches.append(1) or step(*a))
    cfg = EmbeddingConfig(model="transr", dim=8, epochs=5, batch_size=64, learning_rate=1e300)
    with warnings.catch_warnings(), pytest.raises(NonFiniteEmbeddingError, match="in epoch 1 of 5"):
        warnings.simplefilter("error")
        train(bench_graph, cfg)
    assert len(batches) == -(-bench_graph.triple_count // 64)


def test_run_benchmark_records_divergence_on_the_case(bench_graph):
    q = make_query([pattern("?a", "linked", "?b"), pattern("?b", "attr0", "val0_00")])
    deleted = match_triples(bench_graph, None, bench_graph.id(ex("attr0")), bench_graph.id(ex("val0_00")))[0]
    cfg = EmbeddingConfig(dim=8, epochs=5, learning_rate=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_benchmark(bench_graph, [BenchCase("c", q, [deleted])], embed_config=cfg)
    assert report.failures == 1
    assert report.rows[0].error.startswith("NonFiniteEmbeddingError")


def test_a_diverged_training_is_recorded_on_every_case_that_ranks_with_it(bench_graph):
    g = bench_graph
    q = make_query([pattern("?a", "linked", "?b"), pattern("?b", "attr0", "val0_00")])
    deleted = match_triples(g, None, g.id(ex("attr0")), g.id(ex("val0_00")))
    absent = match_triples(g, None, g.id(ex("attr0")), g.id(ex("val0_01")))[0]._replace(o=g.id(ex("val0_00")))
    cases = [BenchCase("a", q, deleted[:1]), BenchCase("absent", q, [absent]), BenchCase("b", q, deleted[1:3])]
    cases.append(BenchCase("nothing", q, []))
    cfg = EmbeddingConfig(dim=8, epochs=5, learning_rate=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_benchmark(g, cases, embed_config=cfg)
        expected = reference_run_benchmark(g, cases, embed_config=cfg)
    assert [r.error for r in report.rows] == [r.error for r in expected.rows]
    errors = [r.error.split(":")[0] for r in report.rows]
    assert errors == ["NonFiniteEmbeddingError", "MissingDeletionError"] + ["NonFiniteEmbeddingError"] * 2
    assert report.rows[0].error == report.rows[2].error == report.rows[3].error
    assert report.train_s > 0


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


@pytest.mark.parametrize("table", ["entity", "relation"])
def test_load_rejects_a_term_listed_twice(table):
    # a set cannot list a term twice, so the file's last entry of the
    # table is overwritten with its first, an entry of the same length
    a, b, c, r, s = ex("a"), ex("b"), ex("c"), ex("r"), ex("s")
    ent, rel = ([a, b, c], [r]) if table == "entity" else ([a, b], [r, s])
    emb = _manual_set("transe", np.zeros((len(ent), 2)), np.zeros((len(rel), 2)), ent, rel)
    buf = io.BytesIO()
    save_embeddings(emb, buf)
    twice, last = (ent[0], ent[-1]) if table == "entity" else (rel[0], rel[-1])
    data = buf.getvalue().replace(term_key(last), term_key(twice))
    with pytest.raises(EmbeddingFormatError, match=f"^{table} table lists {re.escape(twice.nt())} twice$"):
        load_embeddings(io.BytesIO(data))


@pytest.mark.parametrize("table", ["entity", "relation"])
def test_a_set_rejects_a_term_listed_twice(table):
    a, b, r = ex("a"), ex("b"), ex("r")
    ent, rel = ([a, b, a], [r]) if table == "entity" else ([a, b], [r, r])
    with pytest.raises(ValueError, match=f"^{table} table lists {re.escape(a.nt() if table == 'entity' else r.nt())} twice$"):
        _manual_set("transe", np.zeros((len(ent), 2)), np.zeros((len(rel), 2)), ent, rel)


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
    trained = small_emb(chain, seed=1)
    # an entry that is not bytes cannot be joined: the write fails after the header
    relation_keys = [*trained.relation_table.keys[:-1], "not bytes"]
    emb = dataclasses.replace(trained, entity_keys=trained.entity_table.keys, relation_keys=relation_keys)
    with pytest.raises(TypeError):
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
