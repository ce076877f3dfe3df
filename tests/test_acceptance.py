"""Release gate: the shipped guarantees as twelve numbered checks.

Every test prints one ``[criterion NN] PASS/FAIL`` line on the real
stdout so a captured pytest run still leaves a readable scorecard.
The checks are end to end on purpose; unit-level detail lives in the
per-module suites. Wall-clock budgets are generous enough for a
laptop but still catch algorithmic regressions.
"""

from __future__ import annotations

import filecmp
import io
import itertools
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest

from trq import EmbeddingConfig, train
from trq.cli import main
from trq.embedding import EmbeddingSet, save_embeddings
from trq.evalkit import BenchCase, corrupt_graph, exact_solutions, mean_rank, reciprocal_rank, run_benchmark
from trq.qgraph import enumerate_subquery_trees
from trq.recommend import RecommendRequest, recommend
from trq.scoring import score_graph
from trq.sparql import Var, parse_query
from trq.store import save_snapshot
from trq.terms import Triple

from conftest import (
    EX,
    MOVIE_QUERY,
    brute_candidates,
    build_graph,
    candidate_instance,
    deletion_cases,
    dense_pair_grads,
    edge_plausibility,
    ex,
    exact_instance,
    keys_of,
    make_query,
    movie_graph,
    pattern,
    planted_kg,
    small_emb,
)


_CAPMAN = None


@pytest.fixture(autouse=True)
def _live_scorecard(request):
    # the scorecard must survive fd-level capture, so grab the capture
    # manager and disable it around each report line
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status}  {detail}"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def render_query(q) -> str:
    def at(a):
        return f"?{a.name}" if isinstance(a, Var) else a.term.nt()

    body = " ".join(f"{at(p.s)} {at(p.p)} {at(p.o)} ." for p in q.patterns)
    vs = " ".join("?" + v for v in q.variables())
    return f"SELECT DISTINCT {vs} WHERE {{ {body} }}\n"


# -- shared artifacts ---------------------------------------------------


@pytest.fixture(scope="module")
def exact_runs():
    """Twenty synthetic graphs with planted exact solutions, embedded,
    queried, and ranked. Reused by criteria 1, 7, and 8."""
    runs = []
    started = time.perf_counter()
    for seed in range(4000, 4020):
        rng = np.random.default_rng(seed)
        g, q = exact_instance(rng)
        emb = train(g, EmbeddingConfig(dim=16, epochs=25, batch_size=256, seed=seed))
        rec = recommend(
            g,
            RecommendRequest(query=q, embeddings=emb, top_k=10**9, per_tree_limit=200_000),
        )
        truth = exact_solutions(g, q)
        runs.append(SimpleNamespace(seed=seed, g=g, q=q, emb=emb, rec=rec, truth=truth))
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def planted():
    return planted_kg()


# -- 1: exact solutions rank first -------------------------------------


def test_criterion_01_exact_solutions_first(exact_runs):
    runs, elapsed = exact_runs
    bad = []
    for r in runs:
        ranked = [s.binding_key for s in r.rec.solutions]
        n = len(r.truth)
        if n == 0:
            bad.append(f"seed {r.seed}: no planted truth")
            continue
        head = r.rec.solutions[:n]
        if set(ranked[:n]) != r.truth or any(s.edit_distance != 0 for s in head):
            bad.append(f"seed {r.seed}: exact solutions not a prefix")
        if reciprocal_rank(ranked, r.truth) != 1.0 or mean_rank(ranked, r.truth) != 1.0:
            bad.append(f"seed {r.seed}: RR/MR not exactly 1.0")
    ok = not bad and len(runs) >= 20 and elapsed < 60.0
    report(1, ok, f"{len(runs)} queries, RR=MR=1.0 on all, {elapsed:.1f}s (budget 60s)")
    assert ok, bad


# -- 2: candidate set equals the brute-force enumeration ----------------


def test_criterion_02_candidates_match_brute_force():
    started = time.perf_counter()
    bad = []
    for seed in range(5000, 5050):
        rng = np.random.default_rng(seed)
        g, q = candidate_instance(rng)
        emb = small_emb(g, seed=seed, dim=4, epochs=1)
        rec = recommend(
            g,
            RecommendRequest(query=q, embeddings=emb, threshold=2, top_k=10**9, per_tree_limit=10**9),
        )
        got = {tuple(sorted(s.mapping.items())): s.edit_distance for s in rec.solutions}
        want = brute_candidates(g, q.patterns, 2)
        if got != want:
            bad.append(seed)
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 120.0
    report(2, ok, f"50 instances, sets identical, {elapsed:.1f}s (budget 120s)")
    assert ok, f"mismatched seeds: {bad}"


# -- 3: subquery tree counts -------------------------------------------


def test_criterion_03_tree_counts():
    path = make_query([pattern("?x", "p", "?y"), pattern("?y", "q", "?z")])
    cycle4 = make_query(
        [
            pattern("?a", "p", "?b"),
            pattern("?b", "p", "?c"),
            pattern("?c", "p", "?d"),
            pattern("?d", "p", "?a"),
        ]
    )
    names = ["a", "b", "c", "d"]
    complete4 = make_query(
        [
            pattern(f"?{names[i]}", f"p{i}{j}", f"?{names[j]}")
            for i, j in itertools.combinations(range(4), 2)
        ]
    )
    film_join = parse_query(MOVIE_QUERY)
    got = tuple(len(enumerate_subquery_trees(q)) for q in (path, cycle4, complete4, film_join))
    ok = got == (1, 4, 16, 8)
    report(3, ok, f"path/C4/K4/film-join trees = {got}, expected (1, 4, 16, 8)")
    assert ok


# -- 4: the film toy yields three distance-one candidates ---------------


def test_criterion_04_film_toy_calibration():
    g = movie_graph()
    emb = small_emb(g, seed=7, dim=16, epochs=40)
    rec = recommend(g, RecommendRequest(query=parse_query(MOVIE_QUERY), embeddings=emb))
    bad = []
    if len(rec.solutions) != 3:
        bad.append(f"{len(rec.solutions)} candidates")
    if any(s.edit_distance != 1 for s in rec.solutions):
        bad.append("edit distance != 1")
    # only the writer type edge (pattern 6) may leave the graph
    for s in rec.solutions:
        for e in s.per_edge:
            if e.pattern == 6:
                if e.in_graph or not (0.0 < e.f < 1.0):
                    bad.append("type edge not the open one")
            elif not e.in_graph or e.f != 1.0:
                bad.append(f"pattern {e.pattern} not matched exactly")
    fs = {s.per_edge[6].f for s in rec.solutions}
    if len(fs) != 3:
        bad.append("type-edge plausibilities not distinct")
    ok = not bad
    report(4, ok, "3 candidates, all at distance 1, scores split only by the type edge")
    assert ok, bad


# -- 5: analytic gradients match finite differences ---------------------


def _random_loss_state(rng, model, dim, rel_dim):
    ent = rng.normal(size=(6, dim))
    rel = rng.normal(size=(3, rel_dim))
    normals = None
    maps = None
    if model == "transh":
        normals = rng.normal(size=(3, dim))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    if model == "transr":
        maps = rng.normal(size=(3, rel_dim, dim))
    pos = np.column_stack(
        [rng.integers(6, size=4), rng.integers(3, size=4), rng.integers(6, size=4)]
    )
    neg = pos.copy()
    for row in range(len(neg)):
        neg[row, 0 if rng.random() < 0.5 else 2] = rng.integers(6)
    return ent, rel, normals, maps, pos, neg


def test_criterion_05_gradient_check():
    eps = 1e-6
    worst = 0.0
    probes = 0
    for index, model in enumerate(("transe", "transh", "transr")):
        rng = np.random.default_rng(50 + index)  # fixed per model: str hashes are salted per process
        for inst in range(20):
            dim = 5
            rel_dim = 4 if model == "transr" else dim
            norm = "l1" if inst % 2 else "l2"
            ent, rel, normals, maps, pos, neg = _random_loss_state(rng, model, dim, rel_dim)
            _, grads = dense_pair_grads(model, norm, 1.0, ent, rel, normals, maps, pos, neg)
            arrays = {"entities": ent, "relations": rel}
            if model == "transh":
                arrays["normals"] = normals
            if model == "transr":
                arrays["maps"] = maps
            for name, arr in arrays.items():
                flat = arr.reshape(-1)
                gflat = grads[name].reshape(-1)
                for idx in rng.choice(flat.size, size=6, replace=False):
                    saved = flat[idx]
                    flat[idx] = saved + eps
                    up, _ = dense_pair_grads(model, norm, 1.0, ent, rel, normals, maps, pos, neg)
                    flat[idx] = saved - eps
                    down, _ = dense_pair_grads(model, norm, 1.0, ent, rel, normals, maps, pos, neg)
                    flat[idx] = saved
                    fd = (up - down) / (2 * eps)
                    rel_err = abs(fd - gflat[idx]) / max(1.0, abs(fd))
                    worst = max(worst, rel_err)
                    probes += 1
    ok = worst < 1e-4 and probes >= 3 * 20 * 12
    report(5, ok, f"{probes} probes across 3 models x 20 instances, worst rel err {worst:.2e}")
    assert ok


# -- 6: degenerate transh/transr collapse to transe ---------------------


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


def test_criterion_06_model_reductions():
    rng = np.random.default_rng(6)
    dim = 6
    ent = rng.normal(size=(5, dim))
    ent[:, -1] = 0.0  # entities live in a hyperplane...
    rel = rng.normal(size=(3, dim))
    normals = np.zeros((3, dim))
    normals[:, -1] = 1.0  # ...and every hyperplane normal is orthogonal to it
    maps = np.stack([np.eye(dim)] * 3)

    terms_e = [ex(f"e{i}") for i in range(5)]
    terms_r = [ex(f"p{j}") for j in range(3)]
    g = build_graph(
        [
            (terms_e[0], terms_r[0], terms_e[1]),
            (terms_e[2], terms_r[1], terms_e[3]),
            (terms_e[4], terms_r[2], terms_e[0]),
        ]
    )

    worst = 0.0
    ids = [[g.id(x) for x in row] for row in itertools.product(terms_e, terms_r, terms_e)]
    h, r, t = np.array(ids, dtype=np.int64).T
    for norm in ("l1", "l2"):
        base = _manual_set("transe", ent, rel, terms_e, terms_r, norm=norm).bind(g)
        hyper = _manual_set("transh", ent, rel, terms_e, terms_r, normals=normals, norm=norm).bind(g)
        proj = _manual_set("transr", ent, rel, terms_e, terms_r, maps=maps, norm=norm).bind(g)
        want, scored = base.score_rows(h, r, t)
        assert scored.all()
        for view in (hyper, proj):
            worst = max(worst, float(np.abs(view.score_rows(h, r, t)[0] - want).max()))
    ok = worst <= 1e-9
    report(6, ok, f"150 triples x 2 norms, max |score difference| {worst:.2e}")
    assert ok


# -- 7: normalization stays in (0, 1] ----------------------------------


def test_criterion_07_normalization_bounds(exact_runs):
    runs, _ = exact_runs
    rng = np.random.default_rng(77)
    bad = []
    scored = 0
    for r in runs:
        g, emb = r.g, r.emb.bind(r.g)
        rels = g.stats.relations()
        ents = sorted({t.s for t in g.triples()} | {t.o for t in g.triples()})
        sampled = []
        for _ in range(500):
            h = ents[int(rng.integers(len(ents)))]
            rel = rels[int(rng.integers(len(rels)))]
            t = ents[int(rng.integers(len(ents)))]
            sampled.append((h, rel, t))
        index, _, _ = g.ranges()
        members = np.stack(index.columns(), axis=1)
        # one score_table call over the sampled rows, then every member triple
        f, _ = edge_plausibility(emb, np.concatenate([np.array(sampled, dtype=np.int64), members]))
        for (h, rel, t), value in zip(sampled, f[: len(sampled)].tolist()):
            scored += 1
            if not (0.0 < value <= 1.0):
                bad.append(f"seed {r.seed}: f={value} outside (0, 1]")
            if g.contains(h, rel, t) and value != 1.0:
                bad.append(f"seed {r.seed}: member triple with f={value}")
        if (f[len(sampled) :] != 1.0).any():
            bad.append(f"seed {r.seed}: member triple f != 1")
    ok = not bad and scored >= 10_000
    report(7, ok, f"{scored} sampled triples in (0, 1], every member triple at exactly 1")
    assert ok, bad[:5]


# -- 8: exact solutions reach the query's own score ---------------------


def test_criterion_08_score_identity(exact_runs):
    runs, _ = exact_runs
    bad = []
    exacts = 0
    inexacts = 0
    for r in runs:
        ceiling = score_graph(r.g, r.q.patterns)
        for s in r.rec.solutions:
            if s.edit_distance == 0:
                exacts += 1
                if abs(s.score - ceiling) > 1e-9:
                    bad.append(f"seed {r.seed}: exact score off by {s.score - ceiling:.3e}")
            else:
                inexacts += 1
                if s.score > ceiling:
                    bad.append(f"seed {r.seed}: inexact above ceiling by {s.score - ceiling:.3e}")
    ok = not bad and exacts > 0 and inexacts > 0
    report(8, ok, f"{exacts} exact at the ceiling, {inexacts} inexact below it")
    assert ok, bad[:5]


# -- 9: held-out facts beat uniform corruptions -------------------------


def test_criterion_09_link_prediction_sanity(planted):
    g, _ = planted
    rng = np.random.default_rng(9)
    all_triples = list(g.triples())
    held_idx = rng.choice(len(all_triples), size=50, replace=False)
    held = sorted(all_triples[i] for i in held_idx)
    train_g = corrupt_graph(g, held)
    entities = sorted({t.s for t in g.triples()} | {t.o for t in g.triples()})

    results = {}
    bad = []
    for model, dim in (("transe", 32), ("transh", 32), ("transr", 16)):
        emb = train(
            train_g,
            EmbeddingConfig(
                model=model,
                dim=dim,
                epochs=400,
                batch_size=64,
                learning_rate=0.1,
                margin=2.0,
                norm="l2",
                seed=0,
            ),
        ).bind(g)
        trial_rng = np.random.default_rng(10)
        trials, cands = [], []
        for _ in range(200):
            tr = held[trial_rng.integers(len(held))]
            while True:
                cand = list(tr)
                cand[0 if trial_rng.random() < 0.5 else 2] = entities[
                    trial_rng.integers(len(entities))
                ]
                if not g.contains(*cand):
                    break
            trials.append(tuple(tr))
            cands.append(cand)
        true_scores, true_scored = emb.score_rows(*np.array(trials, dtype=np.int64).T)
        cand_scores, cand_scored = emb.score_rows(*np.array(cands, dtype=np.int64).T)
        assert true_scored.all() and cand_scored.all()
        wins = int((true_scores < cand_scores).sum())
        results[model] = wins
        if wins < 160:
            bad.append(f"{model}: {wins}/200 < 160")
    ok = not bad
    report(9, ok, "wins over 200 trials: " + ", ".join(f"{m}={w}" for m, w in results.items()))
    assert ok, bad


# -- 10: plausibility scoring beats the structure-only baseline ---------


def test_criterion_10_ablation_direction(planted):
    g, items = planted
    cases = []
    for name, qtext, (s, p, o) in deletion_cases(items):
        deleted = Triple(g.id(ex(s)), g.id(ex(p)), g.id(ex(o)))
        cases.append(BenchCase(name=name, query=parse_query(qtext), deletions=[deleted]))

    cfg = EmbeddingConfig(
        dim=32, epochs=400, batch_size=64, learning_rate=0.1, margin=2.0, norm="l2", seed=0
    )
    plausible = run_benchmark(g, cases, embed_config=cfg, top_k=None)
    stub = train(g, EmbeddingConfig(dim=4, epochs=1, batch_size=64, seed=0))
    uniform = run_benchmark(g, cases, embeddings=stub, uniform_f=1.0, top_k=None)

    errors = [r.error for r in plausible.rows + uniform.rows if r.error]
    ok = (
        not errors
        and plausible.mean_mr is not None
        and uniform.mean_mr is not None
        and plausible.mean_mr <= uniform.mean_mr
    )
    report(
        10,
        ok,
        f"mean MR {plausible.mean_mr:.2f} with plausibility vs {uniform.mean_mr:.2f} uniform "
        f"over {len(cases)} deletion cases",
    )
    assert ok, errors


# -- 11: bit-for-bit determinism ---------------------------------------


def test_criterion_11_determinism(tmp_path):
    rng = np.random.default_rng(4242)
    g, q = exact_instance(rng)
    nt = tmp_path / "world.nt"
    nt.write_text(
        "".join(f"{g.term(t.s).nt()} {g.term(t.p).nt()} {g.term(t.o).nt()} .\n" for t in g.triples())
    )
    snap = tmp_path / "world.trqg"
    qfile = tmp_path / "q.rq"
    qfile.write_text(render_query(q))

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue()

    code, _ = run(["ingest", str(nt), "-o", str(snap)])
    assert code == 0
    train_argv = ["--dim", "16", "--epochs", "30", "--seed", "3", "--quiet"]
    emb_a, emb_b = tmp_path / "a.trqe", tmp_path / "b.trqe"
    assert run(["train", "--store", str(snap), "-o", str(emb_a), *train_argv])[0] == 0
    assert run(["train", "--store", str(snap), "-o", str(emb_b), *train_argv])[0] == 0
    same_files = filecmp.cmp(emb_a, emb_b, shallow=False)

    query_argv = ["query", str(qfile), "--store", str(snap), "--embeddings", str(emb_a), "-k", "25"]
    code1, out1 = run(query_argv)
    code2, out2 = run(query_argv)
    same_output = code1 == code2 == 0 and out1 == out2 and out1.strip()

    ok = bool(same_files and same_output)
    report(11, ok, "embedding files byte-identical, repeated query output identical")
    assert ok, (same_files, code1, code2, out1 == out2)


# -- 12: reported phase timings account for the wall time ---------------


def test_criterion_12_phase_timings(tmp_path):
    rng = np.random.default_rng(4242)
    g, q = exact_instance(rng, n_entities=200, n_noise=4000)
    snap = tmp_path / "big.trqg"
    save_snapshot(g, snap)
    emb = train(g, EmbeddingConfig(dim=16, epochs=25, batch_size=256, seed=4242))
    trqe = tmp_path / "big.trqe"
    save_embeddings(emb, trqe)
    qfile = tmp_path / "q.rq"
    qfile.write_text(render_query(q))

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(
            [
                "query",
                str(qfile),
                "--store",
                str(snap),
                "--embeddings",
                str(trqe),
                "--format",
                "json",
                "-k",
                "5",
            ]
        )
    payload = json.loads(out.getvalue())
    timings = payload["timings"]
    total = sum(timings.values())
    wall = payload["wall"]
    ok = (
        code == 0
        and set(timings) == {"parse", "plan", "evaluate", "score", "rank"}
        and abs(wall - total) <= 0.10 * wall
    )
    report(
        12,
        ok,
        f"phase sum {total * 1e3:.1f}ms vs wall {wall * 1e3:.1f}ms "
        f"({total / wall:.1%} accounted)",
    )
    assert ok, (code, timings, wall)
