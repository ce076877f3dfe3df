"""End-to-end command line checks, driving main() in process."""

from __future__ import annotations

import json
import os
import warnings

import pytest

from trq.cli import _embed_config, build_parser, main
from trq.embedding import EmbeddingConfig, load_embeddings
from trq.recommend import DEFAULT_PER_TREE_LIMIT, DEFAULT_THRESHOLD, DEFAULT_TOP_K
from trq.store import load_snapshot

from conftest import EX, MOVIE_QUERY, movie_graph, nt_text

PROLOG = f"PREFIX ex: <{EX}>\n"


@pytest.fixture()
def run(capsys):
    def _run(*argv, expect=0):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == expect, f"{argv}: exit {code}\nstderr: {captured.err}"
        return captured.out, captured.err

    return _run


@pytest.fixture(scope="module")
def movie_nt(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "movies.nt"
    g = movie_graph()
    lines = []
    for tr in g.triples():
        lines.append(f"{g.term(tr.s).nt()} {g.term(tr.p).nt()} {g.term(tr.o).nt()} .")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, movie_nt):
    """Ingested store + trained embeddings shared by the read-only tests."""
    d = tmp_path_factory.mktemp("artifacts")
    store_path = d / "movies.trqg"
    emb_path = d / "movies.trqe"
    assert main(["ingest", str(movie_nt), "-o", str(store_path)]) == 0
    assert (
        main(
            [
                "train",
                "--store",
                str(store_path),
                "-o",
                str(emb_path),
                "--dim",
                "16",
                "--epochs",
                "30",
                "--batch-size",
                "16",
                "--seed",
                "7",
                "--quiet",
            ]
        )
        == 0
    )
    return store_path, emb_path


@pytest.fixture()
def movie_query_file(tmp_path):
    p = tmp_path / "q.rq"
    p.write_text(MOVIE_QUERY)
    return p


# -- ingest ------------------------------------------------------------


def test_ingest_writes_snapshot(run, tmp_path, movie_nt):
    out = tmp_path / "g.trqg"
    stdout, _ = run("ingest", str(movie_nt), "-o", str(out))
    assert "triples" in stdout and str(out) in stdout
    g = load_snapshot(out)
    assert g.triple_count > 20


def test_ingest_strict_fails_on_bad_line(run, tmp_path):
    bad = tmp_path / "bad.nt"
    bad.write_text("<http://a> <http://p> <http://b> .\nnonsense\n")
    out = tmp_path / "g.trqg"
    _, err = run("ingest", str(bad), "-o", str(out), expect=1)
    assert "error:" in err and "line 2" in err
    assert not out.exists()


def test_ingest_lax_skips_bad_lines(run, tmp_path):
    bad = tmp_path / "bad.nt"
    bad.write_text("<http://a> <http://p> <http://b> .\nnonsense\n")
    out = tmp_path / "g.trqg"
    stdout, err = run("ingest", str(bad), "-o", str(out), "--lax")
    assert "skipped 1 malformed line(s)" in err
    assert load_snapshot(out).triple_count == 1


def test_ingest_stdin(run, tmp_path, monkeypatch):
    import io, sys

    data = nt_text([("a", "p", "b")]).encode()
    monkeypatch.setattr(sys, "stdin", type("S", (), {"buffer": io.BytesIO(data)})())
    out = tmp_path / "g.trqg"
    run("ingest", "-", "-o", str(out))
    assert load_snapshot(out).triple_count == 1


# -- train -------------------------------------------------------------


def test_train_writes_embeddings(run, artifacts):
    store_path, emb_path = artifacts
    emb = load_embeddings(emb_path)
    assert emb.model == "transe" and emb.dim == 16


def test_train_logs_epoch_losses(run, tmp_path, artifacts):
    store_path, _ = artifacts
    out = tmp_path / "e.trqe"
    stdout, err = run(
        "train", "--store", str(store_path), "-o", str(out),
        "--dim", "4", "--epochs", "10", "--seed", "0",
    )
    assert "epoch 1/10" in err and "final mean loss" in err
    assert "transe d=4" in stdout
    epochs = [line for line in err.splitlines() if line.startswith("epoch ")]
    assert len(epochs) == 10 and all(" sampler redraws " in line for line in epochs)


def test_train_deterministic_bytes(run, tmp_path, artifacts):
    store_path, _ = artifacts
    a, b = tmp_path / "a.trqe", tmp_path / "b.trqe"
    args = ["--store", str(store_path), "--dim", "4", "--epochs", "3", "--quiet"]
    run("train", *args, "-o", str(a))
    run("train", *args, "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_train_model_and_norm_flags(run, tmp_path, artifacts):
    store_path, _ = artifacts
    out = tmp_path / "h.trqe"
    run(
        "train", "--store", str(store_path), "-o", str(out),
        "--model", "transh", "--norm", "l2", "--dim", "4", "--epochs", "2", "--quiet",
    )
    emb = load_embeddings(out)
    assert emb.model == "transh" and emb.norm == "l2"
    assert emb.normals is not None


def test_train_divergence_is_error(run, tmp_path, artifacts):
    store_path, _ = artifacts
    out = tmp_path / "x.trqe"
    args = ["--dim", "4", "--epochs", "5", "--learning-rate", "1e300", "--quiet"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, err = run("train", "--store", str(store_path), "-o", str(out), *args, expect=1)
    assert "diverged" in err and not out.exists()


@pytest.mark.parametrize("flag, value", [("--margin", "inf"), ("--margin", "nan"), ("--learning-rate", "nan")])
def test_train_rejects_non_finite_settings(run, tmp_path, artifacts, flag, value):
    store_path, _ = artifacts
    out = tmp_path / "x.trqe"
    _, err = run("train", "--store", str(store_path), "-o", str(out), "--dim", "4", flag, value, expect=1)
    assert flag.lstrip("-").replace("-", "_") in err and not out.exists()


def test_train_missing_store_is_error(run, tmp_path):
    _, err = run("train", "-o", str(tmp_path / "x.trqe"), expect=1)
    assert "no store" in err


# -- plan --------------------------------------------------------------


def test_plan_lists_trees(run, movie_query_file):
    stdout, _ = run("plan", str(movie_query_file))
    assert "7 patterns, 8 subquery tree(s)" in stdout
    assert stdout.count("tree ") == 8
    assert "?film" in stdout


def test_plan_reports_syntax_errors(run, tmp_path):
    p = tmp_path / "bad.rq"
    p.write_text("SELECT ?x WHERE { ?x ex:p ?y . }")  # undeclared prefix
    _, err = run("plan", str(p), expect=1)
    assert "error:" in err


# -- query -------------------------------------------------------------


def test_query_tsv_output(run, artifacts, movie_query_file):
    store_path, emb_path = artifacts
    stdout, err = run(
        "query", str(movie_query_file),
        "--store", str(store_path), "--embeddings", str(emb_path),
    )
    lines = stdout.strip().split("\n")
    assert lines[0] == "rank\tscore\tedit_distance\t?actor1\t?actor2\t?child\t?film"
    assert len(lines) == 4  # header + three candidates
    first = lines[1].split("\t")
    assert first[0] == "1" and first[2] == "1"
    assert first[3].startswith("<http://")
    assert "timings[s]:" in err and "wall=" in err


def test_query_ranks_are_sorted_by_score(run, artifacts, movie_query_file):
    store_path, emb_path = artifacts
    stdout, _ = run(
        "query", str(movie_query_file),
        "--store", str(store_path), "--embeddings", str(emb_path),
    )
    rows = [line.split("\t") for line in stdout.strip().split("\n")[1:]]
    scores = [float(r[1]) for r in rows]
    assert scores == sorted(scores, reverse=True)


def test_query_json_schema(run, artifacts, movie_query_file):
    store_path, emb_path = artifacts
    stdout, _ = run(
        "query", str(movie_query_file),
        "--store", str(store_path), "--embeddings", str(emb_path),
        "--format", "json", "--top-k", "2",
    )
    payload = json.loads(stdout)
    assert payload["schema_version"] == 1
    assert payload["variables"] == ["actor1", "actor2", "child", "film"]
    assert payload["top_k"] == 2
    assert payload["threshold"] == 2
    assert payload["trees_evaluated"] == 8
    assert payload["candidates_seen"] >= 3
    assert payload["truncated"] is False
    assert set(payload["timings"]) == {"parse", "plan", "evaluate", "score", "rank"}
    assert payload["wall"] >= sum(payload["timings"].values()) - 1e-6
    assert len(payload["rows"]) == 2
    row = payload["rows"][0]
    assert row["rank"] == 1 and row["edit_distance"] == 1
    assert set(row["bindings"]) == {"actor1", "actor2", "child", "film"}
    assert len(row["edges"]) == 7
    edge = row["edges"][0]
    assert set(edge) == {"pattern", "weight", "f", "in_graph", "fallback"}


def test_query_exact_solutions_when_present(run, artifacts, tmp_path):
    store_path, emb_path = artifacts
    q = tmp_path / "exact.rq"
    q.write_text(PROLOG + "SELECT ?f ?a WHERE { ?f ex:starring ?a . }")
    stdout, _ = run(
        "query", str(q), "--store", str(store_path), "--embeddings", str(emb_path),
    )
    rows = [line.split("\t") for line in stdout.strip().split("\n")[1:]]
    assert all(r[2] == "0" for r in rows)
    assert len({float(r[1]) for r in rows}) == 1


def test_query_env_fallbacks(run, artifacts, movie_query_file, monkeypatch):
    store_path, emb_path = artifacts
    monkeypatch.setenv("TRQ_STORE", str(store_path))
    monkeypatch.setenv("TRQ_EMBEDDINGS", str(emb_path))
    monkeypatch.setenv("TRQ_TOP_K", "1")
    monkeypatch.setenv("TRQ_FORMAT", "json")
    stdout, _ = run("query", str(movie_query_file))
    payload = json.loads(stdout)
    assert payload["top_k"] == 1
    assert len(payload["rows"]) == 1


def test_query_flag_overrides_env(run, artifacts, movie_query_file, monkeypatch):
    store_path, emb_path = artifacts
    monkeypatch.setenv("TRQ_STORE", str(store_path))
    monkeypatch.setenv("TRQ_EMBEDDINGS", str(emb_path))
    monkeypatch.setenv("TRQ_TOP_K", "1")
    stdout, _ = run("query", str(movie_query_file), "--top-k", "3")
    assert len(stdout.strip().split("\n")) == 4


@pytest.mark.parametrize(
    "name, value",
    [
        ("TOP_K", "abc"), ("DIM", "1.5"), ("MARGIN", "wide"), ("INCLUDE_TYPE_TRIPLES", "garbage"),
        ("FORMAT", "xml"), ("MODEL", "transx"), ("NORM", "l3"),
    ],
)
def test_malformed_env_value_is_clean_error(run, movie_query_file, monkeypatch, name, value):
    monkeypatch.setenv("TRQ_" + name, value)
    _, err = run("plan", str(movie_query_file), expect=1)
    assert err.startswith(f"error: TRQ_{name}: ") and repr(value) in err


@pytest.mark.parametrize(
    "value, expect",
    [(w, True) for w in ("1", "true", "Yes", " ON ")] + [(w, False) for w in ("0", "false", "NO", "off")],
)
def test_boolean_env_words(monkeypatch, value, expect):
    monkeypatch.setenv("TRQ_INCLUDE_TYPE_TRIPLES", value)
    assert build_parser().parse_args(["train", "-o", "x.trqe"]).include_type_triples is expect


def test_defaults_come_from_the_library(monkeypatch):
    for name in [k for k in os.environ if k.startswith("TRQ_")]:
        monkeypatch.delenv(name)
    parser = build_parser()
    assert _embed_config(parser.parse_args(["train", "-o", "x.trqe"])) == EmbeddingConfig()
    args = parser.parse_args(["query", "q.rq"])
    assert (args.threshold, args.per_tree_limit, args.top_k) == (
        DEFAULT_THRESHOLD, DEFAULT_PER_TREE_LIMIT, DEFAULT_TOP_K,
    )


def test_query_unsupported_feature_is_clean_error(run, artifacts, tmp_path):
    store_path, emb_path = artifacts
    q = tmp_path / "f.rq"
    q.write_text(PROLOG + "SELECT ?x WHERE { ?x ex:p ?y . FILTER(?x > 1) }")
    _, err = run(
        "query", str(q), "--store", str(store_path), "--embeddings", str(emb_path),
        expect=1,
    )
    assert "error:" in err and "FILTER" in err.upper()


def test_query_missing_embeddings_is_error(run, artifacts, movie_query_file):
    store_path, _ = artifacts
    _, err = run("query", str(movie_query_file), "--store", str(store_path), expect=1)
    assert "no embeddings" in err


@pytest.mark.parametrize(
    "body, form",
    [
        ("ASK { ?f ex:starring ?a . ?a ex:spouse ?b . }", "ASK"),
        ("SELECT COUNT(DISTINCT ?a) WHERE { ?f ex:starring ?a . ?a ex:spouse ?b . }", "COUNT_DISTINCT"),
    ],
)
def test_query_rejects_non_select_forms(run, artifacts, tmp_path, body, form):
    store_path, emb_path = artifacts
    q = tmp_path / "q.rq"
    q.write_text(PROLOG + body)
    stdout, err = run(
        "query", str(q), "--store", str(store_path), "--embeddings", str(emb_path), expect=1
    )
    assert stdout == ""
    assert form in err and "trq ask" in err


# -- ask ---------------------------------------------------------------


def test_ask_true_false(run, artifacts, tmp_path):
    store_path, _ = artifacts
    t = tmp_path / "t.rq"
    t.write_text(PROLOG + "ASK { ex:Camelot ex:starring ex:Vanessa_Redgrave . }")
    stdout, _ = run("ask", str(t), "--store", str(store_path))
    assert stdout.strip() == "true"
    f = tmp_path / "f.rq"
    f.write_text(
        PROLOG
        + "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
        + "ASK { ex:Carlo_Nero rdf:type ex:ScreenWriter . }"
    )
    stdout, _ = run("ask", str(f), "--store", str(store_path))
    assert stdout.strip() == "false"


# -- stats -------------------------------------------------------------


def test_stats_listing(run, artifacts):
    store_path, _ = artifacts
    stdout, _ = run("stats", "--store", str(store_path))
    assert "triples:" in stdout and "relations:" in stdout
    assert "freq=" in stdout


def test_stats_single_relation(run, artifacts):
    store_path, _ = artifacts
    stdout, _ = run("stats", "--store", str(store_path), "--relation", EX + "starring")
    assert "freq=6" in stdout and "dom=3" in stdout and "ran=6" in stdout


def test_stats_unknown_relation(run, artifacts):
    store_path, _ = artifacts
    _, err = run("stats", "--store", str(store_path), "--relation", EX + "zzz", expect=1)
    assert "not in graph" in err


# -- bench -------------------------------------------------------------


@pytest.fixture()
def bench_dir(tmp_path, artifacts):
    store_path, emb_path = artifacts
    d = tmp_path
    (d / "q.rq").write_text(
        PROLOG + "SELECT ?f ?a WHERE { ?f ex:starring ?a . ?f a ex:Film . }"
    )
    (d / "del.nt").write_text(
        f"<{EX}Camelot> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{EX}Film> .\n"
    )
    (d / "bench.manifest").write_text("q.rq del.nt\n")
    return d


def test_bench_tsv(run, artifacts, bench_dir):
    store_path, emb_path = artifacts
    stdout, err = run(
        "bench", str(bench_dir / "bench.manifest"),
        "--store", str(store_path), "--embeddings", str(emb_path),
    )
    lines = stdout.strip().split("\n")
    assert lines[0].startswith("case\trr\tmr")
    assert lines[1].startswith("q\t")
    assert lines[1].split("\t")[-1] == "ok"
    assert "# mean_rr=" in err


def test_bench_json_with_retraining(run, artifacts, bench_dir):
    store_path, _ = artifacts
    stdout, _ = run(
        "bench", str(bench_dir / "bench.manifest"),
        "--store", str(store_path),
        "--dim", "8", "--epochs", "5", "--format", "json",
    )
    payload = json.loads(stdout)
    assert payload["schema_version"] == 1
    assert payload["cases"][0]["name"] == "q"
    assert payload["cases"][0]["error"] is None
    assert payload["aggregate"]["failures"] == 0
    assert 0.0 <= payload["aggregate"]["mean_rr"] <= 1.0


def test_bench_explicit_truth_file(run, artifacts, bench_dir):
    store_path, emb_path = artifacts
    truth = bench_dir / "truth.tsv"
    truth.write_text(f"<{EX}Camelot>\t<{EX}Vanessa_Redgrave>\n<{EX}Camelot>\t<{EX}Franco_Nero>\n")
    (bench_dir / "bench.manifest").write_text("q.rq del.nt truth.tsv\n")
    stdout, _ = run(
        "bench", str(bench_dir / "bench.manifest"),
        "--store", str(store_path), "--embeddings", str(emb_path),
        "--format", "json",
    )
    payload = json.loads(stdout)
    assert payload["cases"][0]["truth_size"] == 2


def test_bench_case_failure_sets_exit_code(run, artifacts, bench_dir):
    store_path, emb_path = artifacts
    # deleting a fact that is not in the store
    (bench_dir / "del.nt").write_text(f"<{EX}Camelot> <{EX}starring> <{EX}Camelot> .\n")
    stdout, _ = run(
        "bench", str(bench_dir / "bench.manifest"),
        "--store", str(store_path), "--embeddings", str(emb_path),
        expect=1,
    )
    assert "MissingDeletionError" in stdout


def test_bench_unknown_deletion_term_is_error(run, artifacts, bench_dir):
    store_path, emb_path = artifacts
    (bench_dir / "del.nt").write_text(f"<{EX}nobody> <{EX}starring> <{EX}nothing> .\n")
    _, err = run(
        "bench", str(bench_dir / "bench.manifest"),
        "--store", str(store_path), "--embeddings", str(emb_path),
        expect=1,
    )
    assert "not in the store" in err


def test_bench_rejects_non_finite_uniform_f(run, artifacts, bench_dir):
    store_path, emb_path = artifacts
    stdout, _ = run(
        "bench", str(bench_dir / "bench.manifest"),
        "--store", str(store_path), "--embeddings", str(emb_path),
        "--uniform-f", "nan",
        expect=1,
    )
    assert "uniform_f" in stdout


def test_bench_passes_every_training_option(run, artifacts, bench_dir, monkeypatch):
    import trq.evalkit

    store_path, _ = artifacts
    trained = []
    real_train = trq.evalkit.train

    def recording_train(g, cfg):
        emb = real_train(g, cfg)
        trained.append((cfg, emb))
        return emb

    monkeypatch.setattr(trq.evalkit, "train", recording_train)
    run(
        "bench", str(bench_dir / "bench.manifest"),
        "--store", str(store_path),
        "--model", "transr", "--dim", "12", "--rel-dim", "8", "--epochs", "2",
        "--include-type-triples",
    )
    [(cfg, emb)] = trained
    assert cfg.rel_dim == 8 and cfg.include_type_triples
    assert emb.rel_dim == 8 and emb.maps.shape[1:] == (8, 12)
