"""End-to-end command line checks, driving main() in process."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from trq import evalkit
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
    # trq query ranks whole mappings, so the file projects every variable
    p = tmp_path / "q.rq"
    p.write_text(MOVIE_QUERY.replace("SELECT DISTINCT ?film ?actor1 ?actor2 WHERE", "SELECT * WHERE"))
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


def feed_stdin(monkeypatch, data: bytes) -> None:
    """Stand in for the process's stdin, which decodes its bytes as UTF-8
    with surrogate escapes under a C locale, so its text can hold bytes
    that are not UTF-8."""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))


def test_ingest_stdin(run, tmp_path, monkeypatch):
    feed_stdin(monkeypatch, nt_text([("a", "p", "b")]).encode())
    out = tmp_path / "g.trqg"
    run("ingest", "-", "-o", str(out))
    assert load_snapshot(out).triple_count == 1
    feed_stdin(monkeypatch, INVALID_UTF8)
    _, err = run("ingest", "-", "-o", str(out), expect=1)
    assert err == "error: <stdin>: line 2: invalid UTF-8\n"


INVALID_UTF8 = b"<http://a> <http://p> <http://b> .\n<http://a> <http://p> \"\xff\" .\n<http://a> <http://p> <http://c> .\n"


def test_ingest_strict_fails_on_invalid_utf8_with_its_line(run, tmp_path):
    bad = tmp_path / "bad.nt"
    bad.write_bytes(INVALID_UTF8)
    out = tmp_path / "g.trqg"
    _, err = run("ingest", str(bad), "-o", str(out), expect=1)
    assert err == f"error: {bad}: line 2: invalid UTF-8\n"
    assert not out.exists()


def test_ingest_lax_skips_the_invalid_utf8_line_only(run, tmp_path):
    bad = tmp_path / "bad.nt"
    bad.write_bytes(INVALID_UTF8)
    out = tmp_path / "g.trqg"
    _, err = run("ingest", str(bad), "-o", str(out), "--lax")
    assert "skipped 1 malformed line(s)" in err
    assert load_snapshot(out).triple_count == 2


def test_python_dash_m_trq_runs_the_cli(tmp_path):
    src = tmp_path / "toy.nt"
    src.write_text(nt_text([("a", "p", "b"), ("b", "p", "c")]))
    out = tmp_path / "toy.trqg"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "trq", "ingest", str(src), "-o", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert load_snapshot(out).triple_count == 2


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
    assert "warning:" not in err  # the loss fell


def test_train_warns_when_the_loss_grows(run, tmp_path, artifacts):
    store_path, _ = artifacts
    out = tmp_path / "r.trqe"
    args = ["--model", "transr", "--dim", "4", "--epochs", "10", "--seed", "0", "--learning-rate", "1e6"]
    _, err = run("train", "--store", str(store_path), "-o", str(out), *args, "--quiet")
    warnings_ = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings_) == 1 and "mean loss grew" in warnings_[0]
    assert load_embeddings(out).model == "transr"


def test_train_warns_when_the_loss_barely_falls(run, tmp_path, artifacts):
    store_path, _ = artifacts
    out = tmp_path / "s.trqe"
    # the embeddings barely move, so the mean loss changes only with the
    # negatives drawn: 1.0% lower in epoch 10 than in epoch 1 at seed 1
    args = ["--dim", "4", "--epochs", "10", "--seed", "1", "--learning-rate", "1e-6", "--quiet"]
    stdout, err = run("train", "--store", str(store_path), "-o", str(out), *args)
    assert err.startswith("warning: mean loss fell only 1.0% ") and err.count("\n") == 1
    assert "transe d=4" in stdout and load_embeddings(out).dim == 4


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


@pytest.mark.parametrize("message, shown", [("Unable to allocate 7.28 TiB", None), ("", "out of memory")])
def test_train_out_of_memory_is_clean_error(run, tmp_path, artifacts, monkeypatch, message, shown):
    import trq.embedding

    def exhausted(g, cfg):
        raise MemoryError(message)

    monkeypatch.setattr(trq.embedding, "train", exhausted)
    store_path, _ = artifacts
    out = tmp_path / "x.trqe"
    _, err = run("train", "--store", str(store_path), "-o", str(out), "--quiet", expect=1)
    assert err == f"error: {shown or message}\n" and not out.exists()


def test_train_missing_store_is_error(run, tmp_path):
    _, err = run("train", "-o", str(tmp_path / "x.trqe"), expect=1)
    assert "no store" in err


# -- plan --------------------------------------------------------------


def test_plan_lists_trees(run, movie_query_file):
    stdout, _ = run("plan", str(movie_query_file))
    assert "7 patterns, 8 subquery tree(s)" in stdout
    assert stdout.count("tree ") == 8
    assert "?film" in stdout


PLAN_PINS = {
    # ex:p ?x ?y twice, a parallel ex:q edge and a self-loop on ?y
    "parallel-duplicate-self-loop": (
        "?x ex:p ?y . ?x ex:q ?y . ?x ex:p ?y . ?y ex:r ?y . ?y ex:s ?z . ?z ex:t ?x .",
        """6 patterns, 5 subquery tree(s)
tree 1/5: covers [0, 4], drops [1, 2, 3, 5]
  ?x <http://example.org/p> ?y .
  ?y <http://example.org/s> ?z .
tree 2/5: covers [0, 5], drops [1, 2, 3, 4]
  ?x <http://example.org/p> ?y .
  ?z <http://example.org/t> ?x .
tree 3/5: covers [1, 4], drops [0, 2, 3, 5]
  ?x <http://example.org/q> ?y .
  ?y <http://example.org/s> ?z .
tree 4/5: covers [1, 5], drops [0, 2, 3, 4]
  ?x <http://example.org/q> ?y .
  ?z <http://example.org/t> ?x .
tree 5/5: covers [4, 5], drops [0, 1, 2, 3]
  ?y <http://example.org/s> ?z .
  ?z <http://example.org/t> ?x .
""",
    ),
    # ex:a -> ex:b -> ?x strips one constant leaf after the other; ?rel is a predicate
    "constant-chain-variable-predicate": (
        'ex:a ex:p ex:b . ex:b ex:p ?x . ?x ?rel ?y . ?y ex:q "c|d;e" . ?y ex:q ex:c . ex:c ex:r ?x .',
        """6 patterns, 2 subquery tree(s)
tree 1/2: covers [2], drops [0, 1, 3, 4, 5]
  ?x ?rel ?y .
tree 2/2: covers [4, 5], drops [0, 1, 2, 3]
  ?y <http://example.org/q> <http://example.org/c> .
  <http://example.org/c> <http://example.org/r> ?x .
""",
    ),
    "single-node": (
        "ex:a ex:p ?x . ?x ex:q ex:b .",
        """2 patterns, 1 subquery tree(s)
tree 1/1: covers [], drops [0, 1]
""",
    ),
}


@pytest.mark.parametrize("name", PLAN_PINS)
def test_plan_output_is_pinned(run, tmp_path, name):
    where, expected = PLAN_PINS[name]
    q = tmp_path / "q.rq"
    q.write_text(PROLOG + f"SELECT * WHERE {{ {where} }}\n")
    stdout, err = run("plan", str(q))
    assert stdout == expected and err == ""


@pytest.mark.parametrize("verb", ["plan", "query"])
@pytest.mark.parametrize("max_edges", ["0", "-1"])
def test_max_edges_below_one_is_a_named_error(run, artifacts, movie_query_file, verb, max_edges):
    # the edge cap is qgraph.MAX_EDGES, so no value of the option is read
    store_path, emb_path = artifacts
    args = [] if verb == "plan" else ["--store", str(store_path), "--embeddings", str(emb_path)]
    stdout, err = run(verb, str(movie_query_file), *args, "--max-edges", max_edges, expect=1)
    assert stdout == ""
    assert err == f"error: unrecognized arguments: --max-edges {max_edges}\n"


def test_plan_reports_syntax_errors(run, tmp_path):
    p = tmp_path / "bad.rq"
    p.write_text("SELECT ?x WHERE { ?x ex:p ?y . }")  # undeclared prefix
    _, err = run("plan", str(p), expect=1)
    assert "error:" in err


def test_plan_rejects_an_iri_that_would_print_as_two_lines(run, tmp_path):
    # \u000A resolves to a newline, which N-Triples forbids in an IRI
    p = tmp_path / "q.rq"
    p.write_text("SELECT * WHERE { ?x <e:p> ?y . ?y <e:q> <e:a\\u000Ab> . <e:a\\u000Ab> <e:r> ?x . }\n")
    stdout, err = run("plan", str(p), expect=1)
    assert stdout == "" and err == "error: malformed IRI <e:a\\u000Ab>\n"


VARIABLE_FREE = "SELECT * WHERE { <http://e/a> <http://e/p> <http://e/b> }"


@pytest.mark.parametrize("verb", ["plan", "query"])
def test_variable_free_select_is_clean_error(run, artifacts, tmp_path, verb):
    store_path, emb_path = artifacts
    q = tmp_path / "q.rq"
    q.write_text(VARIABLE_FREE)
    args = [] if verb == "plan" else ["--store", str(store_path), "--embeddings", str(emb_path)]
    stdout, err = run(verb, str(q), *args, expect=1)
    assert stdout == ""
    assert err.startswith("error: query has no variable to rank")
    assert "trq ask" in err
    assert "Traceback" not in err


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
    # the movie query's seven patterns are its seven relaxations, and its
    # three candidates (one per family) are the only rows kept
    assert payload["trees_evaluated"] == 7
    assert payload["candidates_seen"] == 3
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


# Command lines that fail to parse, and the word their error line names.
USAGE_ERRORS = [
    (["ingest", "g.nt", "-o", "g.trqg", "--bogus"], "--bogus"),
    (["ingest", "-o", "g.trqg"], "input"),
    (["train", "-o", "g.trqe", "--bogus"], "--bogus"),
    (["train", "-o", "g.trqe", "--dim", "abc"], "--dim"),
    (["train"], "--output"),
    (["plan", "q.rq", "--bogus"], "--bogus"),
    (["plan", "q.rq", "--max-edges", "3"], "--max-edges"),
    (["plan"], "query"),
    (["query", "q.rq", "--bogus"], "--bogus"),
    (["query", "q.rq", "--top-k", "abc"], "--top-k"),
    (["query", "q.rq", "--max-edges", "3"], "--max-edges"),
    (["query"], "query"),
    (["ask", "q.rq", "--bogus"], "--bogus"),
    (["ask"], "query"),
    (["stats", "--bogus"], "--bogus"),
    (["stats", "--top", "abc"], "--top"),
    (["bench", "m", "--bogus"], "--bogus"),
    (["bench", "m", "--epochs", "abc"], "--epochs"),
    (["bench", "m", "--max-edges", "3"], "--max-edges"),
    (["bench"], "manifest"),
    (["nosuchverb"], "nosuchverb"),
    ([], "command"),
]


@pytest.mark.parametrize("argv, named", USAGE_ERRORS, ids=[" ".join(a) or "none" for a, _ in USAGE_ERRORS])
def test_usage_error_is_one_named_error_line(run, argv, named):
    stdout, err = run(*argv, expect=1)
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("verb", ["ingest", "train", "plan", "query", "ask", "stats", "bench"])
def test_help_exits_zero(capsys, verb):
    with pytest.raises(SystemExit) as e:
        main([verb, "--help"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: trq {verb}") and "--max-edges" not in out


def test_an_edge_cap_in_the_environment_is_ignored(run, movie_query_file, monkeypatch):
    monkeypatch.setenv("TRQ_MAX_EDGES", "1")
    stdout, _ = run("plan", str(movie_query_file))
    assert "subquery tree(s)" in stdout


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
    "body, message",
    [
        ("ASK { ?f ex:starring ?a . ?a ex:spouse ?b . }", "ASK (evaluate it exactly with `trq ask`)"),
        (
            "SELECT COUNT(DISTINCT ?a) WHERE { ?f ex:starring ?a . ?a ex:spouse ?b . }",
            "unsupported query feature: COUNT",
        ),
    ],
)
def test_query_rejects_non_select_forms(run, artifacts, tmp_path, body, message):
    store_path, emb_path = artifacts
    q = tmp_path / "q.rq"
    q.write_text(PROLOG + body)
    stdout, err = run(
        "query", str(q), "--store", str(store_path), "--embeddings", str(emb_path), expect=1
    )
    assert stdout == ""
    assert message in err and "Traceback" not in err


STARRING_BODY = "WHERE { ?f ex:starring ?a . ?f a ex:Film }"


def test_query_projection_leaving_out_a_variable_is_a_named_error(run, artifacts, tmp_path):
    store_path, emb_path = artifacts
    q = tmp_path / "q.rq"
    q.write_text(PROLOG + "SELECT DISTINCT ?f " + STARRING_BODY)
    stdout, err = run(
        "query", str(q), "--store", str(store_path), "--embeddings", str(emb_path), expect=1
    )
    assert stdout == ""
    assert err.startswith("error: SELECT leaves out ?a;") and "SELECT *" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_query_star_and_every_variable_print_the_same(run, artifacts, tmp_path, fmt):
    store_path, emb_path = artifacts
    out = []
    for head in ("SELECT * ", "SELECT ?a ?f ", "SELECT DISTINCT ?f ?a ", "SELECT DISTINCT * "):
        q = tmp_path / "q.rq"
        q.write_text(PROLOG + head + STARRING_BODY)
        stdout, _ = run(
            "query", str(q), "--store", str(store_path), "--embeddings", str(emb_path), "--format", fmt
        )
        out.append(json.loads(stdout)["rows"] if fmt == "json" else stdout)
    assert out[0] == out[1] == out[2] == out[3]
    if fmt == "tsv":
        lines = out[0].strip().split("\n")
        assert lines[0] == "rank\tscore\tedit_distance\t?a\t?f"
        assert len(lines) > 1


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


# -- queries on stdin ---------------------------------------------------


QUERY_ARGS = {
    "plan": lambda store_path, emb_path: [],
    "query": lambda store_path, emb_path: ["--store", str(store_path), "--embeddings", str(emb_path)],
    "ask": lambda store_path, emb_path: ["--store", str(store_path)],
}


@pytest.mark.parametrize("verb", sorted(QUERY_ARGS))
def test_query_read_from_stdin(run, artifacts, tmp_path, monkeypatch, verb):
    """``-`` reads the query from stdin as UTF-8, whatever the locale, and
    a byte that is not UTF-8 is an error naming ``<stdin>`` and its line."""
    args = QUERY_ARGS[verb](*artifacts)
    form = "ASK" if verb == "ask" else "SELECT *"
    q = tmp_path / "q.rq"
    q.write_text(PROLOG + form + " " + STARRING_BODY)
    from_file, _ = run(verb, str(q), *args)
    feed_stdin(monkeypatch, q.read_bytes())
    assert run(verb, "-", *args)[0] == from_file
    feed_stdin(monkeypatch, form.encode() + b" { ?f <http://e/\xff> ?a . ?f <http://e/p> ?b }\n")
    stdout, err = run(verb, "-", *args, expect=1)
    assert stdout == "" and err == "error: <stdin>: line 1: invalid UTF-8\n"


def test_ask_reads_stdin_as_utf8_under_the_c_locale(artifacts):
    store_path, _ = artifacts
    env = dict(os.environ, LC_ALL="C", PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "trq", "ask", "-", "--store", str(store_path)],
        input=b"ASK { ?s ?p <http://e/\xff> }",
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", b"error: <stdin>: line 1: invalid UTF-8\n")


# -- stats -------------------------------------------------------------


def test_stats_listing(run, artifacts):
    store_path, _ = artifacts
    stdout, _ = run("stats", "--store", str(store_path))
    assert "triples:" in stdout and "relations:" in stdout
    assert "freq=" in stdout
    assert "\nentities: 23\n" in stdout


def test_stats_top_counts_relations(run, artifacts):
    store_path, _ = artifacts
    stdout, _ = run("stats", "--store", str(store_path), "--top", "0")
    assert "freq=" not in stdout
    stdout, _ = run("stats", "--store", str(store_path), "--top", "2")
    assert stdout.count("freq=") == 2
    stdout, err = run("stats", "--store", str(store_path), "--top", "-1", expect=1)
    assert stdout == ""
    assert err == "error: --top must be at least 0, got -1\n"


def test_stats_single_relation(run, artifacts):
    store_path, _ = artifacts
    stdout, _ = run("stats", "--store", str(store_path), "--relation", EX + "starring")
    assert "freq=6" in stdout and "dom=3" in stdout and "ran=6" in stdout


def test_stats_unknown_relation(run, artifacts):
    """A relation the graph lacks, a relative IRI and an empty value are
    each an error named on one line, before any count is printed."""
    store_path, _ = artifacts
    for relation, named in ((EX + "zzz", "not in graph"), ("a b", "must be absolute"), ("", "must be absolute")):
        stdout, err = run("stats", "--store", str(store_path), "--relation", relation, expect=1)
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err


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


def test_bench_reports_the_training_time_once(run, tmp_path):
    # two rdf:type deletions and one relational deletion, ranked with one model
    a = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
    (tmp_path / "g.nt").write_text(
        f"<e:a> {a} <e:C> .\n<e:a> <e:p> <e:b> .\n<e:b> {a} <e:C> .\n"
        f"<e:b> <e:p> <e:c> .\n<e:c> {a} <e:C> .\n<e:c> <e:q> <e:a> .\n"
    )
    run("ingest", str(tmp_path / "g.nt"), "-o", str(tmp_path / "g.trqg"))
    (tmp_path / "q.rq").write_text(f"SELECT * WHERE {{ ?x <e:p> ?y . ?y {a} <e:C> . }}\n")
    (tmp_path / "b.nt").write_text(f"<e:b> {a} <e:C> .\n")
    (tmp_path / "c.nt").write_text(f"<e:c> {a} <e:C> .\n")
    (tmp_path / "p.nt").write_text("<e:a> <e:p> <e:b> .\n")
    (tmp_path / "m.txt").write_text("q.rq b.nt\nq.rq c.nt\nq.rq p.nt\n")
    argv = ["bench", str(tmp_path / "m.txt"), "--store", str(tmp_path / "g.trqg"), "--epochs", "2"]
    stdout, _ = run(*argv, "--format", "json")
    payload = json.loads(stdout)
    assert payload["schema_version"] == 1
    v1 = {"name", "rr", "mr", "candidates", "truth_size", "elapsed_s", "error"}
    assert all(set(case) == v1 for case in payload["cases"])
    assert set(payload["aggregate"]) == {"mean_rr", "mean_mr", "failures", "train_s"}
    assert payload["aggregate"]["train_s"] > 0 and payload["aggregate"]["failures"] == 0
    stdout, err = run(*argv)
    assert stdout.split("\n")[0] == "case\trr\tmr\tcandidates\ttruth\telapsed_s\tstatus"
    assert "train_s" not in stdout and err.count(" train_s=") == 1


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


@pytest.mark.parametrize(
    "content, message",
    [
        (f"<{EX}Camelot> <{EX}Franco_Nero>\n", "line 1: expected 2 tab-separated fields, got 1"),
        (f"# comment\n\n<{EX}Camelot>\n", "line 3: expected 2 tab-separated fields, got 1"),
        (f"<{EX}Camelot>\t<{EX}Franco_Nero>\t<{EX}x>\n", "line 1: expected 2 tab-separated fields, got 3"),
        (f"<{EX}Camelot>\t<{EX}Franco_Nero>\nCamelot\t<{EX}x>\n", "line 2: unrecognized term: 'Camelot'"),
        (f"<{EX}Camelot>\t<{EX}Franco_Nero> <{EX}x>\n", f"line 1: trailing characters after term: '<{EX}Franco_Nero> <{EX}x>'"),
        (f"\n<{EX}Camelot>\t<{EX}Franco_Nero>\n".encode() + b"<p:\xff>\t<p:x>\n", "line 3: invalid UTF-8"),
    ],
    ids=["space-separated", "one-field", "three-fields", "bad-term", "space-in-field", "invalid-utf8"],
)
def test_bench_malformed_truth_line_names_file_and_line(run, artifacts, bench_dir, monkeypatch, content, message):
    """A truth line holds one N-Triples term per query variable, tab
    separated; any other line is an error before any case trains."""
    store_path, _ = artifacts
    truth = bench_dir / "truth.tsv"
    truth.write_bytes(content if isinstance(content, bytes) else content.encode())
    (bench_dir / "bench.manifest").write_text("q.rq del.nt truth.tsv\n")

    def no_training(*args, **kwargs):
        raise AssertionError("a case trained")

    monkeypatch.setattr(evalkit, "train", no_training)
    stdout, err = run(
        "bench", str(bench_dir / "bench.manifest"),
        "--store", str(store_path), "--dim", "4", "--epochs", "1",
        expect=1,
    )
    assert stdout == "" and err == f"error: {truth}: {message}\n"


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
    (bench_dir / "del.nt").write_text(f"\n<{EX}nobody> <{EX}starring> <{EX}nothing> .\n")
    _, err = run(
        "bench", str(bench_dir / "bench.manifest"),
        "--store", str(store_path), "--embeddings", str(emb_path),
        expect=1,
    )
    assert "not in the store" in err
    # the error names the file, the line and the first unknown term
    assert f"{bench_dir / 'del.nt'}: line 2: deletion references a term not in the store: <{EX}nobody>" in err


@pytest.fixture()
def blank_bench(run, tmp_path):
    """A store holding _:x as _:b0 and _:y as _:b1, and a bench manifest
    over it whose deletions file is written by each test."""
    (tmp_path / "g.nt").write_text("_:x <p:p> <p:a> .\n_:y <p:p> <p:b> .\n<p:a> <p:q> <p:b> .\n<p:c> <p:q> <p:a> .\n")
    store_path = tmp_path / "g.trqg"
    run("ingest", str(tmp_path / "g.nt"), "-o", str(store_path))
    (tmp_path / "q.rq").write_text("SELECT ?s ?o WHERE { ?s <p:p> ?o . }")
    (tmp_path / "bench.manifest").write_text("q.rq del.nt\n")

    def bench(deletions, expect):
        (tmp_path / "del.nt").write_text(deletions)
        return run(
            "bench", str(tmp_path / "bench.manifest"), "--store", str(store_path),
            "--uniform-f", "0.5", "--format", "json", expect=expect,
        )

    return bench


def test_bench_deletions_name_blank_nodes_by_store_label(blank_bench):
    # the deletion names the store's _:b1, the second file's blank node
    stdout, _ = blank_bench("_:b1 <p:p> <p:b> .\n", expect=0)
    [case] = json.loads(stdout)["cases"]
    assert case["error"] is None and case["truth_size"] == 2


def test_bench_deletion_of_an_absent_blank_node_fact_fails(blank_bench):
    # _:b1 <p:p> <p:a> is no fact, whichever label _:b1 would get on reparsing
    stdout, _ = blank_bench("# comment\n_:b1 <p:p> <p:a> .\n", expect=1)
    [case] = json.loads(stdout)["cases"]
    assert case["error"] == (
        "MissingDeletionError: 1 deletion(s) not present in the graph: _:b1 <p:p> <p:a> ."
    )


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\n<p:a> <p:q> .\n", "line 2: expected IRI, blank node, or literal object"),
        (b"\n\n<p:a> <p:q> <p:\xff> .\n", "line 3: invalid UTF-8"),
    ],
)
def test_bench_bad_deletion_line_names_file_and_line(run, artifacts, bench_dir, content, message):
    store_path, emb_path = artifacts
    (bench_dir / "del.nt").write_bytes(content)
    stdout, err = run(
        "bench", str(bench_dir / "bench.manifest"),
        "--store", str(store_path), "--embeddings", str(emb_path),
        expect=1,
    )
    assert stdout == "" and f"error: {bench_dir / 'del.nt'}: {message}" in err


@pytest.mark.parametrize(
    "content, message",
    [
        (b"q.rq\n", "line 1: expected 2 or 3 columns, got 1"),
        (b"q.rq del.nt\nq.rq del.nt - extra\n", "line 2: expected 2 or 3 columns, got 4"),
        (b"", "lists no case"),
        (b"# no case\n\n", "lists no case"),
    ],
    ids=["one-column", "four-columns", "empty", "comments-only"],
)
def test_bench_malformed_manifest_names_it(run, artifacts, bench_dir, content, message):
    store_path, emb_path = artifacts
    manifest = bench_dir / "bench.manifest"
    manifest.write_bytes(content)
    stdout, err = run("bench", str(manifest), "--store", str(store_path), "--embeddings", str(emb_path), expect=1)
    assert stdout == "" and err == f"error: {manifest}: {message}\n"


NOT_UTF8 = {
    "query": PROLOG.encode() + b"ASK { ?f ex:starring <http://e/\xff> . }\n",
    "ntriples": INVALID_UTF8,
    "manifest": b"q.rq del.nt\n# caf\xe9\n",
}


def text_input_case(kind, bench_dir, artifacts):
    """The arguments of a command reading one kind of text input, that
    input's kind of content, and its path."""
    store_path, emb_path = artifacts
    q, manifest = bench_dir / "q.rq", bench_dir / "bench.manifest"
    bench = ["bench", str(manifest), "--store", str(store_path), "--embeddings", str(emb_path)]
    if kind == "truth":
        manifest.write_text("q.rq del.nt truth.tsv\n")
    if kind in QUERY_ARGS:
        return [kind, str(q), *QUERY_ARGS[kind](store_path, emb_path)], "query", q
    return {
        "ingest": (["ingest", str(bench_dir / "g.nt"), "-o", str(bench_dir / "g.trqg")], "ntriples", bench_dir / "g.nt"),
        "manifest": (bench, "manifest", manifest),
        "bench-query": (bench, "query", q),
        "deletions": (bench, "deletions", bench_dir / "del.nt"),
        "truth": (bench, "truth", bench_dir / "truth.tsv"),
    }[kind]


@pytest.mark.parametrize(
    "kind, fault",
    [
        (kind, fault)
        for kind in ("plan", "query", "ask", "ingest", "manifest", "bench-query", "deletions", "truth")
        for fault in ("not-utf8", "missing", "directory")
        # deletions and truth lines that are not UTF-8 are cases of their own tests above
        if not (fault == "not-utf8" and kind in ("deletions", "truth"))
    ],
)
def test_unreadable_text_input_is_one_error_line(run, artifacts, bench_dir, kind, fault):
    argv, content, path = text_input_case(kind, bench_dir, artifacts)
    if path.exists():
        path.unlink()
    if fault == "not-utf8":
        path.write_bytes(NOT_UTF8[content])
        expected = f"error: {path}: line 2: invalid UTF-8\n"
    elif fault == "directory":
        path.mkdir()
        expected = f"error: [Errno 21] Is a directory: '{path}'\n"
    else:
        expected = f"error: [Errno 2] No such file or directory: '{path}'\n"
    stdout, err = run(*argv, expect=1)
    assert stdout == "" and err == expected


@pytest.mark.parametrize("verb", ["ingest", "train"])
@pytest.mark.parametrize("fault", ["missing-parent", "directory", "file-parent"])
def test_unwritable_output_path_is_one_error_line(run, artifacts, movie_nt, tmp_path, verb, fault):
    # the error names the path given, not the temporary file written first
    store_path, _ = artifacts
    if fault == "directory":
        path = tmp_path / "out"
        path.mkdir()
        expected = f"error: [Errno 21] Is a directory: '{path}'\n"
    elif fault == "file-parent":
        path = tmp_path / "file" / "out"
        path.parent.write_text("")
        expected = f"error: [Errno 20] Not a directory: '{path}'\n"
    else:
        path = tmp_path / "missing" / "out"
        expected = f"error: [Errno 2] No such file or directory: '{path}'\n"
    argv = {
        "ingest": ["ingest", str(movie_nt)],
        "train": ["train", "--store", str(store_path), "--dim", "4", "--epochs", "1", "--quiet"],
    }[verb]
    before = sorted(tmp_path.rglob("*"))
    stdout, err = run(*argv, "-o", str(path), expect=1)
    assert stdout == "" and err == expected and ".tmp" not in err
    assert sorted(tmp_path.rglob("*")) == before


def test_closed_stdout_ends_the_command_quietly(tmp_path):
    # about 1 MB of JSON, far more than a pipe holds: trq is still writing
    # when the reader closes the pipe after 100 bytes
    nt, store_path, emb_path = tmp_path / "big.nt", tmp_path / "big.trqg", tmp_path / "big.trqe"
    nt.write_text("".join(f"<e:s{i}> <e:p> <e:o{i % 97}> .\n" for i in range(3000)))
    assert main(["ingest", str(nt), "-o", str(store_path)]) == 0
    assert main(["train", "--store", str(store_path), "-o", str(emb_path), "--dim", "4", "--epochs", "1", "--quiet"]) == 0
    query = tmp_path / "q.rq"
    query.write_text("SELECT * WHERE { ?x <e:p> ?y . }\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = ["query", str(query), "--store", str(store_path), "--embeddings", str(emb_path), "--top-k", "3000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "trq", *argv, "--format", "json"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert head.startswith(b"{") and len(head) == 100
    assert err == b""


def test_bench_rejects_non_finite_uniform_f(run, artifacts, bench_dir):
    store_path, emb_path = artifacts
    stdout, err = run(
        "bench", str(bench_dir / "bench.manifest"),
        "--store", str(store_path), "--embeddings", str(emb_path),
        "--uniform-f", "nan",
        expect=1,
    )
    # rejected before any case runs, so no report is printed
    assert stdout == ""
    assert "error: uniform_f must be a finite number" in err


@pytest.mark.parametrize(
    "option,message",
    [
        (["--dim", "0"], "dim must be positive"),
        (["--learning-rate", "nan"], "learning_rate must be a positive finite number, got nan"),
        (["--model", "transe", "--rel-dim", "3"], "rel_dim must equal dim unless the model is transr"),
        (["--batch-size", "0"], "batch_size must be positive"),
    ],
    ids=["dim", "learning-rate", "rel-dim", "batch-size"],
)
def test_bench_rejects_an_out_of_range_training_option_once(run, artifacts, bench_dir, monkeypatch, option, message):
    store_path, _ = artifacts
    monkeypatch.delenv("TRQ_EMBEDDINGS", raising=False)
    monkeypatch.setattr(evalkit, "train", lambda *a, **k: pytest.fail("a case trained"))
    stdout, err = run("bench", str(bench_dir / "bench.manifest"), "--store", str(store_path), *option, expect=1)
    # named once, before any case runs, as trq train names it
    assert stdout == ""
    assert err == f"error: {message}\n"


TRAINING_OPTIONS = [
    ["--model", "transh"], ["--dim", "4"], ["--rel-dim", "4"], ["--margin", "2"], ["--learning-rate", "0.1"],
    ["--epochs", "1"], ["--batch-size", "8"], ["--negatives", "2"], ["--norm", "l2"], ["--seed", "3"],
    ["--include-type-triples"],
]


@pytest.mark.parametrize("cause", ["--embeddings", "--uniform-f"])
@pytest.mark.parametrize("option", TRAINING_OPTIONS, ids=lambda o: o[0])
def test_bench_rejects_training_options_no_case_reads(run, artifacts, bench_dir, monkeypatch, cause, option):
    store_path, emb_path = artifacts
    monkeypatch.setattr(evalkit, "run_benchmark", lambda *a, **k: pytest.fail("a case ran"))
    source = ["--embeddings", str(emb_path)] if cause == "--embeddings" else ["--uniform-f", "0.5"]
    stdout, err = run("bench", str(bench_dir / "bench.manifest"), "--store", str(store_path), *source, *option, expect=1)
    assert stdout == "" and err.count("\n") == 1
    assert err.startswith(f"error: {option[0]} would go unread: with {cause} no case trains")


def test_bench_names_the_environment_that_gave_the_embeddings(run, artifacts, bench_dir, monkeypatch):
    store_path, emb_path = artifacts
    monkeypatch.setattr(evalkit, "run_benchmark", lambda *a, **k: pytest.fail("a case ran"))
    monkeypatch.setenv("TRQ_EMBEDDINGS", str(emb_path))
    stdout, err = run("bench", str(bench_dir / "bench.manifest"), "--store", str(store_path), "--epochs", "3", expect=1)
    assert stdout == ""
    assert err == "error: --epochs would go unread: with TRQ_EMBEDDINGS no case trains\n"


def test_bench_rejects_embeddings_with_uniform_f(run, artifacts, bench_dir, monkeypatch):
    store_path, emb_path = artifacts
    monkeypatch.setattr(evalkit, "run_benchmark", lambda *a, **k: pytest.fail("a case ran"))
    stdout, err = run(
        "bench", str(bench_dir / "bench.manifest"), "--store", str(store_path),
        "--uniform-f", "0.5", "--embeddings", str(emb_path),
        expect=1,
    )
    assert stdout == ""
    assert err == "error: --embeddings would go unread: with --uniform-f no case trains or reads embeddings\n"


def test_bench_with_uniform_f_reads_no_embeddings_file(run, blank_bench, monkeypatch, tmp_path):
    # TRQ_EMBEDDINGS names a file that is not there; no case reads it
    monkeypatch.setenv("TRQ_EMBEDDINGS", str(tmp_path / "absent.trqe"))
    stdout, _ = blank_bench("_:b1 <p:p> <p:b> .\n", expect=0)
    assert json.loads(stdout)["cases"][0]["error"] is None


@pytest.mark.parametrize("max_edges", ["0", "-1"])
def test_bench_max_edges_below_one_is_a_named_error(run, artifacts, bench_dir, monkeypatch, max_edges):
    import trq.evalkit

    store_path, _ = artifacts
    trained = []
    monkeypatch.setattr(trq.evalkit, "train", lambda g, cfg: trained.append(cfg))
    stdout, err = run(
        "bench", str(bench_dir / "bench.manifest"),
        "--store", str(store_path), "--dim", "8", "--epochs", "2",
        "--max-edges", max_edges,
        expect=1,
    )
    # rejected before any case trains, so no report is printed
    assert stdout == "" and trained == []
    assert err == f"error: unrecognized arguments: --max-edges {max_edges}\n"


def test_bench_max_edges_caps_each_case(run, artifacts, bench_dir, monkeypatch):
    import trq.qgraph

    store_path, emb_path = artifacts
    # two edges are left after ?f a ex:Film is removed as a constant leaf
    (bench_dir / "q.rq").write_text(
        PROLOG + "SELECT ?f ?a ?b WHERE { ?f ex:starring ?a . ?a ex:spouse ?b . ?f a ex:Film . }"
    )
    args = [
        "bench", str(bench_dir / "bench.manifest"),
        "--store", str(store_path), "--embeddings", str(emb_path), "--format", "json",
    ]
    stdout, _ = run(*args)
    assert json.loads(stdout)["cases"][0]["error"] is None
    monkeypatch.setattr(trq.qgraph, "MAX_EDGES", 1)
    stdout, _ = run(*args, expect=1)
    [case] = json.loads(stdout)["cases"]
    assert case["error"] == (
        "BudgetExceededError: combinatorial budget exceeded: "
        "2 edges after constant-leaf removal, more than the cap of 1"
    )


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
