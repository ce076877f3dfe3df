"""Command line front end.

Verbs: ``ingest`` (N-Triples -> TRQG snapshot), ``train`` (snapshot ->
TRQE embeddings), ``plan`` (show a query's subquery trees), ``query``
(ranked approximate solutions), ``ask``, ``stats``, and ``bench``
(fact-deletion benchmark from a manifest). Results go to stdout as TSV
or JSON; diagnostics go to stderr; the exit status is 0 exactly when no
errors occurred. Every option except ``--output``, ``--lax``,
``--quiet``, ``--top``, ``--relation`` and ``--uniform-f`` falls back to
a ``TRQ_``-prefixed environment variable (e.g. ``TRQ_STORE``,
``TRQ_MODEL``, ``TRQ_TOP_K``) before its built-in default. Booleans read
``1/true/yes/on`` or ``0/false/no/off``; any other value, a number
that does not parse, or a word outside an option's choices is an error,
as is an unknown option, a malformed value or a missing argument on the
command line.

Text inputs are read by :mod:`trq.ntriples`: a fault reads ``error:
{path}: line N: ...``, stdin (``-``) named ``<stdin>``. An output path
that cannot be written is named as given, such as ``error: [Errno 21]
Is a directory: '{path}'``. A reader that closes stdout early ends the
command quietly, with exit status 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import embedding, evalkit, qgraph, sparql, store
from .recommend import (
    DEFAULT_PER_TREE_LIMIT,
    DEFAULT_THRESHOLD,
    DEFAULT_TOP_K,
    RecommendRequest,
    recommend,
    validate_settings,
)
from .ntriples import read_lines, text_input
from .sparql import QueryForm
from .terms import Term


class QueryFormError(ValueError):
    """A command got a query form it does not answer."""


class PartialProjectionError(ValueError):
    """``trq query`` got a SELECT clause that leaves out a query variable."""


FORMATS = ("tsv", "json")
# `trq train` warns when the last epoch's mean loss is less than this
# share below the first epoch's
_MIN_LOSS_FALL = 0.05
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _env(name: str, cast, default, choices=None):
    raw = os.environ.get("TRQ_" + name)
    if raw is None:
        return default
    if choices is not None and raw not in choices:
        raise ValueError(f"TRQ_{name}: expected one of {'/'.join(choices)}, got {raw!r}")
    if cast is bool:
        word = raw.strip().lower()
        if word not in _TRUE + _FALSE:
            raise ValueError(f"TRQ_{name}: expected one of 1/true/yes/on or 0/false/no/off, got {raw!r}")
        return word in _TRUE
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(f"TRQ_{name}: not a valid {cast.__name__}: {raw!r}") from None


def _load_store(path: str | None) -> store.Graph:
    if not path:
        raise ValueError("no store given (use --store or TRQ_STORE)")
    return store.load_snapshot(path)


# -- commands ----------------------------------------------------------


def cmd_ingest(args) -> int:
    errors: list = []
    with text_input(args.input) as raw:
        g = store.parse_ntriples(raw, on_error=errors.append if args.lax else None)
    store.save_snapshot(g, args.output)
    if errors:
        print(f"skipped {len(errors)} malformed line(s)", file=sys.stderr)
    print(f"{g.triple_count} triples, {g.term_count} terms -> {args.output}")
    return 0


def _embed_config(args) -> embedding.EmbeddingConfig:
    """The training options shared by ``train`` and ``bench``."""
    return embedding.EmbeddingConfig(
        model=args.model,
        dim=args.dim,
        rel_dim=args.rel_dim,
        margin=args.margin,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        batch_size=args.batch_size,
        negatives_per_positive=args.negatives,
        norm=args.norm,
        seed=args.seed,
        include_type_triples=args.include_type_triples,
    )


def cmd_train(args) -> int:
    g = _load_store(args.store)
    cfg = _embed_config(args)
    started = time.perf_counter()
    emb = embedding.train(g, cfg)
    elapsed = time.perf_counter() - started
    if not args.quiet:
        step = max(1, cfg.epochs // 10)
        for i in range(0, cfg.epochs, step):
            print(
                f"epoch {i + 1}/{cfg.epochs} mean loss {emb.losses[i]:.6f}"
                f" sampler redraws {emb.sampler_redraws[i]}",
                file=sys.stderr,
            )
        print(f"final mean loss {emb.losses[-1]:.6f} ({elapsed:.1f}s)", file=sys.stderr)
    first, last = emb.losses[0], emb.losses[-1]
    if last > first:
        print(
            f"warning: mean loss grew from {first:.6g} in epoch 1 to {last:.6g}"
            f" in epoch {cfg.epochs}; the learning rate may be too high",
            file=sys.stderr,
        )
    elif cfg.epochs > 1 and last > (1 - _MIN_LOSS_FALL) * first:
        print(
            f"warning: mean loss fell only {100 * (first - last) / first:.1f}% from {first:.6g} in epoch 1"
            f" to {last:.6g} in epoch {cfg.epochs}; the learning rate may be too low or the epochs too few",
            file=sys.stderr,
        )
    embedding.save_embeddings(emb, args.output)
    print(
        f"{cfg.model} d={cfg.dim} entities={emb.entity_count} relations={emb.relation_count}"
        f" -> {args.output}"
    )
    return 0


def cmd_plan(args) -> int:
    q = sparql.parse_query("\n".join(read_lines(args.query)))
    trees = qgraph.enumerate_subquery_trees(q)
    print(f"{len(q.patterns)} patterns, {len(trees)} subquery tree(s)")
    for i, tree in enumerate(trees, start=1):
        print(f"tree {i}/{len(trees)}: covers {list(tree.covered)}, drops {list(tree.dropped)}")
        for origin in tree.covered:
            print(f"  {' '.join(map(qgraph.atom_label, q.patterns[origin].atoms()))} .")
    return 0


def cmd_query(args) -> int:
    g = _load_store(args.store)
    if not args.embeddings:
        raise ValueError("no embeddings given (use --embeddings or TRQ_EMBEDDINGS)")
    emb = embedding.load_embeddings(args.embeddings)
    emb.bind(g)  # aligned before the query clock starts; recommend reuses this view

    text = "\n".join(read_lines(args.query))
    wall_start = time.perf_counter()
    parse_start = time.perf_counter()
    q = sparql.parse_query(text)
    parse_seconds = time.perf_counter() - parse_start
    if q.form is not QueryForm.SELECT:
        raise QueryFormError(
            f"trq query ranks solutions of SELECT queries, not {q.form.name} "
            "(evaluate it exactly with `trq ask`)"
        )
    left_out = sorted(set(q.variables()) - set(q.projected))
    if left_out:
        raise PartialProjectionError(
            f"SELECT leaves out {' '.join('?' + v for v in left_out)}; trq query ranks whole "
            "solution mappings, so project every variable or use SELECT *"
        )
    req = RecommendRequest(
        query=q, embeddings=emb, threshold=args.threshold, top_k=args.top_k, per_tree_limit=args.per_tree_limit
    )
    rec = recommend(g, req, parse_seconds=parse_seconds)
    wall = time.perf_counter() - wall_start

    variables = sorted(q.variables())
    if args.format == "json":
        payload = {
            "schema_version": 1,
            "variables": variables,
            "top_k": args.top_k,
            "threshold": args.threshold,
            "trees_evaluated": rec.trees_evaluated,
            "candidates_seen": rec.candidates_seen,
            "truncated": rec.truncated,
            "timings": rec.timings,
            "wall": wall,
            "rows": [
                {
                    "rank": i,
                    "score": s.score,
                    "edit_distance": s.edit_distance,
                    "bindings": dict(zip(variables, s.binding_key)),
                    "edges": [
                        {
                            "pattern": e.pattern,
                            "weight": e.weight,
                            "f": e.f,
                            "in_graph": e.in_graph,
                            "fallback": e.fallback,
                        }
                        for e in s.per_edge
                    ],
                }
                for i, s in enumerate(rec.solutions, start=1)
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        header = ["rank", "score", "edit_distance"] + ["?" + v for v in variables]
        print("\t".join(header))
        for i, s in enumerate(rec.solutions, start=1):
            row = [str(i), f"{s.score:.10g}", str(s.edit_distance)]
            row += s.binding_key
            print("\t".join(row))
        t = rec.timings
        print(
            "timings[s]: parse={parse:.6f} plan={plan:.6f} evaluate={evaluate:.6f} "
            "score={score:.6f} rank={rank:.6f} wall={wall:.6f}".format(**t, wall=wall),
            file=sys.stderr,
        )
        if rec.truncated:
            print("warning: candidate enumeration was truncated", file=sys.stderr)
    return 0


def cmd_ask(args) -> int:
    g = _load_store(args.store)
    q = sparql.parse_query("\n".join(read_lines(args.query)))
    print("true" if sparql.ask(g, q) else "false")
    return 0


def cmd_stats(args) -> int:
    if args.top < 0:
        raise ValueError(f"--top must be at least 0, got {args.top}")
    g = _load_store(args.store)
    rid = None if args.relation is None else g.id(Term.iri(args.relation))  # before any output; '' is no IRI
    if args.relation is not None and rid is None:
        raise ValueError(f"relation not in graph: <{args.relation}>")
    rel_ids = g.stats.relations()
    index, _, _ = g.ranges()
    s, _, o = index.columns()
    print(f"triples: {g.triple_count}")
    print(f"terms: {g.term_count}")
    print(f"entities: {len(np.union1d(s, o))}")
    print(f"relations: {len(rel_ids)}")
    if rid is not None:
        print(f"<{args.relation}> freq={g.stats.freq(rid)} dom={g.stats.dom(rid)} ran={g.stats.ran(rid)}")
    else:
        by_freq = sorted(rel_ids, key=lambda r: (-g.stats.freq(r), g.term(r).lexical))
        for rid in by_freq[: args.top]:
            term = g.term(rid)
            print(f"  {term.nt()} freq={g.stats.freq(rid)} dom={g.stats.dom(rid)} ran={g.stats.ran(rid)}")
    return 0


def _reject_unread_options(args) -> None:
    """Fail on bench options the command line gave that no case would
    read: with ``--embeddings`` or ``--uniform-f`` no case trains, and
    with ``--uniform-f`` none reads the embeddings file either."""
    if args.uniform_f is not None:
        cause, skipped, unread = "--uniform-f", "trains or reads embeddings", args.given
    elif args.embeddings:
        cause = "--embeddings" if "--embeddings" in args.given else "TRQ_EMBEDDINGS"
        skipped, unread = "trains", [o for o in args.given if o != "--embeddings"]
    else:
        return
    if unread:
        raise ValueError(f"{', '.join(dict.fromkeys(unread))} would go unread: with {cause} no case {skipped}")


def cmd_bench(args) -> int:
    # a setting out of range is named before an option that would go unread
    validate_settings(args.threshold, None, args.per_tree_limit, args.uniform_f)
    _reject_unread_options(args)
    g = _load_store(args.store)
    cases = evalkit.load_cases(g, args.manifest)

    embeddings = embed_config = None
    if args.uniform_f is None:  # with it, no score reads an embedding
        if args.embeddings:
            embeddings = embedding.load_embeddings(args.embeddings)
        else:
            embed_config = _embed_config(args)
    report = evalkit.run_benchmark(
        g,
        cases,
        embed_config=embed_config,
        embeddings=embeddings,
        threshold=args.threshold,
        top_k=None,
        per_tree_limit=args.per_tree_limit,
        uniform_f=args.uniform_f,
    )

    if args.format == "json":
        payload = {
            "schema_version": 1,
            "cases": [
                {
                    "name": r.name,
                    "rr": r.rr,
                    "mr": r.mr,
                    "candidates": r.candidates,
                    "truth_size": r.truth_size,
                    "elapsed_s": r.elapsed,
                    "error": r.error,
                }
                for r in report.rows
            ],
            "aggregate": {
                "mean_rr": report.mean_rr,
                "mean_mr": report.mean_mr,
                "failures": report.failures,
                "train_s": report.train_s,
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        print("case\trr\tmr\tcandidates\ttruth\telapsed_s\tstatus")
        for r in report.rows:
            rr = "" if r.rr is None else f"{r.rr:.6g}"
            mr = "" if r.mr is None else f"{r.mr:.6g}"
            status = "ok" if r.error is None else r.error
            print(f"{r.name}\t{rr}\t{mr}\t{r.candidates}\t{r.truth_size}\t{r.elapsed:.3f}\t{status}")
        if report.mean_rr is not None:
            print(
                f"# mean_rr={report.mean_rr:.6g} mean_mr={report.mean_mr:.6g} "
                f"failures={report.failures} train_s={report.train_s:.3f}",
                file=sys.stderr,
            )
    return 1 if report.failures else 0


# -- argument wiring ---------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, which ``main`` prints as one
    ``error:`` line with exit status 1; subparsers share the class."""

    def error(self, message):
        raise ValueError(message)


class _Given(argparse.Action):
    """Store the option's value, or ``const`` for a flag, and add the
    option to ``given``: the ones the command line gave, not a default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)
        namespace.given = [*namespace.given, option_string]


def _add_train_options(p: argparse.ArgumentParser) -> None:
    d = embedding.EmbeddingConfig()
    p.set_defaults(given=[])
    add = functools.partial(p.add_argument, action=_Given)
    add("--model", default=_env("MODEL", str, d.model, embedding.MODELS), choices=embedding.MODELS)
    add("--dim", type=int, default=_env("DIM", int, d.dim))
    add("--rel-dim", type=int, default=_env("REL_DIM", int, d.rel_dim))
    add("--margin", type=float, default=_env("MARGIN", float, d.margin))
    add("--learning-rate", type=float, default=_env("LEARNING_RATE", float, d.learning_rate))
    add("--epochs", type=int, default=_env("EPOCHS", int, d.epochs))
    add("--batch-size", type=int, default=_env("BATCH_SIZE", int, d.batch_size))
    add("--negatives", type=int, default=_env("NEGATIVES", int, d.negatives_per_positive))
    add("--norm", default=_env("NORM", str, d.norm, embedding.NORMS), choices=embedding.NORMS)
    add("--seed", type=int, default=_env("SEED", int, d.seed))
    add("--include-type-triples", nargs=0, const=True,
        default=_env("INCLUDE_TYPE_TRIPLES", bool, d.include_type_triples))


def _add_query_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threshold", "-t", type=int, default=_env("THRESHOLD", int, DEFAULT_THRESHOLD))
    p.add_argument(
        "--per-tree-limit", type=int, default=_env("PER_TREE_LIMIT", int, DEFAULT_PER_TREE_LIMIT),
        help="rows kept per relaxation of the query (per subquery tree at a threshold of 3 or more); "
        "a relaxation that has more sets the truncated flag",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trq",
        description="Approximate SPARQL basic-graph-pattern answering over RDF graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse N-Triples into a TRQG snapshot")
    p.add_argument("input", help="N-Triples file, or - for stdin")
    p.add_argument("-o", "--output", required=True, help="snapshot path to write")
    p.add_argument("--lax", action="store_true", help="skip malformed lines instead of failing")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train embeddings from a snapshot")
    p.add_argument("--store", default=_env("STORE", str, None), help="TRQG snapshot")
    p.add_argument("-o", "--output", required=True, help="TRQE file to write")
    _add_train_options(p)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("plan", help="show a query's subquery trees")
    p.add_argument("query", help="query file, or - for stdin")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("query", help="rank approximate solutions for a query")
    p.add_argument("query", help="query file, or - for stdin")
    p.add_argument("--store", default=_env("STORE", str, None))
    p.add_argument("--embeddings", default=_env("EMBEDDINGS", str, None), help="TRQE file")
    p.add_argument("--top-k", "-k", type=int, default=_env("TOP_K", int, DEFAULT_TOP_K))
    _add_query_options(p)
    p.add_argument("--format", default=_env("FORMAT", str, "tsv", FORMATS), choices=FORMATS)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("ask", help="evaluate an ASK query exactly")
    p.add_argument("query", help="query file, or - for stdin")
    p.add_argument("--store", default=_env("STORE", str, None))
    p.set_defaults(func=cmd_ask)

    p = sub.add_parser("stats", help="show store statistics")
    p.add_argument("--store", default=_env("STORE", str, None))
    p.add_argument("--relation", help="show counts for one relation IRI")
    p.add_argument("--top", type=int, default=10, help="relations to list")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bench", help="run fact-deletion benchmark cases")
    p.add_argument("manifest", help="manifest file: query deletions [truth] per line")
    p.add_argument("--store", default=_env("STORE", str, None))
    p.add_argument("--embeddings", action=_Given, default=_env("EMBEDDINGS", str, None),
                   help="rank with this TRQE file instead of training one model for the run")
    _add_train_options(p)
    _add_query_options(p)
    p.add_argument("--uniform-f", type=float, default=None,
                   help="ablation: score every edge with this constant f")
    p.add_argument("--format", default=_env("FORMAT", str, "tsv", FORMATS), choices=FORMATS)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader closed stdout: what is left to flush at exit goes to
        # os.devnull, as Python's note on SIGPIPE advises
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, LookupError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
