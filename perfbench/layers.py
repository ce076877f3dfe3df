"""The traced call sites of trq and the per-layer metrics derived from them.

Span names are ``<module>.<function>``; the module part is the layer.
Each target is wrapped where its caller looks it up, so a function
imported by name into another module is wrapped in that module too
(``trq.evalkit.train`` as well as ``trq.embedding.train``).
"""

from __future__ import annotations

from collections import defaultdict

from tracer import Target

LAYERS = ("ntriples", "store", "embedding", "sparql", "qgraph", "scoring", "recommend", "evalkit")


def _on_evaluate(tr, args, result, seconds):
    n = len(result.mappings)
    tr.counts["sparql.mappings"] += n
    tr.counts["sparql.truncated_trees"] += int(result.truncated)
    if tr.current() == "recommend.recommend":
        tr.counts["recommend.mappings"] += n


def _on_plan(tr, args, result, seconds):
    tr.counts["qgraph.trees"] += len(result)


def _on_score(tr, args, result, seconds):
    tr.counts["scoring.scored"] += 1
    tr.counts["scoring.missing_edges"] += sum(not e.in_graph for e in result.per_edge)
    tr.counts["scoring.fallback_edges"] += sum(e.fallback for e in result.per_edge)


def _on_recommend(tr, args, result, seconds):
    tr.counts["recommend.candidates"] += result.candidates_seen
    tr.counts["recommend.phase_gap_s"] += seconds - sum(result.timings.values())


def _on_train(tr, args, result, seconds):
    tr.counts["embedding.epochs"] += args[1].epochs
    tr.counts["embedding.final_loss_sum"] += result.losses[-1]


def _on_grads(tr, args, result, seconds):
    tr.counts["embedding.pairs"] += len(args[7])


def targets() -> list[Target]:
    T = Target
    return [
        T("ntriples.parse_line", "trq.store", "parse_line"),
        T("store.parse_ntriples", "trq.store", "parse_ntriples"),
        T("store.builder_add", "trq.store", "GraphBuilder.add"),
        T("store.graph_init", "trq.store", "Graph.__init__"),
        T("store.save_snapshot", "trq.store", "save_snapshot"),
        T("store.load_snapshot", "trq.store", "load_snapshot"),
        T("embedding.train", "trq.embedding", "train", _on_train),
        T("embedding.train", "trq.evalkit", "train", _on_train),
        T("embedding.grad", "trq.embedding", "margin_loss_and_grads", _on_grads),
        T("embedding.bind", "trq.embedding", "EmbeddingSet.bind"),
        T("embedding.normalize", "trq.embedding", "EmbeddingSet.normalize"),
        T("embedding.type_vector", "trq.embedding", "EmbeddingSet.type_vector"),
        T("embedding.load", "trq.embedding", "load_embeddings"),
        T("embedding.save", "trq.embedding", "save_embeddings"),
        T("sparql.parse", "trq.sparql", "parse_query"),
        T("sparql.evaluate", "trq.recommend", "evaluate_bgp", _on_evaluate),
        T("sparql.evaluate", "trq.evalkit", "evaluate_bgp", _on_evaluate),
        T("qgraph.plan", "trq.recommend", "enumerate_subquery_trees", _on_plan),
        T("scoring.edge_weights", "trq.recommend", "edge_weights"),
        T("scoring.edit_distance", "trq.recommend", "edit_distance"),
        T("scoring.instantiate_ids", "trq.scoring", "instantiate_ids"),
        T("scoring.score", "trq.recommend", "score_solution", _on_score),
        T("recommend.recommend", "trq.recommend", "recommend", _on_recommend),
        T("recommend.recommend", "trq.evalkit", "recommend", _on_recommend),
        T("recommend.rank", "trq.recommend", "rank"),
        T("evalkit.corrupt", "trq.evalkit", "corrupt_graph"),
        T("evalkit.exact", "trq.evalkit", "exact_solutions"),
        T("evalkit.run_benchmark", "trq.evalkit", "run_benchmark"),
    ]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(summary: dict, counts: dict, extra: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from merged span summaries and counts.

    ``summary`` maps span name to calls, incl_s and self_s; ``extra`` holds
    the values measured outside the spans (memory, overhead, wall time).
    """

    def row(name):
        return summary.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    def own(name):
        return row(name)["self_s"], "s"

    def calls(name):
        return float(row(name)["calls"]), "count"

    train_s = row("embedding.train")["incl_s"]
    candidates = counts.get("recommend.candidates", 0.0)
    m = {
        "ntriples.parse_line_s": own("ntriples.parse_line"),
        "ntriples.lines": calls("ntriples.parse_line"),
        "store.parse_ntriples_s": own("store.parse_ntriples"),
        "store.builder_add_s": own("store.builder_add"),
        "store.graph_init_s": own("store.graph_init"),
        "store.save_snapshot_s": own("store.save_snapshot"),
        "store.load_snapshot_s": own("store.load_snapshot"),
        "store.bytes_per_triple": (extra["bytes_per_triple"], "B"),
        "store.snapshot_bytes_per_triple": (extra["snapshot_bytes_per_triple"], "B"),
        "embedding.train_epoch_s": (_ratio(train_s, counts.get("embedding.epochs", 0.0)), "s"),
        "embedding.grad_s": own("embedding.grad"),
        "embedding.sampler_update_s": own("embedding.train"),
        "embedding.pairs_per_s": (_ratio(counts.get("embedding.pairs", 0.0), train_s), "1/s"),
        "embedding.final_loss": (
            _ratio(counts.get("embedding.final_loss_sum", 0.0), row("embedding.train")["calls"]),
            "loss",
        ),
        "embedding.load_s": own("embedding.load"),
        "embedding.save_s": own("embedding.save"),
        "embedding.bind_s": own("embedding.bind"),
        "embedding.bind_calls": calls("embedding.bind"),
        "embedding.normalize_s": own("embedding.normalize"),
        "embedding.normalize_calls": calls("embedding.normalize"),
        "embedding.type_vector_s": own("embedding.type_vector"),
        "sparql.parse_s": own("sparql.parse"),
        "qgraph.plan_s": own("qgraph.plan"),
        "qgraph.trees": (counts.get("qgraph.trees", 0.0), "count"),
        "sparql.evaluate_s": own("sparql.evaluate"),
        "sparql.mappings": (counts.get("sparql.mappings", 0.0), "count"),
        "sparql.truncated_trees": (counts.get("sparql.truncated_trees", 0.0), "count"),
        "sparql.mappings_per_s": (
            _ratio(counts.get("sparql.mappings", 0.0), row("sparql.evaluate")["incl_s"]),
            "1/s",
        ),
        "scoring.edge_weights_s": own("scoring.edge_weights"),
        "scoring.edit_distance_s": own("scoring.edit_distance"),
        "scoring.edit_distance_calls": calls("scoring.edit_distance"),
        "scoring.instantiate_ids_s": own("scoring.instantiate_ids"),
        "scoring.score_s": own("scoring.score"),
        "scoring.scored": (counts.get("scoring.scored", 0.0), "count"),
        "scoring.kept_ratio": (_ratio(counts.get("scoring.scored", 0.0), candidates), "ratio"),
        "scoring.missing_edges": (counts.get("scoring.missing_edges", 0.0), "count"),
        "scoring.fallback_edges": (counts.get("scoring.fallback_edges", 0.0), "count"),
        "recommend.candidates": (candidates, "count"),
        "recommend.dedupe_ratio": (_ratio(candidates, counts.get("recommend.mappings", 0.0)), "ratio"),
        "recommend.rank_s": own("recommend.rank"),
        "recommend.self_s": own("recommend.recommend"),
        "recommend.phase_gap_s": (counts.get("recommend.phase_gap_s", 0.0), "s"),
        "evalkit.corrupt_s": own("evalkit.corrupt"),
        "evalkit.exact_s": own("evalkit.exact"),
    }
    by_layer: dict[str, float] = defaultdict(float)
    for name, r in summary.items():
        by_layer[name.split(".", 1)[0]] += r["self_s"]
    for layer in LAYERS + ("bench",):
        m[f"layer.{layer}_s"] = (by_layer.get(layer, 0.0), "s")
    wall = extra["traced_wall_s"]
    traced_layers = sum(by_layer.get(layer, 0.0) for layer in LAYERS)
    m.update(
        {
            "trace.wall_s": (wall, "s"),
            "trace.untraced_wall_s": (extra["untraced_wall_s"], "s"),
            "trace.overhead_s": (wall - extra["untraced_wall_s"], "s"),
            "trace.overhead_ratio": (_ratio(wall, extra["untraced_wall_s"]) - 1.0, "ratio"),
            "trace.layer_share": (_ratio(traced_layers, wall), "ratio"),
            "trace.unaccounted_s": (wall - sum(by_layer.values()), "s"),
            "trace.spans": (float(extra["spans"]), "count"),
            "trace.absent_targets": (float(len(extra["absent"])), "count"),
        }
    )
    return m
