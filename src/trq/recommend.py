"""End-to-end approximate solution recommendation.

Pipeline: enumerate the query's subquery trees, evaluate each tree
exactly, pool the mappings (deduplicated across trees), keep those whose
edit distance against the full query stays under the threshold, score
them, and return the top K under a stable ranking: score descending,
then edit distance ascending, then the lexicographic binding tuple.
Exact solutions, when they exist, are guaranteed the top ranks.

The pooled mappings stay a table of term ids throughout, and each
candidate passes a funnel in this order:

1. *Look up.* A tree's own patterns hold on its rows; its dropped
   patterns are looked up column-wise, one vectorised lookup each
   (:func:`~trq.scoring.in_graph_flags`). Whether mu(e) is in the graph
   depends on the row alone, so a row gets the same flags from every
   tree that produces it.
2. *Dedupe.* The rows of all trees are pooled and the first copy of each
   distinct row is kept, compared on one packed int64 key per row when
   its ids fit; ``candidates_seen`` counts these rows.
3. *Threshold.* Rows whose edit distance, the count of False flags, is
   under the threshold are kept.

Every kept row is scored once, column-wise, with those same flags; only
the top K rows become ScoredSolutions, built from the arrays already
computed. Ranking every candidate (the deletion bench) takes the same
path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .embedding import EmbeddingSet
from .qgraph import DEFAULT_MAX_EDGES, SubqueryTree, enumerate_subquery_trees
from .scoring import (
    ScoredSolution,
    edge_weights,
    in_graph_flags,
    resolve_patterns,
    score_table,
    scored_solution,
)
from .sparql import Query, QueryForm, Var, evaluate_bgp
from .store import Graph

DEFAULT_THRESHOLD = 2
DEFAULT_TOP_K = 10
DEFAULT_PER_TREE_LIMIT = 10_000


class QueryUnmatchableError(ValueError):
    """Every subquery tree is degenerate (no edges left to match)."""


class VariablePredicateError(ValueError):
    """Patterns with variable predicates cannot be scored."""


@dataclass
class RecommendRequest:
    query: Query
    embeddings: EmbeddingSet
    threshold: int = DEFAULT_THRESHOLD
    top_k: int | None = DEFAULT_TOP_K  # None: every candidate
    per_tree_limit: int = DEFAULT_PER_TREE_LIMIT
    max_edges: int = DEFAULT_MAX_EDGES
    uniform_f: float | None = None  # ablation hook: constant f for every edge

    def validate(self) -> None:
        validate_settings(self.threshold, self.top_k, self.per_tree_limit, self.uniform_f)


def validate_settings(threshold: int, top_k: int | None, per_tree_limit: int, uniform_f: float | None) -> None:
    """Raise ValueError for a :class:`RecommendRequest` setting out of range."""
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be at least 1")
    if per_tree_limit < 1:
        raise ValueError("per_tree_limit must be at least 1")
    if uniform_f is not None and not (math.isfinite(uniform_f) and 0 < uniform_f <= 1):
        raise ValueError(f"uniform_f must be a finite number in (0, 1], got {uniform_f}")


@dataclass
class Recommendation:
    solutions: list[ScoredSolution]
    trees: list[SubqueryTree]
    candidates_seen: int
    trees_evaluated: int
    truncated: bool
    timings: dict[str, float] = field(default_factory=dict)


def _first_occurrences(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of every distinct row of
    non-negative term ids.

    When a row's ids fit one int64 (``width * bits <= 63``, ``bits`` the
    length of the largest id), each row is packed into one key, the keys
    are sorted once, and each run of equal keys gives its least index;
    wider rows are compared as raw bytes.
    """
    if len(rows) == 0:
        return np.empty(0, dtype=np.intp)
    width, bits = rows.shape[1], int(rows.max()).bit_length()
    if width * bits > 63:
        view = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * width)))
        return np.sort(np.unique(view.ravel(), return_index=True)[1])
    keys = np.zeros(len(rows), dtype=np.int64)
    for j in range(width):
        keys = (keys << bits) | rows[:, j]
    order = keys.argsort()
    ordered = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    return np.sort(np.minimum.reduceat(order, starts))


def _top(g: Graph, rows: np.ndarray, scores: np.ndarray, distance: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` best rows, ordered by score descending, then
    edit distance ascending, then binding tuple ascending. Only rows that
    tie with or beat the k-th best score are ordered; their binding
    tuples are compared through the rank of each term's N-Triples form
    among the terms of those rows."""
    if k == 0:
        return np.empty(0, dtype=np.int64)
    kth = -np.partition(-scores, k - 1)[k - 1]
    picked = np.flatnonzero(scores >= kth)
    rows, scores, distance = rows[picked], scores[picked], distance[picked]
    ids, inverse = np.unique(rows, return_inverse=True)
    forms = np.array([g.term(t).nt() for t in ids.tolist()], dtype=object)
    order = np.empty(len(ids), dtype=np.int64)
    order[np.argsort(forms, kind="stable")] = np.arange(len(ids))
    lexical = order[inverse.reshape(rows.shape)]
    keys = [lexical[:, j] for j in reversed(range(rows.shape[1]))] + [distance, -scores]
    return picked[np.lexsort(keys)[:k]]


def recommend(g: Graph, req: RecommendRequest, parse_seconds: float = 0.0) -> Recommendation:
    """Run the full recommendation pipeline over one graph.

    ``parse_seconds`` is folded into the timing report so a caller that
    parsed the query text can account for every phase in one place.
    """
    req.validate()
    q = req.query
    for pat in q.patterns:
        if isinstance(pat.p, Var):
            raise VariablePredicateError(
                "query patterns with variable predicates cannot be scored; "
                "bind the predicate or drop the pattern"
            )

    t0 = time.perf_counter()
    trees = enumerate_subquery_trees(q, max_edges=req.max_edges)
    usable = [t for t in trees if t.graph.edges]
    t1 = time.perf_counter()
    if not usable:
        raise QueryUnmatchableError(
            "query reduces to a single node; no subquery tree has a matchable edge"
        )

    # constants resolved once per query; None marks one unknown to the graph
    resolved = resolve_patterns(g, q.patterns)
    # every tree binds every variable of the query
    variables = tuple(sorted(q.variables()))
    tables: list[np.ndarray] = []
    flags: list[np.ndarray] = []
    truncated = False
    for tree in usable:
        covered = tree.covered_origins()
        sub = Query(QueryForm.SELECT, tuple(q.patterns[i] for i in covered), variables, True, q.prefixes)
        result = evaluate_bgp(g, sub, limit=req.per_tree_limit)
        truncated = truncated or result.truncated
        table = np.stack([result.column(v) for v in variables], axis=1)
        tables.append(table)
        # a tree's own patterns hold on its rows; only its dropped ones are looked up
        flags.append(in_graph_flags(g, resolved, variables, table, tree.dropped_origins))
    # candidates: distinct rows over all trees, the first tree's copy kept
    rows, in_graph = np.concatenate(tables), np.concatenate(flags)
    first = _first_occurrences(rows)
    kept = first[(~in_graph[first]).sum(axis=1) < req.threshold]
    rows, in_graph = rows[kept], in_graph[kept]
    t2 = time.perf_counter()

    weights = edge_weights(g, q.patterns)
    view = req.embeddings.bind(g)
    scores, f, fallback = score_table(view, resolved, weights, variables, rows, in_graph, req.uniform_f)
    t3 = time.perf_counter()
    k = len(rows) if req.top_k is None else min(req.top_k, len(rows))
    chosen = _top(g, rows, scores, (~in_graph).sum(axis=1), k)
    top = [
        scored_solution(
            g, dict(zip(variables, rows[r].tolist())), weights, in_graph[r], f[r], fallback[r], scores[r]
        )
        for r in chosen.tolist()
    ]
    t4 = time.perf_counter()

    return Recommendation(
        solutions=top,
        trees=usable,
        candidates_seen=len(first),
        trees_evaluated=len(usable),
        truncated=truncated,
        timings={
            "parse": parse_seconds,
            "plan": t1 - t0,
            "evaluate": t2 - t1,
            "score": t3 - t2,
            "rank": t4 - t3,
        },
    )
