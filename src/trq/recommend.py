"""End-to-end approximate solution recommendation.

Pipeline: enumerate the query's subquery trees, evaluate each tree
exactly, keep the mappings (deduplicated across trees) whose edit
distance against the full query stays under the threshold, score them,
and return the top K under a stable ranking: score descending, then edit
distance ascending, then the lexicographic binding tuple. Exact
solutions, when they exist, are guaranteed the top ranks.

The query's constants are resolved to term ids once, with
:func:`~trq.sparql.resolve_patterns`, and every step below reads those
ids. The mappings stay a table of term ids throughout. Each tree's rows
(distinct by construction, since every tree binds every variable) pass
a funnel in this order, one tree at a time:

1. *Look up.* A tree's own patterns hold on its rows; its dropped
   patterns are looked up column-wise, one vectorised lookup each
   (:func:`~trq.scoring.in_graph_flags`). Whether mu(e) is in the graph
   depends on the row alone, so a row gets the same flags from every
   tree that produces it.
2. *Dedupe.* A row repeats a row of an earlier tree exactly when its
   flags hold on every pattern that tree covers and, if that tree
   stopped at ``per_tree_limit``, the row is among the ones it kept
   (checked on just those rows). The first tree's copy is kept, and
   ``candidates_seen`` counts the rows that are not repeats.
3. *Threshold.* Of those, rows whose edit distance, the count of False
   flags, is under the threshold are kept. The distance is counted here,
   once per row, and kept beside the row's flags.
4. *Pool.* The kept rows of every tree are pooled in tree order.

Every kept row is scored once, column-wise, with those same flags; only
the top K rows become ScoredSolutions, built from the arrays already
computed, edit distances included. Terms are rendered only for ranking:
the N-Triples form of each term in the rows that tie with or beat the
K-th score is decoded once, orders the ties, and becomes the chosen
rows' binding keys.
Ranking every candidate (the deletion bench) takes the same path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .embedding import EmbeddingSet
from .qgraph import DEFAULT_MAX_EDGES, SubqueryTree, enumerate_subquery_trees
from .scoring import ScoredSolution, edge_weights, in_graph_flags, score_table, scored_solution
from .sparql import Query, evaluate_bgp, resolve_patterns
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
    embeddings: EmbeddingSet | None  # None only with uniform_f, which reads none
    threshold: int = DEFAULT_THRESHOLD
    top_k: int | None = DEFAULT_TOP_K  # None: every candidate
    per_tree_limit: int = DEFAULT_PER_TREE_LIMIT
    max_edges: int = DEFAULT_MAX_EDGES
    uniform_f: float | None = None  # ablation hook: constant f for every edge

    def validate(self) -> None:
        validate_settings(self.threshold, self.top_k, self.per_tree_limit, self.max_edges, self.uniform_f)
        if self.embeddings is None and self.uniform_f is None:
            raise ValueError("a request without embeddings needs uniform_f")


def validate_settings(
    threshold: int, top_k: int | None, per_tree_limit: int, max_edges: int, uniform_f: float | None
) -> None:
    """Raise ValueError for a :class:`RecommendRequest` setting out of range."""
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be at least 1")
    if per_tree_limit < 1:
        raise ValueError("per_tree_limit must be at least 1")
    if max_edges < 1:
        raise ValueError("max_edges must be at least 1")
    if uniform_f is not None and not (math.isfinite(uniform_f) and 0 < uniform_f <= 1):
        raise ValueError(f"uniform_f must be a finite number in (0, 1], got {uniform_f}")


@dataclass
class Recommendation:
    solutions: list[ScoredSolution]
    trees: list[SubqueryTree]
    candidates_seen: int
    truncated: bool
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def trees_evaluated(self) -> int:
        return len(self.trees)


def _repeated(
    table: np.ndarray, flags: np.ndarray, earlier: list[tuple[list[int], np.ndarray | None]]
) -> np.ndarray:
    """Mask of the rows of a tree that an earlier tree also produced.

    ``earlier`` holds each earlier tree's covered patterns and, when the
    tree stopped at its limit, its rows (None otherwise). An untruncated
    tree produced every mapping on which its covered patterns hold; a
    truncated one produced those of its rows only.
    """
    seen = np.zeros(len(table), dtype=bool)
    for covered, rows in earlier:
        hit = flags[:, covered].all(axis=1) & ~seen
        if rows is not None and hit.any():
            kept = set(map(tuple, rows.tolist()))
            at = np.flatnonzero(hit)
            hit[at] = [r in kept for r in map(tuple, table[at].tolist())]
        seen |= hit
    return seen


def _top(
    g: Graph, rows: np.ndarray, scores: np.ndarray, distance: np.ndarray, k: int
) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """Indices of the ``k`` best rows, ordered by score descending, then
    edit distance ascending, then binding tuple ascending, and each chosen
    row's binding tuple of N-Triples forms. Only rows that tie with or
    beat the k-th best score are ordered; their binding tuples are
    compared through the rank of each term's form among the terms of
    those rows, and each of those terms is decoded once."""
    if k == 0:
        return np.empty(0, dtype=np.int64), []
    kth = -np.partition(-scores, k - 1)[k - 1]
    picked = np.flatnonzero(scores >= kth)
    rows, scores, distance = rows[picked], scores[picked], distance[picked]
    ids, inverse = np.unique(rows, return_inverse=True)
    forms = [g.term(t).nt() for t in ids.tolist()]
    cells = inverse.reshape(rows.shape)
    order = np.empty(len(ids), dtype=np.int64)
    order[np.argsort(np.array(forms, dtype=object), kind="stable")] = np.arange(len(ids))
    lexical = order[cells]
    keys = [lexical[:, j] for j in reversed(range(rows.shape[1]))] + [distance, -scores]
    best = np.lexsort(keys)[:k]
    return picked[best], [tuple(forms[c] for c in row) for row in cells[best].tolist()]


def recommend(g: Graph, req: RecommendRequest, parse_seconds: float = 0.0) -> Recommendation:
    """Run the full recommendation pipeline over one graph.

    ``parse_seconds`` is folded into the timing report so a caller that
    parsed the query text can account for every phase in one place.
    ``plan`` times resolving the constants as well as enumerating the
    trees (on serve's queries, resolving is about half of it).
    """
    req.validate()
    q = req.query
    t0 = time.perf_counter()
    # constants resolved once per query; None marks one unknown to the graph
    resolved = resolve_patterns(g, q.patterns)
    if any(isinstance(p, str) for _, p, _ in resolved):
        raise VariablePredicateError(
            "query patterns with variable predicates cannot be scored; "
            "bind the predicate or drop the pattern"
        )
    trees = enumerate_subquery_trees(q, max_edges=req.max_edges)
    usable = [t for t in trees if t.covered]
    t1 = time.perf_counter()
    if not usable:
        raise QueryUnmatchableError(
            "query reduces to a single node; no subquery tree has a matchable edge"
        )

    # every tree binds every variable of the query, in name order
    variables = tuple(sorted(q.variables()))
    earlier: list[tuple[list[int], np.ndarray | None]] = []
    tables: list[np.ndarray] = []
    flags: list[np.ndarray] = []
    distances: list[np.ndarray] = []
    seen = 0
    truncated = False
    for tree in usable:
        covered = list(tree.covered)
        result = evaluate_bgp(g, [resolved[i] for i in covered], limit=req.per_tree_limit)
        truncated = truncated or result.truncated
        table = result.rows
        # a tree's own patterns hold on its rows; only its dropped ones are looked up
        in_graph = in_graph_flags(g, resolved, variables, table, tree.dropped)
        new = ~_repeated(table, in_graph, earlier)
        seen += int(np.count_nonzero(new))
        distance = (~in_graph).sum(axis=1)
        keep = new & (distance < req.threshold)
        tables.append(table[keep])
        flags.append(in_graph[keep])
        distances.append(distance[keep])
        earlier.append((covered, table if result.truncated else None))
    rows, in_graph, distance = np.concatenate(tables), np.concatenate(flags), np.concatenate(distances)
    t2 = time.perf_counter()

    weights = edge_weights(g, resolved)
    view = None if req.uniform_f is not None else req.embeddings.bind(g)
    scores, f, fallback = score_table(view, resolved, weights, variables, rows, in_graph, req.uniform_f)
    t3 = time.perf_counter()
    k = len(rows) if req.top_k is None else min(req.top_k, len(rows))
    chosen, keys = _top(g, rows, scores, distance, k)
    top = [
        scored_solution(
            dict(zip(variables, rows[r].tolist())), key, weights, in_graph[r], distance[r], f[r], fallback[r], scores[r]
        )
        for r, key in zip(chosen.tolist(), keys)
    ]
    t4 = time.perf_counter()

    return Recommendation(
        solutions=top,
        trees=usable,
        candidates_seen=seen,
        truncated=truncated,
        timings={
            "parse": parse_seconds,
            "plan": t1 - t0,
            "evaluate": t2 - t1,
            "score": t3 - t2,
            "rank": t4 - t3,
        },
    )
