"""End-to-end approximate solution recommendation.

Pipeline: enumerate the query's subquery trees, evaluate each tree
exactly, pool the mappings (deduplicated across trees), keep those whose
edit distance against the full query stays under the threshold, score
them, and return the top K under a stable ranking: score descending,
then edit distance ascending, then the lexicographic binding tuple.
Exact solutions, when they exist, are guaranteed the top ranks.

The pooled mappings stay a table of term ids until scoring: the edit
distance is counted once, from per-pattern in-graph flags that are
looked up column-wise for each tree's dropped patterns. The rows under
the threshold are scored column-wise with those same flags (the sums
:func:`score_solution` makes, bit for bit), and only the top K of them
become dicts and ScoredSolutions, so a query with thousands of
near-solutions costs about what one with a handful does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .embedding import EmbeddingSet
from .qgraph import DEFAULT_MAX_EDGES, SubqueryTree, enumerate_subquery_trees
from .scoring import ScoredSolution, edge_weights, score_solution
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
    top_k: int = DEFAULT_TOP_K
    per_tree_limit: int = DEFAULT_PER_TREE_LIMIT
    max_edges: int = DEFAULT_MAX_EDGES
    uniform_f: float | None = None  # ablation hook: constant f for every edge

    def validate(self) -> None:
        if self.threshold < 1:
            raise ValueError("threshold must be at least 1")
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        if self.per_tree_limit < 1:
            raise ValueError("per_tree_limit must be at least 1")


@dataclass
class Recommendation:
    solutions: list[ScoredSolution]
    trees: list[SubqueryTree]
    candidates_seen: int
    trees_evaluated: int
    truncated: bool
    timings: dict[str, float] = field(default_factory=dict)


def rank(solutions: list[ScoredSolution], k: int) -> list[ScoredSolution]:
    """Stable top-k: score desc, edit distance asc, binding tuple asc."""
    ordered = sorted(solutions, key=lambda s: (-s.score, s.edit_distance, s.binding_key))
    return ordered[:k]


def _in_graph(
    g: Graph, resolved: list[list], tree: SubqueryTree, variables: tuple[str, ...], table: np.ndarray
) -> np.ndarray:
    """(rows x patterns) flags: is mu(e) in the graph, for each row of one
    tree's result. The tree's own patterns hold on its rows by
    construction, so only its dropped patterns are looked up, each with
    one vectorised membership test."""
    flags = np.ones((len(table), len(resolved)), dtype=bool)
    column = dict(zip(variables, table.T))
    for i in tree.dropped_origins:
        if None in resolved[i]:
            flags[:, i] = False
        else:
            ids = (column[x] if isinstance(x, str) else x for x in resolved[i])
            flags[:, i] = g.contains_rows(*(np.broadcast_to(x, len(table)) for x in ids))
    return flags


def _first_occurrences(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of every distinct row."""
    view = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    return np.sort(np.unique(view.ravel(), return_index=True)[1])


def _scores(
    g: Graph,
    req: RecommendRequest,
    resolved: list[list],
    weights: list[float],
    variables: tuple[str, ...],
    rows: np.ndarray,
    in_graph: np.ndarray,
) -> np.ndarray:
    """The score of every row, column-wise: the same sum, in the same
    order and with the same plausibilities, as :func:`score_solution`."""
    emb = req.embeddings
    floor = 1.0 / (1.0 + emb.margin)
    column = dict(zip(variables, rows.T))
    total = np.zeros(len(rows))
    for i, w in enumerate(weights):
        f = np.ones(len(rows)) if req.uniform_f is None else np.full(len(rows), req.uniform_f)
        missing = np.flatnonzero(~in_graph[:, i])
        if req.uniform_f is None and len(missing):
            if None in resolved[i]:
                f[missing] = floor
            else:
                ids = [column[x][missing] if isinstance(x, str) else x for x in resolved[i]]
                p = emb.normalize_rows(g, *(np.broadcast_to(x, len(missing)) for x in ids))
                f[missing] = np.where(np.isnan(p), floor, p)
        total = total + w * f
    return total


def _top(g: Graph, rows: np.ndarray, scores: np.ndarray, distance: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` best rows in :func:`rank` order (``k`` below
    the row count). Only rows that tie with or beat the k-th best score
    are ordered; their binding tuples are compared through the rank of
    each term's N-Triples form among the terms of those rows."""
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
    resolved = [
        [a.name if isinstance(a, Var) else g.id(a.term) for a in pat.atoms()] for pat in q.patterns
    ]
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
        flags.append(_in_graph(g, resolved, tree, variables, table))
    # candidates: distinct rows over all trees, the first tree's copy kept
    rows, in_graph = np.concatenate(tables), np.concatenate(flags)
    first = _first_occurrences(rows)
    kept = first[(~in_graph[first]).sum(axis=1) < req.threshold]
    t2 = time.perf_counter()

    weights = edge_weights(g, q.patterns)
    if len(kept) > req.top_k:
        # only the top_k rows become ScoredSolutions; the rest cannot rank
        scores = _scores(g, req, resolved, weights, variables, rows[kept], in_graph[kept])
        distance = (~in_graph[kept]).sum(axis=1)
        kept = kept[_top(g, rows[kept], scores, distance, req.top_k)]
    scored = [
        score_solution(
            g,
            q.patterns,
            dict(zip(variables, rows[r].tolist())),
            req.embeddings,
            weights=weights,
            uniform_f=req.uniform_f,
            in_graph=in_graph[r].tolist(),
        )
        for r in kept.tolist()
    ]
    t3 = time.perf_counter()
    top = rank(scored, req.top_k)
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
