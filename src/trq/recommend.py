"""End-to-end approximate solution recommendation.

Pipeline: find the mappings whose edit distance against the query, the
number of its patterns they miss, stays under the threshold, score them,
and return the top K under a stable ranking: score descending, then edit
distance ascending, then the lexicographic binding tuple. Exact
solutions, when they exist, are guaranteed the top ranks.

The candidates are those the query's subquery trees give: a mapping
whose miss set (the patterns mu(e) not in the graph) has fewer than
``threshold`` patterns and lies inside the patterns one tree drops.
They are found through the query's *relaxations* Q - M, the query
without the patterns of a set M (:func:`relaxations`). At threshold 1
or 2 the sets M are the distinct sets of ``threshold - 1`` patterns that
one tree drops: a candidate's miss set lies inside some M, and every
solution of Q - M is a candidate. At 3 or more each tree's dropped
patterns are one set M. Q - M holds every pattern of a tree, so it
binds every variable and its rows are distinct.

The query's constants are resolved to term ids once, with
:func:`~trq.sparql.resolve_patterns`, and every step below reads those
ids. The mappings stay a table of term ids throughout. Each relaxation
passes a funnel in this order, one relaxation at a time, in a fixed
order:

1. *Evaluate.* Q - M is evaluated once, with at most ``per_tree_limit``
   rows, from the longest prefix of the query's greedy join that avoids
   M and holds at most ``JOIN_CHUNK`` rows
   (:class:`~trq.sparql.JoinPrefixes`).
2. *Look up.* The patterns of Q - M hold on its rows; only M's patterns
   are looked up, one vectorised lookup each
   (:func:`~trq.scoring.in_graph_flags`). A row's edit distance is the
   count of its False flags, so below ``threshold`` by construction
   unless M holds ``threshold`` patterns or more (a whole tree's), and
   then its rows at or over it are dropped.
3. *Dedupe.* A row is kept under the first relaxation whose M holds
   its miss set. A row repeats one of an earlier relaxation exactly when
   its flags hold on every pattern of its M that the earlier one keeps
   and, if that one stopped at ``per_tree_limit``, the row is among its
   rows. The flags are checked once per distinct set of such patterns
   over the untruncated earlier relaxations (at threshold 2 or less,
   one set), and a truncated one's rows are looked up only for rows no
   such check has hit. So no table of seen rows is kept, and exact rows
   come from the first relaxation alone.
4. *Pool.* The kept rows of every relaxation are pooled in relaxation
   order; ``candidates_seen`` counts them.

Every kept row is scored once, column-wise, with those same flags;
:func:`candidate_table` returns that scored table. :func:`recommend`
ranks it, and only the top K rows become ScoredSolutions, built from the
arrays already computed, edit distances included. Terms are rendered
only for ranking: the N-Triples form of each term in the rows that tie
with or beat the K-th score is decoded once, orders the ties, and
becomes the chosen rows' binding keys.

The deletion bench needs no ranked list, only where its truth rows land
among every candidate: :func:`position` reads one row's place in the
full ranking off the table's arrays, decoding only the terms of the rows
tied with it on score and edit distance.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .embedding import EmbeddingSet
from .qgraph import SubqueryTree, enumerate_subquery_trees
from .scoring import ScoredSolution, edge_weights, in_graph_flags, score_table, scored_solution
from .sparql import JoinPrefixes, Query, resolve_patterns
from .store import Graph

DEFAULT_THRESHOLD = 2
DEFAULT_TOP_K = 10
DEFAULT_PER_TREE_LIMIT = 10_000
# The largest threshold at which the trees are split into relaxations;
# above it each tree's dropped patterns are one relaxation (see relaxations).
MAX_SPLIT_THRESHOLD = 2


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
    uniform_f: float | None = None  # ablation hook: constant f for every edge

    def validate(self) -> None:
        validate_settings(self.threshold, self.top_k, self.per_tree_limit, self.uniform_f)
        if self.embeddings is None and self.uniform_f is None:
            raise ValueError("a request without embeddings needs uniform_f")


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
class CandidateTable:
    """A request's scored candidates, in pool order and unranked.

    ``rows`` holds one row of term ids per candidate, a column per name
    of ``variables`` (name order). ``in_graph``, ``f`` and ``fallback``
    are (rows x patterns) arrays of :func:`~trq.scoring.in_graph_flags`
    and :func:`~trq.scoring.score_table`; ``distance`` (the count of each
    row's False flags) and ``scores`` hold a value per row, ``weights`` one
    per pattern. ``timings`` holds the parse, plan, evaluate and score
    phases.
    """

    variables: tuple[str, ...]
    rows: np.ndarray
    in_graph: np.ndarray
    distance: np.ndarray
    scores: np.ndarray
    f: np.ndarray
    fallback: np.ndarray
    weights: list[float]
    relaxations: list[tuple[int, ...]]
    truncated: bool
    timings: dict[str, float] = field(default_factory=dict)


@dataclass
class Recommendation:
    solutions: list[ScoredSolution]
    relaxations: list[tuple[int, ...]]
    candidates_seen: int
    truncated: bool
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def trees_evaluated(self) -> int:
        """The relaxations evaluated (the JSON output's name for them)."""
        return len(self.relaxations)


def relaxations(trees: Sequence[SubqueryTree], threshold: int) -> list[tuple[int, ...]]:
    """The sets M of patterns, each in ascending index order, whose
    relaxations Q - M give the candidates, in the order they are
    evaluated.

    At threshold 1 or 2 they are the distinct sets of ``threshold - 1``
    patterns that one tree drops (or, for a tree that drops none, the
    empty set), in order of first appearance over the trees; no one of
    them holds another. At threshold 3 or more they are the trees'
    dropped patterns, tree by tree: there, splitting a tree into its
    sets of ``threshold - 1`` patterns repeats most of its rows in each
    of them and costs more join steps (see the README).
    """
    if threshold > MAX_SPLIT_THRESHOLD:
        return [t.dropped for t in trees]
    sets = (itertools.combinations(t.dropped, threshold - 1) if t.dropped else [()] for t in trees)
    return list(dict.fromkeys(itertools.chain.from_iterable(sets)))


def _repeated(
    table: np.ndarray,
    flags: np.ndarray,
    dropped: tuple[int, ...],
    earlier: list[tuple[tuple[int, ...], np.ndarray | None]],
) -> np.ndarray:
    """Mask of the rows of the relaxation without ``dropped`` that an
    earlier relaxation also produced.

    ``earlier`` holds each earlier relaxation's dropped patterns and, when
    it stopped at its limit, its rows (None otherwise). A row misses only
    patterns of ``dropped``. An untruncated relaxation produced every
    mapping whose misses lie inside its dropped patterns; a truncated one
    produced those of its rows only. A row's misses lie inside another
    relaxation's dropped patterns when its flags hold on the patterns of
    ``dropped`` that the other keeps, so the untruncated relaxations give
    one mask for each distinct set of those patterns (at threshold 2 or
    less, one set), and a truncated one's rows are looked up only for
    rows that no mask has hit.
    """
    seen = np.zeros(len(table), dtype=bool)
    for kept in {tuple(i for i in dropped if i not in other) for other, rows in earlier if rows is None}:
        seen |= flags[:, list(kept)].all(axis=1)
    for other, rows in earlier:
        if rows is None:
            continue
        hit = flags[:, [i for i in dropped if i not in other]].all(axis=1) & ~seen
        if hit.any():
            produced = set(map(tuple, rows.tolist()))
            at = np.flatnonzero(hit)
            hit[at] = [r in produced for r in map(tuple, table[at].tolist())]
        seen |= hit
    return seen


def _lexical(g: Graph, rows: np.ndarray) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The N-Triples form of each distinct term of ``rows``, each decoded
    once, with each cell's index into them and each cell's rank among
    them: two rows' binding tuples compare as their rows of ranks do."""
    ids, inverse = np.unique(rows, return_inverse=True)
    forms = [g.term(t).nt() for t in ids.tolist()]
    cells = inverse.reshape(rows.shape)
    order = np.empty(len(ids), dtype=np.int64)
    order[np.argsort(np.array(forms, dtype=object), kind="stable")] = np.arange(len(ids))
    return forms, cells, order[cells]


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
    forms, cells, lexical = _lexical(g, rows)
    keys = [lexical[:, j] for j in reversed(range(rows.shape[1]))] + [distance, -scores]
    best = np.lexsort(keys)[:k]
    return picked[best], [tuple(forms[c] for c in row) for row in cells[best].tolist()]


def position(g: Graph, rows: np.ndarray, scores: np.ndarray, distance: np.ndarray, row: Sequence[int]) -> int | None:
    """The 1-based place of the id row ``row`` in the ranking of all of
    ``rows`` under :func:`_top`'s order, or None when it is no row of
    them. The rows that beat it on score, or tie on score and beat it on
    edit distance, are counted; only those that tie on both have their
    terms decoded, and they are compared by binding tuple."""
    row = np.asarray(row, dtype=np.int64)
    if row.shape != rows.shape[1:]:
        return None
    hit = np.flatnonzero((rows == row).all(axis=1))
    if not len(hit):
        return None
    score, dist = scores[hit[0]], distance[hit[0]]
    ahead = np.count_nonzero(scores > score) + np.count_nonzero((scores == score) & (distance < dist))
    tied = np.flatnonzero((scores == score) & (distance == dist))
    _, _, lexical = _lexical(g, rows[tied])
    key = lexical[np.searchsorted(tied, hit[0])]
    before, same = np.zeros(len(tied), dtype=bool), np.ones(len(tied), dtype=bool)
    for column, value in zip(lexical.T, key):
        before |= same & (column < value)
        same &= column == value
    return int(ahead + np.count_nonzero(before)) + 1


def candidate_table(g: Graph, req: RecommendRequest, parse_seconds: float = 0.0) -> CandidateTable:
    """Find and score every candidate of a request over one graph (steps
    1-4 of the module doc, then scoring), with no ranking.

    ``parse_seconds`` is folded into the timing report so a caller that
    parsed the query text can account for every phase in one place.
    ``plan`` times resolving the constants as well as enumerating the
    trees and their relaxations (on serve's queries, resolving is about
    half of it).
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
    trees = enumerate_subquery_trees(q)
    usable = [t for t in trees if t.covered]
    relaxed = relaxations(usable, req.threshold)
    t1 = time.perf_counter()
    if not usable:
        raise QueryUnmatchableError(
            "query reduces to a single node; no subquery tree has a matchable edge"
        )

    # every relaxation binds every variable of the query, in name order
    variables = tuple(sorted(q.variables()))
    joined = JoinPrefixes(g, resolved)
    earlier: list[tuple[tuple[int, ...], np.ndarray | None]] = []
    tables: list[np.ndarray] = []
    flags: list[np.ndarray] = []
    truncated = False
    for dropped in relaxed:
        result = joined.without(dropped, limit=req.per_tree_limit)
        truncated = truncated or result.truncated
        table = result.rows
        # the patterns of Q - M hold on its rows; only M's are looked up
        in_graph = in_graph_flags(g, resolved, variables, table, dropped)
        keep = ~_repeated(table, in_graph, dropped, earlier)
        if len(dropped) >= req.threshold:  # a row may miss every pattern of M
            keep &= (~in_graph).sum(axis=1) < req.threshold
        tables.append(table[keep])
        flags.append(in_graph[keep])
        earlier.append((dropped, table if result.truncated else None))
    rows, in_graph = np.concatenate(tables), np.concatenate(flags)
    distance = (~in_graph).sum(axis=1)
    t2 = time.perf_counter()

    weights = edge_weights(g, resolved)
    view = None if req.uniform_f is not None else req.embeddings.bind(g)
    scores, f, fallback = score_table(view, resolved, weights, variables, rows, in_graph, req.uniform_f)
    t3 = time.perf_counter()
    return CandidateTable(
        variables=variables,
        rows=rows,
        in_graph=in_graph,
        distance=distance,
        scores=scores,
        f=f,
        fallback=fallback,
        weights=weights,
        relaxations=relaxed,
        truncated=truncated,
        timings={"parse": parse_seconds, "plan": t1 - t0, "evaluate": t2 - t1, "score": t3 - t2},
    )


def recommend(g: Graph, req: RecommendRequest, parse_seconds: float = 0.0) -> Recommendation:
    """Run the full recommendation pipeline over one graph: the request's
    :func:`candidate_table` (which takes ``parse_seconds`` into its
    timings), ranked, with its top K rendered (see the module doc)."""
    table = candidate_table(g, req, parse_seconds)
    t3 = time.perf_counter()
    rows, distance, scores = table.rows, table.distance, table.scores
    k = len(rows) if req.top_k is None else min(req.top_k, len(rows))
    chosen, keys = _top(g, rows, scores, distance, k)
    top = [
        scored_solution(
            dict(zip(table.variables, rows[r].tolist())),
            key,
            table.weights,
            table.in_graph[r],
            distance[r],
            table.f[r],
            table.fallback[r],
            scores[r],
        )
        for r, key in zip(chosen.tolist(), keys)
    ]
    t4 = time.perf_counter()

    return Recommendation(
        solutions=top,
        relaxations=table.relaxations,
        candidates_seen=len(rows),
        truncated=table.truncated,
        timings={**table.timings, "rank": t4 - t3},
    )
