"""Importance weights and candidate-solution scores.

Each pattern e gets a matching-degree estimate delta(e) from the graph's
relation statistics:

* (?x, r, ?y)  ->  (|dom(r)| + |ran(r)|) / 2
* (?x, r, c)   ->  distinct subjects with (s, r, c)
* (c, r, ?y)   ->  distinct objects with (c, r, o)
* (c1, r, c2)  ->  1

clamped below at 1. The query's index is I(Q) = sum of deltas, a
pattern's weight is w(Q, e) = I(Q) / delta(e) (selective patterns weigh
more), and a candidate mapping scores sum over e of w(Q, e) * f(mu(e))
where f is the normalized embedding plausibility. Weights always come
from the full query, also for candidates produced by a subquery tree, so
scores of different candidates are comparable. An exact solution scores
exactly score_graph(Q) = sum of weights, the maximum.

Everything here reads patterns as :func:`~trq.sparql.resolve_patterns`
tuples, whose constants are term ids already; only
:func:`score_graph` takes the parsed patterns and resolves them itself.
No term is decoded here: a solution's binding key comes from the ranking,
which renders each printed term once.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .embedding import BoundEmbeddings
from .sparql import ResolvedPattern, SolutionMapping, TriplePattern, resolve_patterns
from .store import Graph


def delta(g: Graph, e: ResolvedPattern) -> float:
    """Estimated matching degree of one resolved pattern; always >= 1."""
    s, p, o = e
    if isinstance(p, str):
        raise ValueError("patterns with a variable predicate have no matching degree")
    if None in e:  # a constant the graph does not hold
        return 1.0
    if isinstance(s, str) and isinstance(o, str):
        value = (g.stats.dom(p) + g.stats.ran(p)) / 2.0
    elif isinstance(s, str):
        value = float(g.stats.dom_at(p, o))
    elif isinstance(o, str):
        value = float(g.stats.ran_at(s, p))
    else:
        return 1.0
    return max(1.0, value)


def edge_weights(g: Graph, resolved: Sequence[ResolvedPattern]) -> list[float]:
    deltas = [delta(g, e) for e in resolved]
    total = sum(deltas)
    return [total / d for d in deltas]


def score_graph(g: Graph, patterns: Sequence[TriplePattern]) -> float:
    """The maximum achievable score: the sum of all pattern weights."""
    return sum(edge_weights(g, resolve_patterns(g, patterns)))


@dataclass(frozen=True, slots=True)
class EdgeScore:
    pattern: int
    weight: float
    f: float
    in_graph: bool
    fallback: bool = False


@dataclass(frozen=True)
class ScoredSolution:
    mapping: SolutionMapping
    edit_distance: int
    score: float
    per_edge: tuple[EdgeScore, ...]
    binding_key: tuple[str, ...]  # N-Triples forms in sorted-variable order


def _ids(atoms: ResolvedPattern, column: dict[str, np.ndarray], rows: np.ndarray) -> list[np.ndarray]:
    """The id columns of mu(e) on the selected rows of a binding table."""
    return [column[x][rows] if isinstance(x, str) else np.full(len(rows), x, dtype=np.int64) for x in atoms]


def in_graph_flags(
    g: Graph, resolved: Sequence[ResolvedPattern], variables: Sequence[str], rows: np.ndarray, looked_up: Iterable[int]
) -> np.ndarray:
    """(rows x patterns) flags of whether mu(e) is in the graph, for a
    binding table whose columns are ``variables``. Only the ``looked_up``
    patterns are tested, one vectorised lookup each, with the constants
    as scalars so the lookup searches only their block; the rest read
    True."""
    flags = np.ones((len(rows), len(resolved)), dtype=bool)
    column = dict(zip(variables, rows.T))
    for i in looked_up:
        if None in resolved[i]:
            flags[:, i] = False
        else:
            flags[:, i] = g.contains_rows(*(column[x] if isinstance(x, str) else x for x in resolved[i]))
    return flags


def score_table(
    view: BoundEmbeddings | None,
    resolved: Sequence[ResolvedPattern],
    weights: Sequence[float],
    variables: Sequence[str],
    rows: np.ndarray,
    in_graph: np.ndarray,
    uniform_f: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row scores, and per-row, per-pattern f and fallback flags, of a
    binding table with the flags of :func:`in_graph_flags`.

    f is 1 for an edge in the graph and 1 / (1 + extended score) for a
    missing one, or the floor 1 / (1 + margin) when a constant is unknown
    or a term has no embedding row; ``uniform_f`` replaces f everywhere
    (the structure-only ablation baseline) and reads no embedding, so
    ``view`` may then be None. Scores sum weight * f left to right, so an
    exact solution scores exactly :func:`score_graph`.
    """
    column = dict(zip(variables, rows.T))
    f = np.ones((len(rows), len(resolved)))
    fallback = np.zeros(f.shape, dtype=bool)
    total = np.zeros(len(rows))
    for i, atoms in enumerate(resolved):
        missing = np.flatnonzero(~in_graph[:, i])
        if uniform_f is not None:
            f[:, i] = uniform_f
        elif None in atoms:
            fallback[missing, i] = True
        elif len(missing):
            values, scored = view.score_rows(*_ids(atoms, column, missing))
            f[missing, i] = 1.0 / (1.0 + values)
            fallback[missing[~scored], i] = True
        if fallback[:, i].any():
            f[fallback[:, i], i] = 1.0 / (1.0 + view.embeddings.margin)
        total = total + weights[i] * f[:, i]
    return total, f, fallback


def scored_solution(
    mapping: SolutionMapping,
    binding_key: tuple[str, ...],
    weights: Sequence[float],
    in_graph: np.ndarray,
    edit_distance: int,
    f: np.ndarray,
    fallback: np.ndarray,
    score: float,
) -> ScoredSolution:
    """One row of :func:`score_table` as a ScoredSolution; ``edit_distance``
    is the row's count of False ``in_graph`` flags."""
    present, f, fallback = in_graph.tolist(), f.tolist(), fallback.tolist()
    per_edge = tuple(EdgeScore(i, weights[i], f[i], present[i], fallback[i]) for i in range(len(present)))
    return ScoredSolution(dict(mapping), int(edit_distance), float(score), per_edge, binding_key)
