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
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .embedding import BoundEmbeddings
from .sparql import SolutionMapping, TriplePattern, Var
from .store import Graph


class EdgeForm(Enum):
    VAR_VAR = "var_var"
    VAR_CONST = "var_const"
    CONST_VAR = "const_var"
    CONST_CONST = "const_const"
    VAR_PREDICATE = "var_predicate"


def classify(e: TriplePattern) -> EdgeForm:
    if isinstance(e.p, Var):
        return EdgeForm.VAR_PREDICATE
    if isinstance(e.s, Var):
        return EdgeForm.VAR_VAR if isinstance(e.o, Var) else EdgeForm.VAR_CONST
    return EdgeForm.CONST_VAR if isinstance(e.o, Var) else EdgeForm.CONST_CONST


def delta(g: Graph, e: TriplePattern) -> float:
    """Estimated matching degree of one pattern; always >= 1."""
    form = classify(e)
    if form is EdgeForm.VAR_PREDICATE:
        raise ValueError("patterns with a variable predicate have no matching degree")
    if form is EdgeForm.CONST_CONST:
        return 1.0
    rid = g.id(e.p.term)
    if rid is None:
        return 1.0
    if form is EdgeForm.VAR_VAR:
        value = (g.stats.dom(rid) + g.stats.ran(rid)) / 2.0
    elif form is EdgeForm.VAR_CONST:
        cid = g.id(e.o.term)
        value = 0.0 if cid is None else float(g.stats.dom_at(rid, cid))
    else:
        cid = g.id(e.s.term)
        value = 0.0 if cid is None else float(g.stats.ran_at(cid, rid))
    return max(1.0, value)


def edge_weights(g: Graph, patterns: Sequence[TriplePattern]) -> list[float]:
    deltas = [delta(g, e) for e in patterns]
    total = sum(deltas)
    return [total / d for d in deltas]


def score_graph(g: Graph, patterns: Sequence[TriplePattern]) -> float:
    """The maximum achievable score: the sum of all pattern weights."""
    return sum(edge_weights(g, patterns))


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
    binding_key: tuple[str, ...]  # lexical forms in sorted-variable order


def resolve_patterns(g: Graph, patterns: Sequence[TriplePattern]) -> list[list]:
    """Each pattern's atoms as a variable's name, a constant's term id, or
    None for a constant unknown to the graph."""
    return [[a.name if isinstance(a, Var) else g.id(a.term) for a in pat.atoms()] for pat in patterns]


def _ids(atoms: list, column: dict[str, np.ndarray], rows: np.ndarray) -> list[np.ndarray]:
    """The id columns of mu(e) on the selected rows of a binding table."""
    return [column[x][rows] if isinstance(x, str) else np.full(len(rows), x, dtype=np.int64) for x in atoms]


def in_graph_flags(
    g: Graph, resolved: list[list], variables: Sequence[str], rows: np.ndarray, looked_up: Iterable[int]
) -> np.ndarray:
    """(rows x patterns) flags of whether mu(e) is in the graph, for a
    binding table whose columns are ``variables``. Only the ``looked_up``
    patterns are tested, one vectorised lookup each; the rest read True."""
    flags = np.ones((len(rows), len(resolved)), dtype=bool)
    column = dict(zip(variables, rows.T))
    for i in looked_up:
        if None in resolved[i]:
            flags[:, i] = False
        else:
            flags[:, i] = g.contains_rows(*_ids(resolved[i], column, np.arange(len(rows))))
    return flags


def score_table(
    view: BoundEmbeddings,
    resolved: list[list],
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
    (the structure-only ablation baseline). Scores sum weight * f left to
    right, so an exact solution scores exactly :func:`score_graph`.
    """
    floor = 1.0 / (1.0 + view.embeddings.margin)
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
        f[fallback[:, i], i] = floor
        total = total + weights[i] * f[:, i]
    return total, f, fallback


def scored_solution(
    g: Graph,
    mapping: SolutionMapping,
    weights: Sequence[float],
    in_graph: np.ndarray,
    f: np.ndarray,
    fallback: np.ndarray,
    score: float,
) -> ScoredSolution:
    """One row of :func:`score_table` as a ScoredSolution."""
    present, f, fallback = in_graph.tolist(), f.tolist(), fallback.tolist()
    per_edge = tuple(EdgeScore(i, weights[i], f[i], present[i], fallback[i]) for i in range(len(present)))
    key = tuple(g.term(mapping[v]).nt() for v in sorted(mapping))
    return ScoredSolution(dict(mapping), present.count(False), float(score), per_edge, key)
