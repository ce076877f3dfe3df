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

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .embedding import EmbeddingSet, UnembeddedTermError
from .sparql import Const, SolutionMapping, TriplePattern, Var
from .store import Graph
from .terms import TermId


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


def index_of(g: Graph, patterns: Sequence[TriplePattern]) -> float:
    """I(Q): the summed matching degree over all patterns."""
    return sum(delta(g, e) for e in patterns)


def edge_weights(g: Graph, patterns: Sequence[TriplePattern]) -> list[float]:
    total = index_of(g, patterns)
    return [total / delta(g, e) for e in patterns]


def weight(g: Graph, patterns: Sequence[TriplePattern], e: TriplePattern) -> float:
    """w(Q, e) = I(Q) / delta(e); e must be one of the query's patterns."""
    return index_of(g, patterns) / delta(g, e)


def score_graph(g: Graph, patterns: Sequence[TriplePattern]) -> float:
    """The maximum achievable score: the sum of all pattern weights."""
    return sum(edge_weights(g, patterns))


def instantiate_ids(
    g: Graph, e: TriplePattern, mapping: SolutionMapping
) -> tuple[TermId, TermId, TermId] | None:
    """Term ids of mu(e), or None when a constant is unknown to the graph."""
    out = []
    for atom in e.atoms():
        if isinstance(atom, Var):
            if atom.name not in mapping:
                raise KeyError(f"mapping does not bind ?{atom.name}")
            out.append(mapping[atom.name])
        else:
            tid = g.id(atom.term)
            if tid is None:
                return None
            out.append(tid)
    return tuple(out)


def edit_distance(g: Graph, patterns: Sequence[TriplePattern], mapping: SolutionMapping) -> int:
    """Number of patterns whose instantiation under the mapping is absent."""
    missing = 0
    for e in patterns:
        ids = instantiate_ids(g, e, mapping)
        if ids is None or not g.contains(*ids):
            missing += 1
    return missing


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


def score_solution(
    g: Graph,
    patterns: Sequence[TriplePattern],
    mapping: SolutionMapping,
    emb: EmbeddingSet,
    weights: Sequence[float] | None = None,
    uniform_f: float | None = None,
    in_graph: Sequence[bool] | None = None,
) -> ScoredSolution:
    """Score one total mapping against the full query.

    ``weights`` lets a caller reuse precomputed edge weights, and
    ``in_graph`` the per-pattern flags of whether mu(e) is in the graph
    (looked up here when not given). With ``uniform_f`` set, every edge
    contributes that constant instead of the embedding plausibility (the
    structure-only ablation baseline). An edge whose instantiation
    cannot be scored (a term without an embedding row or unknown to the
    graph) falls back to the floor 1 / (1 + margin) and is flagged.
    """
    if weights is None:
        weights = edge_weights(g, patterns)
    floor = 1.0 / (1.0 + emb.margin)
    per_edge: list[EdgeScore] = []
    missing = 0
    total = 0.0
    for i, e in enumerate(patterns):
        if in_graph is None:
            ids = instantiate_ids(g, e, mapping)
            present = ids is not None and g.contains(*ids)
        else:
            present = in_graph[i]
            ids = None if present or uniform_f is not None else instantiate_ids(g, e, mapping)
        if not present:
            missing += 1
        fallback = False
        if uniform_f is not None:
            f = uniform_f
        elif present:
            f = 1.0
        elif ids is None:
            f = floor
            fallback = True
        else:
            try:
                f = emb.normalize(g, *ids)
            except UnembeddedTermError:
                f = floor
                fallback = True
        total += weights[i] * f
        per_edge.append(EdgeScore(i, weights[i], f, present, fallback))
    key = tuple(g.term(mapping[v]).nt() for v in sorted(mapping))
    return ScoredSolution(dict(mapping), missing, total, tuple(per_edge), key)
