"""Query multigraph construction and subquery tree enumeration.

A query's patterns form a directed multigraph: one node per distinct
variable or constant appearing in subject/object position, one edge per
pattern (labeled with its predicate atom and the pattern's position in
the query). Approximate matching works on spanning trees of the reduced
graph obtained by iteratively deleting degree-1 constant nodes: each
combination of |V|-1 edges that connects the reduced node set is kept,
re-stripped, and deduplicated by a canonical edge-label form.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .sparql import Atom, Const, Query, Var

DEFAULT_MAX_EDGES = 16
# Spanning-tree candidates C(|E|, |V|-1) one query may enumerate.
MAX_COMBINATIONS = 50_000


class DisconnectedQueryError(ValueError):
    pass


class NoVariableError(ValueError):
    """The query has no variable in subject or object position, so it has
    no solutions to rank; it can only be evaluated exactly."""

    def __init__(self):
        super().__init__(
            "query has no variable to rank in subject or object position; "
            "evaluate it exactly with `trq ask`"
        )


class BudgetExceededError(ValueError):
    def __init__(self, edges: int, choose: int, combinations: int, max_edges: int | None = None):
        if max_edges is None:
            detail = f"C({edges},{choose}) = {combinations} spanning-tree candidates"
        else:
            detail = f"{edges} edges after constant-leaf removal, more than max_edges = {max_edges}"
        super().__init__(f"combinatorial budget exceeded: {detail}")
        self.edges = edges
        self.choose = choose
        self.combinations = combinations


@dataclass(frozen=True, slots=True)
class QEdge:
    src: Atom
    dst: Atom
    pred: Atom
    origin: int


@dataclass(frozen=True)
class QueryGraph:
    nodes: tuple[Atom, ...]
    edges: tuple[QEdge, ...]

    def variables(self) -> set[str]:
        return {n.name for n in self.nodes if isinstance(n, Var)}

    def degrees(self) -> Counter:
        deg: Counter = Counter()
        for e in self.edges:
            deg[e.src] += 1
            deg[e.dst] += 1
        return deg


@dataclass(frozen=True)
class SubqueryTree:
    """A re-stripped spanning tree plus the query patterns it dropped."""

    graph: QueryGraph
    dropped_origins: frozenset[int]

    def covered_origins(self) -> tuple[int, ...]:
        return tuple(sorted(e.origin for e in self.graph.edges))


def atom_label(atom: Atom) -> str:
    """A query atom as written: ``?name`` or the constant's N-Triples form."""
    if isinstance(atom, Var):
        return "?" + atom.name
    return atom.term.nt()


def build_query_graph(q: Query) -> QueryGraph:
    """One node per distinct subject/object atom, one edge per pattern.

    Identical constants merge into a single node; variables are merged by
    name. Predicates stay on the edges (a variable predicate is allowed
    as an edge label).
    """
    nodes: list[Atom] = []
    seen: set[Atom] = set()
    edges: list[QEdge] = []
    for i, pat in enumerate(q.patterns):
        for endpoint in (pat.s, pat.o):
            if endpoint not in seen:
                seen.add(endpoint)
                nodes.append(endpoint)
        edges.append(QEdge(pat.s, pat.o, pat.p, i))
    return QueryGraph(tuple(nodes), tuple(edges))


def del_constant_leaf(g: QueryGraph) -> QueryGraph:
    """Iteratively remove degree-1 constant nodes and their incident edge.

    Degrees are taken on the undirected view; variable nodes are never
    removed, even when the deletions leave them isolated.
    """
    while True:
        deg = g.degrees()
        drop = {n for n in g.nodes if isinstance(n, Const) and deg[n] == 1}
        if not drop:
            return g
        g = QueryGraph(
            tuple(n for n in g.nodes if n not in drop),
            tuple(e for e in g.edges if e.src not in drop and e.dst not in drop),
        )


def is_connected(g: QueryGraph) -> bool:
    if len(g.nodes) <= 1:
        return True
    adj: dict[Atom, list[Atom]] = {n: [] for n in g.nodes}
    for e in g.edges:
        adj[e.src].append(e.dst)
        adj[e.dst].append(e.src)
    stack = [g.nodes[0]]
    seen = {g.nodes[0]}
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(g.nodes)


def canonical_form(g: QueryGraph) -> str:
    """Order-independent key: the sorted multiset of labeled edges.

    Variable names are global within a query, so no isomorphism search is
    needed. An edgeless graph falls back to its sorted node labels.
    """
    if not g.edges:
        return "nodes:" + ",".join(sorted(atom_label(n) for n in g.nodes))
    rows = sorted(f"{atom_label(e.src)}|{atom_label(e.pred)}|{atom_label(e.dst)}" for e in g.edges)
    return ";".join(rows)


def enumerate_subquery_trees(q: Query, max_edges: int = DEFAULT_MAX_EDGES) -> list[SubqueryTree]:
    """All distinct re-stripped spanning trees of the reduced query graph.

    Raises NoVariableError when no subject or object of the query is a
    variable, DisconnectedQueryError when the reduced graph is
    disconnected and BudgetExceededError when the C(|E|, |V|-1)
    enumeration would exceed ``MAX_COMBINATIONS``, naming the edge cap
    when it is what trips. Every returned tree preserves the full variable
    set of the query.
    """
    if max_edges < 1:
        raise ValueError("max_edges must be at least 1")
    reduced = del_constant_leaf(build_query_graph(q))
    # del_constant_leaf never strips a variable node
    if not reduced.variables():
        raise NoVariableError()
    if not is_connected(reduced):
        raise DisconnectedQueryError("query graph is disconnected after constant-leaf removal")
    n_edges = len(reduced.edges)
    choose = len(reduced.nodes) - 1
    total = math.comb(n_edges, choose) if n_edges >= choose else 0
    if n_edges > max_edges:
        raise BudgetExceededError(n_edges, choose, total, max_edges)
    if total > MAX_COMBINATIONS:
        raise BudgetExceededError(n_edges, choose, total)

    all_origins = frozenset(range(len(q.patterns)))
    trees: list[SubqueryTree] = []
    seen_keys: set[str] = set()
    for combo in itertools.combinations(range(n_edges), choose):
        sub = QueryGraph(reduced.nodes, tuple(reduced.edges[i] for i in combo))
        if not is_connected(sub):
            continue
        final = del_constant_leaf(sub)
        key = canonical_form(final)
        if key in seen_keys:
            continue
        seen_keys.add(key)
        covered = {e.origin for e in final.edges}
        trees.append(SubqueryTree(final, all_origins - covered))
    return trees
