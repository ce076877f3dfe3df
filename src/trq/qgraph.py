"""Subquery tree enumeration over a query's pattern indices.

A query's patterns form a directed multigraph. Its nodes are the
distinct variables and constants in subject or object position, and
pattern i is edge i from its subject node to its object node; a
predicate, variable or not, is no node. Approximate matching works on
the spanning trees of the graph left by constant-leaf stripping: a
constant node of undirected degree 1 loses its edge, repeatedly, until
no such node is left. A self-loop adds 2 to its node's degree, a
variable is never stripped, and a constant left at degree 0 stays a
node. Each combination of |V|-1 remaining edges that closes no cycle is
a spanning tree; it is stripped again, and trees covering the same
multiset of patterns are kept once. A tree is the pattern indices it
covers and those it drops.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from .sparql import Atom, Const, Query, TriplePattern, Var

# Edges one query's stripped graph may keep. It bounds what
# MAX_COMBINATIONS does not: a cycle of n variables has only n
# combinations, but n relaxations at threshold 2, each ordered in O(n^2).
MAX_EDGES = 16
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
    def __init__(self, edges: int, choose: int, combinations: int):
        if edges > MAX_EDGES:
            detail = f"{edges} edges after constant-leaf removal, more than the cap of {MAX_EDGES}"
        else:
            detail = f"C({edges},{choose}) = {combinations} spanning-tree candidates"
        super().__init__(f"combinatorial budget exceeded: {detail}")
        self.edges = edges
        self.choose = choose
        self.combinations = combinations


@dataclass(frozen=True, slots=True)
class SubqueryTree:
    """A re-stripped spanning tree: the indices of the query patterns it
    covers and of those it dropped, each in ascending order."""

    covered: tuple[int, ...]
    dropped: tuple[int, ...]


def atom_label(atom: Atom) -> str:
    """A query atom as written: ``?name`` or the constant's N-Triples form."""
    if isinstance(atom, Var):
        return "?" + atom.name
    return atom.term.nt()


def _strip(edges: Sequence[int], ends: list[tuple[int, int]], is_const: list[bool]) -> tuple[Sequence[int], set[int]]:
    """Remove degree-1 constant nodes and their edge until none is left;
    returns the edges kept, in their given order, and the nodes removed."""
    stripped: set[int] = set()
    while True:
        degree = Counter(n for e in edges for n in ends[e])
        leaves = {n for n, d in degree.items() if d == 1 and is_const[n]}
        if not leaves:
            return edges, stripped
        stripped |= leaves
        edges = [e for e in edges if leaves.isdisjoint(ends[e])]


def _root(parent: list[int], n: int) -> int:
    while parent[n] != n:
        parent[n] = parent[parent[n]]
        n = parent[n]
    return n


def _unions(edges: Sequence[int], ends: list[tuple[int, int]], n_nodes: int) -> int:
    """How many of the edges, taken in order, join two nodes that no
    earlier edge connected (union-find over ``n_nodes`` nodes)."""
    parent = list(range(n_nodes))
    joined = 0
    for e in edges:
        a, b = (_root(parent, n) for n in ends[e])
        if a != b:
            parent[a] = b
            joined += 1
    return joined


def enumerate_subquery_trees(q: Query) -> list[SubqueryTree]:
    """All distinct re-stripped spanning trees of the stripped query graph.

    Raises NoVariableError when no subject or object of the query is a
    variable, DisconnectedQueryError when the stripped graph is
    disconnected and BudgetExceededError when the stripped graph keeps
    more than ``MAX_EDGES`` edges or the C(|E|, |V|-1) enumeration would
    exceed ``MAX_COMBINATIONS``. Trees come in ``itertools.combinations``
    order over the stripped edges, and every one keeps every variable of
    the query.
    """
    node: dict[Atom, int] = {}
    ends = [(node.setdefault(p.s, len(node)), node.setdefault(p.o, len(node))) for p in q.patterns]
    is_const = [isinstance(a, Const) for a in node]
    # stripping never removes a variable node
    if all(is_const):
        raise NoVariableError()
    edges, stripped = _strip(range(len(ends)), ends, is_const)
    # the edges left touch only the nodes left, |V| of them, which are
    # connected exactly when |V|-1 edges join two parts
    choose = len(node) - len(stripped) - 1
    if _unions(edges, ends, len(node)) < choose:
        raise DisconnectedQueryError("query graph is disconnected after constant-leaf removal")
    total = math.comb(len(edges), choose) if len(edges) >= choose else 0
    if len(edges) > MAX_EDGES or total > MAX_COMBINATIONS:
        raise BudgetExceededError(len(edges), choose, total)

    # equal patterns share the index of the first, so the sorted shared
    # indices of a tree's patterns are the multiset of patterns it covers
    first: dict[TriplePattern, int] = {}
    same = [first.setdefault(p, i) for i, p in enumerate(q.patterns)]
    trees: list[SubqueryTree] = []
    seen: set[tuple[int, ...]] = set()
    for combo in itertools.combinations(edges, choose):
        # |V|-1 edges span the |V| nodes exactly when none closes a cycle
        if _unions(combo, ends, len(node)) < choose:
            continue
        covered = tuple(_strip(combo, ends, is_const)[0])
        key = tuple(sorted(same[i] for i in covered))
        if key in seen:
            continue
        seen.add(key)
        trees.append(SubqueryTree(covered, tuple(i for i in range(len(ends)) if i not in covered)))
    return trees
