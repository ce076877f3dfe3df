"""Shared builders, fixtures, and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import re
import struct
import time
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

import trq.sparql as sparql_mod
from trq import (
    BoundEmbeddings,
    EmbeddingConfig,
    Graph,
    Query,
    QueryForm,
    Term,
    TermKind,
    Triple,
    TriplePattern,
    parse_ntriples,
    train,
)
from trq.binio import term_key
from trq.embedding import TRANSE, TRANSH, EmbeddingSet, _norm_values, _pair_grads, _Workspace
from trq.evalkit import BenchReport, BenchRow, corrupt_graph, exact_solutions, mean_rank, reciprocal_rank
from trq.ntriples import NTriplesError, _parse_blank, _skip_ws, parse_line
from trq.qgraph import (
    MAX_COMBINATIONS,
    MAX_EDGES,
    BudgetExceededError,
    DisconnectedQueryError,
    NoVariableError,
    atom_label,
    enumerate_subquery_trees,
)
from trq.recommend import (
    DEFAULT_PER_TREE_LIMIT,
    DEFAULT_THRESHOLD,
    QueryUnmatchableError,
    RecommendRequest,
    VariablePredicateError,
    _top,
    recommend,
    validate_settings,
)
from trq.scoring import EdgeScore, ScoredSolution, edge_weights, in_graph_flags, score_table, scored_solution
from trq.sparql import Atom, Const, Var, _cardinality_estimate, _names, evaluate_bgp, resolve_patterns
from trq.store import first_appearance

EX = "http://example.org/"
RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


def ex(name: str) -> Term:
    return Term.iri(EX + name)


def _term(x) -> Term:
    if isinstance(x, Term):
        return x
    if x == "type":
        return Term.iri(RDF_TYPE_IRI)
    return ex(x)


def nt_text(rows) -> str:
    return "".join(f"{_term(s).nt()} {_term(p).nt()} {_term(o).nt()} .\n" for s, p, o in rows)


def build_graph(rows) -> Graph:
    return parse_ntriples(nt_text(rows))


def keys_of(terms) -> list[bytes]:
    """The table entries of ``terms``, as Graph and EmbeddingSet take them."""
    return [term_key(t) for t in terms]


def graph_of(terms, triples) -> Graph:
    """The graph of ``terms`` (in id order) and id ``triples``."""
    return Graph(keys_of(terms), triples)


def atom(x):
    if isinstance(x, (Var, Const)):
        return x
    if isinstance(x, str) and x.startswith("?"):
        return Var(x[1:])
    return Const(_term(x))


def pattern(s, p, o) -> TriplePattern:
    return TriplePattern(atom(s), atom(p), atom(o))


def make_query(patterns, projected=None) -> Query:
    pats = tuple(patterns)
    if projected is None:
        seen = set()
        for p in pats:
            seen |= p.variables()
        projected = tuple(sorted(seen))
    return Query(QueryForm.SELECT, pats, tuple(projected))


def match_triples(g: Graph, s=None, p=None, o=None) -> list[Triple]:
    """The triples matching a pattern of ids (None is a wildcard), in the
    order of the index range ``Graph.ranges`` gives for it; an id outside
    the graph matches nothing."""
    if any(x is not None and not 0 <= x < g.term_count for x in (s, p, o)):
        return []
    index, lo, hi = g.ranges(s, p, o)
    return [Triple(*t) for t in zip(*(col.tolist() for col in index.columns(slice(lo, hi))))]


def reference_ranges(g: Graph, s=None, p=None, o=None):
    """``Graph.ranges`` before run tables: every array of patterns is
    searched in its block, in the sorted order of its range starts."""
    index, k, c, (b0, b1) = g._locate(s, p, o)
    if c == k:
        return index, b0, b1
    lo_key = g._starts(index, k, s, p, o)
    keys = index.keys[b0:b1]
    flat = lo_key.ravel()
    order = flat.argsort()
    probe = flat[order]
    lo = np.empty(len(flat), dtype=np.intp)
    hi = np.empty(len(flat), dtype=np.intp)
    lo[order] = keys.searchsorted(probe)
    hi[order] = keys.searchsorted(probe + (np.int64(1) << (index.bits * (3 - k))))
    return index, b0 + lo.reshape(lo_key.shape), b0 + hi.reshape(lo_key.shape)


# -- brute-force oracles -----------------------------------------------


def _matches(g: Graph, pat: TriplePattern, mapping) -> bool:
    ids = []
    for a in pat.atoms():
        if isinstance(a, Var):
            ids.append(mapping[a.name])
        else:
            tid = g.id(a.term)
            if tid is None:
                return False
            ids.append(tid)
    return g.contains(*ids)


def brute_solutions(g: Graph, patterns) -> set[tuple]:
    """Exhaustive-assignment evaluation: every total assignment of the
    query variables to dictionary terms that satisfies all patterns.
    Returns frozen mappings as sorted (name, id) tuples."""
    names = sorted(set().union(*[p.variables() for p in patterns]))
    out = set()
    universe = range(g.term_count)
    for combo in itertools.product(universe, repeat=len(names)):
        mapping = dict(zip(names, combo))
        if all(_matches(g, p, mapping) for p in patterns):
            out.add(tuple(sorted(mapping.items())))
    return out


def brute_candidates(g: Graph, patterns, threshold: int) -> dict[tuple, int]:
    """All total assignments with edit distance below the threshold,
    mapping the frozen assignment to its edit distance."""
    names = sorted(set().union(*[p.variables() for p in patterns]))
    out: dict[tuple, int] = {}
    universe = range(g.term_count)
    for combo in itertools.product(universe, repeat=len(names)):
        mapping = dict(zip(names, combo))
        missing = sum(0 if _matches(g, p, mapping) else 1 for p in patterns)
        if missing < threshold:
            out[tuple(sorted(mapping.items()))] = missing
    return out


def reference_evaluate_bgp(g: Graph, resolved, limit: int | None = None):
    """The scalar depth-first evaluator that the columnar join replaced.

    Walks the resolved patterns (``resolve_patterns`` tuples) in the
    greedy order of :func:`reference_greedy` from no bound variable, one
    :func:`match_triples` scan per binding, copying the binding dict at
    every step. Returns (mappings, truncated) under the same limit rule
    as ``evaluate_bgp``, each mapping keyed in name order; a constant
    unknown to the graph (None) matches nothing.
    """
    if any(None in pat for pat in resolved):
        return [], False
    order = [resolved[i] for i, _ in reference_greedy(g, resolved, set())]

    def resolve(atom, binding):
        if not isinstance(atom, str):
            return atom, None
        if atom in binding:
            return binding[atom], None
        return None, atom

    def walk(idx, binding):
        if idx == len(order):
            yield {name: binding[name] for name in sorted(binding)}
            return
        sid, sname = resolve(order[idx][0], binding)
        pid, pname = resolve(order[idx][1], binding)
        oid, oname = resolve(order[idx][2], binding)
        for tr in match_triples(g, sid, pid, oid):
            new = dict(binding)
            ok = True
            for name, value in ((sname, tr.s), (pname, tr.p), (oname, tr.o)):
                if name is None:
                    continue
                if name in new and new[name] != value:
                    ok = False
                    break
                new[name] = value
            if ok:
                yield from walk(idx + 1, new)

    gen = walk(0, {})
    out = []
    truncated = False
    for m in gen:
        out.append(m)
        if limit is not None and len(out) >= limit:
            truncated = next(gen, None) is not None
            break
    return out, truncated


# -- the windowed join and the greedy loop that whole-table steps
# replaced ---------------------------------------------------------------


def reference_greedy(g: Graph, patterns, bound: set[str]) -> list[tuple[int, bool]]:
    """``trq.sparql._greedy`` as it was written before, with a dict of
    opening flags on every pick: the indices of ``patterns`` in greedy
    join order from the variables ``bound``, each with whether it opens
    a new variable-disjoint part."""
    names = [_names(pat) for pat in patterns]
    bound = set(bound)
    # a pattern's estimate changes only when one of its variables is bound
    estimate = {i: _cardinality_estimate(g, pat, bound) for i, pat in enumerate(patterns)}
    out: list[tuple[int, bool]] = []
    while estimate:
        opens = {i: bool(names[i]) and not names[i] & bound for i in estimate}
        best = min(estimate, key=lambda i: (bool(bound) and opens[i], estimate[i], i))
        del estimate[best]
        out.append((best, opens[best]))
        fresh = names[best] - bound
        bound |= fresh
        for i in estimate:
            if names[i] & fresh:
                estimate[i] = _cardinality_estimate(g, patterns[i], bound)
    return out


def reference_expand(g: Graph, step, table: np.ndarray):
    """``trq.sparql._expand`` as every join step ran it: the rows of
    ``table`` extended by the step's matches, in windows of at most
    ``trq.sparql.JOIN_CHUNK`` rows (read when called), each window's
    parents found by one search of the run ends."""
    if not len(table) or ("const", None) in step:
        return
    bound = [None, None, None]
    for pos, (kind, j) in enumerate(step):
        if kind == "const":
            bound[pos] = j
        elif kind == "col":
            bound[pos] = table[:, j]
    index, lo, hi = g.ranges(*bound)
    if np.ndim(lo) == 0:  # no column bound: one range serves every row
        lo = np.full(len(table), lo)
        hi = np.full(len(table), hi)
    counts = hi - lo
    ends = np.cumsum(counts)
    # output row k of parent i reads index key k + shift[i]
    shift = lo - (ends - counts)
    total = int(ends[-1])
    width = table.shape[1] + sum(kind == "new" for kind, _ in step)
    p0 = 0  # the window's first parent
    for k0 in range(0, total, sparql_mod.JOIN_CHUNK):
        k1 = min(total, k0 + sparql_mod.JOIN_CHUNK)
        p1 = int(ends.searchsorted(k1 - 1, side="right")) + 1
        # each parent's rows in [k0, k1): the first and last are clipped
        clipped = counts[p0:p1].copy()
        clipped[0] -= k0 - (ends[p0] - counts[p0])
        clipped[-1] -= ends[p1 - 1] - k1
        parent = np.repeat(np.arange(p0, p1), clipped)
        spo = index.columns(np.arange(k0, k1) + shift[parent])
        p0 = p1 - 1
        child = np.empty((k1 - k0, width), dtype=np.int64)
        child[:, : table.shape[1]] = table[parent]
        keep = None
        for pos, (kind, j) in enumerate(step):
            if kind == "new":
                child[:, j] = spo[pos]
            elif kind == "same":
                same = child[:, j] == spo[pos]
                keep = same if keep is None else keep & same
        yield child if keep is None else child[keep]


def reference_join(g: Graph, steps, table: np.ndarray, i: int = 0):
    """``trq.sparql._join`` over :func:`reference_expand`: non-empty
    solution tables in the order of a depth-first walk over the steps."""
    if i == len(steps):
        yield table
        return
    for child in reference_expand(g, steps[i], table):
        if len(child):
            yield from reference_join(g, steps, child, i + 1)


def reference_first_rows(g: Graph, steps, table: np.ndarray, width: int, cap: int | None) -> np.ndarray:
    """``trq.sparql._first_rows`` as the windowed depth-first walk alone
    gave it: the first ``cap`` rows of the join of ``steps`` from
    ``table``, or all of them when ``cap`` is None."""
    chunks: list[np.ndarray] = []
    kept = 0
    for chunk in reference_join(g, steps, table):
        if cap is not None and kept + len(chunk) >= cap:
            chunks.append(chunk[: cap - kept])
            break
        chunks.append(chunk)
        kept += len(chunk)
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks) if chunks else np.empty((0, width), dtype=np.int64)


class NoEmbeddingRow(LookupError):
    """A term the reference scorers need has no embedding row."""


def _embedding_row(table: np.ndarray, tid: int) -> int:
    row = int(table[tid]) if 0 <= tid < len(table) else -1
    if row < 0:
        raise NoEmbeddingRow(tid)
    return row


def _entity_vec(view: BoundEmbeddings, tid: int) -> np.ndarray:
    return view.embeddings.entity_vecs[_embedding_row(view.ent_row, tid)].astype(np.float64)


def reference_score_triple(view: BoundEmbeddings, h: int, r: int, t: int) -> float:
    """The scalar three-branch model score that the batched kernel replaced;
    raises NoEmbeddingRow where ``score_rows`` leaves a row unscored."""
    emb = view.embeddings
    hv = _entity_vec(view, h)
    tv = _entity_vec(view, t)
    row = _embedding_row(view.rel_row, r)
    rv = emb.relation_vecs[row].astype(np.float64)
    if emb.model == TRANSE:
        d = hv + rv - tv
    elif emb.model == TRANSH:
        w = emb.normals[row].astype(np.float64)
        d = (hv - (w @ hv) * w) + rv - (tv - (w @ tv) * w)
    else:
        m = emb.maps[row].astype(np.float64)
        d = m @ hv + rv - m @ tv
    return float(_norm_values(d[None, :], emb.norm)[0])


# -- term tables before they were kept as entry bytes, verbatim -----------
#
# The reader that decoded every entry into a Term, and the alignment that
# looked a graph's Terms up in Term-keyed indexes. The entry-keyed reader
# and bind must agree with them: the same terms, the same first fault,
# the same rows.

_TERM_HEADER = struct.Struct("<BI")
TERM_HEADER_SIZE = _TERM_HEADER.size
_KINDS = tuple(TermKind)


def parent_read_terms(data: bytes, pos: int, count: int, error: type[Exception]) -> tuple[list[Term], int]:
    """``count`` terms starting at byte ``pos``, and the offset after them."""
    terms: list[Term] = []
    append = terms.append
    unpack = _TERM_HEADER.unpack_from
    kinds = _KINDS
    end = len(data)
    for _ in range(count):
        if pos + TERM_HEADER_SIZE > end:
            raise error("truncated term table")
        kind, length = unpack(data, pos)
        pos += TERM_HEADER_SIZE
        if kind >= len(kinds):
            raise error(f"unknown term kind {kind}")
        if pos + length > end:
            raise error("truncated term table")
        try:
            lexical = data[pos : pos + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"term {len(terms)} is not valid UTF-8") from exc
        append(Term(kinds[kind], lexical))
        pos += length
    return terms, pos


class TermKeyedIndexes:
    """The Term-keyed row indexes an EmbeddingSet used to build."""

    def __init__(self, emb: EmbeddingSet):
        self.entity_index = dict(zip(emb.entity_terms, range(len(emb.entity_terms))))
        self.relation_index = dict(zip(emb.relation_terms, range(len(emb.relation_terms))))


def parent_align(emb, g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The entity and the relation row of every term id of ``g`` (-1 = none)."""
    terms = list(g.terms())
    return tuple(
        np.fromiter(map(index.get, terms, itertools.repeat(-1)), dtype=np.int64, count=len(terms))
        for index in (emb.entity_index, emb.relation_index)
    )


# -- the training step before its workspace, verbatim --------------------
#
# The kernel, gradient and step as they were before the step moved into a
# preallocated workspace with one fused scatter. The workspace step must
# reproduce them bit for bit: same parameters, same losses.


def parent_norm_grads(d: np.ndarray, norm: str, values: np.ndarray) -> np.ndarray:
    if norm == "l1":
        return np.sign(d)
    return d / np.maximum(values, 1e-12)[:, None]


def parent_batch_scores(model, norm, ent, rel, normals, maps, h, r, t):
    """Scores g(h, r, t) for row-index arrays, plus the tensors gradients
    need: the one evaluation of the models, at float64, for training and
    query-time scoring alike."""
    he = ent[h].astype(np.float64, copy=False)
    te = ent[t].astype(np.float64, copy=False)
    rv = rel[r].astype(np.float64, copy=False)
    if model == TRANSE:
        d = he + rv - te
        cache = {}
    elif model == TRANSH:
        w = normals[r].astype(np.float64, copy=False)
        hw = (he * w).sum(axis=1)
        tw = (te * w).sum(axis=1)
        d = (he - hw[:, None] * w) + rv - (te - tw[:, None] * w)
        cache = {"w": w}
    else:
        m = maps[r].astype(np.float64, copy=False)
        d = np.einsum("bij,bj->bi", m, he) + rv - np.einsum("bij,bj->bi", m, te)
        cache = {"m": m}
    values = _norm_values(d, norm)
    cache.update(h=h, r=r, t=t, he=he, te=te, d=d, values=values)
    return values, cache


def parent_scatter(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sums of the rows of ``values`` into ``n`` rows by ``index``, in input
    order: one ``np.bincount`` over the flattened (row, column) positions."""
    shape = values.shape[1:]
    width = math.prod(shape)
    flat = (index[:, None] * width + np.arange(width)).ravel()
    # bincount of no positions is an int array, whatever the weights
    sums = np.bincount(flat, weights=values.ravel(), minlength=n * width).astype(np.float64, copy=False)
    return sums.reshape((n, *shape))


def parent_pair_grads(model, norm, margin, ent, rel, normals, maps, pos, neg):
    """Mean margin loss of explicit pairs and its exact gradients.

    Returns (loss, rows, grads): ``rows`` are the distinct entity rows
    the gradient touches, ``grads['entities']`` their gradient rows in
    that order, and 'relations', 'normals' (transh) and 'maps' (transr)
    are dense. Pairs within the margin add nothing.
    """
    n = len(pos)
    both = np.concatenate([pos, neg])
    values, cache = parent_batch_scores(model, norm, ent, rel, normals, maps, both[:, 0], both[:, 1], both[:, 2])
    hinge = margin + values[:n] - values[n:]
    active = np.flatnonzero(np.tile(hinge > 0, 2))
    coef = np.where(active < n, 1.0 / n, -1.0 / n)
    h, r, t = (cache[x][active] for x in "hrt")
    u = parent_norm_grads(cache["d"][active], norm, cache["values"][active]) * coef[:, None]
    grads = {"relations": parent_scatter(r, u, len(rel))}
    if model == TRANSE:
        du = u
    elif model == TRANSH:
        w = cache["w"][active]
        a = cache["te"][active] - cache["he"][active]
        uw = (u * w).sum(axis=1)
        du = u - uw[:, None] * w
        grads["normals"] = parent_scatter(r, uw[:, None] * a + (w * a).sum(axis=1)[:, None] * u, len(normals))
    else:
        du = np.einsum("bij,bi->bj", cache["m"][active], u)
        dm = u[:, :, None] * (cache["he"][active] - cache["te"][active])[:, None, :]
        grads["maps"] = parent_scatter(r, dm, len(maps))
    rows, inverse = np.unique(np.concatenate([h, t]), return_inverse=True)
    grads["entities"] = parent_scatter(inverse, np.concatenate([du, -du]), len(rows))
    return float(np.maximum(hinge, 0.0).mean()), rows, grads


def parent_train_step(model, norm, margin, learning_rate, ent, rel, normals, maps, pos, neg) -> float:
    """One SGD step on a batch of pairs, in place; returns its mean loss.

    Only the entity rows the gradient touches change, and only they are
    projected back into the unit ball. Relations, normals (renormalized
    to unit length) and maps have one row per relation and are updated
    whole.
    """
    loss, rows, grads = parent_pair_grads(model, norm, margin, ent, rel, normals, maps, pos, neg)
    sub = ent[rows] - learning_rate * grads["entities"]
    norms = np.linalg.norm(sub, axis=1, keepdims=True)
    np.divide(sub, norms, out=sub, where=norms > 1.0)
    ent[rows] = sub
    rel -= learning_rate * grads["relations"]
    if "normals" in grads:
        normals -= learning_rate * grads["normals"]
        normals /= np.maximum(np.linalg.norm(normals, axis=1, keepdims=True), 1e-12)
    if "maps" in grads:
        maps -= learning_rate * grads["maps"]
    return loss


def step_workspace(model, pairs, ent, rel) -> _Workspace:
    """A training workspace for steps of up to ``pairs`` pairs over these
    parameter matrices."""
    return _Workspace(model, 2 * pairs, ent.shape[1], rel.shape[1], len(ent), len(rel))


def _reference_accumulate(model, norm, cache, coef, g_ent, g_rel, g_normals, g_maps):
    active = coef != 0.0
    if not active.any():
        return
    h, r, t = (cache[x][active] for x in "hrt")
    u = parent_norm_grads(cache["d"][active], norm, cache["values"][active]) * coef[active][:, None]
    if model == TRANSE:
        du = u
    elif model == TRANSH:
        w = cache["w"][active]
        a = cache["te"][active] - cache["he"][active]
        uw = (u * w).sum(axis=1)
        du = u - uw[:, None] * w
        np.add.at(g_normals, r, uw[:, None] * a + (w * a).sum(axis=1)[:, None] * u)
    else:
        m = cache["m"][active]
        du = np.einsum("bij,bi->bj", m, u)
        np.add.at(g_maps, r, u[:, :, None] * (cache["he"][active] - cache["te"][active])[:, None, :])
    np.add.at(g_ent, h, du)
    np.add.at(g_ent, t, -du)
    np.add.at(g_rel, r, u)


def reference_train_step(model, norm, margin, learning_rate, ent, rel, normals, maps, pos, neg) -> float:
    """The dense per-batch update the row-sparse step replaced: gradients
    accumulated into zeroed full-size arrays with ``np.add.at``, every
    parameter updated, then every entity row re-projected into the unit
    ball and every normal renormalized. In place; returns the mean loss."""
    g_pos, cache_pos = parent_batch_scores(model, norm, ent, rel, normals, maps, *pos.T)
    g_neg, cache_neg = parent_batch_scores(model, norm, ent, rel, normals, maps, *neg.T)
    hinge = margin + g_pos - g_neg
    active = (hinge > 0).astype(float)
    n = len(pos)
    g_ent, g_rel = np.zeros_like(ent), np.zeros_like(rel)
    g_normals = None if normals is None else np.zeros_like(normals)
    g_maps = None if maps is None else np.zeros_like(maps)
    _reference_accumulate(model, norm, cache_pos, active / n, g_ent, g_rel, g_normals, g_maps)
    _reference_accumulate(model, norm, cache_neg, -active / n, g_ent, g_rel, g_normals, g_maps)
    ent -= learning_rate * g_ent
    rel -= learning_rate * g_rel
    if normals is not None:
        normals -= learning_rate * g_normals
        normals /= np.maximum(np.linalg.norm(normals, axis=1, keepdims=True), 1e-12)
    if maps is not None:
        maps -= learning_rate * g_maps
    norms = np.linalg.norm(ent, axis=1, keepdims=True)
    np.divide(ent, norms, out=ent, where=norms > 1.0)
    return float(np.maximum(hinge, 0.0).mean())


def dense_pair_grads(model, norm, margin, ent, rel, normals, maps, pos, neg):
    """``_pair_grads`` with its entity rows scattered into a zeroed array
    of the entity matrix's shape: (mean loss, grads keyed like it)."""
    ws = step_workspace(model, len(pos), ent, rel)
    loss, rows, grads = _pair_grads(ws, model, norm, margin, ent, rel, normals, maps, pos, neg)
    dense = np.zeros_like(ent)
    dense[rows] = grads["entities"]
    return loss, dict(grads, entities=dense)


def row_score(view: BoundEmbeddings, h: int, r: int, t: int) -> float:
    """``score_rows`` of the one row (h, r, t), which must be scored."""
    values, scored = view.score_rows(*(np.array([x], dtype=np.int64) for x in (h, r, t)))
    assert scored[0]
    return float(values[0])


def edge_plausibility(view: BoundEmbeddings, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f and the fallback flags of each (h, r, t) id row, from one
    ``score_table`` call over a ``(?h ?r ?t)`` table."""
    resolved, variables = [["h", "r", "t"]], ("h", "r", "t")
    flags = in_graph_flags(view.graph, resolved, variables, rows, [0])
    _, f, fallback = score_table(view, resolved, [1.0], variables, rows, flags)
    return f[:, 0], fallback[:, 0]


def reference_extended_score(view: BoundEmbeddings, h: int, r: int, t: int) -> float:
    """Membership rows against the class's type vector, others the model
    score; raises NoEmbeddingRow where ``score_rows`` leaves a row unscored."""
    g = view.graph
    if g.rdf_type_id is not None and r == g.rdf_type_id:
        d = _entity_vec(view, h) - view.type_vector(t)
        return float(_norm_values(d[None, :], view.embeddings.norm)[0])
    return reference_score_triple(view, h, r, t)


def reference_score_solution(view: BoundEmbeddings, patterns, mapping, uniform_f=None) -> ScoredSolution:
    """The scalar per-edge loop that ``score_table`` replaced: membership
    looked up per edge, f = 1 for present edges, 1 / (1 + extended score)
    for missing ones, the floor 1 / (1 + margin) when a constant is
    unknown or a term has no row, and ``uniform_f`` over all of it."""
    g = view.graph
    resolved = resolve_patterns(g, patterns)
    weights = edge_weights(g, resolved)
    floor = 1.0 / (1.0 + view.embeddings.margin)
    per_edge = []
    missing = 0
    total = 0.0
    for i, e in enumerate(resolved):
        ids = tuple(mapping[a] if isinstance(a, str) else a for a in e)
        unknown = None in ids  # a constant the graph does not hold
        present = not unknown and g.contains(*ids)
        missing += not present
        fallback = False
        if uniform_f is not None:
            f = uniform_f
        elif present:
            f = 1.0
        elif unknown:
            f, fallback = floor, True
        else:
            try:
                f = 1.0 / (1.0 + reference_extended_score(view, *ids))
            except NoEmbeddingRow:
                f, fallback = floor, True
        total += weights[i] * f
        per_edge.append(EdgeScore(i, weights[i], f, present, fallback))
    key = tuple(g.term(mapping[v]).nt() for v in sorted(mapping))
    return ScoredSolution(dict(mapping), missing, total, tuple(per_edge), key)


def reference_rank(solutions, k: int) -> list[ScoredSolution]:
    """The sort ``recommend``'s top-K must reproduce: score desc, edit
    distance asc, binding tuple asc, first k."""
    return sorted(solutions, key=lambda s: (-s.score, s.edit_distance, s.binding_key))[:k]


def reference_mean_rank(ranked, truth) -> float:
    """The mean rank ``evalkit.mean_rank`` computes in one walk: every
    truth tuple's first position, then per truth tuple a count of the
    truth tuples found above it."""
    if not truth:
        raise ValueError("mean_rank needs a non-empty truth set")
    position = {}
    for i, key in enumerate(ranked, start=1):
        if key in truth and key not in position:
            position[key] = i
    ranks = []
    for key in truth:
        pos = position.get(key)
        if pos is None:
            ranks.append(float(len(ranked) + 1))
        else:
            above = sum(1 for other in position.values() if other < pos)
            ranks.append(float(pos - above))
    return sum(ranks) / len(ranks)


class _ReferenceBuilder:
    """The term-level graph builder the oracles below use, kept apart from
    the code they check: ids in first-appearance order, each distinct
    blank label replaced with b0, b1, ... in order, duplicate triples
    left to the Graph constructor."""

    def __init__(self) -> None:
        self.terms: list[Term] = []
        self.ids: dict[Term, int] = {}
        self.blanks: dict[str, Term] = {}
        self.triples: list[tuple[int, int, int]] = []

    def _intern(self, term: Term) -> int:
        if term.kind is TermKind.BLANK:
            term = self.blanks.setdefault(term.lexical, Term.blank(f"b{len(self.blanks)}"))
        if term not in self.ids:
            self.ids[term] = len(self.terms)
            self.terms.append(term)
        return self.ids[term]

    def add(self, s: Term, p: Term, o: Term) -> None:
        self.triples.append((self._intern(s), self._intern(p), self._intern(o)))

    def build(self) -> Graph:
        return graph_of(self.terms, self.triples)


def reference_corrupt_graph(g: Graph, deletions) -> Graph:
    """The builder loop that the SPO-key mask of ``corrupt_graph`` replaced:
    every kept triple re-interned in SPO order (blank nodes relabelled)."""
    todel = set(deletions)
    builder = _ReferenceBuilder()
    for tr in g.triples():
        if tr in todel:
            continue
        builder.add(g.term(tr.s), g.term(tr.p), g.term(tr.o))
    return builder.build()


def reference_training_input(g: Graph, cfg: EmbeddingConfig) -> SimpleNamespace:
    """The rows and training triples ``train`` reads of ``g``, from the SPO
    key columns, as the function that ``train`` inlined computed them.

    Entities are numbered by first appearance in SPO triple order (a
    triple's subject before its object) and relations by first
    appearance as predicate. ``entity_keys`` and ``relation_keys`` name
    each row's term, and ``triples`` holds the training triples as an
    (n, 3) array of (entity, relation, entity) rows in SPO order: every
    triple, or every one not on rdf:type unless ``include_type_triples``.
    ``ent_ids`` and ``rel_ids`` give each row's term id in the graph read,
    and ``ent_row`` and ``rel_row`` each term id's row (-1 = none)."""
    index, _, _ = g.ranges()
    s, p, o = index.columns()
    ent_ids = first_appearance(np.stack([s, o], axis=1).ravel())
    rel_ids = first_appearance(p)
    ent_row = np.full(g.term_count, -1, dtype=np.int64)
    rel_row = np.full(g.term_count, -1, dtype=np.int64)
    ent_row[ent_ids] = np.arange(len(ent_ids))
    rel_row[rel_ids] = np.arange(len(rel_ids))
    rows = np.stack([ent_row[s], rel_row[p], ent_row[o]], axis=1)
    if not cfg.include_type_triples and g.rdf_type_id is not None:
        rows = rows[p != g.rdf_type_id]
    keys = g.term_keys
    return SimpleNamespace(
        entity_keys=[keys[tid] for tid in ent_ids.tolist()],
        relation_keys=[keys[tid] for tid in rel_ids.tolist()],
        triples=rows,
        ent_ids=ent_ids,
        rel_ids=rel_ids,
        ent_row=ent_row,
        rel_row=rel_row,
    )


def reference_parse_ntriples(text: str, on_error=None) -> Graph:
    """The loop that the line pattern and raw-token memo of
    ``parse_ntriples`` sped up: every line through ``parse_line``, every
    triple through a term-level builder."""
    builder = _ReferenceBuilder()
    for lineno, line in enumerate(text.split("\n"), start=1):
        try:
            parsed = parse_line(line, lineno)
        except NTriplesError as exc:
            if on_error is None:
                raise
            on_error(exc)
            continue
        if parsed is not None:
            builder.add(*parsed)
    return builder.build()


# -- the term reader that matches the term rules replaced -------------
# Character loops that read a literal and resolve escapes, and the line
# reader over them. They differ from trq.ntriples in two input classes
# alone: a \u or \U escape whose digits int(code, 16) reads but that are
# not 4 or 8 ASCII hex digits (a sign, spaces, "_", other digits), which
# these accept, and a raw CR or LF inside a literal, which these keep.

_REFERENCE_UNESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_REFERENCE_LANG_TAG = re.compile(r"@([A-Za-z]+(?:-[A-Za-z0-9]+)*)")
_REFERENCE_IRI_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`\\]')
_REFERENCE_IRI_ECHAR = re.compile(r"\\(?![uU])(.?)")


def reference_unescape_string(raw: str) -> str:
    if "\\" not in raw:
        return raw
    out: list[str] = []
    i = 0
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise ValueError("dangling backslash escape")
        e = raw[i + 1]
        if e in _REFERENCE_UNESCAPES:
            out.append(_REFERENCE_UNESCAPES[e])
            i += 2
        elif e in ("u", "U"):
            width = 4 if e == "u" else 8
            code = raw[i + 2 : i + 2 + width]
            if len(code) != width:
                raise ValueError(f"truncated \\{e} escape")
            try:
                point = int(code, 16)
                if 0xD800 <= point <= 0xDFFF:
                    raise ValueError("a surrogate is not a character")
                out.append(chr(point))
            except ValueError as exc:
                raise ValueError(f"bad \\{e} escape: {code!r}") from exc
            i += 2 + width
        else:
            raise ValueError(f"unknown escape \\{e}")
    return "".join(out)


def _reference_parse_iri(line: str, i: int) -> tuple[Term, int]:
    end = line.find(">", i + 1)
    if end < 0:
        raise ValueError("unterminated IRI")
    raw = line[i + 1 : end]
    echar = _REFERENCE_IRI_ECHAR.search(raw)
    if echar:
        raise ValueError(f"escape \\{echar.group(1)} not allowed in IRI")
    value = reference_unescape_string(raw)
    if _REFERENCE_IRI_FORBIDDEN.search(value):
        raise ValueError(f"malformed IRI <{raw}>")
    return Term.iri(value), end + 1


def reference_parse_literal(line: str, i: int) -> tuple[Term, int]:
    j = i + 1
    n = len(line)
    while j < n:
        ch = line[j]
        if ch == "\\":
            j += 2
            continue
        if ch == '"':
            break
        j += 1
    if j >= n:
        raise ValueError("unterminated literal")
    value = reference_unescape_string(line[i + 1 : j])
    j += 1
    lang = None
    datatype = None
    if line.startswith("@", j):
        m = _REFERENCE_LANG_TAG.match(line, j)
        if not m:
            raise ValueError("malformed language tag")
        lang = m.group(1)
        j = m.end()
    elif line.startswith("^^", j):
        j += 2
        if not line.startswith("<", j):
            raise ValueError("datatype must be an IRI")
        dt, j = _reference_parse_iri(line, j)
        datatype = dt.lexical
    return Term.literal(value, datatype=datatype, lang=lang), j


def _reference_parse_any(line: str, i: int, error: str) -> tuple[Term, int]:
    if line.startswith("<", i):
        return _reference_parse_iri(line, i)
    if line.startswith("_:", i):
        return _parse_blank(line, i)
    if line.startswith('"', i):
        return reference_parse_literal(line, i)
    raise ValueError(error.format(line[i:]))


def reference_parse_line(line: str, lineno: int) -> tuple[Term, Term, Term] | None:
    i = _skip_ws(line.rstrip("\r\n"), 0)
    line = line.rstrip("\r\n")
    if i >= len(line) or line[i] == "#":
        return None
    try:
        # subject
        if line.startswith("<", i):
            s, i = _reference_parse_iri(line, i)
        elif line.startswith("_:", i):
            s, i = _parse_blank(line, i)
        elif line.startswith('"', i):
            raise ValueError("literal not allowed as subject")
        else:
            raise ValueError("expected IRI or blank node subject")
        i = _skip_ws(line, i)
        # predicate
        if line.startswith("<", i):
            p, i = _reference_parse_iri(line, i)
        elif line.startswith("_:", i):
            raise ValueError("blank node not allowed as predicate")
        elif line.startswith('"', i):
            raise ValueError("literal not allowed as predicate")
        else:
            raise ValueError("expected IRI predicate")
        i = _skip_ws(line, i)
        o, i = _reference_parse_any(line, i, "expected IRI, blank node, or literal object")
        i = _skip_ws(line, i)
        if not line.startswith(".", i):
            raise ValueError("missing terminating dot")
        i = _skip_ws(line, i + 1)
        if i < len(line) and line[i] != "#":
            raise ValueError("trailing characters after dot")
    except ValueError as exc:
        raise NTriplesError(str(exc), lineno, line) from None
    return s, p, o


def binding_keys(g: Graph, mappings) -> set[tuple[str, ...]]:
    return {tuple(g.term(m[v]).nt() for v in sorted(m)) for m in mappings}


# -- the subquery tree enumerator over graph objects, verbatim -------------
# It strips constant leaves from QueryGraph objects, tests each edge
# combination by search and dedupes trees by sorted edge-label strings;
# enumerate_subquery_trees must give the same trees in the same order.


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


def reference_subquery_trees(q: Query) -> list[SubqueryTree]:
    """All distinct re-stripped spanning trees of the reduced query graph.

    Raises NoVariableError when no subject or object of the query is a
    variable, DisconnectedQueryError when the reduced graph is
    disconnected and BudgetExceededError when the reduced graph keeps
    more than ``MAX_EDGES`` edges or the C(|E|, |V|-1) enumeration would
    exceed ``MAX_COMBINATIONS``. Every returned tree preserves the full
    variable set of the query.
    """
    reduced = del_constant_leaf(build_query_graph(q))
    # del_constant_leaf never strips a variable node
    if not reduced.variables():
        raise NoVariableError()
    if not is_connected(reduced):
        raise DisconnectedQueryError("query graph is disconnected after constant-leaf removal")
    n_edges = len(reduced.edges)
    choose = len(reduced.nodes) - 1
    total = math.comb(n_edges, choose) if n_edges >= choose else 0
    if n_edges > MAX_EDGES or total > MAX_COMBINATIONS:
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


# -- the tree path that relaxations replaced ---------------------------


def _reference_repeated(
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


def reference_recommend(g: Graph, req) -> tuple[list[ScoredSolution], int, bool]:
    """``recommend`` as it joined every subquery tree in full: each tree's
    rows are looked up on its dropped patterns, deduplicated against the
    earlier trees, cut at the threshold and pooled in tree order. Returns
    the ranked solutions, the count of rows that were no repeats (before
    the threshold) and whether a tree stopped at ``per_tree_limit``."""
    req.validate()
    q = req.query
    resolved = resolve_patterns(g, q.patterns)
    if any(isinstance(p, str) for _, p, _ in resolved):
        raise VariablePredicateError(
            "query patterns with variable predicates cannot be scored; "
            "bind the predicate or drop the pattern"
        )
    trees = enumerate_subquery_trees(q)
    usable = [t for t in trees if t.covered]
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
        new = ~_reference_repeated(table, in_graph, earlier)
        seen += int(np.count_nonzero(new))
        distance = (~in_graph).sum(axis=1)
        keep = new & (distance < req.threshold)
        tables.append(table[keep])
        flags.append(in_graph[keep])
        distances.append(distance[keep])
        earlier.append((covered, table if result.truncated else None))
    rows, in_graph, distance = np.concatenate(tables), np.concatenate(flags), np.concatenate(distances)

    weights = edge_weights(g, resolved)
    view = None if req.uniform_f is not None else req.embeddings.bind(g)
    scores, f, fallback = score_table(view, resolved, weights, variables, rows, in_graph, req.uniform_f)
    k = len(rows) if req.top_k is None else min(req.top_k, len(rows))
    chosen, keys = _top(g, rows, scores, distance, k)
    top = [
        scored_solution(
            dict(zip(variables, rows[r].tolist())), key, weights, in_graph[r], distance[r], f[r], fallback[r], scores[r]
        )
        for r, key in zip(chosen.tolist(), keys)
    ]
    return top, seen, truncated


# -- the bench loop that trains every case, verbatim ----------------------


def reference_run_benchmark(
    g: Graph,
    cases,
    embed_config: EmbeddingConfig | None = None,
    embeddings: EmbeddingSet | None = None,
    threshold: int = DEFAULT_THRESHOLD,
    top_k: int | None = None,
    per_tree_limit: int = DEFAULT_PER_TREE_LIMIT,
    uniform_f: float | None = None,
) -> BenchReport:
    """``run_benchmark`` as its protocol reads: one ``train`` on the source
    graph without the deletions of every case whose every deletion is a
    triple of the source, then each case ranked with that model on its
    own corrupted graph; a failed training is each such case's error."""
    trains = embeddings is None and uniform_f is None
    if trains and embed_config is None:
        raise ValueError("run_benchmark needs embed_config or embeddings")
    validate_settings(threshold, top_k, per_tree_limit, uniform_f)
    training_error = None
    if trains:
        embed_config.validate()
        source = set(g.triples())
        present = [case for case in cases if set(case.deletions) <= source]
        if present:
            held_out = set().union(*(case.deletions for case in present))
            try:
                embeddings = train(corrupt_graph(g, held_out), embed_config)
            except Exception as exc:  # noqa: BLE001
                training_error = f"{type(exc).__name__}: {exc}"
    report = BenchReport()
    for case in cases:
        row = BenchRow(name=case.name)
        report.rows.append(row)
        started = time.perf_counter()
        try:
            truth = case.truth if case.truth is not None else exact_solutions(g, case.query)
            if not truth:
                raise ValueError("case has an empty truth set")
            corrupted = corrupt_graph(g, case.deletions)
            row.error = training_error
            if training_error is None:
                req = RecommendRequest(
                    query=case.query,
                    embeddings=embeddings,
                    threshold=threshold,
                    top_k=top_k,
                    per_tree_limit=per_tree_limit,
                    uniform_f=uniform_f,
                )
                rec = recommend(corrupted, req)
                ranked = [s.binding_key for s in rec.solutions]
                row.rr = reciprocal_rank(ranked, truth)
                row.mr = mean_rank(ranked, truth)
                row.candidates = rec.candidates_seen
                row.truth_size = len(truth)
        except Exception as exc:  # noqa: BLE001 - cases must not kill the run
            row.error = f"{type(exc).__name__}: {exc}"
        row.elapsed = time.perf_counter() - started
    return report


# -- canned graphs ------------------------------------------------------


def small_emb(g: Graph, seed=0, model="transe", dim=12, epochs=15):
    return train(g, EmbeddingConfig(model=model, dim=dim, epochs=epochs, batch_size=64, seed=seed))


MOVIE_QUERY = f"""
PREFIX ex: <{EX}>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT DISTINCT ?film ?actor1 ?actor2 WHERE {{
  ?film ex:starring ?actor1 .
  ?film ex:starring ?actor2 .
  ?actor1 ex:spouse ?actor2 .
  ?film rdf:type ex:Film .
  ?actor1 ex:child ?child .
  ?actor2 ex:child ?child .
  ?child rdf:type ex:ScreenWriter .
}}
"""

MOVIE_FAMILIES = [
    ("Camelot", "Vanessa_Redgrave", "Franco_Nero", "Carlo_Nero"),
    ("The_Honey_Pot", "Rex_Harrison", "Lilli_Palmer", "Carey_Harrison"),
    ("High_Society", "Grace_Kelly", "John_Kelly", "Joyce_Cheng"),
]


def movie_graph() -> Graph:
    """Three film/couple/child clusters where only the child's membership
    in ScreenWriter is missing, plus standalone screenwriters that give
    the class a type vector. The seven-pattern movie query has no exact
    solution here and exactly three one-miss candidates."""
    rows = []
    for i, (film, a, b, child) in enumerate(MOVIE_FAMILIES):
        rows += [
            (film, "starring", a),
            (film, "starring", b),
            (a, "spouse", b),
            (film, "type", "Film"),
            (a, "child", child),
            (b, "child", child),
        ]
        # varied writing records keep the three children's vectors apart
        for j in range(2 - i if i < 2 else 0):
            rows.append((child, "wrote", f"Script_{i}_{j}"))
    for j in range(3):
        rows += [
            (f"Writer_{j}", "type", "ScreenWriter"),
            (f"Writer_{j}", "wrote", f"Play_{j}"),
        ]
    return build_graph(rows)


@pytest.fixture(scope="session")
def movies() -> Graph:
    return movie_graph()


# -- planted synthetic KGs ----------------------------------------------


def planted_kg(n_clusters=20, per_cluster=5, n_attrs=4, seed=7):
    """Clustered world: items in a cluster share every attribute value
    and sit on an intra-cluster 'linked' ring.

    Shared attributes admit a zero-loss translation embedding (the
    clustermates may coincide, with the ring relation near zero), so
    link prediction has a clean ceiling, while the ring keeps a
    variable-variable relation for join queries. Item name suffixes are
    shuffled so the lexicographic tie-break carries no signal. With the
    defaults: 20*5*4 attribute triples + 100 ring triples = 500.

    Returns (graph, items) with items[c] listing cluster c in ring order.
    """
    rng = np.random.default_rng(seed)
    suffixes = rng.permutation(n_clusters * per_cluster)
    items = [
        [f"n{suffixes[c * per_cluster + j]:03d}" for j in range(per_cluster)]
        for c in range(n_clusters)
    ]
    rows = []
    for c in range(n_clusters):
        for j, it in enumerate(items[c]):
            for k in range(n_attrs):
                rows.append((it, f"attr{k}", f"val{k}_{c:02d}"))
            rows.append((it, "linked", items[c][(j + 1) % per_cluster]))
    return build_graph(rows), items


def deletion_cases(items, n_cases=6):
    """Fact-deletion cases over planted_kg.

    Case c deletes one item's attr0 fact; the cluster join query then
    misses exactly the ring pair ending at that item, and the deleted
    fact's subject keeps its other attributes and ring edges, so its
    embedding still sits on the cluster.

    Returns [(name, query_text, deleted row)].
    """
    cases = []
    for c in range(n_cases):
        victim = items[c][2]
        q = (
            f"PREFIX ex: <{EX}>\n"
            f"SELECT ?a ?b WHERE {{ ?a ex:linked ?b . ?b ex:attr0 ex:val0_{c:02d} . }}\n"
        )
        cases.append((f"cluster-{c:02d}", q, (victim, "attr0", f"val0_{c:02d}")))
    return cases


# -- random instances for the end-to-end criteria -----------------------

_REL_POOL = ["r0", "r1", "r2", "r3", "r4"]


def exact_instance(rng: np.random.Generator, n_entities=120, n_noise=900):
    """A synthetic graph plus a query with at least one planted exact
    solution. Query shapes mix variable cycles, stars, and constant
    leaves; every instantiated triple of the planted assignments is
    added to the graph."""
    ents = [f"e{i:03d}" for i in range(n_entities)]
    classes = ["C0", "C1", "C2"]
    rows = []
    for _ in range(n_noise):
        rows.append(
            (
                ents[rng.integers(n_entities)],
                _REL_POOL[rng.integers(len(_REL_POOL))],
                ents[rng.integers(n_entities)],
            )
        )
    for e in ents:
        if rng.random() < 0.4:
            rows.append((e, "type", classes[rng.integers(len(classes))]))

    shape = rng.choice(["cycle3", "cycle4", "star", "path"])
    if shape == "cycle3":
        var_edges = [("a", "b"), ("b", "c"), ("c", "a")]
    elif shape == "cycle4":
        var_edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    elif shape == "star":
        var_edges = [("a", "b"), ("a", "c"), ("a", "d")]
    else:
        var_edges = [("a", "b"), ("b", "c")]
    names = sorted({v for edge in var_edges for v in edge})

    patterns = []
    for u, v in var_edges:
        rel = _REL_POOL[rng.integers(len(_REL_POOL))]
        if rng.random() < 0.5:
            patterns.append(pattern(f"?{u}", rel, f"?{v}"))
        else:
            patterns.append(pattern(f"?{v}", rel, f"?{u}"))
    leaf_var = names[rng.integers(len(names))]
    leaf_class = classes[rng.integers(len(classes))]
    patterns.append(pattern(f"?{leaf_var}", "type", leaf_class))

    n_solutions = 1 + int(rng.integers(3))
    for _ in range(n_solutions):
        chosen = rng.choice(n_entities, size=len(names), replace=False)
        mapping = {n: ents[c] for n, c in zip(names, chosen)}
        for pat in patterns:
            s = mapping[pat.s.name] if isinstance(pat.s, Var) else None
            o = mapping[pat.o.name] if isinstance(pat.o, Var) else None
            rel_term = pat.p.term
            s_name = s if s is not None else pat.s.term
            o_name = o if o is not None else pat.o.term
            rows.append((s_name, rel_term, o_name))
    return build_graph(rows), make_query(patterns)


def candidate_instance(rng: np.random.Generator, n_entities=10, n_noise=80):
    """A small instance whose reduced variable graph is two-edge-connected
    (a variable cycle with optional chords, or a two-variable double
    edge), plus constant-leaf patterns. On such queries the tree-based
    candidate set provably equals the brute-force enumeration of all
    total assignments under the edit-distance threshold, so the two can
    be compared exactly.
    """
    k = int(rng.integers(2, 5))
    names = ["a", "b", "c", "d"][:k]
    var_edges = [(names[i], names[(i + 1) % k]) for i in range(k)] if k > 2 else [
        ("a", "b"),
        ("a", "b"),
    ]
    if k >= 3 and rng.random() < 0.5:
        i, j = sorted(rng.choice(k, size=2, replace=False))
        if (names[i], names[j]) not in var_edges:
            var_edges.append((names[i], names[j]))

    ents = [f"n{i:02d}" for i in range(n_entities)]
    rels = ["r0", "r1", "r2"]
    patterns = []
    for u, v in var_edges:
        rel = rels[int(rng.integers(len(rels)))]
        if rng.random() < 0.5:
            u, v = v, u
        patterns.append(pattern(f"?{u}", rel, f"?{v}"))
    for _ in range(int(rng.integers(3))):
        v = names[int(rng.integers(k))]
        c = ents[int(rng.integers(n_entities))]
        rel = rels[int(rng.integers(len(rels)))]
        if rng.random() < 0.5:
            patterns.append(pattern(f"?{v}", rel, c))
        else:
            patterns.append(pattern(c, rel, f"?{v}"))

    rows = []
    for _ in range(n_noise):
        rows.append(
            (
                ents[int(rng.integers(n_entities))],
                rels[int(rng.integers(len(rels)))],
                ents[int(rng.integers(n_entities))],
            )
        )
    # plant some near-matches so the threshold filter has work to do
    for _ in range(4):
        chosen = rng.choice(n_entities, size=k, replace=True)
        mapping = {n: ents[c] for n, c in zip(names, chosen)}
        for pat in patterns:
            if rng.random() < 0.8:
                s = mapping[pat.s.name] if isinstance(pat.s, Var) else pat.s.term
                o = mapping[pat.o.name] if isinstance(pat.o, Var) else pat.o.term
                rows.append((s, pat.p.term, o))
    return build_graph(rows), make_query(patterns)
