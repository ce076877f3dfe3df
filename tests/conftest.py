"""Shared builders, fixtures, and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from trq import (
    BoundEmbeddings,
    EmbeddingConfig,
    Graph,
    GraphBuilder,
    Query,
    QueryForm,
    Term,
    TriplePattern,
    UnembeddedTermError,
    train,
)
from trq.embedding import TRANSE, TRANSH, _batch_scores, _norm_grads, _norm_values
from trq.scoring import EdgeScore, ScoredSolution, edge_weights
from trq.sparql import Const, Var, _order_patterns

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


def build_graph(rows) -> Graph:
    b = GraphBuilder()
    for s, p, o in rows:
        b.add(_term(s), _term(p), _term(o))
    return b.build()


def nt_text(rows) -> str:
    return "".join(f"{_term(s).nt()} {_term(p).nt()} {_term(o).nt()} .\n" for s, p, o in rows)


def atom(x):
    if isinstance(x, (Var, Const)):
        return x
    if isinstance(x, str) and x.startswith("?"):
        return Var(x[1:])
    return Const(_term(x))


def pattern(s, p, o) -> TriplePattern:
    return TriplePattern(atom(s), atom(p), atom(o))


def make_query(patterns, projected=None, distinct=True) -> Query:
    pats = tuple(patterns)
    if projected is None:
        seen = set()
        for p in pats:
            seen |= p.variables()
        projected = tuple(sorted(seen))
    return Query(QueryForm.SELECT, pats, tuple(projected), distinct, {})


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


def reference_evaluate_bgp(g: Graph, q: Query, limit: int | None = None):
    """The scalar depth-first evaluator that the columnar join replaced.

    Walks the patterns in ``trq.sparql``'s greedy order, one ``Graph.match``
    scan per binding, copying the binding dict at every step. Returns
    (mappings, truncated) under the same distinct and limit rules as
    ``evaluate_bgp``.
    """
    order = _order_patterns(g, q.patterns)

    def resolve(atom, binding):
        if isinstance(atom, Const):
            tid = g.id(atom.term)
            return (-1 if tid is None else tid), None
        if atom.name in binding:
            return binding[atom.name], None
        return None, atom.name

    def walk(idx, binding):
        if idx == len(order):
            yield binding
            return
        pat = order[idx]
        sid, sname = resolve(pat.s, binding)
        pid, pname = resolve(pat.p, binding)
        oid, oname = resolve(pat.o, binding)
        if -1 in (sid, pid, oid):
            return
        for tr in g.match(sid, pid, oid):
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
    seen = set()
    truncated = False
    projected = q.projected or tuple(sorted(q.variables()))
    for m in gen:
        if q.distinct:
            key = tuple(m[v] for v in projected)
            if key in seen:
                continue
            seen.add(key)
        out.append(m)
        if limit is not None and len(out) >= limit:
            truncated = next(gen, None) is not None
            break
    return out, truncated


def _entity_vec(view: BoundEmbeddings, tid: int) -> np.ndarray:
    return view.embeddings.entity_vecs[view._row(view.ent_row, tid, "entity")].astype(np.float64)


def reference_score_triple(view: BoundEmbeddings, h: int, r: int, t: int) -> float:
    """The scalar three-branch model score that the batched kernel replaced."""
    emb = view.embeddings
    hv = _entity_vec(view, h)
    tv = _entity_vec(view, t)
    row = view._row(view.rel_row, r, "relation")
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


def _reference_accumulate(model, norm, cache, coef, g_ent, g_rel, g_normals, g_maps):
    active = coef != 0.0
    if not active.any():
        return
    h, r, t = (cache[x][active] for x in "hrt")
    u = _norm_grads(cache["d"][active], norm, cache["values"][active]) * coef[active][:, None]
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
    g_pos, cache_pos = _batch_scores(model, norm, ent, rel, normals, maps, *pos.T)
    g_neg, cache_neg = _batch_scores(model, norm, ent, rel, normals, maps, *neg.T)
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


def reference_extended_score(view: BoundEmbeddings, h: int, r: int, t: int) -> float:
    """Membership rows against the class's type vector, others the model score."""
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
    weights = edge_weights(g, patterns)
    floor = 1.0 / (1.0 + view.embeddings.margin)
    per_edge = []
    missing = 0
    total = 0.0
    for i, e in enumerate(patterns):
        ids = tuple(mapping[a.name] if isinstance(a, Var) else g.id(a.term) for a in e.atoms())
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
            except UnembeddedTermError:
                f, fallback = floor, True
        total += weights[i] * f
        per_edge.append(EdgeScore(i, weights[i], f, present, fallback))
    key = tuple(g.term(mapping[v]).nt() for v in sorted(mapping))
    return ScoredSolution(dict(mapping), missing, total, tuple(per_edge), key)


def reference_rank(solutions, k: int) -> list[ScoredSolution]:
    """The sort ``recommend``'s top-K must reproduce: score desc, edit
    distance asc, binding tuple asc, first k."""
    return sorted(solutions, key=lambda s: (-s.score, s.edit_distance, s.binding_key))[:k]


def reference_corrupt_graph(g: Graph, deletions) -> Graph:
    """The builder loop that the SPO-key mask of ``corrupt_graph`` replaced:
    every kept triple re-interned in SPO order (blank nodes relabelled)."""
    todel = set(deletions)
    builder = GraphBuilder()
    for tr in g.triples():
        if tr in todel:
            continue
        builder.add(g.term(tr.s), g.term(tr.p), g.term(tr.o))
    return builder.build()


def binding_keys(g: Graph, mappings) -> set[tuple[str, ...]]:
    return {tuple(g.term(m[v]).nt() for v in sorted(m)) for m in mappings}


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
