"""Output checks; each returns a list of problems (empty when the output is right).

The checks recompute what they can independently of trq's scoring code:
the edit distance of a row is recounted with ``Graph.contains`` alone.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import math
import tracemalloc

import numpy as np

scoring = importlib.import_module("trq.scoring")
Var = importlib.import_module("trq.sparql").Var


def recount_edit_distance(g, patterns, mapping) -> int:
    missing = 0
    for pat in patterns:
        ids = []
        for atom in (pat.s, pat.p, pat.o):
            ids.append(mapping[atom.name] if isinstance(atom, Var) else g.id(atom.term))
        if None in ids or not g.contains(*ids):
            missing += 1
    return missing


def ranking(g, query, solutions) -> list[str]:
    """Order (-score, edit distance, binding key), no NaN, the score
    ceiling, and edit distances that match a recount."""
    problems = []
    if any(math.isnan(s.score) for s in solutions):
        return ["NaN score"]
    keys = [(-s.score, s.edit_distance, s.binding_key) for s in solutions]
    if keys != sorted(keys):
        problems.append("ranking is not sorted by (-score, edit distance, binding key)")
    ceiling = scoring.score_graph(g, query.patterns)
    for s in solutions:
        if s.score > ceiling:
            problems.append(f"score {s.score!r} exceeds score_graph {ceiling!r}")
        if s.edit_distance == 0 and s.score != ceiling:
            problems.append(f"exact row scores {s.score!r}, not score_graph {ceiling!r}")
        recount = recount_edit_distance(g, query.patterns, s.mapping)
        if recount != s.edit_distance:
            problems.append(f"edit distance {s.edit_distance} but recount gives {recount}")
    return problems


def ranking_digest(solutions) -> str:
    text = "".join(f"{s.binding_key}\t{s.score!r}\t{s.edit_distance}\n" for s in solutions)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def same_graph(a, b) -> list[str]:
    problems = []
    if list(a.terms()) != list(b.terms()):
        problems.append("term dictionaries differ")
    if list(a.triples()) != list(b.triples()):
        problems.append("triples differ")
    return problems


def snapshot_roundtrip(g, store) -> list[str]:
    """``load_snapshot(save_snapshot(g))`` gives back the same graph."""
    buf = io.BytesIO()
    store.save_snapshot(g, buf)
    buf.seek(0)
    return same_graph(g, store.load_snapshot(buf))


def embeddings_roundtrip(saved, loaded) -> list[str]:
    """A reloaded TRQE set equals the one saved; training losses are finite."""
    problems = []
    for field in ("model", "norm", "dim", "rel_dim", "margin", "entity_terms", "relation_terms"):
        if getattr(saved, field) != getattr(loaded, field):
            problems.append(f"{field} differs after reload")
    for field in ("entity_vecs", "relation_vecs", "normals", "maps"):
        a, b = getattr(saved, field), getattr(loaded, field)
        if (a is None) != (b is None) or (a is not None and not np.array_equal(a, b)):
            problems.append(f"{field} differs after reload")
    if not all(math.isfinite(x) for x in saved.losses):
        problems.append("non-finite training loss")
    return problems


def graph_bytes_per_triple(store, path) -> float:
    """Python heap held by a loaded Graph, per triple (tracemalloc)."""
    tracemalloc.start()
    try:
        g = store.load_snapshot(path)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return size / max(1, g.triple_count)
