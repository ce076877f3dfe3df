"""Seeded input generator for the trq benchmark.

Every file a workload reads is a pure function of (workload, seed,
parameters): :func:`generate` builds the files twice from fresh random
streams and refuses to return them unless both SHA-256 digests agree.
Only Python's ``random.Random`` is used, so the bytes do not depend on
the numpy version.

Workloads (parameters live in ``perfbench/spec.json``):

* ``serve``: a degree-skewed graph (Zipf-distributed subjects and
  objects, so a few hubs make some subquery trees truncate) in which
  entities fall into clusters and each relation mostly maps a cluster to
  a fixed other cluster, which gives the embeddings something to learn.
  Every entity may carry one ``rdf:type`` class derived from its
  cluster. On top of it, a fixed list of SELECT queries (cycle3, cycle4,
  star and path shapes, and constant or type leaves, in a fixed mix) is
  planted: every pattern of the planted answer is added to the graph,
  and one of its facts is listed in ``deletions.nt`` for the preparation
  step to remove. The queries that stop at per_tree_limit because two
  type leaves share a class sit at fixed places in the list, so the
  seed does not change how many of them a run answers.
* ``build``: the same kind of graph at a larger size, with planted
  queries used to check the built store.
* ``deletion``: a planted-cluster graph (items of a cluster share every
  attribute value and sit on a ``linked`` ring; clusters are grouped into
  classes) and a ``trq bench`` manifest whose cases delete either one
  attribute fact or one type fact of a victim item.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect
from itertools import accumulate
from pathlib import Path

EX = "http://bench.example.org/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
TYPE_NT = f"<{RDF_TYPE}>"

SHAPES = {
    "cycle3": (("a", "b"), ("b", "c"), ("c", "a")),
    "cycle4": (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")),
    "star": (("a", "b"), ("a", "c"), ("a", "d")),
    "path": (("a", "b"), ("b", "c")),
}


def iri(name: str) -> str:
    return f"<{EX}{name}>"


def nt_line(s: str, p: str, o: str) -> str:
    return f"{s} {p} {o} .\n"


# -- skewed clustered world ----------------------------------------------


class _World:
    """Entities, clusters and relational facts of a skewed graph."""

    def __init__(self, rng: random.Random, p: dict):
        n, k = p["entities"], p["clusters"]
        self.n_rel = p["relations"]
        self.n_classes = p["classes"]
        # Zipf popularity over a random order: popularity rank 0 is the
        # biggest hub, for out- and in-edges alike. Dealing ranks round-robin
        # into clusters gives every cluster the same degree profile, so the
        # seed changes which entity is a hub but not how skewed the graph is.
        self.order = rng.sample(range(n), n)
        self.cluster = [0] * n
        members: list[list[int]] = [[] for _ in range(k)]
        for rank, e in enumerate(self.order):
            self.cluster[e] = rank % k
            members[rank % k].append(e)
        weight = [1.0 / (rank + 1) ** p["skew"] for rank in range(n)]
        cum = list(accumulate(weight))
        member_cum = [list(accumulate(weight[r] for r in range(c, n, k))) for c in range(k)]
        offsets = [rng.randrange(1, k) for _ in range(self.n_rel)]
        seen: set[tuple[int, int, int]] = set()
        self.facts: list[tuple[int, int, int]] = []
        while len(self.facts) < p["triples"]:
            s = self.order[bisect(cum, rng.random() * cum[-1])]
            r = rng.randrange(self.n_rel)
            if rng.random() < p["rule_share"]:
                c = (self.cluster[s] + offsets[r]) % k
                mc = member_cum[c]
                o = members[c][bisect(mc, rng.random() * mc[-1])]
            else:
                o = self.order[bisect(cum, rng.random() * cum[-1])]
            if s == o or (s, r, o) in seen:
                continue
            seen.add((s, r, o))
            self.facts.append((s, r, o))
        self.typed = [e for e in range(n) if rng.random() < p["type_share"]]

    def class_of(self, e: int) -> int:
        return self.cluster[e] % self.n_classes

    def lines(self) -> list[str]:
        out = [nt_line(iri(f"e{s}"), iri(f"r{r}"), iri(f"e{o}")) for s, r, o in self.facts]
        out += [nt_line(iri(f"e{e}"), TYPE_NT, iri(f"C{self.class_of(e)}")) for e in self.typed]
        return out


def _shape_cycle(mix: dict[str, int]) -> list[str]:
    """The query-shape mix as a fixed round-robin sequence."""
    out: list[str] = []
    for name in sorted(mix):
        out += [name] * mix[name]
    return out


def _pop_class(pool: list[int], world: _World, cls: int) -> int:
    """Take from the pool the last entity of class ``cls``."""
    for i in range(len(pool) - 1, -1, -1):
        if world.class_of(pool[i]) == cls:
            return pool.pop(i)
    raise ValueError(f"no entity of class C{cls} left to plant")


def _plant_queries(rng: random.Random, world: _World, p: dict, count: int) -> list[dict]:
    """Planted queries over the world's low-degree entities.

    Each query gets distinct fresh entities, so no two planted answers
    share a fact and a deletion for one query never breaks another.
    Returns records holding the query text, the planted binding tuple,
    every planted fact line and the one deleted fact line.

    A class constant is a leaf of the query graph only when one type
    pattern names it; two type patterns on one class join through it,
    and the subquery trees that keep that join match pairs of whole
    classes and stop at per_tree_limit. Which queries do that is fixed,
    not left to chance: every ``shared_class_every``-th query is a cycle3
    whose two type leaves name one class, and no other query has two
    type leaves on one class.
    """
    n = len(world.order)
    pool = world.order[n // 2 :]  # the less popular half
    pool = rng.sample(pool, len(pool))
    shapes = _shape_cycle(p["shape_mix"])
    every = p["shared_class_every"]
    leaves = 0.0  # constant leaves owed to the cyclic queries so far
    out = []
    for qi in range(count):
        shared = qi % every == every - 1
        shape = "cycle3" if shared else shapes[qi % len(shapes)]
        names = sorted({v for e in SHAPES[shape] for v in e})
        mapping = {v: pool.pop() for v in names}
        cyclic = shape.startswith("cycle")
        atoms = []  # (subject variable, relation, object variable)
        for u, v in SHAPES[shape]:
            r = rng.randrange(world.n_rel)
            atoms.append((v, r, u) if rng.random() < 0.5 else (u, r, v))
        tv = rng.choice(names)
        tv2 = None  # the variable of a second type leaf, if the query gets one
        if shared:
            tv2 = rng.choice([v for v in names if v != tv])
            mapping[tv2] = _pop_class(pool, world, world.class_of(mapping[tv]))
        cls = world.class_of(mapping[tv])
        if cyclic and not shared:
            # const_leaf_share of the cyclic queries, spread evenly, get a
            # constant leaf, so every seed has the same mix of leaves
            leaves += p["const_leaf_share"]
            if leaves >= 1.0:
                leaves -= 1.0
            else:
                others = [v for v in names if world.class_of(mapping[v]) != cls]
                tv2 = rng.choice(others) if others else None
        patterns: list[tuple[str, str, str]] = []  # query atoms
        facts: list[str] = []
        for u, r, v in atoms:
            patterns.append((f"?{u}", iri(f"r{r}"), f"?{v}"))
            facts.append(nt_line(iri(f"e{mapping[u]}"), iri(f"r{r}"), iri(f"e{mapping[v]}")))
        patterns.append((f"?{tv}", "a", iri(f"C{cls}")))
        facts.append(nt_line(iri(f"e{mapping[tv]}"), TYPE_NT, iri(f"C{cls}")))
        # Subquery trees only drop edges of a cycle, so an acyclic query can
        # recover its planted answer only through a leaf: it loses its type
        # fact instead, and always gets a constant leaf to stay selective.
        deleted = facts[rng.randrange(len(atoms))] if cyclic else facts[-1]
        if tv2 is not None:
            # no constant leaf: a second type leaf keeps the query selective
            cls2 = iri(f"C{world.class_of(mapping[tv2])}")
            patterns.append((f"?{tv2}", "a", cls2))
            facts.append(nt_line(iri(f"e{mapping[tv2]}"), TYPE_NT, cls2))
        else:
            cv = rng.choice(names)
            rel = iri(f"r{rng.randrange(world.n_rel)}")
            const = iri(f"e{pool.pop()}")
            if rng.random() < 0.5:
                patterns.append((f"?{cv}", rel, const))
                facts.append(nt_line(iri(f"e{mapping[cv]}"), rel, const))
            else:
                patterns.append((const, rel, f"?{cv}"))
                facts.append(nt_line(const, rel, iri(f"e{mapping[cv]}")))
        body = " ".join(f"{s} {pr} {o} ." for s, pr, o in patterns)
        text = f"SELECT {' '.join('?' + v for v in names)} WHERE {{ {body} }}\n"
        out.append(
            {
                "name": f"q{qi:03d}-{shape}" + ("-shared" if shared else ""),
                "shape": shape,
                "text": text,
                "truth": [iri(f"e{mapping[v]}") for v in names],
                "facts": facts,
                "deleted": deleted,
            }
        )
    return out


def skewed_files(rng: random.Random, p: dict) -> dict[str, bytes]:
    world = _World(rng, p)
    planted = _plant_queries(rng, world, p, p["queries"])
    lines = world.lines()
    for rec in planted:
        lines += rec["facts"]
    queries = [
        json.dumps({k: rec[k] for k in ("name", "shape", "text", "truth", "deleted")}, sort_keys=True) + "\n"
        for rec in planted
    ]
    return {
        "graph.nt": "".join(lines).encode(),
        "deletions.nt": "".join(rec["deleted"] for rec in planted).encode(),
        "queries.jsonl": "".join(queries).encode(),
    }


# -- planted clusters for the deletion bench -----------------------------


def deletion_files(rng: random.Random, p: dict) -> dict[str, bytes]:
    n_clusters, per, n_attrs = p["clusters"], p["per_cluster"], p["attrs"]
    group = p["clusters_per_class"]
    suffixes = rng.sample(range(n_clusters * per), n_clusters * per)
    items = [[f"n{suffixes[c * per + j]:04d}" for j in range(per)] for c in range(n_clusters)]
    lines: list[str] = []
    for c in range(n_clusters):
        cls = iri(f"K{c // group}")
        for j, it in enumerate(items[c]):
            for k in range(n_attrs):
                lines.append(nt_line(iri(it), iri(f"attr{k}"), iri(f"val{k}_{c:03d}")))
            lines.append(nt_line(iri(it), iri("linked"), iri(items[c][(j + 1) % per])))
            lines.append(nt_line(iri(it), TYPE_NT, cls))
    files = {"graph.nt": "".join(lines).encode()}
    manifest = ["# query  deletions  truth (the ring pair that ends at the victim)\n"]
    for i, c in enumerate(sorted(rng.sample(range(n_clusters), p["cases"]))):
        j = rng.randrange(per)
        victim, prev = items[c][j], items[c][j - 1]
        cls = iri(f"K{c // group}")
        attr = f"{iri('attr0')} {iri(f'val0_{c:03d}')}"
        if i % 2 == 0:
            deleted = nt_line(iri(victim), iri("attr0"), iri(f"val0_{c:03d}"))
            body = f"?a {iri('linked')} ?b . ?b {attr} . ?a a {cls} ."
        else:
            deleted = nt_line(iri(victim), TYPE_NT, cls)
            body = f"?a {iri('linked')} ?b . ?b {attr} . ?b a {cls} ."
        stem = f"cases/c{i:02d}"
        files[f"{stem}.rq"] = f"SELECT ?a ?b WHERE {{ {body} }}\n".encode()
        files[f"{stem}.del.nt"] = deleted.encode()
        files[f"{stem}.truth.tsv"] = f"{iri(prev)}\t{iri(victim)}\n".encode()
        manifest.append(f"{stem}.rq {stem}.del.nt {stem}.truth.tsv\n")
    files["manifest.txt"] = "".join(manifest).encode()
    return files


MAKERS = {"serve": skewed_files, "build": skewed_files, "deletion": deletion_files}


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + hashlib.sha256(files[name]).digest())
    return h.hexdigest()


class NondeterministicInputError(RuntimeError):
    """Two generations from one seed gave different bytes."""


def generate(workload: str, seed: int, params: dict) -> tuple[dict[str, bytes], str]:
    """The workload's files and their digest, checked by regenerating."""
    make = MAKERS[workload]
    files = make(random.Random(f"{workload}:{seed}"), params)
    first = digest(files)
    again = digest(make(random.Random(f"{workload}:{seed}"), params))
    if again != first:
        raise NondeterministicInputError(f"{workload} seed {seed}: {first} != {again}")
    return files, first


def write(out_dir: Path, files: dict[str, bytes]) -> None:
    for name, data in files.items():
        path = out_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
