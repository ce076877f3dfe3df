"""Retrieval metrics, fact-deletion corruption, and benchmark running.

Ranking quality is reported as reciprocal rank (1 / position of the
first correct tuple) and mean rank under a competition-free convention:
each correct tuple's rank is its position minus the number of correct
tuples strictly above it, so a run that places all |truth| correct
tuples in a prefix scores a mean rank of exactly 1.0. A correct tuple
missing from the ranking is charged rank len(ranking) + 1.

A benchmark case deletes facts from the source graph (making the query
unanswerable exactly), recommends approximate solutions over the
corrupted graph, and measures where the original exact solutions land.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .embedding import EmbeddingConfig, EmbeddingSet, train
from .recommend import DEFAULT_PER_TREE_LIMIT, DEFAULT_THRESHOLD, RecommendRequest, recommend
from .sparql import Query, QueryForm, evaluate_bgp
from .store import Graph, first_appearance
from .terms import Triple

BindingTuple = tuple[str, ...]


def reciprocal_rank(ranked: Sequence[BindingTuple], truth: set[BindingTuple]) -> float:
    """1 / rank of the first correct tuple; 0.0 when none appears."""
    for i, key in enumerate(ranked, start=1):
        if key in truth:
            return 1.0 / i
    return 0.0


def mean_rank(ranked: Sequence[BindingTuple], truth: set[BindingTuple]) -> float:
    """Competition-free mean rank of the truth tuples (see module doc)."""
    if not truth:
        raise ValueError("mean_rank needs a non-empty truth set")
    position: dict[BindingTuple, int] = {}
    for i, key in enumerate(ranked, start=1):
        if key in truth and key not in position:
            position[key] = i
    ranks: list[float] = []
    for key in truth:
        pos = position.get(key)
        if pos is None:
            ranks.append(float(len(ranked) + 1))
        else:
            above = sum(1 for other in position.values() if other < pos)
            ranks.append(float(pos - above))
    return sum(ranks) / len(ranks)


class MissingDeletionError(ValueError):
    def __init__(self, missing: list[Triple]):
        super().__init__(f"{len(missing)} deletion(s) not present in the graph")
        self.missing = missing


def corrupt_graph(g: Graph, deletions: Iterable[Triple]) -> Graph:
    """A new graph without the deleted facts; every deletion must exist.
    Ids follow first appearance in the kept SPO rows, as GraphBuilder
    interns them, but the terms (blank labels too) are the source's."""
    todel = set(deletions)
    missing = [t for t in todel if not g.contains_triple(t)]
    if missing:
        raise MissingDeletionError(sorted(missing))
    index, _, _ = g.ranges()
    dropped = index.pack(*np.array([t.as_tuple() for t in todel], dtype=np.int64).reshape(-1, 3).T)
    rows = np.stack(index.unpack(index.keys[~np.isin(index.keys, dropped)]), axis=1)
    order = first_appearance(rows.ravel())
    renumber = np.empty(g.term_count, dtype=np.int64)
    renumber[order] = np.arange(len(order))
    return Graph([g.term(i) for i in order.tolist()], renumber[rows])


def exact_solutions(g: Graph, q: Query) -> set[BindingTuple]:
    """Binding tuples (sorted-variable order, N-Triples forms) of all
    exact solutions of the query's patterns."""
    probe = Query(QueryForm.SELECT, q.patterns, tuple(sorted(q.variables())), True, q.prefixes)
    result = evaluate_bgp(g, probe)
    columns = [result.variables.index(v) for v in sorted(result.variables)]
    return {tuple(g.term(t).nt() for t in row) for row in result.rows[:, columns].tolist()}


@dataclass
class BenchCase:
    name: str
    query: Query
    deletions: list[Triple]
    truth: set[BindingTuple] | None = None  # None: derive from the source graph


@dataclass
class BenchRow:
    name: str
    rr: float | None = None
    mr: float | None = None
    candidates: int = 0
    truth_size: int = 0
    elapsed: float = 0.0
    error: str | None = None


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.rows if r.error is not None)

    @property
    def mean_rr(self) -> float | None:
        vals = [r.rr for r in self.rows if r.error is None]
        return sum(vals) / len(vals) if vals else None

    @property
    def mean_mr(self) -> float | None:
        vals = [r.mr for r in self.rows if r.error is None]
        return sum(vals) / len(vals) if vals else None


def run_benchmark(
    g: Graph,
    cases: Sequence[BenchCase],
    embed_config: EmbeddingConfig | None = None,
    embeddings: EmbeddingSet | None = None,
    threshold: int = DEFAULT_THRESHOLD,
    top_k: int | None = None,
    per_tree_limit: int = DEFAULT_PER_TREE_LIMIT,
    uniform_f: float | None = None,
) -> BenchReport:
    """Run every case, charging metrics against the original exact answers.

    By default a fresh embedding set is trained on each corrupted graph
    (the deleted facts then carry no direct training signal); passing
    ``embeddings`` reuses one set trained on the source graph instead.
    A case failure is recorded on its row and does not stop the run.
    ``top_k=None`` ranks every surviving candidate.
    """
    if embeddings is None and embed_config is None:
        raise ValueError("run_benchmark needs embed_config or embeddings")
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
            emb = embeddings if embeddings is not None else train(corrupted, embed_config)
            req = RecommendRequest(
                query=case.query,
                embeddings=emb,
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


# -- manifest loading --------------------------------------------------


@dataclass
class ManifestEntry:
    name: str
    query_path: Path
    deletions_path: Path
    truth_path: Path | None


def load_manifest(path: str | Path) -> list[ManifestEntry]:
    """Read a benchmark manifest.

    One case per non-comment line: ``query-file  deletions-file
    [truth-file]``, whitespace separated, paths relative to the manifest.
    ``-`` (or omission) in the truth column derives the truth from the
    source graph. Case names are the query file stems, deduplicated.
    """
    path = Path(path)
    base = path.parent
    entries: list[ManifestEntry] = []
    names: set[str] = set()
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"{path}:{lineno}: expected 2 or 3 columns, got {len(parts)}")
        query_path = base / parts[0]
        deletions_path = base / parts[1]
        truth_path = None
        if len(parts) == 3 and parts[2] != "-":
            truth_path = base / parts[2]
        name = query_path.stem
        n = 2
        while name in names:
            name = f"{query_path.stem}-{n}"
            n += 1
        names.add(name)
        entries.append(ManifestEntry(name, query_path, deletions_path, truth_path))
    return entries
