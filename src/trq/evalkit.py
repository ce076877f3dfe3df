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
A run trains one model with every case's deletions held out, as link
prediction holds out every test fact (Bordes et al., NIPS 2013, section 4).

:func:`load_cases` reads a manifest's files with :func:`~trq.ntriples.read_lines`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .embedding import EmbeddingConfig, EmbeddingSet, train
from .ntriples import NTriplesError, parse_line, parse_term, read_lines
from .recommend import (
    DEFAULT_PER_TREE_LIMIT,
    DEFAULT_THRESHOLD,
    RecommendRequest,
    recommend,
    validate_settings,
)
from .sparql import Query, evaluate_bgp, parse_query, resolve_patterns
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
    """Competition-free mean rank of the truth tuples (see module doc), in
    one walk of the ranking: a truth tuple's rank is its position minus
    the truth tuples found before it."""
    if not truth:
        raise ValueError("mean_rank needs a non-empty truth set")
    found: set[BindingTuple] = set()
    total = 0
    for i, key in enumerate(ranked, start=1):
        if key in truth and key not in found:
            total += i - len(found)
            found.add(key)
    total += (len(truth) - len(found)) * (len(ranked) + 1)
    return total / len(truth)


class MissingDeletionError(ValueError):
    """Deletions the graph does not hold. ``missing`` maps each one to
    its N-Triples line, which the message names; the attribute keeps the
    triples."""

    def __init__(self, missing: dict[Triple, str]):
        super().__init__(f"{len(missing)} deletion(s) not present in the graph: " + " ".join(missing.values()))
        self.missing = list(missing)


def _nt_line(g: Graph, t: Triple) -> str:
    return " ".join(g.term(x).nt() if 0 <= x < g.term_count else f"(term id {x})" for x in t) + " ."


def _deletion_rows(g: Graph, deletions: Iterable[Triple]) -> np.ndarray:
    """The distinct deletions as an (n, 3) id array; one ``contains_rows``
    lookup raises :class:`MissingDeletionError` if the graph lacks any."""
    todel = sorted(set(deletions))
    rows = np.array(todel, dtype=np.int64).reshape(-1, 3)
    present = ((rows >= 0) & (rows < g.term_count)).all(axis=1)
    present[present] = g.contains_rows(*rows[present].T)
    if not present.all():
        raise MissingDeletionError({t: _nt_line(g, t) for t, ok in zip(todel, present.tolist()) if not ok})
    return rows


def corrupt_graph(g: Graph, deletions: Iterable[Triple]) -> Graph:
    """A new graph without the deleted facts, every one of which ``g`` must
    hold, numbered as ``trq ingest`` would number it written out in SPO
    order: ids follow first appearance in the kept SPO triples, but the
    terms (blank labels too) are the source's.

    :meth:`~trq.store.Graph.without` removes the facts and keeps ``g``'s
    ids, which is all a ranking needs; the renumbering is for a graph
    that is trained on or written out, such as :func:`run_benchmark`'s
    one training graph, because :func:`~trq.embedding.train` numbers its
    rows in SPO order and TRQE bytes follow from them."""
    kept = g.without(_deletion_rows(g, deletions))
    index, _, _ = kept.ranges()
    return kept.renumbered(first_appearance(np.stack(index.columns(), axis=1).ravel()))


def exact_solutions(g: Graph, q: Query) -> set[BindingTuple]:
    """Binding tuples (sorted-variable order, N-Triples forms) of all
    exact solutions of the query's patterns."""
    rows = evaluate_bgp(g, resolve_patterns(g, q.patterns)).rows
    return {tuple(g.term(t).nt() for t in row) for row in rows.tolist()}


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
    elapsed: float = 0.0  # the case's own work; training is in BenchReport.train_s
    error: str | None = None


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    train_s: float = 0.0  # the run's one training, 0.0 when nothing trains

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

    By default the run trains one embedding set, on the source graph
    without the deletions of every case whose deletions it holds
    (:func:`corrupt_graph`), and each case ranks with it on its own
    corrupted graph: no case's deleted facts carry training signal. A
    case's graph is ``g.without`` its deletions, over ``g``'s term table
    and ids, so the set is aligned to that table once for the run
    (:meth:`~trq.embedding.EmbeddingSet.bind`); a term the case leaves
    in no fact is unknown to it, as in a re-ingested graph. Each case's
    deletions are checked once. ``train_s`` holds that training, no
    case's ``elapsed``; if it fails, each case that would rank with the
    set records the error. Passing ``embeddings`` reuses one set trained
    on the source graph instead. With ``uniform_f`` no score reads an
    embedding, so nothing is trained and neither source is needed. A
    case failure is recorded on its row and does not stop the run; a
    recommend setting, or a training option of ``embed_config``, out of
    range raises ValueError before any case runs. ``top_k=None`` ranks
    every surviving candidate.
    """
    trains = embeddings is None and uniform_f is None
    if trains and embed_config is None:
        raise ValueError("run_benchmark needs embed_config or embeddings")
    # Once, before the run trains a model it could not use.
    validate_settings(threshold, top_k, per_tree_limit, uniform_f)
    report = BenchReport()
    # each case's deletions as id rows, or the error that rejects them
    deleted: list[np.ndarray | Exception] = []
    for case in cases:
        try:
            deleted.append(_deletion_rows(g, case.deletions))
        except Exception as exc:  # noqa: BLE001 - the case's own row records it below
            deleted.append(exc)
    failed_training = None
    if trains:
        embed_config.validate()
        # the cases whose deletions the graph holds
        present = [case for case, rows in zip(cases, deleted) if not isinstance(rows, Exception)]
        if present:
            started = time.perf_counter()
            held_out = {t for case in present for t in case.deletions}
            try:
                embeddings = train(corrupt_graph(g, held_out), embed_config)
            except Exception as exc:  # noqa: BLE001 - recorded on every case that ranks with it
                failed_training = exc
            report.train_s = time.perf_counter() - started
    for case, rows in zip(cases, deleted):
        row = BenchRow(name=case.name)
        report.rows.append(row)
        started = time.perf_counter()
        try:
            truth = case.truth if case.truth is not None else exact_solutions(g, case.query)
            if not truth:
                raise ValueError("case has an empty truth set")
            if isinstance(rows, Exception):
                raise rows.with_traceback(None)
            if failed_training is not None:
                raise failed_training.with_traceback(None)
            req = RecommendRequest(
                query=case.query,
                embeddings=embeddings,
                threshold=threshold,
                top_k=top_k,
                per_tree_limit=per_tree_limit,
                uniform_f=uniform_f,
            )
            rec = recommend(g.without(rows), req)
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
    path = Path(path)  # a file, even when named "-": its directory anchors the paths
    base = path.parent
    names: set[str] = set()

    def entry(raw: str, lineno: int) -> ManifestEntry | None:
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            return None
        if len(parts) not in (2, 3):
            raise NTriplesError(f"expected 2 or 3 columns, got {len(parts)}", lineno, raw)
        query_path = base / parts[0]
        truth_path = None
        if len(parts) == 3 and parts[2] != "-":
            truth_path = base / parts[2]
        name = query_path.stem
        n = 2
        while name in names:
            name = f"{query_path.stem}-{n}"
            n += 1
        names.add(name)
        return ManifestEntry(name, query_path, base / parts[1], truth_path)

    return read_lines(path, entry)


def load_cases(g: Graph, manifest: str | Path) -> list[BenchCase]:
    """A manifest's cases over ``g``, every file checked before any case
    runs. Deletion terms are looked up as written, so a blank node is
    named by the store's label (``_:b0``, as ``trq query`` prints it). A
    truth line holds one N-Triples term per query variable, tab separated.
    """

    def deletion(line: str, lineno: int) -> Triple | None:
        parsed = parse_line(line, lineno)
        if parsed is None:
            return None
        ids = [g.id(term) for term in parsed]
        if None in ids:
            missing = parsed[ids.index(None)].nt()
            raise NTriplesError(f"deletion references a term not in the store: {missing}", lineno, line)
        return Triple(*ids)

    def truth_key(raw: str, lineno: int) -> BindingTuple | None:
        line = raw.strip()
        if not line or line.startswith("#"):
            return None
        fields = line.split("\t")
        if len(fields) != width:
            raise NTriplesError(f"expected {width} tab-separated fields, got {len(fields)}", lineno, raw)
        return tuple(parse_term(field, lineno).nt() for field in fields)

    cases = []
    for entry in load_manifest(manifest):
        q = parse_query("\n".join(read_lines(entry.query_path)))
        deletions = read_lines(entry.deletions_path, deletion)
        width = len(q.variables())  # read by truth_key
        truth = None if entry.truth_path is None else set(read_lines(entry.truth_path, truth_key))
        cases.append(BenchCase(entry.name, q, deletions, truth))
    if not cases:
        raise ValueError(f"{manifest}: lists no case")
    return cases
