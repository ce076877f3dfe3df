"""Translation-based knowledge-graph embeddings and plausibility scores.

Three model families share one training loop: plain translations
(``transe``, g = ||h + r - t||), hyperplane projections (``transh``,
entities projected onto a per-relation hyperplane before translating),
and per-relation linear maps (``transr``, entities mapped into a
relation space by a matrix). Training minimizes the margin ranking loss

    sum over (pos, neg) of max(0, margin + g(pos) - g(neg))

with minibatch SGD and uniform negative sampling. Each epoch draws all
its negatives at once: every positive is repeated once per negative,
a fair coin picks the head or the tail, and a uniform entity replaces
it; the corruptions that are known triples of the graph (rdf:type ones
too) are found with one vectorised lookup and redrawn, coin and entity
afresh, for at most ``SAMPLER_ROUNDS`` draws in all. Batches are slices
of the epoch's pairs. A step scatters the batch's whole gradient
(relations, normals or maps, and the entity rows it touches) with one
``np.bincount`` over disjoint blocks of bins, and updates only the
entity rows it touches, projecting them back into the unit ball;
relations, hyperplane normals (kept unit) and maps are updated whole.
Each :func:`train` allocates one workspace, sized to the largest batch
it makes, and every step writes its gathers and intermediate results
there, so a step allocates little more than the scatter's sums. The
number of negatives redrawn in each epoch is kept beside its loss.

Membership triples (rdf:type) are excluded from the relational batches
by default; classes are handled through aggregated type vectors instead:

* the type vector of a class is the mean of its instances' entity rows
  (falling back to the class's own row, then to the zero vector),
* the extended score of (h, rdf:type, c) is the raw entity-space
  distance ||h - typevec(c)||, any model, no projection,
* the plausibility f of an edge, computed by
  :func:`trq.scoring.score_table` alone, is 1 when the graph contains
  the triple and 1 / (1 + extended score) otherwise, so it always lies
  in (0, 1].

:func:`train` numbers its rows from the graph's SPO key columns:
entities by first appearance as subject or object, relations by first
appearance as predicate. So graphs with the same keys and the same
SPO-ordered triples train byte-identical sets under one config.

An :class:`EmbeddingSet` is data only. Scores read term ids of one
graph, so they live on the :class:`BoundEmbeddings` view ``bind(g)``
returns, which aligns each id with its rows once and is never rebound.

One kernel, :func:`_batch_scores`, evaluates g for training batches and
for query-time scoring alike, and one function, :func:`_pair_grads`,
computes the margin loss's gradient. Both write into a workspace's
buffers through ufunc ``out=`` arguments, with the operations of the
plain expressions in the same order, so their bits do not depend on
the buffers. :meth:`BoundEmbeddings.score_rows` is the only scorer of
term ids: it scores id columns (one row or many) through the kernel,
``SCORE_CHUNK`` rows per call in one workspace of that size, plus the rdf:type
rows against type vectors, and marks rows with a term that has no
embedding row. Training stops at the first epoch that leaves a
non-finite value with :class:`NonFiniteEmbeddingError`.

Embedding file format (``TRQE``, version 1, little endian)::

    magic      4 bytes  b"TRQE"
    version    u16
    model      u8   (1 transe, 2 transh, 3 transr)
    norm       u8   (1 L1, 2 L2)
    dim        u32
    rel_dim    u32
    margin     f64
    entity_count   u64
    relation_count u64
    entity terms   (kind u8, byte_len u32, utf-8) in row order
    relation terms (kind u8, byte_len u32, utf-8) in row order
    entity matrix    f32, row-major, entity_count x dim
    relation matrix  f32, row-major, relation_count x rel_dim
    [transh] normals f32, relation_count x dim
    [transr] maps    f32, relation_count x rel_dim x dim

The term tables hold the same entries as a TRQG dictionary, and a set
keeps them as they are read, in two :class:`~trq.store.TermTable`
objects: rows are indexed by entry bytes, and :meth:`EmbeddingSet.bind`
aligns them with a graph's ids by looking the graph's entries up, so
neither load nor bind decodes a term.

:mod:`trq.binio` writes and reads the layout and checks it. The loader
also rejects non-positive dimensions, a margin that is not a positive
number, non-finite matrix values and a term listed twice in the entity
or the relation table with :class:`EmbeddingFormatError`.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from io import BufferedIOBase
from pathlib import Path

import numpy as np

from .binio import read_body, read_header, read_source, term_of, write_file
from .store import Graph, TermTable, first_appearance
from .terms import Term, TermId

TRANSE, TRANSH, TRANSR = "transe", "transh", "transr"
MODELS = (TRANSE, TRANSH, TRANSR)
NORMS = ("l1", "l2")

EMBED_MAGIC = b"TRQE"
EMBED_VERSION = 1
_MODEL_TAGS = {TRANSE: 1, TRANSH: 2, TRANSR: 3}
_TAG_MODELS = {v: k for k, v in _MODEL_TAGS.items()}
_HEADER = struct.Struct("<HBBIIdQQ")

# Model rows scored per kernel call at query time: a TransR call gathers
# at most SCORE_CHUNK x rel_dim x dim map entries.
SCORE_CHUNK = 1024


class EmbeddingFormatError(ValueError):
    """Raised for a corrupt or mismatched embedding file."""


class NonFiniteEmbeddingError(ValueError):
    """Training diverged: an embedding value is infinite or NaN."""


@dataclass
class EmbeddingConfig:
    model: str = TRANSE
    dim: int = 50
    rel_dim: int | None = None  # transr relation-space width; defaults to dim
    margin: float = 1.0
    learning_rate: float = 0.01
    epochs: int = 200
    batch_size: int = 128
    negatives_per_positive: int = 1
    norm: str = "l1"
    seed: int = 0
    include_type_triples: bool = False

    def resolved_rel_dim(self) -> int:
        return self.dim if self.rel_dim is None else self.rel_dim

    def validate(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}, expected one of {MODELS}")
        if self.norm not in NORMS:
            raise ValueError(f"unknown norm {self.norm!r}, expected one of {NORMS}")
        for name in ("dim", "epochs", "batch_size", "negatives_per_positive"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("margin", "learning_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value}")
        if self.model != TRANSR and self.rel_dim not in (None, self.dim):
            raise ValueError("rel_dim must equal dim unless the model is transr")
        if self.resolved_rel_dim() < 1:
            raise ValueError("rel_dim must be positive")


# -- shared score / gradient core --------------------------------------


def _norm_values(d: np.ndarray, norm: str) -> np.ndarray:
    if norm == "l1":
        return np.abs(d).sum(axis=1)
    return np.sqrt((d * d).sum(axis=1))


def _row_norms(x: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of ``x`` into ``out``: the reduction
    ``np.linalg.norm(x, axis=1)`` runs, so the same bits."""
    return np.sqrt(np.add.reduce(np.multiply(x, x, out=scratch), axis=1, out=out), out=out)


class _Workspace:
    """The buffers of the scoring kernel and of the training step.

    It holds ``rows`` kernel rows: one :func:`_batch_scores` call of up to
    ``rows`` rows, or one step of up to ``rows // 2`` pairs. A step also
    needs ``n_ent`` and ``n_rel`` (0 for a scoring-only workspace) for the
    entity mark and slot arrays and the scatter's bins and weights. Calls
    write into the leading rows of each buffer, so a training step
    allocates only a few small index arrays and the scatter's sums.
    """

    def __init__(self, model: str, rows: int, dim: int, rel_dim: int, n_ent: int = 0, n_rel: int = 0):
        self.he, self.te = np.empty((rows, dim)), np.empty((rows, dim))
        self.d, self.sq = np.empty((rows, rel_dim)), np.empty((rows, rel_dim))
        self.values, self.col = np.empty(rows), np.empty(rows)
        self.tmp = None if model == TRANSE else np.empty((rows, dim))
        self.w = np.empty((rows, dim)) if model == TRANSH else None
        self.m = np.empty((rows, rel_dim, dim)) if model == TRANSR else None
        if not n_ent:
            return
        self.hrt = np.empty((3, rows), dtype=np.int64)
        self.hinge, self.dead = np.empty(rows // 2), np.empty(rows // 2, dtype=bool)
        self.rel_key, self.key = np.empty(rows, dtype=np.int64), np.empty(2 * rows, dtype=np.int64)
        # the head, then the tail entity of each kernel row; n_ent is none
        self.ent_ids, self.ent_key = np.empty(2 * rows, dtype=np.int64), np.empty(2 * rows, dtype=np.int64)
        self.mark = np.zeros(n_ent + 1, dtype=bool)  # all False between steps
        self.slot = np.empty(n_ent + 1, dtype=np.int64)
        touched = min(2 * rows, n_ent)
        self.sub, self.ent_norm, self.rel_norm = np.empty((touched, dim)), np.empty(touched), np.empty(n_rel)
        self.iota = np.arange(touched)
        extra = _extra_width(model, dim, rel_dim)
        self.bins = np.empty(rows * (rel_dim + extra + 2 * dim), dtype=np.int64)
        self.weights = np.empty(len(self.bins))
        # 0 .. width - 1 once per row of each block of the scatter
        self.cols = {}
        for width, count in ((rel_dim, rows), (extra, rows), (dim, 2 * rows)):
            if len(self.cols.get(width, ())) < width * count:
                self.cols[width] = np.tile(np.arange(width), count)


def _extra_width(model: str, dim: int, rel_dim: int) -> int:
    """Width of a relation's normal (transh) or map (transr) gradient row."""
    return {TRANSE: 0, TRANSH: dim, TRANSR: rel_dim * dim}[model]


def _take(src: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``src[rows]`` written into ``out``: with no temporary when ``src`` is
    float64 (training), through one when it is float32 (a stored set)."""
    if src.dtype == out.dtype:
        # mode="raise" would buffer ``out``; every row index here is in range
        return np.take(src, rows, axis=0, out=out, mode="clip")
    out[...] = src[rows]
    return out


def _spread(col: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``col[:, None]`` copied into every column of ``out``. numpy buffers
    a ufunc operand that broadcasts, at up to 64 KiB a call; a plain copy
    followed by a same-shape ufunc allocates nothing."""
    np.copyto(out, col[:, None])
    return out


def _batch_scores(ws, model, norm, ent, rel, normals, maps, h, r, t):
    """Scores g(h, r, t) of row-index arrays: the one evaluation of the
    models, at float64, for training batches and query-time scoring alike.

    The results land in the first ``len(h)`` rows of the workspace ``ws``:
    the gathered ``he`` and ``te``, ``w`` (transh) or ``m`` (transr), the
    residual ``d`` whose norm is g, and the returned scores, ``values``.
    The gradient reads them there. Each operation is one of the plain
    expression's, such as ``(he - hw w) + r - (te - tw w)`` for transh, in
    the same order, so the bits do not depend on the buffers.
    """
    n = len(h)
    he, te = _take(ent, h, ws.he[:n]), _take(ent, t, ws.te[:n])
    d, sq, values = _take(rel, r, ws.d[:n]), ws.sq[:n], ws.values[:n]
    if model == TRANSE:
        np.add(he, d, out=d)
        np.subtract(d, te, out=d)
    elif model == TRANSH:
        w, tmp, col = _take(normals, r, ws.w[:n]), ws.tmp[:n], ws.col[:n]
        np.add.reduce(np.multiply(he, w, out=tmp), axis=1, out=col)
        np.subtract(he, np.multiply(_spread(col, tmp), w, out=tmp), out=tmp)
        np.add(tmp, d, out=d)
        np.add.reduce(np.multiply(te, w, out=tmp), axis=1, out=col)
        np.subtract(te, np.multiply(_spread(col, tmp), w, out=tmp), out=tmp)
        np.subtract(d, tmp, out=d)
    else:
        m = _take(maps, r, ws.m[:n])
        np.add(np.einsum("bij,bj->bi", m, he, out=sq), d, out=d)
        np.subtract(d, np.einsum("bij,bj->bi", m, te, out=sq), out=d)
    if norm == "l1":
        np.add.reduce(np.abs(d, out=sq), axis=1, out=values)
    else:
        np.sqrt(np.add.reduce(np.multiply(d, d, out=sq), axis=1, out=values), out=values)
    return values


def _fill_bins(ws: _Workspace, at: int, key: np.ndarray, width: int, base: int) -> int:
    """Writes the bins ``base + key * width + column`` of each key, row by
    row, into ``ws.bins`` from ``at``; returns where they end."""
    end = at + len(key) * width
    first = np.multiply(key, width, out=ws.key[: len(key)])
    np.add(first, base, out=first)
    bins = ws.bins[at:end]
    np.copyto(bins.reshape(len(key), width), first[:, None])
    np.add(bins, ws.cols[width][: end - at], out=bins)
    return end


def _pair_grads(ws, model, norm, margin, ent, rel, normals, maps, pos, neg):
    """Mean margin loss of explicit pairs and its exact gradients.

    Returns (loss, rows, grads): ``rows`` are the distinct entity rows
    the gradient touches, ascending, ``grads['entities']`` their gradient
    rows in that order, and 'relations', 'normals' (transh) and 'maps'
    (transr) are dense. Pairs within the margin add nothing.

    The touched rows come from the workspace's mark array. Every gradient
    is a view of the sums of one ``np.bincount`` over disjoint blocks of
    bins: relations, then normals or maps, then entities. Each block has
    a spare row past its last, which takes the rows of the pairs within
    the margin. Each bin still sums its inputs in the order of the
    separate scatters: kernel rows in order, and heads before tails.
    """
    n, k = len(pos), 2 * len(pos)
    n_ent, n_rel, dim, rel_dim = len(ent), len(rel), ent.shape[1], rel.shape[1]
    h, r, t = np.concatenate([pos.T, neg.T], axis=1, out=ws.hrt[:, :k])
    values = _batch_scores(ws, model, norm, ent, rel, normals, maps, h, r, t)
    hinge, dead = ws.hinge[:n], ws.dead[:n]
    np.subtract(np.add(values[:n], margin, out=hinge), values[n:], out=hinge)
    np.logical_not(np.greater(hinge, 0.0, out=dead), out=dead)
    loss = float(np.add.reduce(np.maximum(hinge, 0.0, out=hinge)) / n)

    # The weights: u = +-(dg/dd) / n of every kernel row, the row's normal
    # or map gradient, then du for its head and -du for its tail.
    extra = _extra_width(model, dim, rel_dim)
    u = ws.weights[: k * rel_dim].reshape(k, rel_dim)
    ge = ws.weights[k * rel_dim : k * (rel_dim + extra)].reshape(k, extra)
    ent_w = ws.weights[k * (rel_dim + extra) : k * (rel_dim + extra + 2 * dim)].reshape(2 * k, dim)
    d, he, te, sq, col = ws.d[:k], ws.he[:k], ws.te[:k], ws.sq[:k], ws.col[:k]
    if norm == "l1":
        np.sign(d, out=u)
    else:
        np.divide(d, _spread(np.maximum(values, 1e-12, out=col), u), out=u)
    np.multiply(u[:n], 1.0 / n, out=u[:n])
    np.multiply(u[n:], -1.0 / n, out=u[n:])
    du = ent_w[:k]
    if model == TRANSE:
        np.copyto(du, u)
    elif model == TRANSH:
        w, a = ws.w[:k], np.subtract(te, he, out=ws.tmp[:k])
        uw = np.add.reduce(np.multiply(u, w, out=sq), axis=1, out=col)
        np.subtract(u, np.multiply(_spread(uw, du), w, out=du), out=du)
        np.multiply(_spread(uw, ge), a, out=ge)
        wa = np.add.reduce(np.multiply(w, a, out=sq), axis=1, out=col)
        np.add(ge, np.multiply(_spread(wa, sq), u, out=sq), out=ge)
    else:
        np.einsum("bij,bi->bj", ws.m[:k], u, out=du)
        np.einsum("bi,bj->bij", u, np.subtract(he, te, out=ws.tmp[:k]), out=ge.reshape(k, rel_dim, dim))
    np.negative(du, out=ent_w[k:])

    # The bin keys: the spare relation n_rel and entity n_ent take dead rows.
    rel_key = ws.rel_key[:k]
    np.copyto(rel_key, r)
    np.copyto(rel_key.reshape(2, n), n_rel, where=dead)
    ids = np.concatenate([h, t], out=ws.ent_ids[: 2 * k])
    np.copyto(ids.reshape(4, n), n_ent, where=dead)
    mark, slot = ws.mark, ws.slot
    mark[ids] = True
    mark[n_ent] = False
    rows = np.flatnonzero(mark)
    mark[rows] = False
    slot[rows] = ws.iota[: len(rows)]
    slot[n_ent] = len(rows)
    ent_key = np.take(slot, ids, out=ws.ent_key[: 2 * k], mode="clip")

    at = _fill_bins(ws, 0, rel_key, rel_dim, 0)
    if extra:
        at = _fill_bins(ws, at, rel_key, extra, (n_rel + 1) * rel_dim)
    ent_base = (n_rel + 1) * (rel_dim + extra)
    at = _fill_bins(ws, at, ent_key, dim, ent_base)
    sums = np.bincount(ws.bins[:at], weights=ws.weights[:at], minlength=ent_base + (len(rows) + 1) * dim)
    grads = {"relations": sums[: n_rel * rel_dim].reshape(n_rel, rel_dim)}
    start = (n_rel + 1) * rel_dim
    if model == TRANSH:
        grads["normals"] = sums[start : start + n_rel * extra].reshape(n_rel, dim)
    elif model == TRANSR:
        grads["maps"] = sums[start : start + n_rel * extra].reshape(n_rel, rel_dim, dim)
    grads["entities"] = sums[ent_base : ent_base + len(rows) * dim].reshape(len(rows), dim)
    return loss, rows, grads


def _train_step(ws, model, norm, margin, learning_rate, ent, rel, normals, maps, pos, neg) -> float:
    """One SGD step on a batch of pairs, in place; returns its mean loss.

    Only the entity rows the gradient touches change, and only they are
    projected back into the unit ball. Relations, normals (renormalized
    to unit length) and maps have one row per relation and are updated
    whole. The step's intermediates live in the workspace ``ws``.
    """
    loss, rows, grads = _pair_grads(ws, model, norm, margin, ent, rel, normals, maps, pos, neg)
    g = grads["entities"]
    sub = _take(ent, rows, ws.sub[: len(rows)])
    np.subtract(sub, np.multiply(g, learning_rate, out=g), out=sub)
    # x / 1 is x, so rows inside the ball (and NaN rows) stay as they are
    norms = np.fmax(_row_norms(sub, g, ws.ent_norm[: len(rows)]), 1.0, out=ws.ent_norm[: len(rows)])
    np.divide(sub, _spread(norms, g), out=sub)
    ent[rows] = sub
    for param, name in ((rel, "relations"), (normals, "normals"), (maps, "maps")):
        if name in grads:
            np.subtract(param, np.multiply(grads[name], learning_rate, out=grads[name]), out=param)
    if normals is not None:
        gn = grads["normals"]
        norms = _row_norms(normals, gn, ws.rel_norm)
        np.divide(normals, _spread(np.maximum(norms, 1e-12, out=norms), gn), out=normals)
    return loss


# -- embedding set ------------------------------------------------------


@dataclass(eq=False)
class EmbeddingSet:
    """Trained (or loaded) embedding rows keyed by term.

    ``entity_keys`` and ``relation_keys`` name each row's term by its
    table entry (:func:`~trq.binio.term_key`), the bytes TRQG and TRQE
    files hold; ``entity_table`` and ``relation_table`` give an entry's
    row. ``entity_terms`` and ``relation_terms`` decode them.

    The set holds no graph. Scores read term ids of one graph, so they
    live on the :class:`BoundEmbeddings` view that :meth:`bind` returns.
    """

    model: str
    norm: str
    dim: int
    rel_dim: int
    margin: float
    entity_keys: list[bytes]
    relation_keys: list[bytes]
    entity_vecs: np.ndarray
    relation_vecs: np.ndarray
    normals: np.ndarray | None = None
    maps: np.ndarray | None = None
    losses: list[float] = field(default_factory=list, repr=False)
    # negatives redrawn per epoch as known triples; training telemetry,
    # not stored in TRQE files
    sampler_redraws: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.entity_table = TermTable(self.entity_keys, "entity")
        self.relation_table = TermTable(self.relation_keys, "relation")
        self._view: BoundEmbeddings | None = None  # bind's one-slot cache

    @property
    def entity_count(self) -> int:
        return len(self.entity_keys)

    @property
    def relation_count(self) -> int:
        return len(self.relation_keys)

    @property
    def entity_terms(self) -> list[Term]:
        return list(map(term_of, self.entity_keys))

    @property
    def relation_terms(self) -> list[Term]:
        return list(map(term_of, self.relation_keys))

    def bind(self, g: Graph) -> BoundEmbeddings:
        """The view of this set over ``g``. The last view built is returned
        again for the same graph, so a caller may bind ahead of time. The
        alignment reads the term table alone, so a graph that shares the
        last view's :class:`~trq.store.TermTable` object (one
        :meth:`~trq.store.Graph.without` made) gets a new view over the
        same rows, with its own type vectors."""
        view = self._view
        if view is None or view.graph is not g:
            if view is not None and view.graph.term_table is g.term_table:
                rows = view.ent_row, view.rel_row
            else:
                rows = self.entity_table.ids(g.term_keys), self.relation_table.ids(g.term_keys)
            view = self._view = BoundEmbeddings(self, g, *rows)
        return view


def _rows(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    out = np.full(len(ids), -1, dtype=np.int64)  # also for ids out of range
    inside = (ids >= 0) & (ids < len(table))
    out[inside] = table[ids[inside]]
    return out


@dataclass(frozen=True, eq=False)
class BoundEmbeddings:
    """An embedding set aligned with the term ids of one graph.

    Made by :meth:`EmbeddingSet.bind` and never rebound: ``ent_row`` and
    ``rel_row`` (read-only) give each term id of ``graph`` its entity and
    relation row, -1 for none, and every score reads ids of ``graph``.
    Type vectors are memoized per class.
    """

    embeddings: EmbeddingSet
    graph: Graph
    ent_row: np.ndarray
    rel_row: np.ndarray
    _type_cache: dict[TermId, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.ent_row.setflags(write=False)
        self.rel_row.setflags(write=False)

    def score_rows(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Extended scores of int64 id columns (one row or many), and the
        mask of the rows whose terms have the embedding rows the score
        reads; an unscored row, an id outside the graph included, is 0.

        A row on the graph's rdf:type scores ||h - typevec(t)||, the raw
        entity-space distance to the class's type vector (no projection,
        any model); every other row gets the model score g(h, r, t),
        lower meaning more plausible, in ``SCORE_CHUNK``-row kernel
        calls. Graph membership is not looked up.
        """
        e = self.embeddings
        hrow = _rows(self.ent_row, h)
        trow = _rows(self.ent_row, t)
        rrow = _rows(self.rel_row, r)
        type_id = self.graph.rdf_type_id
        is_type = np.zeros(len(r), dtype=bool) if type_id is None else r == type_id
        scored = (hrow >= 0) & (is_type | ((trow >= 0) & (rrow >= 0)))
        values = np.zeros(len(h))
        rows = np.flatnonzero(scored & is_type)
        if len(rows):
            classes, inverse = np.unique(t[rows], return_inverse=True)
            tv = np.stack([self.type_vector(ty) for ty in classes.tolist()])[inverse]
            values[rows] = _norm_values(e.entity_vecs[hrow[rows]].astype(np.float64) - tv, e.norm)
        rows = np.flatnonzero(scored & ~is_type)
        ws = _Workspace(e.model, min(SCORE_CHUNK, len(rows)), e.dim, e.rel_dim)
        for start in range(0, len(rows), SCORE_CHUNK):
            part = rows[start : start + SCORE_CHUNK]
            values[part] = _batch_scores(
                ws, e.model, e.norm, e.entity_vecs, e.relation_vecs, e.normals, e.maps, hrow[part], rrow[part], trow[part]
            )
        return values, scored

    def type_vector(self, ty: TermId) -> np.ndarray:
        """Mean entity vector of the class's instances (see module doc)."""
        vec = self._type_cache.get(ty)
        if vec is None:
            g = self.graph
            members = np.empty(0, dtype=np.int64)
            if g.rdf_type_id is not None and 0 <= ty < g.term_count:
                index, lo, hi = g.ranges(None, g.rdf_type_id, ty)
                members = index.columns(slice(lo, hi))[0]
            rows = _rows(self.ent_row, members)
            if not (rows >= 0).any():  # no embedded instance: the class's own row
                rows = _rows(self.ent_row, np.array([ty], dtype=np.int64))
            rows = rows[rows >= 0]
            e = self.embeddings
            vec = e.entity_vecs[rows].astype(np.float64).mean(axis=0) if len(rows) else np.zeros(e.dim)
            self._type_cache[ty] = vec
        return vec


# -- training ----------------------------------------------------------


# Draws per negative before the sampler keeps a known triple.
SAMPLER_ROUNDS = 50


def _corrupt(
    rng: np.random.Generator, pos: np.ndarray, n_ent: int, known: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, int]:
    """One negative per row of ``pos``, and how many of them were redrawn.

    Each negative replaces the head or the tail of its positive (a fair
    coin) by a uniform entity row. Where ``known(rows)`` marks a draw as a
    known triple, coin and entity are drawn again, for at most
    ``SAMPLER_ROUNDS`` draws; a negative whose every draw was known keeps
    its last one.
    """
    neg = pos.copy()
    todo = np.arange(len(pos))
    redrawn = 0
    for draw in range(SAMPLER_ROUNDS):
        head = rng.random(len(todo)) < 0.5
        ents = rng.integers(n_ent, size=len(todo))
        cand = pos[todo]
        cand[head, 0] = ents[head]
        cand[~head, 2] = ents[~head]
        neg[todo] = cand
        todo = todo[known(cand)]
        if draw == 0:
            redrawn = len(todo)
        if len(todo) == 0:
            break
    return neg, redrawn


def train(g: Graph, cfg: EmbeddingConfig) -> EmbeddingSet:
    """Train an embedding set on the graph's relational triples.

    The rows are numbered from the graph's SPO key columns: entities by
    first appearance as subject or object (a triple's subject before its
    object), relations by first appearance as predicate. So every
    subject/object gets an entity row and every predicate a relation row,
    rdf:type itself included even when type triples are excluded from the
    batches. The training triples are the graph's triples in SPO order,
    those on rdf:type left out unless ``include_type_triples``.

    Nothing else of the graph is read: the sampler asks only whether a
    candidate on a training relation is known, and every triple of the
    graph on such a relation is a training triple. So graphs with the
    same keys and the same SPO-ordered triples train byte-identical sets
    under one config; the ids are each graph's own numbering and take no
    part. The sampler is a seeded PCG64 generator and all updates run in
    a fixed order. Only the final rows are stored, as float32; training
    math runs at float64.
    """
    cfg.validate()
    if g.triple_count == 0:
        raise ValueError("cannot train embeddings on an empty graph")

    index, _, _ = g.ranges()
    s, p, o = index.columns()
    ent_ids = first_appearance(np.stack([s, o], axis=1).ravel())
    rel_ids = first_appearance(p)
    ent_row = np.full(g.term_count, -1, dtype=np.int64)
    rel_row = np.full(g.term_count, -1, dtype=np.int64)
    ent_row[ent_ids] = np.arange(len(ent_ids))
    rel_row[rel_ids] = np.arange(len(rel_ids))
    triples = np.stack([ent_row[s], rel_row[p], ent_row[o]], axis=1)
    if not cfg.include_type_triples and g.rdf_type_id is not None:
        triples = triples[p != g.rdf_type_id]
    n_ent, n_rel = len(ent_ids), len(rel_ids)
    dim, rel_dim = cfg.dim, cfg.resolved_rel_dim()

    def known(cand: np.ndarray) -> np.ndarray:
        return g.contains_rows(ent_ids[cand[:, 0]], rel_ids[cand[:, 1]], ent_ids[cand[:, 2]])

    rng = np.random.default_rng(cfg.seed)
    bound = 6.0 / np.sqrt(dim)
    ent = rng.uniform(-bound, bound, (n_ent, dim))
    ent /= np.maximum(np.linalg.norm(ent, axis=1, keepdims=True), 1e-12)
    rel = rng.uniform(-6.0 / np.sqrt(rel_dim), 6.0 / np.sqrt(rel_dim), (n_rel, rel_dim))
    rel /= np.maximum(np.linalg.norm(rel, axis=1, keepdims=True), 1e-12)
    normals = maps = None
    if cfg.model == TRANSH:
        normals = rng.uniform(-bound, bound, (n_rel, dim))
        normals /= np.maximum(np.linalg.norm(normals, axis=1, keepdims=True), 1e-12)
    if cfg.model == TRANSR:
        maps = np.tile(np.eye(rel_dim, dim), (n_rel, 1, 1))

    params = [x for x in (ent, rel, normals, maps) if x is not None]
    losses: list[float] = []
    redraws: list[int] = []
    k = cfg.negatives_per_positive
    batch = cfg.batch_size * k
    # sized to the largest batch this run makes, not to the flag
    ws = _Workspace(cfg.model, 2 * min(batch, len(triples) * k), dim, rel_dim, n_ent, n_rel)
    for epoch in range(1, cfg.epochs + 1):
        if len(triples) == 0:
            losses.append(0.0)
            redraws.append(0)
            continue
        pos = np.repeat(triples[rng.permutation(len(triples))], k, axis=0)
        neg, redrawn = _corrupt(rng, pos, n_ent, known)
        loss_sum = 0.0
        # a diverging epoch overflows quietly; the check after it names it
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(pos), batch):
                part = slice(start, start + batch)
                loss = _train_step(
                    ws, cfg.model, cfg.norm, cfg.margin, cfg.learning_rate,
                    ent, rel, normals, maps, pos[part], neg[part],
                )
                loss_sum += loss * len(pos[part])
        if not all(np.isfinite(x).all() for x in params):
            raise NonFiniteEmbeddingError(
                f"training diverged: non-finite embedding values in epoch {epoch} of {cfg.epochs} "
                f"at learning_rate {cfg.learning_rate}; lower the learning rate"
            )
        losses.append(loss_sum / len(pos))
        redraws.append(redrawn)

    with np.errstate(over="ignore"):  # values beyond float32 become inf, rejected below
        vecs = [x.astype(np.float32) for x in params]
    if not all(np.isfinite(x).all() for x in vecs):
        raise NonFiniteEmbeddingError(
            f"training diverged: non-finite embedding values after {cfg.epochs} epochs "
            f"at learning_rate {cfg.learning_rate}; lower the learning rate"
        )
    keys = g.term_keys
    return EmbeddingSet(
        model=cfg.model,
        norm=cfg.norm,
        dim=dim,
        rel_dim=rel_dim,
        margin=cfg.margin,
        entity_keys=[keys[tid] for tid in ent_ids.tolist()],
        relation_keys=[keys[tid] for tid in rel_ids.tolist()],
        entity_vecs=vecs[0],
        relation_vecs=vecs[1],
        normals=vecs[2] if cfg.model == TRANSH else None,
        maps=vecs[2] if cfg.model == TRANSR else None,
        losses=losses,
        sampler_redraws=redraws,
    )


# -- file I/O ----------------------------------------------------------


def _matrix_shapes(model: str, n_ent: int, n_rel: int, dim: int, rel_dim: int) -> list[tuple[int, ...]]:
    """Shapes of the matrices a TRQE file holds, in file order."""
    shapes = [(n_ent, dim), (n_rel, rel_dim)]
    if model == TRANSH:
        shapes.append((n_rel, dim))
    if model == TRANSR:
        shapes.append((n_rel, rel_dim, dim))
    return shapes


def save_embeddings(emb: EmbeddingSet, dest: str | Path | BufferedIOBase) -> None:
    """Write the set in the TRQE binary format (float32 matrices;
    atomically to a path)."""
    tags = (_MODEL_TAGS[emb.model], 1 if emb.norm == "l1" else 2)
    counts = (emb.entity_count, emb.relation_count)
    head = EMBED_MAGIC + _HEADER.pack(EMBED_VERSION, *tags, emb.dim, emb.rel_dim, emb.margin, *counts)
    extra = {TRANSE: [], TRANSH: [emb.normals], TRANSR: [emb.maps]}[emb.model]
    matrices = [np.asarray(m, dtype="<f4") for m in [emb.entity_vecs, emb.relation_vecs] + extra]
    write_file(dest, head, [emb.entity_keys, emb.relation_keys], matrices)


def load_embeddings(src: str | Path | BufferedIOBase) -> EmbeddingSet:
    """Read a TRQE file; a malformed file of any kind raises
    :class:`EmbeddingFormatError` (see the module doc)."""
    data = read_source(src)
    error, name = EmbeddingFormatError, "embedding file"
    (tag, norm_tag, dim, rel_dim, margin, n_ent, n_rel), pos = read_header(
        data, EMBED_MAGIC, _HEADER.format, EMBED_VERSION, error, name
    )
    model = _TAG_MODELS.get(tag)
    if model is None:
        raise EmbeddingFormatError(f"unknown model tag {tag}")
    if norm_tag not in (1, 2):
        raise EmbeddingFormatError(f"unknown norm tag {norm_tag}")
    if dim < 1 or rel_dim < 1:
        raise EmbeddingFormatError(f"dim {dim} and rel_dim {rel_dim} must be positive")
    if model != TRANSR and rel_dim != dim:
        raise EmbeddingFormatError(f"rel_dim {rel_dim} differs from dim {dim} in a {model} file")
    if not math.isfinite(margin) or margin <= 0:
        raise EmbeddingFormatError(f"margin {margin} is not a positive number")
    shapes = _matrix_shapes(model, n_ent, n_rel, dim, rel_dim)
    (ent_keys, rel_keys), views = read_body(data, pos, [n_ent, n_rel], "<f4", shapes, error, name)
    if not all(np.isfinite(m).all() for m in views):
        raise EmbeddingFormatError("embedding matrices hold a non-finite value")
    matrices = [m.copy() for m in views]
    try:
        return EmbeddingSet(
            model=model,
            norm="l1" if norm_tag == 1 else "l2",
            dim=dim,
            rel_dim=rel_dim,
            margin=margin,
            entity_keys=ent_keys,
            relation_keys=rel_keys,
            entity_vecs=matrices[0],
            relation_vecs=matrices[1],
            normals=matrices[2] if model == TRANSH else None,
            maps=matrices[2] if model == TRANSR else None,
        )
    except ValueError as exc:  # a table lists a term twice
        raise EmbeddingFormatError(str(exc)) from exc
