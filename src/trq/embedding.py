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
of the epoch's pairs. A step scatters each batch's gradient with
``np.bincount`` and updates only the entity rows it touches, projecting
them back into the unit ball; relations, hyperplane normals (kept
unit) and maps are updated whole. The number of negatives redrawn in
each epoch is kept beside its loss.

Membership triples (rdf:type) are excluded from the relational batches
by default; classes are handled through aggregated type vectors instead:

* the type vector of a class is the mean of its instances' entity rows
  (falling back to the class's own row, then to the zero vector),
* the extended score of (h, rdf:type, c) is the raw entity-space
  distance ||h - typevec(c)||, any model, no projection,
* the normalized plausibility of a triple is 1 when the graph contains
  it and 1 / (1 + extended score) otherwise, so it always lies in (0, 1].

An :class:`EmbeddingSet` is data only. Scores read term ids of one
graph, so they live on the :class:`BoundEmbeddings` view ``bind(g)``
returns, which aligns each id with its rows once and is never rebound.

One kernel, :func:`_batch_scores`, evaluates g for training batches and
for query-time scoring alike. :meth:`BoundEmbeddings.score_rows` scores
id columns through it, ``SCORE_CHUNK`` rows per call, plus the rdf:type
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

Writes to a path are atomic (a temporary file, then ``os.replace``).
The loader checks every header count against the bytes present before it
allocates, and rejects non-positive dimensions, a margin that is not a
positive number and non-finite matrix values with
:class:`EmbeddingFormatError`.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from io import BufferedIOBase
from pathlib import Path

import numpy as np

from .binio import TERM_HEADER_SIZE, read_source, read_terms, write_file, write_terms
from .store import Graph, first_appearance
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


class UnembeddedTermError(LookupError):
    """A scored term has no row in the embedding set."""


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


def _norm_grads(d: np.ndarray, norm: str, values: np.ndarray) -> np.ndarray:
    if norm == "l1":
        return np.sign(d)
    return d / np.maximum(values, 1e-12)[:, None]


def _batch_scores(model, norm, ent, rel, normals, maps, h, r, t):
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


def _scatter(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sums of the rows of ``values`` into ``n`` rows by ``index``, in input
    order: one ``np.bincount`` over the flattened (row, column) positions."""
    shape = values.shape[1:]
    width = math.prod(shape)
    flat = (index[:, None] * width + np.arange(width)).ravel()
    # bincount of no positions is an int array, whatever the weights
    sums = np.bincount(flat, weights=values.ravel(), minlength=n * width).astype(np.float64, copy=False)
    return sums.reshape((n, *shape))


def _pair_grads(model, norm, margin, ent, rel, normals, maps, pos, neg):
    """Mean margin loss of explicit pairs and its exact gradients.

    Returns (loss, rows, grads): ``rows`` are the distinct entity rows
    the gradient touches, ``grads['entities']`` their gradient rows in
    that order, and 'relations', 'normals' (transh) and 'maps' (transr)
    are dense. Pairs within the margin add nothing.
    """
    n = len(pos)
    both = np.concatenate([pos, neg])
    values, cache = _batch_scores(model, norm, ent, rel, normals, maps, both[:, 0], both[:, 1], both[:, 2])
    hinge = margin + values[:n] - values[n:]
    active = np.flatnonzero(np.tile(hinge > 0, 2))
    coef = np.where(active < n, 1.0 / n, -1.0 / n)
    h, r, t = (cache[x][active] for x in "hrt")
    u = _norm_grads(cache["d"][active], norm, cache["values"][active]) * coef[:, None]
    grads = {"relations": _scatter(r, u, len(rel))}
    if model == TRANSE:
        du = u
    elif model == TRANSH:
        w = cache["w"][active]
        a = cache["te"][active] - cache["he"][active]
        uw = (u * w).sum(axis=1)
        du = u - uw[:, None] * w
        grads["normals"] = _scatter(r, uw[:, None] * a + (w * a).sum(axis=1)[:, None] * u, len(normals))
    else:
        du = np.einsum("bij,bi->bj", cache["m"][active], u)
        dm = u[:, :, None] * (cache["he"][active] - cache["te"][active])[:, None, :]
        grads["maps"] = _scatter(r, dm, len(maps))
    rows, inverse = np.unique(np.concatenate([h, t]), return_inverse=True)
    grads["entities"] = _scatter(inverse, np.concatenate([du, -du]), len(rows))
    return float(np.maximum(hinge, 0.0).mean()), rows, grads


def margin_loss_and_grads(model, norm, margin, ent, rel, normals, maps, pos, neg):
    """Margin ranking loss and its exact gradients for explicit pairs.

    ``pos`` and ``neg`` are (N, 3) integer arrays of row indices; the
    i-th rows form a pair. Returns (mean loss, grads dict keyed by
    'entities', 'relations', 'normals', 'maps'); gradient arrays match
    the parameter shapes, with the unused ones absent.
    """
    loss, rows, grads = _pair_grads(model, norm, margin, ent, rel, normals, maps, np.asarray(pos), np.asarray(neg))
    dense = np.zeros_like(ent)
    dense[rows] = grads["entities"]
    grads["entities"] = dense
    return loss, grads


def _train_step(model, norm, margin, learning_rate, ent, rel, normals, maps, pos, neg) -> float:
    """One SGD step on a batch of pairs, in place; returns its mean loss.

    Only the entity rows the gradient touches change, and only they are
    projected back into the unit ball. Relations, normals (renormalized
    to unit length) and maps have one row per relation and are updated
    whole.
    """
    loss, rows, grads = _pair_grads(model, norm, margin, ent, rel, normals, maps, pos, neg)
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


# -- embedding set ------------------------------------------------------


@dataclass(eq=False)
class EmbeddingSet:
    """Trained (or loaded) embedding rows keyed by term.

    The set holds no graph. Scores read term ids of one graph, so they
    live on the :class:`BoundEmbeddings` view that :meth:`bind` returns.
    """

    model: str
    norm: str
    dim: int
    rel_dim: int
    margin: float
    entity_terms: list[Term]
    relation_terms: list[Term]
    entity_vecs: np.ndarray
    relation_vecs: np.ndarray
    normals: np.ndarray | None = None
    maps: np.ndarray | None = None
    losses: list[float] = field(default_factory=list, repr=False)
    # negatives redrawn per epoch as known triples; training telemetry,
    # not stored in TRQE files
    sampler_redraws: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.entity_index = {t: i for i, t in enumerate(self.entity_terms)}
        self.relation_index = {t: i for i, t in enumerate(self.relation_terms)}
        self._view: BoundEmbeddings | None = None  # bind's one-slot cache

    @property
    def entity_count(self) -> int:
        return len(self.entity_terms)

    @property
    def relation_count(self) -> int:
        return len(self.relation_terms)

    def bind(self, g: Graph) -> BoundEmbeddings:
        """The view of this set over ``g``. The last view built is returned
        again for the same graph, so a caller may bind ahead of time."""
        view = self._view
        if view is None or view.graph is not g:
            view = self._view = BoundEmbeddings(self, g, *_align(self, g))
        return view


def _align(emb: EmbeddingSet, g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The entity and the relation row of every term id of ``g`` (-1 = none)."""
    terms = list(g.terms())
    return tuple(
        np.fromiter((index.get(t, -1) for t in terms), dtype=np.int64, count=len(terms))
        for index in (emb.entity_index, emb.relation_index)
    )


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

    def _row(self, table: np.ndarray, tid: TermId, what: str) -> int:
        row = table[tid] if 0 <= tid < len(table) else -1
        if row < 0:
            name = f" {self.graph.term(tid).nt()}" if 0 <= tid < self.graph.term_count else ""
            raise UnembeddedTermError(f"no {what} row for term id {tid}{name}")
        return int(row)

    def score_rows(self, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Extended scores of int64 id columns, and the mask of the rows
        whose terms have the embedding rows the score reads (0 elsewhere).

        Rows on the graph's rdf:type get the membership score of
        :meth:`extended_score`, the others the model score of
        :meth:`score_triple`, in ``SCORE_CHUNK``-row kernel calls. Graph
        membership is not looked up.
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
        for start in range(0, len(rows), SCORE_CHUNK):
            part = rows[start : start + SCORE_CHUNK]
            values[part] = self._model_scores(hrow[part], rrow[part], trow[part])
        return values, scored

    def _model_scores(self, hrow: np.ndarray, rrow: np.ndarray, trow: np.ndarray) -> np.ndarray:
        e = self.embeddings
        return _batch_scores(e.model, e.norm, e.entity_vecs, e.relation_vecs, e.normals, e.maps, hrow, rrow, trow)[0]

    def score_triple(self, h: TermId, r: TermId, t: TermId) -> float:
        """Model score g(h, r, t); lower means more plausible."""
        hrow = self._row(self.ent_row, h, "entity")
        trow = self._row(self.ent_row, t, "entity")
        rrow = self._row(self.rel_row, r, "relation")
        return float(self._model_scores(np.array([hrow]), np.array([rrow]), np.array([trow]))[0])

    def type_vector(self, ty: TermId) -> np.ndarray:
        """Mean entity vector of the class's instances (see module doc)."""
        vec = self._type_cache.get(ty)
        if vec is None:
            g = self.graph
            members = np.empty(0, dtype=np.int64)
            if g.rdf_type_id is not None and 0 <= ty < g.term_count:
                index, lo, hi = g.ranges(None, g.rdf_type_id, ty)
                members = index.unpack(index.keys[lo:hi])[0]
            rows = _rows(self.ent_row, members)
            if not (rows >= 0).any():  # no embedded instance: the class's own row
                rows = _rows(self.ent_row, np.array([ty], dtype=np.int64))
            rows = rows[rows >= 0]
            e = self.embeddings
            vec = e.entity_vecs[rows].astype(np.float64).mean(axis=0) if len(rows) else np.zeros(e.dim)
            self._type_cache[ty] = vec
        return vec

    def extended_score(self, h: TermId, r: TermId, t: TermId) -> float:
        """Score with the membership-relation special case.

        For r = rdf:type the score is the raw entity-space distance
        between h and the type vector of t (no projection, any model);
        otherwise it is the model score.
        """
        if r != self.graph.rdf_type_id:
            return self.score_triple(h, r, t)
        self._row(self.ent_row, h, "entity")  # names an unembedded head
        return float(self.score_rows(*(np.array([x], dtype=np.int64) for x in (h, r, t)))[0][0])

    def normalize(self, h: TermId, r: TermId, t: TermId) -> float:
        """Plausibility in (0, 1]: exactly 1 for graph members."""
        if self.graph.contains(h, r, t):
            return 1.0
        return 1.0 / (1.0 + self.extended_score(h, r, t))


# -- training ----------------------------------------------------------


def _first_appearance_rows(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row orders and the training-row table, from the SPO key columns.

    Entities are numbered by first appearance in SPO triple order (a
    triple's subject before its object) and relations by first
    appearance as predicate. Returns the entity and the relation term id
    of each row, the id->row maps (-1 = none) and every triple as an
    (n, 3) array of (entity, relation, entity) rows, in SPO order.
    """
    index, _, _ = g.ranges()
    s, p, o = index.unpack(index.keys)
    ent_ids = first_appearance(np.stack([s, o], axis=1).ravel())
    rel_ids = first_appearance(p)
    ent_row = np.full(g.term_count, -1, dtype=np.int64)
    rel_row = np.full(g.term_count, -1, dtype=np.int64)
    ent_row[ent_ids] = np.arange(len(ent_ids))
    rel_row[rel_ids] = np.arange(len(rel_ids))
    rows = np.stack([ent_row[s], rel_row[p], ent_row[o]], axis=1)
    return ent_ids, rel_ids, ent_row, rel_row, rows


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

    Every term occurring as subject/object gets an entity row and every
    predicate a relation row, including rdf:type itself even when type
    triples are excluded from the batches. Deterministic for a fixed
    (graph, config): the sampler is a seeded PCG64 generator and all
    updates run in a fixed order. Only the final rows are stored, as
    float32; training math runs at float64.
    """
    cfg.validate()
    if g.triple_count == 0:
        raise ValueError("cannot train embeddings on an empty graph")

    ent_ids, rel_ids, ent_row, rel_row, rows = _first_appearance_rows(g)
    n_ent, n_rel = len(ent_ids), len(rel_ids)
    dim, rel_dim = cfg.dim, cfg.resolved_rel_dim()
    type_id = g.rdf_type_id
    if cfg.include_type_triples or type_id is None:
        triples = rows
    else:
        triples = rows[rel_ids[rows[:, 1]] != type_id]

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
                    cfg.model, cfg.norm, cfg.margin, cfg.learning_rate,
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
    out = EmbeddingSet(
        model=cfg.model,
        norm=cfg.norm,
        dim=dim,
        rel_dim=rel_dim,
        margin=cfg.margin,
        entity_terms=[g.term(tid) for tid in ent_ids.tolist()],
        relation_terms=[g.term(tid) for tid in rel_ids.tolist()],
        entity_vecs=vecs[0],
        relation_vecs=vecs[1],
        normals=vecs[2] if cfg.model == TRANSH else None,
        maps=vecs[2] if cfg.model == TRANSR else None,
        losses=losses,
        sampler_redraws=redraws,
    )
    # the rows above are the alignment bind would compute
    out._view = BoundEmbeddings(out, g, ent_row, rel_row)
    return out


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
    extra = {TRANSE: [], TRANSH: [emb.normals], TRANSR: [emb.maps]}[emb.model]

    def write(fh):
        fh.write(EMBED_MAGIC)
        fh.write(
            _HEADER.pack(
                EMBED_VERSION,
                _MODEL_TAGS[emb.model],
                1 if emb.norm == "l1" else 2,
                emb.dim,
                emb.rel_dim,
                emb.margin,
                emb.entity_count,
                emb.relation_count,
            )
        )
        write_terms(fh, emb.entity_terms)
        write_terms(fh, emb.relation_terms)
        for m in [emb.entity_vecs, emb.relation_vecs] + extra:
            fh.write(np.ascontiguousarray(m, dtype="<f4").tobytes())

    write_file(dest, write)


def load_embeddings(src: str | Path | BufferedIOBase, expect_model: str | None = None) -> EmbeddingSet:
    """Read a TRQE file; optionally enforce the expected model family.

    The file is read once, and every count in the header is checked
    against the bytes actually present before anything is allocated for
    it; a malformed file of any kind, including one holding a non-finite
    value, raises :class:`EmbeddingFormatError`.
    """
    data = read_source(src)
    if len(data) < 4:
        raise EmbeddingFormatError("truncated embedding file")
    if data[:4] != EMBED_MAGIC:
        raise EmbeddingFormatError("not a TRQE embedding file (bad magic)")
    if len(data) < 4 + _HEADER.size:
        raise EmbeddingFormatError("truncated embedding file")
    version, tag, norm_tag, dim, rel_dim, margin, n_ent, n_rel = _HEADER.unpack_from(data, 4)
    if version != EMBED_VERSION:
        raise EmbeddingFormatError(f"unsupported embedding file version {version}")
    model = _TAG_MODELS.get(tag)
    if model is None:
        raise EmbeddingFormatError(f"unknown model tag {tag}")
    if expect_model is not None and model != expect_model:
        raise EmbeddingFormatError(f"model mismatch: file has {model}, expected {expect_model}")
    if norm_tag not in (1, 2):
        raise EmbeddingFormatError(f"unknown norm tag {norm_tag}")
    if dim < 1 or rel_dim < 1:
        raise EmbeddingFormatError(f"dim {dim} and rel_dim {rel_dim} must be positive")
    if model != TRANSR and rel_dim != dim:
        raise EmbeddingFormatError(f"rel_dim {rel_dim} differs from dim {dim} in a {model} file")
    if not math.isfinite(margin) or margin <= 0:
        raise EmbeddingFormatError(f"margin {margin} is not a positive number")
    shapes = _matrix_shapes(model, n_ent, n_rel, dim, rel_dim)
    size = 4 * sum(math.prod(shape) for shape in shapes)
    pos = 4 + _HEADER.size
    # each term takes at least its 5-byte header
    if (n_ent + n_rel) * TERM_HEADER_SIZE + size > len(data) - pos:
        raise EmbeddingFormatError("truncated embedding file: header counts exceed the file size")
    ent_terms, pos = read_terms(data, pos, n_ent, EmbeddingFormatError)
    rel_terms, pos = read_terms(data, pos, n_rel, EmbeddingFormatError)
    if len(data) - pos < size:
        raise EmbeddingFormatError("truncated embedding file")
    if len(data) - pos > size:
        raise EmbeddingFormatError("trailing bytes after embedding payload")
    matrices = []
    for shape in shapes:
        count = math.prod(shape)
        m = np.frombuffer(data, dtype="<f4", count=count, offset=pos).reshape(shape).copy()
        if not np.isfinite(m).all():
            raise EmbeddingFormatError("embedding matrices hold a non-finite value")
        matrices.append(m)
        pos += 4 * count
    return EmbeddingSet(
        model=model,
        norm="l1" if norm_tag == 1 else "l2",
        dim=dim,
        rel_dim=rel_dim,
        margin=margin,
        entity_terms=ent_terms,
        relation_terms=rel_terms,
        entity_vecs=matrices[0],
        relation_vecs=matrices[1],
        normals=matrices[2] if model == TRANSH else None,
        maps=matrices[2] if model == TRANSR else None,
    )
