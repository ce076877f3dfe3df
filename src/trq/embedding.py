"""Translation-based knowledge-graph embeddings and plausibility scores.

Three model families share one training loop: plain translations
(``transe``, g = ||h + r - t||), hyperplane projections (``transh``,
entities projected onto a per-relation hyperplane before translating),
and per-relation linear maps (``transr``, entities mapped into a
relation space by a matrix). Training minimizes the margin ranking loss

    sum over (pos, neg) of max(0, margin + g(pos) - g(neg))

with minibatch SGD and uniform negative sampling (corrupt head or tail
with probability 1/2, resampling while the corruption is a known
triple). Entity rows are projected back into the unit ball after every
batch, and hyperplane normals are renormalized. Membership triples
(rdf:type) are excluded from the relational batches by default; classes
are handled through aggregated type vectors instead:

* the type vector of a class is the mean of its instances' entity rows
  (falling back to the class's own row, then to the zero vector),
* the extended score of (h, rdf:type, c) is the raw entity-space
  distance ||h - typevec(c)||, any model, no projection,
* the normalized plausibility of a triple is 1 when the graph contains
  it and 1 / (1 + extended score) otherwise, so it always lies in (0, 1].

One kernel, :func:`_batch_scores`, evaluates g for training batches and
for query-time scoring alike. :meth:`EmbeddingSet.score_rows` scores id
columns through it, ``SCORE_CHUNK`` rows per call, plus the rdf:type
rows against type vectors, and marks rows with a term that has no
embedding row; ``score_triple``, ``extended_score``, ``normalize`` and
``normalize_rows`` are one-row or membership-aware calls of it. Training
that ends with a non-finite value raises :class:`NonFiniteEmbeddingError`.

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
from dataclasses import dataclass, field
from io import BufferedIOBase
from pathlib import Path

import numpy as np

from .binio import TERM_HEADER_SIZE, read_source, read_terms, write_file, write_terms
from .store import Graph
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
        if self.margin <= 0 or self.learning_rate <= 0:
            raise ValueError("margin and learning_rate must be positive")
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


def _accumulate_grads(model, norm, cache, coef, g_ent, g_rel, g_normals, g_maps):
    """Add coef * d(score)/d(params) into the dense gradient arrays."""
    active = coef != 0.0
    if not active.any():
        return
    h = cache["h"][active]
    r = cache["r"][active]
    t = cache["t"][active]
    u = _norm_grads(cache["d"][active], norm, cache["values"][active])
    u = u * coef[active][:, None]
    if model == TRANSE:
        np.add.at(g_ent, h, u)
        np.add.at(g_ent, t, -u)
        np.add.at(g_rel, r, u)
    elif model == TRANSH:
        w = cache["w"][active]
        a = cache["te"][active] - cache["he"][active]
        uw = (u * w).sum(axis=1)
        du = u - uw[:, None] * w
        dw = uw[:, None] * a + (w * a).sum(axis=1)[:, None] * u
        np.add.at(g_ent, h, du)
        np.add.at(g_ent, t, -du)
        np.add.at(g_rel, r, u)
        np.add.at(g_normals, r, dw)
    else:
        m = cache["m"][active]
        du = np.einsum("bij,bi->bj", m, u)
        dm = u[:, :, None] * (cache["he"][active] - cache["te"][active])[:, None, :]
        np.add.at(g_ent, h, du)
        np.add.at(g_ent, t, -du)
        np.add.at(g_rel, r, u)
        np.add.at(g_maps, r, dm)


def margin_loss_and_grads(model, norm, margin, ent, rel, normals, maps, pos, neg):
    """Margin ranking loss and its exact gradients for explicit pairs.

    ``pos`` and ``neg`` are (N, 3) integer arrays of row indices; the
    i-th rows form a pair. Returns (mean loss, grads dict keyed by
    'entities', 'relations', 'normals', 'maps'); gradient arrays match
    the parameter shapes, with the unused ones absent.
    """
    pos = np.asarray(pos)
    neg = np.asarray(neg)
    g_pos, cache_pos = _batch_scores(model, norm, ent, rel, normals, maps, pos[:, 0], pos[:, 1], pos[:, 2])
    g_neg, cache_neg = _batch_scores(model, norm, ent, rel, normals, maps, neg[:, 0], neg[:, 1], neg[:, 2])
    hinge = margin + g_pos - g_neg
    active = (hinge > 0).astype(float)
    n = len(pos)
    grads = {"entities": np.zeros_like(ent), "relations": np.zeros_like(rel)}
    g_normals = g_maps = None
    if model == TRANSH:
        g_normals = grads["normals"] = np.zeros_like(normals)
    if model == TRANSR:
        g_maps = grads["maps"] = np.zeros_like(maps)
    _accumulate_grads(model, norm, cache_pos, active / n, grads["entities"], grads["relations"], g_normals, g_maps)
    _accumulate_grads(model, norm, cache_neg, -active / n, grads["entities"], grads["relations"], g_normals, g_maps)
    loss = float(np.maximum(hinge, 0.0).mean())
    return loss, grads


# -- embedding set ------------------------------------------------------


@dataclass(eq=False)
class EmbeddingSet:
    """Trained (or loaded) embedding rows keyed by term.

    Score lookups take term ids, so the set has to be bound to a graph
    first; :func:`train` binds to the training graph, loaded sets bind
    lazily on first use against whatever graph is passed in.
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

    def __post_init__(self):
        self.entity_index = {t: i for i, t in enumerate(self.entity_terms)}
        self.relation_index = {t: i for i, t in enumerate(self.relation_terms)}
        self._bound: Graph | None = None
        self._ent_row: np.ndarray | None = None
        self._rel_row: np.ndarray | None = None
        self._type_cache: dict[TermId, np.ndarray] = {}

    @property
    def entity_count(self) -> int:
        return len(self.entity_terms)

    @property
    def relation_count(self) -> int:
        return len(self.relation_terms)

    def bind(self, g: Graph) -> "EmbeddingSet":
        """Align term ids of ``g`` with embedding rows (-1 = no row)."""
        ent = np.full(g.term_count, -1, dtype=np.int64)
        rel = np.full(g.term_count, -1, dtype=np.int64)
        for tid in range(g.term_count):
            term = g.term(tid)
            ent[tid] = self.entity_index.get(term, -1)
            rel[tid] = self.relation_index.get(term, -1)
        self._bound = g
        self._ent_row = ent
        self._rel_row = rel
        self._type_cache = {}
        return self

    def _ensure_bound(self, g: Graph | None = None) -> None:
        if g is not None and self._bound is not g:
            self.bind(g)
        if self._bound is None:
            raise RuntimeError("embedding set is not bound to a graph; call bind(graph) first")

    def _row(self, table: np.ndarray, tid: TermId, what: str) -> int:
        row = table[tid] if 0 <= tid < len(table) else -1
        if row < 0:
            raise UnembeddedTermError(f"no {what} row for term {self._bound.term(tid).nt()}")
        return int(row)

    def _entity_vec(self, tid: TermId) -> np.ndarray:
        return self.entity_vecs[self._row(self._ent_row, tid, "entity")].astype(np.float64)

    @staticmethod
    def _rows(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
        out = np.full(len(ids), -1, dtype=np.int64)  # also for ids out of range
        inside = (ids >= 0) & (ids < len(table))
        out[inside] = table[ids[inside]]
        return out

    def score_rows(
        self, h: np.ndarray, r: np.ndarray, t: np.ndarray, g: Graph | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scores of int64 id columns, and the mask of the rows whose terms
        have the embedding rows the score reads (0 elsewhere).

        Rows get the model score of :meth:`score_triple`, in
        ``SCORE_CHUNK``-row kernel calls; with ``g``, rows on its rdf:type
        get the membership score of :meth:`extended_score`. Graph
        membership is not looked up.
        """
        self._ensure_bound(g)
        hrow = self._rows(self._ent_row, h)
        trow = self._rows(self._ent_row, t)
        rrow = self._rows(self._rel_row, r)
        is_type = np.zeros(len(r), dtype=bool)
        if g is not None and g.rdf_type_id is not None:
            is_type = r == g.rdf_type_id
        scored = (hrow >= 0) & (is_type | ((trow >= 0) & (rrow >= 0)))
        values = np.zeros(len(h))
        rows = np.flatnonzero(scored & is_type)
        if len(rows):
            classes, inverse = np.unique(t[rows], return_inverse=True)
            tv = np.stack([self.type_vector(g, ty) for ty in classes.tolist()])[inverse]
            values[rows] = _norm_values(self.entity_vecs[hrow[rows]].astype(np.float64) - tv, self.norm)
        rows = np.flatnonzero(scored & ~is_type)
        for start in range(0, len(rows), SCORE_CHUNK):
            part = rows[start : start + SCORE_CHUNK]
            values[part] = _batch_scores(
                self.model, self.norm, self.entity_vecs, self.relation_vecs,
                self.normals, self.maps, hrow[part], rrow[part], trow[part],
            )[0]
        return values, scored

    def _score_one(self, h: TermId, r: TermId, t: TermId, g: Graph | None = None) -> float:
        values, scored = self.score_rows(*(np.array([x], dtype=np.int64) for x in (h, r, t)), g=g)
        if not scored[0]:
            # name the first term the score reads that has no row
            self._row(self._ent_row, h, "entity")
            self._row(self._ent_row, t, "entity")
            self._row(self._rel_row, r, "relation")
        return float(values[0])

    def score_triple(self, h: TermId, r: TermId, t: TermId) -> float:
        """Model score g(h, r, t); lower means more plausible."""
        return self._score_one(h, r, t)

    def type_vector(self, g: Graph, ty: TermId) -> np.ndarray:
        """Mean entity vector of the class's instances (see module doc)."""
        self._ensure_bound(g)
        cached = self._type_cache.get(ty)
        if cached is not None:
            return cached
        rows: list[int] = []
        type_id = g.rdf_type_id
        if type_id is not None:
            for tr in g.match(None, type_id, ty):
                row = self._ent_row[tr.s]
                if row >= 0:
                    rows.append(int(row))
        if rows:
            vec = self.entity_vecs[rows].astype(np.float64).mean(axis=0)
        else:
            row = self._ent_row[ty] if 0 <= ty < len(self._ent_row) else -1
            if row >= 0:
                vec = self.entity_vecs[row].astype(np.float64)
            else:
                vec = np.zeros(self.dim, dtype=np.float64)
        self._type_cache[ty] = vec
        return vec

    def extended_score(self, g: Graph, h: TermId, r: TermId, t: TermId) -> float:
        """Score with the membership-relation special case.

        For r = rdf:type the score is the raw entity-space distance
        between h and the type vector of t (no projection, any model);
        otherwise it is the model score.
        """
        return self._score_one(h, r, t, g)

    def normalize(self, g: Graph, h: TermId, r: TermId, t: TermId) -> float:
        """Plausibility in (0, 1]: exactly 1 for graph members."""
        self._ensure_bound(g)
        if g.contains(h, r, t):
            return 1.0
        return 1.0 / (1.0 + self.extended_score(g, h, r, t))

    def normalize_rows(self, g: Graph, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        """:meth:`normalize` over int64 id columns of one length, NaN where
        :meth:`normalize` would raise :class:`UnembeddedTermError`."""
        self._ensure_bound(g)
        out = np.ones(len(h))
        absent = np.flatnonzero(~g.contains_rows(h, r, t))
        values, scored = self.score_rows(h[absent], r[absent], t[absent], g)
        out[absent] = np.where(scored, 1.0 / (1.0 + values), np.nan)
        return out


# -- training ----------------------------------------------------------


def _first_appearance_rows(g: Graph) -> tuple[list[Term], list[Term], np.ndarray, np.ndarray]:
    """Entity/relation row orders (SPO triple order), id->row maps."""
    ent_terms: list[Term] = []
    rel_terms: list[Term] = []
    ent_row = np.full(g.term_count, -1, dtype=np.int64)
    rel_row = np.full(g.term_count, -1, dtype=np.int64)
    for tr in g.triples():
        for tid in (tr.s, tr.o):
            if ent_row[tid] < 0:
                ent_row[tid] = len(ent_terms)
                ent_terms.append(g.term(tid))
        if rel_row[tr.p] < 0:
            rel_row[tr.p] = len(rel_terms)
            rel_terms.append(g.term(tr.p))
    return ent_terms, rel_terms, ent_row, rel_row


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

    ent_terms, rel_terms, ent_row, rel_row = _first_appearance_rows(g)
    n_ent, n_rel = len(ent_terms), len(rel_terms)
    dim, rel_dim = cfg.dim, cfg.resolved_rel_dim()

    known: set[tuple[int, int, int]] = set()
    train_rows: list[tuple[int, int, int]] = []
    type_id = g.rdf_type_id
    for tr in g.triples():
        row = (int(ent_row[tr.s]), int(rel_row[tr.p]), int(ent_row[tr.o]))
        known.add(row)
        if not cfg.include_type_triples and type_id is not None and tr.p == type_id:
            continue
        train_rows.append(row)

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

    losses: list[float] = []
    triples = np.array(train_rows, dtype=np.int64).reshape(-1, 3)
    k = cfg.negatives_per_positive
    for _ in range(cfg.epochs):
        if len(triples) == 0:
            losses.append(0.0)
            continue
        perm = rng.permutation(len(triples))
        loss_sum = 0.0
        pair_count = 0
        for start in range(0, len(triples), cfg.batch_size):
            batch = triples[perm[start : start + cfg.batch_size]]
            pos = np.repeat(batch, k, axis=0)
            neg = np.empty_like(pos)
            for j, (h, r, t) in enumerate(pos):
                cand = (h, r, t)
                for _try in range(50):
                    if rng.random() < 0.5:
                        cand = (int(rng.integers(n_ent)), r, t)
                    else:
                        cand = (h, r, int(rng.integers(n_ent)))
                    if cand not in known:
                        break
                neg[j] = cand
            loss, grads = margin_loss_and_grads(
                cfg.model, cfg.norm, cfg.margin, ent, rel, normals, maps, pos, neg
            )
            ent -= cfg.learning_rate * grads["entities"]
            rel -= cfg.learning_rate * grads["relations"]
            if cfg.model == TRANSH:
                normals -= cfg.learning_rate * grads["normals"]
                normals /= np.maximum(np.linalg.norm(normals, axis=1, keepdims=True), 1e-12)
            if cfg.model == TRANSR:
                maps -= cfg.learning_rate * grads["maps"]
            norms = np.linalg.norm(ent, axis=1, keepdims=True)
            np.divide(ent, norms, out=ent, where=norms > 1.0)
            loss_sum += loss * len(pos)
            pair_count += len(pos)
        losses.append(loss_sum / max(1, pair_count))

    params = [x for x in (ent, rel, normals, maps) if x is not None]
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
        entity_terms=ent_terms,
        relation_terms=rel_terms,
        entity_vecs=vecs[0],
        relation_vecs=vecs[1],
        normals=vecs[2] if cfg.model == TRANSH else None,
        maps=vecs[2] if cfg.model == TRANSR else None,
        losses=losses,
    )
    out.bind(g)
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
