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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from io import BufferedIOBase
from pathlib import Path

import numpy as np

from .store import Graph
from .terms import Term, TermId, TermKind, Triple

TRANSE, TRANSH, TRANSR = "transe", "transh", "transr"
MODELS = (TRANSE, TRANSH, TRANSR)
NORMS = ("l1", "l2")

EMBED_MAGIC = b"TRQE"
EMBED_VERSION = 1
_MODEL_TAGS = {TRANSE: 1, TRANSH: 2, TRANSR: 3}
_TAG_MODELS = {v: k for k, v in _MODEL_TAGS.items()}


class EmbeddingFormatError(ValueError):
    """Raised for a corrupt or mismatched embedding file."""


class UnembeddedTermError(LookupError):
    """A scored term has no row in the embedding set."""


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
    """Scores for index arrays (h, r, t) plus the tensors gradients need."""
    he = ent[h]
    te = ent[t]
    rv = rel[r]
    if model == TRANSE:
        d = he + rv - te
        cache = {}
    elif model == TRANSH:
        w = normals[r]
        hw = (he * w).sum(axis=1)
        tw = (te * w).sum(axis=1)
        d = (he - hw[:, None] * w) + rv - (te - tw[:, None] * w)
        cache = {"w": w}
    else:
        m = maps[r]
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

    def _entity_vec(self, tid: TermId) -> np.ndarray:
        row = self._ent_row[tid] if 0 <= tid < len(self._ent_row) else -1
        if row < 0:
            raise UnembeddedTermError(f"no entity row for term {self._bound.term(tid).nt()}")
        return self.entity_vecs[row].astype(np.float64)

    def _relation_row(self, tid: TermId) -> int:
        row = self._rel_row[tid] if 0 <= tid < len(self._rel_row) else -1
        if row < 0:
            raise UnembeddedTermError(f"no relation row for term {self._bound.term(tid).nt()}")
        return int(row)

    def score_triple(self, h: TermId, r: TermId, t: TermId) -> float:
        """Model score g(h, r, t); lower means more plausible."""
        self._ensure_bound()
        hv = self._entity_vec(h)
        tv = self._entity_vec(t)
        row = self._relation_row(r)
        rv = self.relation_vecs[row].astype(np.float64)
        if self.model == TRANSE:
            d = hv + rv - tv
        elif self.model == TRANSH:
            w = self.normals[row].astype(np.float64)
            d = (hv - (w @ hv) * w) + rv - (tv - (w @ tv) * w)
        else:
            m = self.maps[row].astype(np.float64)
            d = m @ hv + rv - m @ tv
        return float(_norm_values(d[None, :], self.norm)[0])

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
        self._ensure_bound(g)
        if g.rdf_type_id is not None and r == g.rdf_type_id:
            hv = self._entity_vec(h)
            tv = self.type_vector(g, t)
            return float(_norm_values((hv - tv)[None, :], self.norm)[0])
        return self.score_triple(h, r, t)

    def normalize(self, g: Graph, h: TermId, r: TermId, t: TermId) -> float:
        """Plausibility in (0, 1]: exactly 1 for graph members."""
        self._ensure_bound(g)
        if g.contains(h, r, t):
            return 1.0
        return 1.0 / (1.0 + self.extended_score(g, h, r, t))

    def normalize_rows(self, g: Graph, h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        """:meth:`normalize` over int64 id columns of one length, NaN where
        :meth:`normalize` would raise :class:`UnembeddedTermError`.

        Membership-relation rows and TransE rows are computed column-wise
        with the same float64 operations as the scalar path, so every
        value equals the scalar one; TransH and TransR rows go through
        :meth:`score_triple` one at a time.
        """
        self._ensure_bound(g)
        out = np.ones(len(h))
        absent = np.flatnonzero(~g.contains_rows(h, r, t))
        h, r, t = h[absent], r[absent], t[absent]
        hrow, trow, rrow = self._ent_row[h], self._ent_row[t], self._rel_row[r]
        is_type = r == g.rdf_type_id if g.rdf_type_id is not None else np.zeros(len(r), dtype=bool)
        values = np.full(len(absent), np.nan)
        rows = np.flatnonzero(is_type & (hrow >= 0))
        if len(rows):
            types = {ty: self.type_vector(g, ty) for ty in set(t[rows].tolist())}
            tv = np.stack([types[ty] for ty in t[rows].tolist()])
            values[rows] = _norm_values(self.entity_vecs[hrow[rows]].astype(np.float64) - tv, self.norm)
        rows = np.flatnonzero(~is_type & (hrow >= 0) & (trow >= 0) & (rrow >= 0))
        if len(rows) and self.model == TRANSE:
            hv = self.entity_vecs[hrow[rows]].astype(np.float64)
            tv = self.entity_vecs[trow[rows]].astype(np.float64)
            rv = self.relation_vecs[rrow[rows]].astype(np.float64)
            values[rows] = _norm_values(hv + rv - tv, self.norm)
        elif len(rows):
            ids = zip(h[rows].tolist(), r[rows].tolist(), t[rows].tolist())
            values[rows] = [self.score_triple(*x) for x in ids]
        out[absent] = 1.0 / (1.0 + values)
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

    out = EmbeddingSet(
        model=cfg.model,
        norm=cfg.norm,
        dim=dim,
        rel_dim=rel_dim,
        margin=cfg.margin,
        entity_terms=ent_terms,
        relation_terms=rel_terms,
        entity_vecs=ent.astype(np.float32),
        relation_vecs=rel.astype(np.float32),
        normals=None if normals is None else normals.astype(np.float32),
        maps=None if maps is None else maps.astype(np.float32),
        losses=losses,
    )
    out.bind(g)
    return out


# -- file I/O ----------------------------------------------------------


def _write_terms(fh, terms: list[Term]) -> None:
    for term in terms:
        data = term.lexical.encode("utf-8")
        fh.write(struct.pack("<BI", int(term.kind), len(data)))
        fh.write(data)


def save_embeddings(emb: EmbeddingSet, dest: str | Path | BufferedIOBase) -> None:
    """Write the set in the TRQE binary format (float32 matrices)."""
    own = isinstance(dest, (str, Path))
    fh = open(dest, "wb") if own else dest
    try:
        fh.write(EMBED_MAGIC)
        fh.write(
            struct.pack(
                "<HBBIIdQQ",
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
        _write_terms(fh, emb.entity_terms)
        _write_terms(fh, emb.relation_terms)
        fh.write(np.ascontiguousarray(emb.entity_vecs, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(emb.relation_vecs, dtype="<f4").tobytes())
        if emb.model == TRANSH:
            fh.write(np.ascontiguousarray(emb.normals, dtype="<f4").tobytes())
        if emb.model == TRANSR:
            fh.write(np.ascontiguousarray(emb.maps, dtype="<f4").tobytes())
    finally:
        if own:
            fh.close()


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise EmbeddingFormatError("truncated embedding file")
    return data


def _read_terms(fh, count: int) -> list[Term]:
    out: list[Term] = []
    for _ in range(count):
        kind, length = struct.unpack("<BI", _read_exact(fh, 5))
        try:
            kind = TermKind(kind)
        except ValueError as exc:
            raise EmbeddingFormatError(f"unknown term kind {kind}") from exc
        out.append(Term(kind, _read_exact(fh, length).decode("utf-8")))
    return out


def _read_matrix(fh, shape: tuple[int, ...]) -> np.ndarray:
    n = int(np.prod(shape))
    data = _read_exact(fh, 4 * n)
    return np.frombuffer(data, dtype="<f4").reshape(shape).copy()


def load_embeddings(src: str | Path | BufferedIOBase, expect_model: str | None = None) -> EmbeddingSet:
    """Read a TRQE file; optionally enforce the expected model family."""
    own = isinstance(src, (str, Path))
    fh = open(src, "rb") if own else src
    try:
        if _read_exact(fh, 4) != EMBED_MAGIC:
            raise EmbeddingFormatError("not a TRQE embedding file (bad magic)")
        version, tag, norm_tag, dim, rel_dim, margin, n_ent, n_rel = struct.unpack(
            "<HBBIIdQQ", _read_exact(fh, 36)
        )
        if version != EMBED_VERSION:
            raise EmbeddingFormatError(f"unsupported embedding file version {version}")
        model = _TAG_MODELS.get(tag)
        if model is None:
            raise EmbeddingFormatError(f"unknown model tag {tag}")
        if expect_model is not None and model != expect_model:
            raise EmbeddingFormatError(f"model mismatch: file has {model}, expected {expect_model}")
        if norm_tag not in (1, 2):
            raise EmbeddingFormatError(f"unknown norm tag {norm_tag}")
        ent_terms = _read_terms(fh, n_ent)
        rel_terms = _read_terms(fh, n_rel)
        ent = _read_matrix(fh, (n_ent, dim))
        rel = _read_matrix(fh, (n_rel, rel_dim))
        normals = _read_matrix(fh, (n_rel, dim)) if model == TRANSH else None
        maps = _read_matrix(fh, (n_rel, rel_dim, dim)) if model == TRANSR else None
        if fh.read(1):
            raise EmbeddingFormatError("trailing bytes after embedding payload")
        return EmbeddingSet(
            model=model,
            norm="l1" if norm_tag == 1 else "l2",
            dim=dim,
            rel_dim=rel_dim,
            margin=margin,
            entity_terms=ent_terms,
            relation_terms=rel_terms,
            entity_vecs=ent,
            relation_vecs=rel,
            normals=normals,
            maps=maps,
        )
    finally:
        if own:
            fh.close()
