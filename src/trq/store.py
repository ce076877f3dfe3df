"""Dictionary-encoded immutable RDF graph with four columnar indexes.

A :class:`Graph` interns every distinct term into a dense id space in
first-appearance order. Its dictionary, like an embedding set's two row
tables, is a :class:`TermTable` of the terms' table entries (kind byte,
length, UTF-8; :mod:`trq.binio`), the bytes a TRQG or TRQE file holds,
indexed by entry, so a snapshot loads and saves without building a
:class:`Term`: :meth:`TermTable.term` decodes an entry when it is read
and :meth:`TermTable.id` encodes the term it is given, in the manner of
the HDT dictionary (Fernández et al., JWS 2013). The graph keeps the
(deduplicated) triples in sorted permutation indexes,
SPO / POS / OSP and PSO, after the RDF-3X layout (Neumann & Weikum,
VLDB 2008). Each index is one sorted int64 numpy array of packed keys:
a triple's ids in the index's field order, each in
``bits = max(1, (term_count - 1).bit_length())`` bits, so lexicographic
triple order is numeric key order. Any pattern with a bound prefix is a
key range (a fully bound pattern is a range of width one), found by
``np.searchsorted`` or read from a run table (below), and every reader
of an index's triples, in this module and outside it, gets their id
columns from :meth:`TripleIndex.columns`, which unpacks them with shifts
and masks. So the key layout, and which index serves which pattern
(``_ACCESS``), are known here alone. SPO and POS are built with the
graph and cost 16 bytes per triple. PSO and OSP are built on the first
lookup that reads them (``_ACCESS``) and kept, 8 bytes per triple each.
Ingest, snapshot loading and training never read PSO; they and
recommendation, whose predicates are constants, never read OSP. A graph
without some of its triples (:meth:`Graph.without`) shares the term
table and ids, and each index built so far loses their keys by position,
with no sort. A block
(the keys of one index that share a constant prefix, such as one
predicate's in PSO) may also keep a run table: for each id, where its
run of the next field starts within the block, ``term_count + 1``
entries of the smallest unsigned dtype that holds the block size. Like
PSO and OSP it is built on use and kept, but only by the lookup that
brings the probes of the lookups on its block to at least
``(term_count + 1) / RUN_DENSITY``, on a block of at least as many
keys, so a table holds at most ``RUN_DENSITY`` (16) entries per key of
its block and costs at most 16 steps per probe counted. The blocks of
one index and prefix length are disjoint, so their tables hold at most
16 entries, of at most 4 bytes for a block under 2**32 keys, per
triple. On perfbench's serve
graph (seed 7, 61,330 triples), its 400 queries leave 48 uint16 tables
of 1.88 MB in all, 31 bytes per triple, beside 1.47 MB of index keys.

Array lookups with a constant (scalar) leading field, such as every
pattern of a query with a constant predicate, first find the block of
triples that share that constant prefix, with two scalar searches. When
one array field follows the prefix, a block with a run table reads each
probe's range from it (:meth:`Graph.ranges`); otherwise the probes are
searched inside the block only.

The keys must fit in 63 bits, so a graph holds at most
``MAX_TERM_COUNT`` = 2**21 - 1 (2,097,151) distinct terms; building a
larger one raises :class:`GraphTooLargeError`. Relation statistics needed by the
scorer (distinct-subject and distinct-object counts, plus restricted
variants) live in :class:`GraphStats`.

Snapshot format (``TRQG``, version 1, little endian)::

    magic       4 bytes  b"TRQG"
    version     u16
    term_count  u64
    triple_count u64
    terms       term_count x (kind u8, byte_len u32, utf-8 lexical)
    triples     triple_count x (s u32, p u32, o u32), SPO order

The dictionary is written in id order, so a load reproduces the exact
ids of the saved graph. :mod:`trq.binio` writes and reads the layout and
checks it; the loader adds the check that every id names a term.
"""

from __future__ import annotations

import itertools
import os
import struct
from collections.abc import Callable, Iterable, Iterator, Sequence
from io import BufferedIOBase
from pathlib import Path

import numpy as np

from .binio import read_body, read_header, read_source, term_key, term_of, write_file
from .ntriples import TRIPLE_LINE, NTriplesError, parse_line, split_lines, token_term
from .terms import RDF_TYPE, Term, TermId, TermKind, Triple

SNAPSHOT_MAGIC = b"TRQG"
SNAPSHOT_VERSION = 1

# Packed keys hold three ids of `bits` <= 21 bits each in a signed 64-bit
# int; the largest id stays below 2**21 - 1, so the end of a key range
# (a bound prefix plus one) fits too.
MAX_TERM_COUNT = 2**21 - 1

# A block gets a run table (see Graph.ranges) once the probes of the calls
# on it so far and the block's keys each number at least 1 / RUN_DENSITY
# of its term_count + 1 entries: counting it then costs at most
# RUN_DENSITY steps per probe counted, and it holds at most RUN_DENSITY
# entries per key of its block.
RUN_DENSITY = 16

# Rows unpacked at a time when iterating a whole index.
_SCAN_CHUNK = 65_536

_RDF_TYPE_KEY = term_key(RDF_TYPE)


class SnapshotError(ValueError):
    """Raised for a corrupt or mismatched snapshot file."""


class GraphTooLargeError(ValueError):
    """The term dictionary is beyond what the packed index keys can hold."""


class TermTable:
    """An immutable term table: ``keys``, the entries in id (row) order,
    the id of each, and ``rdf_type_id`` (None without rdf:type). ValueError
    ``{name} table lists {term} twice`` names its first repeated term."""

    __slots__ = ("keys", "_id_of", "rdf_type_id")

    def __init__(self, keys: Iterable[bytes], name: str):
        self.keys = keys = tuple(keys)
        self._id_of = id_of = dict(zip(keys, range(len(keys))))
        if len(id_of) != len(keys):
            # a repeated key keeps its last id, so its first entry is not it
            twice = next(k for i, k in enumerate(keys) if id_of[k] != i)
            raise ValueError(f"{name} table lists {term_of(twice).nt()} twice")
        self.rdf_type_id = id_of.get(_RDF_TYPE_KEY)

    def term(self, tid: TermId) -> Term:
        n = len(self.keys)
        if not 0 <= tid < n:
            raise IndexError(f"term id {tid} is outside [0, term_count = {n})")
        return term_of(self.keys[tid])

    def id(self, term: Term) -> TermId | None:
        try:
            return self._id_of.get(term_key(term))
        except UnicodeEncodeError:  # not text a table entry can hold
            return None

    def ids(self, keys: Sequence[bytes]) -> np.ndarray:
        """The id of each of ``keys`` as int64, -1 for a key not in the table."""
        return np.fromiter(map(self._id_of.get, keys, itertools.repeat(-1)), dtype=np.int64, count=len(keys))


class TripleIndex:
    """One sorted permutation of the triples as packed int64 keys.

    ``order`` names the triple positions (0 = s, 1 = p, 2 = o) from the
    most to the least significant key field.
    """

    __slots__ = ("keys", "order", "bits", "runs", "probes")

    def __init__(self, order: tuple[int, int, int], bits: int, s, p, o, unique: bool = False):
        self.order = order
        self.bits = bits
        # run tables of blocks, keyed by (c, b0, b1): see Graph.ranges
        self.runs: dict[tuple[int, int, int], np.ndarray] = {}
        # probes of the calls so far on blocks that have no run table yet
        self.probes: dict[tuple[int, int, int], int] = {}
        keys = self.pack(s, p, o)  # a new array, sorted in place
        keys.sort()
        if unique and len(keys) > 1:
            keys = keys[_run_starts(keys)]
        self.keys = keys

    def without(self, s: np.ndarray, p: np.ndarray, o: np.ndarray) -> "TripleIndex":
        """This index without the keys of the triples (s, p, o), int64 id
        arrays of distinct triples it holds: each key is deleted by its
        position, so the keys stay sorted with no sort. Run tables are
        not carried over."""
        out = TripleIndex.__new__(TripleIndex)
        out.order, out.bits, out.runs, out.probes = self.order, self.bits, {}, {}
        out.keys = np.delete(self.keys, self.keys.searchsorted(self.pack(s, p, o)))
        return out

    def pack(self, s, p, o):
        """Key of (s, p, o); scalars or int64 arrays."""
        spo = (s, p, o)
        a, b, c = (spo[i] for i in self.order)
        return (a << (2 * self.bits)) | (b << self.bits) | c

    def columns(self, where=slice(None)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (s, p, o) id columns of the keys at ``where`` (positions, a
        slice or a mask), in the index's order."""
        keys = self.keys[where]
        mask = (1 << self.bits) - 1
        fields = (keys >> (2 * self.bits), (keys >> self.bits) & mask, keys & mask)
        out = [None, None, None]
        for pos, col in zip(self.order, fields):
            out[pos] = col
        return tuple(out)


# For each mask of positions (s, p, o): the index whose leading fields
# are those positions. A pattern with a free position scans the index of
# its bound mask: s alone scans SPO, s and p scan PSO (by o within one
# (s, p), as SPO would), p bound (s free) scans POS, and o bound alone or
# with s scans OSP. A fully bound pattern is a range of width one in any
# index, so it is searched in the index of its scalar mask: the constant
# prefix is then as long as it can be.
_ACCESS = {
    (True, True, True): "spo",
    (True, True, False): "pso",
    (True, False, False): "spo",
    (True, False, True): "osp",
    (False, True, False): "pos",
    (False, True, True): "pos",
    (False, False, True): "osp",
    (False, False, False): "spo",
}


class GraphStats:
    """Per-relation degree statistics, and restricted counts read off the
    graph's indexes on each call; built once and never changed."""

    __slots__ = ("_graph", "_dom", "_ran", "_freq")

    def __init__(self, graph: "Graph"):
        self._graph = graph
        bits = graph._spo.bits
        # the (s, p) prefixes of SPO and the (p, o) prefixes of POS, sorted
        sp = graph._spo.keys >> bits
        po = graph._index("pos").keys >> bits
        self._freq = _counts(po >> bits)
        self._dom = _counts(sp[_run_starts(sp)] & ((1 << bits) - 1))
        self._ran = _counts(po[_run_starts(po)] >> bits)

    def dom(self, r: TermId) -> int:
        """Number of distinct subjects occurring with relation r."""
        return self._dom.get(r, 0)

    def ran(self, r: TermId) -> int:
        """Number of distinct objects occurring with relation r."""
        return self._ran.get(r, 0)

    def freq(self, r: TermId) -> int:
        """Number of triples whose predicate is r."""
        return self._freq.get(r, 0)

    def dom_at(self, r: TermId, c: TermId) -> int:
        """Distinct subjects s with (s, r, c) in the graph."""
        # triples are distinct, so the range size is the subject count
        return self._graph._range_size(None, r, c)

    def ran_at(self, c: TermId, r: TermId) -> int:
        """Distinct objects o with (c, r, o) in the graph."""
        return self._graph._range_size(c, r, None)

    def relations(self) -> list[TermId]:
        return sorted(self._freq)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first key of each run of equal keys; ``keys`` sorted, so
    a repeated key directly follows its first copy."""
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keep


def _counts(ids: np.ndarray) -> dict[TermId, int]:
    """How often each id occurs, for the ids that do."""
    counts = np.bincount(ids)
    present = np.flatnonzero(counts)
    return dict(zip(present.tolist(), counts[present].tolist()))


def first_appearance(ids: np.ndarray) -> np.ndarray:
    """The distinct values of ``ids`` in the order they first appear."""
    distinct, first = np.unique(ids, return_index=True)
    return distinct[np.argsort(first)]


class Graph:
    """Immutable triple set over a term dictionary, usually made by
    :func:`parse_ntriples` or :func:`load_snapshot`.

    ``keys`` are the distinct terms in id order, each as its table entry
    (:func:`~trq.binio.term_key`); they make :attr:`term_table`.
    ``triples`` is an iterable of (s, p, o) id tuples or an (n, 3)
    integer array; duplicates are dropped, here and only here.
    """

    __slots__ = ("term_table", "_spo", "_indexes", "_stats")

    def __init__(self, keys: Iterable[bytes], triples: Iterable[tuple[int, int, int]] | np.ndarray):
        keys = tuple(keys)
        n = len(keys)
        if n > MAX_TERM_COUNT:
            raise GraphTooLargeError(
                f"graph has {n} terms; the packed index keys hold at most {MAX_TERM_COUNT}"
            )
        self.term_table = TermTable(keys, "term")
        if not isinstance(triples, np.ndarray):
            triples = list(triples)
        rows = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        if len(rows) and (rows.min() < 0 or rows.max() >= n):
            raise ValueError("triple references unknown term id")
        self._spo = TripleIndex((0, 1, 2), max(1, (n - 1).bit_length()), *rows.T, unique=True)
        self._indexes = {"spo": self._spo}
        self._index("pos")  # PSO and OSP wait for a lookup that reads them
        self._stats: GraphStats | None = None

    def _index(self, name: str) -> TripleIndex:
        """The index whose fields are in the order of ``name`` ("pso": p,
        then s, then o), built from SPO on first use and kept (see the
        module doc)."""
        index = self._indexes.get(name)
        if index is None:
            order = tuple(map("spo".index, name))
            index = self._indexes[name] = TripleIndex(order, self._spo.bits, *self._spo.columns())
        return index

    @property
    def stats(self) -> GraphStats:
        """Relation statistics, built on first use and kept.

        Ingest, snapshot loading and training never read them, so they
        do not pay for them; a process that answers queries pays for them
        once, on its first query (about 2 ms on a 61k-triple graph; the
        PSO index that query builds takes under 1 ms more).
        """
        if self._stats is None:
            self._stats = GraphStats(self)
        return self._stats

    # -- dictionary ----------------------------------------------------

    @property
    def term_count(self) -> int:
        return len(self.term_table.keys)

    @property
    def term_keys(self) -> tuple[bytes, ...]:
        """Every term's table entry, in id order."""
        return self.term_table.keys

    @property
    def triple_count(self) -> int:
        return len(self._spo.keys)

    @property
    def rdf_type_id(self) -> TermId | None:
        return self.term_table.rdf_type_id

    def term(self, tid: TermId) -> Term:
        return self.term_table.term(tid)

    def id(self, term: Term) -> TermId | None:
        return self.term_table.id(term)

    def terms(self) -> Iterator[Term]:
        return map(term_of, self.term_table.keys)

    # -- triples -------------------------------------------------------

    def _in_range(self, *ids) -> bool:
        n = len(self.term_table.keys)
        return all(x is None or 0 <= x < n for x in ids)

    def contains(self, s: TermId, p: TermId, o: TermId) -> bool:
        return self._in_range(s, p, o) and bool(self.contains_rows(s, p, o))

    def contains_rows(self, s, p, o) -> np.ndarray:
        """Vectorised :meth:`contains`: each of s, p, o is an id or an int64
        array of ids, broadcast together as in :meth:`ranges`; unlike
        :meth:`contains`, every id must be a valid term id.

        The lookup searches the index whose leading fields are the scalar
        ids (POS for ``?x p c``, PSO for ``c p ?x``, POS for ``?x p ?y``).
        Within the block of that constant prefix, the probe keys are
        searched as they come. With no scalar, the probe keys are
        searched over the whole SPO index in sorted order (one argsort
        per call), so each search starts where the last one ended, and
        the flags are scattered back to the order of the rows.
        """
        index, _, c, (b0, b1) = self._locate(s, p, o)
        if c == 3:
            return np.full((), b1 > b0)
        key = self._starts(index, 3, s, p, o)
        keys = index.keys[b0:b1]
        if len(keys) == 0:
            return np.zeros(key.shape, dtype=bool)
        if c > 0:
            return keys[np.minimum(keys.searchsorted(key), len(keys) - 1)] == key
        flat = key.ravel()
        order = flat.argsort()
        probe = flat[order]
        found = np.empty(len(flat), dtype=bool)
        found[order] = keys[np.minimum(keys.searchsorted(probe), len(keys) - 1)] == probe
        return found.reshape(key.shape)

    def ranges(self, s=None, p=None, o=None) -> tuple[TripleIndex, np.ndarray, np.ndarray]:
        """The index to scan for this pattern and the key range [lo, hi)
        of the matching rows, whose order is the index's sorted order.

        Each of s, p, o is None (free), an id, or an int64 array of ids
        (one pattern per element, broadcast together); bound ids must be
        valid term ids. ``lo`` and ``hi`` follow the broadcast shape; for
        an array of patterns they are ``np.intp`` arrays. An array of
        patterns is looked up within the block of its constant prefix
        (the c leading bound fields that are scalars, such as a constant
        predicate), or within the whole index when it has none (c = 0).

        When one array field follows that prefix (such as a join step's
        ``?x p ?y`` with ?x bound), the block's run table answers the
        call: entry i is the number of the block's keys whose field after
        the prefix is below i, so both bounds are two reads. The table,
        of ``term_count + 1`` entries in the smallest unsigned dtype that
        holds the block size, is counted by the call on the block that
        brings the probes of the calls on it so far to at least
        ``(term_count + 1) / RUN_DENSITY``, when the block has at least
        as many keys, and kept beside the index; every later call on the
        block reads it. Other arrays are searched
        in the sorted order of their range starts. One argsort per call
        gives that order to both bounds (a range end is its start plus a
        constant); the bounds are scattered back to the order of the
        patterns.
        """
        index, k, c, (b0, b1) = self._locate(s, p, o)
        if c == k:
            return index, b0, b1
        if k == c + 1:
            ids = (s, p, o)[index.order[c]]
            runs = self._runs(index, c, b0, b1, ids.size)
            if runs is not None:
                return index, np.add(runs[ids], b0, dtype=np.intp), np.add(runs[ids + 1], b0, dtype=np.intp)
        lo_key = self._starts(index, k, s, p, o)
        keys = index.keys[b0:b1]
        flat = lo_key.ravel()
        order = flat.argsort()
        probe = flat[order]
        lo = np.empty(len(flat), dtype=np.intp)
        hi = np.empty(len(flat), dtype=np.intp)
        lo[order] = keys.searchsorted(probe)
        hi[order] = keys.searchsorted(probe + (np.int64(1) << (index.bits * (3 - k))))
        return index, b0 + lo.reshape(lo_key.shape), b0 + hi.reshape(lo_key.shape)

    def _runs(self, index: TripleIndex, c: int, b0: int, b1: int, probes: int) -> np.ndarray | None:
        """The run table of the block [b0, b1) of ``index`` whose constant
        prefix has c fields, counted now if the calls on the block, this
        call's ``probes`` included, pay for it (see :meth:`ranges`), else
        None. A table is keyed by c as well as its bounds: an empty block
        starts where the next one does, and a one-triple (p) block spans
        the same keys as its (p, s) block but counts s, not o."""
        key = (c, int(b0), int(b1))
        runs = index.runs.get(key)
        if runs is None:
            n = len(self.term_table.keys)
            counted = index.probes[key] = index.probes.get(key, 0) + probes
            if RUN_DENSITY * min(b1 - b0, counted) >= n + 1:
                field = (index.keys[b0:b1] >> (index.bits * (2 - c))) & ((1 << index.bits) - 1)
                runs = index.runs[key] = np.zeros(n + 1, dtype=np.min_scalar_type(b1 - b0))
                np.cumsum(np.bincount(field, minlength=n), out=runs[1:])
        return runs

    def _locate(self, s, p, o) -> tuple[TripleIndex, int, int, tuple[int, int]]:
        """For the pattern(s) (s, p, o) as in :meth:`ranges`: the index to
        search, the number k of its leading fields that are bound, the
        number c <= k of those that are scalars (the constant prefix), and
        the key positions [b0, b1) of the block of triples that share the
        constant prefix (the whole index when c is 0, the answer itself
        when c is k)."""
        spo = (s, p, o)
        # an array of patterns has a dimension; an id (or None) has none
        scalar = (getattr(s, "ndim", 0) == 0, getattr(p, "ndim", 0) == 0, getattr(o, "ndim", 0) == 0)
        bound = (s is not None, p is not None, o is not None)
        k = sum(bound)
        index = self._index(_ACCESS[scalar if k == 3 else bound])
        keys, order, bits = index.keys, index.order, index.bits
        c = 0
        while c < k and scalar[order[c]]:
            c += 1
        if c == 0:
            return index, k, 0, (0, len(keys))
        head = 0
        for j in range(c):
            head |= int(spo[order[j]]) << (bits * (2 - j))
        end = head + (1 << (bits * (3 - c)))
        return index, k, c, (keys.searchsorted(head), keys.searchsorted(end))

    @staticmethod
    def _starts(index: TripleIndex, k: int, s, p, o):
        """The range-start key(s) in ``index`` of the pattern(s) (s, p, o),
        whose k leading fields there are bound: those fields in key order,
        the free ones after them 0. Read on the search paths only."""
        spo, order, bits = (s, p, o), index.order, index.bits
        key = spo[order[0]] << (2 * bits)
        if k > 1:
            key = key | (spo[order[1]] << bits)
        if k > 2:
            key = key | spo[order[2]]
        return key

    def _range_size(self, s, p, o) -> int:
        if not self._in_range(s, p, o):
            return 0
        _, lo, hi = self.ranges(s, p, o)
        return int(hi - lo)

    def triples(self) -> Iterator[Triple]:
        """Every triple in SPO order."""
        for start in range(0, self.triple_count, _SCAN_CHUNK):
            s, p, o = self._spo.columns(slice(start, start + _SCAN_CHUNK))
            for t in zip(s.tolist(), p.tolist(), o.tolist()):
                yield Triple(*t)

    def without(self, rows: np.ndarray) -> "Graph":
        """The graph without the triples of ``rows``, an (n, 3) array of
        (s, p, o) ids, every one of which it must hold (a row it lacks
        raises ValueError); a row may repeat.

        The result keeps this graph's terms and ids: it shares the term
        table, and each index built here loses the rows' keys by position,
        with no sort (:meth:`TripleIndex.without`); run tables and stats
        are built again on use. A term of ``rows`` that is left in no
        triple leaves the dictionary, as it would from a graph ingested
        from the kept triples: :meth:`id` gives None for it, and the ids
        after it shift down in order. Only then is it :meth:`renumbered`.
        """
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
        spo, n = self._spo, self.term_count
        keys = spo.pack(*rows.T)
        at = spo.keys.searchsorted(keys)
        held = ((rows >= 0) & (rows < n)).all(axis=1) & (at < len(spo.keys))
        held[held] = spo.keys[at[held]] == keys[held]
        if not held.all():
            raise ValueError(f"cannot delete {tuple(rows[~held][0].tolist())}: the graph does not hold it")
        cols = spo.columns(np.unique(at))
        out = Graph.__new__(Graph)
        out.term_table = self.term_table
        out._indexes = {name: index.without(*cols) for name, index in self._indexes.items()}
        out._spo, out._stats = out._indexes["spo"], None
        dead = out._unused(np.unique(np.concatenate(cols)))
        if len(dead) == 0:
            return out
        return out.renumbered(np.delete(np.arange(n), dead))

    def renumbered(self, order: np.ndarray) -> "Graph":
        """This graph built anew over the terms of ``order``, old ids in
        their new id order; every term of a triple must be among them."""
        renumber = np.empty(self.term_count, dtype=np.int64)
        renumber[order] = np.arange(len(order))
        keys = self.term_table.keys
        return Graph([keys[i] for i in order.tolist()], renumber[np.stack(self._spo.columns(), axis=1)])

    def _unused(self, ids: np.ndarray) -> np.ndarray:
        """The ids of ``ids`` that occur in no triple: no key range of SPO,
        POS or a built OSP leads with them (without OSP, SPO's objects
        are counted)."""
        shift = 2 * self._spo.bits
        for name in ("spo", "pos", "osp"):
            index = self._indexes.get(name)
            if index is not None:
                ids = ids[index.keys.searchsorted(ids << shift) == index.keys.searchsorted((ids + 1) << shift)]
            elif len(ids):
                objects = self._spo.keys & ((1 << self._spo.bits) - 1)
                ids = ids[np.bincount(objects, minlength=self.term_count)[ids] == 0]
        return ids


def parse_ntriples(source: str | bytes | Path, on_error: Callable[[NTriplesError], None] | None = None) -> Graph:
    """Parse N-Triples into a Graph.

    ``source`` may be text content, UTF-8 bytes or a Path; a path is read
    as bytes. A ``str`` is always text: when a one-line ``str`` that fails
    to parse names an existing file, the error says so. Lines end at
    ``\\n`` only (a ``\\r`` before it is dropped).
    Without ``on_error`` (the default) the first malformed line, or line
    that is not valid UTF-8, raises :class:`NTriplesError` with its line
    number; with it, each bad line is skipped and its error passed to
    ``on_error``. Duplicate statements are stored once.

    Terms are interned here, in one place: ids follow first appearance,
    and blank node labels are scoped to the document, each distinct
    label replaced with a fresh one (b0, b1, ...) in order of appearance,
    so graphs parsed from different files never alias blank nodes.

    Each line is first tried against :data:`TRIPLE_LINE`. On a match,
    its three raw tokens are interned through a per-document memo from
    token to id, so a term is built and looked up once per distinct
    token, not once per occurrence; on a memo miss the token's term is
    interned as usual, so ``"x"@EN`` and ``"x"@en`` still share one id.
    Every other line goes through :func:`parse_line`. Both paths intern
    in s, p, o order. The ids are collected flat and the :class:`Graph`
    constructor drops duplicate triples.
    """
    lines, invalid = split_lines(source)
    id_of: dict[bytes, TermId] = {}  # in id order
    blanks: dict[str, Term] = {}

    def intern(term: Term) -> TermId:
        if term.kind is TermKind.BLANK:
            mapped = blanks.get(term.lexical)
            if mapped is None:
                mapped = blanks[term.lexical] = Term.blank(f"b{len(blanks)}")
            term = mapped
        return id_of.setdefault(term_key(term), len(id_of))

    memo: dict[str, TermId] = {}
    ids: list[TermId] = []
    match = TRIPLE_LINE.fullmatch
    for lineno, line in enumerate(lines, start=1):
        m = match(line)
        if m is not None:
            for token in m.groups():
                tid = memo.get(token)
                if tid is None:
                    tid = memo[token] = intern(token_term(token))
                ids.append(tid)
            continue
        try:
            if lineno in invalid:
                raise NTriplesError("invalid UTF-8", lineno, invalid[lineno])
            parsed = parse_line(line, lineno)
        except NTriplesError as exc:
            if len(lines) == 1 and isinstance(source, str) and os.path.isfile(source):
                exc = NTriplesError(
                    "expected N-Triples, got the name of a file: a str source is document text"
                    " and a Path is read as a file",
                    lineno,
                    line,
                )
            if on_error is None:
                raise exc
            on_error(exc)
            continue
        if parsed is not None:
            ids.extend(map(intern, parsed))
    return Graph(id_of, np.array(ids, dtype=np.int64).reshape(-1, 3))


# -- snapshot I/O ------------------------------------------------------


def save_snapshot(g: Graph, dest: str | Path | BufferedIOBase) -> None:
    """Write the graph in the TRQG binary format (atomically to a path)."""
    head = SNAPSHOT_MAGIC + struct.pack("<HQQ", SNAPSHOT_VERSION, g.term_count, g.triple_count)
    write_file(dest, head, [g.term_keys], [np.stack(g._spo.columns(), axis=1).astype("<u4")])


def load_snapshot(src: str | Path | BufferedIOBase) -> Graph:
    """Read a TRQG snapshot back into a Graph; a malformed file of any
    kind raises :class:`SnapshotError`."""
    data = read_source(src)
    error, name = SnapshotError, "snapshot"
    (term_count, triple_count), pos = read_header(data, SNAPSHOT_MAGIC, "<HQQ", SNAPSHOT_VERSION, error, name)
    (keys,), (triples,) = read_body(data, pos, [term_count], "<u4", [(triple_count, 3)], error, name)
    try:
        return Graph(keys, triples)
    except GraphTooLargeError:
        raise
    except ValueError as exc:
        raise SnapshotError(str(exc)) from exc
