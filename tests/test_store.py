from __future__ import annotations

import hashlib
import io
import itertools
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trq.store
from trq.store import (
    Graph,
    GraphTooLargeError,
    SnapshotError,
    TermTable,
    first_appearance,
    load_snapshot,
    parse_ntriples,
    save_snapshot,
)
from trq.embedding import EmbeddingConfig, load_embeddings, save_embeddings, train
from trq.recommend import RecommendRequest, recommend
from trq.sparql import evaluate_bgp, parse_query, resolve_patterns
from trq.binio import term_key, term_of
from trq.terms import RDF_TYPE, Term, Triple

from conftest import (
    MOVIE_QUERY,
    build_graph,
    ex,
    graph_of,
    keys_of,
    make_query,
    match_triples,
    movie_graph,
    pattern,
    reference_first_appearance,
    reference_ranges,
)


@pytest.fixture
def small():
    return build_graph(
        [
            ("a", "p", "b"),
            ("c", "p", "b"),
            ("a", "q", "c"),
            ("b", "p", "a"),
            ("a", "p", "c"),
        ]
    )


def test_dictionary_first_appearance_order(small):
    # a, p, b appear first in that order
    assert small.id(ex("a")) == 0
    assert small.id(ex("p")) == 1
    assert small.id(ex("b")) == 2
    assert small.term(0) == ex("a")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 300), max_size=80), st.sampled_from([np.int64, np.int32, np.uint32]))
def test_first_appearance_matches_the_sorting_reference(values, dtype):
    ids = np.array(values, dtype=dtype)
    got = first_appearance(ids)
    assert got.dtype == ids.dtype
    assert got.tolist() == reference_first_appearance(ids).tolist()


def test_id_lookup_is_total_inverse(small):
    for tid in range(small.term_count):
        assert small.id(small.term(tid)) == tid
    assert small.id(ex("missing")) is None


def test_term_out_of_range(small):
    for tid in (-1, small.term_count):
        with pytest.raises(IndexError, match=rf"term id {tid} is outside \[0, term_count = 5\)"):
            small.term(tid)


def test_counts(small):
    assert small.triple_count == 5
    assert small.term_count == 5  # a p b c q


def test_contains(small):
    a, p, b = small.id(ex("a")), small.id(ex("p")), small.id(ex("b"))
    assert small.contains(a, p, b)
    assert not small.contains(b, p, b)
    assert small.contains_rows(np.array([a, b]), np.array([p, p]), np.array([b, b])).tolist() == [True, False]


def _scan(g: Graph, s, p, o):
    return {
        t
        for t in g.triples()
        if (s is None or t.s == s) and (p is None or t.p == p) and (o is None or t.o == o)
    }


def test_match_against_full_scan(small):
    ids = list(range(small.term_count)) + [None]
    for s in ids:
        for p in ids:
            for o in ids:
                got = set(match_triples(small, s, p, o))
                assert got == _scan(small, s, p, o), (s, p, o)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_match_full_scan_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    rows = [
        (f"e{rng.integers(n)}", f"r{rng.integers(2)}", f"e{rng.integers(n)}")
        for _ in range(int(rng.integers(1, 25)))
    ]
    g = build_graph(rows)
    for _ in range(12):
        pick = lambda: None if rng.random() < 0.5 else int(rng.integers(g.term_count))
        s, p, o = pick(), pick(), pick()
        assert set(match_triples(g, s, p, o)) == _scan(g, s, p, o)


# The index each bound-position combination scans, as a sort key over
# (s, p, o): the row order the join reads from Graph.ranges.
_SEED_ORDER = {
    (True, True, True): lambda t: (t.s, t.p, t.o),
    (True, True, False): lambda t: (t.s, t.p, t.o),
    (True, False, False): lambda t: (t.s, t.p, t.o),
    (True, False, True): lambda t: (t.o, t.s, t.p),
    (False, True, False): lambda t: (t.p, t.o, t.s),
    (False, True, True): lambda t: (t.p, t.o, t.s),
    (False, False, True): lambda t: (t.o, t.s, t.p),
    (False, False, False): lambda t: (t.s, t.p, t.o),
}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_match_row_order_per_bound_combination(seed):
    """A range's triples come in one order per bound mask, whichever index
    serves it and whether each bound position is a scalar or a column:
    s alone by (p, o), p alone by (o, s), o alone by (s, p), nothing bound
    by (s, p, o), two bound by the free one."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    rows = [
        (f"e{rng.integers(n)}", f"r{rng.integers(3)}", f"e{rng.integers(n)}")
        for _ in range(int(rng.integers(1, 40)))
    ]
    g = build_graph(rows)
    ids = range(g.term_count)
    for mask, key in _SEED_ORDER.items():
        for _ in range(6):
            spo = [int(rng.choice(ids)) if bound else None for bound in mask]
            assert match_triples(g, *spo) == sorted(_scan(g, *spo), key=key), spo
            # the same lookup with each mix of scalar and column positions;
            # a column holds this draw's id and another draw's
            for mix in itertools.product([False, True], repeat=3):
                if not any(mix) or any(m and x is None for m, x in zip(mix, spo)):
                    continue
                bound = [np.array([x, int(rng.choice(ids))]) if m else x for m, x in zip(mix, spo)]
                index, lo, hi = g.ranges(*bound)
                for r in range(2):
                    pattern = [x if np.ndim(x) == 0 else int(x[r]) for x in bound]
                    got = [Triple(*t) for t in zip(*(c.tolist() for c in index.columns(slice(lo[r], hi[r]))))]
                    assert got == sorted(_scan(g, *pattern), key=key), (bound, r)


_BOUND_MASKS = [mask for mask in _SEED_ORDER if any(mask)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_array_probes_match_scalar_lookups(data):
    """ranges and contains_rows over unsorted probe arrays, duplicates
    included, of length 0, 1 or many, equal one scalar lookup per probe."""
    n = data.draw(st.integers(2, 6))
    entity = st.integers(0, n - 1)
    rows = data.draw(st.lists(st.tuples(entity, st.integers(0, 2), entity), min_size=1, max_size=30))
    g = build_graph([(f"e{s}", f"r{p}", f"e{o}") for s, p, o in rows])
    stored = [tuple(t) for t in g.triples()]
    if data.draw(st.booleans()):
        g = Graph(g.term_keys, [])  # the same terms, no triple
    ids = st.integers(0, g.term_count - 1)
    # a few triples, stored ones among them, that the probes repeat
    pool = data.draw(st.lists(st.one_of(st.sampled_from(stored), st.tuples(ids, ids, ids)), min_size=1, max_size=4))
    length = data.draw(st.sampled_from([0, 1, data.draw(st.integers(2, 40))]))
    probes = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length)), dtype=np.int64)
    s, p, o = probes.reshape(-1, 3).T

    found = g.contains_rows(s, p, o)
    assert found.dtype == bool and found.shape == (length,)
    assert found.tolist() == [g.contains(*t) for t in zip(s.tolist(), p.tolist(), o.tolist())]

    mask = data.draw(st.sampled_from(_BOUND_MASKS))
    # each bound position is an array, or a scalar broadcast against the others
    arrays = [bound and data.draw(st.booleans()) for bound in mask]
    if not any(arrays):
        arrays[mask.index(True)] = True
    bound = [(col if a else int(col[0]) if length else pool[0][j]) if b else None
             for j, (col, b, a) in enumerate(zip((s, p, o), mask, arrays))]
    index, lo, hi = g.ranges(*bound)
    assert lo.shape == hi.shape == (length,)
    k = sum(mask)
    for i in range(length):
        spo = [0 if x is None else int(x) if np.ndim(x) == 0 else int(x[i]) for x in bound]
        key = int(index.pack(*spo))
        assert lo[i] == index.keys.searchsorted(key)
        assert hi[i] == index.keys.searchsorted(key + (1 << (index.bits * (3 - k))))
        assert hi[i] - lo[i] == len(_scan(g, *(None if x is None else spo[j] for j, x in enumerate(bound))))


def _position(data, bound: bool, length: int, ids):
    """None for a free position, else a scalar id (an int, an np.int64 or
    a 0-d array), an np.full column or an array of ids of the given
    length."""
    if not bound:
        return None
    how = data.draw(st.sampled_from(["scalar", "int64", "0-d", "full", "array"]))
    if how == "scalar":
        return data.draw(ids)
    if how == "int64":
        return np.int64(data.draw(ids))
    if how == "0-d":
        return np.array(data.draw(ids), dtype=np.int64)
    if how == "full":
        return np.full(length, data.draw(ids), dtype=np.int64)
    return np.array(data.draw(st.lists(ids, min_size=length, max_size=length)), dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_block_local_lookups_match_a_scan(data):
    """ranges and contains_rows, each bound position a scalar of any kind,
    an np.full column or an array, equal a brute-force scan of triples(): predicates
    with no triple, the largest id, constants in s or o, empty graphs."""
    n = data.draw(st.integers(1, 8))
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), max_size=30))
    g = graph_of([ex(f"t{i}") for i in range(n)], rows)
    stored = [tuple(t) for t in g.triples()]
    ids = st.one_of(st.just(n - 1), st.integers(0, n - 1))
    length = data.draw(st.integers(0, 12))

    spo = [_position(data, True, length, ids) for _ in range(3)]
    found = g.contains_rows(*spo)
    shape = np.broadcast(*spo).shape
    assert found.dtype == bool and found.shape == shape
    probes = zip(*(np.broadcast_to(x, shape).ravel().tolist() for x in spo))
    assert found.ravel().tolist() == [t in stored for t in probes]

    mask = data.draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    bound = [_position(data, b, length, ids) for b in mask]
    index, lo, hi = g.ranges(*bound)
    given_ = [x for x in bound if x is not None]
    shape = np.broadcast(*given_).shape if given_ else ()
    columns = [None if x is None else np.broadcast_to(x, shape).ravel().tolist() for x in bound]
    for i, (a, b) in enumerate(zip(np.broadcast_to(lo, shape).ravel(), np.broadcast_to(hi, shape).ravel())):
        want = [t for t in stored if all(c is None or t[j] == c[i] for j, c in enumerate(columns))]
        got = list(zip(*(col.tolist() for col in index.columns(slice(a, b)))))
        # the range holds the matches, in the index's order
        assert got == sorted(want, key=lambda t: tuple(t[j] for j in index.order))


# -- run tables ----------------------------------------------------------


def _same_ranges(g: Graph, *bound):
    """g.ranges(*bound), checked against the search it replaces: the same
    index and bounds, as np.intp."""
    index, lo, hi = g.ranges(*bound)
    want_index, want_lo, want_hi = reference_ranges(g, *bound)
    assert index is want_index
    assert np.asarray(lo).dtype == np.asarray(hi).dtype == np.intp
    assert np.shape(lo) == np.shape(want_lo) and np.shape(hi) == np.shape(want_hi)
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi), bound
    return index, lo, hi


def _tables(g: Graph) -> dict:
    """Every run table of g, keyed by (index order, c, b0, b1)."""
    return {(index.order, *key): runs for index in g._indexes.values() for key, runs in index.runs.items()}


def _assert_table_rule(g: Graph) -> None:
    """Each table has term_count + 1 entries of the smallest dtype that
    holds its block size, counts its whole block, and sits on a block
    of at least (term_count + 1) / RUN_DENSITY keys."""
    n = g.term_count
    for (_, c, b0, b1), runs in _tables(g).items():
        assert runs.shape == (n + 1,) and runs.dtype == np.min_scalar_type(b1 - b0)
        assert runs[0] == 0 and runs[-1] == b1 - b0
        assert trq.store.RUN_DENSITY * (b1 - b0) >= n + 1


@pytest.fixture
def run_reads(monkeypatch):
    """For each call that could read a run table, in order: (c, b0, b1,
    probes, whether a table served it)."""
    reads = []
    runs = Graph._runs

    def recorded(self, index, c, b0, b1, probes):
        table = runs(self, index, c, b0, b1, probes)
        reads.append((c, int(b0), int(b1), probes, table is not None))
        return table

    monkeypatch.setattr(Graph, "_runs", recorded)
    return reads


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_run_tables_match_the_search(data):
    """A run of ranges calls on one graph, bound positions scalars or
    probe columns (duplicates, lengths 0, 1 and many, the ids 0 and
    term_count - 1), gives the results of the search that run tables
    replace, whether a call counts a table, reads one an earlier call
    counted, or searches; terms with no triple move the density bound."""
    n = data.draw(st.integers(1, 8))
    terms = n + data.draw(st.sampled_from([0, 0, 8, 40, 200]))
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), max_size=40))
    g = graph_of([ex(f"t{i}") for i in range(terms)], rows)
    ids = st.one_of(st.sampled_from([0, terms - 1]), st.integers(0, n - 1), st.integers(0, terms - 1))
    for _ in range(data.draw(st.integers(1, 6))):
        length = data.draw(st.sampled_from([0, 1, data.draw(st.integers(2, 60))]))
        pool = data.draw(st.lists(ids, min_size=1, max_size=4))
        column = st.lists(st.one_of(st.sampled_from(pool), ids), min_size=length, max_size=length)
        square = length % 2 == 0 and data.draw(st.booleans())  # a (2, length / 2) probe array
        bound = []
        for _ in range(3):
            how = data.draw(st.sampled_from(["free", "scalar", "array"]))
            if how == "scalar":
                bound.append(data.draw(ids))
            elif how == "array":
                col = np.array(data.draw(column), dtype=np.int64)
                bound.append(col.reshape(2, -1) if square else col)
            else:
                bound.append(None)
        _same_ranges(g, *bound)
    _assert_table_rule(g)


def test_run_tables_keep_blocks_apart():
    """A table is keyed by its prefix length and both block bounds: the
    empty block of a constant that is no predicate starts where the next
    predicate's block does, and a one-triple (p) block spans the same keys
    as its (p, s) block, which counts o, not s."""
    g = build_graph([("a", "p", "b"), ("b", "p", "a"), ("a", "q", "b")])
    a, p, b, q = (g.id(ex(x)) for x in "apbq")
    assert (a, p, b, q) == (0, 1, 2, 3)
    subjects = np.array([a, b, a], dtype=np.int64)
    # b names no predicate: its PSO block is empty and starts where q's does
    for pred in (b, q, b):
        _, lo, hi = _same_ranges(g, subjects, pred, None)
        assert (hi - lo).tolist() == ([0, 0, 0] if pred == b else [1, 0, 1])
    # q's one triple is its (q) block and its (q, a) block alike
    _, lo, hi = _same_ranges(g, a, q, np.array([b, a, b], dtype=np.int64))
    assert (hi - lo).tolist() == [1, 0, 1]
    pso = g._index("pso")
    assert pso.runs.keys() == {(1, 2, 3), (2, 2, 3)}
    _assert_table_rule(g)


def test_a_block_below_the_density_bound_is_searched(run_reads):
    """A two-triple predicate among 100 terms stays below the bound
    (16 x 2 < 101), however many probes a call brings; a 60-triple one
    gets a table."""
    terms = [ex(f"e{i}") for i in range(98)] + [ex("rare"), ex("common")]
    rare, common = 98, 99
    rows = [(0, rare, 1), (5, rare, 1)] + [(i, common, (i * 7) % 98) for i in range(60)]
    g = graph_of(terms, rows)
    probes = np.arange(200, dtype=np.int64) % 100
    for _ in range(2):
        _, lo, hi = _same_ranges(g, probes, rare, None)
        assert int((hi - lo).sum()) == 4  # subjects 0 and 5, twice each
        _same_ranges(g, probes, common, None)
    assert [table for *_, table in run_reads] == [False, True, False, True]
    assert len(_tables(g)) == 1
    _assert_table_rule(g)


def _fifty_triple_block() -> tuple[Graph, int]:
    """A graph of 159 terms, so the bound is (159 + 1) / 16 = 10 probes,
    and its one predicate, whose block has 50 keys."""
    terms = [ex(f"e{i}") for i in range(158)] + [ex("p")]
    p = 158
    return graph_of(terms, [(i, p, (3 * i) % 50) for i in range(50)]), p


def test_a_small_call_reads_a_table_a_large_call_counted(run_reads):
    """Before a table exists, calls whose probes together stay below the
    bound search and count none; once a large call has counted it, a call
    of any size reads it."""
    g, p = _fifty_triple_block()
    small = np.array([0, 49, 0], dtype=np.int64)
    for probes in (small, small[:1].repeat(6), np.arange(10, dtype=np.int64) * 15, small, small[:0]):
        _same_ranges(g, probes, p, None)
    assert [(probes, table) for *_, probes, table in run_reads] == [
        (3, False), (6, False), (10, True), (3, True), (0, True)
    ]
    assert len(_tables(g)) == 1
    _assert_table_rule(g)


def test_small_calls_together_count_a_table(run_reads):
    """The probes of the calls on a block add up: the call that brings
    them to the bound counts the table, however few probes it brings, so
    a run of small calls, as a join of many small steps makes, pays for
    one too."""
    g, p = _fifty_triple_block()
    small = np.array([0, 49, 0], dtype=np.int64)
    for probes in (small, small, small, small[:1], small):
        _same_ranges(g, probes, p, None)
    assert [(probes, table) for *_, probes, table in run_reads] == [
        (3, False), (3, False), (3, False), (1, True), (3, True)
    ]
    assert len(_tables(g)) == 1
    _assert_table_rule(g)


def test_run_table_dtypes():
    """A table's dtype is the smallest unsigned one that holds its block
    size: uint8 for 200 keys, uint16 for 300 and uint32 for 72,000."""
    n = 540
    terms = [ex(f"e{i}") for i in range(n)] + [ex(f"p{bits}") for bits in (8, 16, 32)]
    p8, p16, p32 = n, n + 1, n + 2
    s, o = np.meshgrid(np.arange(300), np.arange(300, 540), indexing="ij")
    rows = np.concatenate([
        np.stack([np.arange(200), np.full(200, p8), np.arange(200) + 1], axis=1),
        np.stack([np.arange(300), np.full(300, p16), np.arange(300) + 2], axis=1),
        np.stack([s.ravel(), np.full(s.size, p32), o.ravel()], axis=1),
    ])
    g = Graph(keys_of(terms), rows)
    probes = np.concatenate([[0, len(terms) - 1], np.arange(0, len(terms), 12)]).astype(np.int64)
    for pred, dtype in ((p8, np.uint8), (p16, np.uint16), (p32, np.uint32)):
        _, lo, hi = _same_ranges(g, probes, pred, None)
        (runs,) = (t for (_, _, b0, b1), t in _tables(g).items() if b0 <= lo.min() and hi.max() <= b1)
        assert runs.dtype == dtype
    _assert_table_rule(g)


def test_run_tables_after_a_run_of_queries(run_reads):
    """After queries are answered, every table holds term_count + 1
    entries of the dtype of its block size, and no block below the
    density bound has one, though calls reached such a block with more
    probes than the bound, and large blocks with fewer."""
    rng = np.random.default_rng(5)
    rels = [f"r{i}" for i in range(4)]
    rows = [(f"e{rng.integers(300)}", rels[rng.integers(4)], f"e{rng.integers(300)}") for _ in range(1600)]
    rows += [(f"e{i}", "r0", "hub") for i in range(40)]
    rows += [(f"e{i}", "rare", f"e{i + 1}") for i in range(12)] + [("e9", "r3", "lone"), ("e10", "r3", "lone")]
    g = build_graph(rows)
    queries = [
        # two rows, then two probes on r2's block (a one-row table passes scalars)
        [pattern("?a", "r3", "lone"), pattern("?a", "r2", "?b")],
        # forty rows, then forty probes on rare's 12-triple block
        [pattern("?a", "r0", "hub"), pattern("?a", "rare", "?b")],
        [pattern("?a", "r0", "?b"), pattern("?b", "r1", "?c"), pattern("?c", "r2", "?a")],
    ]
    for patterns in queries:
        # the whole join, then the subquery trees, which leave out constant leaves
        evaluate_bgp(g, resolve_patterns(g, patterns))
        recommend(g, RecommendRequest(query=make_query(patterns), embeddings=None, uniform_f=0.5, top_k=None))
    _assert_table_rule(g)
    bound = (g.term_count + 1) / trq.store.RUN_DENSITY
    assert _tables(g)
    assert any(b1 - b0 < bound <= probes and not table for _, b0, b1, probes, table in run_reads)
    assert any(probes < bound <= b1 - b0 and not table for _, b0, b1, probes, table in run_reads)


SPO, POS, OSP, PSO = (0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2)


@pytest.fixture
def built(monkeypatch):
    """The field orders of the indexes built from here on, in order."""
    orders = []

    class Recorded(trq.store.TripleIndex):
        __slots__ = ()

        def __init__(self, order, *args, **kwargs):
            orders.append(order)
            super().__init__(order, *args, **kwargs)

    monkeypatch.setattr(trq.store, "TripleIndex", Recorded)
    return orders


def test_pso_is_built_only_by_a_subject_and_predicate_lookup(small, built):
    """Loading, ``contains``, the other lookups and the statistics read only
    SPO and POS, each index's triples through ``columns``. PSO is built
    on the first lookup that binds s and p and leaves o free, or that binds
    all three with s and p scalars and o a column, and OSP on the first
    that leaves p free and binds o; each is built once and kept. Ingest,
    training, loading and a recommendation never build OSP."""
    g = load_snapshot(io.BytesIO(_snapshot_bytes(small)))
    a, p, b = g.id(ex("a")), g.id(ex("p")), g.id(ex("b"))
    column = np.array([a, a], dtype=np.int64)
    g.contains(a, p, a)
    g.contains_rows(column, column, column)
    g.contains_rows(column, p, column)
    g.ranges(None, p, column)
    g.ranges(a, None, None)
    g.stats.relations()
    assert built == [SPO, POS]
    index, lo, hi = g.ranges(column, p, None)
    assert built == [SPO, POS, PSO] and index.order == PSO
    assert (hi - lo).tolist() == [2, 2]  # (a, p, b) and (a, p, c)
    assert g.ranges(a, p, None)[0] is index and len(built) == 3
    fresh = load_snapshot(io.BytesIO(_snapshot_bytes(small)))
    assert fresh.contains_rows(a, p, column).tolist() == [False, False]
    assert built[3:] == [SPO, POS, PSO]

    del built[:]
    index, lo, hi = g.ranges(None, None, b)
    assert index.order == OSP and built == [OSP]
    rows = list(zip(*(c.tolist() for c in index.columns(slice(lo, hi)))))
    assert rows == sorted((tuple(t) for t in small.triples() if t.o == b), key=lambda t: (t[2], t[0], t[1]))
    assert g.ranges(a, None, np.array([b, a], dtype=np.int64))[0] is index and built == [OSP]

    # a query path with bound predicates never reads OSP
    del built[:]
    movies = movie_graph()
    emb = load_embeddings(_embedding_bytes(train(movies, EmbeddingConfig(dim=4, epochs=2, seed=1))))
    loaded = load_snapshot(io.BytesIO(_snapshot_bytes(movies)))
    assert recommend(loaded, RecommendRequest(query=parse_query(MOVIE_QUERY), embeddings=emb)).solutions
    assert built[:2] == [SPO, POS] and OSP not in built


def test_match_results_sorted_spo(small):
    out = [tuple(t) for t in match_triples(small)]
    assert out == sorted(out)
    a = small.id(ex("a"))
    by_s = [tuple(t) for t in match_triples(small, a)]
    assert by_s == sorted(by_s)


def test_rdf_type_id_property():
    g = build_graph([("a", "type", "C"), ("a", "p", "b")])
    assert g.rdf_type_id == g.id(RDF_TYPE)
    g2 = build_graph([("a", "p", "b")])
    assert g2.rdf_type_id is None


# -- term table --------------------------------------------------------


def test_term_table(small):
    vocab = [RDF_TYPE, ex("a"), Term.literal("a"), Term.literal("a", lang="en"), Term.blank("a")]
    vocab += [ex(f"t{i}") for i in range(len(vocab), 8)]
    for entries in ([], [0], [3, 1, 4, 2], [5, 0, 2, 6, 1, 4, 3]):
        table = TermTable(keys_of([vocab[i] for i in entries]), "term")
        # ids equals a Term-keyed lookup, absent keys (7 always) and an empty table too
        row_of = {vocab[i]: row for row, i in enumerate(entries)}
        keys = keys_of(vocab + vocab[::-1])
        got = table.ids(keys)
        assert got.dtype == np.int64 and got.tolist() == [row_of.get(term_of(k), -1) for k in keys]
        assert [table.id(t) for t in vocab] == [row_of.get(t) for t in vocab]
        assert table.rdf_type_id == row_of.get(RDF_TYPE)
        assert [table.term(i) for i in range(len(entries))] == [vocab[i] for i in entries]
        for tid in (-1, len(entries)):
            with pytest.raises(IndexError, match=rf"^term id {tid} is outside \[0, term_count = {len(entries)}\)$"):
                table.term(tid)
        assert table.id(Term.literal("\ud800")) is None  # a lone surrogate has no entry
        if entries:
            twice = vocab[entries[-1]]
            for name in ("term", "entity", "relation"):
                with pytest.raises(ValueError, match=f"^{name} table lists {re.escape(twice.nt())} twice$"):
                    TermTable(table.keys + (term_key(twice),), name)
    # Graph.without shares its table unless a term leaves it
    a, p, b, c, q = (small.id(ex(x)) for x in "apbcq")
    assert small.without(np.array([[a, p, b]])).term_table is small.term_table
    assert small.without(np.empty((0, 3), dtype=np.int64)).term_table is small.term_table
    out = small.without(np.array([[a, q, c]]))  # q is in no other triple
    assert out.term_table is not small.term_table and out.id(ex("q")) is None
    assert out.term_keys == tuple(k for k in small.term_keys if k != term_key(ex("q")))


# -- deletion ----------------------------------------------------------


def rebuilt_without(g: Graph, rows) -> Graph:
    """``g`` without ``rows``, built anew: every term kept but those of
    ``rows`` that no kept triple holds, in id order, and the kept triples
    renumbered to match."""
    gone = set(map(tuple, np.asarray(rows, dtype=np.int64).reshape(-1, 3).tolist()))
    kept = [tuple(t) for t in g.triples() if tuple(t) not in gone]
    dead = {x for row in gone for x in row} - {x for t in kept for x in t}
    alive = [i for i in range(g.term_count) if i not in dead]
    renumber = {old: new for new, old in enumerate(alive)}
    return Graph([g.term_keys[i] for i in alive], [tuple(renumber[x] for x in t) for t in kept])


def assert_same_indexes(got: Graph, want: Graph, names):
    assert got.term_keys == want.term_keys and got.rdf_type_id == want.rdf_type_id
    assert [got.id(t) for t in want.terms()] == list(range(want.term_count))
    for name in names:
        assert np.array_equal(got._index(name).keys, want._index(name).keys), name


def source_state(g: Graph):
    """Copies of what ``without`` must leave untouched."""
    indexes = {name: (index, index.keys.copy(), dict(index.runs), dict(index.probes)) for name, index in g._indexes.items()}
    return g.term_keys, g.term_table, g.term_table._id_of.copy(), indexes, g._stats


def assert_state_kept(g: Graph, state):
    keys, table, id_of, indexes, stats = state
    assert g.term_keys is keys and g.term_table is table and table._id_of == id_of and g._stats is stats
    assert g._indexes.keys() == indexes.keys()
    for name, (index, copy, runs, probes) in indexes.items():
        assert g._indexes[name] is index and np.array_equal(index.keys, copy)
        assert index.runs.keys() == runs.keys() and index.probes == probes


def test_without_keeps_the_term_table_and_drops_keys_by_position(small):
    a, p, b, c = (small.id(ex(x)) for x in "apbc")
    column = np.array([a, c], dtype=np.int64)
    small.ranges(column, p, None)  # builds PSO
    small.ranges(None, None, b)  # builds OSP
    small.stats.relations()
    state = source_state(small)
    out = small.without(np.array([[a, p, b]]))
    assert out.term_keys is small.term_keys and out.rdf_type_id == small.rdf_type_id
    assert out.triple_count == small.triple_count - 1 and not out.contains(a, p, b)
    # every index the source had built loses the key, and no other is built
    assert sorted(out._indexes) == sorted(small._indexes) == ["osp", "pos", "pso", "spo"]
    assert_same_indexes(out, rebuilt_without(small, [[a, p, b]]), small._indexes)
    assert all(not index.runs and not index.probes for index in out._indexes.values()) and out._stats is None
    assert_state_kept(small, state)


def test_a_term_left_in_no_triple_leaves_the_dictionary():
    g = build_graph([("a", "type", "C"), ("a", "p", "b"), ("c", "p", "b"), ("c", "q", "C")])
    a, C, c, q = (g.id(ex(x)) for x in "aCcq")
    # C is still an object of q; rdf:type dies with its one fact
    out = g.without(np.array([[a, g.rdf_type_id, C]]))
    assert out.rdf_type_id is None and out.id(RDF_TYPE) is None and out.id(ex("C")) == C - 1
    assert [out.term(i) for i in range(out.term_count)] == [ex("a"), ex("C"), ex("p"), ex("b"), ex("c"), ex("q")]
    assert_same_indexes(out, rebuilt_without(g, [[a, g.rdf_type_id, C]]), ["spo", "pos", "pso", "osp"])
    # with c's q fact too, C is in no fact, and neither is q
    rows = np.array([[a, g.rdf_type_id, C], [c, q, C]])
    out = g.without(rows)
    assert out.id(ex("C")) is None and out.id(ex("q")) is None and out.id(ex("c")) == c - 2
    assert_same_indexes(out, rebuilt_without(g, rows), ["spo", "pos", "pso", "osp"])
    # c, p and b each stay in a kept triple, as subject, predicate or object
    out = g.without(np.array([[c, g.id(ex("p")), g.id(ex("b"))]]))
    assert out.term_keys is g.term_keys and out.rdf_type_id == g.rdf_type_id


def test_without_takes_repeated_and_no_rows(small):
    a, p, b = (small.id(ex(x)) for x in "apb")
    twice = small.without(np.array([[a, p, b], [a, p, b]]))
    assert twice.triple_count == small.triple_count - 1
    assert_same_indexes(twice, rebuilt_without(small, [[a, p, b]]), ["spo", "pos", "pso", "osp"])
    for rows in (np.empty((0, 3), dtype=np.int64), []):
        none = small.without(rows)
        assert none.term_keys is small.term_keys and list(none.triples()) == list(small.triples())


@pytest.mark.parametrize("row", [("b", "q", "a"), ("a", "p", None), (None, "p", "b")])
def test_without_a_row_the_graph_lacks_is_a_named_error(small, row):
    # a row of known terms, and ids past either end of the table
    ids = [small.term_count if x is None else small.id(ex(x)) for x in row]
    if row[0] is None:
        ids[0] = -1
    state = source_state(small)
    with pytest.raises(ValueError, match=r"cannot delete \(.*\): the graph does not hold it"):
        small.without(np.array([[small.id(ex("a")), small.id(ex("p")), small.id(ex("b"))], ids]))
    assert_state_kept(small, state)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_without_matches_a_rebuild(data):
    n = data.draw(st.integers(1, 8))
    triples = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), min_size=1, max_size=30))
    g = graph_of([RDF_TYPE] + [ex(f"t{i}") for i in range(1, n)], triples)
    held = [tuple(t) for t in g.triples()]
    rows = data.draw(st.lists(st.sampled_from(held), max_size=len(held) + 2))
    # the source may have built PSO, OSP and run tables before
    for name in data.draw(st.lists(st.sampled_from(["pso", "osp"]), unique=True)):
        g._index(name)
    if data.draw(st.booleans()):
        g.ranges(None, 0, np.arange(n, dtype=np.int64))
    state = source_state(g)
    out = g.without(np.array(rows, dtype=np.int64).reshape(-1, 3))
    built = sorted(out._indexes)
    want = rebuilt_without(g, rows)
    assert (out.term_keys is g.term_keys) == (want.term_count == g.term_count)
    if out.term_keys is g.term_keys:  # the source's indexes, each without the rows
        assert built == sorted(g._indexes)
    assert_same_indexes(out, want, ["spo", "pos", "pso", "osp"])
    assert_state_kept(g, state)


# -- statistics --------------------------------------------------------


def test_stats_dom_ran_freq(small):
    st_ = small.stats
    p = small.id(ex("p"))
    q = small.id(ex("q"))
    # p: triples (a,p,b) (c,p,b) (b,p,a) (a,p,c): subjects {a,c,b}, objects {b,a,c}
    assert st_.freq(p) == 4
    assert st_.dom(p) == 3
    assert st_.ran(p) == 3
    assert st_.freq(q) == 1 and st_.dom(q) == 1 and st_.ran(q) == 1
    assert st_.freq(small.id(ex("a"))) == 0  # not used as predicate


def test_stats_conditional_counts(small):
    st_ = small.stats
    p = small.id(ex("p"))
    b = small.id(ex("b"))
    a = small.id(ex("a"))
    # subjects with (s, p, b): a and c
    assert st_.dom_at(p, b) == 2
    # objects with (a, p, o): b and c
    assert st_.ran_at(a, p) == 2
    assert st_.dom_at(p, small.id(ex("q"))) == 0
    # cached path returns the same values
    assert st_.dom_at(p, b) == 2
    assert st_.ran_at(a, p) == 2


def test_stats_against_scan_oracle():
    rng = np.random.default_rng(3)
    rows = [
        (f"e{rng.integers(6)}", f"r{rng.integers(3)}", f"e{rng.integers(6)}")
        for _ in range(40)
    ]
    g = build_graph(rows)
    stats = g.stats
    trs = list(g.triples())
    rels = {t.p for t in trs}
    for r in rels:
        assert stats.freq(r) == sum(1 for t in trs if t.p == r)
        assert stats.dom(r) == len({t.s for t in trs if t.p == r})
        assert stats.ran(r) == len({t.o for t in trs if t.p == r})
        for c in range(g.term_count):
            assert stats.dom_at(r, c) == len({t.s for t in trs if t.p == r and t.o == c})
            assert stats.ran_at(c, r) == len({t.o for t in trs if t.p == r and t.s == c})


def _assert_stats_match_unique(g: Graph) -> None:
    t = np.array([tuple(t) for t in g.triples()], dtype=np.int64).reshape(-1, 3)
    s, p, o = t.T
    stats = g.stats
    assert stats.relations() == np.unique(p).tolist()
    for r in range(g.term_count + 1):  # one id past the last
        on = p == r
        assert stats.freq(r) == np.count_nonzero(on)
        assert stats.dom(r) == len(np.unique(s[on]))
        assert stats.ran(r) == len(np.unique(o[on]))
        for c in range(g.term_count):
            assert stats.dom_at(r, c) == len(np.unique(s[on & (o == c)]))
            assert stats.ran_at(c, r) == len(np.unique(o[on & (s == c)]))


def test_stats_of_an_empty_graph():
    _assert_stats_match_unique(Graph([], []))
    _assert_stats_match_unique(graph_of([ex("a"), ex("p")], []))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stats_match_a_unique_reference(data):
    n = data.draw(st.integers(1, 10))
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), max_size=40))
    _assert_stats_match_unique(graph_of([ex(f"t{i}") for i in range(n)], rows))


# -- snapshots ---------------------------------------------------------


def test_snapshot_round_trip(tmp_path, small):
    path = tmp_path / "g.trqg"
    save_snapshot(small, path)
    g2 = load_snapshot(path)
    assert g2.term_count == small.term_count
    assert g2.triple_count == small.triple_count
    assert [g2.term(i) for i in range(g2.term_count)] == [
        small.term(i) for i in range(small.term_count)
    ]
    assert {tuple(t) for t in g2.triples()} == {tuple(t) for t in small.triples()}


def test_snapshot_round_trip_with_literals_and_blanks(tmp_path):
    text = '_:x <http://p> "café"@fr .\n<http://s> <http://p> _:x .\n'
    g = parse_ntriples(text)
    path = tmp_path / "g.trqg"
    save_snapshot(g, path)
    g2 = load_snapshot(path)
    assert {tuple(t) for t in g2.triples()} == {tuple(t) for t in g.triples()}
    assert [g2.term(i) for i in range(g2.term_count)] == [
        g.term(i) for i in range(g.term_count)
    ]


def test_snapshot_bytes_deterministic(small):
    b1, b2 = io.BytesIO(), io.BytesIO()
    save_snapshot(small, b1)
    save_snapshot(small, b2)
    assert b1.getvalue() == b2.getvalue()
    assert b1.getvalue()[:4] == b"TRQG"


# Literals, escapes, blank nodes, comments, CRLF and duplicate lines; the
# lines without escapes take the line pattern, the others parse_line.
GOLDEN_DOC = (
    b"# a mixed-syntax document\r\n"
    b"<http://ex.org/s1> <http://ex.org/p> <http://ex.org/o1> .\r\n"
    b'<http://ex.org/s1> <http://ex.org/p> "plain" .\n'
    b'<http://ex.org/s1> <http://ex.org/p> "Tagged"@EN-gb .\n'
    b'<http://ex.org/s1> <http://ex.org/p> "Tagged"@en-GB . # the same term\n'
    b'<http://ex.org/s2> <http://ex.org/q> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
    b'<http://ex.org/s2> <http://ex.org/q> "tab\\there \\"quoted\\" \\u00e9\\nnew line" .\n'
    b'<http://ex.org/s2> <http://ex.org/q> "raw\ttab and raw\\rcr" .\n'  # a raw CR in a literal is an error
    b"<http://ex.org/\\u0041> <http://ex.org/p> <http://ex.org/A> .\n"
    b"_:x <http://ex.org/p> _:y .\n"
    b"_:y\t<http://ex.org/q>\t_:x .  # blank nodes, tabs\n"
    b"\n"
    b"   # an indented comment\n"
    b"<http://ex.org/s1> <http://ex.org/p> <http://ex.org/o1> .\n"
    b'<http://ex.org/s3><http://ex.org/p>"caf\xc3\xa9".\r\r\n'
    b'_:x <http://ex.org/p> "\xe2\x98\x83"@de .\n'
    b'<http://ex.org/A> <http://ex.org/p> "plain" .\n'
)


def test_ingest_output_is_pinned():
    # The SHA-256 of the TRQG bytes the line-by-line parser wrote for GOLDEN_DOC.
    g = parse_ntriples(GOLDEN_DOC)
    assert (g.term_count, g.triple_count) == (16, 12)
    digest = hashlib.sha256(_snapshot_bytes(g)).hexdigest()
    assert digest == "29ad9f5b05594c5b1d09471c15ce74e4769a6cd122aaa692d09c5b009434d2e5"


def _assert_spo_keys_are_distinct_packed_rows(n: int, rows: list[tuple[int, int, int]]) -> None:
    g = graph_of([ex(f"t{i}") for i in range(n)], rows)
    packed = g._spo.pack(*np.array(rows, dtype=np.int64).reshape(-1, 3).T)
    assert g._spo.keys.dtype == np.int64
    assert np.array_equal(g._spo.keys, np.unique(packed))
    assert g.triple_count == len(set(rows))


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [(0, 1, 2)] * 7,
        [(2, 1, 0), (1, 1, 1), (2, 1, 0), (0, 2, 2), (0, 0, 0), (1, 1, 1)],
    ],
    ids=["empty", "all-duplicate", "shuffled"],
)
def test_spo_keys_named_cases(rows):
    _assert_spo_keys_are_distinct_packed_rows(3, rows)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_spo_keys_are_the_distinct_packed_rows(data):
    n = data.draw(st.integers(1, 40))
    distinct = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), max_size=30))
    rows = data.draw(st.permutations(distinct * data.draw(st.integers(1, 3))))
    _assert_spo_keys_are_distinct_packed_rows(n, rows)


def test_snapshot_rejects_bad_magic(small):
    buf = io.BytesIO()
    save_snapshot(small, buf)
    data = bytearray(buf.getvalue())
    data[:4] = b"ZZZZ"
    with pytest.raises(SnapshotError):
        load_snapshot(io.BytesIO(bytes(data)))


def test_snapshot_rejects_truncation(small):
    buf = io.BytesIO()
    save_snapshot(small, buf)
    data = buf.getvalue()
    with pytest.raises(SnapshotError):
        load_snapshot(io.BytesIO(data[:-3]))


def test_snapshot_rejects_trailing_garbage(small):
    buf = io.BytesIO()
    save_snapshot(small, buf)
    with pytest.raises(SnapshotError):
        load_snapshot(io.BytesIO(buf.getvalue() + b"\x00"))


def test_snapshot_rejects_bad_version(small):
    buf = io.BytesIO()
    save_snapshot(small, buf)
    data = bytearray(buf.getvalue())
    data[4] = 99
    with pytest.raises(SnapshotError):
        load_snapshot(io.BytesIO(bytes(data)))


def test_empty_graph_round_trip(tmp_path):
    g = Graph([], [])
    path = tmp_path / "empty.trqg"
    save_snapshot(g, path)
    g2 = load_snapshot(path)
    assert g2.term_count == 0 and g2.triple_count == 0
    assert match_triples(g2) == []


def _snapshot_bytes(g) -> bytes:
    buf = io.BytesIO()
    save_snapshot(g, buf)
    return buf.getvalue()


def _embedding_bytes(emb) -> io.BytesIO:
    buf = io.BytesIO()
    save_embeddings(emb, buf)
    buf.seek(0)
    return buf


_FUZZ_SOURCE = parse_ntriples(
    '_:x <http://e/p> "caf\u00e9"@fr .\n<http://e/s> <http://e/p> _:x .\n'
    '<http://e/s> <http://e/q> "1"^^<http://e/int> .\n<http://e/o> <http://e/p> <http://e/s> .\n'
)


def test_snapshot_bytes_match_struct_layout():
    """The numpy-written triple block is the u32 SPO layout byte for byte."""
    data = _snapshot_bytes(_FUZZ_SOURCE)
    block = b"".join(struct.pack("<III", t.s, t.p, t.o) for t in _FUZZ_SOURCE.triples())
    assert data.endswith(block)
    assert len(data) - len(block) == 22 + sum(
        5 + len(t.lexical.encode("utf-8")) for t in _FUZZ_SOURCE.terms()
    )


def test_snapshot_rejects_unknown_term_id():
    data = bytearray(_snapshot_bytes(_FUZZ_SOURCE))
    data[-4:] = struct.pack("<I", _FUZZ_SOURCE.term_count)
    with pytest.raises(SnapshotError, match="unknown term id"):
        load_snapshot(io.BytesIO(bytes(data)))


@pytest.mark.parametrize("field_offset", [6, 14])  # term_count, triple_count
def test_snapshot_rejects_counts_beyond_the_file(field_offset):
    data = bytearray(_snapshot_bytes(_FUZZ_SOURCE))
    data[field_offset : field_offset + 8] = struct.pack("<Q", 2**62)
    with pytest.raises(SnapshotError, match="truncated"):
        load_snapshot(io.BytesIO(bytes(data)))


@settings(max_examples=300, deadline=None)
@given(
    st.data(),
    st.sampled_from(["truncate", "flip", "count", "length"]),
)
def test_snapshot_loader_fuzz_raises_only_snapshot_error(data, how):
    raw = bytearray(_snapshot_bytes(_FUZZ_SOURCE))
    if how == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
    elif how == "flip":
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(0, len(raw) - 1))
            raw[i] ^= data.draw(st.integers(1, 255))
    elif how == "count":
        offset = data.draw(st.sampled_from([6, 14]))
        value = data.draw(st.one_of(st.integers(0, 64), st.sampled_from([2**32, 2**62, 2**64 - 1])))
        raw[offset : offset + 8] = struct.pack("<Q", value)
    else:
        # the first term's byte length
        raw[23:27] = struct.pack("<I", data.draw(st.integers(0, 2**32 - 1)))
    try:
        g = load_snapshot(io.BytesIO(bytes(raw)))
    except SnapshotError:
        return
    assert all(0 <= x < g.term_count for t in g.triples() for x in t)


def test_failed_save_leaves_existing_file_untouched(tmp_path):
    path = tmp_path / "g.trqg"
    save_snapshot(_FUZZ_SOURCE, path)
    before = path.read_bytes()
    # an entry that is not bytes cannot be joined: the write fails after the header
    bad = Graph(keys_of([ex("a"), ex("p")]) + ["not bytes"], [(0, 1, 2)])
    with pytest.raises(TypeError):
        save_snapshot(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["g.trqg"]


def test_graph_beyond_packed_key_size_is_a_named_error(monkeypatch):
    monkeypatch.setattr(trq.store, "MAX_TERM_COUNT", 4)
    rows = [("a", "p", "b"), ("c", "p", "d")]  # five terms
    with pytest.raises(GraphTooLargeError):
        build_graph(rows)
    assert build_graph(rows[:1]).term_count == 3
