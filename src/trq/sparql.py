"""Parser and evaluator for a basic-graph-pattern SPARQL fragment.

Supported query shapes: ``PREFIX`` declarations, ``SELECT [DISTINCT]
?v ... WHERE { ... }`` and ``ASK { ... }``, where the body is a
conjunction of dot-separated triple patterns. ``DISTINCT`` is accepted
and has no effect: solutions are whole mappings over the deduplicated
triples, so they are distinct already. Anything beyond that (COUNT,
FILTER, OPTIONAL, UNION, property paths, blank nodes in patterns, ...)
raises :class:`UnsupportedFeatureError` naming the feature, so callers
can tell a fragment boundary from a typo.

A query's constants follow the N-Triples term rules, read by
:mod:`trq.ntriples`: an IRI, literal or ``PREFIX`` namespace it rejects
(a relative IRI, a forbidden character written or ``\\u``-escaped, an
ECHAR escape in an IRI) is a :class:`QuerySyntaxError`.

A query's constants become term ids in one place,
:func:`resolve_patterns`, before anything is planned: the evaluator
and every scorer read the resolved patterns, and terms are rendered again
only for output.

Evaluation is an exact, order-preserving columnar bind-join over the
store. Patterns are reordered greedily by an estimated result
cardinality drawn from GraphStats. A table of bindings (one int64
column per variable) starts as one empty row, and each pattern in turn
extends every row by the triples it matches under that row, found with
vectorised index range lookups and taken in the order of the index
range ``Graph.ranges`` returns; the parent rows keep their order. The
rows thus come out in the order of a depth-first walk of the patterns.
Truncation rule: with a limit, the result is the first ``limit`` rows
in that order, and it is flagged truncated exactly when one more row
exists after the last of them.

A join step numbers its output rows in that order. Each parent's rows
form one run, as long as its range is wide, and row k of parent i reads
the index key at ``k + lo[i] - start[i]``, where ``start[i]``, the sum
of the widths before it, is the number of the parent's first row. A
step whose rows number at most ``JOIN_CHUNK`` yields them in one
window: each parent is repeated by its run length, and its keys are
read at ``arange(total) + repeat(lo - start, counts)``. A one-row table
passes its ids to ``Graph.ranges`` as scalars, as does a step that
binds no column; their one range is read as a slice and paired with
every row by broadcasting. A step that binds no new variable keeps each
row once per match and reads no key. A step with more rows yields them
in windows of ``JOIN_CHUNK``: a window ``[k0, k1)`` finds its last
parent with one scalar search of the run ends and starts at the last
parent of the window before it, and its parent map repeats each parent
in between by its run length, the first and last runs clipped to the
window. The join walks the steps depth first, each window through the
steps after it before the next window is made, so a step costs time in
proportion to its rows and holds at most ``JOIN_CHUNK`` of them.

Patterns that share no variable form independent parts (two type
leaves ``?b a C . ?c a C`` meet only at the constant). The greedy
order yields the parts itself: a pattern starts a new part when greedy
picks it while it has a variable and shares none with the variables
bound so far, which it does only once no remaining pattern shares one,
so the patterns before it and from it on share no variable. A ground
pattern (no variable) joins the current part. Each part is joined once
and keeps at most ``limit + 1`` rows. The depth-first order over all
the patterns is the lexicographic order of the parts' product, so the
result is read off the part tables by mixed-radix index arithmetic,
never by joining one part once per row of another. ``truncated`` is
set exactly when the product of the kept part sizes exceeds ``limit``:
a part cut at ``limit + 1`` rows alone makes the product exceed it.

:func:`evaluate_bgp` joins a basic graph pattern once from the one empty row.
:class:`JoinPrefixes` shares the joins of a query's relaxations (the
query without some of its patterns, which :mod:`trq.recommend`
evaluates) through the same join. The rows of each prefix of the query's
greedy order are joined from the prefix before it when first needed,
its one new step compiled then, and kept while they number at most
``JOIN_CHUNK``. A prefix never reaches past a pattern that opens a
second part, so no prefix holds a product. The relaxation without the
patterns M starts from the rows of the longest kept prefix that holds
no pattern of M, at worst the one empty row, and joins the patterns
left in greedy order from that prefix's variables, under the same
truncation rule. Where that order opens a part, the rows are read off
the product of the parts, as above, the first part joined from the
prefix's rows.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ntriples import NTriplesError, iri_term, parse_term
from .store import Graph
from .terms import LANG_TAG, RDF_TYPE, Term, TermId


class QuerySyntaxError(ValueError):
    pass


class UnsupportedFeatureError(QuerySyntaxError):
    """The query is valid SPARQL but outside the supported fragment."""

    def __init__(self, feature: str):
        super().__init__(f"unsupported query feature: {feature}")
        self.feature = feature


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Const:
    term: Term


Atom = Var | Const


@dataclass(frozen=True, slots=True)
class TriplePattern:
    s: Atom
    p: Atom
    o: Atom

    def atoms(self) -> tuple[Atom, Atom, Atom]:
        return (self.s, self.p, self.o)

    def variables(self) -> set[str]:
        return {a.name for a in self.atoms() if isinstance(a, Var)}


class QueryForm(Enum):
    SELECT = "select"
    ASK = "ask"


@dataclass(frozen=True)
class Query:
    form: QueryForm
    patterns: tuple[TriplePattern, ...]
    projected: tuple[str, ...] = ()

    def variables(self) -> tuple[str, ...]:
        """Variable names in first-appearance order."""
        out: list[str] = []
        for p in self.patterns:
            for a in p.atoms():
                if isinstance(a, Var) and a.name not in out:
                    out.append(a.name)
        return tuple(out)


# A solution mapping binds every variable of the query to a term id.
SolutionMapping = dict[str, TermId]

# A pattern's atoms as a variable's name, a constant's term id, or None
# for a constant the graph does not hold.
ResolvedAtom = str | TermId | None
ResolvedPattern = tuple[ResolvedAtom, ResolvedAtom, ResolvedAtom]


# -- tokenizer ---------------------------------------------------------

# An f-string ({{ is a brace). iriref and bnode are looser than the term
# rules on purpose, so that the term reader names a fault.
_TOKEN = re.compile(
    rf"""
      (?P<ws>\s+)
    | (?P<comment>\#[^\n]*)
    | (?P<lbrace>\{{) | (?P<rbrace>\}}) | (?P<lparen>\() | (?P<rparen>\))
    | (?P<dtmark>\^\^)
    | (?P<dot>\.(?![0-9]))
    | (?P<semi>;) | (?P<comma>,)
    | (?P<var>[?$][A-Za-z_][A-Za-z0-9_]*)
    | (?P<iriref><[^<>\s]*>)
    | (?P<literal>"(?:[^"\\]|\\[\s\S])*")
    | (?P<langtag>@{LANG_TAG})
    | (?P<bnode>_:[A-Za-z0-9_]*)
    | (?P<pname>(?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_\-]|\.(?=[A-Za-z0-9_\-]))*)
    | (?P<number>[+-]?[0-9][0-9.eE+-]*)
    | (?P<word>[A-Za-z][A-Za-z0-9_]*)
    | (?P<other>\S)
    """,
    re.X,
)

_UNSUPPORTED_KEYWORDS = {
    "filter",
    "optional",
    "union",
    "minus",
    "graph",
    "service",
    "bind",
    "values",
    "limit",
    "offset",
    "order",
    "group",
    "having",
    "construct",
    "describe",
    "insert",
    "delete",
    "exists",
    "reduced",
}


@dataclass(frozen=True, slots=True)
class _Tok:
    kind: str
    text: str


def _read(read: Callable[[str], Term], text: str) -> Term:
    """``read(text)``; a fault is a QuerySyntaxError with its message."""
    try:
        return read(text)
    except NTriplesError as exc:
        raise QuerySyntaxError(exc.reason) from None
    except ValueError as exc:
        raise QuerySyntaxError(str(exc)) from None


def _tokenize(text: str) -> list[_Tok]:
    out: list[_Tok] = []
    pos = 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            raise QuerySyntaxError(f"cannot tokenize near {text[pos:pos + 20]!r}")
        pos = m.end()
        kind = m.lastgroup or "other"
        if kind in ("ws", "comment"):
            continue
        out.append(_Tok(kind, m.group()))
    if pos != len(text):
        raise QuerySyntaxError(f"cannot tokenize near {text[pos:pos + 20]!r}")
    return out


class _Parser:
    def __init__(self, tokens: list[_Tok]):
        self.toks = tokens
        self.i = 0
        self.prefixes: dict[str, str] = {}

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> _Tok:
        tok = self.peek()
        if tok is None:
            raise QuerySyntaxError("unexpected end of query")
        self.i += 1
        return tok

    def at_word(self, word: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "word" and tok.text.lower() == word

    def expect(self, kind: str) -> _Tok:
        tok = self.next()
        if tok.kind != kind:
            raise QuerySyntaxError(f"expected {kind}, got {tok.text!r}")
        return tok

    def _check_keyword(self, tok: _Tok) -> None:
        if tok.kind == "word" and tok.text.lower() in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedFeatureError(tok.text.upper())

    def _iri(self, tok: _Tok) -> Term:
        """The IRI an iriref or a prefixed name writes."""
        if tok.kind == "iriref":
            return _read(parse_term, tok.text)
        prefix, _, local = tok.text.partition(":")
        if prefix not in self.prefixes:
            raise QuerySyntaxError(f"unknown prefix {prefix!r}:")
        return _read(iri_term, self.prefixes[prefix] + local)

    def parse_prologue(self) -> None:
        while self.at_word("prefix"):
            self.next()
            name = self.expect("pname").text
            prefix, _, local = name.partition(":")
            if local:
                raise QuerySyntaxError(f"malformed prefix declaration {name!r}")
            self.prefixes[prefix] = self._iri(self.expect("iriref")).lexical

    def parse_term_atom(self, position: str) -> Atom:
        tok = self.next()
        self._check_keyword(tok)
        if tok.kind == "var":
            return Var(tok.text[1:])
        if tok.kind == "word" and tok.text == "a":
            if position != "predicate":
                raise QuerySyntaxError("'a' is only valid in predicate position")
            return Const(RDF_TYPE)
        if tok.kind == "bnode" or tok.text in ("[", "]"):
            raise UnsupportedFeatureError("blank node in query pattern")
        if tok.kind == "number":
            raise UnsupportedFeatureError("numeric literal shorthand")
        if tok.kind in ("iriref", "pname"):
            term = self._iri(tok)
        elif tok.kind == "literal":
            term = self._literal(tok)
        else:
            if tok.kind in ("semi", "comma"):
                raise UnsupportedFeatureError("predicate-object list shorthand")
            raise QuerySyntaxError(f"unexpected token {tok.text!r}")
        if position == "predicate" and not term.is_iri:
            raise QuerySyntaxError("predicate must be an IRI or a variable")
        if position == "subject" and term.is_literal:
            raise QuerySyntaxError("literal not allowed as subject")
        return Const(term)

    def _literal(self, tok: _Tok) -> Term:
        """The literal a literal token writes, with its tag or datatype."""
        text = tok.text
        nxt = self.peek()
        if nxt is not None and nxt.kind == "langtag":
            text += self.next().text
        elif nxt is not None and nxt.kind == "dtmark":
            self.next()
            dtok = self.next()
            if dtok.kind not in ("iriref", "pname"):
                raise QuerySyntaxError("datatype must be an IRI")
            text += "^^" + self._iri(dtok).nt()
        return _read(parse_term, text)

    def parse_group(self) -> tuple[TriplePattern, ...]:
        self.expect("lbrace")
        patterns: list[TriplePattern] = []
        while True:
            tok = self.peek()
            if tok is None:
                raise QuerySyntaxError("unterminated pattern group")
            if tok.kind == "rbrace":
                self.next()
                break
            if tok.kind == "lbrace":
                # nested groups only arise for UNION/OPTIONAL style algebra
                raise UnsupportedFeatureError("group graph pattern")
            if tok.kind == "word":
                self._check_keyword(tok)
            s = self.parse_term_atom("subject")
            p = self.parse_term_atom("predicate")
            o = self.parse_term_atom("object")
            patterns.append(TriplePattern(s, p, o))
            tok = self.peek()
            if tok is None:
                raise QuerySyntaxError("unterminated pattern group")
            if tok.kind == "dot":
                self.next()
            elif tok.kind in ("semi", "comma"):
                raise UnsupportedFeatureError("predicate-object list shorthand")
            elif tok.kind not in ("rbrace",):
                # two patterns must be separated by a dot
                if tok.kind in ("var", "iriref", "pname", "literal", "word", "bnode"):
                    raise QuerySyntaxError("expected '.' between triple patterns")
        if not patterns:
            raise QuerySyntaxError("empty pattern group")
        return tuple(patterns)


def parse_query(text: str) -> Query:
    """Parse query text into a :class:`Query`; raises QuerySyntaxError."""
    parser = _Parser(_tokenize(text))
    parser.parse_prologue()
    tok = parser.peek()
    if tok is None:
        raise QuerySyntaxError("empty query")
    parser._check_keyword(tok)

    if parser.at_word("ask"):
        parser.next()
        if parser.at_word("where"):
            parser.next()
        patterns = parser.parse_group()
        query = Query(QueryForm.ASK, patterns)
    elif parser.at_word("select"):
        parser.next()
        query = _parse_select_tail(parser)
    else:
        raise QuerySyntaxError(f"expected SELECT or ASK, got {tok.text!r}")

    trailing = parser.peek()
    if trailing is not None:
        parser._check_keyword(trailing)
        raise QuerySyntaxError(f"unexpected trailing token {trailing.text!r}")
    return query


def _parse_select_tail(parser: _Parser) -> Query:
    tok = parser.peek()
    wrapped = tok is not None and tok.kind == "lparen"
    if wrapped:
        parser.next()
    if parser.at_word("count"):
        raise UnsupportedFeatureError("COUNT")
    if wrapped:
        raise UnsupportedFeatureError("expression in SELECT clause")
    if parser.at_word("distinct"):  # no effect (see the module doc)
        parser.next()

    projected: list[str] = []
    star = parser.peek()
    if star is not None and star.kind == "other" and star.text == "*":
        parser.next()
    else:
        while (tok := parser.peek()) is not None and tok.kind == "var":
            projected.append(parser.next().text[1:])
        if not projected:
            raise QuerySyntaxError("SELECT needs at least one variable or *")

    if parser.at_word("where"):
        parser.next()
    patterns = parser.parse_group()

    in_patterns = Query(QueryForm.SELECT, patterns).variables()
    # SELECT *: project every variable in first-appearance order
    projected = projected or list(in_patterns)
    for v in projected:
        if v not in in_patterns:
            raise QuerySyntaxError(f"projected variable ?{v} does not occur in any pattern")
    return Query(QueryForm.SELECT, patterns, tuple(projected))


# -- evaluation --------------------------------------------------------

# Output rows a join step produces at a time: a step whose output would
# be larger is produced in consecutive windows of this many rows.
JOIN_CHUNK = 65_536


class BGPResult:
    """Solutions of a basic graph pattern as a table of term ids.

    ``rows`` holds one int64 column per name in ``variables``, which are
    in name order; ``mappings`` is built from the rows (as Python ints)
    on first access.
    """

    __slots__ = ("variables", "rows", "truncated", "_mappings")

    def __init__(self, variables: tuple[str, ...], rows: np.ndarray, truncated: bool = False):
        self.variables = variables
        self.rows = rows
        self.truncated = truncated
        self._mappings: list[SolutionMapping] | None = None

    @property
    def mappings(self) -> list[SolutionMapping]:
        if self._mappings is None:
            self._mappings = [dict(zip(self.variables, row)) for row in self.rows.tolist()]
        return self._mappings


def resolve_patterns(g: Graph, patterns: Iterable[TriplePattern]) -> list[ResolvedPattern]:
    """Each pattern as a (s, p, o) tuple of resolved atoms: a variable's
    name, a constant's term id, or None for a constant unknown to ``g``.
    The one place a query's constants are looked up in the dictionary."""
    return [tuple(a.name if isinstance(a, Var) else g.id(a.term) for a in pat.atoms()) for pat in patterns]


def _names(pat: ResolvedPattern) -> set[str]:
    return {x for x in pat if isinstance(x, str)}


def _cardinality_estimate(g: Graph, pat: ResolvedPattern, bound: set[str]) -> float:
    if None in pat:  # a constant the graph does not hold matches nothing
        return 0.0
    p = pat[1]
    sb, pb, ob = (not isinstance(x, str) or x in bound for x in pat)
    if not isinstance(p, str):
        freq = g.stats.freq(p)
        if freq == 0:
            return 0.0
        if sb and ob:
            return 1.0
        if sb:
            return freq / max(1, g.stats.dom(p))
        if ob:
            return freq / max(1, g.stats.ran(p))
        return float(freq)
    # variable predicate: fall back to coarse whole-graph ratios
    if sb and ob and pb:
        return 1.0
    if sb and ob:
        return 2.0
    if sb or ob:
        return max(2.0, 2.0 * g.triple_count / max(1, g.term_count))
    return float(g.triple_count)


def _greedy(g: Graph, patterns: Sequence[ResolvedPattern], bound: set[str]) -> list[tuple[int, bool]]:
    """The indices of ``patterns`` in greedy join order from the
    variables ``bound``: cheapest estimated pattern next, preferring ones
    that share a variable with what is already bound (avoids products).
    Each index comes with whether it opens a new part: it has a variable
    and shares none with the bound set, and greedy picks such a pattern
    only once no remaining pattern shares one."""
    names = [_names(pat) for pat in patterns]
    bound = set(bound)
    # a pattern's estimate changes only when one of its variables is bound
    cost = {i: _cardinality_estimate(g, pat, bound) for i, pat in enumerate(patterns)}
    out: list[tuple[int, bool]] = []
    while cost:
        best = min(cost, key=lambda i: (bool(bound) and bool(names[i]) and not names[i] & bound, cost[i], i))
        del cost[best]
        out.append((best, bool(names[best]) and not names[best] & bound))
        fresh = names[best] - bound
        if fresh:
            bound |= fresh
            for i in cost:
                if names[i] & fresh:
                    cost[i] = _cardinality_estimate(g, patterns[i], bound)
    return out


def _parts(order: Iterable[tuple[int, bool]], patterns: Sequence[ResolvedPattern]) -> list[list[ResolvedPattern]]:
    """A greedy join order (:func:`_greedy`) as its patterns, cut into
    variable-disjoint parts where a pattern opens one. The first part
    holds the patterns before the first that opens one, and is empty
    when that is the first pattern."""
    parts: list[list[ResolvedPattern]] = [[]]
    for i, opens in order:
        if opens:
            parts.append([])
        parts[-1].append(patterns[i])
    return parts


# How a join step treats one triple position: ("const", id), ("col", j)
# for a variable bound in column j by an earlier step, ("new", j) for a
# variable this step binds into column j, and ("same", j) for a second
# occurrence, in this pattern, of the variable it binds into column j.
_Slot = tuple[str, int]


def _compile(
    order: list[ResolvedPattern], bound: Sequence[str] = ()
) -> tuple[list[list[_Slot]], tuple[str, ...]]:
    """Join steps from a table whose columns bind ``bound``, and the
    variables in column order."""
    columns = {v: j for j, v in enumerate(bound)}
    steps: list[list[_Slot]] = []
    for pat in order:
        step: list[_Slot] = []
        fresh: dict[str, int] = {}
        for atom in pat:
            if not isinstance(atom, str):
                step.append(("const", atom))
            elif atom in fresh:
                step.append(("same", fresh[atom]))
            elif atom in columns:
                step.append(("col", columns[atom]))
            else:
                fresh[atom] = columns[atom] = len(columns)
                step.append(("new", fresh[atom]))
        steps.append(step)
    return steps, tuple(columns)


def _matched(step: list[_Slot], child: np.ndarray, rows: np.ndarray, spo) -> np.ndarray:
    """``child`` with the step's new variables written from the matched
    keys ``spo`` through ``rows``, a view of it shaped like them, less the
    rows where a variable repeated in the pattern takes two values."""
    keep = None
    for pos, (kind, j) in enumerate(step):
        if kind == "new":
            rows[..., j] = spo[pos]
        elif kind == "same":
            same = rows[..., j] == spo[pos]
            keep = same if keep is None else keep & same
    return child if keep is None else child[keep.ravel()]


def _expand(g: Graph, step: list[_Slot], table: np.ndarray) -> Iterator[np.ndarray]:
    """Extend every row of ``table`` with each triple matching the step's
    pattern under that row, in ``Graph.ranges`` order; parents stay in
    order. Yields the extended rows in one window when they number at
    most JOIN_CHUNK, else in windows of JOIN_CHUNK (see the module doc),
    and none when there are none or a constant of the step is unknown
    (None)."""
    if not len(table) or ("const", None) in step:
        return
    w = table.shape[1]
    width = w + sum(kind == "new" for kind, _ in step)
    bound = [None, None, None]
    for pos, (kind, j) in enumerate(step):
        if kind == "const":
            bound[pos] = j
        elif kind == "col":
            bound[pos] = int(table[0, j]) if len(table) == 1 else table[:, j]
    index, lo, hi = g.ranges(*bound)
    ranged = isinstance(lo, np.ndarray)  # a range per row, else one for every row
    counts = hi - lo if ranged else int(hi - lo)
    total = int(counts.sum()) if ranged else counts * len(table)
    if not total:
        return
    if total <= JOIN_CHUNK:
        if width == w:  # the step binds no new variable: each row stays once per match
            yield np.repeat(table, counts, axis=0)
            return
        child = np.empty((total, width), dtype=np.int64)
        if ranged:
            # row k of parent i reads index key k + lo[i] - (the number of its first row)
            spo = index.columns(np.arange(total) + np.repeat(lo - (np.cumsum(counts) - counts), counts))
            child[:, :w] = np.repeat(table, counts, axis=0)
            rows = child
        else:  # the range's keys as a slice, paired with every row by broadcasting
            spo = index.columns(slice(lo, hi))
            rows = child.reshape(len(table), counts, width)
            rows[..., :w] = table[:, None]
        yield _matched(step, child, rows, spo)
        return
    if not ranged:
        lo = np.full(len(table), lo)
        counts = np.full(len(table), counts)
    ends = np.cumsum(counts)
    # output row k of parent i reads index key k + shift[i]
    shift = lo - (ends - counts)
    p0 = 0  # the window's first parent
    for k0 in range(0, total, JOIN_CHUNK):
        k1 = min(total, k0 + JOIN_CHUNK)
        p1 = int(ends.searchsorted(k1 - 1, side="right")) + 1
        # each parent's rows in [k0, k1): the first and last are clipped
        clipped = counts[p0:p1].copy()
        clipped[0] -= k0 - (ends[p0] - counts[p0])
        clipped[-1] -= ends[p1 - 1] - k1
        parent = np.repeat(np.arange(p0, p1), clipped)
        spo = index.columns(np.arange(k0, k1) + shift[parent])
        p0 = p1 - 1
        child = np.empty((k1 - k0, width), dtype=np.int64)
        child[:, :w] = table[parent]
        yield _matched(step, child, child, spo)


def _join(g: Graph, steps: list[list[_Slot]], table: np.ndarray, i: int = 0) -> Iterator[np.ndarray]:
    """Non-empty solution tables, in the order of a depth-first walk over
    the steps (index order at every step)."""
    if i == len(steps):
        yield table
        return
    for child in _expand(g, steps[i], table):
        if len(child):
            yield from _join(g, steps, child, i + 1)


def _first_rows(g: Graph, steps: list[list[_Slot]], table: np.ndarray, width: int, cap: int | None) -> np.ndarray:
    """The first ``cap`` rows of the join of ``steps`` from ``table``, or
    all of them when ``cap`` is None, collected off the depth-first walk
    (:func:`_join`) until they reach ``cap``."""
    chunks: list[np.ndarray] = []
    kept = 0
    for chunk in _join(g, steps, table):
        if cap is not None and kept + len(chunk) >= cap:
            chunks.append(chunk[: cap - kept])
            break
        chunks.append(chunk)
        kept += len(chunk)
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks) if chunks else np.empty((0, width), dtype=np.int64)


# The table a join starts from: one row that binds no variable.
_ONE_ROW = np.empty((1, 0), dtype=np.int64)


def _join_parts(
    g: Graph,
    patterns: Sequence[ResolvedPattern],
    start: np.ndarray,
    bound: Sequence[str],
    limit: int | None,
) -> BGPResult:
    """The solutions of ``patterns`` under the ``limit`` rule of
    :func:`evaluate_bgp`, taken in greedy order from the variables
    ``bound`` and cut into variable-disjoint parts: the first part joined
    from the rows ``start``, whose columns bind ``bound``, and each other
    part from the one empty row, each keeping at most ``limit + 1`` rows,
    and the rows read off the parts' product (see the module doc)."""
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    parts = _parts(_greedy(g, patterns, set(bound)), patterns)
    if not parts[0] and start.shape == _ONE_ROW.shape:  # a product factor of one row
        del parts[0]
    compiled = [_compile(part, bound if k == 0 else ()) for k, part in enumerate(parts)]
    names = tuple(sorted(v for _, variables in compiled for v in variables))
    cap = None if limit is None else limit + 1
    tables: list[tuple[np.ndarray, tuple[str, ...]]] = []
    for k, (steps, variables) in enumerate(compiled):
        table = _first_rows(g, steps, start if k == 0 else _ONE_ROW, len(variables), cap)
        if not len(table):
            return BGPResult(names, np.empty((0, len(names)), dtype=np.int64))
        tables.append((table, variables))
    total = math.prod(len(table) for table, _ in tables)
    count = total if limit is None else min(total, limit)
    rows = np.empty((count, len(names)), dtype=np.int64)
    stride = 1  # the product's rows that one row of this part spans
    for table, variables in reversed(tables):
        columns = [names.index(v) for v in variables]
        if stride == 1 and len(table) >= count:
            rows[:, columns] = table[:count]
        else:  # k // stride is 0 for every k < count once stride >= count
            rows[:, columns] = table[np.arange(count) // min(stride, count) % len(table)]
        stride *= len(table)
    return BGPResult(names, rows, limit is not None and total > limit)


class JoinPrefixes:
    """A basic graph pattern joined in its greedy order, from which the
    pattern without some of its patterns is evaluated (see the module
    doc). Each prefix of the order is joined from the one before it when
    first asked for, its one new step compiled then, and kept while it
    holds at most ``JOIN_CHUNK`` rows and no pattern that opens a second
    variable-disjoint part; a prefix that does not ends the prefixes
    kept."""

    def __init__(self, g: Graph, resolved: Sequence[ResolvedPattern]):
        self._g = g
        self._resolved = resolved
        order = _greedy(g, resolved, set())
        self._order = [i for i, _ in order]
        self._opens = [opens for _, opens in order]
        self._prefixes: list[np.ndarray | None] = [_ONE_ROW]
        self._columns: tuple[str, ...] = ()  # of the longest prefix kept so far

    def _prefix(self, k: int) -> np.ndarray | None:
        """The rows of the first ``k`` patterns of the order, their
        columns the first of ``_columns``, or None when they, or those of
        a shorter prefix, number more than JOIN_CHUNK or hold a product."""
        while len(self._prefixes) <= k:
            table, n = self._prefixes[-1], len(self._prefixes) - 1
            if self._opens[n] and self._columns:  # a second part: the product is read off the parts
                table = None
            if table is not None:
                steps, self._columns = _compile([self._resolved[self._order[n]]], self._columns)
                table = _first_rows(self._g, steps, table, len(self._columns), JOIN_CHUNK + 1)
                table = None if len(table) > JOIN_CHUNK else table
            self._prefixes.append(table)
        return self._prefixes[k]

    def without(self, dropped: Collection[int], limit: int | None = None) -> BGPResult:
        """The solutions of the patterns not in ``dropped`` (indices into
        the resolved patterns) under the ``limit`` rule of
        :func:`evaluate_bgp`, in the depth-first order of a join that
        starts from the rows of the longest kept prefix that avoids
        ``dropped`` (at worst the one empty row) and takes the other
        patterns in greedy order from that prefix's variables; parts of
        them that share no variable with the prefix or with each other
        are read off a product (see the module doc)."""
        m = next((k for k, i in enumerate(self._order) if i in dropped), len(self._order))
        while self._prefix(m) is None:
            m -= 1
        start = self._prefixes[m]
        rest = [self._resolved[i] for i in self._order[m:] if i not in dropped]
        return _join_parts(self._g, rest, start, self._columns[: start.shape[1]], limit)


def evaluate_bgp(g: Graph, resolved: Sequence[ResolvedPattern], limit: int | None = None) -> BGPResult:
    """Evaluate a basic graph pattern given as :func:`resolve_patterns`
    tuples: one join from the one empty row, in greedy order.

    Returns every solution mapping over the variables of the patterns
    (each mapping is total), with the columns in name order and the rows
    in the depth-first order of the bind-join (see the module doc). With
    ``limit`` set, at least 1, the result holds the first ``limit`` rows
    in that order, and ``truncated`` is set exactly when one more row
    exists after the last of them. A constant unknown to the graph (a
    None atom) matches nothing, so the result is then empty.
    """
    return _join_parts(g, resolved, _ONE_ROW, (), limit)


def ask(g: Graph, q: Query) -> bool:
    """True iff the query's patterns have at least one solution."""
    return len(evaluate_bgp(g, resolve_patterns(g, q.patterns), limit=1).rows) > 0
