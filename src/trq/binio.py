"""Binary I/O shared by the TRQG snapshot and TRQE embedding formats.

Both lay a file out the same way, little endian throughout::

    magic    4 bytes
    header   a struct that starts with the u16 version
    tables   term tables, one entry per term: kind u8, byte_len u32, utf-8
    arrays   arrays of known dtype and shape, C order; nothing follows

:mod:`trq.store` (TRQG) and :mod:`trq.embedding` (TRQE) give each
format's fields. :func:`write_file` writes a file. :func:`read_header`
and :func:`read_body` read one from its bytes, and raise the format's
error class with the format's name for a file (``snapshot``,
``embedding file``), checking in this order:

* ``not a {magic} {name} (bad magic)``;
* ``truncated {name}``: shorter than the magic or the header;
* ``unsupported {name} version {version}``;
* ``truncated {name}: header counts exceed the file size``: the tables,
  at least 5 bytes a term, and the arrays cannot fit; checked before
  anything is allocated for them;
* from :func:`read_keys`: ``truncated term table``,
  ``unknown term kind {kind}`` or ``term {i} is not valid UTF-8``;
* ``truncated {name}``: the arrays come up short;
* ``trailing bytes after {name} payload``.

A format checks its own header fields between the two readers.

An entry's bytes are the term's key: a :class:`~trq.store.Graph` and an
:class:`~trq.embedding.EmbeddingSet` keep their tables as
:class:`~trq.store.TermTable` objects of keys, which reject a term listed
twice, so a table is read and written without building a :class:`Term`.
:func:`term_key` and :func:`term_of` convert at the edge.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Sequence
from io import BufferedIOBase
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .terms import Term, TermKind

_TERM_HEADER = struct.Struct("<BI")
TERM_HEADER_SIZE = _TERM_HEADER.size
# TermKind members by their byte value
_KINDS = tuple(TermKind)
_new_tuple = tuple.__new__


def read_source(src: str | Path | BufferedIOBase) -> bytes:
    """All bytes of a path or of a readable binary file object; any other
    type of source is a TypeError."""
    if isinstance(src, (str, Path)):
        return Path(src).read_bytes()
    read = getattr(src, "read", None)
    if read is None:
        raise TypeError(f"unsupported source type: {type(src).__name__}")
    return read()


def write_file(
    dest: str | Path | BufferedIOBase, head: bytes, tables: Sequence[Sequence[bytes]], arrays: Sequence[np.ndarray]
) -> None:
    """Write ``head`` (the magic and the packed header), the term
    ``tables`` and the ``arrays``, in their file dtypes, to ``dest``.

    A path is written atomically: the payload goes to a temporary file in
    the destination's directory, which then replaces the destination, so
    a write that fails halfway, or a crash, leaves any existing file
    untouched. An OSError is raised again, as its own type, with the path
    as given for its file name, not the temporary file's, which is gone.
    A file object is written in place.
    """

    def write(fh: BinaryIO) -> None:
        fh.write(head)
        for keys in tables:
            write_keys(fh, keys)
        for a in arrays:
            fh.write(a.tobytes())  # C order, whatever the array's layout

    if not isinstance(dest, (str, Path)):
        write(dest)
        return
    path = Path(dest)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        raise _named(exc, dest) from None
    try:
        with fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())  # the payload is on disk before the rename is
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise _named(exc, dest) from None
        raise


def _named(exc: OSError, dest: str | Path) -> OSError:
    """``exc`` of the same type, naming ``dest`` as its file."""
    if exc.errno is None:  # no errno and strerror to carry over
        return exc
    return type(exc)(exc.errno, exc.strerror, os.fspath(dest))


def read_header(
    data: bytes, magic: bytes, fmt: str, version: int, error: type[Exception], name: str
) -> tuple[list, int]:
    """The fields of the header, of struct format ``fmt``, after its
    version, and the offset of the body (checks: see the module doc)."""
    if len(data) >= len(magic) and data[: len(magic)] != magic:
        raise error(f"not a {magic.decode()} {name} (bad magic)")
    end = len(magic) + struct.calcsize(fmt)
    if len(data) < end:
        raise error(f"truncated {name}")
    found, *fields = struct.unpack_from(fmt, data, len(magic))
    if found != version:
        raise error(f"unsupported {name} version {found}")
    return fields, end


def read_body(
    data: bytes, pos: int, tables: Sequence[int], dtype: str, shapes: Sequence[tuple], error: type[Exception], name: str
) -> tuple[list[list[bytes]], list[np.ndarray]]:
    """The term tables of the ``tables`` counts, then read-only views of
    the ``dtype`` arrays of ``shapes``, from byte ``pos`` to the end of
    ``data`` (checks: see the module doc)."""
    counts = [math.prod(shape) for shape in shapes]
    size = np.dtype(dtype).itemsize * sum(counts)
    if sum(tables) * TERM_HEADER_SIZE + size > len(data) - pos:
        raise error(f"truncated {name}: header counts exceed the file size")
    keys = []
    for count in tables:
        table, pos = read_keys(data, pos, count, error)
        keys.append(table)
    if len(data) - pos < size:
        raise error(f"truncated {name}")
    if len(data) - pos > size:
        raise error(f"trailing bytes after {name} payload")
    flat = np.frombuffer(data, dtype=dtype, count=sum(counts), offset=pos)
    return keys, [a.reshape(shape) for a, shape in zip(np.split(flat, np.cumsum(counts)[:-1]), shapes)]


def term_key(term: Term) -> bytes:
    """The table entry of ``term``. Raises UnicodeEncodeError for a
    lexical form that is not valid Unicode text (a lone surrogate)."""
    data = term.lexical.encode("utf-8")
    return _TERM_HEADER.pack(term.kind, len(data)) + data


def term_of(key: bytes) -> Term:
    """The term of a table entry that :func:`read_keys` or :func:`term_key`
    made."""
    # tuple.__new__ skips the NamedTuple's Python-level __new__, as _make does
    return _new_tuple(Term, (_KINDS[key[0]], key[TERM_HEADER_SIZE:].decode("utf-8")))


def write_keys(fh: BinaryIO, keys: Sequence[bytes]) -> None:
    """Write the table of ``keys`` with one ``fh.write`` call."""
    fh.write(b"".join(keys))


def read_keys(data: bytes, pos: int, count: int, error: type[Exception]) -> tuple[list[bytes], int]:
    """The ``count`` entries starting at byte ``pos``, as keys, and the
    offset after them.

    One pass slices the entries out, checking that each is inside
    ``data`` and names a known kind; the payloads are then checked as
    UTF-8 together. A table with several faults reports the first entry
    at fault, as reading the entries one by one would.
    """
    keys: list[bytes] = []
    append = keys.append
    unpack = _TERM_HEADER.unpack_from
    n_kinds = len(_KINDS)
    end = len(data)
    start = pos
    fault = None
    try:
        for _ in range(count):
            kind, length = unpack(data, pos)
            if kind >= n_kinds:
                fault = f"unknown term kind {kind}"
                break
            stop = pos + TERM_HEADER_SIZE + length
            if stop > end:
                fault = "truncated term table"
                break
            append(data[pos:stop])
            pos = stop
    except struct.error:  # fewer than TERM_HEADER_SIZE bytes left
        fault = "truncated term table"
    _check_utf8(data, start, pos, keys, error)
    if fault is not None:
        raise error(fault)
    return keys, pos


def _check_utf8(data: bytes, start: int, stop: int, keys: list[bytes], error: type[Exception]) -> None:
    """Raise ``error`` naming the first of ``keys`` (the entries in
    ``data[start:stop]``) whose payload is not valid UTF-8.

    The table is decoded once, with each entry's header overwritten by
    ASCII newlines: a newline can neither continue nor start a multibyte
    sequence, so a character split across two entries fails as it would
    on its own, and every payload is checked from a clean state.
    """
    if not keys:
        return
    table = np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start).copy()
    lengths = np.fromiter(map(len, keys), dtype=np.intp, count=len(keys))
    heads = np.cumsum(lengths) - lengths
    for i in range(TERM_HEADER_SIZE):
        table[heads + i] = ord("\n")
    try:
        str(table, "utf-8")
    except UnicodeDecodeError as exc:
        at = int(heads.searchsorted(exc.start, side="right")) - 1
        raise error(f"term {at} is not valid UTF-8") from exc
