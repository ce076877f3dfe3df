"""Binary I/O shared by the TRQG snapshot and TRQE embedding formats.

Both formats hold term tables laid out the same way, one entry per term::

    kind u8, byte_len u32, utf-8 lexical form

Readers take the whole file as bytes and an error class, so each format
raises its own named error for truncation, an unknown term kind or a
term that is not valid UTF-8. Writers to a path go through
:func:`write_file`, which replaces the destination only once the whole
payload is written.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Callable, Iterable
from io import BufferedIOBase
from pathlib import Path
from typing import BinaryIO

from .terms import Term, TermKind

_TERM_HEADER = struct.Struct("<BI")
TERM_HEADER_SIZE = _TERM_HEADER.size
# TermKind members by their byte value
_KINDS = tuple(TermKind)


def read_source(src: str | Path | BufferedIOBase) -> bytes:
    """All bytes of a path or of a readable binary file object."""
    if isinstance(src, (str, Path)):
        return Path(src).read_bytes()
    return src.read()


def write_file(dest: str | Path | BufferedIOBase, write: Callable[[BinaryIO], None]) -> None:
    """Run ``write`` against ``dest``.

    A path is written atomically: the payload goes to a temporary file in
    the destination's directory, which then replaces the destination, so
    a write that fails halfway, or a crash, leaves any existing file
    untouched. A file object is written in place.
    """
    if not isinstance(dest, (str, Path)):
        write(dest)
        return
    dest = Path(dest)
    tmp = dest.with_name(f".{dest.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())  # the payload is on disk before the rename is
        os.replace(tmp, dest)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_terms(fh: BinaryIO, terms: Iterable[Term]) -> None:
    """Write the table of ``terms`` with one ``fh.write`` call."""
    pack = _TERM_HEADER.pack
    parts: list[bytes] = []
    append = parts.append
    for kind, lexical in terms:
        data = lexical.encode("utf-8")
        append(pack(kind, len(data)))
        append(data)
    fh.write(b"".join(parts))


def read_terms(data: bytes, pos: int, count: int, error: type[Exception]) -> tuple[list[Term], int]:
    """``count`` terms starting at byte ``pos``, and the offset after them."""
    terms: list[Term] = []
    append = terms.append
    unpack = _TERM_HEADER.unpack_from
    kinds = _KINDS
    end = len(data)
    for _ in range(count):
        if pos + TERM_HEADER_SIZE > end:
            raise error("truncated term table")
        kind, length = unpack(data, pos)
        pos += TERM_HEADER_SIZE
        if kind >= len(kinds):
            raise error(f"unknown term kind {kind}")
        if pos + length > end:
            raise error("truncated term table")
        try:
            lexical = data[pos : pos + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"term {len(terms)} is not valid UTF-8") from exc
        append(Term(kinds[kind], lexical))
        pos += length
    return terms, pos
