"""Text payloads written in bounded chunks.

A large payload (a zeta table, a ball) is written a chunk at a time, so the
whole text never exists as one string: memory stays in proportion to the
chunk, not to the answer.  A ball is a stream of short strings, joined
CHUNK_PARTS at a time.  A table of integers is formatted a block of
CHUNK_PARTS rows at a time by one ``%``, which writes an int as ``str`` does
without building a string per row.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from io import TextIOBase
from itertools import islice

__all__ = ["CHUNK_PARTS", "write_chunks", "write_csv", "json_ints"]

CHUNK_PARTS = 1 << 10


def write_chunks(out: TextIOBase, parts: Iterable[str]) -> None:
    """Write the concatenation of ``parts`` to ``out``, CHUNK_PARTS per write."""
    parts = iter(parts)
    while chunk := list(islice(parts, CHUNK_PARTS)):
        out.write("".join(chunk))


def write_csv(out: TextIOBase, header: str | None, columns: Sequence[Sequence[int]], start: int = 0) -> None:
    """Write the header line (when given), then rows ``start..`` of the int
    ``columns`` (of equal lengths; none means no rows), their fields joined by
    commas, one write per CHUNK_PARTS rows."""
    if header is not None:
        out.write(header + "\n")
    width, rows = len(columns), len(columns[0]) if columns else 0
    line = ",".join(["%d"] * width) + "\n"
    for k in range(start, rows, CHUNK_PARTS):
        stop = min(k + CHUNK_PARTS, rows)
        block = [0] * ((stop - k) * width)  # the block's fields in row order
        for c, column in enumerate(columns):
            block[c::width] = column[k:stop]
        out.write(line * (stop - k) % tuple(block))


def json_ints(column: Sequence[int], start: int = 0) -> Iterator[str]:
    """The JSON array of ``column[start:]``, as json.dumps writes it, in parts
    of CHUNK_PARTS numbers."""
    yield "["
    for k in range(start, len(column), CHUNK_PARTS):
        part = tuple(column[k : k + CHUNK_PARTS])
        yield ", " * (k > start) + ("%d, " * len(part))[:-2] % part
    yield "]"
