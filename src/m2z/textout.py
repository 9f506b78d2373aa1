"""Text payloads written in bounded chunks.

A large payload (a zeta table, a ball) is written a chunk at a time, so the
whole text never exists as one string: memory stays in proportion to the
chunk, not to the answer.  A ball is a stream of short strings, joined
CHUNK_PARTS at a time.  Integers are formatted by one ``%`` per chunk, which
writes an int as ``str`` does without a string per number: CHUNK_PARTS
numbers of a JSON array, or a decimal block of ROW_BLOCK numbered CSV rows,
cut from one template that holds only the last three digits of each number.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from io import TextIOBase
from itertools import islice

__all__ = ["CHUNK_PARTS", "write_chunks", "write_csv", "json_ints"]

CHUNK_PARTS = 1 << 10
ROW_BLOCK = 1000  # the rows 1000*b .. 1000*b + 999 share all but three digits


def write_chunks(out: TextIOBase, parts: Iterable[str]) -> None:
    """Write the concatenation of ``parts`` to ``out``, CHUNK_PARTS per write."""
    parts = iter(parts)
    while chunk := list(islice(parts, CHUNK_PARTS)):
        out.write("".join(chunk))


def write_csv(out: TextIOBase, header: str | None, columns: Sequence[Sequence[int]], start: int) -> None:
    """Write the header line (when given), then the rows ``n,c1[,c2...]`` for
    n = start .. len - 1, c_i the n-th entry of ``columns[i]`` (int columns of
    equal lengths), one write per decimal block of ROW_BLOCK rows."""
    if header is not None:
        out.write(header + "\n")
    width, rows, template, lo = len(columns), len(columns[0]), None, start
    while lo < rows:
        b, r = divmod(lo, ROW_BLOCK)
        hi = min(rows, lo - r + ROW_BLOCK)
        if b:  # row 1000*b + r is str(b), then r as three digits
            template = template or ("\0%03d" + ",%%d" * width + "\n") * ROW_BLOCK % tuple(range(ROW_BLOCK))
            size = len(template) // ROW_BLOCK  # every row of the template is as long
            text, fields = template[r * size : (hi - lo + r) * size].replace("\0", str(b)), columns
        else:  # the numbers below ROW_BLOCK share no prefix: they are a field
            text, fields = ("%d" + ",%d" * width + "\n") * (hi - lo), [range(hi), *columns]
        if len(fields) == 1:  # the rows are one column's slice
            block = fields[0][lo:hi]
        else:  # the block's fields in row order
            block = [0] * ((hi - lo) * len(fields))
            for c, column in enumerate(fields):
                block[c :: len(fields)] = column[lo:hi]
        out.write(text % tuple(block))
        lo = hi


def json_ints(column: Sequence[int], start: int = 0) -> Iterator[str]:
    """The JSON array of ``column[start:]``, as json.dumps writes it, in parts
    of CHUNK_PARTS numbers."""
    yield "["
    for k in range(start, len(column), CHUNK_PARTS):
        part = tuple(column[k : k + CHUNK_PARTS])
        yield ", " * (k > start) + ("%d, " * len(part))[:-2] % part
    yield "]"
