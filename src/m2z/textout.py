"""Text payloads written in bounded chunks.

A large payload (a zeta table, a ball) is produced as a stream of short
strings and written a chunk at a time, so the whole text never exists as one
string: memory stays in proportion to the chunk, not to the answer.
"""

from __future__ import annotations

from collections.abc import Iterable
from io import TextIOBase
from itertools import islice

__all__ = ["CHUNK_PARTS", "write_chunks"]

CHUNK_PARTS = 1 << 10


def write_chunks(out: TextIOBase, parts: Iterable[str]) -> None:
    """Write the concatenation of ``parts`` to ``out``, CHUNK_PARTS per write."""
    parts = iter(parts)
    while chunk := list(islice(parts, CHUNK_PARTS)):
        out.write("".join(chunk))
