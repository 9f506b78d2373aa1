"""The payload of ``m2z zeta``, written a segment at a time.

The tables come from the segment builders of ``zeta``.  A table of more than
one segment (--terms zeta.SEGMENT and up) is computed by one forked child
while this process writes the segments the child has sent, so that the
computing and the writing overlap on two CPUs.  This process stays the only
writer of stdout, and re-raises the exception that ends the child, so stdout,
stderr and the exit code are those of the same table computed in process.
Smaller tables, the constant tables of Pbar, and every table where a fork
is not possible (no ``os.fork``, another thread running, or no process to
spare) are computed in process, segment by segment.  Only ``zeta`` calls load
this module.
"""

from __future__ import annotations

import marshal
import os
import sys
from array import array
from itertools import chain
from operator import ne

from . import textout, zeta

_ROUTES = {  # (formula, enumeration) segment builders by name, looked up in zeta at call time
    "M": ("_sigma_table", "_classes_table"),
    "P": ("_psi_table", "_primitive_table"),
    "Pbar": ("_axpb_table", "_axpb_table"),
}


def _segments(builders, terms: int, rows: bool):
    """The tables of ``builders`` (one or two) at ``terms`` terms as tuples of
    segments: for CSV (``rows``) each tuple holds one segment of every table;
    for JSON each holds one segment, all of the first table, then an empty
    tuple, then the second.  Returns the count of entries where the two tables
    differ."""
    tables = [build(terms) for build in builders]
    if len(tables) == 1:
        yield from zip(*tables)
        return 0
    formula, enumerated = tables
    if not rows:  # the formula's segments are kept to compare, and are views of the table it holds anyway
        kept = []
        for segment in formula:
            kept.append(segment)
            yield (segment,)
        formula = kept
        yield ()
    mism = 0
    for f, e in zip(formula, enumerated):
        if f != e:  # compared in C; entry 0 is 0 in each
            mism += sum(map(ne, f, e))
        yield (f, e) if rows else (e,)
    return mism


def _forked(produced):
    """Yield what the generator ``produced`` yields, tuples of
    array(zeta.WORD) segments, and return what it returns, while a forked
    child runs it.

    The child sends one marshal frame per tuple, a list of the segments' raw
    machine words, then the return value, an int, or the module, name and
    message of the exception that ended it, a tuple.  This process re-raises
    that exception, so the call ends as it would in process, and reaps the
    child on every path, killing it first if it has not finished.  When the
    fork fails, ``produced`` runs in process."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare (EAGAIN, ENOMEM): the same stream, in process
        os.close(read_end)
        os.close(write_end)
        return (yield from produced)
    if not pid:  # the child never returns to the caller
        os.close(read_end)
        try:
            with open(write_end, "wb") as pipe:
                try:
                    while True:
                        marshal.dump(list(next(produced)), pipe)
                except StopIteration as stop:
                    marshal.dump(stop.value, pipe)
                except Exception as exc:  # anything else ends the child unreported, which the parent reports
                    marshal.dump((type(exc).__module__, type(exc).__qualname__, str(exc)), pipe)
        finally:
            os._exit(0)
    frame = None
    try:
        os.close(write_end)
        with open(read_end, "rb") as pipe:
            while type(frame := marshal.load(pipe)) is list:
                yield tuple(array(zeta.WORD, part) for part in frame)
    except EOFError:  # the child ended before its last frame
        frame = None
    finally:
        if type(frame) not in (int, tuple):
            os.kill(pid, 9)  # SIGKILL; what it would compute has no reader
        status = os.waitpid(pid, 0)[1]
    if type(frame) is int:
        return frame
    if frame:
        module, name, message = frame
        raise getattr(sys.modules.get(module), name, RuntimeError)(message)
    raise ChildProcessError(f"the producer of the table ended early, exit code {os.waitstatus_to_exitcode(status)}")


def _json_parts(segments, both: bool, mism: list):
    """The JSON payload of ``zeta`` and its newline, as json.dumps writes
    them, in parts of CHUNK_PARTS numbers, from the tuples of _segments (entry
    0 skipped): with ``both``, the formula's table, then the enumeration's,
    then ``mism[0]``, the count of mismatches, there once the segments are
    done."""
    for key in ('{"formula": ', ', "enumerated": ') if both else ("",):
        yield key  # each table's segments end at the empty tuple or at the end
        yield from textout.json_ints(chain.from_iterable(iter(segments.__next__, ())), 1)
    yield f', "mismatches": {mism[0]}}}\n' if both else "\n"


def write_zeta(which: str, terms: int, mode: str, fmt: str, header: bool) -> None:
    """Write the payload of ``m2z zeta`` to stdout and its mismatch count, if
    any, to stderr."""
    zeta._check_terms(terms)  # a refused size forks nothing
    names = _ROUTES[which]
    builders = [getattr(zeta, name) for name in {"formula": names[:1], "enumerate": names[1:], "both": names}[mode]]
    produced = _segments(builders, terms, fmt == "csv")
    threading = sys.modules.get("threading")
    # Pbar's segments are copies of one constant segment, which a fork would
    # only delay; a fork copies only the thread that calls it
    if which != "Pbar" and terms >= zeta.SEGMENT and hasattr(os, "fork") and (threading is None or threading.active_count() == 1):
        produced = _forked(produced)
    mism = []  # what `produced` returns, once the last segment is written

    def tallied():
        mism.append((yield from produced))

    stream = tallied()
    segments = chain([next(stream)], stream)  # a table that fails before its first segment writes nothing
    try:
        if fmt == "json":
            sys.stdout.writelines(_json_parts(segments, len(builders) == 2, mism))
        else:
            line = ("n,coefficient" if len(builders) == 1 else "n,formula,enumerated") if header else None
            textout.write_csv(sys.stdout, line, segments, 1)
    finally:
        stream.close()  # reaps a forked producer, also when stdout fails
    if len(builders) == 2:
        print(f"mismatches: {mism[0]}", file=sys.stderr)
