"""The forked producer of ``m2z zeta``: a table of more than one segment is
computed in a child process while the CLI writes it, and must read exactly as
the same call computed in process (``os.fork`` removed)."""

import json
import os
import subprocess
import sys
import threading
from itertools import chain, islice
from pathlib import Path

import pytest

from m2z import zeta
from m2z.cli import main
from m2z.textout import ROW_BLOCK
from m2z.zeta import SEGMENT

SRC = Path(__file__).resolve().parent.parent / "src"
BUILDERS = {  # --which -> (formula, enumeration) builders
    "M": ("_sigma_table", "_classes_table"),
    "P": ("_psi_table", "_primitive_table"),
    "Pbar": ("_axpb_table", "_axpb_table"),
}
# each side of the fork's edge (more than one segment) and of the later
# segment edges, and a table whose last segment holds two decimal block edges
SIZES = [SEGMENT - 1, SEGMENT, SEGMENT + 1, 2 * SEGMENT - 1, 2 * SEGMENT + 1, 3 * SEGMENT, 10**5]
SIZES.append((SEGMENT // ROW_BLOCK + 2) * ROW_BLOCK + 1)
FORMATS = [("--format", "csv"), ("--format", "csv", "--header"), ("--format", "json")]
TABLES = [(which, mode) for which in BUILDERS for mode in ("formula", "enumerate", "both")]
# one format per size and table, rotated so that each size meets every format
# and each table every format, in a few seconds
GRID = [(terms, *table, FORMATS[(i + j) % 3]) for i, terms in enumerate(SIZES) for j, table in enumerate(TABLES)]


@pytest.fixture(scope="module")
def computed():
    """(builder, terms) -> the segments it yielded, so that each table is
    computed once for the whole grid."""
    return {}


def replay_segments(monkeypatch, computed):
    """Make every builder replay the segments it yielded the first time for the
    same size: the two routes of a call then write the same segments, and the
    grid stays fast.  The first call of a size runs in process, so a forked
    child replays from its copy."""
    for name in {name for names in BUILDERS.values() for name in names}:
        def replay(n, build=getattr(zeta, name), name=name):
            if (name, n) not in computed:
                computed[name, n] = list(build(n))
            return iter(computed[name, n])

        monkeypatch.setattr(zeta, name, replay)


def whole_table_payload(tables, fmt, header):
    """stdout of a zeta call that writes the whole tables (entry 0 first), as
    str and json.dumps write them."""
    if fmt == "json":
        columns = [list(table[1:]) for table in tables]
        if len(columns) == 1:
            return json.dumps(columns[0]) + "\n"
        return json.dumps({"formula": columns[0], "enumerated": columns[1], "mismatches": 0}) + "\n"
    line = ("n,coefficient\n" if len(tables) == 1 else "n,formula,enumerated\n") if header else ""
    return line + "".join(",".join(map(str, row)) + "\n" for row in islice(zip(range(len(tables[0])), *tables), 1, None))


def call(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("terms, which, mode, options", GRID, ids=lambda v: "-".join(a.lstrip("-") for a in v) if isinstance(v, tuple) else str(v))
def test_the_forked_route_writes_the_in_process_bytes(capsys, monkeypatch, computed, terms, which, mode, options):
    replay_segments(monkeypatch, computed)
    argv = ["zeta", "--which", which, "--terms", str(terms), "--mode", mode, *options]
    with monkeypatch.context() as without_fork:
        without_fork.delattr(os, "fork")
        in_process = call(capsys, argv)
    names = {"formula": BUILDERS[which][:1], "enumerate": BUILDERS[which][1:], "both": BUILDERS[which]}[mode]
    tables = [tuple(chain.from_iterable(getattr(zeta, name)(terms))) for name in names]
    assert all(len(table) == terms + 1 for table in tables)
    payload = whole_table_payload(tables, options[1], "--header" in options)
    assert in_process == (0, payload, "mismatches: 0\n" if mode == "both" else "")
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(fork()) or forks[-1])
    assert call(capsys, argv) == in_process
    assert len(forks) == (terms >= SEGMENT and which != "Pbar")  # the route under test did fork


def refuse_to_fork():
    raise AssertionError("forked")


@pytest.mark.parametrize("which, terms", [("P", SEGMENT - 1), ("Pbar", 3 * SEGMENT)])
def test_a_table_of_one_segment_or_of_pbar_forks_nothing(capsys, monkeypatch, which, terms):
    monkeypatch.setattr(os, "fork", refuse_to_fork)
    code, out, _ = call(capsys, ["zeta", "--which", which, "--terms", str(terms)])
    assert code == 0 and out.count("\n") == terms


@pytest.mark.parametrize("options", [(), ("--format", "json", "--mode", "both")])
def test_a_fork_that_fails_leaves_the_table_to_this_process(capsys, monkeypatch, options):
    argv = ["zeta", "--which", "M", "--terms", str(2 * SEGMENT + 1), *options]
    with monkeypatch.context() as without_fork:
        without_fork.delattr(os, "fork")
        in_process = call(capsys, argv)

    def no_process_to_spare():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process_to_spare)
    descriptors = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    assert call(capsys, argv) == in_process
    if descriptors is not None:  # the pipe is closed again
        assert len(os.listdir("/proc/self/fd")) == descriptors


def test_a_process_with_another_thread_forks_nothing(capsys, monkeypatch):
    # a fork copies only the calling thread, and Python 3.12 warns about it
    monkeypatch.setattr(os, "fork", refuse_to_fork)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        code, out, _ = call(capsys, ["zeta", "--which", "P", "--terms", str(2 * SEGMENT)])
    finally:
        release.set()
        waiting.join(10)
    assert not waiting.is_alive()
    assert code == 0 and out.count("\n") == 2 * SEGMENT


# A CLI call whose builder of the psi table yields `segments` true segments
# and then fails: it raises MemoryError or ValueError, or kills its process
# (the forked child, in the fork route).  argv: fault, segments, route, CLI argv.
_FAILING = """
import os, signal, sys
from itertools import islice
from m2z import cli, zeta

fault, segments, route, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
if route == "in-process":
    del os.fork
build = zeta._psi_table

def failing(n):
    yield from islice(build(n), segments)
    if fault == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    raise {"MemoryError": MemoryError, "ValueError": ValueError}[fault](f"failed after {segments} segments")

zeta._psi_table = failing
sys.exit(cli.main(argv))
"""


def run_in_new_session(*args):
    """Run ``python -W error`` with ``args`` as the leader of a new session:
    (exit code, stdout, stderr), once nothing of the session is left."""
    child = subprocess.Popen(
        [sys.executable, "-W", "error", *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    out, err = child.communicate(timeout=60)
    with pytest.raises(ProcessLookupError):  # no producer outlives the call
        os.killpg(child.pid, 0)
    return child.returncode, out, err.decode()


def failing_call(fault, segments, route, *options):
    argv = ["zeta", "--which", "P", "--terms", str(3 * SEGMENT), *options]
    return run_in_new_session("-c", _FAILING, fault, str(segments), route, *argv)


@pytest.mark.parametrize("options", [(), ("--header",), ("--format", "json", "--mode", "both")])
def test_a_producer_that_fails_before_its_first_segment_writes_nothing(options):
    code, out, err = failing_call("MemoryError", 0, "forked", *options)
    assert (code, out, err) == (2, b"", "too large: failed after 0 segments\n")


@pytest.mark.parametrize("fault, line", [("MemoryError", "too large: "), ("ValueError", "parse error: ")])
@pytest.mark.parametrize("options", [(), ("--format", "json", "--mode", "both")])
def test_a_producer_that_fails_part_way_ends_the_call_as_in_process(fault, line, options):
    forked = failing_call(fault, 2, "forked", *options)
    assert forked == failing_call(fault, 2, "in-process", *options)
    assert forked[0] == 2 and forked[2] == f"{line}failed after 2 segments\n"
    assert forked[1].count(b"\n" if not options else b", ") >= SEGMENT  # the first two segments were written


def test_a_producer_killed_by_a_signal_is_an_error_not_a_short_table():
    code, out, err = failing_call("kill", 2, "forked")
    assert code == 1
    assert err.splitlines()[-1] == "ChildProcessError: the producer of the table ended early, exit code -9"
    assert out.count(b"\n") < 3 * SEGMENT


@pytest.mark.parametrize("argv", [
    ("zeta", "--which", "P", "--terms", "200000"),
    ("zeta", "--which", "M", "--terms", "200000", "--mode", "both", "--format", "json"),
    ("ball", "M=1,r=0", "--radius", "155"),
])
def test_a_closed_stdout_ends_the_call_with_status_141_and_no_traceback(argv):
    child = subprocess.Popen(
        [sys.executable, "-W", "error", "-m", "m2z.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    child.stdout.read(10)  # as `| head -c 10` does
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (141, b"")
    with pytest.raises(ProcessLookupError):
        os.killpg(child.pid, 0)
