"""Replay a checked-in corpus of CLI calls and compare their bytes with the record.

Stdlib only, so that it runs under any installed interpreter:

    PYTHONPATH=src python tests/cli_corpus.py           # replay
    PYTHONPATH=src python tests/cli_corpus.py --record  # re-record

``tests/cli_corpus.json`` maps each argv, shell-quoted, to the sha256 of its
stdout, its stderr and its exit code.  The replay runs every argv in process
through ``m2z.cli.main`` with ``COLUMNS=80``, prints each difference and
exits with their count.  ``--record`` rewrites the file; it reads the argv
lists of the tests, which import pytest.

The rule of the record: a performance or simplicity change never re-records,
as its bytes must not move; a change that alters a payload on purpose
re-records only the entries it names.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

from m2z.cli import main

CORPUS = Path(__file__).with_name("cli_corpus.json")
README = Path(__file__).resolve().parent.parent / "README.md"


def calls():
    """Every argv of the corpus: the tests' CLI lists, the README's ``m2z``
    lines, the ``dist`` cases, ``zeta`` on either side of the first fork and
    one refusal of each kind."""
    from m2z.zeta import MAX_ZETA_TERMS, SEGMENT
    from test_acceptance import CLI_BATTERY
    from test_cli import LIST_POSITIONALS, OTHER_EXITS, SUBCOMMAND_CALLS

    readme = [shlex.split(line, comments=True)[1:] for line in README.read_text().splitlines() if line.startswith("m2z ")]
    dist = [
        ("dist", "1,2;0,3", "2,1;0,5"),  # two matrices
        ("dist", "M=2,r=0", "M=3,r=0"),  # integer vertices
        ("dist", "M=3/2,r=1/2", "M=5/7,r=2/3"),  # rational vertices
        ("dist", "M=3/2,r=1/3", "M=3/2,r=1/6"),  # a content that the off-diagonal entry decides
        ("dist", "2,0;0,2", "1,1;0,3"),  # an imprimitive pair: no alpha route
        ("dist", "1,2;2,4", "1,0;0,1"),  # a singular matrix
    ]
    zeta = [("zeta", "--which", "P", "--terms", str(n), "--mode", "both") for n in (SEGMENT - 1, SEGMENT + 1)]
    refusals = [
        ("hnf", "1,2;3"),  # parse error:
        ("zeta", "--which", "M", "--terms", str(MAX_ZETA_TERMS + 1)),  # too large:
        ("ball", "M=1,r=0", "--radius", "2", "--format", "yaml"),  # a usage error
    ]
    listed = [*CLI_BATTERY, *(argv for argv, _, _ in SUBCOMMAND_CALLS), *OTHER_EXITS, *LIST_POSITIONALS, *readme, *dist, *zeta, *refusals]
    return list(dict.fromkeys(map(tuple, listed)))


def replay(argv):
    """[sha256 of stdout, stderr, exit code] of ``main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue(), code]


def record():
    entries = [f"{json.dumps(shlex.join(argv))}: {json.dumps(replay(argv))}" for argv in calls()]
    CORPUS.write_text("{\n" + ",\n".join(entries) + "\n}\n")
    return len(entries)


def differences(corpus):
    """(argv, recorded, replayed) for each corpus entry whose bytes or code differ."""
    found = []
    for line, recorded in corpus.items():
        replayed = replay(shlex.split(line))
        if replayed != recorded:
            found.append((line, recorded, replayed))
    return found


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"  # the width of argparse's help and usage text
    if sys.argv[1:] == ["--record"]:
        print(f"{record()} argv recorded in {CORPUS.name}")
        sys.exit(0)
    corpus = json.loads(CORPUS.read_text())
    found = differences(corpus)
    for entry in found:
        print(*entry)
    print(f"{len(corpus)} argv, {len(found)} differences, Python {sys.version.split()[0]}")
    sys.exit(len(found))
