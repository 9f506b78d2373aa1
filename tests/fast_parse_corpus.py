"""Compare ``m2z.cli._fast_parse`` with argparse on a fixed corpus of tricky argv.

Stdlib only, so that it runs under any installed interpreter:

    PYTHONPATH=src python tests/fast_parse_corpus.py

Each argv is listed with whether the fast path reads it.  A call the fast path
reads must give the namespace argparse builds, ``func`` included; one it
declines goes to argparse.  Prints each disagreement and exits with their count.
"""

import contextlib
import io
import sys

from m2z.cli import _build_parser, _fast_parse

CORPUS = [  # argv, whether _fast_parse reads it
    # one "--" before the last token: every token after it is a positional
    (("dist", "--", "a", "b"), True),
    (("dist", "a", "--", "b"), True),
    (("dist", "--", "-h", "--terms"), True),
    (("ext", "member", "2^1", "--", "-1/3", "1/3"), True),
    (("ball", "--radius", "3", "--", "M=1,r=0"), True),
    # a second or a trailing "--", which argparse reads irregularly: the second and third give y = []
    (("dist", "a", "b", "--"), False),
    (("dist", "--", "a", "--"), False),
    (("dist", "--", "--terms", "--"), False),
    (("dist", "--", "a", "--", "b"), False),
    (("ext", "member", "--", "2^1", "--", "1/3"), False),  # argparse gives u = []
    (("goormaghtigh", "--bound", "0", "--"), False),
    (("hnf", "--", "--"), False),
    # "--" in place of a subcommand, or options after "--"
    (("--", "hnf", "0,1;2,0"), False),
    (("ext", "--", "equiv", "2^1", "2^3"), False),
    (("ball", "M=1,r=0", "--", "--radius", "3"), False),
    # abbreviations, "=" and values that start with "-"
    (("ball", "M=1,r=0", "--rad", "3"), False),
    (("ext", "member", "2^1", "1", "2", "--sp", "3"), False),
    (("ball", "M=1,r=0", "--radius=3"), False),
    (("ball", "M=1,r=0", "--radius", "-5"), False),
    (("ball", "M=1,r=0", "--radius", "-"), False),
    (("ball", "M=1,r=0", "--radius"), False),
    (("hnf", "-"), False),
    (("hnf", "-1,0;0,1"), False),
    # what int() reads, and an empty token
    (("zeta", "--which", "M", "--terms", "1_000"), True),
    (("zeta", "--which", "M", "--terms", "٣"), True),  # ARABIC-INDIC DIGIT THREE
    (("zeta", "--which", "M", "--terms", " 7 "), True),
    (("zeta", "--which", "M", "--terms", "1e3"), False),
    (("zeta", "--which", "M", "--terms", "1" + "0" * 4300), False),  # over the int-digit limit
    (("hnf", ""), True),
    (("ext", "member", "2^1", "1", "2", "--s", ""), True),
    (("ball", "M=1,r=0", "--radius", ""), False),
    # help
    (("-h",), False),
    (("--help",), False),
    (("hnf", "-h"), False),
    (("ext", "member", "--help"), False),
    # ext alone, an unknown subcommand, an empty argv
    (("ext",), False),
    (("ext", "mem", "2^1", "1", "2"), False),
    (("hn", "0,1;2,0"), False),
    ((), False),
    # options after, before and between positionals
    (("ext", "member", "z", "u", "v", "--s", "2"), True),
    (("ball", "--radius", "3", "M=1,r=0", "--format", "dot"), True),
    (("ext", "member", "--sprime", "5", "z", "--s", "2", "u", "v"), True),
    (("zeta", "--header", "--terms", "4", "--which", "P", "--mode", "both"), True),
    (("goormaghtigh", "--header", "--bound", "100"), True),
    # a repeated option
    (("ball", "M=1,r=0", "--radius", "3", "--radius", "4"), False),
    (("goormaghtigh", "--bound", "100", "--header", "--header"), False),
    # usage errors
    (("ball", "M=1,r=0", "--radius", "2", "--format", "yaml"), False),
    (("goormaghtigh", "--search-bound", "5"), False),
    (("zeta", "--which", "M"), False),
    (("hnf", "0,1;2,0", "1,0;0,1"), False),
    (("dist", "M=1,r=0"), False),
]


def argparse_reading(argv):
    """``vars`` of the namespace argparse builds from ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(list(argv)))
        except SystemExit:
            return None


def disagreements():
    """(argv, listed, the fast path's vars, argparse's vars) for each corpus entry the fast
    path reads otherwise than argparse, or reads or declines against its listing."""
    found = []
    for argv, listed in CORPUS:
        fast, slow = _fast_parse(list(argv)), argparse_reading(argv)
        if (fast is not None) != listed or fast is not None and vars(fast) != slow:
            found.append((argv, listed, fast and vars(fast), slow))
    return found


if __name__ == "__main__":
    found = disagreements()
    for entry in found:
        print(*entry)
    print(f"{len(CORPUS)} argv, {len(found)} disagreements, Python {sys.version.split()[0]}")
    sys.exit(len(found))
