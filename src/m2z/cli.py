"""Batch command-line surface with deterministic JSON/CSV/DOT output.

Payloads go to stdout, diagnostics to stderr.  Exit codes: 0 on success,
1 on domain errors (singular matrix, not divisible, not a unit, ...),
2 on usage or literal-parse errors and on inputs too large for memory,
141 when stdout is closed before the payload is written (``m2z ... | head``),
without a traceback.  Fractions are always rendered as "num/den" strings,
never as floating point.

``m2z.zetaout`` writes the ``zeta`` payload, from a forked producer when the
table has more than one segment.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bigpicture, errors, matrices, supernatural
# json is imported by the handlers that print it: a ball call never loads it.


def _cmd_hnf(args) -> int:
    import json
    m = matrices.parse_matrix(args.matrix)
    h = matrices.hnf(m)
    payload = {
        "hnf": [[h.a, h.b], [0, h.d]],
        "det": h.det,
        "primitive": h.is_primitive,
        "content": h.content,
    }
    print(json.dumps(payload))
    return 0


def _read_class(text: str) -> matrices.MatrixClass:
    """The class of a vertex literal "M=num/den,r=g/h" or a matrix literal "a,b;c,d"."""
    return bigpicture._vertex_class(text) if "=" in text else matrices.hnf(matrices.parse_matrix(text))


def _cmd_dist(args) -> int:
    import json
    mx, my = _read_class(args.x), _read_class(args.y)
    d = matrices.hyper_distance(mx, my)
    if mx.is_primitive and my.is_primitive:  # both are vertices of the picture
        via = bigpicture.delta_direct(bigpicture.unembed(mx), bigpicture.unembed(my))
        payload = {"delta": d, "via_alpha": via, "agree": via == d}
    else:
        payload = {"delta": d, "via_alpha": None, "agree": None}
    print(json.dumps(payload))
    return 0


def _cmd_ball(args) -> int:
    vertices, edges, *graph = bigpicture.ball_stream(_read_class(args.center), args.radius)
    if args.format == "dot":
        bigpicture.export_dot(graph, sys.stdout)
    else:
        bigpicture.export_json(graph, sys.stdout)
        sys.stdout.write("\n")
    print(f"vertices: {vertices} edges: {edges}", file=sys.stderr)
    return 0


def _cmd_zeta(args) -> int:
    # imported here, so that no other call loads it; `from . import zetaout`
    # would ask the package's __getattr__, which runs every library module
    from .zetaout import write_zeta

    return write_zeta(args.which, args.terms, args.mode, args.format, args.header)


def _cmd_equiv(args) -> int:
    import json
    verdict = supernatural.equiv_decide(*map(supernatural.parse_supernatural, (args.z1, args.z2)))
    if isinstance(verdict, supernatural.Equivalent):
        w = verdict.witness
        payload = {"verdict": "Equivalent", "witness": [[w.a, w.b], [w.c, w.d]]}
    else:
        payload = {"verdict": "NotEquivalent", "reason": verdict.reason}
    print(json.dumps(payload))
    return 0


def _cmd_apply(args) -> int:
    try:
        image = supernatural.moebius_apply(supernatural.parse_moebius(args.matrix), supernatural.parse_supernatural(args.z))
    except errors.DomainError as exc:  # Degenerate, NotAUnit or NotRepresentable; main reports it
        prime = getattr(exc, "prime", None)
        import json
        print(json.dumps({"error": type(exc).__name__} | ({} if prime is None else {"prime": prime})))
        raise
    print(str(image))
    return 0


def _cmd_member(args) -> int:
    x = supernatural.ExtMatrix(*map(supernatural.parse_supernatural, (args.s, args.z, args.sprime)))
    [u], [v] = (matrices._numbers(rf"\s*{matrices._RATIONAL}\s*", text, "a rational num/den") for text in (args.u, args.v))
    print("true" if supernatural.ext_membership(x, u, v) else "false")
    return 0


def _cmd_goormaghtigh(args) -> int:
    rows = supernatural.goormaghtigh_search(args.bound)
    sys.stdout.write("x,y,n,m,value\n" * args.header + "%d,%d,%d,%d,%d\n" * len(rows) % sum(rows, ()))
    if any(row[4] == 8191 for row in rows):
        print(f"note: {supernatural.GOORMAGHTIGH_8191_NOTE}", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="m2z",
        description="Exact 2x2 integer matrix classes, the big picture, zeta "
        "coefficient tables, and extension classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hnf = sub.add_parser("hnf", help="canonical class of an integer matrix")
    p_hnf.add_argument("matrix", help='matrix literal "a,b;c,d"')
    p_hnf.set_defaults(func=_cmd_hnf)

    p_dist = sub.add_parser("dist", help="hyper-distance between two classes or vertices")
    p_dist.add_argument("x", help='vertex "M=num/den,r=g/h" or matrix "a,b;c,d"')
    p_dist.add_argument("y")
    p_dist.set_defaults(func=_cmd_dist)

    p_ball = sub.add_parser("ball", help="vertices within a hyper-distance radius")
    p_ball.add_argument("center", help='vertex "M=num/den,r=g/h" or primitive matrix')
    p_ball.add_argument("--radius", type=int, required=True)
    p_ball.add_argument("--format", choices=("json", "dot"), default="json")
    p_ball.set_defaults(func=_cmd_ball)

    p_zeta = sub.add_parser("zeta", help="Dirichlet coefficient tables")
    p_zeta.add_argument("--which", choices=("M", "P", "Pbar"), required=True)
    p_zeta.add_argument("--terms", type=int, required=True)
    p_zeta.add_argument("--mode", choices=("formula", "enumerate", "both"), default="formula")
    p_zeta.add_argument("--format", choices=("csv", "json"), default="csv")
    p_zeta.add_argument("--header", action="store_true", help="prepend a CSV header row")
    p_zeta.set_defaults(func=_cmd_zeta)

    p_ext = sub.add_parser("ext", help="extension classes: equivalence, action, membership")
    ext_sub = p_ext.add_subparsers(dest="ext_command", required=True)
    p_equiv = ext_sub.add_parser("equiv", help="decide isomorphism of two classes")
    p_equiv.add_argument("z1", help='supernatural literal, e.g. "2^4*5^2*7^inf"')
    p_equiv.add_argument("z2")
    p_equiv.set_defaults(func=_cmd_equiv)
    p_apply = ext_sub.add_parser("apply", help="apply a projective matrix to a class")
    p_apply.add_argument("matrix", help='rational matrix literal "a,b;c,d"')
    p_apply.add_argument("z")
    p_apply.set_defaults(func=_cmd_apply)
    p_member = ext_sub.add_parser("member", help="test membership of a column (u, v)")
    p_member.add_argument("z")
    p_member.add_argument("u")
    p_member.add_argument("v")
    p_member.add_argument("--s", default="1", help='the s entry (default "1")')
    p_member.add_argument("--sprime", default="0", help='the s\' entry (default "0")')
    p_member.set_defaults(func=_cmd_member)

    p_goor = sub.add_parser("goormaghtigh", help="repunit coincidence search")
    p_goor.add_argument("--bound", type=int, required=True)
    p_goor.add_argument("--header", action="store_true")
    p_goor.set_defaults(func=_cmd_goormaghtigh)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # argv bounds the literals; an answer may have more than 4,300 digits
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone from stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader has gone (``m2z ... | head``).  As the Python docs'
        # SIGPIPE note does, point stdout at os.devnull, so that the flush at
        # exit does not fail again; 141 is what a shell reports for SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OverflowError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except errors.DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"too large: {str(exc) or 'the answer does not fit in memory'}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
