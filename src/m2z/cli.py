"""Batch command-line surface with deterministic JSON/CSV/DOT output.

Payloads go to stdout, diagnostics to stderr.  Exit codes: 0 on success,
1 on domain errors (singular matrix, not divisible, not a unit, ...),
2 on usage or literal-parse errors and on inputs too large for memory.
Fractions are always rendered as "num/den" strings, never as floating point.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import chain, islice
from operator import ne

from .bigpicture import ball, delta_direct, embed, export_dot, export_json, parse_vertex, unembed
from .errors import DomainError
from .matrices import hnf, hyper_distance, parse_matrix
from .supernatural import (
    Equivalent,
    ExtMatrix,
    GOORMAGHTIGH_8191_NOTE,
    equiv_decide,
    ext_membership,
    goormaghtigh_search,
    moebius_apply,
    parse_moebius,
    parse_supernatural,
)
from .zeta import axpb_count, count_classes_by_det, count_primitive_by_det, psi_coeffs, sigma_coeffs


def _cmd_hnf(args) -> int:
    m = parse_matrix(args.matrix)
    h = hnf(m)
    payload = {
        "hnf": [[h.a, h.b], [0, h.d]],
        "det": h.det,
        "primitive": h.is_primitive,
        "content": h.content,
    }
    print(json.dumps(payload))
    return 0


def _parse_class(text: str):
    """(class, vertex) of a vertex or matrix literal; the vertex is None for
    an imprimitive class."""
    if "=" in text:
        vertex = parse_vertex(text)
        return embed(vertex), vertex
    m = hnf(parse_matrix(text))
    return m, (unembed(m) if m.is_primitive else None)


def _cmd_dist(args) -> int:
    mx, vx = _parse_class(args.x)
    my, vy = _parse_class(args.y)
    d = hyper_distance(mx, my)
    if vx is not None and vy is not None:
        via = delta_direct(vx, vy)
        payload = {"delta": d, "via_alpha": via, "agree": via == d}
    else:
        payload = {"delta": d, "via_alpha": None, "agree": None}
    print(json.dumps(payload))
    return 0


def _cmd_ball(args) -> int:
    if "=" in args.center:
        center = parse_vertex(args.center)
    else:
        center = unembed(hnf(parse_matrix(args.center)))
    graph = ball(center, args.radius)
    if args.format == "dot":
        sys.stdout.write(export_dot(graph))
    else:
        print(export_json(graph))
    print(f"vertices: {len(graph.classes)} edges: {len(graph.edges)}", file=sys.stderr)
    return 0


_ZETA_ROUTES = {
    "M": (sigma_coeffs, count_classes_by_det),
    "P": (psi_coeffs, count_primitive_by_det),
    "Pbar": (axpb_count, axpb_count),
}


def _write_csv(header: str | None, lines) -> None:
    """Write the header (when given) and the lines, 2**14 rows per write."""
    rows = iter(lines) if header is None else chain((header,), lines)
    while chunk := list(islice(rows, 1 << 14)):
        sys.stdout.write("\n".join(chunk) + "\n")


def _cmd_zeta(args) -> int:
    formula_fn, enumerate_fn = _ZETA_ROUTES[args.which]
    fns = {"formula": (formula_fn,), "enumerate": (enumerate_fn,), "both": (formula_fn, enumerate_fn)}[args.mode]
    columns = [fn(args.terms).coeffs[1:] for fn in fns]
    mism = sum(map(ne, *columns)) if len(columns) == 2 else None
    if args.format == "json":
        if mism is None:
            print(json.dumps(columns[0]))
        else:
            print(json.dumps({"formula": columns[0], "enumerated": columns[1], "mismatches": mism}))
    elif mism is None:
        header = "n,coefficient" if args.header else None
        _write_csv(header, (f"{i},{c}" for i, c in enumerate(columns[0], start=1)))
    else:
        header = "n,formula,enumerated" if args.header else None
        _write_csv(header, (f"{i},{f},{e}" for i, (f, e) in enumerate(zip(*columns), start=1)))
    if mism is not None:
        print(f"mismatches: {mism}", file=sys.stderr)
    return 0


def _cmd_ext(args) -> int:
    try:
        if args.ext_command == "equiv":
            z1 = parse_supernatural(args.z1)
            z2 = parse_supernatural(args.z2)
            verdict = equiv_decide(z1, z2)
            if isinstance(verdict, Equivalent):
                w = verdict.witness
                payload = {"verdict": "Equivalent", "witness": [[w.a, w.b], [w.c, w.d]]}
            else:
                payload = {"verdict": "NotEquivalent", "reason": verdict.reason}
            print(json.dumps(payload))
        elif args.ext_command == "apply":
            g = parse_moebius(args.matrix)
            z = parse_supernatural(args.z)
            print(str(moebius_apply(g, z)))
        else:  # member
            x = ExtMatrix(
                parse_supernatural(args.s),
                parse_supernatural(args.z),
                parse_supernatural(args.sprime),
            )
            result = ext_membership(x, Fraction(args.u), Fraction(args.v))
            print("true" if result else "false")
        return 0
    except DomainError as exc:
        payload = {"error": type(exc).__name__}
        prime = getattr(exc, "prime", None)
        if prime is not None:
            payload["prime"] = prime
        print(json.dumps(payload))
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _cmd_goormaghtigh(args) -> int:
    rows = goormaghtigh_search(args.bound)
    _write_csv("x,y,n,m,value" if args.header else None, (",".join(map(str, row)) for row in rows))
    if any(row[4] == 8191 for row in rows):
        print(f"note: {GOORMAGHTIGH_8191_NOTE}", file=sys.stderr)
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
    p_equiv.set_defaults(func=_cmd_ext)
    p_apply = ext_sub.add_parser("apply", help="apply a projective matrix to a class")
    p_apply.add_argument("matrix", help='rational matrix literal "a,b;c,d"')
    p_apply.add_argument("z")
    p_apply.set_defaults(func=_cmd_ext)
    p_member = ext_sub.add_parser("member", help="test membership of a column (u, v)")
    p_member.add_argument("z")
    p_member.add_argument("u")
    p_member.add_argument("v")
    p_member.add_argument("--s", default="1", help='the s entry (default "1")')
    p_member.add_argument("--sprime", default="0", help='the s\' entry (default "0")')
    p_member.set_defaults(func=_cmd_ext)

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
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"too large: {str(exc) or 'the answer does not fit in memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
