"""Batch command-line surface with deterministic JSON/CSV/DOT output.

Payloads go to stdout, diagnostics to stderr.  Exit codes: 0 on success,
1 on domain errors (singular matrix, not divisible, not a unit, ...),
2 on usage or literal-parse errors and on inputs too large for memory.
Fractions are always rendered as "num/den" strings, never as floating point.
"""

from __future__ import annotations

import argparse
import sys
from operator import ne

from . import bigpicture, errors, matrices, supernatural, textout, zeta
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


def _parse_class(text: str):
    """(class, vertex) of a vertex or matrix literal; the vertex is None for
    an imprimitive class."""
    if "=" in text:
        vertex = bigpicture.parse_vertex(text)
        return bigpicture.embed(vertex), vertex
    m = matrices.hnf(matrices.parse_matrix(text))
    return m, (bigpicture.unembed(m) if m.is_primitive else None)


def _cmd_dist(args) -> int:
    import json
    mx, vx = _parse_class(args.x)
    my, vy = _parse_class(args.y)
    d = matrices.hyper_distance(mx, my)
    if vx is not None and vy is not None:
        via = bigpicture.delta_direct(vx, vy)
        payload = {"delta": d, "via_alpha": via, "agree": via == d}
    else:
        payload = {"delta": d, "via_alpha": None, "agree": None}
    print(json.dumps(payload))
    return 0


def _cmd_ball(args) -> int:
    m = bigpicture._vertex_class(args.center) if "=" in args.center else matrices.hnf(matrices.parse_matrix(args.center))
    if m.det == 1:  # the origin, whose ball is streamed
        vertices, edges, *graph = bigpicture.origin_ball(args.radius)
    else:
        graph = bigpicture.ball(bigpicture.unembed(m), args.radius)
        vertices, edges = len(graph.classes), len(graph.edges)
    if args.format == "dot":
        bigpicture.export_dot(graph, sys.stdout)
    else:
        bigpicture.export_json(graph, sys.stdout)
        sys.stdout.write("\n")
    print(f"vertices: {vertices} edges: {edges}", file=sys.stderr)
    return 0


_ZETA_ROUTES = {  # (formula, enumeration) by name, looked up in zeta at call time
    "M": ("sigma_coeffs", "count_classes_by_det"),
    "P": ("psi_coeffs", "count_primitive_by_det"),
    "Pbar": ("axpb_count", "axpb_count"),
}


def _zeta_json_parts(columns: list[tuple[int, ...]], mism: int | None):
    """The JSON payload of ``zeta`` and its newline, as json.dumps writes
    them, in parts of CHUNK_PARTS numbers, from whole tables (entry 0 skipped)."""
    for key, column in zip(("",) if mism is None else ('{"formula": ', ', "enumerated": '), columns):
        yield key
        yield from textout.json_ints(column, 1)
    yield "\n" if mism is None else f', "mismatches": {mism}}}\n'


def _cmd_zeta(args) -> int:
    formula_fn, enumerate_fn = (getattr(zeta, name) for name in _ZETA_ROUTES[args.which])
    fns = {"formula": (formula_fn,), "enumerate": (enumerate_fn,), "both": (formula_fn, enumerate_fn)}[args.mode]
    columns = [fn(args.terms).coeffs for fn in fns]  # whole tables, not copies; coeffs[0] is 0 in each
    mism = sum(map(ne, *columns)) if len(columns) == 2 else None
    if args.format == "json":
        sys.stdout.writelines(_zeta_json_parts(columns, mism))
    else:
        header = ("n,coefficient" if mism is None else "n,formula,enumerated") if args.header else None
        textout.write_csv(sys.stdout, header, [range(len(columns[0])), *columns], 1)
    if mism is not None:
        print(f"mismatches: {mism}", file=sys.stderr)
    return 0


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
    textout.write_csv(sys.stdout, "x,y,n,m,value" if args.header else None, [*zip(*rows)])
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
        return args.func(args)
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
