"""Batch command-line surface with deterministic JSON/CSV/DOT output.

Payloads go to stdout, diagnostics to stderr.  Exit codes: 0 on success,
1 on domain errors (singular matrix, not divisible, not a unit, ...),
2 on usage or literal-parse errors and on inputs too large for memory,
141 when stdout is closed before the payload is written (``m2z ... | head``),
without a traceback, and 1 when another write of stdout fails (a full device),
the help text's too, with one stderr line after that of the domain error the
call met, if any.  Fractions are always rendered as "num/den" strings,
never as floating point.

``m2z.zetaout`` writes the ``zeta`` payload, from a forked producer when the
table has more than one segment.

``_GRAMMAR`` states the subcommands once.  ``_fast_parse`` reads a well-formed
argv from it, so such a call loads no ``argparse``; ``--help``, usage errors
and every argv it declines go to the argparse parser ``_build_parser`` makes
from the same table, unchanged.

``main`` alone sets the exit code and flushes stdout.  The ``m2z`` script and
``python -m m2z.cli`` end in ``run``, which flushes stderr and calls
``os._exit`` with ``main``'s code; ``main`` returns it in process.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace  # loaded already: the package imports ModuleType from it

from . import bigpicture, errors, matrices, supernatural


def _print_json(payload) -> None:
    import json  # only here: ball, zeta and goormaghtigh write their payloads without it, and never load it
    print(json.dumps(payload))


def _cmd_hnf(args) -> None:
    m = matrices.parse_matrix(args.matrix)
    h = matrices.hnf(m)
    payload = {
        "hnf": [[h.a, h.b], [0, h.d]],
        "det": h.det,
        "primitive": h.is_primitive,
        "content": h.content,
    }
    _print_json(payload)


def _read_class(text: str) -> matrices.MatrixClass:
    """The class of a vertex literal "M=num/den,r=g/h" or a matrix literal "a,b;c,d"."""
    return bigpicture._vertex_class(text) if "=" in text else matrices.hnf(matrices.parse_matrix(text))


def _cmd_dist(args) -> None:
    mx, my = _read_class(args.x), _read_class(args.y)
    d = matrices.hyper_distance(mx, my)
    if mx.is_primitive and my.is_primitive:  # both are vertices of the picture
        via = bigpicture._alpha_distance((mx.a, mx.b, mx.d), (my.a, my.b, my.d))  # d * alpha is the class (a, b; 0, d)
        payload = {"delta": d, "via_alpha": via, "agree": via == d}
    else:
        payload = {"delta": d, "via_alpha": None, "agree": None}
    _print_json(payload)


def _cmd_ball(args) -> None:
    vertices, edges, *graph = bigpicture.ball_stream(_read_class(args.center), args.radius)
    if args.format == "dot":
        bigpicture.export_dot(graph, sys.stdout)
    else:
        bigpicture.export_json(graph, sys.stdout)
        sys.stdout.write("\n")
    print(f"vertices: {vertices} edges: {edges}", file=sys.stderr)


def _cmd_zeta(args) -> None:
    from .zetaout import write_zeta  # here, so that no other call loads it

    write_zeta(args.which, args.terms, args.mode, args.format, args.header)


def _cmd_equiv(args) -> None:
    verdict = supernatural.equiv_decide(*map(supernatural.parse_supernatural, (args.z1, args.z2)))
    if isinstance(verdict, supernatural.Equivalent):
        w = verdict.witness
        payload = {"verdict": "Equivalent", "witness": [[w.a, w.b], [w.c, w.d]]}
    else:
        payload = {"verdict": "NotEquivalent", "reason": verdict.reason}
    _print_json(payload)


def _cmd_apply(args) -> None:
    try:
        image = supernatural.moebius_apply(supernatural.parse_moebius(args.matrix), supernatural.parse_supernatural(args.z))
    except errors.DomainError as exc:  # Degenerate, NotAUnit or NotRepresentable; main reports it
        prime = getattr(exc, "prime", None)
        _print_json({"error": type(exc).__name__} | ({} if prime is None else {"prime": prime}))
        raise
    print(str(image))


def _cmd_member(args) -> None:
    x = supernatural.ExtMatrix(*map(supernatural.parse_supernatural, (args.s, args.z, args.sprime)))
    [u], [v] = (matrices._numbers(rf"\s*{matrices._RATIONAL}\s*", text, "a rational num/den") for text in (args.u, args.v))
    print("true" if supernatural.ext_membership(x, u, v) else "false")


def _cmd_goormaghtigh(args) -> None:
    rows = supernatural.goormaghtigh_search(args.bound)
    sys.stdout.write("x,y,n,m,value\n" * args.header + "%d,%d,%d,%d,%d\n" * len(rows) % sum(rows, ()))
    if any(row[4] == 8191 for row in rows):
        print(f"note: {supernatural.GOORMAGHTIGH_8191_NOTE}", file=sys.stderr)


# The grammar, stated once: each subcommand's help, handler and add_argument
# calls (flag, keyword arguments) in order; ext has a table of its own instead.
_GRAMMAR = {
    "hnf": ("canonical class of an integer matrix", _cmd_hnf, [("matrix", {"help": 'matrix literal "a,b;c,d"'})]),
    "dist": ("hyper-distance between two classes or vertices", _cmd_dist, [
        ("x", {"help": 'vertex "M=num/den,r=g/h" or matrix "a,b;c,d"'}), ("y", {})]),
    "ball": ("vertices within a hyper-distance radius", _cmd_ball, [
        ("center", {"help": 'vertex "M=num/den,r=g/h" or primitive matrix'}),
        ("--radius", {"type": int, "required": True}),
        ("--format", {"choices": ("json", "dot"), "default": "json"})]),
    "zeta": ("Dirichlet coefficient tables", _cmd_zeta, [
        ("--which", {"choices": ("M", "P", "Pbar"), "required": True}),
        ("--terms", {"type": int, "required": True}),
        ("--mode", {"choices": ("formula", "enumerate", "both"), "default": "formula"}),
        ("--format", {"choices": ("csv", "json"), "default": "csv"}),
        ("--header", {"action": "store_true", "help": "prepend a CSV header row"})]),
    "ext": ("extension classes: equivalence, action, membership", None, {
        "equiv": ("decide isomorphism of two classes", _cmd_equiv, [
            ("z1", {"help": 'supernatural literal, e.g. "2^4*5^2*7^inf"'}), ("z2", {})]),
        "apply": ("apply a projective matrix to a class", _cmd_apply, [
            ("matrix", {"help": 'rational matrix literal "a,b;c,d"'}), ("z", {})]),
        "member": ("test membership of a column (u, v)", _cmd_member, [
            ("z", {}), ("u", {}), ("v", {}),
            ("--s", {"default": "1", "help": 'the s entry (default "1")'}),
            ("--sprime", {"default": "0", "help": 'the s\' entry (default "0")'})]),
    }),
    "goormaghtigh": ("repunit coincidence search", _cmd_goormaghtigh, [
        ("--bound", {"type": int, "required": True}), ("--header", {"action": "store_true"})]),
}


def _add_commands(subparsers, grammar) -> None:
    for name, (text, func, arguments) in grammar.items():
        parser = subparsers.add_parser(name, help=text)
        if func is None:  # ext
            _add_commands(parser.add_subparsers(dest="ext_command", required=True), arguments)
            continue
        for flag, kwargs in arguments:
            parser.add_argument(flag, **kwargs)
        parser.set_defaults(func=func)


def _build_parser():
    import argparse  # only here: a well-formed call is read by _fast_parse

    class Parser(argparse.ArgumentParser):  # add_subparsers makes every subparser one
        def _print_message(self, message, file=None):  # argparse's drops a failed write from 3.11 on; main reports it
            if message:
                (file or sys.stderr).write(message)

    parser = Parser(
        prog="m2z",
        description="Exact 2x2 integer matrix classes, the big picture, zeta "
        "coefficient tables, and extension classification.",
    )
    _add_commands(parser.add_subparsers(dest="command", required=True), _GRAMMAR)
    return parser


def _fast_parse(argv):
    """The namespace argparse builds from a well-formed ``argv``, or None to leave it to argparse.

    Read here: the subcommand names, then exact option names, each given once,
    a value option followed by a value not starting with "-", positionals not
    starting with "-", and one ``--`` before the last token, after which every
    token is a positional.  ``-h``, abbreviations, ``--opt=value`` and every
    usage error are declined.
    """
    command, *tokens = argv or [None]
    entry, args = _GRAMMAR.get(command), {"command": command}
    if entry and entry[1] is None:  # ext
        args["ext_command"], *tokens = tokens or [None]
        entry = entry[2].get(args["ext_command"])
    if entry is None or tokens.count("--") > 1 or tokens[-1:] == ["--"]:  # argparse reads `dist -- a --` as y = []
        return None
    _, func, arguments = entry
    options = {flag: kwargs for flag, kwargs in arguments if flag[0] == "-"}
    positionals, given, tokens = [], {}, iter(tokens)
    for token in tokens:
        if token == "--":
            positionals += tokens
        elif token[:1] != "-":
            positionals.append(token)
        elif token not in options or token in given:
            return None
        elif "action" in options[token]:  # store_true
            given[token] = True
        else:
            kwargs, value = options[token], next(tokens, "-")
            try:
                given[token] = kwargs.get("type", str)(value)
            except ValueError:
                return None
            if value[:1] == "-" or given[token] not in kwargs.get("choices", [given[token]]):
                return None
    names = [flag for flag, _ in arguments if flag[0] != "-"]
    if len(positionals) != len(names) or any(kwargs.get("required") and flag not in given for flag, kwargs in options.items()):
        return None
    for flag, kwargs in options.items():
        args[flag[2:]] = given.get(flag, kwargs.get("default", False if "action" in kwargs else None))
    return SimpleNamespace(**args, **dict(zip(names, positionals)), func=func)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    digits = sys.get_int_max_str_digits()
    try:
        try:
            args = _fast_parse(argv) or _build_parser().parse_args(argv)  # under the int-digit limit
            # argparse reads a second or trailing "--" as the positional []
            if unbound := [name for name, value in vars(args).items() if type(value) is list]:
                raise ValueError(f'no literal for {unbound[0]} (a second or trailing "--" leaves it empty)')
            sys.set_int_max_str_digits(0)  # argv bounds the literals; an answer may have more than 4,300 digits
            args.func(args)
            return 0
        except SystemExit as exc:  # argparse has written --help's text (0) or a usage error (2)
            return exc.code
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
            sys.stdout.flush()  # on every path; a failed write shows here, not at exit, and replaces the code returned
    except BrokenPipeError:
        # stdout's reader has gone (``m2z ... | head``).  As the Python docs'
        # SIGPIPE note does, point stdout at os.devnull, so that a later flush
        # does not fail again; 141 is what a shell reports for SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:  # a write the system refused: stdout on a full device, ...
        if exc.errno is None:  # raised by m2z, not the system: zetaout's producer ended early, a fault shown in full
            raise
        if isinstance(exc.__context__, errors.DomainError):  # the handler's report of it failed: ext apply's error JSON
            print(f"error: {type(exc.__context__).__name__}: {exc.__context__}", file=sys.stderr)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Exit with ``main``'s code once stderr is flushed (``main`` flushes
    stdout), skipping the teardown, which writes nothing (about 10 ms).
    ``main``'s exceptions propagate."""
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
