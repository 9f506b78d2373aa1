"""Per-layer tracing of m2z from outside the package.

``Tracer.install`` rebinds each traced public function, in every m2z module
that binds it, to a wrapper that records a span (name, start, end, parent
span, call id).  Spans stay in memory in flat arrays and are reduced once, by
``Tracer.metrics``, when the replay ends.  No file of m2z changes.

Run as a script, this file is the replay child: it reads
``{"src", "bench", "calls", "golden", "trace"}`` as JSON on stdin, replays
each call in process through ``m2z.cli.main`` with stdout and stderr
captured, checks every output, and prints one JSON object with the replay's
wall time, its failures and, when traced, the per-layer metrics.  A fresh
process per replay keeps ``lru_cache`` state from leaking between the traced
and the untraced replay.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from array import array
from time import perf_counter

# Public functions wrapped, by module.  Only these boundaries get spans.
TARGETS = {
    "cli": ("main",),
    "matrices": ("hnf", "hyper_distance", "meet", "join", "quotient", "divides", "classes_with_det", "parse_matrix"),
    "bigpicture": ("ball", "embed", "unembed", "delta_direct", "export_json", "export_dot", "parse_vertex"),
    "primes": ("is_prime", "primes_up_to", "factor"),
    "zeta": ("sigma_coeffs", "psi_coeffs", "count_classes_by_det", "count_primitive_by_det", "axpb_count"),
    "supernatural": (
        "equiv_decide",
        "moebius_apply",
        "ext_membership",
        "goormaghtigh_search",
        "parse_supernatural",
        "parse_moebius",
    ),
    "localposet": ("localize", "upward_neighbors", "downward_neighbors"),
}
# Generators are drained inside their span, so the span covers their work.
GENERATORS = {"matrices.classes_with_det"}
PARSERS = ("matrices.parse_matrix", "bigpicture.parse_vertex", "supernatural.parse_supernatural", "supernatural.parse_moebius")
ZETA = ("sigma_coeffs", "psi_coeffs", "count_classes_by_det", "count_primitive_by_det", "axpb_count")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Spans are listed in the order they started, so a parent precedes its
    children and siblings come in start order; the union of the children's
    intervals, clipped to the parent, is then one pass.
    """
    n = len(starts)
    covered = [0.0] * n
    reach = list(starts)  # how far each span's children already cover it
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def roots(parents) -> list[int]:
    """The outermost ancestor of each span (parents precede children)."""
    out = []
    for i, p in enumerate(parents):
        out.append(i if p < 0 else out[p])
    return out


class Tracer:
    """Spans and counters of one replay."""

    def __init__(self):
        self.labels: list[str] = []  # span name by name id
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.call = array("l")
        self.start = array("d")
        self.end = array("d")
        self.call_id = -1
        self.items = 0  # classes yielded by classes_with_det
        self.max_sieve = 0  # largest bound passed to primes_up_to
        self.zeta_terms = 0
        self.balls: dict[int, tuple[bool, int, int]] = {}  # span -> (origin?, vertices, edges)
        self.pending: list = []  # (graph, radius) of balls not yet probed
        self._stack: list[int] = []
        self.originals: dict[str, object] = {}

    def install(self):
        import m2z.bigpicture
        import m2z.cli  # noqa: F401  (binds the names to rebind)

        self._origin = m2z.bigpicture.BigPictureVertex.of(1, 0)
        modules = [m for name, m in sys.modules.items() if name == "m2z" or name.startswith("m2z.")]
        for short, names in TARGETS.items():
            module = sys.modules[f"m2z.{short}"]
            for attr in names:
                fn = getattr(module, attr)
                self.originals[f"{short}.{attr}"] = fn
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, bound, wrapper)
                        elif isinstance(value, dict):  # dispatch tables such as cli._ZETA_ROUTES
                            for key, entry in value.items():
                                if isinstance(entry, tuple) and fn in entry:
                                    value[key] = tuple(wrapper if x is fn else x for x in entry)

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        self.labels.append(name)
        drain = name in GENERATORS
        if name.startswith("zeta."):
            observe = self._observe_zeta
        else:
            observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        stack, names, parents, calls, starts, ends = self._stack, self.name_id, self.parent, self.call, self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            calls.append(self.call_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe:
                observe(idx, args, result)
            return iter(result) if drain else result

        return functools.update_wrapper(wrapper, fn)

    def _observe_matrices_classes_with_det(self, idx, args, result):
        self.items += len(result)

    def _observe_primes_primes_up_to(self, idx, args, result):
        self.max_sieve = max(self.max_sieve, args[0])

    def _observe_bigpicture_ball(self, idx, args, graph):
        centre, radius = args
        self.balls[idx] = (centre == self._origin, len(graph.vertices), len(graph.edges))
        self.pending.append((graph, radius))

    def _observe_zeta(self, idx, args, result):
        self.zeta_terms += args[0]

    def probe_localposet(self):
        """Localize each vertex of the balls traced since the last probe at
        every prime <= radius dividing its determinant, and take both
        neighbour sets there.  No CLI path reaches localposet yet, so this
        probe is its only load; it runs outside any ``main`` span."""
        import m2z.localposet as lp

        embed = self.originals["bigpicture.embed"]
        for graph, radius in self.pending:
            primes = [p for p in range(2, radius + 1) if all(p % q for q in range(2, p))]
            for v in graph.vertices:
                m = embed(v)
                for p in primes:
                    if m.det % p == 0:
                        x = lp.localize(m, p)
                        lp.upward_neighbors(x)
                        lp.downward_neighbors(x)
        self.pending.clear()

    def metrics(self) -> dict[str, float]:
        """Reduce the spans to the per-layer metrics, in one pass."""
        n = len(self.name_id)
        own = self_times(self.start, self.end, self.parent)
        root = roots(self.parent)
        main_id = self._ids["cli.main"]
        ball_id = self._ids["bigpicture.ball"]
        count = [0] * len(self.labels)
        total = [0.0] * len(self.labels)
        selfs = [0.0] * len(self.labels)
        in_ball = [0] * len(self.labels)  # calls made below a ball span
        ball_of = [-1] * n
        for i in range(n):
            nid = self.name_id[i]
            p = self.parent[i]
            ball_of[i] = i if nid == ball_id else (ball_of[p] if p >= 0 else -1)
            if self.name_id[root[i]] != main_id and not self.labels[nid].startswith("localposet."):
                continue  # the localposet probe's own calls into other layers
            count[nid] += 1
            total[nid] += self.end[i] - self.start[i]
            selfs[nid] += own[i]
            if ball_of[i] >= 0 and nid != ball_id:
                in_ball[nid] += 1

        def get(table, name):
            return table[self._ids[name]] if name in self._ids else 0

        ms = lambda table, name: 1000.0 * get(table, name)  # noqa: E731
        ball_ms = {True: 0.0, False: 0.0}
        for idx, (origin, _, _) in self.balls.items():
            ball_ms[origin] += self.end[idx] - self.start[idx]
        vertices = sum(v for _, v, _ in self.balls.values())
        edges = sum(e for _, _, e in self.balls.values())
        out = {
            "cli.main.calls": get(count, "cli.main"),
            "cli.self_ms": ms(selfs, "cli.main"),
            "cli.parse_ms": sum(ms(total, name) for name in PARSERS),
        }
        for fn in ("hnf", "hyper_distance", "divides"):
            out[f"matrices.{fn}.calls"] = get(count, f"matrices.{fn}")
        for fn in ("hnf", "hyper_distance", "meet", "quotient", "divides", "classes_with_det"):
            out[f"matrices.{fn}.self_ms"] = ms(selfs, f"matrices.{fn}")
        out["matrices.classes_with_det.items"] = self.items
        out.update(
            {
                "bigpicture.ball.calls": get(count, "bigpicture.ball"),
                "bigpicture.ball.origin_ms": 1000.0 * ball_ms[True],
                "bigpicture.ball.offcentre_ms": 1000.0 * ball_ms[False],
                "bigpicture.ball.self_ms": ms(selfs, "bigpicture.ball"),
                "bigpicture.ball.vertices": vertices,
                "bigpicture.ball.edges": edges,
                "bigpicture.ball.accept_ratio": vertices / max(get(in_ball, "matrices.hyper_distance"), 1),
                "bigpicture.ball.hnf_per_vertex": get(in_ball, "matrices.hnf") / max(vertices, 1),
                "bigpicture.export_ms": ms(total, "bigpicture.export_json") + ms(total, "bigpicture.export_dot"),
                "bigpicture.embed.calls": get(count, "bigpicture.embed"),
                "bigpicture.delta_direct_ms": ms(total, "bigpicture.delta_direct"),
            }
        )
        for fn in ("primes_up_to", "is_prime", "factor"):
            out[f"primes.{fn}.calls"] = get(count, f"primes.{fn}")
            out[f"primes.{fn}_ms"] = ms(total, f"primes.{fn}")
        out["primes.primes_up_to.max_n"] = self.max_sieve
        for fn in ZETA:
            out[f"zeta.{fn}_ms"] = ms(total, f"zeta.{fn}")
        out["zeta.terms"] = self.zeta_terms
        out["supernatural.equiv_decide.calls"] = get(count, "supernatural.equiv_decide")
        for fn in ("equiv_decide", "moebius_apply", "ext_membership", "goormaghtigh_search"):
            out[f"supernatural.{fn}_ms"] = ms(total, f"supernatural.{fn}")
        out["localposet.localize_ms"] = ms(total, "localposet.localize")
        out["localposet.neighbors_ms"] = ms(total, "localposet.upward_neighbors") + ms(
            total, "localposet.downward_neighbors"
        )
        out["localposet.neighbors.calls"] = get(count, "localposet.upward_neighbors") + get(
            count, "localposet.downward_neighbors"
        )
        out["trace.spans"] = n
        return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import metrics (ms) from ``python -X importtime -c "import m2z.cli"``.

    Lines read ``import time: <self us> | <cumulative us> | <indent><module>``
    with two spaces of indent per nesting level.  The statement's own imports
    are the top-level m2z entries; everything not m2z inside their subtrees
    is standard library (or other third-party code) that m2z pulls in.
    """
    out = {"import.m2z.cli_ms": 0.0, "import.stdlib_ms": 0.0}
    subtree: list[tuple[str, int]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        self_us, cumulative_us, field = line[len("import time:") :].split("|", 2)
        name = field.strip()
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        if name.startswith("m2z."):
            out[f"import.{name}.self_ms"] = int(self_us) / 1000.0
        subtree.append((name, int(self_us)))
        if depth == 0:
            if name == "m2z" or name.startswith("m2z."):
                out["import.m2z.cli_ms"] += int(cumulative_us) / 1000.0
                out["import.stdlib_ms"] += sum(us for mod, us in subtree if mod.split(".")[0] != "m2z") / 1000.0
            subtree = []
    return out


def _replay(request: dict) -> dict:
    sys.path.insert(0, request["src"])
    sys.path.insert(0, request["bench"])
    from workloads import Call, check, matches_golden

    tracer = Tracer() if request["trace"] else None
    if tracer:
        tracer.install()
    import m2z.cli

    golden = request["golden"]
    wall = 0.0
    failed = 0
    for i, item in enumerate(request["calls"]):
        call = Call.from_json(item)
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.call_id = i
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = m2z.cli.main(list(call.argv))
        wall += perf_counter() - t0
        stdout = out.getvalue().encode()
        failed += not (check(call, code, stdout, err.getvalue().encode()) and matches_golden(golden, call, code, stdout))
        if tracer:
            tracer.probe_localposet()
    result = {"wall_s": wall, "attempted": len(request["calls"]), "failed": failed}
    if tracer:
        result["metrics"] = tracer.metrics()
    return result


if __name__ == "__main__":
    print(json.dumps(_replay(json.load(sys.stdin))))
