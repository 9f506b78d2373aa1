"""Conway's big picture as the primitive subgraph of the class monoid.

Vertices are pairs (M, g/h) with M a positive rational and g/h in Q/Z; each
vertex embeds as the unique class with coprime entries

    [[M*N, (g/h)*N],
     [0,   N]]          N minimal with both M*N and (g/h)*N integral,

and the hyper-distance pulled back through the embedding agrees with the
classical one computed from the alpha-matrices (M, g/h; 0, 1).  Two vertices
are joined by an edge when their distance is prime.  A vertex has one
neighbour below it at each prime dividing its determinant, in closed form, so
the ball around the origin (the primitive classes of bounded determinant) is
generated with its edges; a ball around any other vertex is that ball moved
by the embedded centre, since the picture is homogeneous.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, isqrt, lcm, prod
from typing import Iterator, TextIO

from .errors import NotPrimitive
from .matrices import MatrixClass, hnf, hyper_distance, primitive_decompose
from .primes import factor
from .textout import write_chunks

__all__ = [
    "BigPictureVertex",
    "PictureGraph",
    "embed",
    "unembed",
    "delta",
    "delta_direct",
    "bp_leq",
    "ball",
    "export_dot",
    "export_json",
    "parse_vertex",
]


@dataclass(frozen=True)
class BigPictureVertex:
    """A vertex (M, g/h): M > 0 rational, g/h the canonical rep in [0, 1)."""

    M: Fraction
    g: int
    h: int

    def __post_init__(self):
        object.__setattr__(self, "M", Fraction(self.M))
        if self.M <= 0:
            raise ValueError(f"M must be positive, got {self.M}")
        if self.h < 1 or not 0 <= self.g < self.h or gcd(self.g, self.h) != 1:
            raise ValueError(f"need 0 <= g < h with gcd(g, h) = 1, got {self.g}/{self.h}")

    @classmethod
    def of(cls, M, r=0) -> "BigPictureVertex":
        """Build from M and any rational r, canonicalizing r mod 1."""
        r = Fraction(r) % 1
        return cls(Fraction(M), r.numerator, r.denominator)

    @property
    def r(self) -> Fraction:
        return Fraction(self.g, self.h)

    def __str__(self) -> str:
        return f"M={self.M},r={self.g}/{self.h}"


@dataclass(frozen=True)
class PictureGraph:
    """Primitive classes plus the prime-weight edges among them (i < j)."""

    classes: tuple[MatrixClass, ...]
    edges: tuple[tuple[int, int, int], ...]

    @cached_property
    def vertices(self) -> tuple[BigPictureVertex, ...]:
        return tuple(unembed(m) for m in self.classes)


def embed(x: BigPictureVertex) -> MatrixClass:
    """The primitive class of (M*N, (g/h)*N; 0, N), N = lcm(den(M), h)."""
    n = lcm(x.M.denominator, x.h)
    a = x.M.numerator * (n // x.M.denominator)
    b = x.g * (n // x.h)
    return MatrixClass(a, b, n)


def unembed(m: MatrixClass) -> BigPictureVertex:
    """The vertex (a/d, b/d mod 1) of a primitive class; inverse of embed."""
    if not m.is_primitive:
        raise NotPrimitive(f"{m} has content {m.content}")
    r = Fraction(m.b, m.d)
    return BigPictureVertex(Fraction(m.a, m.d), r.numerator, r.denominator)


def delta(x: BigPictureVertex, y: BigPictureVertex) -> int:
    """Hyper-distance via the class embedding."""
    return hyper_distance(embed(x), embed(y))


def delta_direct(x: BigPictureVertex, y: BigPictureVertex) -> int:
    """Hyper-distance via alpha-matrices: det of the minimal integral scaling
    of alpha_x * alpha_y^-1, the positive scalar route."""
    # alpha_x * alpha_y^-1 = [[Mx/My, (rx*My - Mx*ry)/My], [0, 1]]
    c11 = x.M / y.M
    c12 = (x.r * y.M - x.M * y.r) / y.M
    entries = [c for c in (c11, c12, Fraction(1)) if c != 0]
    q = Fraction(
        lcm(*(c.denominator for c in entries)),
        gcd(*(c.numerator for c in entries)),
    )
    det = q * q * c11
    if det.denominator != 1 or det <= 0:
        raise ArithmeticError(f"the alpha route gave {det}, not a positive integer")
    return int(det)


_ONE = BigPictureVertex(Fraction(1), 0, 1)


def bp_leq(x: BigPictureVertex, y: BigPictureVertex) -> bool:
    """The picture order: delta(1, y) = delta(x, y) * delta(1, x)."""
    return delta(_ONE, y) == delta(x, y) * delta(_ONE, x)


# At radius 725 (399,490 vertices) ``m2z ball`` peaked at 155 MB RSS around the
# origin and 302 MB around a centre of det ~2^123, in JSON and in DOT.
# Moved classes carry the centre's digits: a radius-510 ball around a centre of
# det ~2^761 took 2.4 KB per vertex against 0.9 KB around the origin, about
# 2 bytes per bit of det embed(centre).  So a vertex weighs one more per
# BALL_VERTEX_BITS bits; 128 keeps the heaviest weight-1 ball (det ~2^123,
# 302 MB at radius 725) within about twice the origin's.
MAX_BALL_VERTICES = 400_000
BALL_VERTEX_BITS = 128


def _lower_neighbour(a: int, b: int, d: int, p: int) -> tuple[int, int, int]:
    """meet(v, (det v / p) * I) for the primitive v = (a, b; 0, d), p | ad."""
    if d % p == 0:
        return a, b % (d // p), d // p
    return a // p, b * pow(p, -1, d) % d, d


def ball(center: BigPictureVertex, radius: int) -> PictureGraph:
    """All vertices within hyper-distance ``radius`` of ``center``, plus the
    prime-weight edges among them.

    Around the origin the ball is the primitive classes (a, b; 0, d) with
    ad <= radius, generated in order.  Z^2 / L_v is cyclic for a primitive v,
    so v has one neighbour below it at each p | ad: (a, b mod d/p; 0, d/p) if
    p | d, else (a/p, b * p^-1 mod d; 0, d).  Those are the edges.  The
    origin ball is not moved; for another centre it is moved by the isometry
    v -> primitive part of v * embed(center).  Vertices ascend by determinant
    of the embedding, then lexicographically by representative.

    A neighbour's index is found in closed form, with no per-vertex table.
    The classes with diagonal (a, d) form one block, starting at start[a, d]
    (about R ln R blocks), in which b runs through the b in [0, d) coprime to
    c = gcd(a, d).  So b sits at start[a, d] + rank(b), where rank(b) =
    (b // c) * phi(c) + #{r < b mod c : gcd(r, c) = 1}, read from a table
    per c; c^2 | ad, so c <= isqrt(R).  When c = 1, rank(b) = b.

    A ball of radius R has sum_{n <= R} psi(n) vertices, each weighing
    1 + bits(det embed(center)) // BALL_VERTEX_BITS; above a total weight of
    MAX_BALL_VERTICES = 400,000 (radius 726 and up for a centre of det below
    2^128) MemoryError is raised before anything is built.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    limit = MAX_BALL_VERTICES // (1 + embed(center).det.bit_length() // BALL_VERTEX_BITS)
    too_large = MemoryError(f"a ball of radius {radius} has over {limit} vertices")
    if radius * (radius + 1) // 2 > limit:  # psi(n) >= n: a huge radius is never factored
        raise too_large
    primes = [list(factor(n)) for n in range(1, radius + 1)]
    if sum(n // prod(ps) * prod(p + 1 for p in ps) for n, ps in enumerate(primes, 1)) > limit:
        raise too_large
    classes, start, edges = [], {}, []
    # units_below[c][s] = #{r < s : gcd(r, c) = 1}, so units_below[c][c] = phi(c)
    units_below = [
        list(accumulate((gcd(r, c) == 1 for r in range(c)), initial=0)) for c in range(isqrt(radius) + 1)
    ]

    def index(a: int, b: int, d: int) -> int:
        c = gcd(a, d)
        if c == 1:
            return start[a, d] + b
        below = units_below[c]
        return start[a, d] + b // c * below[c] + below[b % c]

    for n, ps in enumerate(primes, 1):
        for a in (a for a in range(1, n + 1) if n % a == 0):
            d = n // a
            c = gcd(a, d)
            start[a, d] = len(classes)
            for b in (b for b in range(d) if c == 1 or gcd(c, b) == 1):
                i = len(classes)
                classes.append(MatrixClass(a, b, d))
                edges += [(index(*_lower_neighbour(a, b, d, p)), i, p) for p in ps]
    if center != _ONE:
        g = embed(center).to_matrix()
        moved = [primitive_decompose(hnf(m.to_matrix() @ g))[1] for m in classes]
        order = sorted(range(len(moved)), key=lambda i: (moved[i].det, moved[i].a, moved[i].b, moved[i].d))
        rank = [0] * len(order)
        for new, old in enumerate(order):
            rank[old] = new
        classes = [moved[i] for i in order]
        edges = [(min(rank[i], rank[j]), max(rank[i], rank[j]), p) for i, j, p in edges]
    edges.sort()
    return PictureGraph(tuple(classes), tuple(edges))


def _ratio(num: int, den: int) -> str:
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def _dot_parts(g: PictureGraph) -> Iterator[str]:
    yield "graph picture {\n"
    for i, m in enumerate(g.classes):
        yield f'  n{i} [label="M={_ratio(m.a, m.d).removesuffix("/1")} r={_ratio(m.b, m.d)}", det={m.det}];\n'
    for i, j, p in g.edges:
        yield f"  n{i} -- n{j} [label={p}];\n"
    yield "}\n"


def _json_parts(g: PictureGraph) -> Iterator[str]:
    yield '{"vertices": ['
    for i, m in enumerate(g.classes):
        yield f'{", " if i else ""}{{"M": "{_ratio(m.a, m.d)}", "r": "{_ratio(m.b, m.d)}", "det": {m.det}}}'
    yield '], "edges": ['
    for k, (i, j, p) in enumerate(g.edges):
        yield f'{", " if k else ""}[{i}, {j}, {p}]'
    yield "]}"


def export_dot(g: PictureGraph, out: TextIO | None = None) -> str | None:
    """Deterministic undirected DOT text; byte-identical for equal inputs.

    Returned as one string, or, given a text stream ``out``, written to it in
    chunks of textout.CHUNK_PARTS lines (the same text, never held whole) and
    None returned.
    """
    if out is None:
        return "".join(_dot_parts(g))
    write_chunks(out, _dot_parts(g))
    return None


def export_json(g: PictureGraph, out: TextIO | None = None) -> str | None:
    """JSON with vertices [{M, r, det}] (fractions as "num/den") and edges,
    with no trailing newline.

    Returned as one string, or, given a text stream ``out``, written to it in
    chunks of textout.CHUNK_PARTS vertices or edges (the same text, never held
    whole) and None returned.
    """
    if out is None:
        return "".join(_json_parts(g))
    write_chunks(out, _json_parts(g))
    return None


def parse_vertex(text: str) -> BigPictureVertex:
    """Parse the literal "M=num/den,r=g/h" (plain integers allowed)."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'M=...,r=...' in {text!r}")
    fields = {}
    for part in parts:
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()
    if set(fields) != {"M", "r"}:
        raise ValueError(f"expected fields M and r in {text!r}")
    return BigPictureVertex.of(Fraction(fields["M"]), Fraction(fields["r"]))
