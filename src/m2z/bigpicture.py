"""Conway's big picture as the primitive subgraph of the class monoid.

Vertices are pairs (M, g/h) with M a positive rational and g/h in Q/Z; each
vertex embeds as the unique class with coprime entries

    [[M*N, (g/h)*N],
     [0,   N]]          N minimal with both M*N and (g/h)*N integral,

and the hyper-distance pulled back through the embedding agrees with the
classical one computed from the alpha-matrices (M, g/h; 0, 1).  Two vertices
are joined by an edge when their distance is prime.  A vertex's neighbours
above it at each prime are known in closed form, so the ball around the origin
(the primitive classes of bounded determinant) is streamed vertex by vertex,
then edge by edge.  The picture is homogeneous: right multiplication by the
embedded centre moves the origin ball onto any other ball, and as both are
upper triangular the product of two classes is one gcd away from a class.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property
from io import TextIOBase
from itertools import accumulate, starmap
from math import gcd, isqrt, lcm, prod
from operator import attrgetter

from .errors import NotPrimitive
from .matrices import _RATIONAL, MatrixClass, _numbers, divides, hyper_distance
from .primes import factor, primes_up_to
from .record import Frozen
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
    "ball_stream",
    "export_dot",
    "export_json",
    "parse_vertex",
]
_VERTEX = rf"\s*M\s*=\s*{_RATIONAL}\s*,\s*r\s*=\s*{_RATIONAL}\s*"  # the literal "M=num/den,r=g/h"


class BigPictureVertex(Frozen):
    """A vertex (M, g/h): M > 0 rational, g/h the canonical rep in [0, 1)."""

    __slots__ = ("M", "g", "h")

    def __init__(self, M: Fraction, g: int, h: int):
        from fractions import Fraction
        M = Fraction(M)
        if M <= 0:
            raise ValueError(f"M must be positive, got {M}")
        if h < 1 or not 0 <= g < h or gcd(g, h) != 1:
            raise ValueError(f"need 0 <= g < h with gcd(g, h) = 1, got {g}/{h}")
        self._set(M, g, h)

    @classmethod
    def of(cls, M, r=0) -> "BigPictureVertex":
        """Build from M and any rational r, canonicalizing r mod 1."""
        from fractions import Fraction
        r = Fraction(r) % 1
        return cls(M, r.numerator, r.denominator)

    @property
    def r(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.g, self.h)

    def __str__(self) -> str:
        return f"M={self.M},r={self.g}/{self.h}"


class PictureGraph(Frozen):
    """Primitive classes plus the prime-weight edges among them (i < j)."""

    __slots__ = ("classes", "edges", "__dict__")  # the __dict__ caches ``vertices``

    def __init__(self, classes: tuple[MatrixClass, ...], edges: tuple[tuple[int, int, int], ...]):
        self._set(classes, edges)

    @cached_property
    def vertices(self) -> tuple[BigPictureVertex, ...]:
        return tuple(unembed(m) for m in self.classes)

    def __iter__(self) -> Iterator:  # unpacks as (triples, edges), the pair the exporters read
        return iter((map(attrgetter("a", "b", "d"), self.classes), self.edges))


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
    from fractions import Fraction
    r = Fraction(m.b, m.d)
    return BigPictureVertex(Fraction(m.a, m.d), r.numerator, r.denominator)


def delta(x: BigPictureVertex, y: BigPictureVertex) -> int:
    """Hyper-distance via the class embedding."""
    return hyper_distance(embed(x), embed(y))


def delta_direct(x: BigPictureVertex, y: BigPictureVertex) -> int:
    """Hyper-distance via alpha-matrices, in integers: den(M)*h times
    alpha_v = (M, g/h; 0, 1) is (num(M)*h, g*den(M); 0, den(M)*h)."""
    return _alpha_distance(*((v.M.numerator * v.h, v.g * v.M.denominator, v.M.denominator * v.h) for v in (x, y)))


def _alpha_distance(x: tuple[int, int, int], y: tuple[int, int, int]) -> int:
    """The alpha route, given positive multiples X = (a, b; 0, d) and Y = (A, B; 0, D) of alpha_x and alpha_y:
    X*adj(Y) = (aD, bA - aB; 0, dA) is a positive multiple of alpha_x * alpha_y^-1; its minimal integral scaling
    is that matrix divided by its content c.  c divides every entry, so c^2 divides det X * det Y: the result is
    an integer by construction, and a, d, A, D >= 1 make it positive."""
    (a, b, d), (A, B, D) = x, y
    c = gcd(a * D, b * A - a * B, d * A)
    return a * d * A * D // c**2


def bp_leq(x: BigPictureVertex, y: BigPictureVertex) -> bool:
    """The picture order: delta(1, y) = delta(x, y) * delta(1, x).

    delta(1, v) = det embed(v), as embed(1) is the identity class, and
    delta(x, y) = det embed(x) * det embed(y) / det(w)^2 for the meet w of the
    embeddings.  So the identity says det w = det embed(x); as w divides
    embed(x), that is w = embed(x), i.e. embed(x) divides embed(y).
    """
    return divides(embed(x), embed(y))


# At radius 725 (399,490 vertices) ``m2z ball`` peaked at 16 MB RSS around the
# origin, which is streamed, and at 145 MB around (2, 1; 0, 3) and 164 MB around
# a centre of det just below 2^128, whose moved classes and edges are held, in
# JSON and in DOT.  Moved classes carry the centre's digits, about half a byte
# per bit of det center per vertex (1.8 KB at det ~2^3327), so a vertex weighs
# one more per BALL_VERTEX_BITS bits: the heaviest ball of each weight then
# peaks below the weight-1 one (94 MB at weight 2, 52 MB at 6, 46 MB at 26).
MAX_BALL_VERTICES = 400_000
BALL_VERTEX_BITS = 128


def _upper_neighbours(a: int, b: int, d: int, p: int) -> list[tuple[int, int, int]]:
    """The w above the primitive (a, b; 0, d) at p, in ball order: the primitive
    (a, b + k*d; 0, p*d) for k < p, then (p*a, b*p mod d; 0, d) if p does not
    divide d.  Each has meet(w, (det w / p) * I) = (a, b; 0, d)."""
    lifts = [(a, lift, p * d) for lift in range(b, p * d, d) if gcd(a, lift, p * d) == 1]
    return lifts + [(p * a, b * p % d, d)] if d % p else lifts


def ball_stream(
    center: MatrixClass, radius: int
) -> tuple[int, int, Iterator[tuple[int, int, int]], Iterator[tuple[int, int, int]]]:
    """The ball of ``radius`` around the primitive class ``center``, streamed:
    its numbers of vertices and of edges, then one-pass iterators of its
    classes, as canonical triples (a, b, d) ascending by (det, a, b), and of
    its edges (i, j, p), i < j, ascending.  NotPrimitive is raised for a
    centre with content, then ValueError for a radius below 1, then
    MemoryError if the sum_{n <= R} psi(n) vertices, each weighing
    1 + bits(det center) // BALL_VERTEX_BITS, outweigh MAX_BALL_VERTICES.

    Around the origin the ball is the primitive (a, b; 0, d) with ad <= R,
    and only O(R log R) numbers are held.  Vertex i's edges go to its upper
    neighbours of det <= R (``_upper_neighbours``), prime by prime.  The
    classes with diagonal (a, d) form a block from start[a, d], in which b
    runs through the b in [0, d) coprime to c = gcd(a, d); so b sits at
    start[a, d] + (b // c) * phi(c) + #{r < b mod c : gcd(r, c) = 1}, read
    from a table per c (c^2 | ad, so c <= isqrt(R)).  If gcd(a, p*d) = 1, every
    lift (a, b + k*d; 0, p*d) is primitive and sits at start[a, p*d] + b + k*d.

    Around another centre (A, B; 0, D) each origin class is moved by right
    multiplication, an isometry: (a, b; 0, d)(A, B; 0, D) = (aA, aB + bD; 0, dD)
    is upper triangular, so its class is (aA, (aB + bD) mod dD; 0, dD), divided
    by its content.  The moved classes are sorted, the edges re-ranked and sorted.
    """
    if not center.is_primitive:
        raise NotPrimitive(f"{center} has content {center.content}")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    limit = MAX_BALL_VERTICES // (1 + center.det.bit_length() // BALL_VERTEX_BITS)
    too_large = MemoryError(f"a ball of radius {radius} has over {limit} vertices")
    if radius * (radius + 1) // 2 > limit:  # psi(n) >= n: a huge radius is never factored
        raise too_large
    primes = [list(factor(n)) for n in range(1, radius + 1)]
    psi = [n // prod(ps) * prod(p + 1 for p in ps) for n, ps in enumerate(primes, 1)]
    vertices = sum(psi)
    if vertices > limit:
        raise too_large
    small = primes_up_to(radius)
    # units_below[c][s] = #{r < s : gcd(r, c) = 1}, so units_below[c][c] = phi(c)
    units_below = [
        list(accumulate((gcd(r, c) == 1 for r in range(c)), initial=0)) for c in range(isqrt(radius) + 1)
    ]
    blocks = [(a, n // a) for n in range(1, radius + 1) for a in range(1, n + 1) if n % a == 0]
    sizes = (d // gcd(a, d) * units_below[gcd(a, d)][-1] for a, d in blocks)
    start = dict(zip(blocks, accumulate(sizes, initial=0)))

    def index(a: int, b: int, d: int) -> int:
        c = gcd(a, d)
        if c == 1:
            return start[a, d] + b
        below = units_below[c]
        return start[a, d] + b // c * below[c] + below[b % c]

    def members() -> Iterator[tuple[int, int, int]]:
        return ((a, b, d) for a, d in start for b in range(d) if gcd(a, b, d) == 1)

    def edges() -> Iterator[tuple[int, int, int]]:
        for i, (a, b, d) in enumerate(members()):
            if 2 * a * d > radius:
                return
            for p in small:
                if p * a * d > radius:
                    break
                if gcd(a, p * d) == 1:  # every lift is primitive
                    first = start[a, p * d] + b
                    for j in range(first, first + p * d, d):
                        yield i, j, p
                    if d % p:
                        yield i, index(p * a, b * p % d, d), p
                else:
                    for w in _upper_neighbours(a, b, d, p):
                        yield i, index(*w), p

    degrees = sum(k * len(ps) for k, ps in zip(psi, primes))  # each vertex has one edge down per prime of det
    if center.det == 1:  # the origin
        return vertices, degrees, members(), edges()
    A, B, D = center.a, center.b, center.d
    moved = []
    for a, b, d in members():
        x, y, z = a * A, a * B + b * D, d * D
        c = gcd(x, y, z)
        moved.append((x // c, y % z // c, z // c))
    order = sorted(range(vertices), key=lambda i: (moved[i][0] * moved[i][2], moved[i][0], moved[i][1]))
    classes = list(map(moved.__getitem__, order))
    rank = [0] * vertices
    for new, old in enumerate(order):
        rank[old] = new
    del moved, order  # the edges need only ``rank``: free the rest before sorting them
    moved_edges = sorted((min(rank[i], rank[j]), max(rank[i], rank[j]), p) for i, j, p in edges())
    return vertices, degrees, iter(classes), iter(moved_edges)


def ball(center: BigPictureVertex, radius: int) -> PictureGraph:
    """All vertices within hyper-distance ``radius`` of ``center``, plus the
    prime-weight edges among them, in the order of ``ball_stream(embed(center),
    radius)``, whose size guard raises MemoryError before anything is built
    (radius 726 and up for a centre of det below 2^128)."""
    _, _, triples, edges = ball_stream(embed(center), radius)
    return PictureGraph(tuple(starmap(MatrixClass, triples)), tuple(edges))


def _ratio(num: int, den: int) -> str:
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def _dot_parts(triples: Iterable[tuple[int, int, int]], edges: Iterable[tuple[int, int, int]]) -> Iterator[str]:
    yield "graph picture {\n"
    block = None
    for i, (a, b, d) in enumerate(triples):
        if block != (a, d):  # M = a/d and det = a*d are shared by the (a, d) block: one text each
            block = a, d
            head, tail = f'M={_ratio(a, d).removesuffix("/1")} r=', f'", det={a * d}];\n'
        g = gcd(b, d)
        yield f'  n{i} [label="{head}{b // g}/{d // g}{tail}'
    for i, j, p in edges:
        yield f"  n{i} -- n{j} [label={p}];\n"
    yield "}\n"


def _json_parts(triples: Iterable[tuple[int, int, int]], edges: Iterable[tuple[int, int, int]]) -> Iterator[str]:
    yield '{"vertices": ['
    block = None
    for i, (a, b, d) in enumerate(triples):
        if block != (a, d):
            block = a, d
            head, tail = f'{{"M": "{_ratio(a, d)}", "r": "', f'", "det": {a * d}}}'
        g = gcd(b, d)
        yield f'{", " if i else ""}{head}{b // g}/{d // g}{tail}'
    yield '], "edges": ['
    for k, (i, j, p) in enumerate(edges):
        yield f'{", " if k else ""}[{i}, {j}, {p}]'
    yield "]}"


def export_dot(g: PictureGraph, out: TextIOBase | None = None) -> str | None:
    """Deterministic undirected DOT text; byte-identical for equal inputs.

    ``g`` is a PictureGraph or a pair (triples, edges) of iterables, each read
    once and in order, such as the streams of ``ball_stream``: canonical
    triples (a, b, d) of primitive classes and edges (i, j, p).
    Returned as one string, or, given a text stream ``out``, written to it in
    chunks of textout.CHUNK_PARTS lines (the same text, never held whole) and
    None returned.
    """
    if out is None:
        return "".join(_dot_parts(*g))
    write_chunks(out, _dot_parts(*g))
    return None


def export_json(g: PictureGraph, out: TextIOBase | None = None) -> str | None:
    """JSON with vertices [{M, r, det}] (fractions as "num/den") and edges,
    with no trailing newline.

    ``g`` is a PictureGraph or a pair (triples, edges), read as by ``export_dot``.
    Returned as one string, or, given a text stream ``out``, written to it in
    chunks of textout.CHUNK_PARTS vertices or edges (the same text, never held
    whole) and None returned.
    """
    if out is None:
        return "".join(_json_parts(*g))
    write_chunks(out, _json_parts(*g))
    return None


def parse_vertex(text: str) -> BigPictureVertex:
    """Parse the literal "M=num/den,r=g/h" (plain integers allowed)."""
    return BigPictureVertex.of(*_numbers(_VERTEX, text, '"M=num/den,r=g/h"'))


def _vertex_class(text: str) -> MatrixClass:
    """embed(parse_vertex(text)), but integers M > 0 and r give (M, 0; 0, 1) without a Fraction."""
    M, r = _numbers(_VERTEX, text, '"M=num/den,r=g/h"')
    if type(M) is type(r) is int and M > 0:
        return MatrixClass(M, 0, 1)
    return embed(BigPictureVertex.of(M, r))
