"""Conway's big picture as the primitive subgraph of the class monoid.

Vertices are pairs (M, g/h) with M a positive rational and g/h in Q/Z; each
vertex embeds as the unique class with coprime entries

    [[M*N, (g/h)*N],
     [0,   N]]          N minimal with both M*N and (g/h)*N integral,

and the hyper-distance pulled back through the embedding agrees with the
classical one computed from the alpha-matrices (M, g/h; 0, 1).  Two vertices
are joined by an edge when their distance is prime.  The picture is
homogeneous, so a ball around any vertex is the ball around the origin (the
primitive classes of bounded determinant) moved by the embedded centre.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import NotPrimitive
from .matrices import MatrixClass, classes_with_det, hnf, hyper_distance, meet, primitive_decompose
from .primes import factor

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
    """Vertices plus the prime-weight edges among them (i < j indices)."""

    vertices: tuple[BigPictureVertex, ...]
    edges: tuple[tuple[int, int, int], ...]


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


def _sort_key(m: MatrixClass) -> tuple[int, int, int, int]:
    return (m.det, m.a, m.b, m.d)


def ball(center: BigPictureVertex, radius: int) -> PictureGraph:
    """All vertices within hyper-distance ``radius`` of ``center``, plus the
    prime-weight edges among them.

    Around the origin the ball is the set of primitive classes of det <=
    radius, since delta(1, v) = det embed(v).  Each of its non-origin
    vertices v has, for every prime p | det v, exactly one neighbour below it
    at distance p, namely meet(v, (det v / p) * I): the quotient Z^2 / L_v of
    a primitive class is cyclic, so it has one subgroup of each order.  Right
    multiplication by embed(center), followed by taking the primitive part,
    is an isometry of the picture that sends the origin to the centre, so it
    carries this ball and its edges onto the requested one.  Vertex order:
    ascending determinant of the embedding, then lexicographic on the
    representative.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    origin_ball = [m for n in range(1, radius + 1) for m in classes_with_det(n) if m.is_primitive]
    index = {m: i for i, m in enumerate(origin_ball)}
    origin_edges = [
        (index[meet(m, MatrixClass(m.det // p, 0, m.det // p))], i, p)
        for i, m in enumerate(origin_ball)
        for p in factor(m.det)
    ]

    g = embed(center).to_matrix()
    moved = [primitive_decompose(hnf(m.to_matrix() @ g))[1] for m in origin_ball]
    order = sorted(range(len(moved)), key=lambda i: _sort_key(moved[i]))
    rank = {old: new for new, old in enumerate(order)}
    edges = sorted((min(rank[i], rank[j]), max(rank[i], rank[j]), p) for i, j, p in origin_edges)
    return PictureGraph(tuple(unembed(moved[i]) for i in order), tuple(edges))


def export_dot(g: PictureGraph) -> str:
    """Deterministic undirected DOT text; byte-identical for equal inputs."""
    lines = ["graph picture {"]
    for i, v in enumerate(g.vertices):
        lines.append(f'  n{i} [label="M={v.M} r={v.g}/{v.h}", det={embed(v).det}];')
    for i, j, p in g.edges:
        lines.append(f"  n{i} -- n{j} [label={p}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: PictureGraph) -> str:
    """JSON with vertices [{M, r, det}] (fractions as "num/den") and edges."""
    payload = {
        "vertices": [
            {
                "M": f"{v.M.numerator}/{v.M.denominator}",
                "r": f"{v.g}/{v.h}",
                "det": embed(v).det,
            }
            for v in g.vertices
        ],
        "edges": [list(e) for e in g.edges],
    }
    return json.dumps(payload)


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
