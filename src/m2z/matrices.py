"""Exact arithmetic on nonsingular 2x2 integer matrices and their classes.

A *class* is an orbit under left multiplication by GL2(Z).  Every orbit of a
nonsingular integer matrix contains exactly one upper-triangular
representative

    [[a, b],
     [0, d]]       with  a >= 1,  d >= 1,  0 <= b < d,

and :class:`MatrixClass` stores that representative, so class equality is
plain field equality.  On top of the canonical form this module provides the
divisibility order (x <= y when y = m*x for an integer matrix m), its meet
and join, the level/niveau invariants, the unique scalar-times-primitive
decomposition, the multiplicative hyper-distance, and the determinant-twisted
conjugation automorphisms.  hnf, meet and join are closed forms: Bezout on
the first column, and the Chinese remainder theorem for join.

All values are immutable, all operations are pure functions on unbounded
integers; the module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Mapping
from math import gcd, lcm

from .errors import NotDivisible, NotUnimodular, SingularMatrix
from .primes import is_prime, valuation
from .record import Frozen

__all__ = [
    "IntMatrix2",
    "MatrixClass",
    "CharacterSpec",
    "hnf",
    "divides",
    "quotient",
    "meet",
    "join",
    "level",
    "niveau",
    "primitive_decompose",
    "hyper_distance",
    "apply_automorphism",
    "classes_with_det",
    "parse_matrix",
]


class IntMatrix2(Frozen):
    """A 2x2 integer matrix (a, b; c, d); every operation builds ``type(self)``."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        self._set(a, b, c, d)

    @classmethod
    def identity(cls) -> "IntMatrix2":
        return cls(1, 0, 0, 1)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def adjugate(self) -> "IntMatrix2":
        return type(self)(self.d, -self.b, -self.c, self.a)

    def scale(self, k: int) -> "IntMatrix2":
        return type(self)(k * self.a, k * self.b, k * self.c, k * self.d)

    def __matmul__(self, other: "IntMatrix2") -> "IntMatrix2":
        return type(self)(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))

    def __str__(self) -> str:
        return f"{self.a},{self.b};{self.c},{self.d}"


class MatrixClass(Frozen):
    """Canonical representative [[a, b], [0, d]] of a left-GL2(Z) class."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int, d: int):
        if a < 1 or d < 1:
            raise ValueError(f"diagonal must be positive, got a={a}, d={d}")
        if not 0 <= b < d:
            raise ValueError(f"need 0 <= b < d, got b={b}, d={d}")
        self._set(a, b, d)

    @property
    def det(self) -> int:
        return self.a * self.d

    @property
    def content(self) -> int:
        """gcd of the entries (the largest scalar dividing the class)."""
        return gcd(self.a, self.b, self.d)

    @property
    def is_primitive(self) -> bool:
        return self.content == 1

    def to_matrix(self) -> IntMatrix2:
        return IntMatrix2(self.a, self.b, 0, self.d)

    def __str__(self) -> str:
        return f"{self.a},{self.b};0,{self.d}"


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, x, y) with x*a + y*b == g and g >= 0
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def hnf(m: IntMatrix2) -> MatrixClass:
    """The canonical class representative of a nonsingular integer matrix;
    SingularMatrix is raised when det(m) = 0.

    Bezout on the first column: with g = gcd(a, c) = s*a + t*c, the unimodular
    row operation (s, t; -c/g, a/g) gives (g, s*b + t*d; 0, det/g); a positive
    second row and b reduced mod D = |det|/g give (g, (s*b + t*d) mod D; 0, D).
    """
    if (det := m.det()) == 0:
        raise SingularMatrix(f"det({m}) = 0")
    g, s, t = _xgcd(m.a, m.c)
    d = abs(det) // g
    return MatrixClass(g, (s * m.b + t * m.d) % d, d)


def divides(x: MatrixClass, y: MatrixClass) -> bool:
    """True iff y = m*x for some integer matrix m (iff y*x^-1 is integral)."""
    if y.a % x.a or y.d % x.d:
        return False
    return (x.a * y.b - y.a * x.b) % (x.a * x.d) == 0


def quotient(x: MatrixClass, y: MatrixClass) -> IntMatrix2:
    """The unique m with m * rep(x) = rep(y); det(m) = det(y)/det(x).

    Returned as the exact matrix product y*x^-1 cleared to integers, not
    re-canonicalized, so determinant bookkeeping stays exact.
    """
    if not divides(x, y):
        raise NotDivisible(f"{x} does not divide {y}")
    return IntMatrix2(
        y.a // x.a,
        (x.a * y.b - y.a * x.b) // (x.a * x.d),
        0,
        y.d // x.d,
    )


def meet(x: MatrixClass, y: MatrixClass) -> MatrixClass:
    """Greatest lower bound: the class of the row-lattice sum L_x + L_y.

    It is spanned by (a_x, b_x), (a_y, b_y), (0, d_x) and (0, d_y).  With
    g = gcd(a_x, a_y) = s*a_x + t*a_y, the first two fold as in ``hnf`` into
    (g, s*b_x + t*b_y) and (0, e) for e = (a_x*b_y - a_y*b_x)/g, so the sum
    is (g, (s*b_x + t*b_y) mod d; 0, d) with d = gcd(d_x, d_y, e).
    """
    g, s, t = _xgcd(x.a, y.a)
    d = gcd(x.d, y.d, (x.a * y.b - y.a * x.b) // g)
    return MatrixClass(g, (s * x.b + t * y.b) % d, d)


def join(x: MatrixClass, y: MatrixClass) -> MatrixClass:
    """Least upper bound: the class of the row-lattice intersection.

    (u, v) lies in L_x iff a_x | u and v = (u/a_x)*b_x (mod d_x).  So u in
    the intersection is k*A for A = lcm(a_x, a_y), and v must solve
    v = k*b'_x (mod d_x) and v = k*b'_y (mod d_y), where b'_x = (A/a_x)*b_x
    and b'_y = (A/a_y)*b_y.  By the Chinese remainder theorem some v does iff
    g = gcd(d_x, d_y) divides k*(b'_x - b'_y), i.e. iff t divides k for
    t = g / gcd(g, b'_x - b'_y).  For k = t the v form one class b mod
    d = lcm(d_x, d_y), and j*b serves k = j*t: the intersection is (t*A, b; 0, d).
    """
    a = lcm(x.a, y.a)
    bx, by = a // x.a * x.b, a // y.a * y.b
    g = gcd(x.d, y.d)
    t = g // gcd(g, bx - by)
    d = x.d // g * y.d
    b = t * bx + x.d * (t * (by - bx) // g * pow(x.d // g, -1, y.d // g))  # g divides t*(by - bx)
    return MatrixClass(t * a, b % d, d)


def level(m: MatrixClass, p: int) -> int:
    """lambda_p(m): the p-adic valuation of the gcd of the entries."""
    return valuation(m.content, p)


def niveau(m: MatrixClass, p: int) -> int:
    """nu_p(m) = v_p(det m) - 2*lambda_p(m); always >= 0."""
    return valuation(m.det, p) - 2 * level(m, p)


def primitive_decompose(m: MatrixClass) -> tuple[int, MatrixClass]:
    """The unique factorization m = n * q with q primitive (coprime entries)."""
    n = m.content
    return n, MatrixClass(m.a // n, m.b // n, m.d // n)


def hyper_distance(x: MatrixClass, y: MatrixClass) -> int:
    """det(x') * det(y') where x = x'*w, y = y'*w and w = meet(x, y).

    Symmetric, equals 1 iff x = y, and its log is the weighted path metric on
    the class graph whose edges are prime determinant jumps.
    """
    return x.det * y.det // meet(x, y).det ** 2


class CharacterSpec(Frozen):
    """A character chi: Q^x -> {1, -1}, determined by chi(-1) and chi(p).

    Primes absent from ``sign_at_prime`` (a new empty dict by default) have
    chi(p) = +1.
    """

    __slots__ = ("sign_at_minus_one", "sign_at_prime")

    def __init__(self, sign_at_minus_one: int = 1, sign_at_prime: Mapping[int, int] | None = None):
        if sign_at_prime is None:
            sign_at_prime = {}
        if sign_at_minus_one not in (1, -1):
            raise ValueError("chi(-1) must be +1 or -1")
        for p, s in sign_at_prime.items():
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if s not in (1, -1):
                raise ValueError(f"chi({p}) must be +1 or -1")
        self._set(sign_at_minus_one, sign_at_prime)

    def value(self, r: int | Fraction) -> int:
        if r == 0:
            raise ValueError("characters of Q^x are undefined at 0")
        sign = self.sign_at_minus_one if r < 0 else 1
        for p, s in self.sign_at_prime.items():
            if s == -1 and valuation(r, p) % 2:
                sign = -sign
        return sign


def apply_automorphism(m: IntMatrix2, chi: CharacterSpec, g: IntMatrix2) -> IntMatrix2:
    """chi(det m) * g * m * g^-1 for unimodular g; integral, det-preserving."""
    dg = g.det()
    if dg not in (1, -1):
        raise NotUnimodular(f"det({g}) = {dg}")
    if m.det() == 0:
        raise SingularMatrix(f"det({m}) = 0")
    g_inv = g.adjugate().scale(dg)  # adj(g)/det(g) with det(g)^2 = 1
    return (g @ m @ g_inv).scale(chi.value(m.det()))


def classes_with_det(n: int) -> Iterator[MatrixClass]:
    """All classes of determinant n, in (a, b) order."""
    if n < 1:
        raise ValueError(f"determinant must be positive, got {n}")
    for a in range(1, n + 1):
        if n % a:
            continue
        d = n // a
        for b in range(d):
            yield MatrixClass(a, b, d)


# The number grammar of every literal: ASCII digits after an optional sign,
# and in a rational "/" before digits not all zero.  A literal's pattern puts
# one \s* where whitespace may stand, never two in a row, so a failed match
# stays linear; no decimal point, exponent, "_" or non-ASCII digit reaches int().
_DIGITS = "[0-9]+"
_INTEGER = f"([+-]?{_DIGITS})"
_RATIONAL = rf"([+-]?{_DIGITS}(?:\s*/\s*0*[1-9][0-9]*)?)"
_MATRIX = r"\s*{0}\s*,\s*{0}\s*;\s*{0}\s*,\s*{0}\s*"  # "a,b;c,d"; .format() puts in the entry


def _numbers(pattern: str, text: str, form: str) -> list:
    """The numbers ``pattern`` captures in all of ``text`` (a Fraction where
    written with "/"); ValueError names ``form`` when it does not match."""
    if (m := re.fullmatch(pattern, text)) is None:
        raise ValueError(f"expected {form}, got {text!r}")
    if "/" not in text:
        return [int(g) for g in m.groups()]
    from fractions import Fraction
    return [Fraction(int(n), int(d)) if d else int(n) for n, _, d in (g.partition("/") for g in m.groups())]


def parse_matrix(text: str) -> IntMatrix2:
    """Parse the literal "a,b;c,d" (integers, semicolon rows)."""
    return IntMatrix2(*_numbers(_MATRIX.format(_INTEGER), text, '"a,b;c,d" with integer entries'))
