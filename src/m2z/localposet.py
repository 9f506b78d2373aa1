"""Per-prime structure of matrix classes over the p-adic integers.

For a fixed prime p the classes of nonzero determinant are triples
(p^k, z; 0, p^l) with integers k, l >= 0 and 0 <= z < p^l.  They form a
graded poset: moving up one edge multiplies the determinant by p, and the
local census sorts every class into one of four types by whether its level
and niveau vanish.  Infinite exponents (factors p^inf) are supernatural
numbers and live in ``m2z.supernatural``.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum

from .errors import PrimeMismatch
from .matrices import MatrixClass
from .primes import is_prime, valuation
from .record import Frozen

__all__ = [
    "LocalClass",
    "LocalType",
    "localize",
    "local_leq",
    "upward_neighbors",
    "downward_neighbors",
    "classify",
    "classes_with_det_valuation",
    "local_class_count",
]


class LocalType(Enum):
    """The four census cells: (level zero?, niveau zero?)."""

    ZERO_ZERO = "ZeroZero"
    ZERO_POS = "ZeroPos"
    POS_ZERO = "PosZero"
    POS_POS = "PosPos"


class LocalClass(Frozen):
    """The class of (p^k, z; 0, p^l) over the p-adic integers, 0 <= z < p^l."""

    __slots__ = ("p", "k", "l", "z")

    def __init__(self, p: int, k: int, l: int, z: int = 0):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not all(type(e) is int and e >= 0 for e in (k, l)):
            raise ValueError(f"exponents must be nonnegative integers, got k={k!r}, l={l!r}")
        if type(z) is not int or not 0 <= z < p**l:
            raise ValueError(f"need 0 <= z < p^l = {p**l}, got z={z}")
        self._set(p, k, l, z)

    def det_valuation(self) -> int:
        return self.k + self.l

    def level(self) -> int:
        """Largest t with p^t dividing all entries."""
        if self.z == 0:
            return min(self.k, self.l)
        return min(self.k, self.l, valuation(self.z, self.p))

    def niveau(self) -> int:
        return self.k + self.l - 2 * self.level()

    def __str__(self) -> str:
        return f"({self.p}^{self.k}, {self.z}; 0, {self.p}^{self.l})"


def localize(m: MatrixClass, p: int) -> LocalClass:
    """The image of a global class in the p-component.

    With representative [[a, b], [0, d]]: k = v_p(a), l = v_p(d), and z is
    b divided by the unit part of a, reduced mod p^l.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    k = valuation(m.a, p)
    l = valuation(m.d, p)
    if l == 0:
        z = 0
    else:
        mod = p**l
        unit = m.a // p**k
        z = (m.b * pow(unit, -1, mod)) % mod
    return LocalClass(p, k, l, z)


def local_leq(x: LocalClass, y: LocalClass) -> bool:
    """True iff y = m*x for an integral p-adic matrix m.

    Equivalent to x.k <= y.k, x.l <= y.l and y.z == p^(y.k-x.k) * x.z
    mod p^(x.l): dividing out the representative of x leaves exactly the
    congruence at x's own precision.
    """
    if x.p != y.p:
        raise PrimeMismatch(f"primes {x.p} and {y.p} differ")
    if x.k > y.k or x.l > y.l:
        return False
    return (y.z - x.p ** (y.k - x.k) * x.z) % x.p**x.l == 0


def upward_neighbors(x: LocalClass) -> list[LocalClass]:
    """All y >= x with v_p(det y) = v_p(det x) + 1, sorted by (k, l, z).

    There are always exactly p + 1: the shape (k, l+1) contributes the p
    lifts z + i*p^l, the shape (k+1, l) the single class with z' = p*z mod p^l.
    """
    p, k, l = x.p, x.k, x.l
    out = [LocalClass(p, k, l + 1, x.z + i * p**l) for i in range(p)]
    out.append(LocalClass(p, k + 1, l, (p * x.z) % p**l))
    return out


def downward_neighbors(x: LocalClass) -> list[LocalClass]:
    """All y <= x with v_p(det x) = v_p(det y) + 1, sorted by (k, l, z)."""
    p, k, l = x.p, x.k, x.l
    out = []
    if k >= 1:
        if l == 0:
            out.append(LocalClass(p, k - 1, 0))
        elif x.z % p == 0:
            # solutions of p*z' == z mod p^l in [0, p^l)
            out.extend(LocalClass(p, k - 1, l, x.z // p + t * p ** (l - 1)) for t in range(p))
    if l >= 1:
        out.append(LocalClass(p, k, l - 1, x.z % p ** (l - 1)))
    return out


def classify(x: LocalClass) -> LocalType:
    """The census cell of x."""
    lam_pos = x.level() > 0
    nu_pos = x.niveau() > 0
    if lam_pos:
        return LocalType.POS_POS if nu_pos else LocalType.POS_ZERO
    return LocalType.ZERO_POS if nu_pos else LocalType.ZERO_ZERO


def classes_with_det_valuation(p: int, n: int) -> Iterator[LocalClass]:
    """All classes with v_p(det) = n, in (k, l, z) order."""
    if n < 0:
        raise ValueError("valuation must be nonnegative")
    for k in range(n + 1):
        l = n - k
        for z in range(p**l):
            yield LocalClass(p, k, l, z)


def local_class_count(p: int, n: int) -> int:
    """Number of classes with v_p(det) = n: (p^(n+1) - 1)/(p - 1)."""
    return (p ** (n + 1) - 1) // (p - 1)
