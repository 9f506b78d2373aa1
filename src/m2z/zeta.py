"""Exact Dirichlet coefficients for the three counting series of the monoid.

Counting classes by determinant gives sigma(n) (sum of divisors); counting
primitive classes gives the Dedekind psi function n * prod_{p|n} (1 + 1/p);
the ax+b submonoid has exactly one class per determinant.  Each count is
available twice: as a sieve formula and as an honest enumeration over
canonical representatives, so the two routes check each other coefficient by
coefficient.  Everything is an exact integer; no analytic values anywhere.

The enumerations visit the pairs (a, d) with ad <= N by Dirichlet's hyperbola
split, s = isqrt(N): the pairs with d <= s, one slice coeffs[d::d] per d,
then the pairs with d > s, which have a <= N // (s + 1), one slice per a.
The two passes are disjoint and cover every pair once, so each coefficient is
still a sum over the canonical representatives of its determinant, in about
2s slice assignments instead of N ln N steps of a Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import gcd, isqrt
from operator import add

from .errors import LengthMismatch
from .primes import primes_up_to

__all__ = [
    "FULL_MONOID",
    "BIG_PICTURE",
    "AX_PLUS_B",
    "CoefficientTable",
    "sigma_coeffs",
    "psi_coeffs",
    "count_classes_by_det",
    "count_primitive_by_det",
    "axpb_count",
    "square_indicator_coeffs",
    "dirichlet_convolve",
]

FULL_MONOID = "FullMonoid"
BIG_PICTURE = "BigPicture"
AX_PLUS_B = "AxPlusB"


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficients c(1..N) of a Dirichlet series; coeffs[0] is unused (0)."""

    which: str
    coeffs: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1

    def value(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n = {n} outside 1..{self.n_max}")
        return self.coeffs[n]


def _check_terms(n: int):
    if n < 1:
        raise ValueError(f"need at least one term, got {n}")


def _smallest_prime_factors(n: int) -> list[int]:
    """spf[j] = the smallest prime factor of the composite j <= n; 0 for the
    primes, 0 and 1."""
    spf = [0] * (n + 1)
    # descending, so the smallest prime dividing j is the last to write spf[j]
    for p in reversed(primes_up_to(isqrt(n))):
        spf[p * p :: p] = [p] * len(range(p * p, n + 1, p))
    return spf


def sigma_coeffs(n_terms: int) -> CoefficientTable:
    """sigma(n) = sum of divisors, multiplicatively from a smallest-prime-factor
    sieve; coefficients of zeta(s)zeta(s-1)."""
    _check_terms(n_terms)
    spf = _smallest_prime_factors(n_terms)
    coeffs = [0] * (n_terms + 1)
    coeffs[1] = 1
    for n in range(2, n_terms + 1):
        p = spf[n] or n
        m = n // p
        if m % p:
            coeffs[n] = coeffs[m] * (p + 1)
        else:  # sigma(p^k) = (p + 1) * sigma(p^(k-1)) - p * sigma(p^(k-2))
            coeffs[n] = coeffs[m] * (p + 1) - p * coeffs[m // p]
    return CoefficientTable(FULL_MONOID, tuple(coeffs))


def psi_coeffs(n_terms: int) -> CoefficientTable:
    """psi(n) = n * prod_{p|n} (1 + 1/p), exactly, multiplicatively from a
    smallest-prime-factor sieve; coefficients of zeta(s)zeta(s-1)/zeta(2s)."""
    _check_terms(n_terms)
    spf = _smallest_prime_factors(n_terms)
    coeffs = [0] * (n_terms + 1)
    coeffs[1] = 1
    for n in range(2, n_terms + 1):
        p = spf[n] or n
        m = n // p
        coeffs[n] = coeffs[m] * p if m % p == 0 else coeffs[m] * (p + 1)
    return CoefficientTable(BIG_PICTURE, tuple(coeffs))


def count_classes_by_det(n_terms: int) -> CoefficientTable:
    """Number of classes of each determinant, by enumerating the canonical
    triples (a, d, b): a*d = n and 0 <= b < d, so the pair (a, d) adds d.

    Two passes over the pairs (see the module docstring), s = isqrt(N): each
    d <= s adds d at every multiple of d, then each a <= N // (s + 1) adds d
    at a*d for d = s + 1 .. N // a.
    """
    _check_terms(n_terms)
    s = isqrt(n_terms)
    coeffs = [0] * (n_terms + 1)
    for d in range(1, s + 1):
        coeffs[d::d] = [x + d for x in coeffs[d::d]]
    for a in range(1, n_terms // (s + 1) + 1):
        coeffs[a * (s + 1) :: a] = map(add, coeffs[a * (s + 1) :: a], range(s + 1, n_terms // a + 1))
    return CoefficientTable(FULL_MONOID, tuple(coeffs))


def count_primitive_by_det(n_terms: int) -> CoefficientTable:
    """Number of primitive classes (coprime entries) of each determinant, by
    enumerating the canonical representatives and checking their content.

    The content of (a, b; 0, d) is gcd(g, b) with g = gcd(a, d).  It depends
    on b mod g only, and g | d, so [0, d) holds d/g copies of units[g], the
    count of b in [0, g) coprime to g, found by enumerating b.  g^2 | ad <= N,
    so only g <= isqrt(N) occurs.  The pairs (a, d) are visited in the same
    two passes as in count_classes_by_det.
    """
    _check_terms(n_terms)
    s = isqrt(n_terms)
    units = [0] + [list(map(gcd, repeat(g), range(g))).count(1) for g in range(1, s + 1)]
    coeffs = [0] * (n_terms + 1)
    for d in range(1, s + 1):
        gs = map(gcd, range(1, n_terms // d + 1), repeat(d))
        coeffs[d::d] = [x + d // g * units[g] for x, g in zip(coeffs[d::d], gs)]
    for a in range(1, n_terms // (s + 1) + 1):
        ds = range(s + 1, n_terms // a + 1)
        tail = zip(coeffs[a * (s + 1) :: a], ds, map(gcd, repeat(a), ds))
        coeffs[a * (s + 1) :: a] = [x + d // g * units[g] for x, d, g in tail]
    return CoefficientTable(BIG_PICTURE, tuple(coeffs))


def axpb_count(n_terms: int) -> CoefficientTable:
    """One class per determinant: the representatives are diag(n, 1)."""
    _check_terms(n_terms)
    return CoefficientTable(AX_PLUS_B, tuple([0] + [1] * n_terms))


def square_indicator_coeffs(n_terms: int) -> CoefficientTable:
    """1 at perfect squares, else 0: the coefficients of zeta(2s)."""
    _check_terms(n_terms)
    coeffs = [0] * (n_terms + 1)
    for i in range(1, isqrt(n_terms) + 1):
        coeffs[i * i] = 1
    return CoefficientTable("SquareIndicator", tuple(coeffs))


def dirichlet_convolve(x: CoefficientTable, y: CoefficientTable) -> CoefficientTable:
    """(x * y)(n) = sum over d | n of x(d) * y(n/d)."""
    if x.n_max != y.n_max:
        raise LengthMismatch(f"tables have {x.n_max} and {y.n_max} terms")
    n = x.n_max
    coeffs = [0] * (n + 1)
    for d in range(1, n + 1):
        xd = x.coeffs[d]
        if xd == 0:
            continue
        for m in range(d, n + 1, d):
            coeffs[m] += xd * y.coeffs[m // d]
    return CoefficientTable(f"{x.which}*{y.which}", tuple(coeffs))
