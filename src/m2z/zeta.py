"""Exact Dirichlet coefficients for the three counting series of the monoid.

Counting classes by determinant gives sigma(n) (sum of divisors); counting
primitive classes gives the Dedekind psi function n * prod_{p|n} (1 + 1/p);
the ax+b submonoid has exactly one class per determinant.  Each count is
available twice: as a sieve formula and as an honest enumeration over
canonical representatives, so the two routes check each other coefficient by
coefficient.  Everything is an exact integer; no analytic values anywhere.

The enumerations visit each pair (a, d) with ad <= N once, by Dirichlet's
hyperbola method in its symmetric form: (a, d) and (d, a) have the same
product and gcd, so for each x <= isqrt(N) one slice coeffs[x*(x+1)::x] adds
both orders of the pairs {x, y}, x < y <= N // x, and coeffs[x*x] the square
x = y.  That is isqrt(N) slice assignments instead of N ln N loop steps.

The formulas loop over odd n only, on a sieve of the odd primes: sigma and psi
are multiplicative, so one slice per power 2^a <= N fills f(2^a * j) = f(2^a) *
f(j), j odd, with sigma(2^a) = 2^(a+1) - 1 and psi(2^a) = 3 * 2^(a-1).
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, isqrt
from operator import add, mul

from .errors import LengthMismatch
from .primes import primes_up_to
from .record import Frozen

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


class CoefficientTable(Frozen):
    """Coefficients c(1..N) of a Dirichlet series; coeffs[0] is unused (0)."""

    __slots__ = ("which", "coeffs")

    def __init__(self, which: str, coeffs: tuple[int, ...]):
        self._set(which, coeffs)

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1

    def value(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n = {n} outside 1..{self.n_max}")
        return self.coeffs[n]


# At 3,000,000 terms ``m2z zeta --mode both`` peaks at 313 MB RSS for M and for
# P, in JSON and in CSV (114 MB at 10^6).  The limit was set when JSON peaked at
# 445 MB there, near the 450 MB that MAX_BALL_VERTICES was then sized for.
MAX_ZETA_TERMS = 3_000_000


def _check_terms(n: int):
    """Refuse a table of fewer than one term (ValueError) or of more than
    MAX_ZETA_TERMS (MemoryError), before anything is allocated."""
    if n < 1:
        raise ValueError(f"need at least one term, got {n}")
    if n > MAX_ZETA_TERMS:
        raise MemoryError(f"{n} terms is over the limit of {MAX_ZETA_TERMS}")


def _smallest_prime_factors(n: int) -> list[int]:
    """spf[j] = the smallest prime factor of the odd composite j <= n; 0 for
    the odd primes, 1 and every even j."""
    spf = [0] * (n + 1)
    # descending, so the smallest prime dividing j is the last to write spf[j]
    for p in reversed(primes_up_to(isqrt(n))[1:]):
        spf[p * p :: 2 * p] = [p] * len(range(p * p, n + 1, 2 * p))
    return spf


def _fill_twos(coeffs: list[int], f) -> None:
    """Fill the even entries of the multiplicative table ``coeffs`` from its odd
    ones, one slice per 2^a <= n: coeffs[2^a * j] = f(a) * coeffs[j] for odd j."""
    n = len(coeffs) - 1
    for a in range(1, n.bit_length()):
        coeffs[1 << a :: 2 << a] = map(mul, coeffs[1 : (n >> a) + 1 : 2], repeat(f(a)))


def sigma_coeffs(n_terms: int) -> CoefficientTable:
    """sigma(n) = sum of divisors, multiplicatively from a smallest-prime-factor
    sieve; coefficients of zeta(s)zeta(s-1)."""
    _check_terms(n_terms)
    spf = _smallest_prime_factors(n_terms)
    coeffs = [0] * (n_terms + 1)
    coeffs[1] = 1
    for n in range(3, n_terms + 1, 2):
        p = spf[n] or n
        m = n // p
        if m % p:
            coeffs[n] = coeffs[m] * (p + 1)
        else:  # sigma(p^k) = (p + 1) * sigma(p^(k-1)) - p * sigma(p^(k-2))
            coeffs[n] = coeffs[m] * (p + 1) - p * coeffs[m // p]
    del spf  # before the tuple copy, so the sieve and the copy never coexist
    _fill_twos(coeffs, lambda a: (2 << a) - 1)
    return CoefficientTable(FULL_MONOID, tuple(coeffs))


def psi_coeffs(n_terms: int) -> CoefficientTable:
    """psi(n) = n * prod_{p|n} (1 + 1/p), exactly, multiplicatively from a
    smallest-prime-factor sieve; coefficients of zeta(s)zeta(s-1)/zeta(2s)."""
    _check_terms(n_terms)
    spf = _smallest_prime_factors(n_terms)
    coeffs = [0] * (n_terms + 1)
    coeffs[1] = 1
    for n in range(3, n_terms + 1, 2):
        p = spf[n] or n
        m = n // p
        coeffs[n] = coeffs[m] * p if m % p == 0 else coeffs[m] * (p + 1)
    del spf
    _fill_twos(coeffs, lambda a: 3 << (a - 1))
    return CoefficientTable(BIG_PICTURE, tuple(coeffs))


def count_classes_by_det(n_terms: int) -> CoefficientTable:
    """Number of classes of each determinant, by enumerating the canonical
    triples (a, d, b): a*d = n and 0 <= b < d, so the pair (a, d) adds d.

    One pass over the unordered pairs {x, y} (see the module docstring): the
    pairs {1, y} start the table at y + 1 (1 at n = 1), then each
    x = 2 .. isqrt(N) adds x at x*x and x + y at x*y for y = x + 1 .. N // x.
    """
    _check_terms(n_terms)
    coeffs = [0, 1, *range(3, n_terms + 2)]
    for x in range(2, isqrt(n_terms) + 1):
        coeffs[x * x] += x
        coeffs[x * (x + 1) :: x] = map(add, coeffs[x * (x + 1) :: x], range(2 * x + 1, x + n_terms // x + 1))
    return CoefficientTable(FULL_MONOID, tuple(coeffs))


def count_primitive_by_det(n_terms: int) -> CoefficientTable:
    """Number of primitive classes (coprime entries) of each determinant, by
    enumerating the canonical representatives and checking their content.

    The content of (a, b; 0, d) is gcd(g, b) with g = gcd(a, d).  It depends
    on b mod g only, and g | d, so [0, d) holds d/g copies of units[g], the
    count of b in [0, g) coprime to g, found by enumerating b.  g^2 | ad <= N,
    so only g <= isqrt(N) occurs.  One pass as in count_classes_by_det: a
    pair {x, y}, x < y, adds (x + y) // g * units[g], the square {x, x} units[x].
    """
    _check_terms(n_terms)
    s = isqrt(n_terms)
    units = [0] + [list(map(gcd, repeat(g), range(g))).count(1) for g in range(1, s + 1)]
    coeffs = [0, 1, *range(3, n_terms + 2)]  # the pairs {1, y}, whose g is 1
    for x in range(2, s + 1):
        coeffs[x * x] += units[x]
        ys = range(x + 1, n_terms // x + 1)
        pairs = zip(coeffs[x * (x + 1) :: x], ys, map(gcd, repeat(x), ys))
        coeffs[x * (x + 1) :: x] = [c + (x + y) // g * units[g] for c, y, g in pairs]
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
