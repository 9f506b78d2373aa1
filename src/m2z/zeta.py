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
x = y.  That is isqrt(N) slice assignments instead of N ln N loop steps, made
on one segment of SEGMENT positions at a time, so only one segment's ints exist.

The formulas loop over odd n only, on a sieve of the odd primes: sigma and psi
are multiplicative, so one slice per power 2^a <= N fills f(2^a * j) = f(2^a) *
f(j), j odd, with sigma(2^a) = 2^(a+1) - 1 and psi(2^a) = 3 * 2^(a-1).

Each table is one array('q') of machine words, not N int objects: up to
MAX_ZETA_TERMS every coefficient is at most sigma(n) < 5n, far inside 64 bits.
The public functions copy it to CoefficientTable's tuple; the CLI writes the
arrays of the private builders (``_sigma_table``, ``_classes_table``, ...).
"""

from __future__ import annotations

from array import array
from itertools import islice, repeat
from math import gcd, isqrt
from operator import add
from sys import byteorder

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


# At 3,000,000 terms ``m2z zeta --mode both`` peaks at 62 MB RSS for M and for
# P, in JSON and in CSV (31 MB at 10^6); it read 313 MB with tables of int
# objects.  The limit was set when JSON peaked at 445 MB there, near the 450 MB
# that MAX_BALL_VERTICES was then sized for.
MAX_ZETA_TERMS = 3_000_000

# Positions per segment of the enumeration pass.  count_classes_by_det(10^6),
# best of 3 in two sweeps on a 2-CPU machine, took 0.53-0.70 s from 2^13 to
# 2^16, 0.74-0.77 s at 2^12 and 0.65-0.83 s at 2^17; 2^14 had the lowest
# median of 3 in both sweeps.
SEGMENT = 1 << 14


def _check_terms(n: int):
    """Refuse a table of fewer than one term (ValueError) or of more than
    MAX_ZETA_TERMS (MemoryError), before anything is allocated."""
    if n < 1:
        raise ValueError(f"need at least one term, got {n}")
    if n > MAX_ZETA_TERMS:
        raise MemoryError(f"{n} terms is over the limit of {MAX_ZETA_TERMS}")


def _smallest_prime_factors(n: int) -> array:
    """spf[k] = the smallest prime factor of the odd composite j = 2k + 1 <= n;
    0 for the odd primes and 1."""
    spf = array("i", [0]) * ((n + 1) // 2)
    # descending, so the smallest prime dividing j is the last to write spf[k]
    for p in reversed(primes_up_to(isqrt(n))[1:]):
        spf[p * p // 2 :: p] = array("i", [p]) * len(range(p * p // 2, len(spf), p))
    return spf


def _fill_twos(coeffs: array, f) -> None:
    """Fill the even entries of the multiplicative table ``coeffs`` from its odd
    ones: coeffs[2^a * j] = f(a) * coeffs[j] for odd j, one slice per 2^a <= n
    and per SEGMENT odd j.

    Each slice is multiplied as one integer whose 64-bit lanes are its entries:
    they are not negative and each product fits in its lane, so no carry
    crosses a lane, and no entry becomes an int object."""
    n = len(coeffs) - 1
    for a in range(1, n.bit_length()):
        top = (n >> a) + 1
        for j in range(1, top, 2 * SEGMENT):
            k = min(j + 2 * SEGMENT, top)
            lanes = int.from_bytes(coeffs[j:k:2], byteorder) * f(a)
            coeffs[j << a : k << a : 2 << a] = array("q", lanes.to_bytes(8 * len(range(j, k, 2)), byteorder))


def _sigma_table(n_terms: int) -> array:
    _check_terms(n_terms)
    spf = _smallest_prime_factors(n_terms)
    coeffs = array("q", [0]) * (n_terms + 1)  # 64 bits hold sigma(n) < 5n, up to MAX_ZETA_TERMS
    coeffs[1] = 1
    for n, p in zip(range(3, n_terms + 1, 2), islice(spf, 1, None)):
        if not p:  # n is prime
            coeffs[n] = n + 1
        elif (m := n // p) % p:
            coeffs[n] = coeffs[m] * (p + 1)
        else:  # sigma(p^k) = (p + 1) * sigma(p^(k-1)) - p * sigma(p^(k-2))
            coeffs[n] = coeffs[m] * (p + 1) - p * coeffs[m // p]
    del spf  # so the fill's chunks never add to the sieve's memory
    _fill_twos(coeffs, lambda a: (2 << a) - 1)
    return coeffs


def _psi_table(n_terms: int) -> array:
    _check_terms(n_terms)
    spf = _smallest_prime_factors(n_terms)
    coeffs = array("q", [0]) * (n_terms + 1)  # 64 bits hold sigma(n) < 5n, up to MAX_ZETA_TERMS
    coeffs[1] = 1
    for n, p in zip(range(3, n_terms + 1, 2), islice(spf, 1, None)):
        if not p:  # n is prime
            coeffs[n] = n + 1
        else:
            m = n // p
            coeffs[n] = coeffs[m] * p if m % p == 0 else coeffs[m] * (p + 1)
    del spf  # so the fill's chunks never add to the sieve's memory
    _fill_twos(coeffs, lambda a: 3 << (a - 1))
    return coeffs


def sigma_coeffs(n_terms: int) -> CoefficientTable:
    """sigma(n) = sum of divisors, multiplicatively from a smallest-prime-factor
    sieve; coefficients of zeta(s)zeta(s-1)."""
    return CoefficientTable(FULL_MONOID, tuple(_sigma_table(n_terms)))


def psi_coeffs(n_terms: int) -> CoefficientTable:
    """psi(n) = n * prod_{p|n} (1 + 1/p), exactly, multiplicatively from a
    smallest-prime-factor sieve; coefficients of zeta(s)zeta(s-1)/zeta(2s)."""
    return CoefficientTable(BIG_PICTURE, tuple(_psi_table(n_terms)))


def _pair_pass(n_terms: int, squares, pairs) -> array:
    """The symmetric pass (see the module docstring), a segment [lo, hi) =
    [k * SEGMENT, (k + 1) * SEGMENT) at a time: it starts as the pairs {1, y},
    n + 1 at n; each x = 2 .. isqrt(hi - 1) adds squares[x] at x*x, and
    pairs(x, ys, old) replaces the old entries at x*y for the y > x in ys."""
    coeffs = array("q", [0]) * (n_terms + 1)  # 64 bits hold sigma(n) < 5n, up to MAX_ZETA_TERMS
    for lo in range(0, n_terms + 1, SEGMENT):
        hi = min(lo + SEGMENT, n_terms + 1)
        segment = list(range(lo + 1, hi + 1))
        for x in range(2, isqrt(hi - 1) + 1):
            if x * x >= lo:
                segment[x * x - lo] += squares[x]
            ys = range(max(x + 1, -(-lo // x)), (hi - 1) // x + 1)
            k = x * ys.start - lo
            segment[k::x] = pairs(x, ys, segment[k::x])
        coeffs[lo:hi] = array("q", segment)
    coeffs[:2] = array("q", [0, 1])  # c(1) is the pair {1, 1} alone
    return coeffs


def _classes_table(n_terms: int) -> array:
    _check_terms(n_terms)

    def pairs(x, ys, old):
        return map(add, old, range(x + ys.start, x + ys.stop))

    return _pair_pass(n_terms, range(isqrt(n_terms) + 1), pairs)


def _primitive_table(n_terms: int) -> array:
    _check_terms(n_terms)
    s = isqrt(n_terms)
    units = [0] + [list(map(gcd, repeat(g), range(g))).count(1) for g in range(1, s + 1)]

    def pairs(x, ys, old):
        return [c + (x + y) // g * units[g] for c, y, g in zip(old, ys, map(gcd, repeat(x), ys))]

    return _pair_pass(n_terms, units, pairs)


def count_classes_by_det(n_terms: int) -> CoefficientTable:
    """Number of classes of each determinant, by enumerating the canonical
    triples (a, d, b): a*d = n and 0 <= b < d, so the pair (a, d) adds d.

    One pass over the unordered pairs {x, y} (see the module docstring): the
    pairs {1, y} start the table at y + 1 (1 at n = 1), then each
    x = 2 .. isqrt(N) adds x at x*x and x + y at x*y for y = x + 1 .. N // x.
    """
    return CoefficientTable(FULL_MONOID, tuple(_classes_table(n_terms)))


def count_primitive_by_det(n_terms: int) -> CoefficientTable:
    """Number of primitive classes (coprime entries) of each determinant, by
    enumerating the canonical representatives and checking their content.

    The content of (a, b; 0, d) is gcd(g, b) with g = gcd(a, d).  It depends
    on b mod g only, and g | d, so [0, d) holds d/g copies of units[g], the
    count of b in [0, g) coprime to g, found by enumerating b.  g^2 | ad <= N,
    so only g <= isqrt(N) occurs.  One pass as in count_classes_by_det: a
    pair {x, y}, x < y, adds (x + y) // g * units[g], the square {x, x} units[x].
    """
    return CoefficientTable(BIG_PICTURE, tuple(_primitive_table(n_terms)))


def _axpb_table(n_terms: int) -> array:
    _check_terms(n_terms)
    return array("q", [0]) + array("q", [1]) * n_terms


def axpb_count(n_terms: int) -> CoefficientTable:
    """One class per determinant: the representatives are diag(n, 1)."""
    return CoefficientTable(AX_PLUS_B, tuple(_axpb_table(n_terms)))


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
