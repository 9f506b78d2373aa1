"""Exact Dirichlet coefficients for the three counting series of the monoid.

Counting classes by determinant gives sigma(n) (sum of divisors); counting
primitive classes gives the Dedekind psi function n * prod_{p|n} (1 + 1/p);
the ax+b submonoid has exactly one class per determinant.  Each count is
available twice: as a sieve formula and as an honest enumeration over
canonical representatives, so the two routes check each other coefficient by
coefficient.  Everything is an exact integer; no analytic values anywhere.

Every table is built as an ascending stream of finished segments of SEGMENT
positions (the first holds the unused entry 0), so a caller can write one
segment while the next is computed.

The class count visits each pair (a, d) with ad <= N once, by Dirichlet's
hyperbola method in its symmetric form: (a, d) and (d, a) have the same
product, so for each x <= isqrt(N) one slice coeffs[x*(x+1)::x] adds both
orders of the pairs {x, y}, x < y <= N // x, and coeffs[x*x] the square
x = y.  That is isqrt(N) slice assignments per segment instead of N ln N loop
steps; each segment is yielded when its pass is done, so only one segment's
ints exist and no whole table is held.  The primitive count inverts it over
the squares (count_primitive_by_det) and keeps its entries up to N // 4.

The formulas loop over odd n only, on a sieve of the odd primes, a segment at a
time: sigma and psi are multiplicative, so once a segment's odd entries are set
one slice per power 2^a fills its even entries f(2^a * j) = f(2^a) * f(j), j
odd, with sigma(2^a) = 2^(a+1) - 1 and psi(2^a) = 3 * 2^(a-1).  Every j is at
most 2^a * j, so the odd entries a segment needs are already set.  A formula
keeps its whole table, since f(n) reads f(n / p), and yields views of it.

Entries are machine words in array('q'), not int objects: up to MAX_ZETA_TERMS
every coefficient is at most sigma(n) < 5n, far inside 64 bits.  The public
functions copy the stream to CoefficientTable's tuple; the CLI writes the
segments of the private builders (``_sigma_table``, ``_classes_table``, ...).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from itertools import chain
from math import isqrt
from operator import add, sub
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


# At 3,000,000 terms ``m2z zeta --mode both`` peaks at 46 MB RSS for M and 52 MB
# for P (its enumeration keeps M up to N // 4) in CSV, 40 and 44 MB in JSON, and
# ``--mode enumerate`` at 16 and 21 MB; whole tables of machine words read 62 MB
# for both, and int objects 313 MB.  The limit was set when JSON peaked at 445
# MB there, near the 450 MB that MAX_BALL_VERTICES was then sized for.
MAX_ZETA_TERMS = 3_000_000

# Positions per segment of every table: of the enumeration pass, of the
# formulas' even fill, and of what the CLI's forked producer sends.  Best of 3
# in two sweeps on a 2-CPU machine, count_classes_by_det(10^6) took 0.68-0.87 s
# at 2^13 and 2^14, 0.60-0.72 s at 2^15, 0.63-0.85 s at 2^16 and 0.61-0.62 s at
# 2^17; psi_coeffs(10^6) 0.17-0.21 s at 2^15, 0.20-0.26 s at 2^14.  End to end,
# alternated 40 s runs of the benchmark's number_theory workload read 8.96
# calls/s at 2^14, 9.29 at 2^15 (5 pairs) and 8.66 at 2^16 against 9.16 at
# 2^15 (5 pairs): a fork costs a few ms of page faults, which a table of two
# small segments does not win back, and larger segments overlap less.
SEGMENT = 1 << 15


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


def _fill_twos(coeffs: array, lo: int, hi: int, f) -> None:
    """Fill the even entries in [lo, hi) of the multiplicative table ``coeffs``
    from its odd ones: coeffs[2^a * j] = f(a) * coeffs[j] for odd j, one slice
    per 2^a < hi.

    Each slice is multiplied as one integer whose 64-bit lanes are its entries:
    they are not negative and each product fits in its lane, so no carry
    crosses a lane, and no entry becomes an int object."""
    for a in range(1, hi.bit_length()):
        j, k = -(-lo >> a) | 1, ((hi - 1) >> a) + 1  # the odd j with lo <= 2^a * j < hi
        if j < k:
            lanes = int.from_bytes(coeffs[j:k:2], byteorder) * f(a)
            coeffs[j << a : k << a : 2 << a] = array("q", lanes.to_bytes(8 * len(range(j, k, 2)), byteorder))


def _multiplicative_table(n_terms: int, odd_entries, f_two) -> Iterator[memoryview]:
    """The table f(0..n_terms) of a multiplicative f, a segment of SEGMENT
    positions at a time, each a view of one array('q') that later segments
    never write.  odd_entries(coeffs, pairs) sets f(n) from the entries below n
    for the pairs (n, spf[n // 2]) of the segment's odd n > 1; then _fill_twos
    fills its even entries, f(2^a) = f_two(a)."""
    _check_terms(n_terms)
    spf = _smallest_prime_factors(n_terms)
    coeffs = array("q", [0]) * (n_terms + 1)  # 64 bits hold sigma(n) < 5n, up to MAX_ZETA_TERMS
    coeffs[1] = 1
    view = memoryview(coeffs)
    for lo in range(0, n_terms + 1, SEGMENT):
        hi = min(lo + SEGMENT, n_terms + 1)
        odd = range(max(lo | 1, 3), hi, 2)
        odd_entries(coeffs, zip(odd, spf[odd.start // 2 : hi // 2]))
        _fill_twos(coeffs, lo, hi, f_two)
        yield view[lo:hi]


def _sigma_odd(coeffs: array, pairs) -> None:
    for n, p in pairs:
        if not p:  # n is prime
            coeffs[n] = n + 1
        elif (m := n // p) % p:
            coeffs[n] = coeffs[m] * (p + 1)
        else:  # sigma(p^k) = (p + 1) * sigma(p^(k-1)) - p * sigma(p^(k-2))
            coeffs[n] = coeffs[m] * (p + 1) - p * coeffs[m // p]


def _psi_odd(coeffs: array, pairs) -> None:
    for n, p in pairs:
        if not p:  # n is prime
            coeffs[n] = n + 1
        else:
            m = n // p
            coeffs[n] = coeffs[m] * p if m % p == 0 else coeffs[m] * (p + 1)


def _sigma_table(n_terms: int) -> Iterator[memoryview]:
    return _multiplicative_table(n_terms, _sigma_odd, lambda a: (2 << a) - 1)


def _psi_table(n_terms: int) -> Iterator[memoryview]:
    return _multiplicative_table(n_terms, _psi_odd, lambda a: 3 << (a - 1))


def sigma_coeffs(n_terms: int) -> CoefficientTable:
    """sigma(n) = sum of divisors, multiplicatively from a smallest-prime-factor
    sieve; coefficients of zeta(s)zeta(s-1)."""
    return CoefficientTable(FULL_MONOID, tuple(chain.from_iterable(_sigma_table(n_terms))))


def psi_coeffs(n_terms: int) -> CoefficientTable:
    """psi(n) = n * prod_{p|n} (1 + 1/p), exactly, multiplicatively from a
    smallest-prime-factor sieve; coefficients of zeta(s)zeta(s-1)/zeta(2s)."""
    return CoefficientTable(BIG_PICTURE, tuple(chain.from_iterable(_psi_table(n_terms))))


def _classes_table(n_terms: int) -> Iterator[array]:
    """The symmetric pass (see the module docstring), yielding each segment
    [lo, hi) = [k * SEGMENT, (k + 1) * SEGMENT) as it is done: it starts as
    the pairs {1, y}, n + 1 at n; each x = 2 .. isqrt(hi - 1) adds x at x*x
    and x + y at x*y for the y > x with x*y in the segment."""
    _check_terms(n_terms)
    for lo in range(0, n_terms + 1, SEGMENT):
        hi = min(lo + SEGMENT, n_terms + 1)
        segment = list(range(lo + 1, hi + 1))
        for x in range(2, isqrt(hi - 1) + 1):
            if x * x >= lo:
                segment[x * x - lo] += x
            ys = range(max(x + 1, -(-lo // x)), (hi - 1) // x + 1)
            k = x * ys.start - lo
            segment[k::x] = map(add, segment[k::x], range(x + ys.start, x + ys.stop))
        if not lo:
            segment[:2] = [0, 1]  # c(1) is the pair {1, 1} alone
        yield array("q", segment)  # 64 bits hold sigma(n) < 5n, up to MAX_ZETA_TERMS


def _primitive_table(n_terms: int) -> Iterator[array]:
    """count_primitive_by_det's inversion on the segments of _classes_table:
    the class counts up to N // 4, the only ones a k >= 2 reads, are kept as
    their segments pass, and each k adds or subtracts one slice of them."""
    _check_terms(n_terms)
    mu = [0, 1] + [0] * (isqrt(n_terms) - 1)
    for k in range(1, len(mu)):
        for m in range(2 * k, len(mu), k):
            mu[m] -= mu[k]
    steps = [(k * k, add if mu[k] > 0 else sub) for k in range(2, len(mu)) if mu[k]]
    kept = array("q", [0]) * (n_terms // 4 + 1)
    for lo, segment in zip(range(0, n_terms + 1, SEGMENT), _classes_table(n_terms)):
        hi = lo + len(segment)
        kept[lo:hi] = segment[: max(len(kept) - lo, 0)]  # empty once lo > N // 4
        for q, step in steps:
            if q >= hi:
                break
            j, stop = max(1, -(-lo // q)), (hi - 1) // q + 1  # the j with lo <= q * j < hi
            segment[q * j - lo :: q] = array("q", map(step, segment[q * j - lo :: q], kept[j:stop]))
        yield segment


def count_classes_by_det(n_terms: int) -> CoefficientTable:
    """Number of classes of each determinant, by enumerating the canonical
    triples (a, d, b): a*d = n and 0 <= b < d, so the pair (a, d) adds d.

    One pass over the unordered pairs {x, y} (see the module docstring): the
    pairs {1, y} start the table at y + 1 (1 at n = 1), then each
    x = 2 .. isqrt(N) adds x at x*x and x + y at x*y for y = x + 1 .. N // x.
    """
    return CoefficientTable(FULL_MONOID, tuple(chain.from_iterable(_classes_table(n_terms))))


def count_primitive_by_det(n_terms: int) -> CoefficientTable:
    """Number of primitive classes (coprime entries) of each determinant, from
    the enumeration of count_classes_by_det.

    A class of det n is k * q for a unique content k and a unique primitive
    class q of det n / k^2 (matrices.primitive_decompose), so M(n) = sum over
    k^2 | n of P(n / k^2), and P(n) = sum over k^2 | n of mu(k) * M(n / k^2):
    each squarefree k = 2 .. isqrt(N) adds or subtracts the class counts
    M(1 .. N // k^2) at k^2, 2k^2, ...  mu is found from sum_{d|k} mu(d) =
    [k = 1], not from the sieve the formulas share.  So a fault in the class
    count shows in both ``zeta --mode both`` checks, not in P's alone.
    """
    return CoefficientTable(BIG_PICTURE, tuple(chain.from_iterable(_primitive_table(n_terms))))


def _axpb_table(n_terms: int) -> Iterator[array]:
    _check_terms(n_terms)
    ones = array("q", [1]) * SEGMENT
    yield (array("q", [0]) + ones)[: min(SEGMENT, n_terms + 1)]
    for lo in range(SEGMENT, n_terms + 1, SEGMENT):
        yield ones[: n_terms + 1 - lo]


def axpb_count(n_terms: int) -> CoefficientTable:
    """One class per determinant: the representatives are diag(n, 1)."""
    return CoefficientTable(AX_PLUS_B, tuple(chain.from_iterable(_axpb_table(n_terms))))


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
