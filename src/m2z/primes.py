"""Exact number-theory helpers: primality, sieves, factoring, valuations.

Literals can carry primes of any size, so primality and factoring are
sublinear.  ``is_prime`` is deterministic Miller-Rabin with the prime bases
2..41, proven correct below 3 317 044 064 679 887 385 961 981 (Sorenson and
Webster 2015), and Baillie-PSW from there up: a strong base-2 test plus a
strong Lucas test, which no known composite passes.  ``factor`` trial-divides
by the odd numbers up to 1000, which settles every n below 10^6 as plain
trial division would, and splits what is left with Pollard-Brent rho (Brent
1980), whose time grows with the square root of the second-largest prime
factor.
"""

from __future__ import annotations

from itertools import count
from math import gcd, isqrt

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981  # the bases above decide every n below it
_TRIAL_BOUND = 1000  # factor() trial-divides by odd numbers up to here, then uses rho


def _strong_probable_prime(n: int, a: int) -> bool:
    # the strong Fermat test of the odd n > a to base a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    # the Jacobi symbol (a/n) for odd n > 0
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    # the strong Lucas test of the odd n > 2 with Selfridge's parameters:
    # the first D of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4
    if isqrt(n) ** 2 == n:
        return False  # no such D exists for a square
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:
        x %= n
        return (x if x % 2 == 0 else x + n) // 2

    # U_k, V_k and Q^k for k = the bits of d read from the top
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Whether n is prime: proven below the Miller-Rabin bound, BPSW above."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    if n < _BASES[-1] ** 2:
        return True
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a) for a in _BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _require_primes(*ns: int) -> None:
    """Refuse ns unless all are prime ints: the ValueError names the first that is not, a float such as 3.0 too."""
    for n in ns:
        if type(n) is not int or not is_prime(n):
            raise ValueError(f"{n} is not prime")


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending (simple sieve)."""
    if n < 2:
        return []
    mark = bytearray([1]) * (n + 1)
    mark[0] = mark[1] = 0
    i = 2
    while i * i <= n:
        if mark[i]:
            mark[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
        i += 1
    return [i for i in range(2, n + 1) if mark[i]]


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n, by Pollard-Brent rho."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _prime_factors(n: int) -> list[int]:
    # the prime factors of n > 1, with multiplicity, in no particular order
    if is_prime(n):
        return [n]
    d = _rho(n)
    return _prime_factors(d) + _prime_factors(n // d)


def factor(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {p: exponent}, primes ascending."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    while n % 2 == 0:
        out[2] = out.get(2, 0) + 1
        n //= 2
    p = 3
    while p * p <= n:
        if p > _TRIAL_BOUND:
            # no prime factor up to the bound is left: rho splits the rest
            for q in sorted(_prime_factors(n)):
                out[q] = out.get(q, 0) + 1
            return out
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    if n > 1:
        out[n] = 1
    return out


def valuation(x: int | Fraction, p: int) -> int:
    """p-adic valuation of a nonzero integer or fraction (may be negative).

    Divides by p, p^2, p^4, ... while they divide, then by the same powers
    in reverse where they still do: O(log v) divisions, not v.
    """
    if p < 2:
        raise ValueError(f"valuation needs a base p >= 2, got {p}")
    if x == 0:
        raise ValueError("valuation of zero is infinite")
    if not isinstance(x, int):  # a Fraction
        return valuation(x.numerator, p) - valuation(x.denominator, p)
    x = abs(x)
    powers = [p]  # p, p^2, p^4, ...
    while x % powers[-1] == 0:
        x //= powers[-1]
        powers.append(powers[-1] ** 2)
    v = 2 ** (len(powers) - 1) - 1  # the exponents 1 + 2 + 4 + ... divided out so far
    for i in range(len(powers) - 2, -1, -1):  # what is left has v_p(x) < 2^(i+1)
        if x % powers[i] == 0:
            x //= powers[i]
            v += 2**i
    return v
