from fractions import Fraction

import pytest

from m2z.primes import (
    _BASES,
    _require_primes,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    factor,
    is_prime,
    primes_up_to,
    valuation,
)

# n < 3 317 044 064 679 887 385 961 981 goes to Miller-Rabin with the bases
# 2..41; this n is that bound, passes all thirteen bases and is composite
MR_BOUND_PSEUDOPRIME = 3317044064679887385961981


def test_is_prime_small():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_primes_up_to_matches_is_prime():
    assert primes_up_to(10**5) == [n for n in range(10**5 + 1) if is_prime(n)]
    assert primes_up_to(1) == []


@pytest.mark.parametrize(
    "n",
    [
        2047,  # strong pseudoprime to base 2
        1373653,  # bases 2, 3
        25326001,  # 2..5
        3215031751,  # 2..7
        2152302898747,  # 2..11
        3474749660383,  # 2..13
        341550071728321,  # 2..17
        3825123056546413051,  # 2..23
        318665857834031151167461,  # 2..37
    ],
)
def test_strong_pseudoprimes_rejected(n):
    assert not is_prime(n)


def test_bases_up_to_41_are_fooled_at_the_bound_and_bpsw_is_not():
    n = MR_BOUND_PSEUDOPRIME
    assert n == 1287836182261 * 2575672364521
    assert all(_strong_probable_prime(n, a) for a in _BASES)
    assert not is_prime(n)


def test_strong_lucas_pseudoprimes_below_10_5():
    # the odd composites below 10^5 that pass the strong Lucas test with
    # Selfridge's parameters (OEIS A217255); every odd prime passes it
    primes = set(primes_up_to(10**5))
    passing = [n for n in range(3, 10**5, 2) if _strong_lucas_probable_prime(n)]
    assert [n for n in passing if n not in primes] == [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439,
    ]
    assert primes - {2} <= set(passing)


@pytest.mark.parametrize("e", [89, 107, 127, 521, 607])
def test_mersenne_primes_above_the_bound(e):
    n = 2**e - 1
    assert n > MR_BOUND_PSEUDOPRIME
    assert is_prime(n)
    assert not is_prime(n * (2**61 - 1))
    assert not is_prime(n * n)


def test_require_primes_names_the_first_argument_that_is_not_prime():
    assert _require_primes() is None and _require_primes(2, 2**61 - 1, 2) is None
    with pytest.raises(ValueError, match="^4 is not prime$"):
        _require_primes(3, 4, MR_BOUND_PSEUDOPRIME)
    with pytest.raises(ValueError, match=r"^3\.0 is not prime$"):  # is_prime(3.0) holds; the helper takes ints only
        _require_primes(2, 3.0)


def test_factor():
    assert factor(1) == {}
    assert factor(360) == {2: 3, 3: 2, 5: 1}
    with pytest.raises(ValueError):
        factor(0)
    # cofactors above the trial-division bound go to rho
    assert factor(1000000000000000003 * 1000003 * 101**3) == {101: 3, 1000003: 1, 1000000000000000003: 1}
    assert factor(1009**2 * 1013) == {1009: 2, 1013: 1}
    assert factor(1000003**3 * 2**5) == {2: 5, 1000003: 3}
    assert factor((10**9 + 7) * (10**9 + 9) * (2**61 - 1)) == {10**9 + 7: 1, 10**9 + 9: 1, 2**61 - 1: 1}


def test_factor_reassembles():
    for n in range(1, 500):
        product = 1
        for p, e in factor(n).items():
            assert is_prime(p)
            product *= p**e
        assert product == n


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(-48, 2) == 4
    assert valuation(Fraction(3, 8), 2) == -3
    assert valuation(Fraction(9, 5), 3) == 2
    assert valuation(3**100000, 3) == 100000
    assert valuation(Fraction(5, 2**1000), 2) == -1000
    with pytest.raises(ValueError):
        valuation(0, 2)
    # against dividing out one factor at a time
    for p in (2, 3, 4, 6, 97):
        for e in range(70):
            for unit in (1, 5, -7, 11 * 13):
                x, v = unit * p**e, 0
                while x % p == 0:
                    x //= p
                    v += 1
                assert valuation(unit * p**e, p) == v


@pytest.mark.parametrize("p", [1, 0, -1, -2])
def test_valuation_needs_a_base_of_at_least_two(p):
    # 1 and -1 divide every integer any number of times, and 0 divides none
    with pytest.raises(ValueError):
        valuation(12, p)
