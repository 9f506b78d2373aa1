from array import array
from math import gcd, isqrt, pi

import pytest

from m2z import zeta
from m2z.errors import LengthMismatch
from m2z.matrices import classes_with_det
from m2z.primes import primes_up_to
from m2z.zeta import (
    MAX_ZETA_TERMS,
    SEGMENT,
    CoefficientTable,
    axpb_count,
    count_classes_by_det,
    count_primitive_by_det,
    dirichlet_convolve,
    psi_coeffs,
    sigma_coeffs,
    square_indicator_coeffs,
)


def brute_sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def multiplicative_by_every_n(n_terms, prime_power):
    """The table 1..n_terms of the multiplicative f with f(p^k) =
    prime_power(p, f(p^(k-1)), f(p^(k-2))), by one loop step per n over a
    smallest-prime-factor sieve of every prime: the reference the formulas'
    odd-n loop and slices by powers of 2 must equal."""
    spf = [0] * (n_terms + 1)
    for p in reversed(primes_up_to(isqrt(n_terms))):
        spf[p * p :: p] = [p] * len(range(p * p, n_terms + 1, p))
    coeffs = [0] * (n_terms + 1)
    coeffs[1] = 1
    for n in range(2, n_terms + 1):
        p = spf[n] or n
        m = n // p
        coeffs[n] = coeffs[m] * (p + 1) if m % p else prime_power(p, coeffs[m], coeffs[m // p])
    return coeffs


# f(p^k) from f(p^(k-1)) and f(p^(k-2)), for k >= 2
SIGMA_STEP = lambda p, previous, before: previous * (p + 1) - p * before
PSI_STEP = lambda p, previous, before: previous * p

# every table up to 2^12 terms, the powers of 2 and their neighbours to 2^20,
# and the benchmark's 10^6
ORACLE_SIZES = [
    *range(1, 4097),
    *sorted({n for k in range(1, 21) for n in (2**k - 1, 2**k, 2**k + 1)} - set(range(4097))),
    10**6,
]


class TestFormulas:
    def test_sigma_examples(self):
        t = sigma_coeffs(12)
        assert t.value(1) == 1
        assert t.value(4) == 7
        assert t.value(12) == 28

    def test_sigma_against_divisor_sum(self):
        t = sigma_coeffs(300)
        for n in range(1, 301):
            assert t.value(n) == brute_sigma(n)

    def test_psi_examples(self):
        t = psi_coeffs(12)
        assert t.value(1) == 1
        assert t.value(4) == 6
        assert t.value(12) == 24

    def test_psi_closed_form(self):
        t = psi_coeffs(200)
        for n in range(1, 201):
            value = n
            for p in set(p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))):
                assert value % p == 0
                value += value // p
            assert t.value(n) == value

    @pytest.mark.parametrize("table_fn, step", [(sigma_coeffs, SIGMA_STEP), (psi_coeffs, PSI_STEP)])
    def test_formulas_equal_the_loop_over_every_n(self, table_fn, step):
        oracle = multiplicative_by_every_n(max(ORACLE_SIZES), step)
        for n in ORACLE_SIZES:  # the coefficient of n does not depend on the table's length
            assert table_fn(n).coeffs == tuple(oracle[: n + 1]), n

    def test_axpb_all_ones(self):
        t = axpb_count(100)
        assert all(t.value(n) == 1 for n in range(1, 101))


class TestEnumeration:
    def test_count_examples(self):
        t = count_classes_by_det(6)
        assert t.value(1) == 1
        assert t.value(4) == 7
        assert t.value(6) == 12

    def test_count_matches_explicit_class_listing(self):
        t = count_classes_by_det(60)
        for n in range(1, 61):
            assert t.value(n) == len(list(classes_with_det(n)))

    def test_smallest_tables(self):
        # isqrt(N) = 1: the pairs {1, y} alone fill the table, no slice runs
        assert count_classes_by_det(1).coeffs == (0, 1)
        assert count_classes_by_det(2).coeffs == (0, 1, 3)
        assert count_classes_by_det(3).coeffs == (0, 1, 3, 4)
        assert count_primitive_by_det(1).coeffs == (0, 1)
        assert count_primitive_by_det(2).coeffs == (0, 1, 3)
        assert count_primitive_by_det(3).coeffs == (0, 1, 3, 4)

    def test_primitive_examples(self):
        t = count_primitive_by_det(6)
        assert t.value(1) == 1
        assert t.value(2) == 3
        assert t.value(4) == 6

    def test_primitive_matches_explicit_content_check(self):
        t = count_primitive_by_det(60)
        for n in range(1, 61):
            assert t.value(n) == sum(1 for c in classes_with_det(n) if c.is_primitive)

    def test_enumeration_equals_formula(self):
        n = 500
        assert count_classes_by_det(n).coeffs == sigma_coeffs(n).coeffs
        assert count_primitive_by_det(n).coeffs == psi_coeffs(n).coeffs

    @pytest.mark.parametrize("n", [1000, 2 * SEGMENT + 1])
    def test_enumerations_never_use_the_sieve(self, monkeypatch, n):
        # `zeta --mode both` checks each sieve formula against an enumeration,
        # which shows a sieve fault only if the enumeration does not share it;
        # 2 * SEGMENT + 1 terms invert the class counts over three segments
        sigma, psi = sigma_coeffs(n).coeffs, psi_coeffs(n).coeffs

        def refuse(n):
            raise AssertionError("an enumeration reached the sieve")

        monkeypatch.setattr(zeta, "primes_up_to", refuse)
        monkeypatch.setattr(zeta, "_smallest_prime_factors", refuse)
        monkeypatch.setattr(zeta, "_fill_twos", refuse)
        with pytest.raises(AssertionError, match="reached the sieve"):
            sigma_coeffs(10)  # the patch is in force
        assert count_classes_by_det(n).coeffs == sigma
        assert count_primitive_by_det(n).coeffs == psi


class TestConvolution:
    def test_convolution_identity_element(self):
        unit = CoefficientTable("unit", tuple([0, 1] + [0] * 99))
        t = sigma_coeffs(100)
        assert dirichlet_convolve(unit, t).coeffs == t.coeffs

    def test_square_times_psi_is_sigma_at_4(self):
        n = 20
        conv = dirichlet_convolve(square_indicator_coeffs(n), psi_coeffs(n))
        assert conv.value(4) == 7

    def test_square_times_psi_is_sigma_sweep(self):
        n = 100
        conv = dirichlet_convolve(square_indicator_coeffs(n), psi_coeffs(n))
        assert conv.coeffs == sigma_coeffs(n).coeffs

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            dirichlet_convolve(sigma_coeffs(5), sigma_coeffs(6))


TABLE_FNS = [sigma_coeffs, psi_coeffs, count_classes_by_det, count_primitive_by_det, axpb_count, square_indicator_coeffs]


class TestMultiplicativity:
    @pytest.mark.parametrize(
        "table_fn", [sigma_coeffs, psi_coeffs, count_classes_by_det, count_primitive_by_det, axpb_count]
    )
    def test_multiplicative(self, table_fn):
        t = table_fn(1000)
        for m in range(2, 32):
            for n in range(2, 1000 // m + 1):
                if gcd(m, n) == 1:
                    assert t.value(m * n) == t.value(m) * t.value(n)

    def test_value_bounds(self):
        t = sigma_coeffs(10)
        with pytest.raises(IndexError):
            t.value(0)
        with pytest.raises(IndexError):
            t.value(11)

    @pytest.mark.parametrize("n", [0, -5])
    @pytest.mark.parametrize("table_fn", TABLE_FNS)
    def test_rejects_empty_table(self, table_fn, n):
        # refused by the guard's own message, before isqrt or an allocation sees n
        with pytest.raises(ValueError, match="need at least one term"):
            table_fn(n)

    def test_every_entry_fits_a_word_below_the_size_guard(self):
        # the packed lanes carry no bit into the next lane only while every
        # entry and every partial sum of the primitive inversion, at most
        # zeta(2) * sigma(n) < zeta(2) * 5n, stays below the word's sign bit;
        # sigma(n) < 5n holds below 122,522,400, the least n with sigma(n) >= 5n
        assert MAX_ZETA_TERMS < 122_522_400
        assert pi**2 / 6 * 5 * MAX_ZETA_TERMS < 2 ** (8 * array(zeta.WORD).itemsize - 1)
        for build in (zeta._sigma_table, zeta._psi_table, zeta._classes_table, zeta._primitive_table, zeta._axpb_table):
            assert {memoryview(segment).format for segment in build(SEGMENT + 1)} == {zeta.WORD}

    @pytest.mark.parametrize("table_fn", TABLE_FNS)
    def test_size_guard(self, table_fn):
        # refused before the sieve or the table is allocated, so this is instant
        with pytest.raises(MemoryError, match=f"over the limit of {MAX_ZETA_TERMS}"):
            table_fn(MAX_ZETA_TERMS + 1)
