from math import gcd

import pytest

from m2z.errors import LengthMismatch
from m2z.matrices import classes_with_det
from m2z.zeta import (
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
        # isqrt(N) = 1: one slice for d = 1, then N // 2 slices for the d >= 2
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

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError):
            sigma_coeffs(0)
