import random

import pytest

from m2z.errors import PrimeMismatch
from m2z.localposet import (
    LocalClass,
    LocalType,
    classes_with_det_valuation,
    classify,
    downward_neighbors,
    local_class_count,
    local_leq,
    localize,
    upward_neighbors,
)
from m2z.matrices import MatrixClass, divides

# The four census rows, keyed by type:
# (upward same-level, upward level-raising, downward same-level, downward level-lowering)
CENSUS = {
    LocalType.ZERO_ZERO: lambda p: (p + 1, 0, 0, 0),
    LocalType.ZERO_POS: lambda p: (p, 1, 1, 0),
    LocalType.POS_ZERO: lambda p: (p + 1, 0, 0, p + 1),
    LocalType.POS_POS: lambda p: (p, 1, 1, p),
}


def census_counts(x, up, down):
    lam = x.level()
    up_same = sum(1 for y in up if y.level() == lam)
    down_same = sum(1 for y in down if y.level() == lam)
    return (up_same, len(up) - up_same, down_same, len(down) - down_same)


class TestLocalClassInvariants:
    def test_finite_bounds(self):
        LocalClass(2, 1, 2, 3)
        with pytest.raises(ValueError):
            LocalClass(2, 1, 2, 4)
        with pytest.raises(ValueError):
            LocalClass(2, 0, 1, 0.5)
        with pytest.raises(ValueError):
            LocalClass(4, 0, 0, 0)  # composite p

    def test_rejects_bad_exponents(self):
        for k, l in ((-1, 0), (0, -1), (1.5, 0), (True, 0)):
            with pytest.raises(ValueError):
                LocalClass(2, k, l)


class TestLocalize:
    def test_identity(self):
        c = localize(MatrixClass(1, 0, 1), 2)
        assert (c.k, c.l, c.z) == (0, 0, 0)

    def test_unit_part_reduction(self):
        c = localize(MatrixClass(2, 1, 4), 2)
        assert (c.k, c.l, c.z) == (1, 2, 1)

    def test_away_from_support(self):
        c = localize(MatrixClass(6, 0, 1), 5)
        assert (c.k, c.l, c.z) == (0, 0, 0)

    def test_odd_unit_inverse(self):
        # [[3, 1], [0, 8]] at p = 2: z = 1 * 3^-1 mod 8 = 3
        c = localize(MatrixClass(3, 1, 8), 2)
        assert (c.k, c.l, c.z) == (0, 3, 3)

    def test_level_consistency_with_global(self):
        from m2z.matrices import level

        rng = random.Random(7)
        for _ in range(200):
            p = rng.choice((2, 3, 5))
            k, l = rng.randint(0, 3), rng.randint(0, 3)
            d = p**l
            x = MatrixClass(p**k, rng.randrange(d), d)
            assert localize(x, p).level() == level(x, p)


class TestLocalOrder:
    def test_reflexive(self):
        x = LocalClass(2, 1, 2, 3)
        assert local_leq(x, x)

    def test_congruence_at_lower_precision(self):
        # (0,0,0) <= (1,2,1): the quotient matrix is integral
        assert local_leq(LocalClass(2, 0, 0, 0), LocalClass(2, 1, 2, 1))

    def test_congruence_failure(self):
        assert not local_leq(LocalClass(2, 0, 1, 1), LocalClass(2, 0, 2, 0))

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatch):
            local_leq(LocalClass(2, 0, 0, 0), LocalClass(3, 0, 0, 0))

    def test_agrees_with_global_divisibility(self):
        rng = random.Random(21)
        for _ in range(400):
            p = rng.choice((2, 3, 5))
            xs = []
            for _ in range(2):
                k, l = rng.randint(0, 3), rng.randint(0, 3)
                d = p**l
                xs.append(MatrixClass(p**k, rng.randrange(d), d))
            x, y = xs
            assert divides(x, y) == local_leq(localize(x, p), localize(y, p))


class TestNeighbors:
    def test_minimum_has_no_downward(self):
        assert downward_neighbors(LocalClass(2, 0, 0, 0)) == []

    def test_root_upward(self):
        up = upward_neighbors(LocalClass(2, 0, 0, 0))
        assert [(c.k, c.l, c.z) for c in up] == [(0, 1, 0), (0, 1, 1), (1, 0, 0)]
        assert len(upward_neighbors(LocalClass(3, 0, 0, 0))) == 4

    def test_level_raising_unique(self):
        up = upward_neighbors(LocalClass(2, 0, 1, 1))
        assert len(up) == 3
        assert sum(1 for c in up if c.level() == 1) == 1

    def test_scalar_class_downward(self):
        down = downward_neighbors(LocalClass(2, 1, 1, 0))
        assert len(down) == 3

    def test_single_downward(self):
        down = downward_neighbors(LocalClass(2, 0, 2, 1))
        assert [(c.k, c.l, c.z) for c in down] == [(0, 1, 1)]

    def test_updown_roundtrip(self):
        rng = random.Random(31)
        for _ in range(100):
            p = rng.choice((2, 3, 5))
            n = rng.randint(0, 3)
            pool = list(classes_with_det_valuation(p, n))
            x = rng.choice(pool)
            for y in upward_neighbors(x):
                assert x in downward_neighbors(y)
            for y in downward_neighbors(x):
                assert x in upward_neighbors(y)

    def test_neighbors_satisfy_order(self):
        for p in (2, 3):
            for n in range(4):
                for x in classes_with_det_valuation(p, n):
                    for y in upward_neighbors(x):
                        assert local_leq(x, y) and y.det_valuation() == n + 1
                    for y in downward_neighbors(x):
                        assert local_leq(y, x) and y.det_valuation() == n - 1


class TestCensus:
    def test_classify_examples(self):
        assert classify(LocalClass(2, 0, 0, 0)) is LocalType.ZERO_ZERO
        assert classify(LocalClass(2, 1, 1, 0)) is LocalType.POS_ZERO
        assert classify(LocalClass(7, 0, 3, 5)) is LocalType.ZERO_POS

    def test_enumeration_count_formula(self):
        for p in (2, 3, 5):
            for n in range(6):
                assert len(list(classes_with_det_valuation(p, n))) == local_class_count(p, n)

    def test_neighbors_against_brute_force(self):
        # oracle: filter the full enumeration one determinant step away by local_leq
        for p in (2, 3):
            for n in range(4):
                for x in classes_with_det_valuation(p, n):
                    brute_up = [y for y in classes_with_det_valuation(p, n + 1) if local_leq(x, y)]
                    assert brute_up == upward_neighbors(x)
                    if n:
                        brute_down = [y for y in classes_with_det_valuation(p, n - 1) if local_leq(y, x)]
                        assert brute_down == downward_neighbors(x)

    def test_census_rows_small(self):
        for p in (2, 3):
            for n in range(5):
                for x in classes_with_det_valuation(p, n):
                    counts = census_counts(x, upward_neighbors(x), downward_neighbors(x))
                    assert counts == CENSUS[classify(x)](p), (p, x)


# Each argument guard with its exception and its message; a composite prime is
# refused before the exponents are read.
GUARDS = [
    pytest.param(lambda: localize(MatrixClass(1, 0, 1), 1), ValueError, "1 is not prime", id="localize at 1"),
    pytest.param(lambda: LocalClass(4, -1, 0), ValueError, "4 is not prime", id="a composite before its exponents"),
    pytest.param(lambda: LocalClass(3.0, 0, 1, 2), ValueError, "3.0 is not prime", id="a float equal to a prime"),
    pytest.param(lambda: list(classes_with_det_valuation(2, -1)), ValueError, "valuation must be nonnegative", id="valuation -1"),
]


@pytest.mark.parametrize("call, error, message", GUARDS)
def test_each_argument_guard_raises_its_error_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


def test_a_local_class_prints_as_its_representative():
    assert str(LocalClass(3, 1, 2, 4)) == "(3^1, 4; 0, 3^2)"
