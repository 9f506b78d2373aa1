import random
from fractions import Fraction

import pytest

from m2z.errors import NotDivisible, NotUnimodular, SingularMatrix
from m2z.matrices import (
    CharacterSpec,
    IntMatrix2,
    MatrixClass,
    apply_automorphism,
    classes_with_det,
    divides,
    hnf,
    hyper_distance,
    join,
    level,
    meet,
    niveau,
    parse_matrix,
    primitive_decompose,
    quotient,
)

I = MatrixClass(1, 0, 1)


def random_nonsingular(rng, bound=9):
    while True:
        m = IntMatrix2(*(rng.randint(-bound, bound) for _ in range(4)))
        if m.det() != 0:
            return m


def random_unimodular(rng, steps=6):
    u = IntMatrix2.identity()
    for _ in range(steps):
        k = rng.randint(-3, 3)
        gen = rng.choice(
            [IntMatrix2(1, k, 0, 1), IntMatrix2(1, 0, k, 1), IntMatrix2(0, 1, 1, 0), IntMatrix2(-1, 0, 0, 1)]
        )
        u = u @ gen
    return u


def random_class(rng, max_det=60):
    n = rng.randint(1, max_det)
    divs = [a for a in range(1, n + 1) if n % a == 0]
    a = rng.choice(divs)
    d = n // a
    return MatrixClass(a, rng.randrange(d), d)


class TestMatrixClass:
    def test_frozen(self):
        m = MatrixClass(2, 1, 3)
        with pytest.raises(AttributeError):
            m.b = 2
        assert m == MatrixClass(2, 1, 3)

    def test_hash_and_set_membership(self):
        x, y = MatrixClass(2, 1, 3), MatrixClass(2, 1, 3)
        assert x is not y and hash(x) == hash(y)
        assert {x, y, MatrixClass(2, 2, 3)} == {MatrixClass(2, 2, 3), y}
        assert x in {y}

    def test_slotted(self):
        # a ball holds hundreds of thousands of classes: no per-instance dict
        assert not hasattr(MatrixClass(1, 0, 1), "__dict__")


class TestHnf:
    def test_already_canonical(self):
        assert hnf(IntMatrix2(2, 0, 0, 1)) == MatrixClass(2, 0, 1)

    def test_row_swap(self):
        # oracle: u = [[0,1],[1,0]] satisfies u*m = representative
        m = IntMatrix2(0, 1, 2, 0)
        h = hnf(m)
        assert h == MatrixClass(2, 0, 1)
        u = IntMatrix2(0, 1, 1, 0)
        assert u @ m == h.to_matrix()

    def test_reduce_b_mod_d(self):
        assert hnf(IntMatrix2(1, 5, 0, 3)) == MatrixClass(1, 2, 3)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            hnf(IntMatrix2(1, 2, 2, 4))

    def test_unimodular_transform_exists(self):
        # u = rep * m^-1 must be integral with det +-1
        rng = random.Random(101)
        for _ in range(200):
            m = random_nonsingular(rng)
            h = hnf(m)
            det = m.det()
            adj = m.adjugate()
            rep = h.to_matrix()
            u_num = rep @ adj  # u * det(m)
            assert all(v % det == 0 for row in u_num.rows() for v in row)
            u = IntMatrix2(*(v // det for row in u_num.rows() for v in row))
            assert u.det() in (1, -1)
            assert u @ m == rep

    def test_constant_on_orbits(self):
        rng = random.Random(202)
        for _ in range(100):
            m = random_nonsingular(rng)
            u = random_unimodular(rng)
            assert hnf(u @ m) == hnf(m)

    def test_det_preserved(self):
        rng = random.Random(303)
        for _ in range(100):
            m = random_nonsingular(rng)
            assert hnf(m).det == abs(m.det())

    def test_idempotent_on_canonical(self):
        rng = random.Random(404)
        for _ in range(50):
            x = random_class(rng)
            assert hnf(x.to_matrix()) == x


class TestDivides:
    def test_identity_divides_everything(self):
        rng = random.Random(11)
        for _ in range(50):
            assert divides(I, random_class(rng))

    def test_examples(self):
        assert divides(MatrixClass(2, 0, 1), MatrixClass(4, 0, 1))
        assert not divides(MatrixClass(2, 0, 1), MatrixClass(1, 0, 2))

    def test_matches_rational_inverse_oracle(self):
        rng = random.Random(22)
        for _ in range(300):
            x, y = random_class(rng), random_class(rng)
            # oracle: y * x^-1 over Q has integer entries
            det = Fraction(x.det)
            entries = (
                Fraction(y.a * x.d) / det,
                Fraction(x.a * y.b - y.a * x.b) / det,
                Fraction(0),
                Fraction(y.d * x.a) / det,
            )
            assert divides(x, y) == all(e.denominator == 1 for e in entries)

    def test_partial_order(self):
        rng = random.Random(33)
        pool = [random_class(rng, 100) for _ in range(60)]
        for x in pool:
            assert divides(x, x)
        for x in pool[:30]:
            for y in pool[:30]:
                if divides(x, y) and divides(y, x):
                    assert x == y
        for _ in range(2000):
            x, y, z = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            if divides(x, y) and divides(y, z):
                assert divides(x, z)


class TestQuotient:
    def test_self_quotient_is_identity(self):
        x = MatrixClass(3, 1, 5)
        assert quotient(x, x) == IntMatrix2.identity()

    def test_examples(self):
        assert quotient(MatrixClass(2, 0, 1), MatrixClass(4, 0, 1)) == IntMatrix2(2, 0, 0, 1)
        assert quotient(MatrixClass(1, 0, 2), MatrixClass(2, 0, 2)) == IntMatrix2(2, 0, 0, 1)

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            quotient(MatrixClass(2, 0, 1), MatrixClass(1, 0, 2))

    def test_product_and_det_bookkeeping(self):
        rng = random.Random(44)
        for _ in range(200):
            x = random_class(rng, 30)
            y = hnf(random_nonsingular(rng, 4) @ x.to_matrix())
            assert divides(x, y)
            m = quotient(x, y)
            assert m @ x.to_matrix() == y.to_matrix()
            assert m.det() == y.det // x.det


class TestMeetJoin:
    def test_identity_is_minimum(self):
        rng = random.Random(55)
        for _ in range(30):
            x = random_class(rng)
            assert meet(x, I) == I
            assert join(I, x) == x

    def test_examples(self):
        assert meet(MatrixClass(2, 0, 1), MatrixClass(1, 0, 2)) == I
        assert meet(MatrixClass(4, 0, 1), MatrixClass(2, 0, 1)) == MatrixClass(2, 0, 1)
        assert join(MatrixClass(2, 0, 1), MatrixClass(1, 0, 2)) == MatrixClass(2, 0, 2)

    def test_join_idempotent(self):
        rng = random.Random(66)
        for _ in range(50):
            x = random_class(rng)
            assert join(x, x) == x
            assert meet(x, x) == x

    def test_bounds_and_commutativity(self):
        rng = random.Random(77)
        for _ in range(150):
            x, y = random_class(rng), random_class(rng)
            w, j = meet(x, y), join(x, y)
            assert w == meet(y, x) and j == join(y, x)
            assert divides(w, x) and divides(w, y)
            assert divides(x, j) and divides(y, j)

    def test_absorption(self):
        rng = random.Random(88)
        for _ in range(100):
            x, y = random_class(rng), random_class(rng)
            assert meet(x, join(x, y)) == x
            assert join(x, meet(x, y)) == x

    def test_meet_is_greatest_lower_bound(self):
        rng = random.Random(99)
        for _ in range(400):
            z, m1, m2 = random_class(rng, 8), random_class(rng, 8), random_class(rng, 8)
            # x and y are both above z by construction
            x = hnf(m1.to_matrix() @ z.to_matrix())
            y = hnf(m2.to_matrix() @ z.to_matrix())
            assert divides(z, meet(x, y))

    def test_join_is_least_upper_bound(self):
        rng = random.Random(111)
        for _ in range(400):
            x, y, z = random_class(rng, 30), random_class(rng, 30), random_class(rng, 30)
            if divides(x, z) and divides(y, z):
                assert divides(join(x, y), z)


class TestLevelNiveau:
    def test_identity(self):
        for p in (2, 3, 5, 7):
            assert level(I, p) == 0
            assert niveau(I, p) == 0

    def test_examples(self):
        assert level(MatrixClass(2, 0, 4), 2) == 1
        assert level(MatrixClass(12, 0, 12), 3) == 1
        assert niveau(MatrixClass(2, 0, 4), 2) == 1
        assert niveau(MatrixClass(1, 0, 9), 3) == 2

    @pytest.mark.parametrize("p", [1, 0, -1])
    def test_base_below_two_is_refused(self, p):
        with pytest.raises(ValueError):
            level(MatrixClass(2, 1, 4), p)
        with pytest.raises(ValueError):
            niveau(MatrixClass(2, 1, 4), p)

    def test_niveau_nonnegative(self):
        rng = random.Random(123)
        for _ in range(200):
            x = random_class(rng, 200)
            for p in (2, 3, 5):
                assert niveau(x, p) >= 0


class TestPrimitiveDecompose:
    def test_primitive_fixed(self):
        x = MatrixClass(3, 1, 2)
        assert primitive_decompose(x) == (1, x)

    def test_examples(self):
        assert primitive_decompose(MatrixClass(2, 0, 4)) == (2, MatrixClass(1, 0, 2))
        assert primitive_decompose(MatrixClass(6, 0, 6)) == (6, I)

    def test_reassembly_and_primitivity(self):
        rng = random.Random(135)
        for _ in range(200):
            x = random_class(rng, 400)
            n, q = primitive_decompose(x)
            assert MatrixClass(n * q.a, n * q.b, n * q.d) == x
            assert q.is_primitive
            for p in (2, 3, 5, 7):
                assert level(q, p) == 0


class TestHyperDistance:
    def test_self_distance_one(self):
        rng = random.Random(147)
        for _ in range(50):
            x = random_class(rng)
            assert hyper_distance(x, x) == 1

    def test_examples(self):
        assert hyper_distance(I, MatrixClass(2, 0, 1)) == 2
        assert hyper_distance(MatrixClass(2, 0, 1), MatrixClass(1, 0, 2)) == 4

    def test_symmetry_and_separation(self):
        rng = random.Random(159)
        for _ in range(200):
            x, y = random_class(rng), random_class(rng)
            d = hyper_distance(x, y)
            assert d == hyper_distance(y, x)
            assert (d == 1) == (x == y)

    def test_multiplicative_triangle(self):
        rng = random.Random(171)
        for _ in range(300):
            x, y, z = (random_class(rng, 50) for _ in range(3))
            assert hyper_distance(x, z) <= hyper_distance(x, y) * hyper_distance(y, z)


class TestAutomorphism:
    def test_identity_automorphism(self):
        m = IntMatrix2(3, 1, 2, 5)
        assert apply_automorphism(m, CharacterSpec(), IntMatrix2.identity()) == m

    def test_character_sign(self):
        chi = CharacterSpec(sign_at_prime={2: -1})
        m = IntMatrix2(2, 0, 0, 1)
        assert apply_automorphism(m, chi, IntMatrix2.identity()) == IntMatrix2(-2, 0, 0, -1)

    def test_conjugation(self):
        # direct product oracle: g m g^-1 for g = [[1,1],[0,1]], m = diag(1,2)
        g = IntMatrix2(1, 1, 0, 1)
        m = IntMatrix2(1, 0, 0, 2)
        g_inv = IntMatrix2(1, -1, 0, 1)
        expected = g @ m @ g_inv
        assert expected == IntMatrix2(1, 1, 0, 2)
        assert apply_automorphism(m, CharacterSpec(), g) == expected

    @pytest.mark.parametrize("key", [1, 0, -1, 4, 15])
    def test_character_refuses_a_nonprime_key(self, key):
        with pytest.raises(ValueError, match="not prime"):
            CharacterSpec(sign_at_prime={key: -1})

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            apply_automorphism(IntMatrix2.identity(), CharacterSpec(), IntMatrix2(2, 0, 0, 1))

    def test_multiplicative_and_det_preserving(self):
        rng = random.Random(183)
        chi = CharacterSpec(sign_at_minus_one=-1, sign_at_prime={2: -1, 5: -1})
        for _ in range(100):
            g = random_unimodular(rng)
            m1, m2 = random_nonsingular(rng, 5), random_nonsingular(rng, 5)
            t1 = apply_automorphism(m1, chi, g)
            t2 = apply_automorphism(m2, chi, g)
            t12 = apply_automorphism(m1 @ m2, chi, g)
            assert t12 == t1 @ t2
            assert t1.det() == m1.det()


class TestEnumerationAndParsing:
    def test_classes_with_det_counts(self):
        assert len(list(classes_with_det(1))) == 1
        assert len(list(classes_with_det(4))) == 7
        assert len(list(classes_with_det(6))) == 12

    def test_classes_are_distinct_and_valid(self):
        seen = set(classes_with_det(36))
        assert len(seen) == 91  # sigma(36)
        assert all(c.det == 36 for c in seen)

    def test_parse_matrix_roundtrip(self):
        m = parse_matrix("2,0;0,1")
        assert m == IntMatrix2(2, 0, 0, 1)
        assert parse_matrix(str(m)) == m

    def test_parse_matrix_rejects_garbage(self):
        for bad in ("1,2;3", "1;2;3", "a,b;c,d", "1,2,3;4,5,6"):
            with pytest.raises(ValueError):
                parse_matrix(bad)

    def test_canonical_form_validation(self):
        with pytest.raises(ValueError):
            MatrixClass(0, 0, 1)
        with pytest.raises(ValueError):
            MatrixClass(1, 2, 2)
        with pytest.raises(ValueError):
            MatrixClass(1, -1, 2)


# Each argument guard with its exception and its message; a composite key is
# refused before its sign is read.
GUARDS = [
    pytest.param(lambda: CharacterSpec(0), ValueError, "chi(-1) must be +1 or -1", id="chi(-1) = 0"),
    pytest.param(lambda: CharacterSpec(1, {3: 2}), ValueError, "chi(3) must be +1 or -1", id="chi(3) = 2"),
    pytest.param(lambda: CharacterSpec(1, {2: -1, 4: 2}), ValueError, "4 is not prime", id="a composite before its sign"),
    pytest.param(lambda: CharacterSpec(1, {3.0: -1}), ValueError, "3.0 is not prime", id="a float equal to a prime"),
    pytest.param(lambda: CharacterSpec().value(0), ValueError, "characters of Q^x are undefined at 0", id="chi(0)"),
    pytest.param(
        lambda: apply_automorphism(IntMatrix2(1, 2, 2, 4), CharacterSpec(), IntMatrix2.identity()),
        SingularMatrix,
        "det(1,2;2,4) = 0",
        id="a singular m",
    ),
    pytest.param(lambda: list(classes_with_det(0)), ValueError, "determinant must be positive, got 0", id="det 0"),
]


@pytest.mark.parametrize("call, error, message", GUARDS)
def test_each_argument_guard_raises_its_error_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
