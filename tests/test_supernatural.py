import random
from fractions import Fraction
from itertools import combinations, count
from math import isqrt

import pytest

from m2z.errors import Degenerate, NotAUnit, NotRepresentable
from m2z.matrices import IntMatrix2
from m2z.primes import is_prime
from m2z.supernatural import (
    GOORMAGHTIGH_8191_NOTE,
    ONE,
    ZERO_EVERYWHERE,
    ComponentwiseProfinite,
    Equivalent,
    ExtMatrix,
    MoebiusMatrix,
    NotEquivalent,
    equiv_decide,
    ext_membership,
    goormaghtigh_search,
    goormaghtigh_witness,
    is_extension,
    moebius_apply,
    multiply,
    p_infinity,
    parse_moebius,
    parse_supernatural,
    prime_power_witness,
    s_of,
    system_determinant,
)


def det4x4(rows):
    # cofactor expansion along the first row; exact fractions
    if len(rows) == 1:
        return rows[0][0]
    total = Fraction(0)
    for j, entry in enumerate(rows[0]):
        if entry == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * entry * det4x4(minor)
    return total


class TestComponentwise:
    def test_s_of_examples(self):
        assert s_of(1) == ONE
        assert s_of(12) == ComponentwiseProfinite.of({2: 2, 3: 1})
        assert s_of(0) == ZERO_EVERYWHERE

    def test_p_infinity(self):
        x = p_infinity(7)
        assert x.value_at(7) == 0
        assert x.value_at(3) == 1
        assert x.exponent(7) is None
        with pytest.raises(ValueError, match="^4 is not prime$"):
            p_infinity(4)

    def test_multiply(self):
        assert multiply(s_of(2), s_of(2)) == ComponentwiseProfinite.of({2: 2})
        assert multiply(s_of(6), p_infinity(2)) == ComponentwiseProfinite.of({2: None, 3: 1})
        assert multiply(s_of(400), p_infinity(3)) == ComponentwiseProfinite.of({2: 4, 3: None, 5: 2})
        assert multiply(s_of(7), ONE) == s_of(7)
        assert multiply(s_of(7), ZERO_EVERYWHERE) == ZERO_EVERYWHERE

    def test_normalization(self):
        assert ComponentwiseProfinite.of({2: 0, 3: 1}) == s_of(3)
        with pytest.raises(ValueError):
            ComponentwiseProfinite(((2, 1), (2, 2)))
        with pytest.raises(ValueError):
            ComponentwiseProfinite(((6, 1),))

    def test_bool_exponent_rejected(self):
        # True would print as "2^True", which parse_supernatural rejects, yet equal 2^1
        with pytest.raises(ValueError, match="^exponent at 2 must be a positive integer or None, got True$"):
            ComponentwiseProfinite(((2, True),))

    def test_literals_roundtrip(self):
        for text in ("1", "0", "2^4*5^2*7^inf", "2^1", "3^inf"):
            assert str(parse_supernatural(text)) == text

    def test_literal_rejections(self):
        for bad in ("4^1", "2^1*2^2", "2", "2^", "x", "2^-1", "2^1**3^1"):
            with pytest.raises(ValueError):
                parse_supernatural(bad)


class TestMoebiusMatrix:
    def test_projective_canonicalization(self):
        g = MoebiusMatrix(Fraction(31, 30), 0, Fraction(-1, 30), 1)
        assert g.entries() == (31, 0, -1, 30)
        assert g == MoebiusMatrix(31, 0, -1, 30)
        assert MoebiusMatrix(-2, 0, 0, -4) == MoebiusMatrix(1, 0, 0, 2)

    def test_sign_of_first_nonzero(self):
        g = MoebiusMatrix(0, -3, 6, 0)
        assert g.entries() == (0, 1, -2, 0)

    def test_degenerate_rejected(self):
        with pytest.raises(Degenerate):
            MoebiusMatrix(1, 2, 2, 4)

    def test_product_is_normalized(self):
        g = MoebiusMatrix(2, 0, 0, 1) @ MoebiusMatrix(1, 0, 0, 2)
        assert type(g) is MoebiusMatrix
        assert g == MoebiusMatrix.identity()
        assert g.entries() == (1, 0, 0, 1)
        m = IntMatrix2(2, 0, 0, 1) @ IntMatrix2(1, 0, 0, 2)
        assert type(m) is IntMatrix2
        assert m == IntMatrix2(2, 0, 0, 2)

    def test_parse(self):
        assert parse_moebius("31,0;-1,30") == MoebiusMatrix(31, 0, -1, 30)
        assert parse_moebius("1/2,0;0,1") == MoebiusMatrix(1, 0, 0, 2)
        with pytest.raises(ValueError):
            parse_moebius("1,2,3;4,5,6")


class TestMoebiusApply:
    def test_identity(self):
        for z in (ONE, s_of(12), multiply(s_of(4), p_infinity(3)), ZERO_EVERYWHERE):
            assert moebius_apply(MoebiusMatrix.identity(), z) == z

    def test_prime_power_shift(self):
        g = MoebiusMatrix(1, -2, 0, 3)
        assert moebius_apply(g, s_of(2)) == s_of(4)

    def test_goormaghtigh_matrix(self):
        g = MoebiusMatrix(31, 0, -1, 30)
        z = multiply(s_of(400), p_infinity(3))
        assert moebius_apply(g, z) == multiply(s_of(4000), p_infinity(3))

    def test_not_a_unit(self):
        # a + c*z_2 = 4 - 4 = 0
        with pytest.raises(NotAUnit) as info:
            moebius_apply(MoebiusMatrix(4, 0, -1, 4), s_of(4))
        assert info.value.prime == 2

    def test_not_representable_component(self):
        # s(2) -> (0 + 3*2)/(1 + 0) = 6, not a 2-power
        with pytest.raises(NotRepresentable) as info:
            moebius_apply(MoebiusMatrix(1, 0, 0, 3), s_of(2))
        assert info.value.prime is None  # default components map to 3 first

    def test_default_component_must_be_one(self):
        with pytest.raises(NotRepresentable):
            moebius_apply(MoebiusMatrix(1, 1, 0, 2), s_of(2))

    def test_zero_to_one_swap(self):
        g = MoebiusMatrix(1, 1, 0, -1)
        assert moebius_apply(g, ZERO_EVERYWHERE) == ONE
        assert moebius_apply(g, ONE) == ZERO_EVERYWHERE

    def test_right_action_composition_on_witnesses(self):
        # chains of power-shift maps are always defined on their orbit
        rng = random.Random(42)
        for _ in range(200):
            p = rng.choice((2, 3, 5))
            k, u, w = (rng.randint(1, 5) for _ in range(3))
            z = s_of(p**k)
            g = prime_power_witness(p, k, u)
            h = prime_power_witness(p, u, w)
            lhs = moebius_apply(g @ h, z)
            rhs = moebius_apply(h, moebius_apply(g, z))
            assert lhs == rhs == s_of(p**w)

    def test_right_action_composition_random(self):
        rng = random.Random(43)
        pool = [ONE, s_of(2), s_of(6), s_of(12), multiply(s_of(4), p_infinity(3)), p_infinity(5)]
        for _ in range(400):
            g = _random_degenerate_free(rng)
            h = _random_degenerate_free(rng)
            z = rng.choice(pool)
            try:
                lhs = moebius_apply(g @ h, z)
            except (NotAUnit, NotRepresentable, Degenerate):
                continue
            try:
                rhs = moebius_apply(h, moebius_apply(g, z))
            except (NotAUnit, NotRepresentable, Degenerate):
                continue
            assert lhs == rhs

    def test_unit_condition_is_projective(self):
        # same projective matrix, any scale: the result must not depend on it
        g = MoebiusMatrix(3, 6, -2, -5)
        assert moebius_apply(g, s_of(6)) == s_of(12)

    def test_integer_shifts_collapse_to_equality(self):
        # z and z + n give the same extension class; a nonzero shift is never
        # representable here (the defaults leave 1) apart from the 0 <-> 1
        # pair, so class equality inside the representable class is plain
        # field equality
        for z in (ONE, s_of(2), s_of(12), multiply(s_of(4), p_infinity(3))):
            for n in (1, -1, 2, 5):
                if z == ONE and n == -1:
                    continue
                with pytest.raises(NotRepresentable):
                    moebius_apply(MoebiusMatrix(1, n, 0, 1), z)
        assert moebius_apply(MoebiusMatrix(1, -1, 0, 1), ONE) == ZERO_EVERYWHERE
        assert moebius_apply(MoebiusMatrix(1, 1, 0, 1), ZERO_EVERYWHERE) == ONE

    def test_image_primes_are_not_retested(self, monkeypatch):
        # every prime of the image is a prime of z, tested when z was built
        calls = []

        def counting_is_prime(n):
            calls.append(n)
            return is_prime(n)

        cases = [
            (MoebiusMatrix.identity(), parse_supernatural("2^1*3^inf*1000000000000000003^2")),
            (MoebiusMatrix(31, 0, -1, 30), multiply(s_of(400), p_infinity(3))),
            (MoebiusMatrix(3, 6, -2, -5), s_of(6)),
        ]
        monkeypatch.setattr("m2z.supernatural.is_prime", counting_is_prime)
        images = [moebius_apply(g, z) for g, z in cases]
        assert calls == []
        assert images == [cases[0][1], multiply(s_of(4000), p_infinity(3)), s_of(12)]


def _random_degenerate_free(rng):
    while True:
        entries = [rng.randint(-4, 4) for _ in range(4)]
        if entries[0] * entries[3] - entries[1] * entries[2] != 0:
            return MoebiusMatrix(*entries)


class TestEquivDecide:
    def test_reflexive_identity_witness(self):
        z = multiply(s_of(12), p_infinity(7))
        verdict = equiv_decide(z, z)
        assert isinstance(verdict, Equivalent)
        assert verdict.witness == MoebiusMatrix.identity()

    def test_prime_power_pairs(self):
        verdict = equiv_decide(s_of(2), s_of(8))
        assert isinstance(verdict, Equivalent)
        assert moebius_apply(verdict.witness, s_of(2)) == s_of(8)

    def test_different_supports(self):
        verdict = equiv_decide(s_of(2), s_of(3))
        assert verdict == NotEquivalent("prime-divisor-obstruction")

    def test_two_prime_pairs(self):
        verdict = equiv_decide(s_of(6), s_of(12))
        assert isinstance(verdict, Equivalent)
        assert moebius_apply(verdict.witness, s_of(6)) == s_of(12)

    def test_zero_everywhere_rules(self):
        assert isinstance(equiv_decide(ZERO_EVERYWHERE, ZERO_EVERYWHERE), Equivalent)
        v = equiv_decide(ONE, ZERO_EVERYWHERE)
        assert isinstance(v, Equivalent)
        assert moebius_apply(v.witness, ONE) == ZERO_EVERYWHERE
        for n in range(2, 101):
            assert equiv_decide(s_of(n), s_of(0)) == NotEquivalent("prime-divisor-obstruction")

    def test_zero_component_versus_power(self):
        # p^inf and s(p) share the support {p} and are in the same orbit
        verdict = equiv_decide(p_infinity(2), s_of(2))
        assert isinstance(verdict, Equivalent)
        assert moebius_apply(verdict.witness, p_infinity(2)) == s_of(2)

    def test_single_prime_shift_under_padding(self):
        # one exponent shift stays in the orbit even with an l^inf factor,
        # via the map z -> d*z/(a - z) analogous to 30z/(31 - z)
        z = multiply(s_of(2), p_infinity(3))
        z2 = multiply(s_of(4), p_infinity(3))
        verdict = equiv_decide(z, z2)
        assert isinstance(verdict, Equivalent)
        assert moebius_apply(verdict.witness, z) == z2

    def test_two_prime_shift_under_padding_is_rigid(self):
        # simultaneous shifts at two primes under l^inf force the repunit
        # identity; (2,1)->(2,2) with (3,1)->(3,2) fails it
        z = multiply(s_of(6), p_infinity(5))
        z2 = multiply(s_of(36), p_infinity(5))
        assert equiv_decide(z, z2) == NotEquivalent("infeasible-system")

    def test_symmetry_of_verdicts(self):
        rng = random.Random(77)
        pool = [
            ONE,
            s_of(2),
            s_of(4),
            s_of(6),
            s_of(12),
            s_of(36),
            p_infinity(2),
            multiply(s_of(2), p_infinity(3)),
            multiply(s_of(400), p_infinity(3)),
            multiply(s_of(4000), p_infinity(3)),
        ]
        for x, y in combinations(pool, 2):
            a = equiv_decide(x, y)
            b = equiv_decide(y, x)
            assert isinstance(a, Equivalent) == isinstance(b, Equivalent), (str(x), str(y))

    def test_parsed_literals_are_not_retested_for_primality(self, monkeypatch):
        calls = []

        def counting_is_prime(n):
            calls.append(n)
            return is_prime(n)

        pairs = [(s_of(12), s_of(18)), (parse_supernatural("2^1*3^inf"), parse_supernatural("2^2*3^inf"))]
        monkeypatch.setattr("m2z.supernatural.is_prime", counting_is_prime)
        for z, z_prime in pairs:
            assert isinstance(equiv_decide(z, z_prime), Equivalent)
        assert calls == []

    def test_witnesses_always_validate(self):
        pool = [s_of(n) for n in (2, 3, 4, 8, 9, 27, 6, 12, 18, 72)]
        pool += [multiply(s_of(400), p_infinity(l)) for l in (3, 7)]
        pool += [multiply(s_of(4000), p_infinity(l)) for l in (3, 7)]
        for x in pool:
            for y in pool:
                verdict = equiv_decide(x, y)
                if isinstance(verdict, Equivalent):
                    assert moebius_apply(verdict.witness, x) == y


class TestPowerShiftIdentity:
    def test_explicit_matrix_spec(self):
        assert prime_power_witness(2, 1, 2) == MoebiusMatrix(1, -2, 0, 3)

    def test_sweep_with_offsupport_checks(self):
        for p in (2, 3, 5, 7):
            for k in range(1, 6):
                for u in range(1, 6):
                    g = prime_power_witness(p, k, u)
                    assert moebius_apply(g, s_of(p**k)) == s_of(p**u)
                    a, b, c, d = (Fraction(v) for v in g.entries())
                    # support component maps p^k to p^u ...
                    assert (b + d * p**k) / (a + c * p**k) == p**u
                    # ... and three off-support primes stay at 1
                    for q in (11, 13, 101):
                        assert (b + d * 1) / (a + c * 1) == 1
                        assert (a + c * 1) != 0 and Fraction(a + c).denominator % q != 0


class TestSystemDeterminant:
    def test_examples(self):
        assert system_determinant(2, 1, 1, 3, 1, 1) == -2
        assert system_determinant(2, 1, 2, 3, 1, 1) == 2

    def test_against_direct_expansion(self):
        rng = random.Random(314)
        primes = [2, 3, 5, 7, 11, 13]
        for _ in range(50):
            p, q = rng.sample(primes, 2)
            k, u, r, v = (rng.randint(1, 4) for _ in range(4))
            matrix = [
                [Fraction(1), Fraction(1), Fraction(0), Fraction(0)],
                [Fraction(0), Fraction(0), Fraction(1), Fraction(1)],
                [Fraction(1), Fraction(p**k), Fraction(p**u), Fraction(p ** (k + u))],
                [Fraction(1), Fraction(q**r), Fraction(q**v), Fraction(q ** (r + v))],
            ]
            assert det4x4(matrix) == system_determinant(p, k, u, q, r, v)

    def test_never_zero(self):
        rng = random.Random(271)
        for _ in range(50):
            p, q = rng.sample([2, 3, 5, 7, 11], 2)
            k, u, r, v = (rng.randint(1, 5) for _ in range(4))
            assert system_determinant(p, k, u, q, r, v) != 0


class TestExtension:
    def test_characterized_form(self):
        x = ExtMatrix(ONE, s_of(10), ZERO_EVERYWHERE)
        assert is_extension(x)

    def test_nontrivial_s_fails(self):
        assert not is_extension(ExtMatrix(s_of(2), ONE, ZERO_EVERYWHERE))

    def test_unit_sprime_fails(self):
        assert not is_extension(ExtMatrix(ONE, s_of(10), ONE))

    def test_membership_examples(self):
        x = ExtMatrix(ONE, ONE, ZERO_EVERYWHERE)
        assert ext_membership(x, 5, -7)
        two = ExtMatrix(ONE, s_of(2), ZERO_EVERYWHERE)
        assert ext_membership(two, Fraction(-1, 3), Fraction(1, 3))
        assert not ext_membership(two, Fraction(1, 3), Fraction(1, 3))

    def test_membership_needs_no_factoring(self):
        # p*q has two 30-digit prime factors, which rho cannot split in time
        p = next(n for n in range(10**29 + 1, 10**30, 2) if is_prime(n))
        q = next(n for n in range(2 * 10**29 + 1, 10**30, 2) if is_prime(n))
        x = ExtMatrix(ONE, ONE, ZERO_EVERYWHERE)
        assert not ext_membership(x, Fraction(1, p * q), 0)
        assert ext_membership(x, Fraction(1, p * q), Fraction(-1, p * q))
        both = ComponentwiseProfinite.of({p: 1, q: 1})
        assert ext_membership(ExtMatrix(both, ONE, ZERO_EVERYWHERE), Fraction(1, p * q), 0)
        assert not ext_membership(ExtMatrix(both, ONE, ZERO_EVERYWHERE), Fraction(1, p * p * q), 0)
        assert ext_membership(ExtMatrix(ONE, both, ZERO_EVERYWHERE), 0, Fraction(1, p * q))

    def test_membership_group_closure(self):
        rng = random.Random(555)
        x = ExtMatrix(ONE, multiply(s_of(12), p_infinity(5)), ZERO_EVERYWHERE)
        members = []
        while len(members) < 20:
            u = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            v = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            if ext_membership(x, u, v):
                members.append((u, v))
        for (u1, v1), (u2, v2) in combinations(members, 2):
            assert ext_membership(x, u1 + u2, v1 + v2)
        for u, v in members:
            assert ext_membership(x, -u, -v)

    def test_e1_rejects_noninteger_first_coordinates(self):
        rng = random.Random(556)
        x = ExtMatrix(ONE, s_of(6), ZERO_EVERYWHERE)
        for _ in range(100):
            den = rng.randint(2, 50)
            num = rng.randint(1, 200)
            u = Fraction(num, den)
            if u.denominator == 1:
                u += Fraction(1, den if den > 1 else 2)
            assert not ext_membership(x, u, 0)


class TestGoormaghtigh:
    def test_below_first_solution(self):
        assert goormaghtigh_search(30) == []

    def test_first_solution(self):
        assert goormaghtigh_search(31) == [(2, 5, 5, 3, 31)]

    @staticmethod
    def hashed(bound, shortest):
        """The search the merged streams replaced: hash every repunit of length
        >= shortest up to bound; from 4 up, add each value's length-3 partner
        by the square test 4v - 3 = (2y + 1)^2."""
        hits, x = {}, 2
        while (value := (x**shortest - 1) // (x - 1)) <= bound:
            for n in count(shortest):
                if value > bound:
                    break
                hits.setdefault(value, []).append((x, n))
                value = value * x + 1
            x += 1
        for value, found in hits.items():
            r = isqrt(4 * value - 3)
            if shortest == 4 and r * r == 4 * value - 3:
                found.append(((r - 1) // 2, 3))
        return [(x1, x2, n1, n2, v) for v in sorted(hits) for (x1, n1), (x2, n2) in combinations(hits[v], 2)]

    def test_matches_hashing_every_repunit(self):
        bound = 2**20
        expected = self.hashed(bound, 3)
        assert expected == [(2, 5, 5, 3, 31), (2, 90, 13, 3, 8191)]
        stream_edges = [2**n + k for n in range(4, 21) for k in (-2, -1, 0)]  # around each length's first repunit
        length4_edges = [(x**4 - 1) // (x - 1) + k for x in (2, 3, 5, 17, 90, 101) for k in (-1, 0, 1)]
        for b in (1, 7, 30, 31, 8190, 8191, 10**6, *stream_edges, *length4_edges):
            assert goormaghtigh_search(b) == [row for row in expected if row[4] <= b], b

    def test_matches_hashing_the_longer_repunits_at_10_to_the_12(self):
        assert goormaghtigh_search(10**12) == self.hashed(10**12, 4) == [(2, 5, 5, 3, 31), (2, 90, 13, 3, 8191)]

    def test_size_guard(self):
        # about 1.1 * 10^6 repunits of length >= 4 lie below 1.19 * 10^18
        assert goormaghtigh_search(10**10) == [(2, 5, 5, 3, 31), (2, 90, 13, 3, 8191)]
        for bound in (2 * 10**18, 10**24, 10**400):
            with pytest.raises(MemoryError):
                goormaghtigh_search(bound)

    def test_size_guard_accepts_exactly_max_repunits(self, monkeypatch):
        bound = 10**6
        visits = sum((x**n - 1) // (x - 1) <= bound for x in range(2, 101) for n in range(4, 21))
        monkeypatch.setattr("m2z.supernatural.MAX_REPUNITS", visits)
        assert goormaghtigh_search(bound) == [(2, 5, 5, 3, 31), (2, 90, 13, 3, 8191)]
        monkeypatch.setattr("m2z.supernatural.MAX_REPUNITS", visits - 1)
        with pytest.raises(MemoryError):
            goormaghtigh_search(bound)

    def test_note_is_documented(self):
        assert "(90^2-1)/(90-1) = 91" in GOORMAGHTIGH_8191_NOTE

    def test_witness_family(self):
        for l in (3, 7, 11):
            g = goormaghtigh_witness(2, 4, 5, 2, l)
            assert g == MoebiusMatrix(31, 0, -1, 30)
            z = multiply(s_of(2**4 * 5**2), p_infinity(l))
            assert moebius_apply(g, z) == multiply(s_of(2**5 * 5**3), p_infinity(l))

    def test_witness_requires_repunit_identity(self):
        assert goormaghtigh_witness(2, 1, 3, 1, 5) is None
        assert goormaghtigh_witness(2, 2, 3, 1, 7) is None

    def test_witness_validations(self):
        with pytest.raises(ValueError):
            goormaghtigh_witness(3, 1, 2, 1, 5)  # p >= q
        with pytest.raises(ValueError):
            goormaghtigh_witness(2, 1, 5, 1, 5)  # l collides
