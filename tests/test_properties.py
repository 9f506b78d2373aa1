"""Property tests for the invariants the big picture, the zeta tables, the
extension classes and the local posets rest on."""

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import matmul
from math import gcd, prod

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from m2z.bigpicture import BigPictureVertex, _lower_neighbour, ball, parse_vertex
from m2z.errors import Degenerate, DomainError
from m2z.localposet import localize
from m2z.matrices import (
    IntMatrix2,
    MatrixClass,
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
)
from m2z.primes import factor, is_prime, valuation
from m2z.supernatural import (
    ZERO_EVERYWHERE,
    ComponentwiseProfinite,
    Equivalent,
    ExtMatrix,
    MoebiusMatrix,
    equiv_decide,
    ext_membership,
    moebius_apply,
    multiply,
    p_infinity,
    parse_moebius,
    parse_supernatural,
    prime_power_witness,
    s_of,
)
from m2z.zeta import count_classes_by_det, count_primitive_by_det, psi_coeffs, sigma_coeffs

entries = st.integers(min_value=-30, max_value=30)
nonsingular = st.builds(IntMatrix2, entries, entries, entries, entries).filter(lambda m: m.det() != 0)


def prim(m: IntMatrix2):
    return primitive_decompose(hnf(m))[1]


@settings(max_examples=300, deadline=None)
@given(nonsingular, nonsingular, nonsingular)
def test_right_multiplication_is_an_isometry(a, b, g):
    # delta(prim(x*g), prim(y*g)) = delta(x, y): ball() moves the origin ball
    # to any centre by this map
    x, y = prim(a), prim(b)
    moved_x = prim(x.to_matrix() @ g)
    moved_y = prim(y.to_matrix() @ g)
    assert hyper_distance(moved_x, moved_y) == hyper_distance(x, y)


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


# rho takes time in the square root of the second-largest prime factor, so
# one prime may reach 10^30 and the others stay below 10^8
@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10**30).map(next_prime), st.lists(st.integers(2, 10**8).map(next_prime), max_size=3))
def test_factor_of_a_product_of_primes(large, small):
    primes = [large, *small]
    f = factor(prod(primes))
    assert f == Counter(primes)
    assert list(f) == sorted(f)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3000))
def test_formulas_equal_enumerations(n):
    assert sigma_coeffs(n).coeffs == count_classes_by_det(n).coeffs
    assert psi_coeffs(n).coeffs == count_primitive_by_det(n).coeffs


def enumerations_by_nested_loops(n_terms):
    # the loops the hyperbola split replaced: one step per pair (a, d)
    classes, primitive = [0] * (n_terms + 1), [0] * (n_terms + 1)
    for a in range(1, n_terms + 1):
        for d in range(1, n_terms // a + 1):
            classes[a * d] += d
            g = gcd(a, d)  # the content gcd(g, b) depends on b mod g only
            primitive[a * d] += d // g * sum(1 for b in range(g) if gcd(g, b) == 1)
    return classes, primitive


# every N <= 400, and around each square and pronic number up to 41^2, where
# isqrt(N) and N // (isqrt(N) + 1) change
SPLIT_SIZES = sorted(
    set(range(1, 401))
    | {n for s in range(1, 41) for n in (s * s - 1, s * s, s * s + 1, s * s + s, s * s + s + 1)} - {0}
)


def test_hyperbola_split_visits_every_pair_once():
    classes, primitive = enumerations_by_nested_loops(SPLIT_SIZES[-1])
    for n in SPLIT_SIZES:  # the coefficient of n does not depend on the table's length
        assert count_classes_by_det(n).coeffs == tuple(classes[: n + 1]), n
        assert count_primitive_by_det(n).coeffs == tuple(primitive[: n + 1]), n


def member_by_factoring(x: ExtMatrix, u: Fraction, v: Fraction) -> bool:
    # the definition: check every support prime and every prime of the
    # denominators of u and v
    primes = set(x.s.support) | set(x.z.support) | set(x.s_prime.support)
    primes |= set(factor(u.denominator)) | set(factor(v.denominator))
    for p in primes:
        top = x.s.value_at(p) * u + x.z.value_at(p) * v
        if top != 0 and valuation(top, p) < 0:
            return False
        bottom = x.s_prime.value_at(p) * v
        if bottom != 0 and valuation(bottom, p) < 0:
            return False
    return True


supernaturals = st.one_of(
    st.just(ZERO_EVERYWHERE),
    st.dictionaries(st.sampled_from([2, 3, 5, 7, 11]), st.one_of(st.none(), st.integers(1, 3)), max_size=3).map(
        ComponentwiseProfinite.of
    ),
)
fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 360))


@settings(max_examples=200, deadline=None)
@given(st.builds(ExtMatrix, supernaturals, supernaturals, supernaturals), fractions, fractions)
def test_membership_without_factoring_matches_the_definition(x, u, v):
    assert ext_membership(x, u, v) == member_by_factoring(x, u, v)


# CLI literals survive a print-and-parse round trip


@settings(deadline=None)
@given(st.builds(IntMatrix2, entries, entries, entries, entries))
def test_matrix_literal_round_trip(m):
    assert parse_matrix(str(m)) == m


def moebius_or_none(*vals):
    try:
        return MoebiusMatrix(*vals)
    except Degenerate:
        return None


# fractional entries normalize to coprime integers on construction
moebius = st.builds(moebius_or_none, fractions, fractions, fractions, fractions).filter(lambda g: g is not None)


@settings(deadline=None)
@given(moebius)
def test_moebius_literal_round_trip(g):
    assert parse_moebius(str(g)) == g


@settings(deadline=None)
@given(st.builds(BigPictureVertex.of, fractions.filter(lambda f: f > 0), fractions))
def test_vertex_literal_round_trip(v):
    assert parse_vertex(str(v)) == v


@settings(deadline=None)
@given(supernaturals)
def test_supernatural_literal_round_trip(z):
    assert parse_supernatural(str(z)) == z


# the divisibility lattice and the hyper-distance

small = st.integers(1, 12)
classes = st.builds(lambda a, d, b: MatrixClass(a, b % d, d), small, small, st.integers(0, 11))
small_entries = st.integers(-12, 12)
small_nonsingular = st.builds(IntMatrix2, small_entries, small_entries, small_entries, small_entries).filter(
    lambda m: m.det() != 0
)
# these generate GL2(Z)
elementary = st.sampled_from(
    [
        IntMatrix2(1, 1, 0, 1),
        IntMatrix2(1, -1, 0, 1),
        IntMatrix2(1, 0, 1, 1),
        IntMatrix2(0, 1, 1, 0),
        IntMatrix2(-1, 0, 0, 1),
    ]
)
unimodular = st.lists(elementary, max_size=12).map(lambda us: reduce(matmul, us, IntMatrix2.identity()))


@settings(max_examples=300, deadline=None)
@given(classes, classes)
def test_absorption(x, y):
    assert join(x, meet(x, y)) == x
    assert meet(x, join(x, y)) == x


@settings(max_examples=300, deadline=None)
@given(classes, classes, small_nonsingular)
def test_modular_law(x, y, m):
    z = hnf(m @ x.to_matrix())  # a multiple of x, so x | z
    assert divides(x, z)
    assert join(x, meet(y, z)) == meet(join(x, y), z)


@settings(max_examples=300, deadline=None)
@given(classes, classes)
def test_divides_iff_meet_is_the_smaller(x, y):
    assert divides(x, y) == (meet(x, y) == x)


@settings(max_examples=300, deadline=None)
@given(classes, classes)
def test_distance_symmetric_and_one_exactly_on_the_diagonal(x, y):
    assert hyper_distance(x, y) == hyper_distance(y, x)
    assert (hyper_distance(x, y) == 1) == (x == y)


@settings(max_examples=300, deadline=None)
@given(classes, classes, classes)
def test_multiplicative_triangle_inequality(x, y, z):
    assert hyper_distance(x, z) <= hyper_distance(x, y) * hyper_distance(y, z)


@st.composite
def primitive_and_prime(draw):
    a, d = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    b = draw(st.integers(0, d - 1))
    assume(gcd(a, b, d) == 1 and a * d > 1)
    return MatrixClass(a, b, d), draw(st.sampled_from(sorted(factor(a * d))))


@settings(max_examples=300, deadline=None)
@given(primitive_and_prime())
def test_closed_form_lower_neighbour_is_the_meet(case):
    v, p = case
    n = v.det // p
    below = MatrixClass(*_lower_neighbour(v.a, v.b, v.d, p))
    assert below == meet(v, MatrixClass(n, 0, n))
    assert below.is_primitive
    assert hyper_distance(below, v) == p


def origin_ball_by_meets(radius):
    # the construction ball() replaced: filter all classes, one meet per edge
    classes = [m for n in range(1, radius + 1) for m in classes_with_det(n) if m.is_primitive]
    index = {m: i for i, m in enumerate(classes)}
    edges = [
        (index[meet(m, MatrixClass(m.det // p, 0, m.det // p))], i, p)
        for i, m in enumerate(classes)
        for p in factor(m.det)
    ]
    return tuple(classes), tuple(sorted(edges))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40))
def test_origin_ball_matches_the_meet_construction(radius):
    g = ball(BigPictureVertex.of(1), radius)
    assert (g.classes, g.edges) == origin_ball_by_meets(radius)


@settings(max_examples=300, deadline=None)
@given(unimodular, small_nonsingular)
def test_hnf_invariant_under_gl2z(u, m):
    assert abs(u.det()) == 1
    assert hnf(u @ m) == hnf(m)


# the projective action on extension classes

moebius_primes = st.sampled_from([2, 3, 5, 7])


def witness_chain(p, exponents):
    # s(p^e0) -> s(p^e1) -> ... composed into one matrix
    steps = (prime_power_witness(p, k, u) for k, u in zip(exponents, exponents[1:]))
    return reduce(matmul, steps, MoebiusMatrix.identity())


moebius_actions = st.one_of(
    st.builds(witness_chain, moebius_primes, st.lists(st.integers(1, 4), min_size=2, max_size=4)),
    st.just(MoebiusMatrix.identity()),
    st.just(MoebiusMatrix(1, 1, 0, -1)),
    small_nonsingular.map(lambda m: MoebiusMatrix(*m.entries())),
)
profinite_points = st.one_of(
    st.just(ZERO_EVERYWHERE),
    st.builds(
        lambda p, k, q: s_of(p**k) if q is None else multiply(s_of(p**k), p_infinity(q)),
        moebius_primes,
        st.integers(0, 4),
        st.one_of(st.none(), moebius_primes),
    ),
)


@st.composite
def chained_steps(draw):
    # g carries s(p^e0) to s(p^ei) and h carries that on to s(p^en), so both
    # steps are defined
    p = draw(moebius_primes)
    es = draw(st.lists(st.integers(1, 4), min_size=3, max_size=5))
    i = draw(st.integers(1, len(es) - 2))
    return witness_chain(p, es[: i + 1]), witness_chain(p, es[i:]), s_of(p ** es[0])


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.tuples(moebius_actions, moebius_actions, profinite_points), chained_steps()))
def test_moebius_apply_is_a_right_action(case):
    # most independent draws leave the representable class or hit a vanishing
    # unit; the law is checked wherever the two-step side is defined
    g, h, z = case
    try:
        two_steps = moebius_apply(h, moebius_apply(g, z))
    except DomainError:
        return
    assert moebius_apply(g @ h, z) == two_steps


def test_equiv_decide_finds_every_reachable_image():
    # completeness checked without the linear system: every image of a small
    # element under a small integer matrix must be declared equivalent
    exps = (1, 2, 3, None)
    pool = [
        ComponentwiseProfinite.of(dict(zip(ps, es)))
        for ps in ((), (2,), (3,), (2, 3), (5,))
        for es in product(exps, repeat=len(ps))
    ]
    moves = set()
    for entries in product(range(-4, 5), repeat=4):
        try:
            moves.add(MoebiusMatrix(*entries))
        except Degenerate:
            pass
    reached = set()
    for g in moves:
        for z in pool:
            try:
                reached.add((z, moebius_apply(g, z)))
            except DomainError:
                pass
    assert any(z != image for z, image in reached)
    for z, image in reached:
        verdict = equiv_decide(z, image)
        assert isinstance(verdict, Equivalent), (str(z), str(image), verdict)
        assert moebius_apply(verdict.witness, z) == image


# the local posets against the global invariants


@settings(max_examples=300, deadline=None)
@given(
    st.builds(lambda a, d, b: MatrixClass(a, b % d, d), st.integers(1, 400), st.integers(1, 400), st.integers(0, 399)),
    st.sampled_from([2, 3, 5, 7]),
)
def test_local_invariants_match_the_global_ones(x, p):
    c = localize(x, p)
    assert c.niveau() == niveau(x, p)
    assert c.det_valuation() == valuation(x.det, p)
    assert c.level() == level(x, p)
