"""Property tests for the invariants the big picture, the zeta tables, the
extension classes and the local posets rest on, and for the CLI contract."""

import io
import json
import re
import sys
from array import array
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from fractions import Fraction
from functools import reduce
from itertools import combinations, product, repeat, starmap
from operator import matmul
from math import gcd, isqrt, lcm, prod
from unittest.mock import patch

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from m2z.bigpicture import BigPictureVertex, _upper_neighbours, ball, ball_stream, embed, parse_vertex
from m2z.cli import main
from m2z.errors import Degenerate, DomainError, NotAUnit, NotRepresentable
from m2z.localposet import localize, upward_neighbors
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
    quotient,
)
from m2z.primes import factor, is_prime, valuation
from m2z.supernatural import (
    ZERO_EVERYWHERE,
    ComponentwiseProfinite,
    Equivalent,
    ExtMatrix,
    MoebiusMatrix,
    NotEquivalent,
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
from m2z import textout
from m2z.zeta import SEGMENT, count_classes_by_det, count_primitive_by_det, psi_coeffs, sigma_coeffs

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
    # the definition, one step per ordered pair (a, d): the reference for the
    # symmetric pass, which visits each unordered pair once and the squares apart
    classes, primitive = [0] * (n_terms + 1), [0] * (n_terms + 1)
    for a in range(1, n_terms + 1):
        for d in range(1, n_terms // a + 1):
            classes[a * d] += d
            g = gcd(a, d)  # the content gcd(g, b) depends on b mod g only
            primitive[a * d] += d // g * sum(1 for b in range(g) if gcd(g, b) == 1)
    return classes, primitive


# every N <= 400, and around each square x*x and pronic number x*(x + 1) up to
# 41^2, where the pass gains the square term and the first slice element of x
SPLIT_SIZES = sorted(
    set(range(1, 401))
    | {n for s in range(1, 41) for n in (s * s - 1, s * s, s * s + 1, s * s + s, s * s + s + 1)} - {0}
)

# each side of the pass's segment edges k * SEGMENT, and the first square
# x*x >= k * SEGMENT, which opens segment k or falls just past its start
SEGMENT_EDGE_SIZES = sorted(
    {n for k in (1, 2) for n in (k * SEGMENT - 1, k * SEGMENT, k * SEGMENT + 1)}
    | {3 * SEGMENT}
    | {(isqrt(k * SEGMENT - 1) + 1) ** 2 for k in (1, 2, 3)}
)


def test_hyperbola_split_visits_every_pair_once():
    classes, primitive = enumerations_by_nested_loops(SEGMENT_EDGE_SIZES[-1])
    for n in SPLIT_SIZES + SEGMENT_EDGE_SIZES:  # the coefficient of n does not depend on the table's length
        assert count_classes_by_det(n).coeffs == tuple(classes[: n + 1]), n
        assert count_primitive_by_det(n).coeffs == tuple(primitive[: n + 1]), n
    for n in SEGMENT_EDGE_SIZES:  # the formulas fill each segment's even entries apart: sigma and psi are these counts
        assert sigma_coeffs(n).coeffs == tuple(classes[: n + 1]), n
        assert psi_coeffs(n).coeffs == tuple(primitive[: n + 1]), n


def primitive_by_gcd_pass(n_terms):
    # the route the inversion over the squares replaced: the symmetric pass
    # over the pairs {x, y}, where the content of (a, b; 0, d) is gcd(g, b),
    # g = gcd(a, d), so [0, d) holds d/g copies of units[g], the count of b in
    # [0, g) coprime to g, and g <= isqrt(N)
    units = [0] + [list(map(gcd, repeat(g), range(g))).count(1) for g in range(1, isqrt(n_terms) + 1)]
    coeffs = [0, 1] + list(range(3, n_terms + 2))  # the pairs {1, y}: n + 1 at n
    for x in range(2, len(units)):
        coeffs[x * x] += units[x]
        ys = range(x + 1, n_terms // x + 1)
        old = coeffs[x * ys.start :: x]
        coeffs[x * ys.start :: x] = [c + (x + y) // g * units[g] for c, y, g in zip(old, ys, map(gcd, repeat(x), ys))]
    return coeffs


# where the kept class counts, N // 4 + 1 of them, end at a segment edge
# (N // 4 = SEGMENT - 1, SEGMENT, SEGMENT + 1), and each side of the first
# k^2 * SEGMENT, where the slice of k's sources opens segment k^2
INVERSION_EDGE_SIZES = sorted(
    {4 * SEGMENT - 1, 4 * SEGMENT, 4 * SEGMENT + 3, 4 * SEGMENT + 4}
    | {n for k in (2, 3) for n in (k * k * SEGMENT - 1, k * k * SEGMENT, k * k * SEGMENT + 1)}
)


def test_inversion_over_the_squares_equals_the_gcd_pass():
    primitive = primitive_by_gcd_pass(INVERSION_EDGE_SIZES[-1])
    for n in SEGMENT_EDGE_SIZES + INVERSION_EDGE_SIZES:  # the coefficient of n does not depend on the table's length
        assert count_primitive_by_det(n).coeffs == tuple(primitive[: n + 1]), n


class Writes(list):
    write = list.append


# ints of either sign, some over the 4,300 digits that str refuses by default
table_ints = st.one_of(
    st.integers(),
    st.builds(lambda digits, sign: sign * (10**digits - 1), st.integers(4301, 4400), st.sampled_from([1, -1])),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda width: st.tuples(st.just(width), st.lists(st.tuples(*[table_ints] * width), max_size=40))),
    st.sampled_from([0, 960, 1000, 1990, 9985]),
    st.integers(-1100, 41),
    st.one_of(st.none(), st.just("a,b")),
    st.sampled_from([1, 2, 3, textout.CHUNK_PARTS]),
    st.booleans(),
    st.integers(1, 2100),
)
def test_block_writers_write_the_str_and_json_dumps_text(drawn, lead, shift, header, chunk, machine_words, piece):
    # the drawn rows follow `lead` rows of n + c in column c, so the rows from
    # `start` reach the decimal blocks of 1000 rows on either side of 1000; the
    # writers take the table in segments of `piece` rows, as the CLI streams it
    width, rows = drawn
    columns = [(*range(c, c + lead), *column) for c, column in enumerate([*zip(*rows)] or [()] * width)]
    if machine_words:  # array('q') columns, as the CLI writes its zeta tables: the ints clamped to int64
        columns = [array("q", (min(max(v, -(1 << 63)), (1 << 63) - 1) for v in column)) for column in columns]
    length, start = lead + len(rows), max(0, lead + shift)
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as cli.main lifts it
    try:
        csv = "".join(f"{n}" + "".join(f",{column[n]}" for column in columns) + "\n" for n in range(start, length))
        arrays = [json.dumps([*column[start:]]) for column in columns]
        segments = [tuple(column[lo : lo + piece] for column in columns) for lo in range(0, length, piece)]
        writes = Writes()
        textout.write_csv(writes, header, segments, start)
        with patch.object(textout, "CHUNK_PARTS", chunk):
            assert ["".join(textout.json_ints([s[c] for s in segments], start)) for c in range(width)] == arrays
    finally:
        sys.set_int_max_str_digits(digits)
    assert "".join(writes) == ("" if header is None else header + "\n") + csv
    # one write per decimal block, cut again at each segment edge inside it
    cuts = [start, *(k for k in range(start + 1, length) if k % 1000 == 0 or k % piece == 0), length]
    assert [text.count("\n") for text in writes[header is not None :]] == [b - a for a, b in zip(cuts, cuts[1:]) if b > a]


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


classes_to_400 = st.builds(
    lambda a, d, b: MatrixClass(a, b % d, d), st.integers(1, 400), st.integers(1, 400), st.integers(0, 399)
)


@settings(max_examples=300, deadline=None)
@given(classes_to_400, classes_to_400)
def test_distance_is_the_product_of_the_quotient_determinants(x, y):
    w = meet(x, y)
    assert hyper_distance(x, y) == quotient(w, x).det() * quotient(w, y).det()


def local_class(m, p):
    # the p-component of m as a global class, (p^k, z; 0, p^l)
    c = localize(m, p)
    return MatrixClass(p**c.k, c.z, p**c.l)


@settings(max_examples=300, deadline=None)
@given(classes_to_400, classes_to_400)
def test_distance_factors_prime_by_prime(x, y):
    primes = factor(x.det * y.det)
    local = [hyper_distance(local_class(x, p), local_class(y, p)) for p in primes]
    assert all(d == p ** valuation(d, p) for d, p in zip(local, primes))
    assert hyper_distance(x, y) == prod(local)


@st.composite
def primitive_and_prime(draw):
    a, d = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    b = draw(st.integers(0, d - 1))
    assume(gcd(a, b, d) == 1)
    return MatrixClass(a, b, d), draw(st.sampled_from(sorted({2, 3, 5, 7, *factor(a * d)})))


@settings(max_examples=300, deadline=None)
@given(primitive_and_prime())
def test_closed_form_upper_neighbours_are_the_meet_inverses(case):
    v, p = case
    above = [MatrixClass(*w) for w in _upper_neighbours(v.a, v.b, v.d, p)]
    for w in above:
        assert w.is_primitive
        assert w.det == p * v.det
        n = w.det // p
        assert meet(w, MatrixClass(n, 0, n)) == v
        assert hyper_distance(v, w) == p
    assert len(above) == p + 1 - (v.det % p == 0)
    local = [localize(w, p) for w in above]
    assert len(set(local)) == len(local)
    assert set(local) <= set(upward_neighbors(localize(v, p)))


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


def edges_by_upper_neighbours(radius):
    # every upper neighbour from _upper_neighbours, looked up in a dict of the
    # triple stream; ball_stream reads most lifts' indices as ranges instead
    index = {m: i for i, m in enumerate(ball_stream(MatrixClass(1, 0, 1), radius)[2])}
    primes = [p for p in range(2, radius + 1) if is_prime(p)]
    for (a, b, d), i in index.items():
        for p in (p for p in primes if p * a * d <= radius):
            for w in _upper_neighbours(a, b, d, p):
                yield i, index[w], p


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 150))
def test_streamed_edges_match_the_upper_neighbours(radius):
    assert list(ball_stream(MatrixClass(1, 0, 1), radius)[3]) == list(edges_by_upper_neighbours(radius))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 80))
def test_origin_ball_counts_are_its_stream_lengths(radius):
    vertices, edges, classes, edge_stream = ball_stream(MatrixClass(1, 0, 1), radius)
    assert (vertices, edges) == (len(list(classes)), len(list(edge_stream)))


def moved_ball_by_hnf(center, radius):
    # the route ball_stream's closed form replaced: each origin class times
    # the centre's matrix through hnf and primitive_decompose, then sorted by
    # (det, a, b) with the edges re-ranked
    _, _, triples, edges = ball_stream(MatrixClass(1, 0, 1), radius)
    g = center.to_matrix()
    moved = [prim(IntMatrix2(a, b, 0, d) @ g) for a, b, d in triples]
    order = sorted(range(len(moved)), key=lambda i: (moved[i].det, moved[i].a, moved[i].b))
    rank = {old: new for new, old in enumerate(order)}
    ranked = sorted((min(rank[i], rank[j]), max(rank[i], rank[j]), p) for i, j, p in edges)
    return tuple(map(moved.__getitem__, order)), tuple(ranked)


@st.composite
def primitive_centres(draw):
    a = draw(st.integers(1, 10**6))
    d = draw(st.integers(1, 10**6 // a))
    b = draw(st.integers(0, d - 1))
    assume(gcd(a, b, d) == 1)
    return MatrixClass(a, b, d)


@settings(max_examples=100, deadline=None)
@given(primitive_centres(), st.integers(1, 20))
@example(MatrixClass(1, 0, 1), 30)
@example(MatrixClass(2, 1, 3), 40)
@example(MatrixClass(1, 0, 10**12 + 39), 20)
@example(embed(parse_vertex("M=625/16,r=3/16")), 30)
@example(embed(parse_vertex(f"M={2**123 + 1},r=1/3")), 60)  # det ~2^126
def test_moved_ball_matches_the_hnf_route(center, radius):
    vertices, edges, triples, edge_stream = ball_stream(center, radius)
    classes, moved_edges = tuple(starmap(MatrixClass, triples)), tuple(edge_stream)
    assert (classes, moved_edges) == moved_ball_by_hnf(center, radius)
    assert (vertices, edges) == (len(classes), len(moved_edges))


# hnf, meet and join against the definitions of their lattices: (u, v) lies
# in the row lattice of (a, b; 0, d) iff a | u and d | v - (u/a)*b


def in_lattice(c: MatrixClass, u: int, v: int) -> bool:
    return u % c.a == 0 and (v - u // c.a * c.b) % c.d == 0


@settings(max_examples=300, deadline=None)
@given(nonsingular)
def test_hnf_spans_the_row_lattice(m):
    # both rows lie in L_h, and the equal index makes L_h the whole row lattice
    h = hnf(m)
    assert all(in_lattice(h, x, y) for x, y in m.rows())
    assert h.det == abs(m.det())


small_classes = st.builds(lambda a, d, b: MatrixClass(a, b % d, d), st.integers(1, 6), st.integers(1, 6), st.integers(0, 5))


@settings(max_examples=100, deadline=None)
@given(small_classes, small_classes)
def test_join_is_the_intersection_on_a_box(x, y):
    # membership repeats with period lcm(d_x, d_y) in v; the first entry of
    # the join divides lcm(a_x, a_y) * lcm(d_x, d_y), so the box holds it
    j = join(x, y)
    period = lcm(x.d, y.d)
    for u in range(-lcm(x.a, y.a) * period, lcm(x.a, y.a) * period + 1):
        for v in range(period):
            assert in_lattice(j, u, v) == (in_lattice(x, u, v) and in_lattice(y, u, v)), (u, v)


huge = st.integers(1, 2**200)
huge_classes = st.builds(lambda a, d, b: MatrixClass(a, b % d, d), huge, huge, st.integers(0, 2**200))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(classes, classes), st.tuples(huge_classes, huge_classes)))
def test_meet_and_join_determinants_multiply_to_the_product(pair):
    # [Z^2 : L_x + L_y] * [Z^2 : L_x & L_y] = [Z^2 : L_x] * [Z^2 : L_y]
    x, y = pair
    assert meet(x, y).det * join(x, y).det == x.det * y.det


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


def solve_rational_system(rows, rhs):
    """Gauss-Jordan over Q: (particular solution, nullspace basis), or None."""
    ncols = len(rows[0])
    aug = [row[:] + [r] for row, r in zip(rows, rhs)]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, len(aug)) if aug[i][col] != 0), None)
        if pivot_row is None:
            continue
        aug[rank], aug[pivot_row] = aug[pivot_row], aug[rank]
        scale = aug[rank][col]
        aug[rank] = [v / scale for v in aug[rank]]
        for i, row in enumerate(aug):
            if i != rank and row[col] != 0:
                factor_ = row[col]
                aug[i] = [v - factor_ * w for v, w in zip(row, aug[rank])]
        pivots.append(col)
        rank += 1
    if any(row[-1] != 0 for row in aug[rank:]):
        return None
    particular = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        particular[col] = aug[i][-1]
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -aug[i][f]
        basis.append(vec)
    return particular, basis


def validated_witness(vec, z, z_target):
    # the oracle checks its own candidates by applying them, so it does not
    # rest on the closed form's c != d condition
    try:
        g = MoebiusMatrix(*vec)
        if moebius_apply(g, z) == z_target:
            return g
    except (Degenerate, NotAUnit, NotRepresentable):
        pass
    return None


def equiv_by_gauss_jordan(z, z_prime):
    # the decision the two-line closed form replaced, for z and z_prime of
    # equal nonempty support: the 4x4 system in (a, b, c, d) normalized by
    # a + c = 1 = b + d, then the first |support| + 3 integers t = 0, 1, -1,
    # ... on its solution line
    if z == z_prime:
        return Equivalent(MoebiusMatrix.identity())
    one, zero = Fraction(1), Fraction(0)
    rows = [[one, zero, one, zero], [zero, one, zero, one]]
    rhs = [one, one]
    for p in z.support:
        zp, wp = Fraction(z.value_at(p)), Fraction(z_prime.value_at(p))
        rows.append([-wp, one, -wp * zp, zp])  # b + zp*d = wp*(a + zp*c)
        rhs.append(zero)
    solved = solve_rational_system(rows, rhs)
    if solved is None:
        return NotEquivalent("infeasible-system")
    particular, basis = solved
    direction = basis[0] if basis else [zero] * 4
    for i in range(len(z.support) + 3 if basis else 1):
        t = (i + 1) // 2 if i % 2 else -(i // 2)
        witness = validated_witness([v + t * w for v, w in zip(particular, direction)], z, z_prime)
        if witness:
            return Equivalent(witness)
    return NotEquivalent("infeasible-system")


def test_closed_form_equiv_matches_gauss_jordan():
    # every ordered pair of equal support within {2, 3, 5}, exponents 1, 2, 3
    # and inf: the verdict and the witness itself must agree
    pairs = 0
    for k in (1, 2, 3):
        for ps in combinations((2, 3, 5), k):
            pool = [ComponentwiseProfinite.of(dict(zip(ps, es))) for es in product((1, 2, 3, None), repeat=k)]
            for z, z_prime in product(pool, repeat=2):
                assert equiv_decide(z, z_prime) == equiv_by_gauss_jordan(z, z_prime), (str(z), str(z_prime))
                pairs += 1
    assert pairs == 4912


# the local posets against the global invariants


@settings(max_examples=300, deadline=None)
@given(classes_to_400, st.sampled_from([2, 3, 5, 7]))
def test_local_invariants_match_the_global_ones(x, p):
    c = localize(x, p)
    assert c.niveau() == niveau(x, p)
    assert c.det_valuation() == valuation(x.det, p)
    assert c.level() == level(x, p)


# the CLI contract over a small argv grammar: every call ends in exit 0, 1 or
# 2, exit 0 writes the format its subcommand claims, and a literal outside the
# number grammar (ASCII digits, an optional sign, one "/" in a rational before
# a nonzero denominator) is one "parse error:" line

# 10^3000 - 1 makes answers longer than int()'s default 4,300-digit str cap
boundary_integers = st.sampled_from([8191, 10**30, -(10**30), 1000000000000000003, 10**3000 - 1])
integer_tokens = st.one_of(st.integers(-40, 40), boundary_integers).map(str)
rational_tokens = st.one_of(integer_tokens, st.builds("{}/{}".format, integer_tokens, st.integers(1, 30)))
# the removed forms first: decimals, exponents, "_", non-ASCII digits and
# zero denominators
bad_numbers = st.sampled_from(
    ["0.5", "1e3", "1_000", "٣", "1/0", "-2/000", "1.", "½", "0x10", "inf", "", "x", "1/", "/2", "1/-2", "--1"]
)
bad_integers = st.one_of(bad_numbers, st.sampled_from(["1/2", "3/1"]))
primes_and_not = st.sampled_from([2, 3, 5, 7, 11, 4, 1, 0, 1000000000000000003]).map(str)
exponents = st.one_of(st.integers(0, 6).map(str), st.sampled_from(["inf", "10000000"]))


def joined(fmt, *parts):
    return st.builds(fmt.format, *parts)


def factor_literals(base=primes_and_not, exponent=exponents):
    return st.lists(joined("{}^{}", base, exponent), min_size=1, max_size=3).map("*".join)


supernatural_literals = st.one_of(st.sampled_from(["0", "1"]), factor_literals())


def matrix_literals(number):
    return joined("{},{};{},{}", number, number, number, number)


def vertex_literals(m, r):
    return joined("M={},r={}", m, r)


def one_bad(fmt, safe, bad):
    """``fmt`` filled with the ``safe`` parts but one, which is drawn from ``bad``."""
    return st.builds(lambda i, t: fmt.format(*safe[:i], t, *safe[i + 1 :]), st.integers(0, len(safe) - 1), bad)


# kind: (documented literals, literals outside the grammar, one literal that
# parses and fails nothing next to the one under test)
LITERALS = {
    "matrix": (
        matrix_literals(integer_tokens),
        st.one_of(one_bad("{},{};{},{}", ("1", "0", "0", "1"), bad_integers), st.sampled_from(["1,2;3", "1;2;3", "1,2,3;4,5,6"])),
        "1,0;0,1",
    ),
    "class": (
        st.one_of(matrix_literals(integer_tokens), vertex_literals(rational_tokens, rational_tokens)),
        st.one_of(one_bad("M={},r={}", ("1", "0"), bad_numbers), vertex_literals(rational_tokens, rational_tokens).map(
            lambda v: ",".join(reversed(v.split(","))))),  # the fields in the order r, M
        "M=1,r=0",
    ),
    "rational_matrix": (matrix_literals(rational_tokens), one_bad("{},{};{},{}", ("1", "0", "0", "1"), bad_numbers), "1,0;0,1"),
    "supernatural": (
        supernatural_literals,
        st.one_of(
            factor_literals(base=st.sampled_from(["٣", "2.0", "1e1", "x", ""])),
            factor_literals(exponent=st.sampled_from(["1e3", "1_0", "٣", "-1", "0.5", "Inf"])),
        ),
        "2^1",
    ),
    "rational": (rational_tokens, bad_numbers, "1/3"),
}

def options(*parts):
    """The option words of a subcommand: "--name" then each drawn value, as text."""
    names = parts[::2]
    return st.tuples(*parts[1::2]).map(lambda values: [w for n, v in zip(names, values) for w in (n, str(v))])


with_header = st.sampled_from([[], ["--header"]])
zeta_options = st.tuples(
    options(
        "--which", st.sampled_from(["M", "P", "Pbar"]), "--terms", st.integers(-1, 300),
        "--mode", st.sampled_from(["formula", "enumerate", "both"]), "--format", st.sampled_from(["csv", "json"]),
    ),
    with_header,
).map(lambda o: o[0] + o[1])

# subcommand: (the words before the literals, its literal kinds, each after
# its option name or positional, and its other options)
COMMANDS = {
    "hnf": (["hnf"], [(None, "matrix")], st.just([])),
    "dist": (["dist"], [(None, "class"), (None, "class")], st.just([])),
    "ball": (["ball"], [(None, "class")], options("--radius", st.integers(-1, 30), "--format", st.sampled_from(["json", "dot"]))),
    "zeta": (["zeta"], [], zeta_options),
    "equiv": (["ext", "equiv"], [(None, "supernatural"), (None, "supernatural")], st.just([])),
    "apply": (["ext", "apply"], [(None, "rational_matrix"), (None, "supernatural")], st.just([])),
    "member": (
        ["ext", "member"],
        [(None, "supernatural"), (None, "rational"), (None, "rational"), ("--s", "supernatural"), ("--sprime", "supernatural")],
        st.just([]),
    ),
    "goormaghtigh": (["goormaghtigh"], [], st.tuples(options("--bound", st.integers(-1, 10**5)), with_header).map(
        lambda o: o[0] + o[1])),
}

DOT_LINE = re.compile(r'graph picture \{|  n\d+ \[label="M=\d+(/\d+)? r=\d+/\d+", det=\d+\];|  n\d+ -- n\d+ \[label=\d+\];|\}')


def claims_its_format(command, argv, out):
    lines = out.splitlines()
    if command in ("hnf", "dist", "equiv") or (command in ("ball", "zeta") and "json" in argv):
        return json.loads(out, parse_int=str) is not None  # no int() digit cap on the answer
    if command == "ball":
        return all(DOT_LINE.fullmatch(line) for line in lines)
    if command in ("zeta", "goormaghtigh"):
        return all(re.fullmatch(r"-?\d+(,-?\d+)+|[a-z,]+", line) for line in lines)
    if command == "apply":
        return out == f"{parse_supernatural(out)}\n"
    return out in ("true\n", "false\n")  # member


@st.composite
def cli_calls(draw):
    """(subcommand, argv, whether one literal is outside the grammar)."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    words, slots, options = COMMANDS[command]
    bad = draw(st.one_of(st.none(), st.integers(0, len(slots) - 1))) if slots else None
    argv, positionals = [*words, *draw(options)], []
    for i, (flag, kind) in enumerate(slots):
        documented, outside, safe = LITERALS[kind]
        literal = draw(documented) if bad is None else draw(outside) if i == bad else safe
        if flag:
            argv += [flag, literal]
        else:
            positionals.append(literal)
    return command, argv + (["--", *positionals] if positionals else []), bad is not None


@settings(max_examples=400, deadline=timedelta(seconds=3))
@given(cli_calls())
def test_every_cli_call_keeps_the_contract(call):
    command, argv, malformed = call
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if malformed:
        assert (code, out) == (2, ""), argv
        assert err.startswith("parse error:") and err.count("\n") == 1, (argv, err)
    elif code == 0:
        assert claims_its_format(command, argv, out), (argv, out[:200])
    elif code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert out == "" or (command == "apply" and "error" in json.loads(out)), (argv, out)
    else:
        assert code == 2, argv
        assert out == "" and err.startswith(("parse error:", "too large:")) and err.count("\n") == 1, (argv, err)
