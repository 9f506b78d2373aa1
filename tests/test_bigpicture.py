import random
from fractions import Fraction

import pytest

from m2z.bigpicture import (
    BigPictureVertex,
    ball,
    bp_leq,
    delta,
    delta_direct,
    embed,
    export_dot,
    export_json,
    parse_vertex,
    unembed,
    PictureGraph,
)
from m2z.errors import NotPrimitive
from m2z.matrices import MatrixClass, classes_with_det, divides, hyper_distance
from m2z.primes import is_prime

ONE = BigPictureVertex.of(1)


def random_vertex(rng, bound=24):
    m = Fraction(rng.randint(1, bound), rng.randint(1, bound))
    h = rng.randint(1, bound)
    return BigPictureVertex.of(m, Fraction(rng.randrange(h), h))


def random_primitive(rng, max_det=200):
    while True:
        n = rng.randint(1, max_det)
        divs = [a for a in range(1, n + 1) if n % a == 0]
        a = rng.choice(divs)
        d = n // a
        x = MatrixClass(a, rng.randrange(d), d)
        if x.is_primitive:
            return x


class TestVertex:
    def test_canonicalization(self):
        v = BigPictureVertex.of(Fraction(3, 2), Fraction(7, 2))
        assert (v.g, v.h) == (1, 2)
        v = BigPictureVertex.of(2, Fraction(-1, 3))
        assert (v.g, v.h) == (2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            BigPictureVertex(Fraction(-1), 0, 1)
        with pytest.raises(ValueError):
            BigPictureVertex(Fraction(1), 2, 4)

    def test_parse(self):
        assert parse_vertex("M=3/2,r=1/2") == BigPictureVertex.of(Fraction(3, 2), Fraction(1, 2))
        assert parse_vertex("M=2,r=0") == BigPictureVertex.of(2)
        with pytest.raises(ValueError):
            parse_vertex("M=1")


class TestEmbedding:
    def test_one_embeds_to_identity(self):
        assert embed(ONE) == MatrixClass(1, 0, 1)

    def test_examples(self):
        assert embed(BigPictureVertex.of(Fraction(3, 2), Fraction(1, 2))) == MatrixClass(3, 1, 2)
        assert embed(BigPictureVertex.of(2)) == MatrixClass(2, 0, 1)

    def test_m_denominator_not_dividing_h(self):
        # N must clear both denominators, not just h
        v = BigPictureVertex.of(Fraction(3, 4), Fraction(1, 2))
        m = embed(v)
        assert m == MatrixClass(3, 2, 4)
        assert m.is_primitive

    def test_unembed_examples(self):
        assert unembed(MatrixClass(1, 0, 1)) == ONE
        assert unembed(MatrixClass(3, 1, 2)) == BigPictureVertex.of(Fraction(3, 2), Fraction(1, 2))
        with pytest.raises(NotPrimitive):
            unembed(MatrixClass(2, 0, 2))

    def test_roundtrips(self):
        rng = random.Random(301)
        for _ in range(300):
            v = random_vertex(rng)
            m = embed(v)
            assert m.is_primitive
            assert unembed(m) == v
        for _ in range(300):
            m = random_primitive(rng, 10**4)
            assert embed(unembed(m)) == m


class TestDistance:
    def test_self_distance(self):
        rng = random.Random(303)
        for _ in range(20):
            v = random_vertex(rng)
            assert delta(v, v) == 1
            assert delta_direct(v, v) == 1

    def test_examples(self):
        assert delta(ONE, BigPictureVertex.of(2)) == 2
        assert delta(BigPictureVertex.of(2), BigPictureVertex.of(Fraction(1, 2))) == 4
        assert delta_direct(BigPictureVertex.of(2), BigPictureVertex.of(Fraction(1, 2))) == 4
        assert delta_direct(BigPictureVertex.of(Fraction(3, 2), Fraction(1, 2)), ONE) == 6

    def test_alpha_route_agrees(self):
        rng = random.Random(305)
        for _ in range(300):
            x, y = random_vertex(rng), random_vertex(rng)
            assert delta(x, y) == delta_direct(x, y)


class TestOrder:
    def test_reflexive(self):
        rng = random.Random(307)
        for _ in range(20):
            v = random_vertex(rng)
            assert bp_leq(v, v)

    def test_examples(self):
        assert bp_leq(ONE, BigPictureVertex.of(2))
        assert not bp_leq(BigPictureVertex.of(2), BigPictureVertex.of(Fraction(1, 2)))

    def test_agrees_with_divisibility_small(self):
        g = ball(ONE, 12)
        embeds = [embed(v) for v in g.vertices]
        for i, x in enumerate(embeds):
            for j, y in enumerate(embeds):
                assert bp_leq(g.vertices[i], g.vertices[j]) == divides(x, y)


class TestBall:
    def test_radius_one(self):
        g = ball(ONE, 1)
        assert g.vertices == (ONE,)
        assert g.edges == ()

    def test_radius_two(self):
        g = ball(ONE, 2)
        assert len(g.vertices) == 4
        assert len(g.edges) == 3
        assert all(p == 2 for _, _, p in g.edges)

    def test_counts_by_distance_match_psi(self):
        g = ball(ONE, 6)
        by_dist = {}
        for v in g.vertices:
            by_dist[delta(ONE, v)] = by_dist.get(delta(ONE, v), 0) + 1
        assert [by_dist.get(n, 0) for n in range(1, 7)] == [1, 3, 4, 6, 6, 12]

    def test_edges_are_prime_distances(self):
        g = ball(ONE, 10)
        embeds = [embed(v) for v in g.vertices]
        for i, j, p in g.edges:
            assert hyper_distance(embeds[i], embeds[j]) == p
        # and no prime-distance pair is missing
        edge_set = {(i, j) for i, j, _ in g.edges}
        primes = {2, 3, 5, 7}
        for i in range(len(embeds)):
            for j in range(i + 1, len(embeds)):
                if hyper_distance(embeds[i], embeds[j]) in primes:
                    assert (i, j) in edge_set

    @pytest.mark.parametrize(
        "center, radius",
        [
            (BigPictureVertex.of(Fraction(3, 2), Fraction(1, 2)), 12),
            (BigPictureVertex.of(5, Fraction(2, 3)), 6),
            (BigPictureVertex.of(Fraction(2, 9), Fraction(1, 3)), 4),
        ],
        ids=str,
    )
    def test_off_center_ball(self, center, radius):
        # delta(c, v) <= R forces det v <= det(embed c) * R, so scanning that
        # determinant range finds the whole ball by its definition
        c = embed(center)
        expected = {
            unembed(m)
            for n in range(1, c.det * radius + 1)
            for m in classes_with_det(n)
            if m.is_primitive and hyper_distance(c, m) <= radius
        }
        g = ball(center, radius)
        assert len(g.vertices) == len(expected)
        assert set(g.vertices) == expected
        embeds = [embed(v) for v in g.vertices]
        prime_pairs = set()
        for i in range(len(embeds)):
            for j in range(i + 1, len(embeds)):
                d = hyper_distance(embeds[i], embeds[j])
                if is_prime(d):
                    prime_pairs.add((i, j, d))
        assert set(g.edges) == prime_pairs

    def test_large_determinant_center(self):
        g = ball(BigPictureVertex.of(10**12 + 39), 3)
        assert len(g.vertices) == 8
        assert len(g.edges) == 7

    def test_vertex_ordering_deterministic(self):
        g = ball(ONE, 12)
        keys = [(embed(v).det, embed(v).a, embed(v).b, embed(v).d) for v in g.vertices]
        assert keys == sorted(keys)
        assert list(g.edges) == sorted(g.edges)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            ball(ONE, 0)

    def test_size_guard(self):
        # sum_{n <= 726} psi(n) = 401,074 > MAX_BALL_VERTICES = 400,000
        for center in (ONE, BigPictureVertex.of(Fraction(3, 2), Fraction(1, 2))):
            with pytest.raises(MemoryError):
                ball(center, 726)
        with pytest.raises(MemoryError):
            ball(ONE, 10**12)

    def test_size_guard_weighs_the_centre(self):
        # det embed(centre) has 3325 bits, so each vertex weighs 1 + 3325 // 128 = 26
        center = BigPictureVertex.of(Fraction(10**400 + 1, 7), Fraction(1, 10**300 + 7))
        with pytest.raises(MemoryError, match="over 15384 vertices"):
            ball(center, 300)
        assert len(ball(center, 3).classes) == 8


class TestExport:
    def test_empty_graph(self):
        assert export_dot(PictureGraph((), ())) == "graph picture {\n}\n"

    def test_single_vertex(self):
        text = export_dot(PictureGraph((MatrixClass(1, 0, 1),), ()))
        assert text == 'graph picture {\n  n0 [label="M=1 r=0/1", det=1];\n}\n'

    def test_radius_two_dot(self):
        g = ball(ONE, 2)
        text = export_dot(g)
        assert text.count("--") == 3
        assert text.count("label=") == 4 + 3
        assert text == export_dot(ball(ONE, 2))  # byte stable

    def test_json_shape(self):
        import json

        g = ball(ONE, 2)
        payload = json.loads(export_json(g))
        assert payload["vertices"][0] == {"M": "1/1", "r": "0/1", "det": 1}
        assert [e for e in payload["edges"]] == [list(e) for e in g.edges]
        assert len(payload["vertices"]) == 4
