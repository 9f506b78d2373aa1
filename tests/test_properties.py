"""Property tests for the invariants the big picture rests on."""

from hypothesis import given, settings
from hypothesis import strategies as st

from m2z.matrices import IntMatrix2, hnf, hyper_distance, primitive_decompose

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
