"""The immutable value types: equality, hashing, printing and immutability of
the records built on ``m2z.record.Frozen``, and what importing the CLI loads."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import m2z.bigpicture
from m2z.bigpicture import BigPictureVertex, PictureGraph, ball
from m2z.localposet import LocalClass
from m2z.matrices import CharacterSpec, IntMatrix2, MatrixClass
from m2z.supernatural import (
    ONE,
    ZERO_EVERYWHERE,
    ComponentwiseProfinite,
    Equivalent,
    ExtMatrix,
    MoebiusMatrix,
    NotEquivalent,
)
from m2z.zeta import CoefficientTable

WITNESS = MoebiusMatrix(1, 1, 0, -1)

# (record, its fields in order, its exact repr), one per value type
RECORDS = [
    (IntMatrix2(1, -2, 3, 4), (1, -2, 3, 4), "IntMatrix2(a=1, b=-2, c=3, d=4)"),
    (MatrixClass(2, 1, 3), (2, 1, 3), "MatrixClass(a=2, b=1, d=3)"),
    (
        CharacterSpec(-1, {3: -1}),
        (-1, {3: -1}),
        "CharacterSpec(sign_at_minus_one=-1, sign_at_prime={3: -1})",
    ),
    (BigPictureVertex(Fraction(3, 2), 1, 2), (Fraction(3, 2), 1, 2), "BigPictureVertex(M=Fraction(3, 2), g=1, h=2)"),
    (
        PictureGraph((MatrixClass(1, 0, 1), MatrixClass(1, 0, 2)), ((0, 1, 2),)),
        ((MatrixClass(1, 0, 1), MatrixClass(1, 0, 2)), ((0, 1, 2),)),
        "PictureGraph(classes=(MatrixClass(a=1, b=0, d=1), MatrixClass(a=1, b=0, d=2)), edges=((0, 1, 2),))",
    ),
    (
        ComponentwiseProfinite(((2, 1), (3, 4))),
        (((2, 1), (3, 4)), False),
        "ComponentwiseProfinite(components=((2, 1), (3, 4)), zero_everywhere=False)",
    ),
    (MoebiusMatrix(Fraction(1, 2), 2, 0, -4), (1, 4, 0, -8), "MoebiusMatrix(a=1, b=4, c=0, d=-8)"),
    (Equivalent(WITNESS), (WITNESS,), "Equivalent(witness=MoebiusMatrix(a=1, b=1, c=0, d=-1))"),
    (NotEquivalent("infeasible-system"), ("infeasible-system",), "NotEquivalent(reason='infeasible-system')"),
    (
        ExtMatrix(ONE, ONE, ZERO_EVERYWHERE),
        (ONE, ONE, ZERO_EVERYWHERE),
        "ExtMatrix(s=ComponentwiseProfinite(components=(), zero_everywhere=False), "
        "z=ComponentwiseProfinite(components=(), zero_everywhere=False), "
        "s_prime=ComponentwiseProfinite(components=(), zero_everywhere=True))",
    ),
    (CoefficientTable("AxPlusB", (0, 1, 1)), ("AxPlusB", (0, 1, 1)), "CoefficientTable(which='AxPlusB', coeffs=(0, 1, 1))"),
    (LocalClass(3, 1, 2, 4), (3, 1, 2, 4), "LocalClass(p=3, k=1, l=2, z=4)"),
]
IDS = [type(r).__name__ for r, _, _ in RECORDS]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
class TestRecord:
    def test_repr(self, record, fields, text):
        assert repr(record) == text

    def test_hash_is_that_of_the_field_tuple(self, record, fields, text):
        if isinstance(record, CharacterSpec):  # a dict field, hashed by its items
            assert hash(record) == hash((fields[0], frozenset(fields[1].items())))
        else:
            assert hash(record) == hash(fields)

    def test_equal_to_a_rebuilt_copy_only(self, record, fields, text):
        twin = type(record)(*fields)
        assert twin is not record and twin == record and not twin != record
        assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
        assert record != fields and record != object()

    def test_set_and_delete_raise(self, record, fields, text):
        name = type(record).__match_args__[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.unknown = 0
        assert getattr(record, name) == fields[0]

    def test_slotted(self, record, fields, text):
        # PictureGraph alone keeps a __dict__, to cache its vertices
        assert hasattr(record, "__dict__") == isinstance(record, PictureGraph)


def test_equality_stays_within_one_class():
    m, g = IntMatrix2(1, 0, 0, 1), MoebiusMatrix(1, 0, 0, 1)
    assert m != g and g != m and not m == g
    assert len({m, g}) == 2  # equal hashes, unequal records
    assert m.__eq__(g) is NotImplemented
    assert Equivalent(WITNESS) != NotEquivalent("infeasible-system")


def test_keyword_construction_and_defaults():
    assert IntMatrix2(a=1, b=2, c=3, d=4) == IntMatrix2(1, 2, 3, 4)
    assert MatrixClass(a=2, d=3, b=1) == MatrixClass(2, 1, 3)
    assert MoebiusMatrix(a=2, b=0, c=0, d=2) == MoebiusMatrix.identity()
    assert BigPictureVertex(M=2, g=0, h=1) == BigPictureVertex.of(2)
    assert CharacterSpec(sign_at_prime={2: -1}).sign_at_minus_one == 1
    assert ComponentwiseProfinite() == ONE and ComponentwiseProfinite(zero_everywhere=True) == ZERO_EVERYWHERE
    assert ComponentwiseProfinite(components=((5, None),)).support == (5,)
    assert LocalClass(p=2, k=1, l=1) == LocalClass(2, 1, 1, 0)
    assert Equivalent(witness=WITNESS).witness is WITNESS
    assert NotEquivalent(reason="r").reason == "r"
    assert ExtMatrix(s=ONE, z=ONE, s_prime=ONE).s_prime is ONE
    assert CoefficientTable(which="FullMonoid", coeffs=(0, 1)).n_max == 1
    assert PictureGraph(classes=(), edges=()) == PictureGraph((), ())


def test_copy_and_pickle_skip_the_checks(monkeypatch):
    x = ComponentwiseProfinite(((2, 1), (3, None)))
    calls = []
    monkeypatch.setattr("m2z.primes.is_prime", calls.append)  # would fail every prime
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert twin == x and twin is not x
    assert calls == []


def test_each_character_gets_a_fresh_default_dict():
    x, y = CharacterSpec(), CharacterSpec()
    assert x.sign_at_prime == {} and x.sign_at_prime is not y.sign_at_prime


def test_equal_characters_hash_equal_whatever_the_order_of_their_primes():
    assert hash(CharacterSpec(-1, {3: -1, 5: -1})) == hash(CharacterSpec(-1, {5: -1, 3: -1}))
    assert len({CharacterSpec(), CharacterSpec(1, {}), CharacterSpec(-1), CharacterSpec(-1, {})}) == 2


def test_a_character_keeps_a_copy_of_the_mapping_it_was_given():
    signs = {3: -1}
    chi = CharacterSpec(1, signs)
    signs[4] = 7  # a composite key and a sign that the checks refuse
    assert chi.sign_at_prime == {3: -1} and chi.sign_at_prime is not signs


def test_picture_graph_computes_its_vertices_once(monkeypatch):
    calls = []

    def counting_unembed(m):
        calls.append(m)
        return unembed(m)

    unembed = m2z.bigpicture.unembed
    monkeypatch.setattr(m2z.bigpicture, "unembed", counting_unembed)
    g = ball(BigPictureVertex.of(1), 4)
    first = g.vertices
    assert g.vertices is first and len(calls) == len(g.classes) == len(first)
    assert g == PictureGraph(g.classes, g.edges)  # the cache is not a field


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    # the star import runs every library module, which import m2z.cli alone leaves unexecuted
    probe = "import m2z.cli, sys; from m2z import *; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=30)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
