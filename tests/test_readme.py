"""The README's library quick start runs as a doctest, so a changed repr or
result fails here instead of drifting in the docs."""

import doctest
import fractions
import importlib
import inspect
import typing
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 10
    assert result.failed == 0


def _annotated(module):
    """The public functions and classes defined in ``module``, and the methods,
    property getters and class methods of those classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isroutine(obj) and not inspect.isclass(obj):
            continue
        if obj.__module__ != module.__name__:  # imported, checked where it is defined
            continue
        yield obj
        if inspect.isclass(obj):
            for member in vars(obj).values():
                member = getattr(member, "fget", getattr(member, "__func__", member))
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("name", ["bigpicture", "errors", "localposet", "matrices", "primes", "supernatural", "zeta"])
def test_annotations_resolve_once_fraction_is_supplied(name):
    # the README's design note: the library imports fractions only where it
    # builds a rational, so Fraction in an annotation is documentation only
    module = importlib.import_module(f"m2z.{name}")
    for obj in _annotated(module):
        typing.get_type_hints(obj, localns={"Fraction": fractions.Fraction})
