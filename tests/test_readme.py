"""The README's library quick start runs as a doctest, so a changed repr or
result fails here instead of drifting in the docs."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 10
    assert result.failed == 0
