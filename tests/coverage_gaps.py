"""Print the lines of src/m2z that no in-process test runs.

Runs pytest in this process under ``sys.monitoring`` (Python 3.12 or later,
standard library only) and records each line of a module under src/m2z the
first time it runs.  A line that only a child process runs (``m2z.cli.run``,
a forked zeta producer, a ``python -m m2z.cli`` call) counts as not run.

    PYTHONPATH=src python tests/coverage_gaps.py [pytest arguments]

The arguments default to ``-q tests``.  The report is one ``path:line:
source`` row per line never run, then a count with pytest's exit status.  It
is a list to read, not a gate: the script exits 0 once pytest has run.
"""

import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "m2z"


def code_lines(code: types.CodeType) -> set[int]:
    """The source lines of ``code`` and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def main(args: list[str]) -> int:
    import pytest

    monitoring = sys.monitoring
    tool = monitoring.COVERAGE_ID
    ran: set[tuple[str, int]] = set()
    prefix = f"{PACKAGE}/"

    def on_line(code, line):
        if code.co_filename.startswith(prefix):
            ran.add((code.co_filename, line))
        return monitoring.DISABLE  # each line is reported once, then costs nothing

    monitoring.use_tool_id(tool, "coverage_gaps")
    monitoring.register_callback(tool, monitoring.events.LINE, on_line)
    monitoring.set_events(tool, monitoring.events.LINE)
    try:
        status = pytest.main(args or ["-q", str(ROOT / "tests")])
    finally:
        monitoring.set_events(tool, 0)
        monitoring.free_tool_id(tool)

    missing = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = code_lines(compile(source, str(path), "exec"))
        text = source.splitlines()
        total += len(lines)
        for line in sorted(lines - {n for name, n in ran if name == str(path)}):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missing += 1
    print(f"{missing} of {total} lines of src/m2z never ran in process (pytest exit status {int(status)})")
    return 0 if status in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED) else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
