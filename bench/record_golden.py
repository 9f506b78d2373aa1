"""Record the golden stdout digest and exit code of every call that the
default seed issues in its first cycles, for each workload.

    python3 bench/record_golden.py

Run it only on a commit whose payloads are known good: the benchmark then
requires every later commit to print byte-identical stdout for these calls.
A call that fails its own invariant is not recorded; the script stops.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import ROOT, Launcher
from workloads import GOLDEN, WORKLOADS, check, cycle

SEED = 0
# About twice the cycles one run completes on a 2-CPU machine, so every call
# of a run at the default seed has a golden digest.
CYCLES = {"cli_short": 25, "picture_balls": 26, "number_theory": 22}


def main() -> int:
    with Launcher() as launcher:
        return record(launcher)


def record(launcher: Launcher) -> int:
    for workload in WORKLOADS:
        golden = {}
        for index in range(CYCLES[workload]):
            for call in cycle(workload, SEED, index):
                _, code, out, err, _ = launcher.spawn(["-m", "m2z.cli", *call.argv])
                if not check(call, code, out, err):
                    print(f"error: {workload} {call.argv} fails its invariant (exit {code})", file=sys.stderr)
                    return 1
                golden[call.key] = [code, hashlib.sha256(out).hexdigest()]
        path = GOLDEN / f"{workload}.json"
        path.write_text(json.dumps({"seed": SEED, "cycles": CYCLES[workload], "calls": golden}, indent=0) + "\n")
        print(f"{workload}: {len(golden)} calls -> {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
