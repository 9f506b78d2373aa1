"""Tests of the benchmark's own logic; no m2z process is started.

    python3 -m pytest -q bench/tests
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from layers import parse_importtime, roots, self_times  # noqa: E402
from run import tail  # noqa: E402
from workloads import WORKLOADS, cycle, hnf_payload, maps_to, member_expected, origin_ball_counts  # noqa: E402


def test_generator_is_deterministic_per_seed():
    for workload in WORKLOADS:
        first = [cycle(workload, 7, i) for i in range(3)]
        again = [cycle(workload, 7, i) for i in range(3)]
        assert first == again
        assert first != [cycle(workload, 8, i) for i in range(3)]
        assert first[0] != first[1]


def test_every_cycle_has_the_same_composition():
    def kinds(calls):
        return sorted((c.exit, c.argv[0] if c.exit == 0 else "") for c in calls)

    for workload in WORKLOADS:
        assert len({tuple(kinds(cycle(workload, seed, i))) for seed in (0, 1) for i in range(4)}) == 1


def test_every_cycle_has_the_same_sizes():
    # The seed and the cycle index draw the contents of each call; radii,
    # term counts, series, modes and formats are the same in every cycle.
    def sizes(calls):
        return tuple(sorted(repr(c.params[:4]) for c in calls if c.check in ("ball", "zeta")))

    for workload in WORKLOADS:
        assert len({sizes(cycle(workload, seed, i)) for seed in (0, 5) for i in range(4)}) == 1
        assert {c.argv for c in cycle(workload, 0, 0)} != {c.argv for c in cycle(workload, 5, 0)}


def test_cli_short_fails_one_call_in_ten():
    calls = cycle("cli_short", 3, 0)
    assert sorted(c.exit for c in calls if c.exit) == [1, 2]
    assert len(calls) == 20


def test_tail_is_the_highest_percentile_with_ten_calls_beyond():
    latencies = [float(i) for i in range(1, 41)]  # 40 calls
    value, percentile = tail(latencies)
    assert value == 30.0  # exactly ten calls (31..40) lie beyond it
    assert percentile == 75.0
    assert sum(x > value for x in latencies) == 10


def test_tail_at_a_fixed_percentile_keeps_ten_calls_beyond():
    latencies = [float(i) for i in range(1, 101)]  # 100 calls
    assert tail(latencies, 80.0) == (80.0, 80.0)
    assert tail(latencies, 95.0) == (90.0, 90.0)  # only ten calls may lie beyond
    assert tail(latencies[:60], 80.0) == (48.0, 80.0)


def test_tail_with_too_few_calls_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tail([float(i) for i in range(11)]) == (0.0, 100.0 / 11)


def test_self_time_subtracts_the_covered_part_of_each_span():
    # root 0..10 with children 1..4 and 3..6 (overlapping) and 8..12 (runs past
    # the root's end); the first child has a grandchild 2..3.
    starts = [0.0, 1.0, 2.0, 3.0, 8.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    assert self_times(starts, ends, parents) == [10.0 - (5.0 + 2.0), 3.0 - 1.0, 1.0, 3.0, 4.0]
    assert roots(parents) == [0, 0, 0, 0, 0]


def test_self_times_of_separate_trees():
    starts, ends, parents = [0.0, 1.0, 5.0, 6.0], [4.0, 2.0, 9.0, 9.0], [-1, 0, -1, 2]
    assert self_times(starts, ends, parents) == [3.0, 1.0, 1.0, 3.0]
    assert roots(parents) == [0, 0, 2, 2]


def test_parse_importtime_splits_m2z_from_what_it_pulls_in():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | site",
            "import time:       300 |        300 |     fractions",
            "import time:       200 |        500 |   m2z.matrices",
            "import time:       400 |       1000 | m2z",
            "import time:        50 |         50 |   argparse",
            "import time:        30 |         80 | m2z.cli",
        ]
    )
    out = parse_importtime(stderr)
    assert out["import.m2z.cli_ms"] == 1.08
    assert out["import.stdlib_ms"] == 0.35
    assert out["import.m2z.matrices.self_ms"] == 0.2
    assert out["import.m2z.cli.self_ms"] == 0.03


def test_harness_arithmetic():
    assert origin_ball_counts(36) == (1014, 1759)
    assert hnf_payload(4, 7, 2, 9) == {"hnf": [[2, 9], [0, 11]], "det": 22, "primitive": True, "content": 1}
    assert maps_to((7**2 - 1, 7**2 - 7, 0, 7 - 1), {7: 2}, {7: 1})
    assert not maps_to((1, 0, 0, 1), {7: 2}, {7: 1})
    assert member_expected({2: 3}, Fraction(1, 4), Fraction(0), [2]) is False
    assert member_expected({2: None}, Fraction(1), Fraction(1, 2), [2]) is True
