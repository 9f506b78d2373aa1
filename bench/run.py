"""The m2z benchmark: seeded CLI workloads timed end to end, or traced per layer.

    python3 bench/run.py --workload cli_short --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the CLI runs as ``python -m m2z.cli`` with
``src`` on ``PYTHONPATH``.  ``--trace 0`` is a closed loop (one client, one
call at a time) of fresh CLI processes for ``--seconds`` and reports the
end-to-end metrics, with every time scaled to a reference machine speed
(see ``run_calls``); the table also shows the wall times as measured.
``--trace 1`` reports the per-layer metrics: import costs from fresh
``-X importtime`` processes, and spans from an in-process
replay of the workload's first cycles (see layers.py).  Every call's output is
checked; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all`` runs
every workload in turn, and ``--out FILE`` appends each run's result to FILE
for compare.py.  See README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from layers import TARGETS, parse_importtime
from workloads import WORKLOADS, check, cycle, load_golden, matches_golden

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))
PROBES = 7  # fresh interpreters per start-up figure of the traced run
SETUP_EVERY = 2.0  # seconds between set-up probes in the untraced run
# The speed control: a bare interpreter start that nothing in the checkout can
# reach (-I ignores PYTHONPATH and the environment, -S skips site), timed
# every CONTROL_EVERY seconds of the untraced run.  Times are reported as if
# the control took REFERENCE_START_S.
CONTROL = ["-I", "-S", "-c", "pass"]
CONTROL_EVERY = 0.5
REFERENCE_START_S = 0.010
# The tail is a fixed percentile per workload.  Each falls inside the
# latencies of one kind of call of the cycle and leaves at least TAIL_BEYOND
# calls above it in a run of 40 s on a 2-CPU machine.  It is fixed so that the
# count of calls, which follows the machine's speed, does not move it; a run
# with too few calls falls back to the highest percentile that still leaves
# TAIL_BEYOND calls above it.
TAIL_BEYOND = 10
TAIL_PERCENTILE = {"cli_short": 95.0, "picture_balls": 80.0, "number_theory": 85.0}
# Cycles the traced run replays: enough in-process work to time each layer,
# little enough that both replays fit in one run.
REPLAY_CYCLES = {"cli_short": 16, "picture_balls": 1, "number_theory": 3}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class SetupError(Exception):
    """The checkout cannot run m2z at all."""


class Launcher:
    """The process that spawns and times every call (see launcher.py), so
    that each call's peak RSS is its own and not the harness's."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=ENV,
            cwd=ROOT,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def spawn(self, args: list[str]) -> tuple[float, int, bytes, bytes, float]:
        """Run ``python <args>``; return wall seconds (spawn until exit with
        stdout read), exit code, stdout, stderr and the child's peak RSS in MB."""
        self.proc.stdin.write(b"\0".join(os.fsencode(a) for a in (sys.executable, *args)) + b"\n")
        self.proc.stdin.flush()
        read = self.proc.stdout.read
        chunks = []
        while size := int.from_bytes(read(4), "big"):
            chunks.append(read(size))
        trailer = self.proc.stdout.readline().split()
        if len(trailer) != 4:
            raise SetupError(f"the launcher stopped (exit {self.proc.poll()})")
        code, elapsed, rss_kib, err_len = trailer
        return float(elapsed), int(code), b"".join(chunks), read(int(err_len)), int(rss_kib) / 1024.0


def probe(launcher: Launcher, args: list[str]) -> tuple[float, bytes]:
    elapsed, code, _, err, _ = launcher.spawn(args)
    if code != 0:
        raise SetupError(f"python {' '.join(args)} exited {code}: {err.decode(errors='replace').strip()}")
    return elapsed, err


def tail(latencies: list[float], percentile: float = 100.0, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The latency at ``percentile`` (nearest rank), or at the highest
    percentile below it that has at least ``beyond`` calls above it:
    (value, percentile reached).  With too few calls it is the maximum."""
    xs = sorted(latencies)
    k = min(math.ceil(len(xs) * percentile / 100.0), len(xs) - beyond)
    if k < 1:
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / len(xs)


def run_calls(launcher: Launcher, workload: str, seed: int, seconds: float) -> dict:
    """The untraced closed loop: end-to-end metrics.

    The loop runs whole cycles, so every run has the same mix of calls: it
    starts another cycle only while the mean cycle so far still fits in
    ``seconds``.  On a shared host the speed of identical work drifts by tens
    of percent, over seconds to minutes, and between two runs more than within
    one.  So the loop also times the speed control every CONTROL_EVERY seconds
    and scales every time by REFERENCE_START_S over the control's median: the
    metrics read as on a machine where a bare interpreter starts in 10 ms.
    No change to m2z can move the control.  Set-up probes, fresh ``import
    m2z.cli`` processes, are spread over the run in the same way.  The
    probes' time is left out of the loop's wall time.
    """
    probe(launcher, ["-c", "import m2z.cli"])  # warm-up: page cache and bytecode
    setups: list[float] = []
    controls: list[float] = []
    golden = load_golden(workload)
    latencies: list[float] = []
    failed = 0
    peak = 0.0
    start = perf_counter()
    next_setup = next_control = start
    probed = 0.0
    cycles = 0
    while cycles == 0 or (perf_counter() - start) * (cycles + 1) / cycles <= seconds:
        for call in cycle(workload, seed, cycles):
            while (now := perf_counter()) >= min(next_setup, next_control):
                if now >= next_setup:
                    setups.append(probe(launcher, ["-c", "import m2z.cli"])[0])
                    next_setup += SETUP_EVERY
                else:
                    controls.append(probe(launcher, CONTROL)[0])
                    next_control += CONTROL_EVERY
                probed += perf_counter() - now
            elapsed, code, out, err, rss = launcher.spawn(["-m", "m2z.cli", *call.argv])
            latencies.append(elapsed)
            peak = max(peak, rss)
            failed += not (check(call, code, out, err) and matches_golden(golden, call, code, out))
        cycles += 1
    wall = perf_counter() - start - probed
    value, percentile = tail(latencies, TAIL_PERCENTILE[workload])
    p50, setup = statistics.median(latencies), statistics.median(setups)
    control = statistics.median(controls)
    scale = REFERENCE_START_S / control
    return {
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {
            "latency_p50_ms": 1000.0 * p50 * scale,
            "latency_tail_ms": 1000.0 * value * scale,
            "calls_per_s": len(latencies) / wall / scale,
            "setup_s": setup * scale,
            "peak_rss_mb": peak,
        },
        "notes": {
            "tail_percentile": round(percentile, 2),
            "calls": len(latencies),
            "cycles": cycles,
            "setup_probes": len(setups),
            "control_probes": len(controls),
            "control_ms (wall)": round(1000.0 * control, 3),
            "latency_p50_ms (wall)": round(1000.0 * p50, 3),
            "latency_tail_ms (wall)": round(1000.0 * value, 3),
            "calls_per_s (wall)": round(len(latencies) / wall, 3),
            "setup_s (wall)": round(setup, 5),
        },
    }


def replay(calls_: list, golden: dict, traced: bool) -> dict:
    request = {
        "src": str(SRC),
        "bench": str(BENCH),
        "trace": traced,
        "calls": [c.to_json() for c in calls_],
        "golden": {c.key: golden[c.key] for c in calls_ if c.key in golden},
    }
    proc = subprocess.run(
        [sys.executable, str(BENCH / "layers.py")],
        input=json.dumps(request).encode(),
        capture_output=True,
        env=ENV,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SetupError(f"replay exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-2000:]}")
    return json.loads(proc.stdout)


def run_traced(launcher: Launcher, workload: str, seed: int) -> dict:
    """Per-layer metrics: start-up probes, then an untraced and a traced
    in-process replay of the same calls."""
    start = [probe(launcher, ["-c", "pass"])[0] for _ in range(PROBES)]
    metrics = {"interp.start_ms": 1000.0 * statistics.median(start)}
    importtime = ["-X", "importtime", "-c", "import m2z.cli"]
    imports = [parse_importtime(probe(launcher, importtime)[1].decode()) for _ in range(PROBES)]
    for key in ["import.m2z.cli_ms", "import.stdlib_ms", *(f"import.m2z.{m}.self_ms" for m in TARGETS)]:
        metrics[key] = statistics.median(run.get(key, 0.0) for run in imports)
    replayed = [c for i in range(REPLAY_CYCLES[workload]) for c in cycle(workload, seed, i)]
    golden = load_golden(workload)
    plain = replay(replayed, golden, traced=False)
    traced = replay(replayed, golden, traced=True)
    metrics.update(traced["metrics"])
    metrics["trace.overhead_frac"] = (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": metrics,
        "notes": {"replayed_calls": len(replayed), "untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"]},
    }


def report(workload: str, seed: int, trace: int, result: dict) -> dict:
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {workload}  seed {seed}  trace {trace}  closed loop, one client")
    for name, value in result["metrics"].items():
        print(f"  {name:40s} {value:14.4f} {UNITS[name]}")
    print(f"  {'error_rate':40s} {failed / attempted:14.4f} ({failed} of {attempted} calls)")
    for name, value in result["notes"].items():
        print(f"  [{name} {value}]")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append each run's result as a JSON line to this file")
    args = parser.parse_args(argv)
    if not (SRC / "m2z" / "cli.py").is_file():
        print(f"error: no m2z sources under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        with Launcher() as launcher:
            for workload in workloads:
                if args.trace:
                    result = run_traced(launcher, workload, args.seed)
                else:
                    result = run_calls(launcher, workload, args.seed, args.seconds)
                line = report(workload, args.seed, args.trace, result)
                if args.out:
                    record = {"workload": workload, "seed": args.seed, "trace": args.trace, **line}
                    record["notes"] = result["notes"]
                    with args.out.open("a") as f:
                        f.write(json.dumps(record) + "\n")
                print(json.dumps(line), flush=True)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
