"""Benchmark for auctionlab: end-to-end throughput and per-layer timings.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {ratio,learning,truthtest}
        [--seed N] [--seconds S] [--trace 0|1]

The program is imported from the checkout's ``src/``. With ``--trace 0`` the
benchmark runs whole rounds of instance jobs until ``--seconds`` have passed
and reports the end-to-end metrics. Throughput is taken over the whole timed
part, and set-up (a new interpreter importing auctionlab and generating the
first round) is timed three times before the rounds and once after each,
median reported, so one slow stretch of a shared machine moves it less.
Every half second a fixed probe times the machine itself (``speed.py``),
and the time figures are scaled to the probe's reference speed. With
``--trace 1`` it runs the workload's fixed number of rounds with every public
function wrapped in spans, each followed by the same round untraced to
measure the tracing overhead, and reports the per-layer metrics. Either way
the outputs are then checked: independently recomputed results, and a
byte-identical second run of one instance. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. An
operation is one instance's job.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import checks
from spans import Tracer
from speed import INTERVAL_S, Speedometer
from workloads import WORKLOADS, MechanismCapture, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_REPEATS = 3  # before the timed part; one more follows every round
DEFAULT_SEED = 1


def fresh_import():
    """Import auctionlab anew, so each execution gets its own module objects."""
    for name in [n for n in sys.modules if n == "auctionlab" or n.startswith("auctionlab.")]:
        del sys.modules[name]
    return importlib.import_module("auctionlab")


SETUP_SCRIPT = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
from workloads import generate
start = time.perf_counter()
import auctionlab
generate(auctionlab, {shapes!r}, {seed!r}, 0, {mirrored!r})
print(time.perf_counter() - start)
"""


def setup_seconds(workload: Workload, seed: int) -> float:
    """Time to import auctionlab and generate round 0, in a new interpreter.

    Bytecode is cached under ``out/pycache`` whatever the environment says,
    as it is for an installed package, so every set-up after the first
    (untimed) one reads the same compiled modules.
    """
    script = SETUP_SCRIPT.format(
        src=SRC, here=os.path.dirname(os.path.abspath(__file__)),
        shapes=workload.shapes, seed=seed, mirrored=workload.mirrored,
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, check=True, env=env,
    )
    return float(done.stdout)


class Rounds:
    """Runs rounds of instance jobs, timing each job and keeping check data."""

    def __init__(self, lab, workload: Workload, capture: MechanismCapture):
        self.lab = lab
        self.workload = workload
        self.capture = capture
        self.job_seconds: list[float] = []
        self.branches: Counter = Counter()
        self.check_data: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.runs = 0
        self.rounds = 0
        self.first_output = None

    def run(self, instances: list) -> None:
        w, capture = self.workload, self.capture
        branches = capture.branches.copy()
        for i, instance in enumerate(instances):
            self.attempted += 1
            before, probed = capture.runs, capture.speed.spent
            start = time.perf_counter()
            try:
                text, data = w.job(self.lab, w, instance, capture, f"{self.rounds}.{i}")
            except Exception:
                traceback.print_exc()
                self.failed += 1
                capture.take()
                continue
            self.job_seconds.append(
                time.perf_counter() - start - (capture.speed.spent - probed)
            )
            self.runs += capture.runs - before
            if "instance" in data:
                data["bidders"] = checks.cents_bidders(self.lab, data.pop("instance"))
            self.check_data.append(data)
            if self.rounds == 0 and i == 0:
                self.first_output = text
        self.branches += capture.branches - branches
        self.rounds += 1


def verify(lab, workload: Workload, seed: int, rounds: Rounds) -> list[str]:
    failures = workload.check(rounds.check_data)
    instance = workload.generate(lab, seed, 0)[0]
    again, _ = workload.job(lab, workload, instance, rounds.capture, "rerun")
    if rounds.first_output is None or again != rounds.first_output:
        failures.append("rerun of instance 0.0 is not byte-identical")
    rounds.capture.take()
    return failures


def execute(workload: Workload, seed: int, seconds: float, trace: bool, prepare=None) -> dict:
    """One benchmark run; ``prepare(lab)`` may patch the program first."""
    lab = fresh_import()
    if prepare is not None:
        prepare(lab)
    # The traced run reports no time figure that the probe would scale.
    speed = Speedometer(math.inf if trace else INTERVAL_S)
    capture = MechanismCapture(lab, keep=workload.keep_outcomes, speed=speed)
    notes = []
    try:
        if trace:
            # Traced and untraced passes alternate round by round, so a slow
            # stretch of the machine falls on both alike.
            tracer = Tracer()
            main = Rounds(lab, workload, capture)
            untraced = Rounds(lab, workload, capture)
            for r in range(workload.trace_rounds):
                tracer.install()
                try:
                    main.run(workload.generate(lab, seed, r))
                finally:
                    tracer.uninstall()
                untraced.run(workload.generate(lab, seed, r))
            metrics = tracer.metrics()
            traced_s, plain_s = sum(main.job_seconds), sum(untraced.job_seconds)
            metrics["tracing.overhead_s"] = (traced_s - plain_s, "s")
            metrics["tracing.overhead_ratio"] = ((traced_s - plain_s) / plain_s, "ratio")
            tracer.write(os.path.join(OUT, f"spans-{workload.name}-seed{seed}.npz"))
        else:
            setup_seconds(workload, seed)  # warm-up: fills the bytecode cache
            setups = []
            for _ in range(SETUP_REPEATS):
                speed.tick()
                setups.append(setup_seconds(workload, seed))
            main = Rounds(lab, workload, capture)
            start = time.perf_counter()
            while True:
                main.run(workload.generate(lab, seed, main.rounds))
                speed.tick()
                setups.append(setup_seconds(workload, seed))
                if time.perf_counter() - start >= seconds:
                    break
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            raw = {
                "setup_s": statistics.median(setups),
                "runs_per_s": main.runs / sum(main.job_seconds),
                "instance_s_p50": statistics.median(main.job_seconds),
            }
            slowdown = speed.slowdown()
            metrics = {
                "setup_s": (raw["setup_s"] / slowdown, "s"),
                "runs_per_s": (raw["runs_per_s"] * slowdown, "1/s"),
                "instance_s_p50": (raw["instance_s_p50"] / slowdown, "s"),
                "peak_rss_mib": (peak, "MiB"),
            }
            notes.append(
                f"machine slowdown {slowdown:.4f} over {len(speed.samples)} probes; "
                "unscaled: " + ", ".join(f"{k} = {v}" for k, v in raw.items())
            )
        failures = verify(lab, workload, seed, main)
    finally:
        capture.uninstall()
    return {
        "summary": [
            f"workload={workload.name} seed={seed} trace={int(trace)} rounds={main.rounds} "
            f"attempted={main.attempted} failed={main.failed} mechanism_runs={main.runs}",
            f"instance_s_p50 over {len(main.job_seconds)} instances; branch mix: "
            + ", ".join(f"{b}={c}" for b, c in sorted(main.branches.items())),
            *notes,
        ],
        "failures": failures,
        "result": {
            "correct": not failures,
            "attempted": main.attempted,
            "failed": main.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "auctionlab", "__init__.py")):
        print(f"perfbench: no auctionlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    outcome = execute(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in outcome["summary"]:
        print(line)
    for line in outcome["failures"]:
        print(f"CHECK FAILED: {line}")
    for name, metric in outcome["result"]["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
