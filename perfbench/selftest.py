"""Self-test of the benchmark.

Runs every workload at a tiny size, untraced and traced, and requires its
checks to pass and its metrics to be the ones ``BENCHMARK.json`` lists. Then
plants one fault in the program per check and requires that check to fail:
a perturbed optimum (ratio), a payment above value (learning) and a dropped
replay (truthtest).

Run from the root of a checkout:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from fractions import Fraction

import run
from workloads import TINY


def perturbed_optimum(lab) -> None:
    """The optimum ``run`` reports is one cent too high."""
    solve = lab.harness.brute_force_opt

    def wrong(*args, **kwargs):
        solution = solve(*args, **kwargs)
        return dataclasses.replace(solution, welfare=solution.welfare + Fraction(1, 100))

    lab.harness.brute_force_opt = wrong


def payment_above_value(lab) -> None:
    """Every winner of the mechanism's auctions is charged a million more."""
    for name in ("fixed_price_auction", "second_price_grand_bundle"):
        auction = getattr(lab.mechanism, name)

        def overcharge(*args, _auction=auction, **kwargs):
            allocation = _auction(*args, **kwargs)
            payments = {
                b: pay + 10**6 if allocation.bundle(b) else pay
                for b, pay in allocation.payments.items()
            }
            return lab.auction.Allocation(allocation.bundles, payments)

        setattr(lab.mechanism, name, overcharge)


def dropped_replay(lab) -> None:
    """The sweep reports one replay fewer than it owes."""
    sweep = lab.harness.truthfulness_report

    def short(*args, **kwargs):
        report = sweep(*args, **kwargs)
        return dataclasses.replace(report, runs=report.runs - 1)

    lab.harness.truthfulness_report = short


FAULTS = (
    ("ratio", perturbed_optimum, "MILP optimum"),
    ("learning", payment_above_value, " pays "),
    ("truthtest", dropped_replay, "runs, the mechanism ran"),
)


def main() -> int:
    sys.path.insert(0, run.SRC)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    wanted = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for name, workload in TINY.items():
        for trace in (False, True):
            out = run.execute(workload, seed=1, seconds=0, trace=trace)
            result = out["result"]
            got = set(result["metrics"])
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: {out['failures']}")
            if got != wanted[trace]:
                problems.append(f"{name} trace={trace}: metrics differ by {got ^ wanted[trace]}")
            print(f"{name} trace={int(trace)}: correct={result['correct']} metrics={len(got)}")
    for name, plant, message in FAULTS:
        out = run.execute(TINY[name], seed=1, seconds=0, trace=False, prepare=plant)
        caught = [f for f in out["failures"] if message in f]
        if not caught:
            problems.append(f"{name}: planted {plant.__name__} went unnoticed")
        print(f"{name} with {plant.__name__}: {len(caught)} check failures")
    for line in problems:
        print(f"SELFTEST FAILED: {line}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
