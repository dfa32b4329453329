"""The three workloads: the instances of one round, and one instance's job.

A job goes through the public functions behind one or two CLI subcommands
and returns the text those subcommands would write, which the determinism
check compares byte for byte, plus the data its output check needs. The
benchmark shrinks that data outside the timed part (an ``instance`` entry
becomes the instance's cents table), so that what the benchmark holds does
not grow the measured memory.

Generator seeds come from the workload seed; the mechanism's tape seeds are
the CLI defaults (``run --seed 0``, ``trace`` seeds 0.., ``truthtest``
seeds 0.. with deviation seed 0), so the program receives only the
generated instances.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import checks

# Large enough for every ratio instance: (n+1)^m <= 10^10 for n <= 9, m = 10.
ORACLE_CAP = 10**10


@dataclass(frozen=True)
class Workload:
    """One round is one instance of every shape, in order.

    ``trace_rounds`` is the fixed number of rounds the traced run makes, so
    its counts repeat exactly for a seed. ``keep_outcomes`` makes the
    mechanism capture keep what the per-trial checks need. With ``mirrored``
    each instance is followed by its twin with the bidders in reverse order.
    """

    name: str
    shapes: tuple[tuple[int, int, str], ...]  # (bidders, items, family)
    job: Callable
    check: Callable[[list[dict]], list[str]]
    trials: int = 0
    trace_seeds: int = 0
    sweep_seeds: int = 0
    deviations: int = 0
    trace_rounds: int = 1
    keep_outcomes: bool = False
    mirrored: bool = False

    def generate(self, lab, seed: int, round_index: int) -> list:
        return generate(lab, self.shapes, seed, round_index, self.mirrored)


def generate(lab, shapes, seed: int, round_index: int, mirrored: bool = False) -> list:
    """One instance per shape; the generator seed encodes (seed, round, index)."""
    instances = []
    for i, (n, m, family) in enumerate(shapes):
        instance = lab.harness.generate_instance(
            lab.harness.GeneratorSpec(
                n, m, family, seed=seed * 100_000 + round_index * 100 + i
            )
        )
        instances.append(instance)
        if mirrored:
            instances.append(type(instance)(m, instance.valuations[::-1]))
    return instances


class MechanismCapture:
    """Counts mechanism runs and their branches.

    Installed over ``auctionlab.harness.final_mechanism``, the name the
    harness looks up; the ratio job reports its direct
    ``price_learning_mechanism`` runs through ``note``. With ``keep`` set it
    also keeps, per run, what the learning checks need. After every run it
    gives ``speed`` (a ``speed.Speedometer``) the chance to probe the machine.
    """

    def __init__(self, lab, keep: bool, speed):
        self.lab = lab
        self.speed = speed
        self.original = original = lab.harness.final_mechanism
        self.runs = 0
        self.branches: Counter = Counter()
        self.outcomes: list[tuple] = []

        def captured(*args, **kwargs):
            outcome = original(*args, **kwargs)
            self.note(outcome)
            if keep:
                self.outcomes.append(_summary(outcome))
            return outcome

        captured.__wrapped__ = original
        lab.harness.final_mechanism = captured

    def note(self, outcome) -> None:
        self.runs += 1
        self.branches[outcome.branch] += 1
        self.speed.tick()

    def take(self) -> list[tuple]:
        taken, self.outcomes = self.outcomes, []
        return taken

    def uninstall(self) -> None:
        self.lab.harness.final_mechanism = self.original


def _summary(outcome) -> tuple:
    allocation = outcome.allocation
    held = tuple(
        (b, sum(1 << j for j in bundle), allocation.payment(b))
        for b, bundle in allocation.bundles.items()
        if bundle or allocation.payment(b)
    )
    alpha = outcome.params.alpha if outcome.params is not None else None
    most = max(outcome.demand_queries.values(), default=0)
    return outcome.branch, held, outcome.welfare, most, alpha


def _trial_rows(report) -> tuple:
    return tuple((t.seed, t.welfare, t.payments_total) for t in report.trials)


def ratio_job(lab, w: Workload, instance, capture: MechanismCapture, label: str):
    """``auctionlab run`` then ``auctionlab trace`` on one instance."""
    harness, fmt = lab.harness, lab.rationals.format_rational
    m = instance.item_count
    report = harness.run_experiment(
        harness.ExperimentConfig(instance, trials=w.trials, oracle_cap=ORACLE_CAP)
    )
    text = [harness.report_to_csv(report), json.dumps(report.to_summary())]

    optimal = lab.oracle.brute_force_opt(
        list(instance.valuations), m, assignment_cap=ORACLE_CAP
    )
    positive = [q for q in optimal.supporting_prices if q > 0]
    psi_min = min(positive, default=Fraction(1))
    psi_max = max(positive, default=Fraction(1))
    traces = []
    for seed in range(w.trace_seeds):
        run = lab.mechanism.price_learning_mechanism(
            instance.bidders(), m, psi_min, psi_max, lab.mechanism.CoinTape(seed)
        )
        capture.note(run)
        trace = lab.trace.build_trace(run, optimal, run.tree)
        traces.append(trace)
        for diag in trace.iterations:
            level = trace.level(diag.level)
            mean = sum(diag.auction_welfares, Fraction(0)) / len(diag.auction_welfares)
            text.append(
                f"{seed},{diag.level},{len(level.correct)},{fmt(level.correct_mass)},"
                f"{fmt(mean)},{fmt(diag.learnable_change)},"
                f"{int(diag.learnable_realized)},{int(diag.allocatable_realized)},"
                f"{int(diag.overestimate_ok)}"
            )
    verdict = lab.trace.check_learnable_or_allocatable(
        traces, optimal.welfare, run.params.alpha, run.params.beta
    )
    text.append(repr(verdict))
    return "\n".join(text), {
        "label": label,
        "instance": instance,
        "m": m,
        "run_opt": report.opt,
        "trace_opt": optimal.welfare,
        "trials": _trial_rows(report),
    }


def learning_job(lab, w: Workload, instance, capture: MechanismCapture, label: str):
    """``auctionlab run --no-ratio`` on one instance."""
    harness = lab.harness
    report = harness.run_experiment(
        harness.ExperimentConfig(instance, trials=w.trials, measure_ratio=False)
    )
    text = harness.report_to_csv(report) + json.dumps(report.to_summary())
    return text, {
        "label": label,
        "instance": instance,
        "m": instance.item_count,
        "trials": _trial_rows(report),
        "outcomes": capture.take(),
    }


def truthtest_job(lab, w: Workload, instance, capture: MechanismCapture, label: str):
    """``auctionlab truthtest`` on one instance."""
    before = capture.runs
    report = lab.harness.truthfulness_report(instance, w.sweep_seeds, w.deviations)
    text = json.dumps(
        {
            "runs": report.runs,
            "deviations_checked": report.deviations_checked,
            "violations": list(report.violations),
            "query_budget_violations": list(report.query_budget_violations),
        }
    )
    return text, {
        "label": label,
        "n": instance.bidder_count,
        "seeds": w.sweep_seeds,
        "deviations": w.deviations,
        "runs": report.runs,
        "mechanism_calls": capture.runs - before,
        "deviations_checked": report.deviations_checked,
        "violations": len(report.violations),
        "budget_violations": len(report.query_budget_violations),
    }


_F = ("xos-random", "additive", "budget-additive")

WORKLOADS = {
    # The oracle dominates: two exact solves per instance, as two CLI calls.
    # Its lexicographic pass re-solves once for every candidate owner of an
    # item up to the optimal one, so an instance costs more the higher the
    # index of the bidder that gets item 0: up to three times as much at
    # 9 bidders. Reversing the bidders turns owner k into owner n-1-k, so an
    # instance and its mirror together cost about the same on every seed,
    # and on average just what unmirrored instances cost. Every shape has
    # 10 items: at 11-12 items one instance took up to 5 s, half a round,
    # and a run's figures followed that one instance.
    "ratio": Workload(
        name="ratio",
        shapes=tuple((n, 10, _F[i % 3]) for i, n in enumerate((6, 7, 8, 9))),
        job=ratio_job,
        check=checks.check_ratio,
        trials=200,
        trace_seeds=200,
        trace_rounds=2,
        mirrored=True,
    ),
    # Posted-price demand enumeration dominates; about 100 bidders are needed
    # before the first learning group (about n/20 bidders) is non-empty.
    # One shape only, so the median instance time is not taken across the
    # gap between two sizes.
    "learning": Workload(
        name="learning",
        shapes=((100, 13, _F[0]), (100, 13, _F[0])),
        job=learning_job,
        check=checks.check_learning,
        keep_outcomes=True,
        trials=40,
        trace_rounds=4,
    ),
    # Thousands of short runs, each deviation a fresh valuation. Job times
    # climb in steps from shape to shape; with an odd number of shapes the
    # median instance is the middle one of a single shape's jobs, not the
    # boundary between two shapes, so the trivial 1 x 1 shape is left out.
    "truthtest": Workload(
        name="truthtest",
        shapes=tuple(
            (n, m, _F[(n + m) % 3])
            for n in range(1, 6)
            for m in range(1, 7)
            if (n, m) != (1, 1)
        ),
        job=truthtest_job,
        check=checks.check_truthtest,
        sweep_seeds=25,
        deviations=10,
        trace_rounds=2,
    ),
}

# The same workloads at a size that finishes in seconds, for the self-test.
TINY = {
    "ratio": replace(
        WORKLOADS["ratio"],
        shapes=((2, 4, _F[0]), (3, 3, _F[2]), (2, 3, _F[1])),
        trials=10,
        trace_seeds=10,
    ),
    "learning": replace(WORKLOADS["learning"], shapes=((25, 5, _F[0]),), trials=6),
    "truthtest": replace(
        WORKLOADS["truthtest"],
        shapes=((1, 2, _F[0]), (2, 2, _F[2]), (3, 1, _F[1])),
        sweep_seeds=3,
        deviations=2,
    ),
}
