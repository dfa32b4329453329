"""Output checks, computed apart from the program under test.

Bundle values come from this file's own evaluator on integer cents, read from
the instance file format (``instance_to_dict``), never from the program's
valuation classes. The ratio optimum comes from an independent MILP solved by
``scipy.optimize.milp``. Every check returns a list of failure messages; an
empty list means the outputs are correct.
"""

from __future__ import annotations

import ctypes
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

CENTS = 100


def _cents(text: str) -> int:
    scaled = Fraction(text) * CENTS
    if scaled.denominator != 1:
        raise ValueError(f"value {text} is not on the cents grid")
    return int(scaled)


def cents_bidders(lab, instance) -> tuple:
    """Each bidder as ("xos", clauses) or ("budget", values, budget), in cents."""
    data = lab.instances.instance_to_dict(instance)
    out = []
    for entry in data["bidders"]:
        if entry["kind"] == "xos":
            clauses = tuple(tuple(_cents(x) for x in row) for row in entry["clauses"])
            out.append(("xos", clauses))
        else:
            values = tuple(_cents(x) for x in entry["values"])
            out.append(("budget", values, _cents(entry["budget"])))
    return tuple(out)


def bundle_value(bidder: tuple, mask: int) -> int:
    """v(S) in cents for the bundle whose item bits are set in ``mask``."""
    items = [j for j in range(mask.bit_length()) if mask >> j & 1]
    if bidder[0] == "xos":
        return max(sum(clause[j] for j in items) for clause in bidder[1])
    return min(bidder[2], sum(bidder[1][j] for j in items))


@contextmanager
def _stdout_silenced():
    """Send file descriptor 1 to /dev/null: HiGHS prints diagnostics there,
    which would otherwise land after the benchmark's result line."""
    sys.stdout.flush()
    saved = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    try:
        yield
    finally:
        ctypes.CDLL(None).fflush(None)
        os.dup2(saved, 1)
        os.close(saved)
        os.close(devnull)


def milp_optimum(bidders: tuple, m: int) -> tuple[int, int]:
    """Optimal welfare in cents, and the exact value of the MILP's allocation.

    XOS bidder i picks at most one clause c (binary y_ic) and takes items
    only under it (x_icj <= y_ic). A budget-additive bidder's welfare w_i is
    capped by its budget and by the value sum of its items. Every item goes
    to at most one (bidder, clause). The gap tolerance is zero, so the
    solver proves the optimum.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    objective: list[float] = []
    upper: list[float] = []
    integral: list[int] = []
    owner: list[tuple[int, int] | None] = []
    rows: list[tuple[dict[int, float], float]] = []  # coefficients, upper bound
    item_rows: list[dict[int, float]] = [{} for _ in range(m)]

    def var(obj: float, ub: float, is_int: int, who=None) -> int:
        objective.append(obj)
        upper.append(ub)
        integral.append(is_int)
        owner.append(who)
        return len(objective) - 1

    for i, bidder in enumerate(bidders):
        if bidder[0] == "xos":
            picks = []
            for clause in bidder[1]:
                y = var(0, 1, 1)
                picks.append(y)
                for j, value in enumerate(clause):
                    x = var(value, 1, 1, (i, j))
                    rows.append(({x: 1, y: -1}, 0))
                    item_rows[j][x] = 1
            rows.append(({y: 1 for y in picks}, 1))
        else:
            _, values, budget = bidder
            w = var(1, budget, 0)
            cap = {w: 1.0}
            for j, value in enumerate(values):
                x = var(0, 1, 1, (i, j))
                cap[x] = -value
                item_rows[j][x] = 1
            rows.append((cap, 0))
    rows.extend((row, 1) for row in item_rows)

    matrix = np.zeros((len(rows), len(objective)))
    for r, (coeffs, _) in enumerate(rows):
        for col, coeff in coeffs.items():
            matrix[r, col] = coeff
    with _stdout_silenced():
        result = milp(
            c=-np.array(objective, dtype=float),
            constraints=LinearConstraint(matrix, -np.inf, [ub for _, ub in rows]),
            integrality=np.array(integral),
            bounds=Bounds(0, np.array(upper, dtype=float)),
            options={"mip_rel_gap": 0},
        )
    if not result.success:
        raise RuntimeError(f"MILP failed: {result.message}")
    masks = [0] * len(bidders)
    for col, who in enumerate(owner):
        if who is not None and result.x[col] > 0.5:
            masks[who[0]] |= 1 << who[1]
    exact = sum(bundle_value(b, mask) for b, mask in zip(bidders, masks) if mask)
    return round(-result.fun), exact


def check_ratio(jobs: list[dict]) -> list[str]:
    """Each opt equals the MILP optimum; welfare <= opt and payments <= welfare."""
    failures = []
    for job in jobs:
        where = f"ratio instance {job['label']}"
        value, exact = milp_optimum(job["bidders"], job["m"])
        if exact != value:
            failures.append(f"{where}: MILP allocation is worth {exact}, not {value}")
        opt = Fraction(value, CENTS)
        for source in ("run_opt", "trace_opt"):
            if job[source] != opt:
                failures.append(f"{where}: {source} {job[source]} != MILP optimum {opt}")
        for seed, welfare, paid in job["trials"]:
            if not paid <= welfare <= opt:
                failures.append(
                    f"{where} trial {seed}: payments {paid}, welfare {welfare}, opt {opt}"
                )
    return failures


def check_learning(jobs: list[dict]) -> list[str]:
    """Per trial: disjoint bundles, payment <= value, reported welfare equal
    to the value sum, at most alpha demand queries per bidder, and on the
    second-price branch the winner pays the second-highest grand-bundle value.
    """
    failures = []
    for job in jobs:
        bidders = job["bidders"]
        grand = (1 << job["m"]) - 1
        if len(job["outcomes"]) != len(job["trials"]):
            failures.append(f"learning instance {job['label']}: trial count mismatch")
            continue
        for (seed, welfare, paid), outcome in zip(job["trials"], job["outcomes"]):
            where = f"learning instance {job['label']} trial {seed}"
            branch, held, outcome_welfare, most_queries, alpha = outcome
            taken = 0
            total = 0
            payments = Fraction(0)
            for b, mask, payment in held:
                if taken & mask:
                    failures.append(f"{where}: bidder {b} gets an item twice")
                taken |= mask
                value = bundle_value(bidders[b], mask) if mask else 0
                total += value
                payments += payment
                if not 0 <= payment <= Fraction(value, CENTS):
                    failures.append(f"{where}: bidder {b} pays {payment} for value {value}c")
            if not welfare == outcome_welfare == Fraction(total, CENTS):
                failures.append(f"{where}: welfare {welfare} but bundles are worth {total}c")
            if paid != payments:
                failures.append(f"{where}: payments_total {paid} != {payments}")
            if alpha is not None and most_queries > alpha:
                failures.append(f"{where}: a bidder got {most_queries} > {alpha} demand queries")
            if branch == "second-price":
                grand_values = sorted(bundle_value(b, grand) for b in bidders)
                second = grand_values[-2] if len(grand_values) > 1 else 0
                winners = [(mask, pay) for _, mask, pay in held if mask]
                if winners != [(grand, Fraction(second, CENTS))]:
                    failures.append(f"{where}: second-price winner pays {winners}, want {second}c")
    return failures


def check_truthtest(jobs: list[dict]) -> list[str]:
    """A clean report whose run count is seeds x (1 + n x deviations), every
    one of which reached the mechanism."""
    failures = []
    for job in jobs:
        where = f"truthtest instance {job['label']}"
        expected = job["seeds"] * (1 + job["n"] * job["deviations"])
        if job["violations"] or job["budget_violations"]:
            failures.append(
                f"{where}: {job['violations']} violations, "
                f"{job['budget_violations']} query-budget violations"
            )
        if not job["runs"] == job["mechanism_calls"] == expected:
            failures.append(
                f"{where}: report says {job['runs']} runs, the mechanism ran "
                f"{job['mechanism_calls']} times, want {expected}"
            )
        if job["deviations_checked"] != expected - job["seeds"]:
            failures.append(f"{where}: {job['deviations_checked']} deviations checked")
    return failures
