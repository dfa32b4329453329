"""Acceptance suite: one test per criterion, exact tolerances as stated.

Every random draw is seeded, so the whole suite is reproducible. Each test
prints one ``ACCEPTANCE <k> ...: PASS/FAIL`` line (visible with ``pytest -s``
or in captured output).
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from auctionlab.auction import fixed_price_auction
from auctionlab.harness import (
    ExperimentConfig,
    GeneratorSpec,
    generate_instance,
    run_experiment,
    truthfulness_report,
)
from auctionlab.mechanism import (
    LEARNING_STOPPED,
    SECOND_PRICE,
    CoinTape,
    final_mechanism,
    price_learning_mechanism,
)
from auctionlab.oracle import brute_force_opt, welfare
from auctionlab.price_tree import (
    EVEN,
    ODD,
    build_bins,
    build_modified_tree,
    solve_parameters,
    validate_parameter_equations,
)
from auctionlab.trace import build_trace
from auctionlab.valuations import (
    budget_additive,
    demand_query,
    supporting_prices,
    value_query,
    xos,
)

ARTIFACTS = Path(__file__).resolve().parent.parent / "artifacts"


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS")


def random_xos(rng, m, lo=1, hi=100, max_clauses=3):
    return xos(
        *[
            [rng.randint(lo, hi) for _ in range(m)]
            for _ in range(rng.randint(1, max_clauses))
        ]
    )


def test_criterion_1_fixed_price_welfare_floor():
    """500 instances: V(A) >= delta * q(M*) exactly, for random delta and p."""
    with criterion(1, "fixed-price welfare floor"):
        rng = random.Random(101)
        for _ in range(500):
            n, m = rng.randint(1, 4), rng.randint(1, 8)
            valuations = [random_xos(rng, m) for _ in range(n)]
            sol = brute_force_opt(valuations, m)
            q = sol.supporting_prices
            delta = Fraction(rng.choice([1, 2, 3, 4]), 10)
            prices = tuple(
                q[j] * Fraction(rng.randint(0, 19), 20)
                if q[j] > 0 and rng.random() < 0.7
                else Fraction(rng.randint(0, 120))
                for j in range(m)
            )
            order = list(enumerate(valuations))
            rng.shuffle(order)
            alloc = fixed_price_auction(order, range(m), prices)
            starred = [
                j for j in range(m) if delta * q[j] <= prices[j] < q[j] / 2
            ]
            floor = delta * sum((q[j] for j in starred), Fraction(0))
            assert welfare(alloc, valuations) >= floor


def test_criterion_2_demand_oracle_equivalence():
    """200 valuations, m <= 12: demand profit == full-enumeration max, exact."""
    with criterion(2, "demand oracle equivalence"):
        rng = random.Random(202)
        for _ in range(200):
            m = rng.randint(1, 12)
            if rng.random() < 0.6:
                v = random_xos(rng, m, lo=0)
            else:
                v = budget_additive(
                    [rng.randint(0, 100) for _ in range(m)], rng.randint(0, 300)
                )
            prices = tuple(
                Fraction(rng.randint(0, 200), rng.choice([1, 2, 4]))
                for _ in range(m)
            )
            bundle = demand_query(v, prices)
            profit = value_query(v, bundle) - sum(
                (prices[j] for j in bundle), Fraction(0)
            )
            best = Fraction(0)
            for k in range(m + 1):
                for combo in combinations(range(m), k):
                    candidate = value_query(v, combo) - sum(
                        (prices[j] for j in combo), Fraction(0)
                    )
                    if candidate > best:
                        best = candidate
            assert profit == best


def test_criterion_3_supporting_price_property():
    """200 bundles, |S| <= 10: supporting prices sum to v(S) and never
    overestimate any sub-bundle, exact."""
    with criterion(3, "supporting-price property"):
        rng = random.Random(303)
        for _ in range(200):
            m = rng.randint(1, 10)
            v = random_xos(rng, m, lo=0, max_clauses=4)
            bundle = frozenset(j for j in range(m) if rng.random() < 0.6)
            prices = supporting_prices(v, bundle)
            assert sum(prices.values(), Fraction(0)) == value_query(v, bundle)
            items = sorted(bundle)
            for k in range(len(items) + 1):
                for sub in combinations(items, k):
                    assert sum(
                        (prices[j] for j in sub), Fraction(0)
                    ) <= value_query(v, sub)


@pytest.fixture(scope="module")
def deviation_sweep():
    """Criterion 4's runs, shared with criterion 6: 200 instances (n <= 5,
    m <= 6), 25 seeds each, 10 deviating reports per (instance, seed, bidder)."""
    rng = random.Random(404)
    reports = []
    for idx in range(200):
        spec = GeneratorSpec(
            bidder_count=rng.randint(1, 5),
            item_count=rng.randint(1, 6),
            family=rng.choice(["xos-random", "additive", "budget-additive"]),
            seed=rng.randrange(2**31),
        )
        reports.append(
            truthfulness_report(
                generate_instance(spec), seeds=25, deviations=10, deviation_seed=idx
            )
        )
    return reports


def test_criterion_4_universal_truthfulness(deviation_sweep):
    """Zero utility-improving deviations, exact arithmetic."""
    with criterion(4, "universal truthfulness"):
        assert sum(r.deviations_checked for r in deviation_sweep) > 0
        for report in deviation_sweep:
            assert report.violations == ()


def test_criterion_5_price_tree_invariants():
    """100 solved parameter sets: coupled bounds, capacity, bin partition,
    modified-tree gap, leaf accuracy."""
    with criterion(5, "price-tree invariants"):
        rng = random.Random(505)
        for _ in range(100):
            psi_min = Fraction(rng.randint(1, 1000), rng.randint(1, 10))
            ratio = Fraction(rng.randint(1, 10**9))
            params = solve_parameters(psi_min, psi_min * ratio)
            validate_parameter_equations(params)
            assert 20 * params.alpha * params.beta <= params.gamma
            assert params.gamma <= 30 * params.alpha * params.beta
            assert params.alpha**params.beta >= params.bin_count

            bins = build_bins(params)
            assert bins[0].price == params.psi_min
            assert bins[-1].upper == params.psi_max
            for a, b in zip(bins, bins[1:]):
                assert a.upper == b.price
            for cell in bins:
                assert cell.upper <= cell.price * params.gamma

            for parity in (ODD, EVEN):
                tree = build_modified_tree(params, parity)
                for level in range(1, tree.depth + 1):
                    prices = sorted(tree.prices(level))
                    for a, b in zip(prices, prices[1:]):
                        assert b >= a * params.gamma
                for cell in tree.leaves:
                    if cell.index is None:
                        continue
                    p = cell.price
                    probes = [cell.price, (cell.price + cell.upper) / 2]
                    probes.append(
                        cell.upper
                        if cell.closed
                        else cell.price + (cell.upper - cell.price) * Fraction(99, 100)
                    )
                    for q in probes:
                        assert p <= q <= params.gamma * p


def test_criterion_6_query_budget(deviation_sweep):
    """Every run of criterion 4: per-bidder demand queries <= alpha and
    total <= alpha * n."""
    with criterion(6, "query budget"):
        for report in deviation_sweep:
            assert report.query_budget_violations == ()


def test_criterion_7_branch_probability_calibration():
    """10,000 seeds: second-price branch within 0.5 +/- 0.02; per-iteration
    stop coin within 1/beta +/- 0.02 (wide window so beta = 2)."""
    with criterion(7, "branch-probability calibration"):
        seeds = 10_000
        inst = generate_instance(GeneratorSpec(4, 3, seed=7))
        bidders = inst.bidders()
        hits = sum(
            final_mechanism(bidders, 3, CoinTape(s)).branch == SECOND_PRICE
            for s in range(seeds)
        )
        assert abs(hits / seeds - 0.5) <= 0.02

        stops = {1: 0, 2: 0}
        reached = {1: 0, 2: 0}
        for s in range(seeds):
            out = price_learning_mechanism(bidders, 3, 1, 10**6, CoinTape(s))
            beta = out.params.beta
            assert beta == 2
            reached[1] += 1
            if out.branch == LEARNING_STOPPED and out.stop_iteration == 1:
                stops[1] += 1
            else:
                reached[2] += 1
                if out.branch == LEARNING_STOPPED and out.stop_iteration == 2:
                    stops[2] += 1
        for i in (1, 2):
            assert abs(stops[i] / reached[i] - 0.5) <= 0.02


def test_criterion_8_sanity_ratio_bound():
    """100 instances x 200 seeds: OPT / mean-welfare <= 50 on >= 95% of
    instances; the ratio distribution is written to artifacts/."""
    with criterion(8, "sanity ratio bound"):
        rng = random.Random(808)
        rows = ["instance,n,m,opt,mean_welfare,ratio_of_means,q50,q90,q100"]
        within_bound = 0
        total = 100
        for idx in range(total):
            spec = GeneratorSpec(
                bidder_count=rng.randint(4, 8),
                item_count=rng.randint(4, 8),
                seed=rng.randrange(2**31),
            )
            inst = generate_instance(spec)
            report = run_experiment(
                ExperimentConfig(inst, trials=200, base_seed=1000 * idx)
            )
            ratio = report.ratio_of_means
            ok = ratio is not None and ratio <= 50
            within_bound += ok
            rows.append(
                ",".join(
                    (
                        str(idx),
                        str(inst.bidder_count),
                        str(inst.item_count),
                        str(float(report.opt)),
                        str(float(report.mean_welfare)),
                        "inf" if ratio is None else str(float(ratio)),
                        report.ratio_quantiles.get("q50", ""),
                        report.ratio_quantiles.get("q90", ""),
                        report.ratio_quantiles.get("q100", ""),
                    )
                )
            )
        ARTIFACTS.mkdir(exist_ok=True)
        (ARTIFACTS / "ratio_distribution.csv").write_text("\n".join(rows) + "\n")
        assert within_bound >= 95


def test_criterion_9_trace_invariants():
    """50 traced runs: nested correct sets, partitioned demand sets, learned
    price below supporting price, and the per-iteration overestimate
    accounting, all exact."""
    with criterion(9, "trace invariants"):
        rng = random.Random(909)
        traced = 0
        while traced < 50:
            spec = GeneratorSpec(
                bidder_count=rng.randint(4, 6),
                item_count=rng.randint(3, 5),
                seed=rng.randrange(2**31),
            )
            inst = generate_instance(spec)
            optimal = brute_force_opt(list(inst.valuations), inst.item_count)
            positive = [q for q in optimal.supporting_prices if q > 0]
            lo, hi = (min(positive), max(positive)) if positive else (1, 1)
            for seed in range(5):
                run = price_learning_mechanism(
                    inst.bidders(), inst.item_count, lo, hi, CoinTape(seed)
                )
                trace = build_trace(run, optimal, run.tree)
                traced += 1

                for earlier, later in zip(trace.levels, trace.levels[1:]):
                    assert later.correct <= earlier.correct
                for i, vector in enumerate(run.learned_prices, start=1):
                    level = trace.level(i)
                    for j in level.correct:
                        assert vector[j] <= level.q_vector[j]
                beta = run.params.beta
                for diag in trace.iterations:
                    level = trace.level(diag.level)
                    union = frozenset().union(*diag.demand_partition)
                    assert union == level.correct
                    assert sum(len(p) for p in diag.demand_partition) == len(
                        level.correct
                    )
                    kept = sum(
                        (
                            level.q_vector[j]
                            for j in trace.level(diag.level + 1).refinement_correct
                        ),
                        Fraction(0),
                    )
                    sold = sum(
                        (
                            level.q_vector[j]
                            for part in diag.sold_in_partition
                            for j in part
                        ),
                        Fraction(0),
                    )
                    assert kept >= sold - optimal.welfare / (10 * beta)
