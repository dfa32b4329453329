"""Generator determinism, experiment reports, instance round-trips."""

import hashlib
import io
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import harness
from auctionlab.auction import Allocation
from auctionlab.errors import (
    CapabilityError,
    ConfigError,
    DomainError,
    InstanceShapeError,
)
from auctionlab.harness import (
    QUANTILES,
    _ratio_quantiles,
    _cents_grid,
    _deviation,
    _gain,
    _log_uniform_cents,
    ExperimentConfig,
    GeneratorSpec,
    generate_instance,
    report_to_csv,
    run_experiment,
    run_trial,
    truthfulness_report,
)
from auctionlab.instances import (
    Instance,
    dump_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
)
from auctionlab.mechanism import (
    SECOND_PRICE,
    CoinTape,
    MechanismOutcome,
    bidder_utility,
    final_mechanism,
    utility_terms,
)
from auctionlab.rationals import ZERO, format_rational
from auctionlab.valuations import additive, budget_additive, on_grid, value_query, xos

from sweep_reference import reference_truthfulness_report


def reference_log_uniform(rng, lo, hi):
    """The per-entry Fraction draw: the reference for the cents-grid draw."""
    if lo == hi:
        return lo
    x = math.exp(rng.uniform(math.log(float(lo)), math.log(float(hi))))
    quantized = Fraction(round(x * 100), 100)
    return min(max(quantized, lo), hi)


def reference_generate_instance(spec, rng):
    """The generator drawing each entry and budget with
    ``reference_log_uniform`` and building valuations from Fractions: the
    reference for the integer draws."""
    lo, hi = spec.value_range
    m = spec.item_count

    def row():
        return [reference_log_uniform(rng, lo, hi) for _ in range(m)]

    valuations = []
    for _ in range(spec.bidder_count):
        if spec.family == "additive":
            valuations.append(xos(row()))
        elif spec.family == "xos-random":
            clauses = rng.randint(*spec.clause_count)
            valuations.append(xos(*[row() for _ in range(clauses)]))
        else:
            values = row()
            top = max(values, default=Fraction(0))
            total = sum(values, Fraction(0))
            budget = reference_log_uniform(rng, top, total) if total > 0 else 0
            valuations.append(budget_additive(values, budget))
    return Instance(m, tuple(valuations))


# Value ranges on and off the cents grid, below one cent, and of one point.
DRAW_RANGES = [
    (Fraction(1), Fraction(100)),
    (Fraction(1, 3), Fraction(2001, 7)),
    (Fraction(1, 1000), Fraction(2, 1000)),
    (Fraction(5), Fraction(5)),
    (Fraction(1, 3), Fraction(1, 3)),
]


# sha256 of 2,000 lies per item count m, drawn from random.Random(m) with the
# truthfulness sweep's default draws, as one instance file in compact,
# key-sorted JSON.
LIE_DIGESTS = {
    1: "e8336c705f89e176f370148ee45249d5da54fe40b5c93957828c67ddaa8bf244",
    2: "01acaab96f7c3d38be5c50776c0f01b2abc4eb170a09001a1f29ea58a72975a8",
    3: "f6a98013a727b336a4249cedbf1710c2bcd6455701e8f41961d231dc6ecfa308",
    4: "d0172e7cc992560ec03df2518652416c33c53b26e75b82ff04d618b29fe5d73e",
    5: "95eb65bb3b47d6e20163cd26451e06a9ae6a0ca86d1807e0d3c5a2a57b3c851b",
    6: "3789d32ad6a45b5a64ff3c9b88cf53793e8c2db2281b481202e19bb3071e7727",
}


def integer_form(valuation):
    return valuation.scale, valuation.rows, valuation.cap


def reference_deviation(rng, m, lo, hi):
    """A random lie drawn with ``reference_log_uniform`` per entry."""
    kind = rng.random()
    if kind < 0.15:
        return xos([0] * m)
    if kind < 0.55:
        rows = [
            [reference_log_uniform(rng, lo / 2, hi * 2) for _ in range(m)]
            for _ in range(rng.randint(1, 3))
        ]
        return xos(*rows)
    values = [reference_log_uniform(rng, lo / 2, hi * 2) for _ in range(m)]
    return budget_additive(values, reference_log_uniform(rng, lo / 2, hi * m))


class TestRationalFormatting:
    def test_integers_and_decimals(self):
        assert format_rational(Fraction(12)) == "12"
        assert format_rational(Fraction(13, 4)) == "3.25"
        assert format_rational(Fraction(-3, 2)) == "-1.5"
        assert format_rational(Fraction(1, 10)) == "0.1"

    def test_non_decimal_falls_back_to_fraction(self):
        assert format_rational(Fraction(1, 3)) == "1/3"

    def test_round_trip(self):
        for text in ("12", "3.25", "-1.5", "0.1", "1/3"):
            assert format_rational(Fraction(text)) == text

    def test_common_scaling(self):
        from auctionlab.rationals import common_scale, scaled_ints

        values = [Fraction(1, 2), Fraction(2, 3), Fraction(5)]
        scale = common_scale(values)
        assert scale == 6
        assert scaled_ints(values, scale) == [3, 4, 30]
        with pytest.raises(ValueError):
            scaled_ints([Fraction(1, 7)], 2)


class TestInstanceFiles:
    def test_round_trip(self):
        inst = Instance(
            2,
            (
                xos(("1", "2.5"), ("3", "0")),
                budget_additive(("2", "2"), "5"),
            ),
        )
        buf = io.StringIO()
        dump_instance(inst, buf)
        buf.seek(0)
        again = load_instance(buf)
        assert again == inst

    def test_dict_round_trip_keeps_the_valuation(self):
        rng = random.Random(8)

        def entry():
            return Fraction(rng.randint(0, 40), rng.choice([1, 2, 3, 4, 7, 100]))

        instances = [
            generate_instance(GeneratorSpec(3, 4, family=family, seed=seed))
            for family in ("xos-random", "additive", "budget-additive")
            for seed in range(5)
        ]
        for _ in range(30):
            m = rng.randint(0, 5)
            instances.append(
                Instance(
                    m,
                    (
                        xos(*[[entry() for _ in range(m)] for _ in range(3)]),
                        budget_additive([entry() for _ in range(m)], entry()),
                    ),
                )
            )
        for inst in instances:
            assert instance_from_dict(instance_to_dict(inst)) == inst

    def test_schema_shape(self):
        inst = Instance(1, (xos(("1",)),))
        data = instance_to_dict(inst)
        assert data == {"m": 1, "bidders": [{"kind": "xos", "clauses": [["1"]]}]}

    def test_item_count_mismatch_rejected(self):
        with pytest.raises(InstanceShapeError):
            Instance(3, (xos((1, 2)),))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InstanceShapeError):
            instance_from_dict({"m": 1, "bidders": [{"kind": "mystery"}]})

    def test_missing_fields_rejected(self):
        with pytest.raises(InstanceShapeError):
            instance_from_dict({"bidders": []})
        with pytest.raises(InstanceShapeError):
            instance_from_dict({"m": "two", "bidders": []})


class TestGenerator:
    def test_deterministic(self):
        spec = GeneratorSpec(2, 2, family="additive", seed=7)
        assert generate_instance(spec) == generate_instance(spec)

    def test_degenerate_value_range(self):
        spec = GeneratorSpec(
            3, 2, family="additive", value_range=(Fraction(5), Fraction(5)), seed=1
        )
        inst = generate_instance(spec)
        for entry in instance_to_dict(inst)["bidders"]:
            assert entry["clauses"] == [["5", "5"]]

    def test_clause_count_honored(self):
        spec = GeneratorSpec(4, 3, family="xos-random", clause_count=(3, 3), seed=2)
        inst = generate_instance(spec)
        for entry in instance_to_dict(inst)["bidders"]:
            assert entry["kind"] == "xos"
            assert len(entry["clauses"]) == 3

    def test_values_stay_in_range(self):
        spec = GeneratorSpec(
            5, 4, family="xos-random", value_range=(Fraction(1), Fraction(100)), seed=3
        )
        inst = generate_instance(spec)
        for entry in instance_to_dict(inst)["bidders"]:
            for clause in entry["clauses"]:
                for x in clause:
                    assert 1 <= Fraction(x) <= 100

    def test_budget_additive_family(self):
        spec = GeneratorSpec(3, 3, family="budget-additive", seed=4)
        inst = generate_instance(spec)
        for entry in instance_to_dict(inst)["bidders"]:
            values = [Fraction(x) for x in entry["values"]]
            assert max(values) <= Fraction(entry["budget"]) <= sum(values)

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (Fraction(1), Fraction(100)),  # on the cents grid
            (Fraction(1, 2), Fraction(600)),
            (Fraction(1, 3), Fraction(2001, 7)),  # off the grid
            (Fraction(1, 3), Fraction(2, 3)),  # often rounded past both bounds
            (Fraction(1001, 1000), Fraction(1009, 1000)),  # no grid point inside
            (Fraction(999, 1000), Fraction(1001, 1000)),  # one grid point inside
            (Fraction(37, 100), Fraction(38, 100)),
            (Fraction(5), Fraction(5)),  # lo == hi draws nothing
            (Fraction(1, 3), Fraction(1, 3)),
        ],
    )
    def test_cents_draw_matches_reference(self, lo, hi):
        fast, slow = random.Random(77), random.Random(77)
        grid, (low, high) = _cents_grid(lo, hi)
        assert grid % 100 == 0
        draw = _log_uniform_cents(low, high, grid)
        for _ in range(3000):
            assert Fraction(draw(fast), grid) == reference_log_uniform(slow, lo, hi)
        assert fast.getstate() == slow.getstate()

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(-1, 2)
        with pytest.raises(ConfigError):
            GeneratorSpec(1, 2, family="coverage")
        with pytest.raises(ConfigError):
            GeneratorSpec(1, 2, clause_count=(0, 2))
        with pytest.raises(ConfigError):
            GeneratorSpec(1, 2, value_range=(Fraction(0), Fraction(5)))
        with pytest.raises(ConfigError):
            GeneratorSpec.from_dict({"n": 1})


class TestExperiments:
    def test_report_is_reproducible(self):
        inst = generate_instance(GeneratorSpec(3, 3, seed=11))
        config = ExperimentConfig(inst, trials=20, base_seed=5)
        first = report_to_csv(run_experiment(config))
        second = report_to_csv(run_experiment(config))
        assert first == second
        assert first.splitlines()[0] == (
            "trial_seed,branch,welfare,payments_total,demand_queries,value_queries"
        )

    def test_welfare_never_exceeds_opt_and_covers_payments(self):
        inst = generate_instance(GeneratorSpec(4, 3, seed=12))
        report = run_experiment(ExperimentConfig(inst, trials=40))
        assert report.opt is not None
        for t in report.trials:
            assert t.welfare <= report.opt
            assert t.welfare >= t.payments_total
        assert report.mean_welfare <= report.opt

    def test_single_bidder_ratio_at_least_one(self):
        inst = Instance(2, (xos((3, 4)),))
        report = run_experiment(ExperimentConfig(inst, trials=30))
        assert report.ratio_of_means is not None
        assert report.ratio_of_means >= 1

    def test_zero_instance_ratio_convention(self):
        inst = Instance(2, (additive((0, 0)), additive((0, 0))))
        report = run_experiment(ExperimentConfig(inst, trials=5))
        assert report.opt == 0
        assert report.ratio_of_means == 1
        assert set(report.ratio_quantiles.values()) == {"1"}

    @settings(max_examples=300, deadline=None)
    @given(
        welfares=st.lists(
            st.fractions(min_value=0, max_value=50, max_denominator=6)
            | st.sampled_from([Fraction(0), Fraction(3), Fraction(7, 2)]),
            min_size=1,
            max_size=40,
        ),
        headroom=st.fractions(min_value=0, max_value=10, max_denominator=4),
        zero_opt=st.booleans(),
    )
    def test_ratio_quantiles_match_per_trial_ratios(self, welfares, headroom, zero_opt):
        """The quantiles read off the welfares in falling order equal those
        of the per-trial ratios opt / w, sorted with w = 0 ("inf") last, at
        every rank: with ties, zero welfares and opt = 0 (every welfare 0). The
        optimum and the welfares go in as numerators on one grid."""
        if zero_opt:
            welfares = [Fraction(0)] * len(welfares)
        opt = max(welfares) + (0 if zero_opt else headroom)
        ratios = sorted(
            (opt / w if w > 0 else None for w in welfares),
            key=lambda r: (r is None, r),
        )
        expected = {}
        for name, level in QUANTILES:
            r = ratios[max(1, math.ceil(level * len(ratios))) - 1]
            if opt == 0:
                expected[name] = "1"
            else:
                expected[name] = "inf" if r is None else format_rational(r)
        grid = math.lcm(opt.denominator, *(w.denominator for w in welfares))
        numerators = [w.numerator * (grid // w.denominator) for w in welfares]
        top = opt.numerator * (grid // opt.denominator)
        assert _ratio_quantiles(top, numerators) == expected

    def test_oracle_cap_with_ratio_requested(self):
        inst = generate_instance(GeneratorSpec(3, 3, seed=13))
        with pytest.raises(CapabilityError):
            run_experiment(ExperimentConfig(inst, trials=2, oracle_cap=10))
        report = run_experiment(
            ExperimentConfig(inst, trials=2, oracle_cap=10, measure_ratio=False)
        )
        assert report.opt is None

    @pytest.mark.parametrize("seed", [2, 6])
    def test_budget_additive_past_enumeration_cap(self, seed):
        # 24 items: demand queries over more than 20 allowed items go to the
        # budget-additive knapsack, at the mechanism's posted prices.
        inst = generate_instance(GeneratorSpec(40, 24, "budget-additive", seed=1))
        result = run_trial(inst, seed)
        assert result.demand_queries > 0
        assert result.welfare >= result.payments_total >= 0

    def test_market_checked_before_the_oracle(self, monkeypatch):
        # The oracle's work grows as 3^m; a market the mechanism refuses
        # must be refused before it runs.
        def oracle(*args, **kwargs):
            raise AssertionError("the oracle ran on a market without bidders")

        monkeypatch.setattr(harness, "brute_force_opt", oracle)
        with pytest.raises(DomainError, match="at least one bidder"):
            run_experiment(ExperimentConfig(Instance(10**7, ()), trials=1))

    def test_bad_trial_count(self):
        inst = Instance(1, (xos((1,)),))
        with pytest.raises(ConfigError):
            ExperimentConfig(inst, trials=0)


def plant_free_grand_bundle(real):
    """A mechanism that lets the second-price winner keep the grand bundle
    for free, which rewards overbidding."""

    def free_grand_bundle(bidders, m, tape):
        outcome = real(bidders, m, tape)
        if outcome.branch != SECOND_PRICE:
            return outcome
        return replace(outcome, allocation=Allocation(outcome.allocation.bundles, {}))

    return free_grand_bundle


def plant_statistics_query(real, planted):
    """A mechanism that demand-queries one statistics-group bidder once,
    within the per-bidder budget of alpha, noting it in ``planted``."""

    def query_statistics_group(bidders, m, tape):
        outcome = real(bidders, m, tape)
        if not outcome.statistics_group:
            return outcome
        stray = outcome.statistics_group[0]
        planted.append(stray)
        return replace(outcome, demand_queries={**outcome.demand_queries, stray: 1})

    return query_statistics_group


def plant_once(real, runs, planted):
    """A mechanism that plants an over-budget count on the first deviating
    learning run of a 3-bidder sweep with 3 deviations, noting its run
    index, bidders and real outcome in ``planted``."""

    def planted_once(bidders, m, tape):
        outcome = real(bidders, m, tape)
        runs.append(outcome)
        # Each seed runs the honest report first, then 3 lies per bidder.
        if planted or len(runs) % 10 == 1 or outcome.params is None:
            return outcome
        planted.append((len(runs) - 1, list(bidders), outcome))
        over = {outcome.groups[-1][0]: outcome.params.alpha + 1}
        return replace(outcome, demand_queries={**outcome.demand_queries, **over})

    return planted_once


def plant_on_honest(real):
    """A mechanism that demand-queries bidder 0 99 times on every honest run,
    the first on a tape's record, and returns that planted outcome again to
    every replay that reuses the run: the sweep then sees the honest outcome
    itself, over budget, on the replays of lies the run never read."""
    pairs = []

    def over_on_honest(bidders, m, tape):
        honest = not tape._kept
        outcome = real(bidders, m, tape)
        if honest:
            queries = {**outcome.demand_queries, bidders[0][0]: 99}
            pairs.append((outcome, replace(outcome, demand_queries=queries)))
        return next((p for r, p in pairs if r is outcome), outcome)

    return over_on_honest


def plant_second_price_query(real):
    """A mechanism that demand-queries the second-price winner once: the
    second-price branch asks no demand query."""

    def query_winner(bidders, m, tape):
        outcome = real(bidders, m, tape)
        if outcome.branch != SECOND_PRICE:
            return outcome
        (winner,) = outcome.allocation.bundles
        return replace(outcome, demand_queries={winner: 1})

    return query_winner


class TestTruthfulnessReport:
    def test_clean_on_small_instance(self):
        inst = generate_instance(GeneratorSpec(3, 2, seed=14))
        report = truthfulness_report(inst, seeds=4, deviations=3)
        assert report.clean
        assert report.deviations_checked == 4 * 3 * 3
        assert report.runs == 4 * (1 + 3 * 3)

    def test_violations_carry_a_reproducer(self, monkeypatch):
        """A planted mechanism that lets the second-price winner keep the
        grand bundle for free rewards overbidding. Each violation it shows
        names a lie that reloads from the instance format and, replayed at
        the violation's seed, gives the reported gain."""
        free_grand_bundle = plant_free_grand_bundle(harness.final_mechanism)
        monkeypatch.setattr(harness, "final_mechanism", free_grand_bundle)
        inst = generate_instance(GeneratorSpec(3, 2, seed=14))
        m, bidders = inst.item_count, inst.bidders()
        report = truthfulness_report(inst, seeds=4, deviations=3)
        assert report.violations
        for violation in report.violations:
            assert set(violation) == {"seed", "bidder", "gain", "lie", "instance"}
            reloaded = instance_to_dict(instance_from_dict(instance_to_dict(inst)))
            text = json.dumps(reloaded, sort_keys=True, separators=(",", ":"))
            assert violation["instance"] == hashlib.sha256(text.encode()).hexdigest()
            seed, b = violation["seed"], violation["bidder"]
            lie = instance_from_dict({"m": m, "bidders": [violation["lie"]]})
            twisted = list(bidders)
            twisted[b] = (b, lie.valuations[0])
            truth = bidders[b][1]
            honest = free_grand_bundle(bidders, m, CoinTape(seed))
            lying = free_grand_bundle(twisted, m, CoinTape(seed))
            gain = bidder_utility(lying, b, truth) - bidder_utility(honest, b, truth)
            assert format_rational(gain) == violation["gain"]

    def test_demand_query_outside_groups_reported(self, monkeypatch):
        """A planted mechanism that demand-queries one statistics-group
        bidder once, within the per-bidder budget of alpha, breaks the
        mechanism's rule that only learning groups are demand-queried; the
        sweep reports that bidder on every learning run that sampled one.
        Violations in deviating runs also name the deviator, the lie and the
        instance."""
        planted = []
        planting = plant_statistics_query(harness.final_mechanism, planted)
        monkeypatch.setattr(harness, "final_mechanism", planting)
        inst = generate_instance(GeneratorSpec(3, 2, seed=14))
        report = truthfulness_report(inst, seeds=4, deviations=3)
        assert planted
        assert not report.clean
        assert sorted(v["bidder"] for v in report.query_budget_violations) == sorted(
            planted
        )
        honest = {"seed", "bidder", "demand_queries"}
        deviating = honest | {"deviator", "lie", "instance"}
        kinds = [set(v) for v in report.query_budget_violations]
        assert honest in kinds and deviating in kinds
        for violation in report.query_budget_violations:
            assert set(violation) in (honest, deviating)
            assert violation["demand_queries"] == 1

    def test_sweep_whose_learning_runs_sell(self):
        """Thirty bidders make a non-empty first learning group, so the
        sweep replays learning runs that allocate items, not only runs whose
        learning auctions have no bidders."""
        inst = generate_instance(GeneratorSpec(30, 4, "xos-random", seed=1))
        selling = [
            seed
            for seed in range(25)
            for outcome in [final_mechanism(inst.bidders(), 4, CoinTape(seed))]
            if outcome.branch != SECOND_PRICE and outcome.allocation.allocated_items
        ]
        assert selling
        report = truthfulness_report(inst, seeds=25, deviations=3)
        assert report.violations == ()
        assert report.query_budget_violations == ()

    def test_query_budget_check_on_planted_outcomes(self):
        inst = generate_instance(GeneratorSpec(6, 3, seed=3))
        for seed in range(40):
            outcome = final_mechanism(inst.bidders(), 3, CoinTape(seed))
            assert harness._query_budget_check(outcome, seed) == []
            if outcome.params is None:
                continue
            alpha = outcome.params.alpha
            grouped = sorted(b for group in outcome.groups for b in group)
            over = replace(outcome, demand_queries={grouped[0]: alpha + 1})
            assert harness._query_budget_check(over, seed) == [
                {"seed": seed, "bidder": grouped[0], "demand_queries": alpha + 1}
            ]
            for stray in (*outcome.statistics_group, 6, -1):
                outside = replace(outcome, demand_queries={stray: 1})
                assert harness._query_budget_check(outside, seed) == [
                    {"seed": seed, "bidder": stray, "demand_queries": 1}
                ]

    def test_budget_violation_in_a_deviation_carries_a_reproducer(
        self, monkeypatch
    ):
        """An over-budget count planted on the first deviating learning run
        is reported with the deviator, the lie as an instance-format bidder
        entry, and the instance digest. The lie, reloaded and replayed at
        the violation's seed, gives the run the count was planted on."""
        real = harness.final_mechanism
        planted = []
        monkeypatch.setattr(harness, "final_mechanism", plant_once(real, [], planted))
        inst = generate_instance(GeneratorSpec(3, 2, seed=14))
        m, bidders = inst.item_count, inst.bidders()
        report = truthfulness_report(inst, seeds=4, deviations=3)
        ((run, reported, outcome),) = planted
        seed, deviation = divmod(run, 10)
        (violation,) = report.query_budget_violations
        assert violation == {
            "seed": seed,
            "bidder": outcome.groups[-1][0],
            "demand_queries": outcome.params.alpha + 1,
            "deviator": (deviation - 1) // 3,
            "lie": violation["lie"],
            "instance": harness.instance_digest(inst),
        }
        lie = instance_from_dict({"m": m, "bidders": [violation["lie"]]})
        twisted = list(bidders)
        twisted[violation["deviator"]] = (violation["deviator"], lie.valuations[0])
        assert twisted == reported
        assert real(twisted, m, CoinTape(seed)) == outcome

    def test_second_price_demand_query_reported(self):
        """A second-price run has no groups, so any demand query on it lies
        outside them and is reported, whatever its count."""
        inst = generate_instance(GeneratorSpec(3, 2, seed=14))
        outcome = final_mechanism(inst.bidders(), 2, CoinTape(0))
        assert outcome.branch == SECOND_PRICE
        assert harness._query_budget_check(outcome, 0) == []
        planted = replace(outcome, demand_queries={0: 1})
        assert harness._query_budget_check(planted, 0) == [
            {"seed": 0, "bidder": 0, "demand_queries": 1}
        ]
        counts = {2: 1, 0: 2, 7: 1}
        assert harness._query_budget_check(
            replace(outcome, demand_queries=counts), 5
        ) == [
            {"seed": 5, "bidder": b, "demand_queries": c} for b, c in counts.items()
        ]

    def test_second_price_demand_query_in_a_sweep(self, monkeypatch):
        """A planted mechanism that demand-queries the second-price winner is
        reported on honest and deviating runs; a deviating run's violation
        names the deviator, the lie and the instance, and the lie, reloaded
        and replayed at its seed, gives a second-price run whose winner is
        the reported bidder."""
        real = harness.final_mechanism
        monkeypatch.setattr(harness, "final_mechanism", plant_second_price_query(real))
        inst = generate_instance(GeneratorSpec(3, 2, seed=14))
        m, bidders = inst.item_count, inst.bidders()
        report = truthfulness_report(inst, seeds=4, deviations=3)
        honest = [v for v in report.query_budget_violations if "deviator" not in v]
        deviating = [v for v in report.query_budget_violations if "deviator" in v]
        assert honest and deviating
        for violation in honest:
            assert set(violation) == {"seed", "bidder", "demand_queries"}
            outcome = real(bidders, m, CoinTape(violation["seed"]))
            assert outcome.branch == SECOND_PRICE
            assert violation["bidder"] in outcome.allocation.bundles
        for violation in deviating:
            assert violation["instance"] == harness.instance_digest(inst)
            assert violation["demand_queries"] == 1
            lie = instance_from_dict({"m": m, "bidders": [violation["lie"]]})
            twisted = list(bidders)
            b = violation["deviator"]
            twisted[b] = (b, lie.valuations[0])
            outcome = real(twisted, m, CoinTape(violation["seed"]))
            assert outcome.branch == SECOND_PRICE
            assert violation["bidder"] in outcome.allocation.bundles

    def test_deviations_match_reference(self):
        for (lo, hi), m in itertools.product(DRAW_RANGES, range(1, 7)):
            fast, slow = random.Random(m), random.Random(m)
            grid, (low, high, top) = _cents_grid(lo / 2, hi * 2, hi * m)
            entry = _log_uniform_cents(low, high, grid)
            budget = _log_uniform_cents(low, top, grid)
            for _ in range(300):
                lie = _deviation(fast, m, grid, entry, budget, xos([0] * m))
                assert integer_form(lie) == integer_form(
                    reference_deviation(slow, m, lo, hi)
                ), (lo, hi, m)
            assert fast.getstate() == slow.getstate()

    def test_lie_bytes_are_pinned(self):
        """2,000 lies per item count, written in the instance format, hash to
        fixed digests, so the draws agree on every supported Python."""
        digests = {}
        for m in range(1, 7):
            rng = random.Random(m)
            entry = _log_uniform_cents(50, 20000, 100)
            budget = _log_uniform_cents(50, 10000 * m, 100)
            hidden = xos([0] * m)
            lies = [_deviation(rng, m, 100, entry, budget, hidden) for _ in range(2000)]
            text = json.dumps(
                instance_to_dict(Instance(m, tuple(lies))),
                sort_keys=True,
                separators=(",", ":"),
            )
            digests[m] = hashlib.sha256(text.encode()).hexdigest()
        assert digests == LIE_DIGESTS


TRUTHTEST_SHAPES = [
    (n, m, harness.FAMILIES[(n + m) % 3])
    for n in range(1, 6)
    for m in range(1, 7)
    if (n, m) != (1, 1)
]


def beta_flip_instance():
    """The 2 x 15 additive instance with bidder 0 worthless, on which a lie
    of worth moves beta from 1 to 2 on the runs that sample only bidder 0."""
    spec = GeneratorSpec(2, 15, "additive", seed=215)
    data = instance_to_dict(generate_instance(spec))
    data["bidders"][0]["clauses"] = [["0"] * data["m"]]
    return instance_from_dict(data)


class TestSweepMatchesReference:
    """The sweep, which takes the honest run's verdict for a replay that
    returns the honest outcome and hands over one worthless lie, reports
    exactly what ``reference_truthfulness_report`` does, checking in full."""

    def assert_same(self, inst, seeds, deviations, deviation_seed=0):
        fast = truthfulness_report(
            inst, seeds, deviations, deviation_seed=deviation_seed
        )
        slow = reference_truthfulness_report(
            inst, seeds, deviations, deviation_seed=deviation_seed
        )
        assert fast == slow
        return fast

    def test_truthtest_shapes(self):
        assert len(TRUTHTEST_SHAPES) == 29
        for k, (n, m, family) in enumerate(TRUTHTEST_SHAPES):
            inst = generate_instance(GeneratorSpec(n, m, family, seed=100_000 + k))
            report = self.assert_same(inst, seeds=4, deviations=3, deviation_seed=k)
            assert report.clean

    def test_crowd(self):
        inst = generate_instance(GeneratorSpec(30, 4, "xos-random", seed=1))
        assert self.assert_same(inst, seeds=25, deviations=2).clean

    def test_beta_flip_instance(self):
        assert self.assert_same(beta_flip_instance(), seeds=8, deviations=3).clean

    @pytest.mark.parametrize(
        "plant",
        [
            lambda real: plant_free_grand_bundle(real),
            lambda real: plant_statistics_query(real, []),
            lambda real: plant_once(real, [], []),
            plant_on_honest,
            plant_second_price_query,
        ],
        ids=["free-grand-bundle", "statistics-query", "once", "honest", "second-price"],
    )
    def test_planted_mechanisms(self, monkeypatch, plant):
        """Each side runs under a plant of its own; every plant shows."""
        real = harness.final_mechanism
        inst = generate_instance(GeneratorSpec(3, 2, seed=14))
        monkeypatch.setattr(harness, "final_mechanism", plant(real))
        fast = truthfulness_report(inst, seeds=4, deviations=3)
        monkeypatch.setattr(harness, "final_mechanism", plant(real))
        slow = reference_truthfulness_report(inst, seeds=4, deviations=3)
        assert fast == slow
        assert not fast.clean

    def test_honest_violation_reused_with_the_deviator(self, monkeypatch):
        """A violation planted on the honest run, whose outcome the replays
        of lies it never read return again, is reported once for the honest
        run and once per such replay, with the deviator and the lie."""
        real = harness.final_mechanism
        monkeypatch.setattr(harness, "final_mechanism", plant_on_honest(real))
        inst = generate_instance(GeneratorSpec(3, 2, seed=14))
        report = truthfulness_report(inst, seeds=4, deviations=3)
        honest = [v for v in report.query_budget_violations if "deviator" not in v]
        assert [v["seed"] for v in honest] == [0, 1, 2, 3]
        reused = [
            v
            for v in report.query_budget_violations
            if "deviator" in v and v["bidder"] == 0 and v["demand_queries"] == 99
        ]
        assert reused
        for violation in reused:
            assert violation["instance"] == harness.instance_digest(inst)
            assert set(violation) == {
                "seed", "bidder", "demand_queries", "deviator", "lie", "instance"
            }


class TestIntegerGains:
    """``utility_terms`` and ``_gain`` decide a deviation's gain on integers;
    the reference is the path they replace, ``value_query(...) - payment``
    on ``Fraction``s compared with ``>``."""

    def test_gain_decisions_match_fraction_utilities(self):
        rng = random.Random(25)
        seen = Counter()
        for case in range(3000):
            m = rng.randint(1, 5)
            rows = [
                [rng.choice((0, 0, 1, 2, 5, 30)) for _ in range(m)]
                for _ in range(rng.randint(1, 3))
            ]
            family = rng.randrange(3)  # XOS, additive, budget-additive
            if family:
                rows = rows[:1]
            cap = rng.randint(0, sum(rows[0]) + 3) if family == 2 else None
            truth = on_grid(rng.choice((1, 3, 100, 300)), rows, cap)

            def share():
                return frozenset(j for j in range(m) if rng.random() < 0.4)

            def price():
                if rng.random() < 0.4:
                    return ZERO
                return Fraction(rng.randint(0, 40), rng.choice((1, 2, 3, 7, 100)))

            def outcome(bundle, payment):
                # The bidder is named or left out when it gets or pays nothing.
                named = bundle or payment or rng.random() < 0.5
                allocation = Allocation(
                    {0: bundle} if named else {}, {0: payment} if named else {}
                )
                return MechanismOutcome(
                    allocation=allocation,
                    welfare=ZERO,
                    branch=SECOND_PRICE,
                    value_queries={0: 1},
                )

            base_bundle, base_payment = share(), price()
            base = value_query(truth, base_bundle) - base_payment
            bundle, payment = share(), price()
            if rng.random() < 0.3:
                # Priced so that the utility ties the base, where it can.
                payment = max(ZERO, value_query(truth, bundle) - base)
            utility = value_query(truth, bundle) - payment

            terms = utility_terms(outcome(bundle, payment), 0, truth)
            base_terms = utility_terms(outcome(base_bundle, base_payment), 0, truth)
            assert terms[1] > 0 and base_terms[1] > 0
            assert Fraction(*terms) == utility, case
            assert Fraction(*base_terms) == base, case
            assert bidder_utility(outcome(bundle, payment), 0, truth) == utility
            gain = _gain(terms, base_terms)
            if utility > base:
                assert gain == utility - base, case
                seen["gain"] += 1
            else:
                assert gain is None, case
                seen["tie" if utility == base else "loss"] += 1
            seen["nothing"] += terms == base_terms == (0, 1)
            seen["zero payment"] += payment == 0 and bool(bundle)
        assert min(seen.values()) > 100, seen


class TestIntegerDraws:
    @pytest.mark.parametrize("family", harness.FAMILIES)
    @pytest.mark.parametrize("lo, hi", DRAW_RANGES)
    def test_generator_matches_reference(self, monkeypatch, family, lo, hi):
        """Every valuation the generator draws on its integer grid equals the
        Fraction reference's, and both leave the generator's PRNG alike."""
        made = []

        def recording_random(seed):
            made.append(random.Random(seed))
            return made[-1]

        monkeypatch.setattr(
            harness, "random", SimpleNamespace(Random=recording_random)
        )
        for seed in range(12):
            spec = GeneratorSpec(
                seed % 5,
                seed % 7,
                family,
                clause_count=(1, 3),
                value_range=(lo, hi),
                seed=seed,
            )
            fast = generate_instance(spec)
            slow_rng = random.Random(seed)
            slow = reference_generate_instance(spec, slow_rng)
            assert list(map(integer_form, fast.valuations)) == list(
                map(integer_form, slow.valuations)
            )
            assert made.pop().getstate() == slow_rng.getstate()

    @settings(max_examples=200, deadline=None)
    @given(
        low=st.integers(1, 10**7),
        extra=st.integers(1, 10**8),
        grid=st.sampled_from((100, 300, 700, 10**4, 3 * 10**6)),
        seed=st.integers(0, 2**32),
    )
    def test_draw_matches_uniform_bit_for_bit(self, low, extra, grid, seed):
        """The draw's ``log_lo + span * rng.random()`` is the float
        ``rng.uniform(log_lo, log_hi)`` gives, so the draws and the PRNG
        states agree with the draw as written on ``uniform``."""
        high = low + extra
        log_lo, log_hi = math.log(low / grid), math.log(high / grid)
        fast, slow = random.Random(seed), random.Random(seed)
        span = log_hi - log_lo
        for _ in range(20):
            assert log_lo + span * fast.random() == slow.uniform(log_lo, log_hi)
        cent = grid // 100
        first, last = -(-low // cent), high // cent

        def uniform_draw(rng):
            cents = round(math.exp(rng.uniform(log_lo, log_hi)) * 100)
            return low if cents < first else high if cents > last else cents * cent

        draw = _log_uniform_cents(low, high, grid)
        for _ in range(20):
            assert draw(fast) == uniform_draw(slow)
        assert fast.getstate() == slow.getstate()
