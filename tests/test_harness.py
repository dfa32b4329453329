"""Generator determinism, experiment reports, instance round-trips."""

import io
from fractions import Fraction

import pytest

from auctionlab.errors import CapabilityError, ConfigError, InstanceShapeError
from auctionlab.harness import (
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
from auctionlab.rationals import format_rational
from auctionlab.valuations import XosValuation, additive, budget_additive, xos


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
        for v in inst.valuations:
            assert all(x == 5 for x in v.clauses[0].item_values)

    def test_clause_count_honored(self):
        spec = GeneratorSpec(4, 3, family="xos-random", clause_count=(3, 3), seed=2)
        inst = generate_instance(spec)
        for v in inst.valuations:
            assert isinstance(v, XosValuation)
            assert len(v.clauses) == 3

    def test_values_stay_in_range(self):
        spec = GeneratorSpec(
            5, 4, family="xos-random", value_range=(Fraction(1), Fraction(100)), seed=3
        )
        inst = generate_instance(spec)
        for v in inst.valuations:
            for clause in v.clauses:
                for x in clause.item_values:
                    assert 1 <= x <= 100

    def test_budget_additive_family(self):
        spec = GeneratorSpec(3, 3, family="budget-additive", seed=4)
        inst = generate_instance(spec)
        for v in inst.valuations:
            assert max(v.item_values) <= v.budget <= sum(v.item_values)

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

    def test_bad_trial_count(self):
        inst = Instance(1, (xos((1,)),))
        with pytest.raises(ConfigError):
            ExperimentConfig(inst, trials=0)


class TestTruthfulnessReport:
    def test_clean_on_small_instance(self):
        inst = generate_instance(GeneratorSpec(3, 2, seed=14))
        report = truthfulness_report(inst, seeds=4, deviations=3)
        assert report.clean
        assert report.deviations_checked == 4 * 3 * 3
        assert report.runs == 4 * (1 + 3 * 3)
