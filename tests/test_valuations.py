"""Value, demand, and supporting-price queries against direct enumeration."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab.errors import CapabilityError, InstanceShapeError
from auctionlab.valuations import (
    DemandConfig,
    additive,
    budget_additive,
    bundle_value_table,
    demand_query,
    supporting_prices,
    valuation_scale,
    value_query,
    xos,
)


def enumerate_best_profit(valuation, prices, items):
    """Independent oracle: max of v(S) - p(S) over every subset, by brute force."""
    best = Fraction(0)
    for k in range(len(items) + 1):
        for combo in combinations(items, k):
            profit = value_query(valuation, combo) - sum(
                (prices[j] for j in combo), Fraction(0)
            )
            if profit > best:
                best = profit
    return best


class TestValueQuery:
    def test_xos_takes_clause_max(self):
        v = xos((1, 2), (2, 0))
        assert value_query(v, {0, 1}) == 3

    def test_empty_bundle_is_zero(self):
        assert value_query(xos((1, 2), (2, 0)), set()) == 0
        assert value_query(budget_additive((2, 2), 3), set()) == 0

    def test_budget_caps_the_sum(self):
        assert value_query(budget_additive((2, 2), 3), {0, 1}) == 3

    def test_out_of_range_item(self):
        with pytest.raises(InstanceShapeError):
            value_query(xos((1, 2)), {2})

    def test_budget_additive_matches_additive_when_budget_slack(self):
        values = ("1.5", 2, "0.25")
        ba = budget_additive(values, 100)
        add = additive(values)
        for k in range(4):
            for combo in combinations(range(3), k):
                assert value_query(ba, combo) == value_query(add, combo)


class TestBundleValueTable:
    """The integer bundle table shared by demand enumeration and the oracle,
    checked mask by mask against exact value queries."""

    @staticmethod
    def assert_matches_value_query(v, items, scale):
        table = bundle_value_table(v, items, scale)
        assert len(table) == 1 << len(items)
        for mask, entry in enumerate(table):
            bundle = [items[b] for b in range(len(items)) if mask >> b & 1]
            assert entry == scale * value_query(v, bundle)

    def test_xos_with_fractional_entries(self):
        v = xos(("1/3", "2.5", 0, "7/4"), ("3/2", "1/6", 2, "0.2"))
        scale = valuation_scale(v)
        assert scale == 60
        self.assert_matches_value_query(v, (0, 1, 2, 3), scale)
        self.assert_matches_value_query(v, (1, 3), 2 * scale)

    def test_binding_budget(self):
        v = budget_additive(("1/3", "2.5", "3/4", 2), "2/7")
        scale = valuation_scale(v)
        table = bundle_value_table(v, (0, 1, 2, 3), scale)
        assert table[0b0001] == scale * Fraction(2, 7)  # 1/3 alone is capped
        assert max(table) == scale * Fraction(2, 7)
        self.assert_matches_value_query(v, (0, 1, 2, 3), scale)
        self.assert_matches_value_query(v, (0, 2), 3 * scale)

    def test_random_valuations(self):
        rng = random.Random(31)

        def entry():
            return Fraction(rng.randint(0, 12), rng.choice([1, 2, 3, 5, 7]))

        for _ in range(60):
            m = rng.randint(0, 6)
            if rng.random() < 0.5:
                clauses = rng.randint(1, 3)
                v = xos(*[[entry() for _ in range(m)] for _ in range(clauses)])
            else:
                v = budget_additive([entry() for _ in range(m)], entry())
            items = tuple(j for j in range(m) if rng.random() < 0.7)
            self.assert_matches_value_query(v, items, valuation_scale(v))


class TestDemandQuery:
    def test_all_prices_above_values_yields_empty(self):
        v = xos((3, 1), (1, 3))
        assert demand_query(v, (Fraction(10), Fraction(10))) == frozenset()

    def test_single_clause_example(self):
        # profits over the four bundles: {} -> 0, {0} -> 2, {1} -> -1, {0,1} -> 1
        v = xos((3, 1))
        assert demand_query(v, (Fraction(1), Fraction(2))) == {0}

    def test_budget_additive_cardinality_tiebreak(self):
        # {0} and every pair all have profit 3; the singleton wins.
        v = budget_additive((4, 4, 4), 5)
        assert demand_query(v, (Fraction(1),) * 3) == {0}

    def test_lexicographic_tiebreak(self):
        # {0,2} and {1,3} both have profit 4 with 2 items; (0,2) < (1,3).
        v = xos((3, 0, 3, 0), (0, 3, 0, 3))
        prices = (Fraction(1),) * 4
        assert demand_query(v, prices) == {0, 2}

    def test_restriction_to_remaining_items(self):
        v = additive((5, 4))
        assert demand_query(v, (Fraction(1), Fraction(1)), allowed={1}) == {1}

    def test_enumeration_cap_raises_for_xos(self):
        v = additive([1] * 6)
        with pytest.raises(CapabilityError):
            demand_query(v, (Fraction(0),) * 6, config=DemandConfig(enumeration_cap=5))

    def test_profit_matches_enumeration_on_random_instances(self):
        import random

        rng = random.Random(1405)
        for _ in range(60):
            m = rng.randint(1, 8)
            if rng.random() < 0.5:
                v = xos(
                    *[
                        [rng.randint(0, 9) for _ in range(m)]
                        for _ in range(rng.randint(1, 3))
                    ]
                )
            else:
                v = budget_additive(
                    [rng.randint(0, 9) for _ in range(m)], rng.randint(0, 20)
                )
            prices = tuple(Fraction(rng.randint(0, 9), 2) for _ in range(m))
            bundle = demand_query(v, prices)
            profit = value_query(v, bundle) - sum(
                (prices[j] for j in bundle), Fraction(0)
            )
            assert profit == enumerate_best_profit(v, prices, range(m))

    def test_knapsack_backend_agrees_with_enumeration(self):
        import random

        rng = random.Random(77)
        forced = DemandConfig(enumeration_cap=2)
        for _ in range(40):
            m = rng.randint(3, 7)
            v = budget_additive(
                [Fraction(rng.randint(0, 12), 2) for _ in range(m)],
                Fraction(rng.randint(0, 30), 2),
            )
            prices = tuple(Fraction(rng.randint(0, 6), 4) for _ in range(m))
            bundle = demand_query(v, prices, config=forced)
            profit = value_query(v, bundle) - sum(
                (prices[j] for j in bundle), Fraction(0)
            )
            assert profit == enumerate_best_profit(v, prices, range(m))

    def test_knapsack_with_coarse_price_grid(self):
        # price_scale=1 floors every 5/3 price to 1; the table then holds
        # values (0,4,8,9) at spends (0,1,2,3), profits (0,3,6,6), and the
        # spend-2 cell wins the tie, reconstructing to {0,1}
        v = budget_additive((4, 4, 4), 9)
        prices = (Fraction(5, 3), Fraction(5, 3), Fraction(5, 3))
        coarse = DemandConfig(enumeration_cap=2, price_scale=1)
        first = demand_query(v, prices, config=coarse)
        assert first == demand_query(v, prices, config=coarse)
        assert first == {0, 1}

    def test_knapsack_cell_cap(self):
        v = budget_additive((1,) * 4, 4)
        prices = (Fraction(10**9),) * 4
        tight = DemandConfig(enumeration_cap=2, knapsack_cell_cap=100)
        with pytest.raises(CapabilityError):
            demand_query(v, prices, config=tight)


class TestSupportingPrices:
    def test_maximizing_clause_example(self):
        v = xos((1, 2), (2, 0))
        assert supporting_prices(v, {0, 1}) == {0: 1, 1: 2}

    def test_empty_bundle(self):
        assert supporting_prices(xos((1, 2)), set()) == {}

    def test_single_clause(self):
        assert supporting_prices(xos((5, 7)), {1}) == {1: 7}

    def test_clause_tie_goes_to_lowest_index(self):
        v = xos((1, 1), (2, 0))
        # both clauses give 2 on {0,1}; clause 0 wins
        assert supporting_prices(v, {0, 1}) == {0: 1, 1: 1}

    def test_budget_additive_unsupported(self):
        with pytest.raises(CapabilityError):
            supporting_prices(budget_additive((1, 1), 2), {0})

    def test_defining_property_on_random_bundles(self):
        import random

        rng = random.Random(90125)
        for _ in range(40):
            m = rng.randint(1, 7)
            v = xos(
                *[
                    [rng.randint(0, 9) for _ in range(m)]
                    for _ in range(rng.randint(1, 4))
                ]
            )
            bundle = frozenset(j for j in range(m) if rng.random() < 0.6)
            prices = supporting_prices(v, bundle)
            assert sum(prices.values(), Fraction(0)) == value_query(v, bundle)
            for k in range(len(bundle) + 1):
                for sub in combinations(sorted(bundle), k):
                    assert sum(
                        (prices[j] for j in sub), Fraction(0)
                    ) <= value_query(v, sub)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(min_value=0, max_value=50), min_size=4, max_size=4),
        min_size=1,
        max_size=4,
    ),
    small=st.sets(st.integers(min_value=0, max_value=3)),
    extra=st.sets(st.integers(min_value=0, max_value=3)),
)
def test_value_query_is_monotone(rows, small, extra):
    v = xos(*rows)
    assert value_query(v, small) <= value_query(v, small | extra)


def test_invalid_constructions():
    with pytest.raises(InstanceShapeError):
        xos()
    with pytest.raises(InstanceShapeError):
        xos((1, -2))
    with pytest.raises(InstanceShapeError):
        xos((1, 2), (1,))
    with pytest.raises(InstanceShapeError):
        budget_additive((1,), -1)
    with pytest.raises(InstanceShapeError):
        demand_query(additive((1, 2)), (Fraction(1),))
