"""Value, demand, and supporting-price queries against direct enumeration."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab.errors import CapabilityError, InstanceShapeError
from auctionlab.valuations import (
    ENUMERATION_CAP,
    KNAPSACK_CELL_CAP,
    XosValuation,
    _demand_knapsack,
    additive,
    budget_additive,
    bundle_value_table,
    demand_query,
    max_subset_sums,
    supporting_prices,
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


def fraction_value(valuation, items):
    """Reference v(S): the definition summed in ``Fraction``."""
    if isinstance(valuation, XosValuation):
        return max(fraction_clause_totals(valuation, items))
    total = sum((valuation.item_values[j] for j in items), Fraction(0))
    return min(valuation.budget, total)


def fraction_clause_totals(valuation, items):
    return [
        sum((c.item_values[j] for j in items), Fraction(0)) for c in valuation.clauses
    ]


def fused_max_subset_sums(rows, size):
    """Reference subset-sum kernel: one pass over every mask per row, the
    running subset sum and the running maximum sharing the loop."""
    nmask = 1 << size
    best = [0] * nmask
    for row in rows:
        acc = [0] * nmask
        for mask in range(1, nmask):
            low = mask & -mask
            total = acc[mask ^ low] + row[low.bit_length() - 1]
            acc[mask] = total
            if total > best[mask]:
                best[mask] = total
    return best


def random_fractional_valuation(rng, m):
    def entry():
        return Fraction(rng.randint(0, 40), rng.choice([1, 2, 3, 4, 7, 100]))

    if rng.random() < 0.5:
        return xos(*[[entry() for _ in range(m)] for _ in range(rng.randint(1, 4))])
    return budget_additive([entry() for _ in range(m)], entry())


class TestIntegerGrid:
    """Integer bundle sums on the valuation's own grid, checked against the
    ``Fraction`` definition."""

    def test_value_query_matches_fraction_sums(self):
        rng = random.Random(2024)
        for _ in range(80):
            m = rng.randint(0, 7)
            v = random_fractional_valuation(rng, m)
            for _ in range(6):
                bundle = [j for j in range(m) if rng.random() < 0.5]
                assert value_query(v, bundle) == fraction_value(v, bundle)

    def test_maximizing_clause_matches_fraction_sums(self):
        rng = random.Random(2025)

        def entry():
            # Few distinct values, so clause totals often tie.
            return Fraction(rng.randint(0, 3), rng.choice([1, 2, 3]))

        for _ in range(80):
            m = rng.randint(0, 6)
            v = xos(*[[entry() for _ in range(m)] for _ in range(rng.randint(1, 4))])
            bundle = [j for j in range(m) if rng.random() < 0.6]
            totals = fraction_clause_totals(v, bundle)
            assert v.maximizing_clause(bundle) == totals.index(max(totals))

    def test_grid_fields(self):
        v = xos(("1/3", "2.5"), ("3/2", 0))
        assert (v.scale, v.rows) == (6, ((2, 15), (9, 0)))
        b = budget_additive(("1/4", 2), "5/6")
        assert (b.scale, b.row, b.cap) == (12, (3, 24), 10)

    def test_cached_fields_ignored_by_eq_hash_repr(self):
        for make in (
            lambda: xos(("1/3", "2.5"), ("3/2", 0)),
            lambda: budget_additive(("1/4", 2), "5/6"),
        ):
            warm, cold = make(), make()
            text = repr(cold)
            value_query(warm, {0, 1})
            demand_query(warm, (Fraction(1), Fraction(1)))
            assert "scale" in vars(warm) and "scale" not in vars(cold)
            assert warm == cold and hash(warm) == hash(cold)
            assert repr(warm) == text


class TestSubsetSumKernel:
    def test_matches_fused_reference(self):
        rng = random.Random(606)
        for size in range(14):
            for nrows in range(4):
                rows = [[rng.randint(0, 99) for _ in range(size)] for _ in range(nrows)]
                assert max_subset_sums(rows, size) == fused_max_subset_sums(rows, size)


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
        scale = v.scale
        assert scale == 60
        self.assert_matches_value_query(v, (0, 1, 2, 3), scale)
        self.assert_matches_value_query(v, (1, 3), 2 * scale)

    def test_binding_budget(self):
        v = budget_additive(("1/3", "2.5", "3/4", 2), "2/7")
        scale = v.scale
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
            self.assert_matches_value_query(v, items, v.scale)


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
        m = ENUMERATION_CAP + 1
        with pytest.raises(CapabilityError, match="enumeration cap"):
            demand_query(additive([1] * m), (Fraction(0),) * m)

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
        rng = random.Random(77)
        for _ in range(40):
            m = rng.randint(3, 7)
            v = budget_additive(
                [Fraction(rng.randint(0, 12), 2) for _ in range(m)],
                Fraction(rng.randint(0, 30), 2),
            )
            prices = tuple(Fraction(rng.randint(0, 6), 4) for _ in range(m))
            bundle = _demand_knapsack(v, prices, tuple(range(m)))
            profit = value_query(v, bundle) - sum(
                (prices[j] for j in bundle), Fraction(0)
            )
            assert profit == enumerate_best_profit(v, prices, range(m))

    def test_knapsack_at_mechanism_price_grid(self):
        # Posted prices carry denominators like 2 * 100 * m^2; the table is
        # indexed by value sum, so its size does not grow with them.
        rng = random.Random(1911)
        den = 2 * 100 * 24**2
        for m in range(3, 9):
            for _ in range(8):
                v = budget_additive(
                    [Fraction(rng.randint(100, 10_000), 100) for _ in range(m)],
                    Fraction(rng.randint(100, 30_000), 100),
                )
                prices = tuple(
                    Fraction(rng.randint(0, 60 * den), den) for _ in range(m)
                )
                allowed = tuple(j for j in range(m) if rng.random() < 0.8)
                bundle = _demand_knapsack(v, prices, allowed)
                assert bundle <= set(allowed)
                profit = value_query(v, bundle) - sum(
                    (prices[j] for j in bundle), Fraction(0)
                )
                assert profit == enumerate_best_profit(v, prices, allowed)

    def test_knapsack_cell_cap(self):
        m = ENUMERATION_CAP + 1
        v = budget_additive([300_000] * m, 10**7)
        assert sum(v.row) + 1 > KNAPSACK_CELL_CAP
        with pytest.raises(CapabilityError, match="knapsack table"):
            demand_query(v, (Fraction(1),) * m)


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
