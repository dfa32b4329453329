"""Value, demand, and supporting-price queries against direct enumeration."""

import random
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab.errors import CapabilityError, InstanceShapeError
from auctionlab.valuations import (
    ENUMERATION_CAP,
    KNAPSACK_CELL_CAP,
    Valuation,
    _demand_enumerate,
    _demand_knapsack,
    additive,
    budget_additive,
    bundle_value_table,
    demand_query,
    max_subset_sums,
    on_grid,
    supporting_prices,
    value_query,
    xos,
)
from demand_reference import reference_demand
from mechanism_reference import FAMILIES, valuations


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


def fraction_value(rows, budget, items):
    """Reference v(S): the definition summed in ``Fraction`` over the rows and
    budget (None for XOS) a valuation was built from."""
    best = max(fraction_clause_totals(rows, items))
    return best if budget is None else min(budget, best)


def fraction_clause_totals(rows, items):
    return [sum((row[j] for j in items), Fraction(0)) for row in rows]


def reference_form(rows, budget):
    """The integer form worked out from ``Fraction`` inputs: the least common
    denominator, the rows times it and the budget times it."""
    numbers = [x for row in rows for x in row] + ([] if budget is None else [budget])
    scale = lcm(1, *(x.denominator for x in numbers))
    scaled = tuple(tuple(int(x * scale) for x in row) for row in rows)
    return scale, scaled, None if budget is None else int(budget * scale)


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


def random_fractional_inputs(rng, m):
    """Rows and a budget (None for XOS) with denominators from {1, 2, 3, 4, 7,
    100}, and the valuation built from them."""

    def entry():
        return Fraction(rng.randint(0, 40), rng.choice([1, 2, 3, 4, 7, 100]))

    if rng.random() < 0.5:
        rows = [[entry() for _ in range(m)] for _ in range(rng.randint(1, 4))]
        return rows, None, xos(*rows)
    values = [entry() for _ in range(m)]
    budget = entry()
    return [values], budget, budget_additive(values, budget)


def per_item_value_query(valuation, items):
    """Reference v(S) without the whole and empty answers: every item
    range-checked, then the largest row sum over the bundle, capped."""
    m = valuation.item_count
    bundle = frozenset(items)
    for j in bundle:
        if not 0 <= j < m:
            raise InstanceShapeError(f"item {j} outside 0..{m - 1}")
    total = max(sum(row[j] for j in bundle) for row in valuation.rows)
    if valuation.cap is not None:
        total = min(valuation.cap, total)
    return Fraction(total, valuation.scale)


@st.composite
def grid_valuations(draw):
    """A valuation of either family over 0 to 8 items, on a small grid."""
    m = draw(st.integers(min_value=0, max_value=8))
    grid = draw(st.sampled_from([1, 2, 3, 100]))
    entry = st.integers(min_value=0, max_value=60)
    if draw(st.booleans()):
        rows = draw(
            st.lists(
                st.lists(entry, min_size=m, max_size=m), min_size=1, max_size=4
            )
        )
        return on_grid(grid, rows)
    row = draw(st.lists(entry, min_size=m, max_size=m))
    return on_grid(grid, [row], draw(st.integers(min_value=0, max_value=300)))


class TestWholeAndEmptyAnswers:
    """``value_query`` answers the whole item set and the empty bundle
    without its per-item path; ``columns`` is the rows item by item."""

    @settings(max_examples=150, deadline=None)
    @given(v=grid_valuations(), data=st.data())
    def test_value_query_matches_per_item_reference(self, v, data):
        m = v.item_count
        whole = list(range(m))
        flags = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
        random_bundle = {j for j in whole if flags[j]}
        for bundle in (
            frozenset(whole),
            set(whole),
            whole[::-1],
            frozenset(),
            set(),
            [],
            random_bundle,
            frozenset(random_bundle),
        ):
            assert value_query(v, bundle) == per_item_value_query(v, bundle)

    @settings(max_examples=100, deadline=None)
    @given(v=grid_valuations(), data=st.data())
    def test_full_size_bundle_with_an_outsider_raises(self, v, data):
        m = v.item_count
        outsider = data.draw(
            st.one_of(
                st.integers(max_value=-1), st.integers(min_value=m, max_value=m + 50)
            )
        )
        if m:
            dropped = data.draw(st.integers(min_value=0, max_value=m - 1))
            bundle = (set(range(m)) - {dropped}) | {outsider}
        else:
            bundle = {outsider}
        for spelling in (frozenset(bundle), set(bundle), sorted(bundle)):
            with pytest.raises(InstanceShapeError, match=f"item {outsider} outside"):
                value_query(v, spelling)
        with pytest.raises(InstanceShapeError):
            value_query(v, set(range(m)) | {outsider})

    @settings(max_examples=100, deadline=None)
    @given(v=grid_valuations())
    def test_columns_are_the_transposed_rows(self, v):
        assert v.columns == tuple(zip(*v.rows))


class TestIntegerGrid:
    """Integer bundle sums on the valuation's own grid, checked against the
    ``Fraction`` definition."""

    def test_value_query_matches_fraction_sums(self):
        rng = random.Random(2024)
        for _ in range(80):
            m = rng.randint(0, 7)
            rows, budget, v = random_fractional_inputs(rng, m)
            for _ in range(6):
                bundle = [j for j in range(m) if rng.random() < 0.5]
                assert value_query(v, bundle) == fraction_value(rows, budget, bundle)

    def test_grand_value_matches_fraction_sums(self):
        rng = random.Random(2026)
        binding = slack = 0
        for _ in range(300):
            m = rng.randint(0, 7)
            rows, budget, v = random_fractional_inputs(rng, m)
            everything = list(range(m))
            expected = fraction_value(rows, budget, everything)
            if budget is not None:
                if sum(rows[0]) > budget:
                    binding += 1
                else:
                    slack += 1
            assert v.grand_value == expected
            # Any spelling of the whole item set reads the one cached value.
            assert value_query(v, everything) is v.grand_value
            assert value_query(v, everything[::-1] + everything) is v.grand_value
        assert binding > 30 and slack > 30

    def test_maximizing_clause_matches_fraction_sums(self):
        rng = random.Random(2025)

        def entry():
            # Few distinct values, so clause totals often tie.
            return Fraction(rng.randint(0, 3), rng.choice([1, 2, 3]))

        for _ in range(80):
            m = rng.randint(0, 6)
            rows = [[entry() for _ in range(m)] for _ in range(rng.randint(1, 4))]
            v = xos(*rows)
            bundle = [j for j in range(m) if rng.random() < 0.6]
            totals = fraction_clause_totals(rows, bundle)
            assert v.maximizing_clause(bundle) == totals.index(max(totals))

    def test_grid_fields(self):
        v = xos(("1/3", "2.5"), ("3/2", 0))
        assert (v.scale, v.rows, v.cap) == (6, ((2, 15), (9, 0)), None)
        b = budget_additive(("1/4", 2), "5/6")
        assert (b.scale, b.rows, b.cap) == (12, ((3, 24),), 10)

    def test_cached_fields_ignored_by_eq_hash_repr(self):
        for make in (
            lambda: xos(("1/3", "2.5"), ("3/2", 0)),
            lambda: budget_additive(("1/4", 2), "5/6"),
        ):
            warm, cold = make(), make()
            text = repr(cold)
            value_query(warm, {0, 1})
            demand_query(warm, (Fraction(1), Fraction(1)))
            assert "grand_value" in vars(warm) and "grand_value" not in vars(cold)
            assert warm == cold and hash(warm) == hash(cold)
            assert repr(warm) == text


# Each valuation fact and its direct recomputation from the fields.
FACTS = {
    "all_items": lambda v: frozenset(range(v.item_count)),
    "grand_value": lambda v: per_item_value_query(v, range(v.item_count)),
    "columns": lambda v: tuple(
        tuple(row[j] for row in v.rows) for j in range(v.item_count)
    ),
}


class Unlockable:
    """A lock whose use fails the test: reading a fact must take none."""

    def __enter__(self):
        raise AssertionError("a valuation fact took a lock")

    def __exit__(self, *exc):
        return False


@contextmanager
def counted_fact(name):
    """Count the computations of fact ``name`` while it is in force, with
    the fact's lock, where the Python version has one, made unusable."""
    fact = Valuation.__dict__[name]
    compute = fact.func
    calls = []

    def counting(valuation):
        calls.append(valuation)
        return compute(valuation)

    saved = dict(vars(fact))
    fact.func, fact.lock = counting, Unlockable()
    try:
        yield calls
    finally:
        vars(fact).clear()
        vars(fact).update(saved)


@st.composite
def family_valuations(draw):
    """A valuation of one of the three families over 0 to 6 items."""
    return draw(valuations(draw(st.integers(0, 6)), draw(st.sampled_from(FAMILIES))))


class TestValuationFacts:
    """``all_items``, ``grand_value`` and ``columns`` are worked out on
    their first read, at most once, without a lock, and stay outside the
    valuation's equality."""

    @settings(max_examples=150, deadline=None)
    @given(v=family_valuations(), name=st.sampled_from(sorted(FACTS)))
    def test_fact_equals_direct_recomputation(self, v, name):
        assert getattr(v, name) == FACTS[name](v)

    @settings(max_examples=150, deadline=None)
    @given(v=family_valuations(), name=st.sampled_from(sorted(FACTS)))
    def test_reading_a_fact_leaves_eq_hash_and_replace_alone(self, v, name):
        warm, cold = replace(v), replace(v)
        text = repr(cold)
        getattr(warm, name)
        assert name in vars(warm) and name not in vars(cold)
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == text
        copy = replace(warm)
        assert copy == cold and hash(copy) == hash(cold)
        # replace builds from the fields alone: the fact is not carried over.
        assert name not in vars(copy)

    @settings(max_examples=150, deadline=None)
    @given(v=family_valuations(), name=st.sampled_from(sorted(FACTS)))
    def test_fresh_valuation_computes_a_fact_at_most_once(self, v, name):
        with counted_fact(name) as calls:
            fresh = replace(v)
            first = getattr(fresh, name)
            assert all(getattr(fresh, name) is first for _ in range(3))
            # The value queries that read the facts read the kept ones.
            value_query(fresh, range(fresh.item_count))
            value_query(fresh, fresh.all_items)
        assert calls == [fresh]

    def test_facts_are_documented_on_the_class(self):
        for name in FACTS:
            assert Valuation.__dict__[name].__doc__
            assert getattr(Valuation, name) is Valuation.__dict__[name]


class TestOneForm:
    """The constructors' integer form against one worked out from their
    ``Fraction`` inputs, and the checks on a directly built form."""

    def test_constructors_match_fraction_reference(self):
        rng = random.Random(2027)
        binding = slack = zeros = 0
        for _ in range(300):
            m = rng.randint(0, 6)
            rows, budget, v = random_fractional_inputs(rng, m)
            if rng.random() < 0.2:
                rows = [[Fraction(0)] * m for _ in rows]
                v = xos(*rows) if budget is None else budget_additive(rows[0], budget)
            assert (v.scale, v.rows, v.cap) == reference_form(rows, budget)
            if budget is None and len(rows) == 1:
                a = additive(rows[0])
                assert (a.scale, a.rows, a.cap) == reference_form(rows, None)
            if budget is not None:
                binding += sum(rows[0]) > budget
                slack += sum(rows[0]) <= budget
            zeros += any(x == 0 for row in rows for x in row)
        assert binding > 30 and slack > 30 and zeros > 50

    @pytest.mark.parametrize(
        "scale, rows, cap, message",
        [
            (0, ((1, 2),), None, "scale 0 is not positive"),
            (2, ((2, 4),), None, "scale 2 is not the least"),
            (6, ((2, 4),), 8, "scale 6 is not the least"),
            (1, (), None, "an XOS valuation needs at least one clause"),
            (1, ((1, 2), (1,)), None, "clauses disagree on item count"),
            (2, ((1, -2),), None, "negative clause entry -1"),
            (2, ((1, 3), (0, -3, -1)), None, "negative clause entry -3/2"),
            (1, ((), (-4,)), None, "negative clause entry -4"),
            (2, ((1, -2),), 4, "negative item value -1"),
            (2, ((1, 2),), -1, "negative budget -1/2"),
            (1, ((1,), (2,)), 3, "a budget-additive valuation has one row, got 2"),
        ],
        ids=[
            "zero-scale",
            "xos-scale-not-least",
            "capped-scale-not-least",
            "no-rows",
            "ragged-rows",
            "negative-entry",
            "first-negative-before-ragged",
            "negative-after-empty-row",
            "negative-item-value",
            "negative-cap",
            "capped-rows",
        ],
    )
    def test_direct_construction_checks(self, scale, rows, cap, message):
        with pytest.raises(InstanceShapeError, match=message):
            Valuation(scale, rows, cap)


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
            assert bundle == _demand_enumerate(v, prices, tuple(range(m)))
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
                assert bundle == reference_demand(v, prices, allowed)
                profit = value_query(v, bundle) - sum(
                    (prices[j] for j in bundle), Fraction(0)
                )
                assert profit == enumerate_best_profit(v, prices, allowed)

    def test_knapsack_cell_cap(self):
        m = ENUMERATION_CAP + 1
        v = budget_additive([300_000] * m, 10**7)
        assert sum(v.rows[0]) + 1 > KNAPSACK_CELL_CAP
        with pytest.raises(CapabilityError, match="knapsack table"):
            demand_query(v, (Fraction(1),) * m)


@st.composite
def tie_heavy_queries(draw, max_items=9, families=(True, False)):
    """A valuation, prices and an allowed set drawn from few small numbers,
    so that many bundles share the best profit: entries in 0..5 on a grid of
    1 or 2, prices in 0..5 over 1, 2 or 3. ``families`` holds whether the
    valuation may be XOS."""
    m = draw(st.integers(min_value=0, max_value=max_items))
    entry = st.integers(min_value=0, max_value=5)
    grid = draw(st.sampled_from([1, 2]))
    if draw(st.sampled_from(families)):
        rows = draw(
            st.lists(st.lists(entry, min_size=m, max_size=m), min_size=1, max_size=4)
        )
        v = on_grid(grid, rows)
    else:
        row = draw(st.lists(entry, min_size=m, max_size=m))
        v = on_grid(grid, [row], draw(st.integers(min_value=0, max_value=15)))
    prices = tuple(
        Fraction(draw(entry), draw(st.sampled_from([1, 2, 3]))) for _ in range(m)
    )
    flags = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    allowed = tuple(j for j in range(m) if flags[j])
    return v, prices, allowed


class TestOneDemandRule:
    """Every backend returns the reference scan's bundle: the largest profit,
    then the fewest items, then the lexicographically smallest."""

    @settings(max_examples=300, deadline=None)
    @given(query=tie_heavy_queries())
    def test_enumeration_matches_reference(self, query):
        v, prices, allowed = query
        expected = reference_demand(v, prices, allowed)
        assert _demand_enumerate(v, prices, allowed) == expected
        assert demand_query(v, prices, allowed) == expected

    @settings(max_examples=300, deadline=None)
    @given(query=tie_heavy_queries(max_items=8, families=(False,)))
    def test_knapsack_matches_reference(self, query):
        v, prices, allowed = query
        bundle = _demand_knapsack(v, prices, allowed)
        assert bundle == reference_demand(v, prices, allowed)
        assert bundle == _demand_enumerate(v, prices, allowed)

    def test_knapsack_tie_break_past_the_cap(self):
        # Every five-item bundle has the best profit, 5 - 5/2; the rule
        # picks the first five items.
        m = ENUMERATION_CAP + 2
        v = budget_additive([1] * m, 5)
        assert demand_query(v, (Fraction(1, 2),) * m) == frozenset(range(5))
        # Items 0 and 1 cost more, so the first five affordable ones win.
        prices = (Fraction(2),) * 2 + (Fraction(1, 2),) * (m - 2)
        assert demand_query(v, prices) == frozenset(range(2, 7))
        # {0}, {1} and {0, 1} all have profit 1, at value sums 2, 1 and 3;
        # the rule picks the single item 0, not the smallest value sum.
        v = budget_additive([2, 1] + [0] * (m - 2), 2)
        prices = (Fraction(1), Fraction(0)) + (Fraction(1),) * (m - 2)
        assert demand_query(v, prices) == {0}


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

    def test_budget_additive_scaled_to_budget(self):
        v = budget_additive((1, 3, 4), 6)
        assert supporting_prices(v, {0, 1}) == {0: 1, 1: 3}
        # 3 + 4 exceeds the budget 6, so both shrink by 6/7.
        assert supporting_prices(v, {1, 2}) == {1: Fraction(18, 7), 2: Fraction(24, 7)}

    def test_defining_property_on_random_bundles(self):
        import random

        rng = random.Random(90125)
        for _ in range(80):
            m = rng.randint(1, 7)
            if rng.random() < 0.5:
                v = xos(
                    *[
                        [rng.randint(0, 9) for _ in range(m)]
                        for _ in range(rng.randint(1, 4))
                    ]
                )
            else:
                v = budget_additive(
                    [rng.randint(0, 9) for _ in range(m)], rng.randint(0, 30)
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
