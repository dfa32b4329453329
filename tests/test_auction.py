"""Posted-price, second-price, and greedy primitives."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import auction
from auctionlab.auction import (
    Allocation,
    fixed_price_auction,
    greedy_marginal_value,
    second_price_grand_bundle,
)
from auctionlab.errors import DomainError, InstanceShapeError
from auctionlab.oracle import brute_force_opt, welfare
from auctionlab.rationals import ZERO
from auctionlab.valuations import additive, budget_additive, on_grid, value_query, xos

from mechanism_reference import (
    FAMILIES,
    reference_greedy,
    reference_second_price,
    valuations,
)


def random_xos(rng, m, hi=20):
    return xos(
        *[[rng.randint(0, hi) for _ in range(m)] for _ in range(rng.randint(1, 3))]
    )


class TestFixedPriceAuction:
    def test_sequential_demand_example(self):
        bidders = [(0, additive((5, 1))), (1, additive((4, 4)))]
        alloc = fixed_price_auction(bidders, {0, 1}, (Fraction(2), Fraction(2)))
        assert alloc.bundle(0) == {0}
        assert alloc.bundle(1) == {1}
        assert alloc.payment(0) == 2 and alloc.payment(1) == 2
        assert welfare(alloc, [additive((5, 1)), additive((4, 4))]) == 9

    def test_no_bidders(self):
        alloc = fixed_price_auction([], {0, 1}, (Fraction(1), Fraction(1)))
        assert alloc.allocated_items == frozenset()
        assert alloc.total_payments == 0

    def test_prohibitive_prices_sell_nothing(self):
        bidders = [(0, additive((5, 1))), (1, additive((4, 4)))]
        alloc = fixed_price_auction(bidders, {0, 1}, (Fraction(99), Fraction(99)))
        assert alloc.bundle(0) == frozenset() and alloc.bundle(1) == frozenset()
        assert alloc.payment(0) == 0 and alloc.payment(1) == 0

    def test_individual_rationality(self):
        rng = random.Random(31)
        for _ in range(40):
            m = rng.randint(1, 5)
            bidders = [(i, random_xos(rng, m)) for i in range(rng.randint(1, 4))]
            prices = tuple(Fraction(rng.randint(0, 15), 2) for _ in range(m))
            alloc = fixed_price_auction(bidders, range(m), prices)
            for i, v in bidders:
                assert value_query(v, alloc.bundle(i)) - alloc.payment(i) >= 0
            assert welfare(alloc, dict(bidders)) >= alloc.total_payments

    def test_truthful_in_isolation(self):
        """With prices and opponents fixed, reporting anything else never
        beats reporting the true valuation."""
        rng = random.Random(32)
        for _ in range(30):
            m = rng.randint(1, 4)
            n = rng.randint(1, 3)
            bidders = [(i, random_xos(rng, m)) for i in range(n)]
            prices = tuple(Fraction(rng.randint(0, 12), 2) for _ in range(m))
            target = rng.randrange(n)
            truth = bidders[target][1]
            honest = fixed_price_auction(bidders, range(m), prices)
            honest_utility = value_query(truth, honest.bundle(target)) - honest.payment(
                target
            )
            for _ in range(6):
                lie = random_xos(rng, m)
                twisted = list(bidders)
                twisted[target] = (target, lie)
                outcome = fixed_price_auction(twisted, range(m), prices)
                utility = value_query(truth, outcome.bundle(target)) - outcome.payment(
                    target
                )
                assert utility <= honest_utility

    def test_posted_price_welfare_floor(self):
        """V(A) >= delta * q(M*) for M* = items priced in [delta*q, q/2)."""
        rng = random.Random(33)
        for _ in range(60):
            m = rng.randint(1, 5)
            n = rng.randint(1, 3)
            valuations = [random_xos(rng, m) for _ in range(n)]
            opt = brute_force_opt(valuations, m)
            q = opt.supporting_prices
            delta = Fraction(rng.choice([1, 2, 3, 4]), 10)
            prices = tuple(
                q[j] * Fraction(rng.randint(0, 19), 20) for j in range(m)
            )
            order = list(range(n))
            rng.shuffle(order)
            alloc = fixed_price_auction(
                [(i, valuations[i]) for i in order], range(m), prices
            )
            starred = [
                j for j in range(m) if delta * q[j] <= prices[j] < q[j] / 2
            ]
            floor = delta * sum((q[j] for j in starred), Fraction(0))
            assert welfare(alloc, valuations) >= floor


class TestSecondPriceGrandBundle:
    def test_winner_pays_second_value(self):
        bidders = [(0, additive((6, 4))), (1, additive((3, 4)))]
        alloc = second_price_grand_bundle(bidders, {0, 1})
        assert alloc.bundle(0) == {0, 1}
        assert alloc.payment(0) == 7
        assert alloc.bundle(1) == frozenset() and alloc.payment(1) == 0

    def test_one_value_query_per_bidder_per_auction(self, monkeypatch):
        bidders = [(4, additive((5, 1))), (9, budget_additive((4, 4), 6))]
        owner = {id(v): b for b, v in bidders}
        asked = []

        def counting(valuation, bundle):
            asked.append((owner[id(valuation)], bundle))
            return value_query(valuation, bundle)

        monkeypatch.setattr(auction, "value_query", counting)
        for _ in range(3):
            second_price_grand_bundle(bidders, range(2))
        assert asked == [(4, {0, 1}), (9, {0, 1})] * 3

    def test_single_bidder_pays_nothing(self):
        alloc = second_price_grand_bundle([(0, additive((10,)))], {0})
        assert alloc.bundle(0) == {0}
        assert alloc.payment(0) == 0

    def test_tie_goes_to_lowest_index(self):
        bidders = [(0, additive((7,))), (1, additive((7,)))]
        alloc = second_price_grand_bundle(bidders, {0})
        assert alloc.bundle(0) == {0}
        assert alloc.payment(0) == 7
        # Equal grand values from different families and grids: the lowest
        # tied index wins and pays the tied value.
        bidders = [
            (5, additive((1, 2))),
            (2, budget_additive(("5", "5"), "7.5")),
            (8, xos(("7.5", 0), (1, "6.5"))),
            (3, additive(("7/3", "5"))),
        ]
        alloc = second_price_grand_bundle(bidders, {0, 1})
        assert alloc == Allocation({2: frozenset({0, 1})}, {2: Fraction(15, 2)})

    def test_no_bidders_rejected(self):
        with pytest.raises(DomainError):
            second_price_grand_bundle([], {0})

    def test_allocation_names_only_the_winner(self):
        bidders = [(4, additive((3, 4))), (9, additive((6, 4))), (2, xos((1, 1)))]
        alloc = second_price_grand_bundle(bidders, {0, 1})
        assert alloc == Allocation({9: frozenset({0, 1})}, {9: Fraction(7)})

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_reference(self, data):
        """The integer ranking gives the ``Fraction`` reference's winner,
        payment and allocation on mixed grids: one to 100 bidders of every
        family, caps below and above the row sum, zero grand values, and all
        grand values equal."""
        m = data.draw(st.integers(0, 5), label="m")
        n = data.draw(st.one_of(st.integers(1, 6), st.integers(1, 100)), label="n")
        ids = data.draw(
            st.lists(st.integers(0, 999), min_size=n, max_size=n, unique=True)
        )
        # All grand values equal to grand / 300, or each drawn freely.
        grand = data.draw(
            st.one_of(st.none(), st.just(0), st.integers(0, 900)), label="grand"
        )
        if not m:
            grand = None
        bidders = [
            (b, data.draw(valuations(m, data.draw(st.sampled_from(FAMILIES)), grand)))
            for b in ids
        ]
        items = data.draw(st.permutations(range(m)), label="items")
        fast = second_price_grand_bundle(bidders, items)
        slow = reference_second_price(bidders, items)
        assert fast == slow
        assert list(fast.payments.items()) == list(slow.payments.items())
        if grand is not None:
            # Equal values: the first bidder wins and pays its own value.
            assert fast.bundle(ids[0]) == frozenset(range(m))
            assert fast.payment(ids[0]) == (Fraction(grand, 300) if n > 1 else 0)


class TestGreedyMarginalValue:
    def test_additive_pair(self):
        bidders = [(0, additive((3, 0))), (1, additive((0, 5)))]
        assert greedy_marginal_value(bidders, {0, 1}) == 8

    def test_zero_marginal_left_unassigned(self):
        bidders = [(0, budget_additive((1, 1), 1))]
        assert greedy_marginal_value(bidders, {0, 1}) == 1

    def test_no_bidders(self):
        assert greedy_marginal_value([], {0, 1}) == 0

    def test_matches_fraction_reference(self):
        """The statistic equals the welfare of the Fraction reference's
        allocation on entries with denominators 1-6 (so ties across
        different grids), budgets that bind, many zero entries, and shuffled
        bidder ids."""
        rng = random.Random(35)

        def entry():
            return Fraction(rng.choice([0, 0, 1, 2, 3, 6]), rng.choice([1, 2, 3, 4, 6]))

        for case in range(400):
            m = rng.randint(0, 6)
            n = rng.randint(1, 5)
            ids = rng.sample(range(10), n)
            bidders = []
            for b in ids:
                if rng.random() < 0.5:
                    rows = [[entry() for _ in range(m)] for _ in range(rng.randint(1, 3))]
                    bidders.append((b, xos(*rows)))
                else:
                    values = [entry() for _ in range(m)]
                    budget = sum(values, Fraction(0)) * Fraction(rng.randint(0, 4), 4)
                    bidders.append((b, budget_additive(values, budget)))
            items = rng.sample(range(m), rng.randint(0, m))
            fast = greedy_marginal_value(bidders, items)
            slow = reference_greedy(bidders, items)
            assert fast == welfare(slow, dict(bidders)), case

    def test_range_items_match_the_item_list(self):
        """A ``range`` of items, which the statistic scans without sorting
        when it rises, gives the welfare and the errors of the same items
        as a shuffled list with repeats, rising or not, one-row and
        multi-row bidders alike."""
        rng = random.Random(36)
        for case in range(300):
            m = rng.randint(0, 6)
            bidders = []
            for b in range(rng.randint(1, 4)):
                rows = [[rng.randint(0, 4) for _ in range(m)] for _ in range(3)]
                kind = rng.randrange(3)
                if kind == 0:
                    bidders.append((b, on_grid(rng.choice((1, 2, 3)), rows)))
                elif kind == 1:
                    bidders.append((b, on_grid(rng.choice((1, 2, 3)), rows[:1])))
                else:
                    cap = rng.randint(0, sum(rows[0]))
                    bidders.append((b, on_grid(rng.choice((1, 2, 3)), rows[:1], cap)))
            start, stop = rng.randint(-1, 2), rng.randint(0, m + 1)
            for items in (
                range(start, stop),
                range(start, stop, rng.randint(1, 3)),
                range(stop - 1, start - 1, -1),
            ):
                listed = list(items) * 2
                rng.shuffle(listed)
                try:
                    expected = greedy_marginal_value(bidders, listed)
                except InstanceShapeError as exc:
                    with pytest.raises(InstanceShapeError) as raised:
                        greedy_marginal_value(bidders, items)
                    assert str(raised.value) == str(exc), case
                    continue
                assert greedy_marginal_value(bidders, items) == expected, case
                assert expected == welfare(reference_greedy(bidders, items), dict(bidders))

    def test_item_outside_range_rejected(self):
        with pytest.raises(InstanceShapeError, match="item 2 outside 0..1"):
            greedy_marginal_value([(0, additive((3, 4)))], {0, 2})
        # Bidders with unequal item counts: the message names the first
        # offending (item, bidder) pair, items in increasing order, then
        # bidders in list order.
        bidders = [
            (0, additive((1, 2, 3, 4, 5))),
            (1, xos((1, 2, 3), (3, 2, 1))),
            (2, budget_additive((7,), 3)),
        ]
        for items, message in [
            # Item 1 is the first item some bidder lacks; bidder 2 lacks it.
            ({0, 1, 2}, "item 1 outside 0..0"),
            # Item 3: bidder 0 has it; bidders 1 and 2 lack it, 1 comes first.
            ({4, 3}, "item 3 outside 0..2"),
            # A negative item comes first and every bidder lacks it.
            ({0, -1, 9}, "item -1 outside 0..4"),
        ]:
            with pytest.raises(InstanceShapeError, match=f"^{re.escape(message)}$"):
                greedy_marginal_value(bidders, items)

    def test_half_of_optimum_on_submodular_inputs(self):
        rng = random.Random(34)
        for _ in range(40):
            m = rng.randint(1, 5)
            n = rng.randint(1, 3)
            valuations = []
            for _ in range(n):
                if rng.random() < 0.5:
                    valuations.append(additive([rng.randint(0, 9) for _ in range(m)]))
                else:
                    valuations.append(
                        budget_additive(
                            [rng.randint(0, 9) for _ in range(m)], rng.randint(0, 15)
                        )
                    )
            opt = brute_force_opt(valuations, m)
            greedy = greedy_marginal_value(list(enumerate(valuations)), range(m))
            assert 2 * greedy >= opt.welfare


def test_fixed_price_names_every_arriving_bidder():
    """The mechanism counts demand queries off ``bundles``: every bidder who
    arrives is a key, in arrival order, also one who takes nothing (9 finds
    nothing worth its price, 7 arrives after the last item is sold)."""
    bidders = [
        (4, additive((5, 1))),
        (9, additive((1, 1))),
        (2, additive((9, 9))),
        (7, additive((9, 9))),
    ]
    alloc = fixed_price_auction(bidders, {0, 1}, (Fraction(2), Fraction(2)))
    assert list(alloc.bundles.items()) == [
        (4, {0}),
        (9, frozenset()),
        (2, {1}),
        (7, frozenset()),
    ]
    assert list(alloc.payments.items()) == [(4, 2), (9, 0), (2, 2), (7, 0)]


def test_allocation_accessors_default_to_empty():
    alloc = Allocation({0: frozenset({1})}, {0: Fraction(3)})
    assert alloc.bundle(5) == frozenset()
    assert alloc.payment(5) == 0
    assert alloc.allocated_items == {1}


@pytest.mark.parametrize(
    "payments",
    [
        {},
        {3: Fraction(7, 2)},
        {0: Fraction(1, 3), 4: Fraction(0), 2: Fraction(5, 6)},
    ],
)
def test_total_payments_is_the_fraction_sum(payments):
    """The sum of 0, 1 and 3 payments equals the ``Fraction`` sum; a lone
    payment is returned itself and no payment is the shared ``ZERO``."""
    alloc = Allocation({b: frozenset() for b in payments}, payments)
    total = alloc.total_payments
    assert total == sum(payments.values(), Fraction(0))
    assert type(total) is Fraction
    if len(payments) == 1:
        assert total is next(iter(payments.values()))
    if not payments:
        assert total is ZERO


def test_payment_sums_start_from_the_shared_zero():
    """A bidder of a fixed-price auction who takes nothing pays the shared
    ``ZERO``, and a second-price trial's total is the winner's payment."""
    bidders = [(0, additive((1, 1))), (1, additive((5, 5)))]
    alloc = fixed_price_auction(bidders, {0, 1}, (Fraction(2), Fraction(2)))
    assert alloc.payments[0] is ZERO and alloc.payments[1] == 4
    lot = second_price_grand_bundle(bidders, range(2))
    assert lot.total_payments is lot.payments[1]
