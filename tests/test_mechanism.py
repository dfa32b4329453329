"""Coin tape, partitioning, price updates, and the full mechanism."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab.auction import (
    Allocation,
    fixed_price_auction,
    second_price_grand_bundle,
)
from auctionlab.errors import DomainError, InvariantViolationError
from auctionlab.mechanism import (
    LEARNING_COMPLETED,
    LEARNING_STOPPED,
    SECOND_PRICE,
    CoinTape,
    _modified_tree,
    bidder_utility,
    final_mechanism,
    partition_bidders,
    price_learning_mechanism,
    price_update,
)
from auctionlab.oracle import welfare
from auctionlab.price_tree import (
    EVEN,
    ODD,
    build_bins,
    build_modified_tree,
    solve_parameters,
)
from auctionlab.valuations import additive, budget_additive, xos


def random_bidders(rng, n, m, hi=30):
    out = []
    for i in range(n):
        if rng.random() < 0.7:
            clauses = [
                [rng.randint(1, hi) for _ in range(m)]
                for _ in range(rng.randint(1, 3))
            ]
            out.append((i, xos(*clauses)))
        else:
            out.append(
                (i, budget_additive([rng.randint(1, hi) for _ in range(m)], rng.randint(1, 2 * hi)))
            )
    return out


class TestCoinTape:
    def test_streams_are_reproducible(self):
        a, b = CoinTape(99), CoinTape(99)
        assert [a.stop_coin(2) for _ in range(10)] == [b.stop_coin(2) for _ in range(10)]
        assert a.tree_parity() == b.tree_parity()
        assert a.partition_permutation(range(8)) == b.partition_permutation(range(8))

    def test_streams_are_independent(self):
        a, b = CoinTape(99), CoinTape(99)
        # consuming one stream must not shift another
        for _ in range(5):
            a.second_price_branch()
        assert a.tree_parity() == b.tree_parity()

    def test_unknown_stream_rejected(self):
        with pytest.raises(DomainError):
            CoinTape(1)._stream("nonsense")


class TestPartition:
    def test_group_sizes_forty(self):
        groups = partition_bidders(list(range(40)), 2, CoinTape(3))
        assert [len(g) for g in groups] == [2, 1, 37]

    def test_empty(self):
        assert partition_bidders([], 2, CoinTape(3)) == [[], [], []]

    def test_small_population_all_land_in_last_group(self):
        groups = partition_bidders(list(range(5)), 2, CoinTape(3))
        assert [len(g) for g in groups] == [0, 0, 5]

    def test_groups_partition_the_ids(self):
        ids = list(range(23))
        groups = partition_bidders(ids, 3, CoinTape(11))
        flat = [b for g in groups for b in g]
        assert sorted(flat) == ids

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=60),
        beta=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_partition_properties(self, n, beta, seed):
        ids = list(range(n))
        groups = partition_bidders(ids, beta, CoinTape(seed))
        assert len(groups) == beta + 1
        assert sorted(b for g in groups for b in g) == ids
        remaining = n
        for g in groups[:-1]:
            assert len(g) == remaining // (10 * beta)
            remaining -= len(g)


class TestPriceUpdate:
    def test_largest_selling_index_wins(self):
        a1 = Allocation({0: frozenset({0})}, {})
        a2 = Allocation({0: frozenset({1})}, {})
        vectors = [(Fraction(1), Fraction(1)), (Fraction(16), Fraction(16))]
        assert price_update([a1, a2], vectors) == (1, 16)

    def test_unsold_items_keep_first_vector(self):
        empty = Allocation({}, {})
        vectors = [(Fraction(1), Fraction(1)), (Fraction(16), Fraction(16))]
        assert price_update([empty, empty], vectors) == (1, 1)

    def test_item_sold_twice_takes_later_price(self):
        a1 = Allocation({0: frozenset({0})}, {})
        a2 = Allocation({1: frozenset({0})}, {})
        vectors = [(Fraction(1),), (Fraction(16),)]
        assert price_update([a1, a2], vectors) == (16,)

    def test_length_mismatch(self):
        with pytest.raises(InvariantViolationError):
            price_update([Allocation({}, {})], [(Fraction(1),), (Fraction(2),)])
        with pytest.raises(InvariantViolationError):
            price_update(
                [Allocation({}, {}), Allocation({}, {})],
                [(Fraction(1),), (Fraction(1), Fraction(2))],
            )


class TestPriceLearningMechanism:
    def test_deterministic_in_seed_and_reports(self):
        bidders = random_bidders(random.Random(0), 5, 4)
        first = price_learning_mechanism(bidders, 4, 1, 10**6, CoinTape(42))
        second = price_learning_mechanism(bidders, 4, 1, 10**6, CoinTape(42))
        assert first.allocation == second.allocation
        assert first.learned_prices == second.learned_prices
        assert first.branch == second.branch

    @pytest.mark.parametrize(
        "psi_min, psi_max",
        [
            (1, 10**6),
            ("1/3", "5"),
            (Fraction(7, 9), Fraction(7, 9)),
            (Fraction(1, 144), 800),
        ],
    )
    def test_cached_tree_matches_fresh_build(self, psi_min, psi_max):
        bidders = random_bidders(random.Random(5), 4, 3)
        for alpha in (2, 3):
            fresh = solve_parameters(psi_min, psi_max, alpha)
            for parity in (ODD, EVEN, ODD, EVEN):  # the repeats come from the cache
                tree = _modified_tree(
                    Fraction(psi_min), Fraction(psi_max), alpha, parity
                )
                assert tree.params == fresh
                assert tree == build_modified_tree(build_bins(fresh), parity)
            for seed in range(6):
                run = price_learning_mechanism(
                    bidders, 3, psi_min, psi_max, CoinTape(seed), alpha=alpha
                )
                assert run.params == fresh
                assert run.tree == build_modified_tree(build_bins(fresh), run.tree.parity)

    def test_stopped_run_allocates_only_from_that_iteration(self):
        rng = random.Random(1)
        seen_stop = False
        for seed in range(60):
            bidders = random_bidders(rng, 6, 3)
            out = price_learning_mechanism(bidders, 3, 1, 10**6, CoinTape(seed))
            if out.branch != LEARNING_STOPPED:
                continue
            seen_stop = True
            group = set(out.groups[out.stop_iteration - 1])
            for b, _ in out.bidders:
                if b not in group:
                    assert out.allocation.bundle(b) == frozenset()
                    assert out.allocation.payment(b) == 0
        assert seen_stop

    def test_completed_run_sells_to_last_group_at_leaf_prices(self):
        rng = random.Random(2)
        seen_complete = False
        for seed in range(60):
            bidders = random_bidders(rng, 6, 3)
            out = price_learning_mechanism(bidders, 3, 1, 10**6, CoinTape(seed))
            if out.branch != LEARNING_COMPLETED:
                continue
            seen_complete = True
            assert len(out.learned_prices) == out.params.beta + 1
            allocated = {
                b for b, _ in out.bidders if out.allocation.bundle(b)
            }
            assert allocated <= set(out.groups[-1])
        assert seen_complete

    def test_learned_prices_are_level_vectors(self):
        rng = random.Random(3)
        for seed in range(25):
            bidders = random_bidders(rng, 5, 3)
            out = price_learning_mechanism(bidders, 3, 1, 10**6, CoinTape(seed))
            for level, vector in enumerate(out.learned_prices, start=1):
                for price in vector:
                    assert out.tree.strong_node(price, level) is not None

    def test_query_budget(self):
        rng = random.Random(4)
        for seed in range(25):
            bidders = random_bidders(rng, 7, 3)
            out = price_learning_mechanism(bidders, 3, 1, 10**6, CoinTape(seed))
            alpha = out.params.alpha
            assert all(c <= alpha for c in out.demand_queries.values())
            assert out.total_demand_queries <= alpha * len(bidders)
            reached = (
                out.stop_iteration
                if out.branch == LEARNING_STOPPED
                else out.params.beta
            )
            for i, group in enumerate(out.groups[:-1], start=1):
                for b in group:
                    expected = alpha if i <= reached else 0
                    assert out.demand_queries.get(b, 0) == expected

    def test_empty_bidder_list(self):
        out = price_learning_mechanism([], 3, 1, 100, CoinTape(0))
        assert out.welfare == 0
        assert out.allocation.allocated_items == frozenset()

    def test_zero_items(self):
        out = price_learning_mechanism([(0, additive(()))], 0, 1, 100, CoinTape(0))
        assert out.welfare == 0
        assert out.learned_prices[0] == ()

    def test_welfare_field_matches_allocation(self):
        bidders = random_bidders(random.Random(5), 4, 3)
        out = price_learning_mechanism(bidders, 3, 1, 10**4, CoinTape(9))
        assert out.welfare == welfare(out.allocation, dict(bidders))


class TestFinalMechanism:
    def test_requires_bidders_and_items(self):
        with pytest.raises(DomainError):
            final_mechanism([], 2, CoinTape(0))
        with pytest.raises(DomainError):
            final_mechanism([(0, additive((1,)))], 0, CoinTape(0))

    def test_single_bidder_second_price_branch(self):
        for seed in range(20):
            out = final_mechanism([(0, additive((3, 4)))], 2, CoinTape(seed))
            if out.branch == SECOND_PRICE:
                assert out.allocation.bundle(0) == {0, 1}
                assert out.allocation.payment(0) == 0
                assert out.welfare == 7
                return
        pytest.fail("no seed in 0..19 drew the second-price branch")

    def test_price_window_derived_from_statistics_welfare(self):
        rng = random.Random(6)
        seen = False
        for seed in range(40):
            bidders = random_bidders(rng, 6, 4)
            out = final_mechanism(bidders, 4, CoinTape(seed))
            if out.branch == SECOND_PRICE or not out.statistics_welfare:
                continue
            seen = True
            assert out.params.psi_min == out.statistics_welfare / 16
            assert out.params.psi_max == 8 * out.statistics_welfare
        assert seen

    def test_statistics_group_gets_nothing_and_pays_nothing(self):
        rng = random.Random(7)
        for seed in range(30):
            bidders = random_bidders(rng, 6, 3)
            out = final_mechanism(bidders, 3, CoinTape(seed))
            if out.branch == SECOND_PRICE:
                continue
            for b in out.statistics_group:
                assert out.allocation.bundle(b) == frozenset()
                assert out.allocation.payment(b) == 0

    def test_everyone_sampled_into_statistics_group(self):
        for seed in range(60):
            out = final_mechanism([(0, additive((5,)))], 1, CoinTape(seed))
            if out.branch != SECOND_PRICE and out.statistics_group == (0,):
                assert out.allocation.bundle(0) == frozenset()
                assert out.welfare == 0
                return
        pytest.fail("no seed put the only bidder into the statistics group")

    def test_zero_statistics_welfare_degenerates_gracefully(self):
        bidders = [(0, additive((0, 0))), (1, additive((9, 9)))]
        for seed in range(80):
            out = final_mechanism(bidders, 2, CoinTape(seed))
            if out.branch != SECOND_PRICE and out.statistics_group == (0,):
                assert out.params.psi_min == 1 and out.params.psi_max == 1
                return
        pytest.fail("no seed sampled exactly the worthless bidder")

    def test_branch_frequency_roughly_half(self):
        bidders = [(0, additive((3, 1))), (1, additive((1, 3)))]
        hits = sum(
            final_mechanism(bidders, 2, CoinTape(seed)).branch == SECOND_PRICE
            for seed in range(400)
        )
        assert 140 <= hits <= 260

    def test_deterministic(self):
        bidders = random_bidders(random.Random(8), 5, 3)
        a = final_mechanism(bidders, 3, CoinTape(123))
        b = final_mechanism(bidders, 3, CoinTape(123))
        assert a.allocation == b.allocation and a.branch == b.branch


class TestOutcomeAllocation:
    def test_allocation_is_the_chosen_auctions_own(self):
        """The outcome holds the chosen auction's own allocation, so bidders
        outside that auction are absent from it, on every branch."""
        # 24 bidders: the learning group holds about 12, so with beta = 1 at
        # m = 3 group 1 is not empty and some stopped runs sell.
        rng = random.Random(11)
        seen = {SECOND_PRICE: 0, LEARNING_STOPPED: 0}
        sold = 0
        for seed in range(30):
            bidders = random_bidders(rng, 24, 3)
            out = final_mechanism(bidders, 3, CoinTape(seed))
            seen[out.branch] += 1
            if out.branch == SECOND_PRICE:
                assert out.allocation == second_price_grand_bundle(bidders, range(3))
                assert out.value_queries == {b: 1 for b, _ in bidders}
                continue
            chosen = out.iterations[-1].allocations[out.j_star - 1]
            assert out.allocation == chosen
            assert set(out.allocation.bundles) == set(out.groups[0])
            assert out.value_queries == {b: 3 for b in out.statistics_group}
            sold += bool(out.allocation.allocated_items)
        assert all(seen.values()) and sold

        # 20 bidders and a wide window: beta = 2, so group 1 holds one bidder
        # and the final group the other 19.
        completed = 0
        for seed in range(30):
            bidders = random_bidders(rng, 20, 3)
            out = price_learning_mechanism(bidders, 3, 1, 10**6, CoinTape(seed))
            if out.branch != LEARNING_COMPLETED:
                continue
            completed += 1
            final_group = out.groups[-1]
            assert len(final_group) == 19
            assert set(out.allocation.bundles) == set(final_group)
            by_id = dict(bidders)
            halved = tuple(p / 2 for p in out.learned_prices[-1])
            assert out.allocation == fixed_price_auction(
                [(b, by_id[b]) for b in final_group], range(3), halved
            )
        assert completed


class TestBidderUtility:
    def test_empty_bundle_zero_payment(self):
        out = final_mechanism([(0, additive((5,))), (1, additive((9,)))], 1, CoinTape(1))
        loser = next(b for b in (0, 1) if not out.allocation.bundle(b))
        assert bidder_utility(out, loser, additive((5,))) == 0

    def test_posted_price_winner(self):
        from auctionlab.mechanism import MechanismOutcome

        alloc = Allocation({3: frozenset({0})}, {3: Fraction(1)})
        out = MechanismOutcome(
            allocation=alloc,
            welfare=Fraction(5),
            branch=LEARNING_COMPLETED,
            value_queries={},
            bidders=((3, additive((5,))),),
        )
        assert bidder_utility(out, 3, additive((5,))) == 4

    def test_second_price_winner(self):
        bidders = [(0, additive((10,))), (1, additive((7,)))]
        for seed in range(30):
            out = final_mechanism(bidders, 1, CoinTape(seed))
            if out.branch == SECOND_PRICE:
                assert out.allocation.payment(0) == 7
                assert bidder_utility(out, 0, additive((10,))) == 3
                return
        pytest.fail("no second-price run found")

    def test_unknown_bidder(self):
        out = final_mechanism([(0, additive((5,)))], 1, CoinTape(0))
        with pytest.raises(DomainError):
            bidder_utility(out, 17, additive((5,)))


class TestUniversalTruthfulness:
    def test_no_profitable_deviation_small_sweep(self):
        rng = random.Random(9)
        for trial in range(12):
            n, m = rng.randint(2, 4), rng.randint(1, 3)
            bidders = random_bidders(rng, n, m)
            for seed in range(4):
                honest = final_mechanism(bidders, m, CoinTape(seed))
                for target in range(n):
                    truth = bidders[target][1]
                    base = bidder_utility(honest, target, truth)
                    for _ in range(4):
                        lie = random_bidders(rng, 1, m)[0][1]
                        twisted = list(bidders)
                        twisted[target] = (target, lie)
                        deviant = final_mechanism(twisted, m, CoinTape(seed))
                        assert bidder_utility(deviant, target, truth) <= base
