"""Analysis-trace reconstruction against the oracle."""

import random
from fractions import Fraction

import pytest

from auctionlab.errors import DomainError
from auctionlab.harness import FAMILIES, GeneratorSpec, generate_instance
from auctionlab.mechanism import (
    SECOND_PRICE,
    CoinTape,
    final_mechanism,
    price_learning_mechanism,
)
from auctionlab.oracle import brute_force_opt
from auctionlab.trace import build_trace, check_learnable_or_allocatable
from auctionlab.valuations import additive, budget_additive, xos


def traced_run(bidders, m, psi_min, psi_max, seed):
    run = price_learning_mechanism(bidders, m, psi_min, psi_max, CoinTape(seed))
    optimal = brute_force_opt([v for _, v in bidders], m)
    return run, optimal, build_trace(run, optimal, run.tree)


def oracle_price_window(bidders, m):
    optimal = brute_force_opt([v for _, v in bidders], m)
    positive = [q for q in optimal.supporting_prices if q > 0]
    if not positive:
        return Fraction(1), Fraction(1)
    return min(positive), max(positive)


def random_bidders(rng, n, m, hi=100):
    out = []
    for i in range(n):
        if rng.random() < 0.7:
            out.append(
                (
                    i,
                    xos(
                        *[
                            [rng.randint(1, hi) for _ in range(m)]
                            for _ in range(rng.randint(1, 3))
                        ]
                    ),
                )
            )
        else:
            out.append(
                (
                    i,
                    budget_additive(
                        [rng.randint(1, hi) for _ in range(m)], rng.randint(1, 2 * hi)
                    ),
                )
            )
    return out


class TestBuildTrace:
    def test_star_set_empty_when_prices_have_wrong_parity(self):
        # the only supporting price is 5, which lies in bin 2 of [1, 16] at
        # gamma = 40... instead force it by scanning seeds for the parity
        # that misses it.
        bidders = [(0, additive((5, 5)))]
        for seed in range(40):
            run, optimal, trace = traced_run(bidders, 2, 1, 1000, seed)
            covered = run.tree.root.belongs(Fraction(5))
            if not covered:
                assert trace.star_items == frozenset()
                assert all(level.correct == frozenset() for level in trace.levels)
                return
        pytest.fail("no seed drew the parity that misses price 5")

    def test_first_level_correct_set_equals_star_set(self):
        rng = random.Random(1)
        for seed in range(15):
            bidders = random_bidders(rng, 4, 4)
            lo, hi = oracle_price_window(bidders, 4)
            run, optimal, trace = traced_run(bidders, 4, lo, hi, seed)
            assert trace.levels[0].correct == trace.star_items
            assert trace.levels[0].q_vector == trace.q_star

    def test_single_item_refined_to_leaf_accuracy(self):
        # one item, one bidder: supporting price q = psi_min sits in the first
        # bin, which the odd tree always retains; a completed run must keep it
        # correct all the way down to the leaf. The window is wide so beta = 2
        # and completed runs exist at all (with beta = 1 the stop coin is
        # certain).
        bidders = [(0, additive((5,)))]
        for seed in range(60):
            run, optimal, trace = traced_run(bidders, 1, 5, 5_000_000, seed)
            if run.tree.parity != "odd" or run.branch != "learning-completed":
                continue
            leaf_level = trace.levels[-1]
            assert leaf_level.level == run.params.beta + 1
            assert 0 in leaf_level.refinement_correct
            learned = run.learned_prices[-1][0]
            q = optimal.supporting_prices[0]
            assert learned <= q <= run.params.gamma * learned
            return
        pytest.fail("no completed odd-parity run found")

    def test_invariants_hold_on_random_runs(self):
        rng = random.Random(2)
        for seed in range(40):
            bidders = random_bidders(rng, 5, 4)
            lo, hi = oracle_price_window(bidders, 4)
            run, optimal, trace = traced_run(bidders, 4, lo, hi, seed)
            for earlier, later in zip(trace.levels, trace.levels[1:]):
                assert later.correct <= earlier.correct
            for diag in trace.iterations:
                level = trace.level(diag.level)
                union = frozenset().union(*diag.demand_partition)
                assert union == level.correct
                assert sum(len(p) for p in diag.demand_partition) == len(level.correct)
                assert diag.overestimate_ok

    def test_invariants_hold_at_beta_two(self):
        """Generated instances of every family, n 20-40 and m 4-7, traced on
        the window [1, 10^7], where beta = 2: build_trace raises on any
        broken invariant, and some runs must reach iteration 2."""
        rng = random.Random(4)
        second = 0
        for k in range(10):
            spec = GeneratorSpec(
                rng.randint(20, 40),
                rng.randint(4, 7),
                FAMILIES[k % len(FAMILIES)],
                seed=rng.randrange(2**31),
            )
            inst = generate_instance(spec)
            m = inst.item_count
            optimal = brute_force_opt(list(inst.valuations), m)
            for seed in range(30):
                run = price_learning_mechanism(
                    inst.bidders(), m, 1, 10**7, CoinTape(seed)
                )
                assert run.params.beta == 2
                trace = build_trace(run, optimal, run.tree)
                for earlier, later in zip(trace.levels, trace.levels[1:]):
                    assert later.correct <= earlier.correct
                for diag in trace.iterations:
                    union = frozenset().union(*diag.demand_partition)
                    assert union == trace.level(diag.level).correct
                second += len(run.iterations) == 2
        assert second >= 100

    def test_second_price_run_rejected(self):
        bidders = [(0, additive((5, 5)))]
        for seed in range(30):
            run = final_mechanism(bidders, 2, CoinTape(seed))
            if run.branch == SECOND_PRICE:
                optimal = brute_force_opt([v for _, v in bidders], 2)
                with pytest.raises(DomainError):
                    build_trace(run, optimal, None)
                return
        pytest.fail("no second-price run found")


    @pytest.mark.parametrize("ids", [(0, 1, 3), (-1, 0, 1), (10, 11, 12)])
    def test_group_id_outside_oracle_rejected(self, ids):
        """Oracle bidder k is bidder id k; a run over other ids cannot be
        matched to the optimum."""
        valuations = [additive((3, 1)), additive((1, 3)), additive((2, 2))]
        bidders = list(zip(ids, valuations))
        optimal = brute_force_opt(valuations, 2)
        run = price_learning_mechanism(bidders, 2, 1, 3, CoinTape(0))
        with pytest.raises(DomainError, match="not an oracle index"):
            build_trace(run, optimal, run.tree)


class TestLearnableOrAllocatableReport:
    def test_beta_one_reports_single_iteration(self):
        bidders = [(i, additive((10, 20))) for i in range(4)]
        optimal = brute_force_opt([v for _, v in bidders], 2)
        traces = []
        for seed in range(30):
            run = price_learning_mechanism(bidders, 2, 10, 20, CoinTape(seed))
            traces.append(build_trace(run, optimal, run.tree))
        report = check_learnable_or_allocatable(traces, optimal.welfare, 2, 1, min_seeds=10)
        assert [s.iteration for s in report.iterations] == [1]
        assert not report.power_warning

    def test_power_warning_below_minimum_seeds(self):
        bidders = [(i, additive((10, 20))) for i in range(3)]
        optimal = brute_force_opt([v for _, v in bidders], 2)
        run = price_learning_mechanism(bidders, 2, 10, 20, CoinTape(0))
        report = check_learnable_or_allocatable(
            [build_trace(run, optimal, run.tree)], optimal.welfare, 2, 1
        )
        assert report.power_warning

    def test_zero_welfare_instance_holds_vacuously(self):
        bidders = [(i, additive((0, 0))) for i in range(3)]
        optimal = brute_force_opt([v for _, v in bidders], 2)
        traces = []
        for seed in range(20):
            run = price_learning_mechanism(bidders, 2, 1, 1, CoinTape(seed))
            traces.append(build_trace(run, optimal, run.tree))
        report = check_learnable_or_allocatable(traces, optimal.welfare, 2, 1, min_seeds=5)
        for stats in report.iterations:
            assert stats.learnable_holds_95 and stats.allocatable_holds_95

    def test_wide_window_brackets_hold_at_95(self):
        """Additive bidders with prices placed on bin boundaries: one of the
        two dichotomy branches should hold per iteration at 95% confidence."""
        rng = random.Random(3)
        bidders = [
            (i, additive([rng.choice([1, 40, 1600]) for _ in range(3)]))
            for i in range(6)
        ]
        optimal = brute_force_opt([v for _, v in bidders], 3)
        traces = []
        for seed in range(300):
            run = price_learning_mechanism(bidders, 3, 1, 1600, CoinTape(seed))
            traces.append(build_trace(run, optimal, run.tree))
        report = check_learnable_or_allocatable(
            traces, optimal.welfare, run.params.alpha, run.params.beta, min_seeds=100
        )
        assert report.iterations
        for stats in report.iterations:
            assert stats.either_holds_95
