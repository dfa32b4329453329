"""Analysis-trace reconstruction against the oracle."""

import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from auctionlab.errors import DomainError, InvariantViolationError
from auctionlab.harness import FAMILIES, GeneratorSpec, generate_instance
from auctionlab.mechanism import (
    SECOND_PRICE,
    CoinTape,
    final_mechanism,
    price_learning_mechanism,
    price_update,
)
from auctionlab.oracle import brute_force_opt
from auctionlab.rationals import ZERO
from auctionlab.trace import (
    AnalysisTrace,
    IterationDiagnostics,
    LevelTrace,
    build_trace,
    check_learnable_or_allocatable,
)
from auctionlab.valuations import additive, budget_additive, xos

from trace_reference import per_run_build_trace
from tree_reference import belongs, children, nodes, strong_node


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


def reference_build_trace(run, optimal, tree):
    """``build_trace`` as it was before the price-tree lookups: every
    membership is a ``belongs`` or ``strong_node`` scan of the Fraction
    bounds of a node's leaf cells, and every mass a Fraction sum."""
    if not run.iterations or run.params is None:
        raise DomainError(
            "the run carries no learning history (second-price branch?)"
        )
    params = run.params
    m = len(optimal.supporting_prices)
    n = len(optimal.allocation.bundles)

    # Map each item to the group (1-based) of its optimal owner. The
    # optimum's allocation names each of its n bidders, and the marker n of
    # an unassigned item is in no group.
    group_of = {}
    for gi, group in enumerate(run.groups, start=1):
        for b in group:
            if not 0 <= b < n:
                raise DomainError(f"group {gi}: bidder {b} is not an oracle index")
            group_of[b] = gi
    owner_group = [group_of.get(optimal.assignment[j]) for j in range(m)]

    q = optimal.supporting_prices
    star = frozenset(
        j for j in range(m) if owner_group[j] is not None and belongs(tree.leaves, q[j])
    )
    q_star = tuple(q[j] if j in star else Fraction(0) for j in range(m))

    # Learned price vectors, extended past a stop coin for diagnostics.
    prices = list(run.learned_prices)
    if len(prices) == len(run.iterations):
        last = run.iterations[-1]
        prices.append(price_update(last.allocations, last.vectors))

    def q_vector(level: int) -> tuple[Fraction, ...]:
        return tuple(
            q_star[j]
            if owner_group[j] is not None and owner_group[j] >= level
            else Fraction(0)
            for j in range(m)
        )

    levels = []
    refined = star
    strong_nodes = []
    for level in range(1, len(prices) + 1):
        vector = prices[level - 1]
        blocks = {}
        for j in range(m):
            k = strong_node(tree, vector[j], level)
            if k is None:
                raise InvariantViolationError(
                    f"learned price {vector[j]} is not a level-{level} price"
                )
            blocks[j] = nodes(tree, level)[k]
        strong_nodes.append(blocks)
        refined = frozenset(j for j in refined if belongs(blocks[j], q_star[j]))
        qv = q_vector(level)
        correct = frozenset(j for j in refined if qv[j] != 0)
        for j in correct:
            if not vector[j] <= qv[j]:
                raise InvariantViolationError(
                    f"correctly priced item {j} has learned price {vector[j]} "
                    f"above supporting price {qv[j]}"
                )
        if levels and not correct <= levels[-1].correct:
            raise InvariantViolationError("correct sets are not nested")
        levels.append(
            LevelTrace(
                level=level,
                q_vector=qv,
                refinement_correct=refined,
                correct=correct,
                correct_mass=sum((qv[j] for j in correct), Fraction(0)),
            )
        )

    iterations = []
    for record in run.iterations:
        i = record.level
        this, nxt = levels[i - 1], levels[i]
        blocks = strong_nodes[i - 1]

        partition = [set() for _ in range(params.alpha)]
        for j in this.correct:
            kids = children(blocks[j], params.alpha)
            homes = [k for k, kid in enumerate(kids) if belongs(kid, q_star[j])]
            if len(homes) != 1:
                raise InvariantViolationError(
                    f"item {j} belongs to {len(homes)} children of its node"
                )
            partition[homes[0]].add(j)
        if frozenset().union(*partition) != this.correct or sum(
            len(p) for p in partition
        ) != len(this.correct):
            raise InvariantViolationError("demand sets do not partition")

        sold = [
            frozenset(partition[k]) & alloc.allocated_items
            for k, alloc in enumerate(record.allocations)
        ]

        sold_mass = sum(
            (this.q_vector[j] for k in range(params.alpha) for j in sold[k]),
            Fraction(0),
        )
        kept_mass = sum(
            (this.q_vector[j] for j in nxt.refinement_correct), Fraction(0)
        )
        bound = optimal.welfare / (10 * params.beta)
        overestimate_ok = kept_mass >= sold_mass - bound
        if not overestimate_ok:
            raise InvariantViolationError(
                f"iteration {i} overestimate accounting failed: kept {kept_mass} "
                f"< sold {sold_mass} - {bound}"
            )

        change = nxt.correct_mass - this.correct_mass
        learnable = change >= -optimal.welfare / (3 * params.beta)
        mean_welfare = sum(record.welfares, Fraction(0)) / params.alpha
        allocatable = mean_welfare >= optimal.welfare / (
            200 * params.alpha * params.beta**2
        )
        iterations.append(
            IterationDiagnostics(
                level=i,
                demand_partition=tuple(frozenset(p) for p in partition),
                sold_in_partition=tuple(sold),
                auction_welfares=record.welfares,
                learnable_change=change,
                learnable_realized=learnable,
                allocatable_realized=allocatable,
                overestimate_ok=overestimate_ok,
            )
        )

    return AnalysisTrace(
        star_items=star,
        q_star=q_star,
        opt_welfare=optimal.welfare,
        levels=tuple(levels),
        iterations=tuple(iterations),
    )


def differential_runs():
    """Recorded learning runs with their optimum, at beta 1, 2 and 3:
    generated instances of every family over narrow and wide value ranges,
    traced on the supporting-price window the CLI uses, on that window
    widened 1000-fold each way and on [1, 10^9], and top-level runs, whose
    statistics group owns items that are never star items."""
    rng = random.Random(9)
    ranges = [("0.01", "100"), ("0.000001", "1000000"), ("1", "100000")]
    for k in range(24):
        n = rng.randint(2, 60)
        m = rng.randint(3, 4 if n > 30 else 5 if n > 12 else 7)
        spec = GeneratorSpec(
            n,
            m,
            FAMILIES[k % len(FAMILIES)],
            value_range=tuple(Fraction(x) for x in ranges[k % len(ranges)]),
            seed=rng.randrange(2**31),
        )
        inst = generate_instance(spec)
        optimal = brute_force_opt(list(inst.valuations), m)
        positive = [q for q in optimal.supporting_prices if q > 0]
        lo, hi = min(positive, default=Fraction(1)), max(positive, default=Fraction(1))
        for window in ((lo, hi), (lo / 1000, hi * 1000), (1, 10**9)):
            for seed in range(8):
                tape = CoinTape(seed)
                yield price_learning_mechanism(inst.bidders(), m, *window, tape), optimal
        for seed in range(8):
            run = final_mechanism(inst.bidders(), m, CoinTape(seed))
            if run.branch != SECOND_PRICE:
                yield run, optimal


# The CLI smoke's instances: the crowd's first learning group sells, and the
# supporting-price windows of ``wide`` and ``deep`` give beta = 2 and 3.
CROWD = GeneratorSpec(30, 4, "xos-random", seed=1)
WIDE = GeneratorSpec(6, 8, "additive", value_range=(Fraction("0.01"), 100000), seed=1)
DEEP = GeneratorSpec(
    2, 8, "additive", value_range=(Fraction("0.000001"), 1000000), seed=1
)


def cli_trace_runs(spec, seeds=60):
    """``auctionlab trace`` runs of a generated instance over its
    supporting-price window, with the optimum they share."""
    inst = generate_instance(spec)
    optimal = brute_force_opt(list(inst.valuations), inst.item_count)
    positive = [q for q in optimal.supporting_prices if q > 0]
    lo, hi = min(positive, default=Fraction(1)), max(positive, default=Fraction(1))
    for seed in range(seeds):
        tape = CoinTape(seed)
        run = price_learning_mechanism(inst.bidders(), inst.item_count, lo, hi, tape)
        yield run, optimal


def per_run_differential_runs():
    """``differential_runs``, then the CLI smoke's crowd, wide and deep
    traces."""
    yield from differential_runs()
    for spec in (CROWD, WIDE, DEEP):
        yield from cli_trace_runs(spec)


def assert_same_trace(run, optimal):
    """``build_trace`` and ``per_run_build_trace`` give equal fields."""
    fast = build_trace(run, optimal, run.tree)
    slow = per_run_build_trace(run, optimal, run.tree)
    for f in fields(AnalysisTrace):
        assert getattr(fast, f.name) == getattr(slow, f.name), f.name
    return fast


def raised(build, run, optimal):
    """The type and message of what ``build`` raises on ``run``."""
    with pytest.raises((DomainError, InvariantViolationError)) as info:
        build(run, optimal, run.tree)
    return type(info.value), str(info.value)


class TestInstanceFacts:
    def test_matches_per_run_trace(self):
        """The trace from the optimum's cached facts equals the one that
        works every fact out per run, field by field: every family, beta 1,
        2 and 3 (the wide and deep CLI windows among them), every parity
        and window on one optimum, and crowd runs whose first group sells."""
        reached, sold = set(), 0
        for run, optimal in per_run_differential_runs():
            trace = assert_same_trace(run, optimal)
            reached.add((run.params.beta, len(trace.iterations)))
            sold += any(w > 0 for d in trace.iterations for w in d.auction_welfares)
        for beta in (1, 2, 3):
            assert {(beta, i) for i in range(1, beta + 1)} <= reached, beta
        assert sold > 0
        crowd = [assert_same_trace(*pair) for pair in cli_trace_runs(CROWD)]
        assert any(any(d.sold_in_partition) for t in crowd for d in t.iterations)

    def test_wide_and_deep_reach_their_betas(self):
        for spec, beta in ((WIDE, 2), (DEEP, 3)):
            runs = list(cli_trace_runs(spec))
            assert {run.params.beta for run, _ in runs} == {beta}
            assert max(len(run.iterations) for run, _ in runs) == beta

    def test_allocatable_at_its_threshold(self):
        """Auction welfares set around the threshold OPT / (200 alpha
        beta^2) of their mean, on grids other than the optimum's, give the
        same verdicts on both paths: a mean at the threshold is allocatable,
        one a hair below is not."""
        for run, optimal in cli_trace_runs(WIDE, seeds=12):
            alpha, beta = run.params.alpha, run.params.beta
            bar = optimal.welfare / (200 * alpha * beta**2)
            hair = Fraction(1, 7 * 10**9)
            cases = {
                (bar, bar): True,
                (bar - hair, bar + hair): True,
                (2 * bar - hair / 3, ZERO): False,
                (bar - hair, bar): False,
            }
            for welfares, allocatable in cases.items():
                records = tuple(
                    replace(r, welfares=welfares[:alpha]) for r in run.iterations
                )
                trace = assert_same_trace(replace(run, iterations=records), optimal)
                assert {d.allocatable_realized for d in trace.iterations} == {
                    allocatable
                }

    def test_corrupted_runs_raise_alike(self):
        """A learned price off the tree, at the first level or at the last
        learned one with two distinct off prices, and a group id past n
        raise the same exception with the same message on both paths."""
        for count, (run, optimal) in enumerate(per_run_differential_runs()):
            if count % 7:
                continue
            learned = run.learned_prices
            first, last = learned[0], learned[-1]
            n = len(optimal.allocation.bundles)
            off_first = first[:-1] + (first[-1] * 3,)
            if len(last) > 2:
                off_last = (last[0], last[1] * 5, last[2] * 7) + last[3:]
            else:
                off_last = tuple(p * 5 for p in last)
            corrupted = [
                replace(run, learned_prices=(off_first,) + learned[1:]),
                replace(run, learned_prices=learned[:-1] + (off_last,)),
                replace(run, groups=run.groups[:-1] + (run.groups[-1] + (n,),)),
            ]
            for bad in corrupted:
                fast = raised(build_trace, bad, optimal)
                assert fast == raised(per_run_build_trace, bad, optimal)
            _, message = raised(build_trace, corrupted[0], optimal)
            assert "is not a level-1 price" in message
            assert raised(build_trace, corrupted[2], optimal) == (
                DomainError,
                f"group {len(run.groups)}: bidder {n} is not an oracle index",
            )

    def test_facts_are_outside_equality(self):
        """The cached facts leave the optimum equal to a fresh one, and a
        second trace reads them unchanged."""
        (run, optimal), *_ = cli_trace_runs(CROWD, seeds=1)
        first = build_trace(run, optimal, run.tree)
        assert optimal.price_grid and optimal.leaves
        inst = generate_instance(CROWD)
        assert optimal == brute_force_opt(list(inst.valuations), inst.item_count)
        assert build_trace(run, optimal, run.tree) == first


class TestBuildTrace:
    def test_matches_reference_trace(self):
        """The whole trace on price-tree positions equals the one from the
        membership scans, on random runs at beta 1, 2 and 3."""
        reached = set()
        for run, optimal in differential_runs():
            trace = build_trace(run, optimal, run.tree)
            assert trace == reference_build_trace(run, optimal, run.tree)
            reached.add((run.params.beta, len(trace.iterations)))
        for beta in (1, 2, 3):
            assert {(beta, i) for i in range(1, beta + 1)} <= reached, beta

    def test_off_level_price_rejected_as_by_reference(self):
        """A learned price that is no node's price at its level raises the
        same error as the reference scan."""
        for run, optimal in differential_runs():
            first = run.learned_prices[0]
            bad = replace(run, learned_prices=(first[:-1] + (first[-1] * 3,),))
            with pytest.raises(InvariantViolationError) as fast:
                build_trace(bad, optimal, run.tree)
            with pytest.raises(InvariantViolationError) as slow:
                reference_build_trace(bad, optimal, run.tree)
            assert str(fast.value) == str(slow.value)
            assert "is not a level-1 price" in str(fast.value)
            break

    def test_star_set_empty_when_prices_have_wrong_parity(self):
        # the only supporting price is 5, which lies in bin 2 of [1, 16] at
        # gamma = 40... instead force it by scanning seeds for the parity
        # that misses it.
        bidders = [(0, additive((5, 5)))]
        for seed in range(40):
            run, optimal, trace = traced_run(bidders, 2, 1, 1000, seed)
            covered = belongs(run.tree.leaves, Fraction(5))
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
