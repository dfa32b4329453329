"""Coin tape, partitioning, price updates, and the full mechanism."""

import hashlib
import importlib.util
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import auctionlab
from auctionlab import auction, harness, mechanism
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
    IterationRecord,
    MechanismOutcome,
    _first_prices,
    _halve,
    _range_tree,
    _statistic_bounds,
    _unit_tree,
    bidder_utility,
    final_mechanism,
    partition_bidders,
    price_learning_mechanism,
    price_update,
    sha256,
)
from auctionlab.instances import Instance
from auctionlab.oracle import welfare
from auctionlab.price_tree import (
    ALPHA,
    EVEN,
    ODD,
    build_modified_tree,
    canonical_vectors,
    solve_parameters,
)
from auctionlab.rationals import ZERO
from auctionlab.valuations import Valuation, additive, budget_additive, value_query, xos

from mechanism_reference import (
    FAMILIES,
    bounds_of,
    reference_final_mechanism,
    reference_first_prices,
    reference_learning_mechanism,
    reference_range,
    valuations,
)
from tree_reference import strong_node


class ReferenceCoinTape:
    """The tape without a record: every stream seeded on its first draw and
    drawn from directly. The reference that recorded and replayed tapes must
    match draw for draw; ``replay`` is a fresh tape of the same seed."""

    STREAMS = CoinTape.STREAMS

    def __init__(self, seed):
        self.seed = seed
        self._rngs = {}

    def replay(self):
        return ReferenceCoinTape(self.seed)

    def _stream(self, name):
        if name not in self.STREAMS:
            raise DomainError(f"unknown coin stream {name!r}")
        if name not in self._rngs:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            self._rngs[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._rngs[name]

    def second_price_branch(self):
        return self._stream("top-level-branch").random() < 0.5

    def sample_statistics_group(self, count):
        rng = self._stream("stat-sampling")
        return [rng.random() < 0.5 for _ in range(count)]

    def tree_parity(self):
        return ODD if self._stream("tree-parity").random() < 0.5 else EVEN

    def partition_permutation(self, ids):
        out = list(ids)
        self._stream("partition-permutations").shuffle(out)
        return out

    def stop_coin(self, beta):
        return self._stream("stop-coin").random() < 1.0 / beta

    def pick_auction(self, alpha):
        return self._stream("j-star").randrange(alpha)


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

    def test_stream_seeds_match_hashlib(self):
        for seed in (0, 1, 41, -1, -7, 2**63, 2**70, -(2**70)):
            for name in CoinTape.STREAMS:
                text = f"{seed}:{name}".encode()
                digest = hashlib.sha256(text).digest()
                assert sha256(text).digest() == digest
                expected = random.Random(int.from_bytes(digest[:8], "big"))
                assert CoinTape(seed)._stream(name).getstate() == expected.getstate()


@pytest.mark.skipif(
    all(importlib.util.find_spec(name) is None for name in ("_sha2", "_sha256")),
    reason="this interpreter has no builtin SHA-256",
)
def test_import_leaves_openssl_unloaded():
    """Importing the package must not load ``_hashlib`` (OpenSSL): it costs
    several MiB of memory in every process that runs a mechanism."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(auctionlab.__file__)))
    script = (
        f"import sys; sys.path.insert(0, {src!r}); import auctionlab; "
        "print('_hashlib' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert done.stdout.strip() == "False"


def random_call(rng):
    """One tape call with arguments in the ranges the mechanism uses."""
    name = rng.choice(CoinTape.STREAMS)
    if name == "stat-sampling":
        return "sample_statistics_group", (rng.randint(0, 6),)
    if name == "partition-permutations":
        ids = rng.sample(range(100), rng.randint(0, 8))
        return "partition_permutation", (ids,)
    if name == "stop-coin":
        return "stop_coin", (rng.randint(1, 3),)
    if name == "j-star":
        return "pick_auction", (rng.randint(1, 3),)
    if name == "tree-parity":
        return "tree_parity", ()
    return "second_price_branch", ()


def play(tape, calls):
    return [getattr(tape, method)(*args) for method, args in calls]


def call_key(method, args):
    """The stream a tape call draws from, and the part of its arguments that
    its draw depends on: a stop coin's beta only sets the threshold."""
    if method == "sample_statistics_group":
        return "stat-sampling", args[0]
    if method == "partition_permutation":
        return "partition-permutations", len(args[0])
    if method == "pick_auction":
        return "j-star", args[0]
    names = {
        "second_price_branch": "top-level-branch",
        "tree_parity": "tree-parity",
        "stop_coin": "stop-coin",
    }
    return names[method], None


def count_seeds(monkeypatch):
    """The names of the streams ``CoinTape`` seeds from now on, in order."""
    seeded = []
    real = CoinTape._stream

    def counted(self, name):
        seeded.append(name)
        return real(self, name)

    monkeypatch.setattr(CoinTape, "_stream", counted)
    return seeded


class TestTapeReplay:
    def test_replays_match_fresh_reference_tapes(self):
        """Every replay draws what a fresh tape would, whether its calls
        follow the record, stop short of it, run past it, or diverge from it
        in a count, a length or a beta; so does a replay after others have
        added their divergent branches to the record."""
        rng = random.Random(12)
        diverged = 0
        for seed in range(60):
            base = [random_call(rng) for _ in range(rng.randint(0, 14))]
            tape = CoinTape(seed)
            assert play(tape, base) == play(ReferenceCoinTape(seed), base)
            for _ in range(8):
                calls = base[: rng.randint(0, len(base))]
                if rng.random() < 0.5 and calls:
                    # The same method with other arguments, at a random point.
                    k = rng.randrange(len(calls))
                    method = calls[k][0]
                    while True:
                        other = random_call(rng)
                        if other[0] == method:
                            break
                    diverged += other != calls[k]
                    calls[k] = other
                calls += [random_call(rng) for _ in range(rng.randint(0, 6))]
                source = tape if rng.random() < 0.5 else tape.replay()
                replay = source.replay()
                assert play(replay, calls) == play(ReferenceCoinTape(seed), calls)
        assert diverged > 100

    def test_interleaved_replays_match_fresh_reference_tapes(self):
        """Two replays make the same calls, taking turns in a random order,
        so each keeps finding the record grown by the other right behind a
        draw of its own; both still draw what a fresh tape would."""
        rng = random.Random(14)
        for seed in range(60):
            base = [random_call(rng) for _ in range(rng.randint(0, 10))]
            tape = CoinTape(seed)
            play(tape, base)
            calls = base[: rng.randint(0, len(base))]
            calls += [random_call(rng) for _ in range(rng.randint(0, 10))]
            first, second = [tape.replay(), []], [tape.replay(), []]
            for method, args in calls:
                for cursor, out in rng.sample((first, second), 2):
                    out.append(getattr(cursor, method)(*args))
            reference = play(ReferenceCoinTape(seed), calls)
            assert first[1] == second[1] == reference

    def test_seeds_each_stream_at_most_once(self, monkeypatch):
        """At beta = 1 (3 items) a tape seeds each stream once, on its first
        draw from it; at beta = 2 (15 items) it seeds a stream once per call
        on it, so at most beta times. Either way a replay whose calls follow
        the record seeds none."""
        seeded = count_seeds(monkeypatch)
        for m in (3, 15):
            bidders = random_bidders(random.Random(13), 24, m)
            betas = set()
            for seed in range(20):
                seeded.clear()
                tape = CoinTape(seed)
                honest = final_mechanism(bidders, m, tape)
                beta = honest.params.beta if honest.params else 1
                betas.add(beta)
                assert max(Counter(seeded).values()) <= beta
                if m == 3:
                    assert len(seeded) == len(set(seeded))
                seeded.clear()
                again = final_mechanism(bidders, m, tape.replay())
                assert seeded == []
                assert again == honest
            assert betas == ({1} if m == 3 else {1, 2})

    def test_seeds_once_per_call_the_record_lacks(self, monkeypatch):
        """A tape seeds a stream once for each call its record lacks: a
        fresh tape once per call, a replay once per call that no tape of
        its record has made at that point of the stream."""
        seeded = count_seeds(monkeypatch)

        def lacking(calls, made):
            """The streams of the calls ``made`` lacks, in order; adds them."""
            out, so_far = [], {}
            for method, args in calls:
                name, key = call_key(method, args)
                so_far[name] = so_far.get(name, ()) + (key,)
                if (name, so_far[name]) not in made:
                    made.add((name, so_far[name]))
                    out.append(name)
            return out

        rng = random.Random(16)
        missed = 0
        for seed in range(40):
            base = [random_call(rng) for _ in range(rng.randint(0, 12))]
            tape = CoinTape(seed)
            seeded.clear()
            play(tape, base)
            assert seeded == [call_key(*call)[0] for call in base]
            made = set()
            lacking(base, made)
            for _ in range(5):
                calls = base[: rng.randint(0, len(base))]
                calls += [random_call(rng) for _ in range(rng.randint(0, 4))]
                expected = lacking(calls, made)
                seeded.clear()
                play(tape.replay(), calls)
                assert seeded == expected
                missed += len(expected)
        assert missed > 50


def sweep_outcomes(monkeypatch, instance, tape_class, seeds, deviations):
    """The report of a truthfulness sweep run on ``tape_class`` tapes, the
    outcome of every run it made, and how many times a tape that came from
    ``replay()`` seeded a stream."""
    outcomes = []
    replays = []
    reseeded = 0
    real_mechanism, real_stream = harness.final_mechanism, CoinTape._stream
    real_replay = CoinTape.replay

    def recorded(*args, **kwargs):
        outcome = real_mechanism(*args, **kwargs)
        outcomes.append(outcome)
        return outcome

    def replayed(self):
        tape = real_replay(self)
        replays.append(tape)
        return tape

    def counted(self, name):
        nonlocal reseeded
        reseeded += any(self is tape for tape in replays)
        return real_stream(self, name)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "CoinTape", tape_class)
        patch.setattr(harness, "final_mechanism", recorded)
        patch.setattr(CoinTape, "replay", replayed)
        patch.setattr(CoinTape, "_stream", counted)
        report = harness.truthfulness_report(instance, seeds, deviations)
    return report, outcomes, reseeded


class TestSweepReplay:
    @pytest.mark.parametrize(
        "n, m, family, worthless, mixed_seeds",
        [
            (3, 4, "xos-random", False, 0),
            (5, 6, "additive", False, 0),
            (4, 5, "budget-additive", False, 0),
            (2, 15, "xos-random", False, 1),
            (3, 15, "budget-additive", False, 1),
            (2, 16, "additive", False, 0),
            (6, 15, "additive", False, 0),
            (2, 15, "additive", True, 1),
            (2, 16, "xos-random", True, 1),
        ],
    )
    def test_sweep_matches_one_fresh_tape_per_run(
        self, monkeypatch, n, m, family, worthless, mixed_seeds
    ):
        """The sweep's replays give every run the outcome a fresh tape
        gives. At m >= 15 a statistic of zero turns beta = 2 into beta = 1,
        so a lie can change how many partition and stop-coin draws a run
        makes. With bidder 0 worthless, an honest run that samples only it
        has beta = 1, and a lie of worth makes the replay draw past the
        record, re-seeding the stream there. ``mixed_seeds`` is how many
        seeds at least must see both betas."""
        instance = harness.generate_instance(
            harness.GeneratorSpec(n, m, family, seed=100 * n + m)
        )
        if worthless:
            instance = Instance(m, (xos([0] * m),) + instance.valuations[1:])
        seeds, deviations = (8, 3) if m >= 15 else (12, 4)
        report, outcomes, reseeded = sweep_outcomes(
            monkeypatch, instance, CoinTape, seeds, deviations
        )
        reference = sweep_outcomes(
            monkeypatch, instance, ReferenceCoinTape, seeds, deviations
        )
        assert (report, outcomes) == reference[:2]
        runs = 1 + n * deviations
        assert len(outcomes) == seeds * runs
        betas = [
            {o.params.beta for o in outcomes[s * runs : (s + 1) * runs] if o.params}
            for s in range(seeds)
        ]
        assert sum(len(b) > 1 for b in betas) >= mixed_seeds
        assert (reseeded > 0) == worthless

    def test_beta_one_sweep_seeds_each_honest_stream_once(self, monkeypatch):
        """At beta = 1 a sweep seeds each stream of each honest run exactly
        once, except the stop coin, which a beta = 1 run never flips, and
        its replays seed nothing: the record holds every draw the deviations
        make."""
        n, m, seeds, deviations = 4, 4, 12, 3
        instance = harness.generate_instance(harness.GeneratorSpec(n, m, seed=44))
        seeded, runs = [], []
        real_mechanism, real_stream = harness.final_mechanism, CoinTape._stream

        def recorded(bidders, m, tape):
            outcome = real_mechanism(bidders, m, tape)
            runs.append((tape, outcome))
            return outcome

        def counted(self, name):
            seeded.append((self, name))
            return real_stream(self, name)

        monkeypatch.setattr(harness, "final_mechanism", recorded)
        monkeypatch.setattr(CoinTape, "_stream", counted)
        harness.truthfulness_report(instance, seeds, deviations)
        honest = runs[:: 1 + n * deviations]
        assert len(honest) == seeds
        assert {o.params.beta for _, o in runs if o.params} == {1}
        assert {o.branch == SECOND_PRICE for _, o in honest} == {True, False}
        expected = []
        for tape, outcome in honest:
            streams = tuple(s for s in CoinTape.STREAMS if s != "stop-coin")
            if outcome.branch == SECOND_PRICE:
                streams = ("top-level-branch",)
            expected += [(tape, name) for name in streams]
        # Every run's tape is kept alive in ``runs``, so ids name tapes.
        assert Counter((id(t), name) for t, name in seeded) == Counter(
            (id(t), name) for t, name in expected
        )

    @pytest.mark.parametrize(
        "n, m, family, worthless, seeds",
        [
            (3, 4, "xos-random", False, range(12)),
            (5, 6, "additive", False, range(12)),
            (4, 5, "budget-additive", False, range(12)),
            (2, 15, "additive", True, range(8)),
            (2, 16, "xos-random", True, range(8)),
            (30, 4, "xos-random", False, (17, 23)),
        ],
    )
    def test_replays_match_fresh_tapes(self, n, m, family, worthless, seeds):
        """Every replay gives the outcome and makes the tape calls of a run
        on a fresh tape, and reuses the kept run exactly when the deviator
        is one the honest run never queried. At m >= 15 with bidder 0
        worthless, lies move beta; the crowd's seeds 17 and 23 sell to a
        demand-queried bidder, whose lies must run in full. A lie equal to
        the truth but another object is a new report, so a queried bidder's
        copy runs in full too."""
        spec_seed = 1 if n == 30 else 100 * n + m
        instance = harness.generate_instance(
            harness.GeneratorSpec(n, m, family, seed=spec_seed)
        )
        if worthless:
            instance = Instance(m, (xos([0] * m),) + instance.valuations[1:])
        bidders = instance.bidders()
        rng = random.Random(n * m)
        counts = Counter()
        for seed in seeds:
            tape = CoinTape(seed)
            honest = final_mechanism(bidders, m, tape)
            queried = honest.value_queries.keys() | honest.demand_queries.keys()
            if n == 30:
                assert honest.allocation.allocated_items
            for b, truth in bidders:
                lies = [random_bidders(rng, 1, m)[0][1], xos([0] * m)]
                lies.append(Valuation(truth.scale, truth.rows, truth.cap))
                for lie in lies:
                    twisted = list(bidders)
                    twisted[b] = (b, lie)
                    replay = tape.replay()
                    outcome = final_mechanism(twisted, m, replay)
                    fresh = CoinTape(seed)
                    assert outcome == final_mechanism(twisted, m, fresh)
                    assert replay._calls == fresh._calls
                    reused = outcome is honest
                    assert reused == (b not in queried)
                    counts["reused" if reused else "ran"] += 1
                    counts["betas", outcome.params and outcome.params.beta] += 1
        assert counts["reused"] > 0 and counts["ran"] > 0
        if m >= 15:
            assert counts["betas", 1] > 0 and counts["betas", 2] > 0

    def test_reused_tape_and_mutated_list_run_in_full(self):
        """A tape that has made calls runs in full, drawing on from where
        it stopped; so does a replay of a bidder list the caller changed in
        place at a queried bidder after the honest run: the tape keeps a
        copy of the list, not the list."""
        m = 4
        instance = harness.generate_instance(harness.GeneratorSpec(4, m, seed=9))
        checked = 0
        for seed in range(12):
            bidders = instance.bidders()
            tape = CoinTape(seed)
            honest = final_mechanism(bidders, m, tape)
            again = final_mechanism(bidders, m, tape)
            fresh = CoinTape(seed)
            final_mechanism(bidders, m, fresh)
            assert again is not honest
            assert again == final_mechanism(bidders, m, fresh)
            assert tape._calls == fresh._calls

            queried = honest.value_queries.keys() | honest.demand_queries.keys()
            if not queried:
                continue
            b = min(queried)
            bidders[b] = (b, xos([0] * m))
            replay = tape.replay()
            outcome = final_mechanism(bidders, m, replay)
            fresh = CoinTape(seed)
            assert outcome is not honest
            assert outcome == final_mechanism(bidders, m, fresh)
            assert replay._calls == fresh._calls
            checked += 1
        assert checked >= 8

    def test_reused_replays_query_nothing(self, monkeypatch):
        """A replay whose deviator the honest run never queried calls
        neither the greedy statistic nor a demand query; a queried
        deviator's replay runs both, as the honest run did."""
        m = 4
        instance = harness.generate_instance(harness.GeneratorSpec(30, m, seed=1))
        bidders = instance.bidders()
        calls = Counter()
        real_greedy, real_demand = mechanism.greedy_marginal_value, auction.demand_query

        def greedy(*args):
            calls["greedy"] += 1
            return real_greedy(*args)

        def demand(*args, **kwargs):
            calls["demand"] += 1
            return real_demand(*args, **kwargs)

        monkeypatch.setattr(mechanism, "greedy_marginal_value", greedy)
        monkeypatch.setattr(auction, "demand_query", demand)
        seen = Counter()
        for seed in (17, 23):
            tape = CoinTape(seed)
            honest = final_mechanism(bidders, m, tape)
            assert honest.branch == LEARNING_STOPPED and honest.demand_queries
            for b, _ in bidders:
                twisted = list(bidders)
                twisted[b] = (b, xos([0] * m))
                calls.clear()
                final_mechanism(twisted, m, tape.replay())
                queried = b in honest.value_queries or b in honest.demand_queries
                assert (calls["greedy"] > 0) == queried
                assert (calls["demand"] > 0) == queried
                seen[queried] += 1
        assert seen[True] > 0 and seen[False] > 0

    @pytest.mark.parametrize(
        "n, m",
        [(2, 3), (3, 5), (4, 6), (5, 2), (5, 6)],
    )
    def test_sweeps_reuse_every_unqueried_deviation(self, monkeypatch, n, m):
        """On ``truthtest`` shapes, a sweep reuses the honest run for every
        deviation by a bidder that run never queried, and for no other."""
        instance = harness.generate_instance(
            harness.GeneratorSpec(n, m, harness.FAMILIES[(n + m) % 3], seed=n * m)
        )
        seeds, deviations = 25, 4
        report, outcomes, _ = sweep_outcomes(
            monkeypatch, instance, CoinTape, seeds, deviations
        )
        assert report.clean
        runs = 1 + n * deviations
        expected = reused = 0
        for s in range(seeds):
            honest, *replays = outcomes[s * runs : (s + 1) * runs]
            for k, outcome in enumerate(replays):
                b = k // deviations
                expected += (
                    b not in honest.value_queries and b not in honest.demand_queries
                )
                reused += outcome is honest
        assert reused == expected > seeds


class TestCoinCalls:
    @pytest.mark.parametrize("family", harness.FAMILIES)
    @pytest.mark.parametrize("m", [3, 15, 16])
    def test_reports_change_coin_calls_only_through_beta(self, family, m):
        """A lie leaves every stream's call history as the honest run left
        it, unless the liar is in the statistics group and the lie flips
        the greedy statistic between zero and non-zero, which moves beta at
        m >= 15. So a learning bidder's report never changes a coin call.
        Bidder 0 worthless makes such flips reachable."""
        rng = random.Random(m)
        counts = Counter()
        for worthless in (False, True):
            instance = harness.generate_instance(
                harness.GeneratorSpec(3, m, family, seed=m)
            )
            bidders = instance.bidders()
            if worthless:
                bidders[0] = (0, xos([0] * m))
            for seed in range(8):
                tape = CoinTape(seed)
                honest = final_mechanism(bidders, m, tape)
                if honest.branch == SECOND_PRICE:
                    continue
                for b in range(len(bidders)):
                    for _ in range(2):
                        lie = random_bidders(rng, 1, m)[0][1]
                        if rng.random() < 0.25:
                            lie = xos([0] * m)
                        twisted = list(bidders)
                        twisted[b] = (b, lie)
                        replay = tape.replay()
                        outcome = final_mechanism(twisted, m, replay)
                        same = replay._calls == tape._calls
                        if b not in honest.statistics_group:
                            counts["learning"] += 1
                            assert same
                            continue
                        counts["statistics"] += 1
                        flips = (honest.statistics_welfare == 0) != (
                            outcome.statistics_welfare == 0
                        )
                        counts["flips"] += flips
                        assert same or flips
                        counts["changed"] += not same
        assert counts["learning"] > 20 and counts["statistics"] > 10
        assert counts["flips"] > 0
        assert (counts["changed"] > 0) == (m >= 15)


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
        lo, hi = Fraction(psi_min), Fraction(psi_max)
        fresh = solve_parameters(psi_min, psi_max)
        for parity in (ODD, EVEN, ODD, EVEN):  # the repeats come from the cache
            tree = build_modified_tree(fresh, parity)
            assert _range_tree(fresh, parity) == tree
            for m in (0, 1, 3, 8):
                bounds = bounds_of(lo, hi)
                params, root, vectors = _first_prices(bounds, parity, m)
                assert params == fresh
                assert root == (tree.prices(1)[0],) * m
                reference = canonical_vectors(tree, root, 1)
                assert vectors == tuple(reference)
                assert len(vectors) == ALPHA
        for seed in range(6):
            run = price_learning_mechanism(bidders, 3, psi_min, psi_max, CoinTape(seed))
            assert run.params == fresh
            assert run.tree == build_modified_tree(fresh, run.parity)

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
            for b, _ in bidders:
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
            allocated = {b for b, _ in bidders if out.allocation.bundle(b)}
            assert allocated <= set(out.groups[-1])
        assert seen_complete

    def test_learned_prices_are_level_vectors(self):
        rng = random.Random(3)
        for seed in range(25):
            bidders = random_bidders(rng, 5, 3)
            out = price_learning_mechanism(bidders, 3, 1, 10**6, CoinTape(seed))
            for level, vector in enumerate(out.learned_prices, start=1):
                for price in vector:
                    assert strong_node(out.tree, price, level) is not None

    def test_query_budget(self):
        rng = random.Random(4)
        for seed in range(25):
            bidders = random_bidders(rng, 7, 3)
            out = price_learning_mechanism(bidders, 3, 1, 10**6, CoinTape(seed))
            alpha = out.params.alpha
            assert all(c <= alpha for c in out.demand_queries.values())
            assert sum(out.demand_queries.values()) <= alpha * len(bidders)
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


def shape_ranges(rng):
    """Price ranges of every kind the mechanism meets: top-level ranges
    [A/m^2, 8A] for m in 1..20, arbitrary rational ratios, ratio 1 (the
    [1, 1] of a zero statistic among them) and ratios wide enough for
    beta = 2."""
    ranges = [(Fraction(1), Fraction(1))]
    for m in range(1, 21):
        for _ in range(20):
            a = Fraction(rng.randint(1, 10**6), rng.choice([1, 2, 3, 7, 100, 9973]))
            ranges.append((a / (m * m), 8 * a))
    for _ in range(300):
        lo = Fraction(rng.randint(1, 10**4), rng.randint(1, 500))
        ratio = Fraction(rng.randint(1, 10**5), rng.randint(1, 10**3))
        ranges.append((lo, lo * max(ratio, 1 / ratio)))
    for _ in range(100):
        c = Fraction(rng.randint(1, 10**4), rng.randint(1, 100))
        ranges.append((c, c))
    for _ in range(200):
        lo = Fraction(rng.randint(1, 10**4), rng.randint(1, 100))
        wide = rng.choice([10**6, 3 * 10**6, 10**7, Fraction(10**8, 7)])
        ranges.append((lo, lo * wide))
    return ranges


class TestPricesByShape:
    """A range's first prices are scaled from the tree of [1, ratio]; the
    reference is the range's own tree, built afresh."""

    def test_scaled_prices_match_fresh_builds(self):
        rng = random.Random(11)
        ranges = shape_ranges(rng)
        assert len(ranges) >= 1000
        wide = 0
        for k, (lo, hi) in enumerate(ranges):
            parity, m = rng.choice((ODD, EVEN)), rng.randint(0, 8)
            fresh = solve_parameters(lo, hi)
            wide += fresh.beta == 2
            tree = build_modified_tree(fresh, parity)
            params, root, vectors = _first_prices(bounds_of(lo, hi), parity, m)
            assert params == fresh
            assert root == (tree.prices(1)[0],) * m
            reference = canonical_vectors(tree, root, 1)
            assert vectors == tuple(reference)
            run = price_learning_mechanism([], m, lo, hi, CoinTape(k))
            assert run.tree == build_modified_tree(fresh, run.parity)
        assert wide >= 150

    @settings(max_examples=300, deadline=None)
    @given(
        num=st.integers(0, 10**7),
        den=st.one_of(st.sampled_from((1, 2, 3, 100, 300)), st.integers(1, 10**4)),
        m=st.integers(1, 20),
        parity=st.sampled_from((ODD, EVEN)),
    )
    def test_statistic_range_matches_fraction_reference(self, num, den, m, parity):
        """The range worked out on the statistic's numerator and
        denominator, and the first prices looked up by its ``Bounds``, equal
        the ``Fraction`` range [W/m^2, 8W] (or [1, 1]) and the first prices
        keyed by its ends, on a cache miss and on a hit."""
        stat = Fraction(num, den)
        lo, hi = reference_range(stat, m)
        bounds = _statistic_bounds(stat, m)
        assert (Fraction(*bounds[:2]), Fraction(*bounds[2:])) == (lo, hi)
        reference = reference_first_prices(lo, hi, parity, m)
        _first_prices.cache_clear()
        assert _first_prices(bounds, parity, m) == reference
        assert _first_prices(bounds, parity, m) == reference
        assert _first_prices.cache_info().hits == 1
        # The ends in lowest terms name the same range.
        assert _first_prices(bounds_of(lo, hi), parity, m) == reference

    @settings(max_examples=300, deadline=None)
    @given(
        lo_num=st.integers(-20, 10**6),
        lo_den=st.integers(1, 10**4),
        hi_num=st.integers(-20, 10**8),
        hi_den=st.integers(1, 10**4),
        k=st.integers(1, 60),
        j=st.integers(1, 60),
        m=st.integers(0, 8),
        parity=st.sampled_from((ODD, EVEN)),
    )
    @example(1, 1, 1, 1, 7, 3, 4, ODD)  # the range [1, 1]
    @example(1, 1, 1, 1, 1, 1, 2, EVEN)
    @example(-1, 2, 5, 1, 4, 1, 2, ODD)  # psi_min -4/8
    @example(0, 3, 0, 1, 2, 2, 2, ODD)
    @example(3, 2, 4, 3, 6, 5, 2, EVEN)  # psi_max 4/3 below psi_min 3/2
    def test_integer_first_prices_match_reference(
        self, lo_num, lo_den, hi_num, hi_den, k, j, m, parity
    ):
        """``Bounds`` not in lowest terms give the reference's ``Params`` and
        vectors, each price a ``Fraction``, on a cache miss; an invalid range
        raises the reference's ``DomainError`` message."""
        lo, hi = Fraction(lo_num, lo_den), Fraction(hi_num, hi_den)
        bounds = (lo_num * k, lo_den * k, hi_num * j, hi_den * j)
        _first_prices.cache_clear()
        try:
            reference = reference_first_prices(lo, hi, parity, m)
        except DomainError as exc:
            with pytest.raises(DomainError) as raised:
                _first_prices(bounds, parity, m)
            assert str(raised.value) == str(exc)
            return
        got = _first_prices(bounds, parity, m)
        assert got == reference
        params, root, vectors = got
        prices = (params.psi_min, params.psi_max, *root, *sum(vectors, ()))
        assert all(type(p) is Fraction for p in prices)

    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_zero_statistic_range_is_one_one(self, m):
        assert _statistic_bounds(ZERO, m) == (1, 1, 1, 1)
        params = _first_prices((1, 1, 1, 1), ODD, m)[0]
        assert params.psi_min == params.psi_max == 1
        assert params == solve_parameters(1, 1)

    def test_one_unit_tree_per_shape(self):
        _first_prices.cache_clear()
        _unit_tree.cache_clear()
        rng = random.Random(12)
        for _ in range(50):
            a = Fraction(rng.randint(1, 10**6), rng.randint(1, 100))
            for parity in (ODD, EVEN):
                _first_prices(bounds_of(a / 36, 8 * a), parity, 6)
        assert _unit_tree.cache_info().misses == 2

    @pytest.mark.parametrize(
        "psi_min, psi_max, message",
        [
            (0, 5, "psi_min must be positive"),
            (0, 0, "psi_min must be positive"),
            (-1, 5, "psi_min must be positive"),
            ("-1/3", "-1/6", "psi_min must be positive"),
            (5, 4, "psi_max must be at least psi_min"),
            ("1/2", "1/3", "psi_max must be at least psi_min"),
            (1, 0, "psi_max must be at least psi_min"),
        ],
    )
    def test_invalid_range_raises_domain_error(self, psi_min, psi_max, message):
        with pytest.raises(DomainError, match=message):
            price_learning_mechanism([], 2, psi_min, psi_max, CoinTape(0))
        with pytest.raises(DomainError, match=message):
            _first_prices(bounds_of(psi_min, psi_max), ODD, 2)


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

    @pytest.mark.parametrize("family", harness.FAMILIES)
    def test_one_outcome_matches_replaced_learning_outcome(self, family):
        """``final_mechanism`` builds its outcome once; it equals, field by
        field and in query-count key order, the reference's: the
        ``Fraction`` second-price auction, or the learning run's own outcome
        on the ``Fraction`` range with the statistic's fields put in by
        ``replace``."""
        instance = harness.generate_instance(
            harness.GeneratorSpec(24, 4, family, seed=31)
        )
        bidders, m = instance.bidders(), instance.item_count
        branches = set()
        for seed in range(200):
            fast = final_mechanism(bidders, m, CoinTape(seed))
            slow = reference_final_mechanism(bidders, m, CoinTape(seed))
            branches.add(fast.branch)
            for f in fields(MechanismOutcome):
                a, b = getattr(fast, f.name), getattr(slow, f.name)
                assert a == b, (seed, f.name)
                if isinstance(a, dict):
                    assert list(a.items()) == list(b.items()), (seed, f.name)
        assert branches == {SECOND_PRICE, LEARNING_STOPPED}

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        family=st.sampled_from(FAMILIES),
        n=st.integers(1, 8),
        m=st.integers(1, 4),
    )
    def test_outcome_matches_fraction_reference(self, data, family, n, m):
        """On both branches, ``final_mechanism`` equals the reference built
        from the ``Fraction`` second-price auction and the ``Fraction``
        range, field by field and in query-count key order, for bidders of
        one family on mixed grids, with zero values and ties among them."""
        # All grand values equal to grand / 300, or each drawn freely.
        grand = data.draw(st.one_of(st.none(), st.integers(0, 900)), label="grand")
        bidders = [(b, data.draw(valuations(m, family, grand))) for b in range(n)]
        branches = set()
        for seed in range(8):
            fast = final_mechanism(bidders, m, CoinTape(seed))
            slow = reference_final_mechanism(bidders, m, CoinTape(seed))
            branches.add(fast.branch == SECOND_PRICE)
            for f in fields(MechanismOutcome):
                a, b = getattr(fast, f.name), getattr(slow, f.name)
                assert a == b, (seed, f.name)
                if isinstance(a, dict):
                    assert list(a.items()) == list(b.items()), (seed, f.name)
        assert branches == {True, False}


def count_stop_coins(monkeypatch, tape_class):
    """The betas of the stop coins that ``tape_class`` tapes flip from now
    on, in order."""
    flipped = []
    real = tape_class.stop_coin

    def counted(self, beta):
        flipped.append(beta)
        return real(self, beta)

    monkeypatch.setattr(tape_class, "stop_coin", counted)
    return flipped


def assert_same_outcome(fast, slow, seed):
    """Equal outcomes, field by field and in query-count key order."""
    for f in fields(MechanismOutcome):
        a, b = getattr(fast, f.name), getattr(slow, f.name)
        assert a == b, (seed, f.name)
        if isinstance(a, dict):
            assert list(a.items()) == list(b.items()), (seed, f.name)


class TestStopCoin:
    @pytest.mark.parametrize("family", harness.FAMILIES)
    def test_beta_one_run_flips_no_stop_coin(self, monkeypatch, family):
        """At beta = 1 the stop coin is certain: a run never calls
        ``stop_coin``, and equals the reference that flips it in every
        iteration on a ``ReferenceCoinTape``, whose every call draws. Thirty
        bidders give a first learning group, so some runs sell."""
        instance = harness.generate_instance(
            harness.GeneratorSpec(30, 4, family, seed=1)
        )
        bidders, m = instance.bidders(), instance.item_count
        fast_flips = count_stop_coins(monkeypatch, CoinTape)
        slow_flips = count_stop_coins(monkeypatch, ReferenceCoinTape)
        learning = sold = 0
        for seed in range(60):
            fast = final_mechanism(bidders, m, CoinTape(seed))
            slow = reference_final_mechanism(
                bidders, m, ReferenceCoinTape(seed), learn=reference_learning_mechanism
            )
            assert_same_outcome(fast, slow, seed)
            if fast.branch != SECOND_PRICE:
                assert fast.params.beta == 1 and fast.branch == LEARNING_STOPPED
                learning += 1
                sold += bool(fast.allocation.allocated_items)
        assert fast_flips == []
        assert slow_flips == [1] * learning
        assert learning > 0 and sold > 0

    def test_every_beta_two_iteration_flips_the_stop_coin(self, monkeypatch):
        """On [1, 10^7], where beta = 2, every iteration a run reaches calls
        ``stop_coin`` once, and the run equals the reference's; both stopped
        and completed runs occur."""
        instance = harness.generate_instance(harness.GeneratorSpec(30, 5, seed=2))
        bidders, m = instance.bidders(), instance.item_count
        flips = count_stop_coins(monkeypatch, CoinTape)
        reached = set()
        for seed in range(40):
            before = len(flips)
            fast = price_learning_mechanism(bidders, m, 1, 10**7, CoinTape(seed))
            assert fast.params.beta == 2
            assert flips[before:] == [2] * len(fast.iterations)
            slow = reference_learning_mechanism(
                bidders, m, 1, 10**7, ReferenceCoinTape(seed)
            )
            assert_same_outcome(fast, slow, seed)
            reached.add((len(fast.iterations), fast.branch))
        assert {(1, LEARNING_STOPPED), (2, LEARNING_COMPLETED)} <= reached


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
        alloc = Allocation({3: frozenset({0})}, {3: Fraction(1)})
        out = MechanismOutcome(
            allocation=alloc,
            welfare=Fraction(5),
            branch=LEARNING_COMPLETED,
            value_queries={},
            groups=((3,),),
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


class TestRunRecord:
    """Each auction is valued once, into its iteration's record, and the
    outcome's welfare is read from there: the reference values every
    allocation afresh with the reported valuations."""

    def test_record_welfares_match_fresh_valuation(self):
        rng = random.Random(13)
        seen = set()
        for seed in range(160):
            n, m = rng.randint(1, 30), rng.randint(1, 3)
            bidders = random_bidders(rng, n, m)
            by_id = dict(bidders)
            if seed % 2:
                out = final_mechanism(bidders, m, CoinTape(seed))
            else:
                # [1, 10^6] gives beta = 2, where runs complete.
                hi = rng.choice([Fraction(1), Fraction(40), Fraction(10**6)])
                out = price_learning_mechanism(bidders, m, 1, hi, CoinTape(seed))
            for record in out.iterations:
                assert record.welfares == tuple(
                    welfare(a, by_id) for a in record.allocations
                )
                seen.add(("sold", any(record.welfares)))
            if out.branch == LEARNING_STOPPED:
                assert out.welfare == out.iterations[-1].welfares[out.j_star - 1]
            assert out.welfare == welfare(out.allocation, by_id)
            seen.add((out.branch, out.params and out.params.beta))
        assert {
            ("sold", True),
            (SECOND_PRICE, None),
            (LEARNING_STOPPED, 1),
            (LEARNING_STOPPED, 2),
            (LEARNING_COMPLETED, 2),
        } <= seen

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=9),
        m=st.integers(min_value=0, max_value=8),
        hi=st.sampled_from([Fraction(1), Fraction(40), Fraction(10**6)]),
        bidder_seed=st.integers(min_value=0, max_value=2**32),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_empty_group_record_matches_empty_auctions(
        self, n, m, hi, bidder_seed, seed
    ):
        bidders = random_bidders(random.Random(bidder_seed), n, m)
        by_id = dict(bidders)
        out = price_learning_mechanism(bidders, m, 1, hi, CoinTape(seed))
        # Fewer than ten bidders: every group before the last is empty.
        assert not out.groups[0]
        for record, group in zip(out.iterations, out.groups):
            assert not group
            allocations = tuple(
                fixed_price_auction([], range(m), _halve(v)) for v in record.vectors
            )
            assert record == IterationRecord(
                record.level,
                record.vectors,
                allocations,
                tuple(welfare(a, by_id) for a in allocations),
            )
        assert out.welfare == welfare(out.allocation, by_id)

    def test_non_empty_group_auctions_post_half_prices(self):
        """Every auction of a group with bidders is held at ``_halve`` of its
        iteration's vector, iteration 1's halves worked out by the run rather
        than cached with the range's first prices, and each run equals the
        reference learning mechanism's. Thirty bidders give a non-empty
        first group, and some of its auctions sell."""
        instance = harness.generate_instance(harness.GeneratorSpec(30, 4, seed=1))
        bidders, m = instance.bidders(), instance.item_count
        by_id = dict(bidders)
        held = sold = 0
        for seed in range(40):
            fast = final_mechanism(bidders, m, CoinTape(seed))
            slow = reference_final_mechanism(
                bidders, m, CoinTape(seed), learn=reference_learning_mechanism
            )
            assert fast == slow, seed
            for record, group in zip(fast.iterations, fast.groups):
                if not group:
                    continue
                arrivals = [(b, by_id[b]) for b in group]
                assert record.allocations == tuple(
                    fixed_price_auction(arrivals, range(m), _halve(v))
                    for v in record.vectors
                ), seed
                held += len(record.allocations)
                sold += sum(bool(a.allocated_items) for a in record.allocations)
        assert held > 0 and sold > 0


class TestParticipation:
    """``bidder_utility`` reads the participants from the record: the keys of
    ``value_queries`` and the members of ``groups``."""

    def outcomes(self):
        """One run of each kind, by name, with the bidders it ran on."""
        runs = {}
        bidders = random_bidders(random.Random(14), 3, 2)
        for seed in range(200):
            out = final_mechanism(bidders, 2, CoinTape(seed))
            if out.branch == SECOND_PRICE:
                kind = "second-price"
            elif not out.statistics_group:
                kind = "empty statistics group"
            else:
                kind = "stopped"
            runs.setdefault(kind, (bidders, out))
        crowd = random_bidders(random.Random(15), 24, 2)
        for seed in range(60):
            out = price_learning_mechanism(crowd, 2, 1, 10**6, CoinTape(seed))
            runs.setdefault(f"direct {out.branch}", (crowd, out))
        assert set(runs) == {
            "second-price",
            "stopped",
            "empty statistics group",
            f"direct {LEARNING_STOPPED}",
            f"direct {LEARNING_COMPLETED}",
        }
        return runs

    def test_every_participant_has_a_utility(self):
        for kind, (bidders, out) in self.outcomes().items():
            for b, v in bidders:
                utility = bidder_utility(out, b, v)
                assert utility == value_query(
                    v, out.allocation.bundle(b)
                ) - out.allocation.payment(b), kind

    def test_unknown_bidder_on_every_branch(self):
        for kind, (bidders, out) in self.outcomes().items():
            for stranger in (-1, len(bidders), 999):
                with pytest.raises(DomainError, match="did not participate"):
                    bidder_utility(out, stranger, bidders[0][1])


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


class TestQueryCounts:
    """The outcome's query counts are read off the run record. Here each
    query is counted as it is asked instead: demand queries by a counting
    wrapper over ``auction.demand_query``, value queries by the per-call
    tallies of the reference second-price auction and greedy statistic. The
    counts must agree bidder by bidder, in key order."""

    @staticmethod
    def asked(monkeypatch, run, bidders, *args):
        """``run(bidders, *args)`` and the demand queries it asked, per
        bidder, keyed in the order first asked."""
        owner = {id(v): b for b, v in bidders}
        assert len(owner) == len(bidders)
        asked = {}
        real = auction.demand_query

        def counting(valuation, *rest, **kwargs):
            b = owner[id(valuation)]
            asked[b] = asked.get(b, 0) + 1
            return real(valuation, *rest, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(auction, "demand_query", counting)
            out = run(bidders, *args)
        return out, asked

    @pytest.mark.parametrize(
        "n, m, family, seed",
        [
            # Thirty bidders make the first learning group non-empty.
            (30, 4, "xos-random", 1),
            (6, 3, "additive", 2),
            (6, 3, "budget-additive", 2),
        ],
    )
    def test_final_mechanism_counts_match_asked(
        self, monkeypatch, n, m, family, seed
    ):
        spec = harness.GeneratorSpec(n, m, family, seed=seed)
        valuations = harness.generate_instance(spec).valuations
        # Ids in decreasing order, so that key order is not sorted order.
        bidders = [(7 * (n - k), v) for k, v in enumerate(valuations)]
        branches = set()
        first_group_asked = False
        for tape_seed in range(40):
            out, asked = self.asked(
                monkeypatch, final_mechanism, bidders, m, CoinTape(tape_seed)
            )
            slow = reference_final_mechanism(bidders, m, CoinTape(tape_seed))
            assert list(out.demand_queries.items()) == list(asked.items()), tape_seed
            assert list(out.value_queries.items()) == list(
                slow.value_queries.items()
            ), tape_seed
            branches.add(out.branch)
            first_group_asked |= bool(out.groups and set(out.groups[0]) & set(asked))
        assert branches == {SECOND_PRICE, LEARNING_STOPPED}
        assert first_group_asked == (n == 30)

    def test_completed_learning_counts_match_asked(self, monkeypatch):
        """Over [1, 10^6] beta is 2: thirty bidders put one bidder in each of
        the two learning groups and 28 in the final group, so a completed run
        asks demand queries in both iterations and in the final auction."""
        instance = harness.generate_instance(
            harness.GeneratorSpec(30, 4, "xos-random", seed=1)
        )
        bidders = instance.bidders()
        completed = 0
        for seed in range(40):
            tape = CoinTape(seed)
            out, asked = self.asked(
                monkeypatch, price_learning_mechanism, bidders, 4, 1, 10**6, tape
            )
            assert out.params.beta == 2
            assert out.value_queries == {}
            assert list(out.demand_queries.items()) == list(asked.items()), seed
            if out.branch == LEARNING_COMPLETED:
                completed += 1
                assert len(asked) == 30
        assert completed
