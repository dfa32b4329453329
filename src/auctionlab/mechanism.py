"""The randomized price-learning mechanism and its top-level wrapper.

Randomness discipline: every coin the mechanism ever flips comes from a
``CoinTape`` -- named, seed-deterministic streams whose draws are consumed in
an order fixed by the mechanism's structure. Reports change the calls only
through beta: the range ratio is always 8m^2, so beta moves only when the
statistics group's greedy welfare flips between zero and non-zero, and then
only at m >= 15 (``test_reports_change_coin_calls_only_through_beta``).
Fixing the tape therefore fixes a *deterministic* mechanism, and
truthfulness can be tested by replaying the same tape against deviating
reports. The mechanism reads a report only through a query it records: a
bidder's valuation is read only if the bidder is a key of the outcome's
``value_queries`` or ``demand_queries``. So on a fixed tape a report the run
never queried cannot change the outcome, and ``final_mechanism`` reuses the
run its tape keeps when only such reports differ.

The learning mechanism proper:

1. partition the bidders into beta+1 groups by repeated random prefixes;
2. flip the parity coin and build the modified price tree;
3. starting from the root price vector, run alpha posted-price auctions per
   iteration on that iteration's group (at half prices), then either stop and
   keep one of the alpha outcomes (stop coin, probability 1/beta, so certain
   and not flipped at beta = 1) or refine the vector with the per-item
   "highest auction that sold it" rule. An empty group runs no auctions: its
   record holds alpha empty allocations and alpha zero welfares;
4. if no stop coin fired, sell to the last group at the learned leaf prices.

Only the returned auction's allocation and payments count; auctions that ran
but were not selected allocate nothing and charge nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Optional, Sequence

from .auction import (
    Allocation,
    Bidder,
    PriceVector,
    fixed_price_auction,
    greedy_marginal_value,
    second_price_grand_bundle,
)
from .errors import DomainError, InvariantViolationError
from .oracle import welfare
from .price_tree import (
    EVEN,
    ODD,
    Params,
    PriceTree,
    build_modified_tree,
    canonical_vectors,
    check_range,
    solve_parameters,
)
from .rationals import ZERO, RationalLike, as_rational
from .valuations import Valuation, value_query

# The interpreter's own SHA-256, as ``random`` uses for its seeds: hashlib
# would load OpenSSL, several MiB, for a few short digests.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

SECOND_PRICE = "second-price"
LEARNING_STOPPED = "learning-stopped"
LEARNING_COMPLETED = "learning-completed"


class CoinTape:
    """Named, replayable random streams, all derived from one 64-bit seed.

    Each stream is an independent PRNG seeded by hashing (seed, stream name),
    so the draws of one stream do not shift when another stream draws more or
    less. Draw order within each stream is fixed by the mechanism structure;
    reports change the calls only through beta (see the module docstring).

    A tape records every draw in one flat dict keyed by the stream and the
    ``(kind, arg)`` of each call made on it so far, this one included, such
    as ``("perm", 7)`` or ``("random",)``. ``replay()`` gives a tape of the
    same seed that shares the record, so the runs of one seed against
    different reports seed no stream while their calls are in the record.
    A call the record lacks seeds the stream afresh, makes the stream's
    calls again and records the last draw: exactly the draw of a fresh
    tape. A fresh tape therefore seeds a stream once per call on it. A
    beta = 1 run makes no ``stop_coin`` call: its stop is certain.

    Next to the record, and shared with the replays in the same way, a tape
    keeps one run: the first ``final_mechanism`` run made on a tape of the
    record that had made no calls yet, as a tuple copy of its bidder list,
    its item count, its outcome and a copy of the calls it made. A later
    run on such a tape may return that outcome and take over those calls
    instead of running (see ``final_mechanism``). The record and the kept
    run live as long as the tape and its replays.
    """

    STREAMS = (
        "top-level-branch",
        "stat-sampling",
        "partition-permutations",
        "tree-parity",
        "stop-coin",
        "j-star",
    )

    def __init__(
        self, seed: int, _record: Optional[dict] = None, _kept: Optional[list] = None
    ):
        self.seed = seed
        # (stream, its calls so far, this one included) -> that call's draw
        self._record: dict[tuple, object] = {} if _record is None else _record
        # [bidders, m, outcome, calls] of the kept run, once one is made
        self._kept: list = [] if _kept is None else _kept
        # stream -> the calls this tape has made on it
        self._calls: dict[str, tuple] = {}

    def replay(self) -> "CoinTape":
        """A tape of the same seed that starts from the first draw and reads
        this tape's record and kept run instead of re-drawing them."""
        return CoinTape(self.seed, self._record, self._kept)

    def _stream(self, name: str) -> random.Random:
        """A freshly seeded PRNG for stream ``name``."""
        if name not in self.STREAMS:
            raise DomainError(f"unknown coin stream {name!r}")
        digest = sha256(f"{self.seed}:{name}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def _next(self, name: str, call: tuple):
        calls = self._calls[name] = self._calls.get(name, ()) + (call,)
        key = (name, calls)
        draw = self._record.get(key)
        if draw is None:  # no draw is None
            rng = self._stream(name)
            for made in calls:
                draw = _draw(rng, made)
            self._record[key] = draw
        return draw

    def second_price_branch(self) -> bool:
        return self._next("top-level-branch", ("random",)) < 0.5

    def sample_statistics_group(self, count: int) -> list[bool]:
        return list(self._next("stat-sampling", ("flags", count)))

    def tree_parity(self) -> str:
        return ODD if self._next("tree-parity", ("random",)) < 0.5 else EVEN

    def partition_permutation(self, ids: Sequence[int]) -> list[int]:
        ids = list(ids)
        order = self._next("partition-permutations", ("perm", len(ids)))
        return [ids[k] for k in order]

    def stop_coin(self, beta: int) -> bool:
        return self._next("stop-coin", ("random",)) < 1.0 / beta

    def pick_auction(self, alpha: int) -> int:
        """Uniform auction index in 0..alpha-1."""
        return self._next("j-star", ("randrange", alpha))


def _draw(rng: random.Random, call: tuple):
    """Make one recorded call on ``rng``. ``shuffle`` swaps by position
    only, so shuffling the indices 0..n-1 consumes and permutes exactly as
    shuffling any n ids would."""
    kind = call[0]
    if kind == "random":
        return rng.random()
    if kind == "flags":
        return tuple(rng.random() < 0.5 for _ in range(call[1]))
    if kind == "perm":
        order = list(range(call[1]))
        rng.shuffle(order)
        return tuple(order)
    return rng.randrange(call[1])


def partition_bidders(
    ids: Sequence[int], beta: int, tape: CoinTape
) -> list[list[int]]:
    """Split bidder ids into beta+1 groups.

    Each of the first beta rounds permutes the remaining ids uniformly and
    peels off the first floor(remaining / (10*beta)) of them (possibly none);
    whatever is left is the final group. The permuted order is kept: it is
    the arrival order for that group's auctions, and the random arrival is
    what the welfare analysis leans on.
    """
    if beta < 1:
        raise DomainError(f"beta must be >= 1, got {beta}")
    remaining = list(ids)
    groups: list[list[int]] = []
    for _ in range(beta):
        perm = tape.partition_permutation(remaining)
        cut = len(perm) // (10 * beta)
        groups.append(perm[:cut])
        remaining = perm[cut:]
    groups.append(remaining)
    return groups


def price_update(
    allocations: Sequence[Allocation], vectors: Sequence[PriceVector]
) -> PriceVector:
    """Per item, keep the price of the highest-indexed auction that sold it.

    Items no auction sold keep their price from the first vector.
    """
    if len(allocations) != len(vectors):
        raise InvariantViolationError(
            f"{len(allocations)} allocations vs {len(vectors)} price vectors"
        )
    if not vectors:
        raise InvariantViolationError("price update needs at least one auction")
    m = len(vectors[0])
    for v in vectors:
        if len(v) != m:
            raise InvariantViolationError("price vectors disagree on length")
    sold = [a.allocated_items for a in allocations]
    out = []
    for j in range(m):
        pick = 0
        for k, items in enumerate(sold):
            if j in items:
                pick = k
        out.append(vectors[pick][j])
    return tuple(out)


@dataclass(frozen=True)
class IterationRecord:
    """Everything iteration i produced: the alpha refined price vectors, the
    alpha allocations of this iteration's auctions and the welfare of each,
    valued with the reported valuations."""

    level: int
    vectors: tuple[PriceVector, ...]
    allocations: tuple[Allocation, ...]
    welfares: tuple[Fraction, ...]


@dataclass(frozen=True)
class MechanismOutcome:
    """What one run decided, and none of its input. ``allocation`` is the
    chosen auction's own allocation: bidders outside that auction are absent
    from it, which ``Allocation`` reads as an empty bundle and a zero
    payment. The participants are the keys of ``value_queries`` and the
    members of ``groups``."""

    allocation: Allocation
    welfare: Fraction
    branch: str
    value_queries: dict[int, int]
    stop_iteration: Optional[int] = None
    j_star: Optional[int] = None  # 1-based auction index when stopped
    demand_queries: dict[int, int] = field(default_factory=dict)
    learned_prices: tuple[PriceVector, ...] = ()
    params: Optional[Params] = None
    parity: Optional[str] = None
    groups: tuple[tuple[int, ...], ...] = ()
    iterations: tuple[IterationRecord, ...] = ()
    statistics_group: tuple[int, ...] = ()
    statistics_welfare: Optional[Fraction] = None

    @property
    def tree(self) -> Optional[PriceTree]:
        """The modified price tree the run priced from, None on the
        second-price branch. Built on demand, once per range and parity."""
        if self.params is None:
            return None
        return _range_tree(self.params, self.parity)


def _outcome(**decided) -> MechanismOutcome:
    """``MechanismOutcome(**decided)``, ``demand_queries`` given, without the
    frozen ``__init__``'s 14 field sets (1.5 µs a run); defaults come off the class."""
    outcome = object.__new__(MechanismOutcome)
    vars(outcome).update(decided)
    return outcome


def _halve(vector: PriceVector) -> PriceVector:
    return tuple(p / 2 for p in vector)


@lru_cache(maxsize=32)
def _range_tree(params: Params, parity: str) -> PriceTree:
    """The modified price tree of a range. Only iterations >= 2 and readers
    of ``MechanismOutcome.tree`` need it."""
    return build_modified_tree(params, parity)


@lru_cache(maxsize=32)
def _unit_tree(num: int, den: int, parity: str) -> PriceTree:
    """The modified price tree of [1, ratio], the ratio given in lowest
    terms as ``num / den``. (alpha, beta, gamma) depend on the ratio alone,
    and every price of the tree of [psi_min, psi_max] is psi_min times the
    matching price here: bins are psi_min * gamma^k and dummies
    psi_max * gamma^k. One tree serves every range of a shape."""
    return build_modified_tree(solve_parameters(1, Fraction(num, den)), parity)


# A price range [psi_min, psi_max] as integers: (numerator, denominator) of
# each end, in lowest terms or not, the denominators positive.
Bounds = tuple[int, int, int, int]


@lru_cache(maxsize=32)
def _first_prices(
    bounds: Bounds, parity: str, m: int
) -> tuple[Params, PriceVector, tuple[PriceVector, ...]]:
    """A range's parameters, its root price vector over ``m`` items, and
    iteration 1's alpha canonical vectors, scaled from the unit tree of the
    range's ratio: the constant vectors of the root's children, halved only
    by a run whose group has bidders. All of it is frozen: replays of a tape
    against different reports share it. The cache is small because a sweep
    revisits only a few ranges.

    The range comes as integer ``Bounds``, so a cache hit hashes and
    compares ints only. A miss checks the range and looks the unit tree up
    on the integers, and builds each price once from integer products."""
    lo_num, lo_den, hi_num, hi_den = bounds
    ends = psi_min, psi_max = Fraction(lo_num, lo_den), Fraction(hi_num, hi_den)
    num, den = hi_num * lo_den, hi_den * lo_num  # psi_max / psi_min = num / den
    check_range(psi_min, psi_max)
    g = gcd(num, den)
    unit = _unit_tree(num // g, den // g, parity)
    unit_params = unit.params
    params = Params(unit_params.alpha, unit_params.beta, unit_params.gamma, *ends)
    root, *children = [p.as_integer_ratio() for p in unit.prices(1) + unit.prices(2)]
    return (
        params,
        (Fraction(lo_num * root[0], lo_den * root[1]),) * m,
        tuple((Fraction(lo_num * a, lo_den * b),) * m for a, b in children),
    )


def price_learning_mechanism(
    bidders: Sequence[Bidder],
    m: int,
    psi_min: RationalLike,
    psi_max: RationalLike,
    tape: CoinTape,
) -> MechanismOutcome:
    """Iterative price learning over [psi_min, psi_max].

    Works for an empty bidder list (every auction is empty). Each bidder is
    demand-queried at most alpha times: alpha times if its group's iteration
    was reached, once for the final group, never otherwise. No bidder is
    value-queried.
    """
    lo, hi = as_rational(psi_min), as_rational(psi_max)
    bounds = (lo.numerator, lo.denominator, hi.numerator, hi.denominator)
    return _outcome(value_queries={}, **_learning_run(bidders, m, bounds, tape))


def _learning_run(
    bidders: Sequence[Bidder], m: int, bounds: Bounds, tape: CoinTape
) -> dict:
    """The learning mechanism's run over the range ``bounds``, as the
    ``MechanismOutcome`` fields it decides, all but ``value_queries``:
    fixed-price auctions ask none. Each auction is valued once, into its
    iteration's record. A fixed-price auction names every bidder it
    demand-queried in ``bundles``, so ``demand_queries`` counts those keys
    over every auction held: each iteration's and a completed run's last."""
    parity = tape.tree_parity()
    params, prices, vectors = _first_prices(bounds, parity, m)
    by_id = dict(bidders)
    groups = partition_bidders([b for b, _ in bidders], params.beta, tape)
    items = range(m)

    learned = [prices]
    records: list[IterationRecord] = []
    selected: Optional[Allocation] = None
    branch = LEARNING_COMPLETED
    stop_iteration: Optional[int] = None
    j_star: Optional[int] = None

    for i in range(1, params.beta + 1):
        if i > 1:
            vectors = tuple(canonical_vectors(_range_tree(params, parity), prices, i))
        group = [(b, by_id[b]) for b in groups[i - 1]]
        if group:  # auctions post half prices; iteration 1's are constant
            halves = [_halve(v[:1]) * m if i == 1 else _halve(v) for v in vectors]
            allocations = tuple(fixed_price_auction(group, items, h) for h in halves)
            welfares = tuple(welfare(a, by_id) for a in allocations)
        else:
            # What alpha auctions without bidders give. A fresh Allocation
            # per iteration: its dicts are mutable, and the pick may make it
            # the outcome's allocation.
            allocations = (Allocation({}, {}),) * len(vectors)
            welfares = (ZERO,) * len(vectors)
        records.append(IterationRecord(i, vectors, allocations, welfares))
        stop = params.beta == 1 or tape.stop_coin(params.beta)
        pick = tape.pick_auction(params.alpha)
        if stop:
            selected, selected_welfare = allocations[pick], welfares[pick]
            branch = LEARNING_STOPPED
            stop_iteration = i
            j_star = pick + 1
            break
        prices = price_update(allocations, vectors)
        learned.append(prices)

    held = [a for record in records for a in record.allocations]
    if selected is None:
        final_group = [(b, by_id[b]) for b in groups[params.beta]]
        selected = fixed_price_auction(final_group, items, _halve(prices))
        selected_welfare = welfare(selected, by_id)
        held.append(selected)
    demand: dict[int, int] = {}
    for allocation in held:
        for b in allocation.bundles:
            demand[b] = demand.get(b, 0) + 1

    return dict(
        allocation=selected,
        welfare=selected_welfare,
        branch=branch,
        stop_iteration=stop_iteration,
        j_star=j_star,
        demand_queries=demand,
        learned_prices=tuple(learned),
        params=params,
        parity=parity,
        groups=tuple(tuple(g) for g in groups),
        iterations=tuple(records),
    )


def check_market(bidders: Sequence[Bidder], m: int) -> None:
    """The top-level mechanism's domain: at least one bidder and one item."""
    if not bidders:
        raise DomainError("the mechanism needs at least one bidder")
    if m < 1:
        raise DomainError("the mechanism needs at least one item")


def final_mechanism(
    bidders: Sequence[Bidder],
    m: int,
    tape: CoinTape,
) -> MechanismOutcome:
    """Top-level mechanism over all bidders.

    Heads: a second-price auction on the grand bundle. Tails: sample a
    statistics group (each bidder independently with probability 1/2), use
    the greedy welfare of that group to pick the price range
    [A/m^2, 8A], and run the learning mechanism on everyone else. The
    statistics group never receives items and never pays. A zero statistic
    (all sampled valuations worthless) degenerates the range to [1, 1].

    The second-price outcome's welfare is the winner's answer for its lot,
    for the whole item set its cached ``grand_value``, with no other bidder
    valued. The range is worked out on the statistic's integer numerator
    and denominator and passed on as ``Bounds``; its ``Fraction`` ends are
    built only when the range's first prices are not cached yet. Value
    queries are counted by rule: one per bidder for the second-price
    auction, one per item per statistics-group bidder for the statistic.

    The first run on a ``CoinTape`` record made by a tape with no calls yet
    is kept on the record. A later call on such a tape whose bidders have
    the kept run's ids in the same order, whose ``m`` is the same, and
    whose report at every bidder the kept run queried is the very object
    it read, returns the kept outcome and takes over the kept calls without
    running: a report is read only through a recorded query, so the run
    would decide the same. The outcome returned is the kept object itself,
    so its dicts are shared with every run that reused it and must not be
    changed. Every other call runs in full.
    """
    kept = getattr(tape, "_kept", None)  # tapes without a record keep none
    if kept is None or tape._calls:
        return _final_run(bidders, m, tape)
    if kept and _unread_changes_only(kept, bidders, m):
        tape._calls = dict(kept[3])
        return kept[2]
    outcome = _final_run(bidders, m, tape)
    if not kept:
        kept[:] = tuple(bidders), m, outcome, dict(tape._calls)
    return outcome


def _unread_changes_only(kept: list, bidders: Sequence[Bidder], m: int) -> bool:
    """Whether ``bidders`` over ``m`` items differ from the kept run's only
    in reports that run never queried: the same ids in the same order, and
    the same report object wherever it asked a value or demand query."""
    seen, kept_m, outcome, _ = kept
    if m != kept_m or len(bidders) != len(seen):
        return False
    values, demands = outcome.value_queries, outcome.demand_queries
    for (b, report), (was, read) in zip(bidders, seen):
        if b != was or (report is not read and (b in values or b in demands)):
            return False
    return True


def _final_run(bidders: Sequence[Bidder], m: int, tape: CoinTape) -> MechanismOutcome:
    """``final_mechanism`` run in full on ``tape``."""
    check_market(bidders, m)
    if tape.second_price_branch():
        allocation = second_price_grand_bundle(bidders, range(m))
        ((winner, lot),) = allocation.bundles.items()
        return _outcome(
            allocation=allocation,
            welfare=next(value_query(v, lot) for b, v in bidders if b == winner),
            branch=SECOND_PRICE,
            value_queries={b: 1 for b, _ in bidders},
            demand_queries={},
        )

    flags = tape.sample_statistics_group(len(bidders))
    stat = [b for b, f in zip(bidders, flags) if f]
    mech = [b for b, f in zip(bidders, flags) if not f]

    stat_welfare = greedy_marginal_value(stat, range(m))
    return _outcome(
        value_queries={b: m for b, _ in stat},
        statistics_group=tuple(b for b, _ in stat),
        statistics_welfare=stat_welfare,
        **_learning_run(mech, m, _statistic_bounds(stat_welfare, m), tape),
    )


def _statistic_bounds(statistic: Fraction, m: int) -> Bounds:
    """The price range [W/m^2, 8W] of a statistic W over ``m`` items, as
    ``Bounds`` worked out on W's numerator and denominator; [1, 1] when W is
    zero."""
    num, den = statistic.numerator, statistic.denominator
    return (num, den * m * m, 8 * num, den) if num else (1, 1, 1, 1)


def utility_terms(
    outcome: MechanismOutcome, bidder: int, true_valuation: Valuation
) -> tuple[int, int]:
    """Quasi-linear utility, true value of the bundle minus payment, as
    integers ``(num, den)``, ``den > 0``: ``(0, 1)``, with no value query,
    for a bidder who gets and pays nothing. Raises ``DomainError`` for a
    bidder the run never saw, in no learning group and never value-queried."""
    if bidder not in outcome.value_queries and all(
        bidder not in group for group in outcome.groups
    ):
        raise DomainError(f"bidder {bidder} did not participate")
    bundle = outcome.allocation.bundle(bidder)
    payment = outcome.allocation.payment(bidder)
    if not bundle and not payment:
        return 0, 1
    value_num, value_den = value_query(true_valuation, bundle).as_integer_ratio()
    pay_num, pay_den = payment.as_integer_ratio()
    return value_num * pay_den - pay_num * value_den, value_den * pay_den


def bidder_utility(
    outcome: MechanismOutcome, bidder: int, true_valuation: Valuation
) -> Fraction:
    """``utility_terms`` as a ``Fraction``: the exact utility."""
    return Fraction(*utility_terms(outcome, bidder, true_valuation))
