"""Auction primitives: fixed-price, second-price grand bundle, greedy.

These are the three building blocks the mechanism composes. They are pure
functions of an *ordered* bidder list ``[(bidder_id, valuation), ...]``; any
randomization (arrival order, coin flips) happens in the caller. Each asks a
fixed number of queries per bidder, stated in its docstring, so the
mechanism reads its query counts off what it ran and the auctions count
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, InstanceShapeError, InvariantViolationError
from .rationals import ZERO
from .valuations import ItemSet, Valuation, demand_query, value_query

PriceVector = tuple[Fraction, ...]
Bidder = tuple[int, Valuation]


@dataclass(frozen=True)
class Allocation:
    """Disjoint per-bidder bundles plus nonnegative payments.

    Bidders absent from ``bundles`` implicitly hold the empty bundle and pay
    nothing; the accessors below treat both cases alike.
    """

    bundles: Mapping[int, ItemSet]
    payments: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for bidder, bundle in self.bundles.items():
            overlap = seen & bundle
            if overlap:
                raise InvariantViolationError(
                    f"items {sorted(overlap)} allocated twice (bidder {bidder})"
                )
            seen |= bundle
        for bidder, pay in self.payments.items():
            # The sign of the numerator: no Fraction comparison.
            if pay.numerator < 0:
                raise InvariantViolationError(f"bidder {bidder} pays {pay} < 0")

    def bundle(self, bidder: int) -> ItemSet:
        return self.bundles.get(bidder, frozenset())

    def payment(self, bidder: int) -> Fraction:
        return self.payments.get(bidder, ZERO)

    @property
    def allocated_items(self) -> ItemSet:
        out: set[int] = set()
        for bundle in self.bundles.values():
            out |= bundle
        return frozenset(out)

    @property
    def total_payments(self) -> Fraction:
        """The sum of the payments: a lone payment itself, ``ZERO`` for none."""
        first, *rest = self.payments.values() or (ZERO,)
        return sum(rest, first)


def fixed_price_auction(
    bidders: Sequence[Bidder],
    items: Iterable[int],
    prices: PriceVector,
) -> Allocation:
    """Sequential posted-price sale.

    Bidders arrive in list order; each takes a profit-maximizing bundle from
    the items still available at the posted prices and pays the posted price
    of what it takes. One demand query per bidder, and every bidder who
    arrives is named in ``bundles``, with an empty bundle and a zero payment
    when it takes nothing, so the keys of ``bundles`` are the bidders it
    queried. Individually rational by construction: the empty bundle is
    always available.
    """
    remaining = set(items)
    bundles: dict[int, ItemSet] = {}
    payments: dict[int, Fraction] = {}
    for bidder_id, valuation in bidders:
        taken = demand_query(valuation, prices, allowed=remaining)
        bundles[bidder_id] = taken
        payments[bidder_id] = sum((prices[j] for j in taken), ZERO)
        remaining -= taken
    return Allocation(bundles, payments)


def second_price_grand_bundle(
    bidders: Sequence[Bidder], items: Iterable[int]
) -> Allocation:
    """Sell all items as one lot to the highest grand-bundle value.

    The winner (lowest index on ties) pays the second-highest grand-bundle
    value, or 0 when alone. One value query per bidder.

    The answers are ranked as integers on the least common multiple of
    their denominators, so no ``Fraction`` is compared. The price is the
    runner-up's answer itself, for the whole item set its valuation's cached
    ``grand_value``, so none is built either.
    """
    if not bidders:
        raise DomainError("second-price auction needs at least one bidder")
    grand = frozenset(items)
    values = [value_query(valuation, grand) for _, valuation in bidders]
    # Each answer a/b as the integer a * (grid // b) on one common grid.
    grid = lcm(*(value.denominator for value in values))
    keys = [value.numerator * (grid // value.denominator) for value in values]
    # A stable sort, reversed, keeps equal keys in bidder order.
    winner, *rest = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
    price = values[rest[0]] if rest else ZERO
    winner_id = bidders[winner][0]
    return Allocation({winner_id: grand}, {winner_id: price})


def greedy_marginal_value(bidders: Sequence[Bidder], items: Iterable[int]) -> Fraction:
    """Welfare of the greedy 2-approximation for submodular-like inputs.

    Items are scanned in increasing index order and each goes to the bidder
    whose current bundle gains the most from it (lowest index on ties); items
    with zero marginal value everywhere stay unassigned. The mechanism uses
    only the welfare of this allocation, so that is all it returns.

    Each bidder's bundle is kept as running integer sums on its valuation's
    grid, one per row and capped by ``cap`` when there is one, so a gain
    costs one addition per row, with no ``map`` or ``max`` for one row.
    Gains on different grids are compared exactly by cross-multiplying with
    the grids' scales. Every (item, bidder) pair counts as one value query:
    ``len(set(items))`` per bidder.
    """
    # A rising range is sorted and distinct already.
    order = items if isinstance(items, range) and items.step > 0 else sorted(set(items))
    if not bidders or not order:
        return ZERO
    fewest = min(v.item_count for _, v in bidders)
    if order[0] < 0 or order[-1] >= fewest:
        # The first offending (item, bidder) pair, items first.
        j = next(j for j in order if not 0 <= j < fewest)
        count = next(c for c in (v.item_count for _, v in bidders) if not 0 <= j < c)
        raise InstanceShapeError(f"item {j} outside 0..{count - 1}")
    # Per bidder: cap, scale, entries item by item, row sums, value so far.
    states = [[v.cap, v.scale, v.columns, (0,) * len(v.rows), 0] for _, v in bidders]
    for j in order:
        best_gain, best_scale, best = 0, 1, None
        for state in states:
            cap, scale, columns, sums, current = state
            column = columns[j]
            if len(column) == 1:
                value = sums[0] + column[0]
                sums = (value,)
            else:
                sums = tuple(map(add, sums, column))
                value = max(sums)
            if cap is not None and value > cap:
                value = cap
            gain = value - current
            # gain / scale > best_gain / best_scale, with positive scales.
            if gain * best_scale > best_gain * scale:
                best_gain, best_scale, best, best_sums = gain, scale, state, sums
        if best is not None:
            best[3] = best_sums
            best[4] += best_gain
    grid = lcm(*(state[1] for state in states))
    total = sum(state[4] * (grid // state[1]) for state in states)
    return Fraction(total, grid) if total else ZERO
