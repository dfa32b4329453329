"""Exact ground truth for desk-scale instances.

``brute_force_opt`` returns the welfare-maximizing assignment of items to
bidders (items may stay unassigned), its welfare, and per-item supporting
prices of the winning bundles. The returned assignment is the
lexicographically smallest optimal assignment vector, item by item, with
"unassigned" ordered after all bidder indices. That is observably identical
to scanning all (n+1)^m assignment vectors in lexicographic order and keeping
the first maximizer, which the test suite verifies at small sizes.

The optimum comes from one pass of an exact dynamic program over subsets of
items, adding one bidder at a time to the integer bundle tables. The
lexicographic tie-break is folded into the integer objective as low-order
digits below the welfare: they read (n+1)^m - 1 minus the assignment vector
in base n+1, so the single maximum already names the lexicographically
smallest optimal vector and the assignment is read off its digits, with no
back-pointers. Weights grow with the bundle, so the first bidder's weights
are the first table and the last bidder splits only the whole item set:
n - 2 full steps. An XOS step is one pass per item and clause,
O(clauses * m * 2^m). A budget-additive step makes the same passes for its
one row without the budget, on a scaled table that also records the budget
the best split uses; only the subsets where that exceeds the budget try
every split, so the step costs O(m * 2^m) when the budget never binds and
3^m at worst. ``assignment_cap`` bounds n * 3^m, that worst case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Mapping, Optional, Sequence, Union

from .auction import Allocation
from .errors import CapabilityError, InstanceShapeError, InvariantViolationError
from .price_tree import Params
from .rationals import ZERO, common_scale, scaled_ints
from .valuations import (
    Valuation,
    _fact,
    bundle_value_table,
    max_subset_sums,
    supporting_prices,
    value_query,
)


@dataclass(frozen=True)
class OptimalSolution:
    """An optimal allocation, its welfare, and supporting prices.

    ``assignment[j]`` is the bidder receiving item j, or n (the bidder count)
    when j is unassigned. ``supporting_prices[j]`` is item j's supporting
    price in its winner's bundle, 0 for unassigned items. What the analysis
    trace reads of the prices is kept beside the fields, outside equality.
    """

    allocation: Allocation
    welfare: Fraction
    supporting_prices: tuple[Fraction, ...]
    assignment: tuple[int, ...]

    @_fact
    def price_grid(self) -> tuple[int, tuple[int, ...]]:
        """The lcm of the supporting prices' denominators, each price times it."""
        grid = common_scale(self.supporting_prices)
        return grid, tuple(scaled_ints(self.supporting_prices, grid))

    @_fact
    def leaves(self) -> dict[tuple[str, Params], tuple[Optional[int], ...]]:
        """Per parity and ``Params`` of a modified tree, which fix it, each
        supporting price's ``leaf_of`` there, filled in by ``build_trace``."""
        return {}


def welfare(
    allocation: Allocation,
    valuations: Union[Sequence[Valuation], Mapping[int, Valuation]],
) -> Fraction:
    """Sum of each bidder's value for its bundle; bundles must be disjoint."""
    seen: set[int] = set()
    total = ZERO
    lookup = (
        valuations if isinstance(valuations, Mapping) else dict(enumerate(valuations))
    )
    for bidder, bundle in allocation.bundles.items():
        if seen & bundle:
            raise InvariantViolationError("overlapping bundles in allocation")
        seen |= bundle
        if bundle:
            total += value_query(lookup[bidder], bundle)
    return total


def brute_force_opt(
    valuations: Sequence[Valuation],
    m: int,
    *,
    assignment_cap: int = 10**8,
) -> OptimalSolution:
    """Globally optimal allocation of m items among the given bidders.

    A middle XOS bidder costs one pass per item and clause over the 2^m
    subsets; a middle budget-additive bidder costs one pass per item, plus
    every split of each subset whose best unbudgeted split breaks the
    budget. Raises ``CapabilityError`` before any work when n * 3^m, the
    subset splits of the worst case (every bidder budget-additive and every
    subset split), exceeds the cap, then ``InstanceShapeError`` if a
    valuation is not over m items. n = 0 yields the empty allocation with
    welfare 0.
    """
    n = len(valuations)
    if n * 3**m > assignment_cap:
        raise CapabilityError(
            f"n * 3^m = {n * 3**m} subset splits exceed the cap {assignment_cap}"
        )
    for i, v in enumerate(valuations):
        if v.item_count != m:
            raise InstanceShapeError(f"bidder {i} has {v.item_count} items, not {m}")
    if n == 0 or m == 0:
        return OptimalSolution(
            Allocation({i: frozenset() for i in range(n)}, {}),
            Fraction(0),
            (Fraction(0),) * m,
            (n,) * m,
        )

    scale = lcm(*(v.scale for v in valuations))
    items = range(m)
    big = (n + 1) ** m
    # place[j] is item j's digit in base n+1, item 0 most significant, and
    # digits[S] reads S's 0/1 item vector in that base.
    place = [(n + 1) ** (m - 1 - j) for j in items]
    digits = max_subset_sums([place], m)

    # After bidder i, prev[S] is the best objective when bidders 0..i share
    # the items of S (some may stay unassigned). Bidder i's weight for S is
    # big * scale * v_i(S) + (n - i) * digits[S]; summed over bidders the
    # second term is big - 1 minus the assignment vector read in base n+1,
    # so every assignment has its own objective and the maximum has the
    # optimal welfare and, among optimal allocations, the lexicographically
    # smallest vector. For the last bidder, reversed(prev)[T] is prev(all - T).
    def weight(i: int) -> list[int]:
        table = bundle_value_table(valuations[i], items, scale)
        return [big * v + (n - i) * d for v, d in zip(table, digits)]

    prev = weight(0)
    for i, valuation in enumerate(valuations[1:-1], 1):
        factor = big * (scale // valuation.scale)
        tie = [(n - i) * d for d in place]
        if valuation.cap is None:
            prev = _xos_step(prev, valuation.rows, factor, tie, m)
        else:
            (row,) = valuation.rows
            prev = _budget_step(prev, row, valuation.cap, factor, tie, m, weight(i))
    top = prev[-1] if n == 1 else max(map(add, reversed(prev), weight(n - 1)))

    total, low = divmod(top, big)
    assignment = [n] * m
    for j in reversed(items):
        low, digit = divmod(low, n + 1)
        assignment[j] = n - digit

    bundles = {
        i: frozenset(j for j in items if assignment[j] == i) for i in range(n)
    }
    allocation = Allocation(bundles, {})
    prices = [Fraction(0)] * m
    for i, bundle in bundles.items():
        if bundle:
            for j, q in supporting_prices(valuations[i], bundle).items():
                prices[j] = q
    return OptimalSolution(
        allocation,
        Fraction(total, scale),
        tuple(prices),
        tuple(assignment),
    )


def _xos_step(
    prev: list[int],
    rows: Sequence[Sequence[int]],
    factor: int,
    tie: list[int],
    m: int,
) -> list[int]:
    """Add an XOS bidder to the subset DP in O(clauses * m * 2^m).

    Under a clause the weight C(T), the sum over T of ``w_j = factor * c_j +
    tie[j]``, is additive, so max over U inside S of prev(U) + C(S - U) is
    ``_add_items`` on a copy of prev. The bidder's row is the elementwise max
    over its clauses.
    """
    best: list[int] = []
    for row in rows:
        g = prev[:]
        _add_items(g, [factor * x + t for x, t in zip(row, tie)], m)
        best = [a if a > c else c for a, c in zip(best, g)] if best else g
    return best


def _budget_step(
    prev: list[int],
    row: Sequence[int],
    cap: int,
    factor: int,
    tie: list[int],
    m: int,
    weight: list[int],
) -> list[int]:
    """Add a budget-additive bidder, whose capped bundle weights are
    ``weight``, to the subset DP.

    Without the cap the weight would be additive, ``w_j = factor * row[j] +
    tie[j]``, and never below the capped one (``row`` and ``factor`` are
    nonnegative, so every row sum is below D). So ``_add_items`` runs on prev
    scaled by D = sum(row) + 1, with weights ``w_j * D + row[j]``: g[S] // D
    is the best uncapped split of S, and g[S] % D the largest budget used by
    a best split. Where that fits the cap, the split is worth as much capped
    and g[S] // D is exact. Only the other subsets try every split of S over
    ``weight``, 3^m steps at worst.
    """
    d = sum(row) + 1
    g = [p * d for p in prev]
    _add_items(g, [(factor * x + t) * d + x for x, t in zip(row, tie)], m)
    cur: list[int] = []
    for s, x in enumerate(g):
        best, used = divmod(x, d)
        if used > cap:
            best = prev[s]
            t = s
            while t:
                total = prev[s ^ t] + weight[t]
                if total > best:
                    best = total
                t = (t - 1) & s
        cur.append(best)
    return cur


def _add_items(g: list[int], weights: Sequence[int], m: int) -> None:
    """Replace g[S] by max over U inside S of g[U] + the sum of ``weights``
    over S - U, in place: one pass per item j, g[S + j] = max(g[S + j], g[S]
    + w_j), by blocks when the bit is high and by strided slices when it is
    low."""
    size = 1 << m
    for b, w in enumerate(weights):
        half = 1 << b
        step = half << 1
        if half <= size // step:
            for o in range(half, step):
                g[o::step] = _lift(g[o::step], g[o - half::step], w)
        else:
            for k in range(half, size, step):
                g[k:k + half] = _lift(g[k:k + half], g[k - half:k], w)


def _lift(hi: list[int], lo: list[int], w: int) -> list[int]:
    """max(hi[k], lo[k] + w) for every k. The max is inline: ``map(max, ...)``
    calls ``max`` once a pair and takes about four times as long."""
    return [a if a > (c := s + w) else c for a, s in zip(hi, lo)]
