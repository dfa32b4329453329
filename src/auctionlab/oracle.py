"""Exact ground truth for desk-scale instances.

``brute_force_opt`` returns the welfare-maximizing assignment of items to
bidders (items may stay unassigned), its welfare, and per-item supporting
prices of the winning bundles. The returned assignment is the
lexicographically smallest optimal assignment vector, item by item, with
"unassigned" ordered after all bidder indices. That is observably identical
to scanning all (n+1)^m assignment vectors in lexicographic order and keeping
the first maximizer, which the test suite verifies at small sizes.

The optimum comes from one pass of an exact subset-split dynamic program over
the bidders' integer bundle tables, O(n * 3^m). The tie-break is folded into
the integer objective as low-order digits below the welfare, so the single
maximum already names the lexicographically smallest optimal vector, and
back-pointers rebuild it. ``assignment_cap`` bounds those n * 3^m subset
splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Mapping, Sequence, Union

from .auction import Allocation
from .errors import CapabilityError, InvariantViolationError
from .valuations import (
    BudgetAdditiveValuation,
    Valuation,
    XosValuation,
    bundle_value_table,
    supporting_prices,
    valuation_scale,
    value_query,
)


@dataclass(frozen=True)
class OptimalSolution:
    """An optimal allocation, its welfare, and supporting prices.

    ``assignment[j]`` is the bidder receiving item j, or n (the bidder count)
    when j is unassigned. ``supporting_prices[j]`` is item j's price in a
    maximizing clause of its winner's bundle, 0 for unassigned items.
    """

    allocation: Allocation
    welfare: Fraction
    supporting_prices: tuple[Fraction, ...]
    assignment: tuple[int, ...]


def welfare(
    allocation: Allocation,
    valuations: Union[Sequence[Valuation], Mapping[int, Valuation]],
) -> Fraction:
    """Sum of each bidder's value for its bundle; bundles must be disjoint."""
    seen: set[int] = set()
    total = Fraction(0)
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

    Raises ``CapabilityError`` before any work when the DP's n * 3^m subset
    splits exceed the cap. n = 0 yields the empty allocation with welfare 0.
    """
    n = len(valuations)
    if n * 3**m > assignment_cap:
        raise CapabilityError(
            f"n * 3^m = {n * 3**m} subset splits exceed the cap {assignment_cap}"
        )
    if n == 0 or m == 0:
        return OptimalSolution(
            Allocation({i: frozenset() for i in range(n)}, {}),
            Fraction(0),
            (Fraction(0),) * m,
            (n,) * m,
        )

    scale = reduce(lcm, map(valuation_scale, valuations))
    items = range(m)
    nmask = 1 << m
    # digits[S] reads S's 0/1 item vector in base n+1, item 0 most significant.
    digits = [0] * nmask
    for mask in range(1, nmask):
        low = mask & -mask
        digits[mask] = digits[mask ^ low] + (n + 1) ** (m - low.bit_length())
    big = (n + 1) ** m

    # Subset-split DP: after bidder i, prev[s] is the best objective when
    # bidders 0..i share the items of s (some may stay unassigned) and
    # choices[i][s] is bidder i's share. Bidder i's weight for S is
    # big * scale * v_i(S) + (n - i) * digits[S]; summed over bidders the
    # second term is (n+1)^m - 1 minus the assignment vector read in base
    # n+1, which is below big. So the maximum has the optimal welfare and,
    # among optimal allocations, the lexicographically smallest vector.
    prev = [0] * nmask
    choices: list[list[int]] = []
    for i, valuation in enumerate(valuations):
        table = bundle_value_table(valuation, items, scale)
        weight = [big * v + (n - i) * d for v, d in zip(table, digits)]
        cur = [0] * nmask
        choice = [0] * nmask
        for s in range(1, nmask):
            best = prev[s]
            pick = 0
            t = s
            while t:
                total = prev[s ^ t] + weight[t]
                if total > best:
                    best = total
                    pick = t
                t = (t - 1) & s
            cur[s] = best
            choice[s] = pick
        prev = cur
        choices.append(choice)

    assignment = [n] * m
    rest = nmask - 1
    for i in range(n - 1, -1, -1):
        taken = choices[i][rest]
        rest ^= taken
        for j in items:
            if taken >> j & 1:
                assignment[j] = i

    bundles = {
        i: frozenset(j for j in items if assignment[j] == i) for i in range(n)
    }
    allocation = Allocation(bundles, {})
    prices = [Fraction(0)] * m
    for i, bundle in bundles.items():
        if bundle:
            for j, q in _bundle_supporting_prices(valuations[i], bundle).items():
                prices[j] = q
    return OptimalSolution(
        allocation,
        Fraction(prev[nmask - 1] // big, scale),
        tuple(prices),
        tuple(assignment),
    )


def _bundle_supporting_prices(
    valuation: Valuation, bundle: frozenset[int]
) -> dict[int, Fraction]:
    """Supporting prices of a winner's bundle.

    XOS valuations expose a maximizing clause directly. For budget-additive
    winners the per-item values are a valid clause when they fit the budget;
    otherwise scaling them down proportionally to sum to the budget yields
    one, and that is what the analysis quantities need.
    """
    if isinstance(valuation, XosValuation):
        return supporting_prices(valuation, bundle)
    assert isinstance(valuation, BudgetAdditiveValuation)
    total = sum((valuation.item_values[j] for j in bundle), Fraction(0))
    if total <= valuation.budget or total == 0:
        return {j: valuation.item_values[j] for j in bundle}
    ratio = valuation.budget / total
    return {j: valuation.item_values[j] * ratio for j in bundle}
