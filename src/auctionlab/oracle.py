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
back-pointers. An XOS bidder is a max over additive clauses, and an additive
clause turns the step into one subset-max transform per clause:
O(clauses * m * 2^m) list operations. A budget-additive bidder is not
additive under its budget, so its step tries every subset split: O(3^m).
``assignment_cap`` bounds n * 3^m, the work of the all-split worst case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, sub
from typing import Mapping, Sequence, Union

from .auction import Allocation
from .errors import CapabilityError, InvariantViolationError
from .valuations import (
    Valuation,
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
    price in its winner's bundle, 0 for unassigned items.
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

    Raises ``CapabilityError`` before any work when n * 3^m, the DP's subset
    splits if every bidder were budget-additive, exceeds the cap. n = 0
    yields the empty allocation with welfare 0.
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

    scale = lcm(*(v.scale for v in valuations))
    items = range(m)
    nmask = 1 << m
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
    # smallest vector.
    prev = [0] * nmask
    for i, valuation in enumerate(valuations):
        if valuation.cap is None:
            factor = big * (scale // valuation.scale)
            tie = [(n - i) * d for d in place]
            prev = _xos_step(prev, valuation.rows, factor, tie, m)
        else:
            table = bundle_value_table(valuation, items, scale)
            weight = [big * v + (n - i) * d for v, d in zip(table, digits)]
            prev = _split_step(prev, weight)

    total, low = divmod(prev[nmask - 1], big)
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

    Under clause c the bidder's weight C(T) = sum over T of
    ``factor * c_j + tie[j]`` is additive, so splitting S into T and its rest
    gives max over T of C(T) + prev(S - T) = C(S) + max over U inside S of
    prev(U) - C(U), a subset-max transform; U = S keeps prev(S). The
    bidder's row is the elementwise max over its clauses.
    """
    best = prev
    for row in rows:
        clause = max_subset_sums([[factor * x + t for x, t in zip(row, tie)]], m)
        inner = list(map(sub, prev, clause))
        _subset_max(inner, m)
        best = list(map(max, best, map(add, clause, inner)))
    return best


def _subset_max(g: list[int], m: int) -> None:
    """In place, g[S] becomes the max of g[U] over every U inside S.

    One pass per bit lifts each mask with the bit set by the mask without it,
    a slice at a time: by blocks when the bit is high (few long blocks), by
    offsets with a stride when it is low (few long strided slices).
    """
    size = 1 << m
    for b in range(m):
        half = 1 << b
        step = half << 1
        if half <= size // step:
            for o in range(half):
                g[o + half::step] = map(max, g[o + half::step], g[o::step])
        else:
            for base in range(0, size, step):
                top = base + half
                g[top:base + step] = map(max, g[top:base + step], g[base:top])


def _split_step(prev: list[int], weight: list[int]) -> list[int]:
    """Add a bidder with bundle weights ``weight`` by trying every split of
    every S into the bidder's part T and the rest: 3^m steps."""
    cur = prev[:]
    for s in range(1, len(prev)):
        best = prev[s]
        t = s
        while t:
            total = prev[s ^ t] + weight[t]
            if total > best:
                best = total
            t = (t - 1) & s
        cur[s] = best
    return cur

