"""Reference demand query, kept as a test oracle.

``valuations.demand_query`` has one rule for every backend: a bundle of the
largest profit v(S) - p(S), ties going to fewer items, then to the
lexicographically smallest sorted index sequence. ``_demand_enumerate`` finds
it as one argmax over its profit table and ``_demand_knapsack`` through
tie-breaking digits in its costs. The scan here walks every mask in order and
applies the rule by hand, as the enumeration once did; both backends must
return its bundle exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Optional

from auctionlab.rationals import common_scale, scaled_ints
from auctionlab.valuations import (
    ItemSet,
    Valuation,
    bundle_value_table,
    max_subset_sums,
)


def reference_demand(
    valuation: Valuation,
    prices: tuple[Fraction, ...],
    allowed: Optional[Iterable[int]] = None,
) -> ItemSet:
    """The demanded bundle over subsets of ``allowed`` (every item when None),
    by a scan of all 2^|allowed| masks on one integer grid."""
    if allowed is None:
        allowed = range(valuation.item_count)
    allowed = tuple(sorted(allowed))
    size = len(allowed)
    scale = lcm(valuation.scale, common_scale(prices[j] for j in allowed))
    cost = max_subset_sums([scaled_ints((prices[j] for j in allowed), scale)], size)
    best_value = bundle_value_table(valuation, allowed, scale)

    def index_tuple(mask: int) -> tuple[int, ...]:
        return tuple(allowed[b] for b in range(size) if mask >> b & 1)

    best_mask = 0
    best_profit = 0
    best_pop = 0
    for mask in range(1, 1 << size):
        profit = best_value[mask] - cost[mask]
        if profit < best_profit:
            continue
        pop = mask.bit_count()
        if profit == best_profit:
            if pop > best_pop:
                continue
            if pop == best_pop and index_tuple(mask) >= index_tuple(best_mask):
                continue
        best_profit, best_mask, best_pop = profit, mask, pop
    return frozenset(index_tuple(best_mask))
