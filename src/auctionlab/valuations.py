"""Valuation representation and the three query primitives.

One type, ``Valuation(scale, rows, cap)``, holds both supported families in
one integer form. ``rows`` are additive rows of integers and ``scale`` is
their least common denominator, so an entry ``x`` stands for ``x / scale``.
A bundle's value is the largest row sum over it, capped at ``cap`` when there
is one, turned into one ``Fraction`` at the end:

* ``cap is None`` -- an XOS valuation: the rows are its additive clauses and
  the value is the maximum over clauses. This is the universal representation
  the mechanism reasons about.
* a cap -- a budget-additive valuation: the item values as one row, capped by
  the budget, ``min(budget, sum of item values)``. Kept in this special form;
  queries are answered directly rather than via an (exponential) clause
  expansion.

``xos``, ``additive`` and ``budget_additive`` parse rationals once and scale
them to the form; ``Fraction`` appears again only in query answers.

Queries:

* ``value_query(v, S)`` -- the exact value of a bundle.
* ``demand_query(v, p)`` -- a profit-maximizing bundle under item prices,
  with one deterministic tie-break for every backend (fewest items, then
  lexicographically smallest index sequence).
* ``supporting_prices(v, S)`` -- per-item prices that sum to
  ``value_query(v, S)`` and under-estimate every sub-bundle: the entries of a
  maximizing row of S, scaled down to the cap when they sum past it.

All arithmetic is exact. Kept beside the form, outside its equality, and
worked out on first read, lock-free: the whole item set ``all_items``, its
value ``grand_value``, and ``columns``, the rows item by item, which the
greedy statistic reads. ``value_query`` answers the whole set, which every
second-price auction asks for, with ``grand_value`` and the empty bundle
with ``rationals.ZERO``, checking no item; any other bundle has every item
range-checked, so an out-of-range item raises whatever the bundle's size.
The demand backend takes the argmax of the 2^m bundles' profits on a grid
shared with the prices. Beyond ``ENUMERATION_CAP`` items only budget-additive
valuations are served, by a pseudo-polynomial knapsack indexed by value sum
on the valuation's grid, its costs carrying the tie-break in low digits.
``bundle_value_table`` is the one place a valuation becomes an integer table
of bundle values; the oracle builds its budget-additive tables with it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, lcm
from operator import sub
from typing import Iterable, Optional, Sequence

from .errors import CapabilityError, InstanceShapeError
from .rationals import ZERO, RationalLike, as_rational, common_scale, scaled_ints

ItemSet = frozenset[int]

# Demand queries over more items than this are not enumerated.
ENUMERATION_CAP = 20
# The budget-additive knapsack refuses tables with more cells than this.
KNAPSACK_CELL_CAP = 5_000_000


class _fact(cached_property):
    """``cached_property`` without the lock it takes before Python 3.12."""

    def __get__(self, valuation, owner=None):
        if valuation is None:
            return self
        fact = valuation.__dict__[self.attrname] = self.func(valuation)
        return fact


@dataclass(frozen=True)
class Valuation:
    """A bidder's valuation in integer form: v(S) is the largest sum of a row's
    entries over S, capped at ``cap`` when there is one, divided by ``scale``.

    ``cap is None`` makes an XOS valuation, the pointwise maximum of the rows
    (its additive clauses). A cap makes a budget-additive one, with its item
    values as the one row and its budget as the cap. Monotonicity and a zero
    value for the empty bundle are forced by the representation (nonnegative
    entries, empty sums). ``scale`` must be the least that makes every number
    an integer, so equal fields mean the same valuation.
    """

    scale: int
    rows: tuple[tuple[int, ...], ...]
    cap: Optional[int] = None

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise InstanceShapeError(f"scale {self.scale} is not positive")
        if self.cap is not None:
            if self.cap < 0:
                raise InstanceShapeError(
                    f"negative budget {Fraction(self.cap, self.scale)}"
                )
            if len(self.rows) != 1:
                raise InstanceShapeError(
                    f"a budget-additive valuation has one row, got {len(self.rows)}"
                )
        entry = "negative clause entry" if self.cap is None else "negative item value"
        for row in self.rows:
            for x in row:
                if x < 0:
                    raise InstanceShapeError(f"{entry} {Fraction(x, self.scale)}")
        if not self.rows:
            raise InstanceShapeError("an XOS valuation needs at least one clause")
        m = len(self.rows[0])
        for row in self.rows:
            if len(row) != m:
                raise InstanceShapeError("clauses disagree on item count")
        if gcd(self.scale, *(x for row in self.rows for x in row), self.cap or 0) > 1:
            raise InstanceShapeError(f"scale {self.scale} is not the least")

    @property
    def item_count(self) -> int:
        return len(self.rows[0])

    @_fact
    def all_items(self) -> ItemSet:
        """The whole item set, 0..item_count-1."""
        return frozenset(range(self.item_count))

    @_fact
    def grand_value(self) -> Fraction:
        """The value of all the items: the largest row sum, capped. A zero
        value is ``ZERO``, the empty bundle's answer, which is also the whole
        set when there are no items."""
        total = max(map(sum, self.rows))
        if self.cap is not None:
            total = min(self.cap, total)
        return Fraction(total, self.scale) if total else ZERO

    @_fact
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The rows item by item: ``columns[j]`` holds item j's entry of
        every row, in row order."""
        return tuple(zip(*self.rows))

    def maximizing_clause(self, items: Iterable[int]) -> int:
        """Index of a row attaining the bundle's value (lowest index wins)."""
        bundle = tuple(items)
        totals = [sum(map(row.__getitem__, bundle)) for row in self.rows]
        return totals.index(max(totals))


def on_grid(
    grid: int, rows: Sequence[Sequence[int]], cap: Optional[int] = None
) -> Valuation:
    """The valuation whose numbers are ``rows`` and ``cap`` over ``grid``,
    reduced to its least scale by one gcd."""
    g = gcd(grid, *(x for row in rows for x in row), cap or 0)
    if g > 1:
        rows = [[x // g for x in row] for row in rows]
        cap = None if cap is None else cap // g
    return Valuation(grid // g, tuple(map(tuple, rows)), cap)


def _scaled(*rows: Sequence[Fraction]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The least common denominator of the rows and the rows times it."""
    scale = common_scale(x for row in rows for x in row)
    return scale, tuple(tuple(scaled_ints(row, scale)) for row in rows)


def xos(*clauses: Iterable[RationalLike]) -> Valuation:
    """Build an XOS valuation from rows of ints / decimal strings / Fractions."""
    return Valuation(*_scaled(*([as_rational(v) for v in row] for row in clauses)))


def additive(values: Iterable[RationalLike]) -> Valuation:
    """Single-clause XOS valuation (a purely additive bidder)."""
    return xos(values)


def budget_additive(
    values: Iterable[RationalLike], budget: RationalLike
) -> Valuation:
    """Additive values capped by a budget: v(S) = min(budget, sum over S)."""
    values = [as_rational(v) for v in values]
    budget = as_rational(budget)
    scale, (row, (cap,)) = _scaled(values, [budget])
    return Valuation(scale, (row,), cap)


def _check_items(m: int, items: Iterable[int]) -> ItemSet:
    bundle = frozenset(items)
    for j in bundle:
        if not 0 <= j < m:
            raise InstanceShapeError(f"item {j} outside 0..{m - 1}")
    return bundle


def value_query(valuation: Valuation, items: Iterable[int]) -> Fraction:
    """v(S) for a bundle S, exactly. The whole item set and the empty bundle
    are answered at once; any other bundle has its items range-checked."""
    if items == valuation.all_items:
        return valuation.grand_value
    if not items:
        return ZERO
    bundle = _check_items(valuation.item_count, items)
    if len(bundle) == valuation.item_count:
        return valuation.grand_value
    total = max(sum(map(row.__getitem__, bundle)) for row in valuation.rows)
    if valuation.cap is not None:
        total = min(valuation.cap, total)
    return Fraction(total, valuation.scale)


def _check_prices(m: int, prices: tuple[Fraction, ...]) -> None:
    if len(prices) != m:
        raise InstanceShapeError(
            f"price vector has length {len(prices)}, instance has {m} items"
        )
    for p in prices:
        if p < 0:
            raise InstanceShapeError(f"negative price {p}")


def demand_query(
    valuation: Valuation,
    prices: tuple[Fraction, ...],
    allowed: Optional[Iterable[int]] = None,
) -> ItemSet:
    """A bundle maximizing v(S) - p(S) over subsets of ``allowed``.

    Ties go to the bundle with fewer items, then to the lexicographically
    smallest sorted index sequence, on both backends (the enumeration up to
    ``ENUMERATION_CAP`` allowed items, the budget-additive knapsack past it),
    so repeated queries are replayable. The empty bundle (profit 0) is always
    available, hence the result never has negative profit.
    """
    m = valuation.item_count
    _check_prices(m, prices)
    if allowed is None:
        allowed_items: tuple[int, ...] = tuple(range(m))
    else:
        allowed_items = tuple(sorted(_check_items(m, allowed)))

    if len(allowed_items) <= ENUMERATION_CAP:
        return _demand_enumerate(valuation, prices, allowed_items)
    if valuation.cap is not None:
        return _demand_knapsack(valuation, prices, allowed_items)
    raise CapabilityError(
        f"{len(allowed_items)} items exceed the enumeration cap "
        f"({ENUMERATION_CAP}) and no specialized backend applies"
    )


def max_subset_sums(rows: Sequence[Sequence[int]], size: int) -> list[int]:
    """For every bit mask over ``size`` positions, the largest row sum over the
    mask's positions (0 for no rows).

    Each row's subset sums are built by doubling: appending one more entry
    appends its sum with every subset so far, so bit b of the index stands
    for ``row[b]``.
    """
    best = [0] * (1 << size)
    for row in rows:
        sums = [0]
        for x in row:
            sums += [s + x for s in sums]
        best = list(map(max, best, sums))
    return best


def bundle_value_table(
    valuation: Valuation, items: Sequence[int], scale: int
) -> list[int]:
    """``scale * v(S)`` for every subset S of ``items``, indexed by bit mask
    (bit b stands for ``items[b]``). ``scale`` must be a multiple of
    ``valuation.scale``, so every entry is an exact integer."""
    factor = scale // valuation.scale
    rows = [[row[j] * factor for j in items] for row in valuation.rows]
    table = max_subset_sums(rows, len(items))
    if valuation.cap is None:
        return table
    cap = valuation.cap * factor
    return [min(cap, t) for t in table]


def _demand_enumerate(
    valuation: Valuation,
    prices: tuple[Fraction, ...],
    allowed: tuple[int, ...],
) -> ItemSet:
    size = len(allowed)
    # One common integer grid for every value and price keeps the argmax in
    # exact integer arithmetic.
    scale = lcm(valuation.scale, common_scale(prices[j] for j in allowed))
    cost = max_subset_sums([scaled_ints((prices[j] for j in allowed), scale)], size)
    profit = list(map(sub, bundle_value_table(valuation, allowed, scale), cost))
    top = max(profit)
    mask = profit.index(top)
    if profit.count(top) > 1:
        mask = min(
            compress(range(1 << size), map(top.__eq__, profit)),
            key=lambda tied: (
                tied.bit_count(),
                [b for b in range(size) if tied >> b & 1],
            ),
        )
    return frozenset(allowed[b] for b in range(size) if mask >> b & 1)


def _demand_knapsack(
    valuation: Valuation,
    prices: tuple[Fraction, ...],
    allowed: tuple[int, ...],
) -> ItemSet:
    """Budget-additive demand beyond the enumeration cap.

    The table is indexed by value sum on the valuation's grid; each cell keeps
    the least cost that reaches exactly that value sum. Exact demand for
    budget-additive valuations is knapsack-hard, so this is deliberately
    pseudo-polynomial in the valuation's scaled values, whatever the prices;
    the cell cap guards against very fine value grids.

    A cost is the scaled price times ``digits`` plus tie-break digits: item
    position b adds ``unit - 2^(size-1-b)``. A bundle's digits stay below
    ``digits``, grow with its item count and, at equal counts, are least for
    the lexicographically smallest, so the best score (profit times
    ``digits`` less the bundle's digits) names the enumeration's bundle.
    """
    values = [valuation.rows[0][j] for j in allowed]
    total = sum(values)
    if total + 1 > KNAPSACK_CELL_CAP:
        raise CapabilityError(
            f"knapsack table of {total + 1} cells exceeds the cap "
            f"({KNAPSACK_CELL_CAP})"
        )
    size = len(allowed)
    unit = 1 << size
    digits = (size + 1) * unit
    price_scale = common_scale(prices[j] for j in allowed)
    costs = [
        digits * valuation.scale * p + unit - (1 << (size - 1 - b))
        for b, p in enumerate(scaled_ints((prices[j] for j in allowed), price_scale))
    ]

    # A cost above every reachable one marks a cell no bundle reaches.
    unreached = sum(costs) + 1
    best = [unreached] * (total + 1)
    best[0] = 0
    take: list[bytearray] = []
    for w, v in zip(costs, values):
        marks = bytearray(total + 1)
        for c in range(total, v - 1, -1):
            spend = best[c - v] + w
            if spend < best[c]:
                best[c] = spend
                marks[c] = 1
        take.append(marks)

    # Scores are profits times digits * valuation.scale * price_scale, less
    # the tie-break digits, so they stay integers.
    c = max(
        (c for c in range(total + 1) if best[c] != unreached),
        key=lambda c: digits * min(valuation.cap, c) * price_scale - best[c],
    )
    chosen: list[int] = []
    for idx in range(size - 1, -1, -1):
        if take[idx][c]:
            chosen.append(allowed[idx])
            c -= values[idx]
    return frozenset(chosen)


def supporting_prices(
    valuation: Valuation, items: Iterable[int]
) -> dict[int, Fraction]:
    """Per-item prices q with q(S) = v(S) and q(T) <= v(T) for every T inside
    S: the defining XOS property.

    They are the entries of a maximizing row of S (lowest row index wins),
    scaled down in proportion to sum to the cap when they sum past it.
    """
    bundle = _check_items(valuation.item_count, items)
    row = valuation.rows[valuation.maximizing_clause(bundle)]
    total = sum(row[j] for j in bundle)
    if valuation.cap is None or total <= valuation.cap:
        return {j: Fraction(row[j], valuation.scale) for j in bundle}
    return {
        j: Fraction(row[j] * valuation.cap, total * valuation.scale) for j in bundle
    }
