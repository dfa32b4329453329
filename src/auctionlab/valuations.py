"""Valuation representations and the three query primitives.

Two concrete valuation families are supported:

* ``XosValuation`` -- an explicit list of additive clauses; the value of a
  bundle is the maximum over clauses of the clause's item-value sum. This is
  the universal representation the mechanism reasons about.
* ``BudgetAdditiveValuation`` -- per-item values capped by a budget:
  ``min(budget, sum of item values)``. Kept in this special form; queries are
  answered directly rather than via an (exponential) clause expansion.

Queries:

* ``value_query(v, S)`` -- the exact value of a bundle.
* ``demand_query(v, p)`` -- a profit-maximizing bundle under item prices,
  with a deterministic tie-break (fewest items, then lexicographically
  smallest index sequence).
* ``supporting_prices(v, S)`` -- per-item prices from a maximizing clause of
  S; they sum to ``value_query(v, S)`` and under-estimate every sub-bundle.

All arithmetic is exact. Each valuation works out its integer grid once:
``scale`` is the common denominator of every number it holds, and ``rows``
(XOS) or ``row`` and ``cap`` (budget-additive) are those numbers times
``scale``. Bundle values are integer sums on that grid, turned into one
``Fraction`` at the end. The demand backend enumerates the 2^m bundles on a
grid shared with the prices, so comparisons are pure integer comparisons.
Beyond ``ENUMERATION_CAP`` items only budget-additive valuations are served,
by a pseudo-polynomial knapsack indexed by value sum on the valuation's grid.
``bundle_value_table`` is the one place a valuation becomes an integer table
of bundle values; the oracle builds its tables with it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import CapabilityError, InstanceShapeError
from .rationals import RationalLike, as_rational, common_scale, scaled_ints

ItemSet = frozenset[int]

# Demand queries over more items than this are not enumerated.
ENUMERATION_CAP = 20
# The budget-additive knapsack refuses tables with more cells than this.
KNAPSACK_CELL_CAP = 5_000_000


@dataclass(frozen=True)
class AdditiveClause:
    """One additive clause: a nonnegative value per item."""

    item_values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        for v in self.item_values:
            if v < 0:
                raise InstanceShapeError(f"negative clause entry {v}")


@dataclass(frozen=True)
class XosValuation:
    """Pointwise maximum of finitely many additive clauses.

    Monotonicity and a zero value for the empty bundle are forced by the
    representation (nonnegative entries, empty sums). Query cost is linear in
    the clause count, which is unbounded by construction.
    """

    clauses: tuple[AdditiveClause, ...]

    def __post_init__(self) -> None:
        if not self.clauses:
            raise InstanceShapeError("an XOS valuation needs at least one clause")
        m = len(self.clauses[0].item_values)
        for c in self.clauses:
            if len(c.item_values) != m:
                raise InstanceShapeError("clauses disagree on item count")

    @property
    def item_count(self) -> int:
        return len(self.clauses[0].item_values)

    @cached_property
    def scale(self) -> int:
        """Common denominator of every clause entry."""
        return common_scale(v for c in self.clauses for v in c.item_values)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Each clause's entries times ``scale``."""
        return tuple(
            tuple(scaled_ints(c.item_values, self.scale)) for c in self.clauses
        )

    def value(self, items: Iterable[int]) -> Fraction:
        bundle = tuple(items)
        total = max(sum(map(row.__getitem__, bundle)) for row in self.rows)
        return Fraction(total, self.scale)

    def maximizing_clause(self, items: Iterable[int]) -> int:
        """Index of a clause attaining the bundle's value (lowest index wins)."""
        bundle = tuple(items)
        totals = [sum(map(row.__getitem__, bundle)) for row in self.rows]
        return totals.index(max(totals))


@dataclass(frozen=True)
class BudgetAdditiveValuation:
    """Additive values capped by a budget: v(S) = min(budget, sum over S)."""

    item_values: tuple[Fraction, ...]
    budget: Fraction

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise InstanceShapeError(f"negative budget {self.budget}")
        for v in self.item_values:
            if v < 0:
                raise InstanceShapeError(f"negative item value {v}")

    @property
    def item_count(self) -> int:
        return len(self.item_values)

    @cached_property
    def scale(self) -> int:
        """Common denominator of the item values and the budget."""
        return common_scale([*self.item_values, self.budget])

    @cached_property
    def row(self) -> tuple[int, ...]:
        """The item values times ``scale``."""
        return tuple(scaled_ints(self.item_values, self.scale))

    @cached_property
    def cap(self) -> int:
        """The budget times ``scale``."""
        return self.budget.numerator * self.scale // self.budget.denominator

    def value(self, items: Iterable[int]) -> Fraction:
        total = sum(map(self.row.__getitem__, items))
        return Fraction(min(self.cap, total), self.scale)


Valuation = Union[XosValuation, BudgetAdditiveValuation]


def xos(*clauses: Iterable[RationalLike]) -> XosValuation:
    """Build an XOS valuation from rows of ints / decimal strings / Fractions."""
    return XosValuation(
        tuple(AdditiveClause(tuple(as_rational(v) for v in row)) for row in clauses)
    )


def additive(values: Iterable[RationalLike]) -> XosValuation:
    """Single-clause XOS valuation (a purely additive bidder)."""
    return xos(values)


def budget_additive(
    values: Iterable[RationalLike], budget: RationalLike
) -> BudgetAdditiveValuation:
    return BudgetAdditiveValuation(
        tuple(as_rational(v) for v in values), as_rational(budget)
    )


def _check_items(m: int, items: Iterable[int]) -> ItemSet:
    bundle = frozenset(items)
    for j in bundle:
        if not 0 <= j < m:
            raise InstanceShapeError(f"item {j} outside 0..{m - 1}")
    return bundle


def value_query(valuation: Valuation, items: Iterable[int]) -> Fraction:
    """v(S) for a bundle S, exactly."""
    bundle = _check_items(valuation.item_count, items)
    return valuation.value(bundle)


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
    smallest sorted index sequence, so repeated queries are replayable. The
    empty bundle (profit 0) is always available, hence the result never has
    negative profit. Past ``ENUMERATION_CAP`` allowed items the answer is some
    profit-maximizing bundle, with the knapsack's own tie-break.
    """
    m = valuation.item_count
    _check_prices(m, prices)
    if allowed is None:
        allowed_items: tuple[int, ...] = tuple(range(m))
    else:
        allowed_items = tuple(sorted(_check_items(m, allowed)))

    if len(allowed_items) <= ENUMERATION_CAP:
        return _demand_enumerate(valuation, prices, allowed_items)
    if isinstance(valuation, BudgetAdditiveValuation):
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
    if isinstance(valuation, XosValuation):
        rows = [[row[j] * factor for j in items] for row in valuation.rows]
        return max_subset_sums(rows, len(items))
    row = [valuation.row[j] * factor for j in items]
    cap = valuation.cap * factor
    return [min(cap, t) for t in max_subset_sums([row], len(items))]


def _demand_enumerate(
    valuation: Valuation,
    prices: tuple[Fraction, ...],
    allowed: tuple[int, ...],
) -> ItemSet:
    size = len(allowed)
    # One common integer grid for every value and price keeps the inner loop
    # in exact integer arithmetic.
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


def _demand_knapsack(
    valuation: BudgetAdditiveValuation,
    prices: tuple[Fraction, ...],
    allowed: tuple[int, ...],
) -> ItemSet:
    """Budget-additive demand beyond the enumeration cap.

    The table is indexed by value sum on the valuation's grid; each cell keeps
    the least spend that reaches exactly that value sum. The profit of a cell
    is then min(cap, value) - spend, compared exactly over all cells. Exact
    demand for budget-additive valuations is knapsack-hard, so this is
    deliberately pseudo-polynomial in the valuation's scaled values, whatever
    the prices; the cell cap guards against very fine value grids.

    The returned set is a profit maximizer; its tie-break is determined by the
    DP reconstruction (prefer the smaller value sum, then leaving an item
    out), which need not coincide with the enumeration backend's
    cardinality-then-lex rule.
    """
    values = [valuation.row[j] for j in allowed]
    total = sum(values)
    if total + 1 > KNAPSACK_CELL_CAP:
        raise CapabilityError(
            f"knapsack table of {total + 1} cells exceeds the cap "
            f"({KNAPSACK_CELL_CAP})"
        )
    price_scale = common_scale(prices[j] for j in allowed)
    weights = scaled_ints((prices[j] for j in allowed), price_scale)

    # A spend above every reachable one marks a cell no bundle reaches.
    unreached = sum(weights) + 1
    best = [unreached] * (total + 1)
    best[0] = 0
    take: list[bytearray] = []
    for w, v in zip(weights, values):
        marks = bytearray(total + 1)
        for c in range(total, v - 1, -1):
            spend = best[c - v] + w
            if spend < best[c]:
                best[c] = spend
                marks[c] = 1
        take.append(marks)

    # Profits times valuation.scale * price_scale, so they stay integers.
    best_profit = 0
    best_cell = 0
    for c in range(total + 1):
        if best[c] == unreached:
            continue
        profit = min(valuation.cap, c) * price_scale - best[c] * valuation.scale
        if profit > best_profit:
            best_profit, best_cell = profit, c

    chosen: list[int] = []
    c = best_cell
    for idx in range(len(allowed) - 1, -1, -1):
        if take[idx][c]:
            chosen.append(allowed[idx])
            c -= values[idx]
    return frozenset(chosen)


def supporting_prices(
    valuation: XosValuation, items: Iterable[int]
) -> dict[int, Fraction]:
    """Per-item prices of a maximizing clause of S (lowest clause index wins).

    They satisfy sum over S = v(S) and, for every T inside S,
    sum over T <= v(T): the defining XOS property.
    """
    if not isinstance(valuation, XosValuation):
        raise CapabilityError(
            "supporting prices need an explicit clause list; "
            "budget-additive valuations do not expose one"
        )
    bundle = _check_items(valuation.item_count, items)
    clause = valuation.clauses[valuation.maximizing_clause(bundle)]
    return {j: clause.item_values[j] for j in bundle}
