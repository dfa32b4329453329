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

All arithmetic is exact. The demand backend enumerates the 2^m bundles after
scaling values and prices to a common integer grid, so comparisons are pure
integer comparisons; beyond the enumeration cap only budget-additive
valuations are served (by a pseudo-polynomial knapsack over integer-scaled
prices). ``bundle_value_table`` is the one place a valuation becomes such an
integer table of bundle values; the oracle builds its tables with it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import CapabilityError, InstanceShapeError
from .rationals import RationalLike, as_rational, common_scale, scaled_ints

ItemSet = frozenset[int]


@dataclass(frozen=True)
class AdditiveClause:
    """One additive clause: a nonnegative value per item."""

    item_values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        for v in self.item_values:
            if v < 0:
                raise InstanceShapeError(f"negative clause entry {v}")

    def total(self, items: Iterable[int]) -> Fraction:
        return sum((self.item_values[j] for j in items), Fraction(0))


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

    def value(self, items: Iterable[int]) -> Fraction:
        bundle = tuple(items)
        return max(c.total(bundle) for c in self.clauses)

    def maximizing_clause(self, items: Iterable[int]) -> int:
        """Index of a clause attaining the bundle's value (lowest index wins)."""
        bundle = tuple(items)
        best_idx = 0
        best = self.clauses[0].total(bundle)
        for idx, c in enumerate(self.clauses[1:], start=1):
            total = c.total(bundle)
            if total > best:
                best, best_idx = total, idx
        return best_idx


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

    def value(self, items: Iterable[int]) -> Fraction:
        total = sum((self.item_values[j] for j in items), Fraction(0))
        return min(self.budget, total)


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


@dataclass(frozen=True)
class DemandConfig:
    """Knobs for the demand-query backends.

    ``enumeration_cap`` bounds the bundle count for exhaustive search (in
    items). Beyond it, budget-additive valuations fall back to a knapsack
    dynamic program over integer-scaled prices: ``price_scale=None`` scales by
    the exact common denominator (exact answers at desk scale), a positive int
    rounds prices down to that grid. ``knapsack_cell_cap`` bounds the DP table.
    """

    enumeration_cap: int = 20
    price_scale: Optional[int] = None
    knapsack_cell_cap: int = 5_000_000


DEFAULT_DEMAND_CONFIG = DemandConfig()


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
    config: DemandConfig = DEFAULT_DEMAND_CONFIG,
) -> ItemSet:
    """A bundle maximizing v(S) - p(S) over subsets of ``allowed``.

    Ties go to the bundle with fewer items, then to the lexicographically
    smallest sorted index sequence, so repeated queries are replayable. The
    empty bundle (profit 0) is always available, hence the result never has
    negative profit.
    """
    m = valuation.item_count
    _check_prices(m, prices)
    if allowed is None:
        allowed_items: tuple[int, ...] = tuple(range(m))
    else:
        allowed_items = tuple(sorted(_check_items(m, allowed)))

    if len(allowed_items) <= config.enumeration_cap:
        return _demand_enumerate(valuation, prices, allowed_items)
    if isinstance(valuation, BudgetAdditiveValuation):
        return _demand_knapsack(valuation, prices, allowed_items, config)
    raise CapabilityError(
        f"{len(allowed_items)} items exceed the enumeration cap "
        f"({config.enumeration_cap}) and no specialized backend applies"
    )


def max_subset_sums(rows: Sequence[Sequence[int]], size: int) -> list[int]:
    """For every bit mask over ``size`` positions, the largest row sum over the
    mask's positions (0 for no rows).

    One fused pass per row: the running subset sum of the row and the running
    maximum over rows share the loop, so no per-row table outlives it.
    """
    nmask = 1 << size
    best = [0] * nmask
    for row in rows:
        acc = [0] * nmask
        for mask in range(1, nmask):
            low = mask & -mask
            total = acc[mask ^ low] + row[low.bit_length() - 1]
            acc[mask] = total
            if total > best[mask]:
                best[mask] = total
    return best


def valuation_scale(valuation: Valuation) -> int:
    """Common denominator of every number the valuation holds."""
    if isinstance(valuation, XosValuation):
        return common_scale(v for c in valuation.clauses for v in c.item_values)
    return common_scale([*valuation.item_values, valuation.budget])


def bundle_value_table(
    valuation: Valuation, items: Sequence[int], scale: int
) -> list[int]:
    """``scale * v(S)`` for every subset S of ``items``, indexed by bit mask
    (bit b stands for ``items[b]``). ``scale`` must be a multiple of
    ``valuation_scale(valuation)``, so every entry is an exact integer."""
    if isinstance(valuation, XosValuation):
        rows = [
            scaled_ints((c.item_values[j] for j in items), scale)
            for c in valuation.clauses
        ]
        return max_subset_sums(rows, len(items))
    row = scaled_ints((valuation.item_values[j] for j in items), scale)
    (cap,) = scaled_ints([valuation.budget], scale)
    return [min(cap, t) for t in max_subset_sums([row], len(items))]


def _demand_enumerate(
    valuation: Valuation,
    prices: tuple[Fraction, ...],
    allowed: tuple[int, ...],
) -> ItemSet:
    size = len(allowed)
    nmask = 1 << size

    # One common integer grid for every value and price keeps the inner loop
    # in exact integer arithmetic.
    scale = lcm(valuation_scale(valuation), common_scale(prices[j] for j in allowed))
    cost = max_subset_sums([scaled_ints((prices[j] for j in allowed), scale)], size)
    best_value = bundle_value_table(valuation, allowed, scale)

    def index_tuple(mask: int) -> tuple[int, ...]:
        return tuple(allowed[b] for b in range(size) if mask >> b & 1)

    best_mask = 0
    best_profit = 0
    best_pop = 0
    for mask in range(1, nmask):
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
    config: DemandConfig,
) -> ItemSet:
    """Budget-additive demand beyond the enumeration cap.

    The table is indexed by total scaled price; each cell keeps the maximum
    obtainable value sum at exactly that spend. The profit of a cell is then
    min(budget, value) - spend, compared exactly over all cells. Exact demand
    for budget-additive valuations is knapsack-hard, so this is deliberately
    pseudo-polynomial; the cell cap guards against degenerate price grids.

    The returned set is a profit maximizer; its tie-break is determined by the
    DP reconstruction (prefer leaving an item out), which need not coincide
    with the enumeration backend's cardinality-then-lex rule.
    """
    if config.price_scale is None:
        scale = common_scale(prices[j] for j in allowed)
        weights = scaled_ints((prices[j] for j in allowed), scale)
    else:
        scale = config.price_scale
        weights = [int(prices[j] * scale) for j in allowed]  # floor

    total = sum(weights)
    if total + 1 > config.knapsack_cell_cap:
        raise CapabilityError(
            f"knapsack table of {total + 1} cells exceeds the cap "
            f"({config.knapsack_cell_cap})"
        )

    vscale = common_scale(
        [valuation.budget] + [valuation.item_values[j] for j in allowed]
    )
    values = [int(valuation.item_values[j] * vscale) for j in allowed]
    budget_scaled = int(valuation.budget * vscale)

    NEG = -1
    best = [NEG] * (total + 1)
    best[0] = 0
    take: list[bytearray] = []
    for idx, (w, v) in enumerate(zip(weights, values)):
        marks = bytearray(total + 1)
        for c in range(total, w - 1, -1):
            prev = best[c - w]
            if prev != NEG and prev + v > best[c]:
                best[c] = prev + v
                marks[c] = 1
        take.append(marks)

    best_profit = Fraction(0)
    best_cell = 0
    for c in range(total + 1):
        if best[c] == NEG:
            continue
        profit = Fraction(min(budget_scaled, best[c]), vscale) - Fraction(c, scale)
        if profit > best_profit or (profit == best_profit and c < best_cell):
            best_profit, best_cell = profit, c

    chosen: list[int] = []
    c = best_cell
    for idx in range(len(allowed) - 1, -1, -1):
        if take[idx][c]:
            chosen.append(allowed[idx])
            c -= weights[idx]
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
