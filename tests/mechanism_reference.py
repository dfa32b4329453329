"""Reference second-price auction, price range and first prices, kept as test
oracles.

``auction.second_price_grand_bundle`` ranks the value-query answers on
integers, and ``mechanism.final_mechanism`` works out the price range
[W/m^2, 8W] on the statistic's integer numerator and denominator and looks up
its first prices by integer ``Bounds``. The functions here are those steps as
they were on ``Fraction``s: ``max`` and ``index`` over the answers, the range
by ``Fraction`` arithmetic, and first prices keyed by the range's ends. The
integer path must give exactly their winners, payments, allocations,
value-query counts, ``Params`` and first vectors. ``valuations`` draws the
bidders they are compared on.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from hypothesis import strategies as st

from auctionlab.auction import Allocation, QueryLog, greedy_marginal_value
from auctionlab.mechanism import (
    SECOND_PRICE,
    MechanismOutcome,
    price_learning_mechanism,
)
from auctionlab.oracle import welfare
from auctionlab.price_tree import (
    Params,
    build_bins,
    build_modified_tree,
    check_range,
    solve_parameters,
)
from auctionlab.valuations import Valuation, on_grid, value_query

# Grids the entries are drawn on; 300 mixes the others once reduced.
GRIDS = (1, 2, 3, 100, 300)
FAMILIES = ("xos", "additive", "budget-additive")


def bounds_of(psi_min, psi_max) -> tuple[int, int, int, int]:
    """The ``Bounds`` of [psi_min, psi_max]."""
    lo, hi = Fraction(psi_min), Fraction(psi_max)
    return lo.numerator, lo.denominator, hi.numerator, hi.denominator


def reference_second_price(bidders, items, *, query_log=None) -> Allocation:
    """The grand-bundle auction on ``Fraction`` answers: one value query per
    bidder, tallied as it is asked; the first largest answer wins and pays the
    largest of the others, or 0 when alone."""
    grand = frozenset(items)
    values = []
    for bidder_id, valuation in bidders:
        values.append(value_query(valuation, grand))
        if query_log is not None:
            query_log.value[bidder_id] += 1
    winner_pos = values.index(max(values))
    price = max(values[:winner_pos] + values[winner_pos + 1 :], default=Fraction(0))
    winner_id = bidders[winner_pos][0]
    return Allocation({winner_id: grand}, {winner_id: price})


def reference_range(stat_welfare: Fraction, m: int) -> tuple[Fraction, Fraction]:
    """[W/m^2, 8W] by ``Fraction`` arithmetic; [1, 1] for a zero statistic."""
    if stat_welfare > 0:
        return stat_welfare / (m * m), 8 * stat_welfare
    return Fraction(1), Fraction(1)


def reference_first_prices(psi_min: Fraction, psi_max: Fraction, parity: str, m: int):
    """A range's ``Params``, root vector, and iteration 1's vectors and their
    halves, scaled from a unit tree built afresh for the ``Fraction`` ratio
    of its ends."""
    check_range(psi_min, psi_max)
    ratio = psi_max / psi_min
    unit = build_modified_tree(build_bins(solve_parameters(1, ratio)), parity)
    alpha, beta, gamma = unit.params.alpha, unit.params.beta, unit.params.gamma
    params = Params(alpha, beta, gamma, psi_min, psi_max)
    children = [psi_min * price for price in unit.prices(2)]
    return (
        params,
        (psi_min * unit.prices(1)[0],) * m,
        tuple((p,) * m for p in children),
        tuple((p / 2,) * m for p in children),
    )


def reference_final_mechanism(bidders, m, tape) -> MechanismOutcome:
    """The top-level mechanism from the references: the ``Fraction``
    second-price auction valued by ``oracle.welfare``, or the ``Fraction``
    range handed to ``price_learning_mechanism`` and the statistic's fields
    put into its outcome."""
    if tape.second_price_branch():
        log = QueryLog()
        allocation = reference_second_price(bidders, range(m), query_log=log)
        return MechanismOutcome(
            allocation=allocation,
            welfare=welfare(allocation, dict(bidders)),
            branch=SECOND_PRICE,
            value_queries=dict(log.value),
        )
    flags = tape.sample_statistics_group(len(bidders))
    stat = [b for b, f in zip(bidders, flags) if f]
    mech = [b for b, f in zip(bidders, flags) if not f]
    log = QueryLog()
    stat_welfare = greedy_marginal_value(stat, range(m), query_log=log)
    inner = price_learning_mechanism(mech, m, *reference_range(stat_welfare, m), tape)
    return replace(
        inner,
        value_queries=dict(log.value),
        statistics_group=tuple(b for b, _ in stat),
        statistics_welfare=stat_welfare,
    )


@st.composite
def valuations(draw, m: int, family: str, grand=None) -> Valuation:
    """A valuation of ``family`` over ``m`` items with small entries, many of
    them zero, on a grid from ``GRIDS``: 1 to 3 rows for XOS, a cap below or
    above the row sum for budget-additive. With ``grand`` (an integer on the
    grid 300) its grand value is ``grand / 300``, whatever the family."""
    if grand is None:
        grid = draw(st.sampled_from(GRIDS))
        entries = st.lists(st.integers(0, 12), min_size=m, max_size=m)
        row = draw(entries)
        if family == "xos":
            return on_grid(grid, [row] + draw(st.lists(entries, max_size=2)))
        if family == "additive":
            return on_grid(grid, [row])
        return on_grid(grid, [row], draw(st.integers(0, sum(row) + 3)))
    # A row summing to exactly ``grand``: the gaps between sorted cuts.
    cuts = sorted(draw(st.lists(st.integers(0, grand), min_size=m - 1, max_size=m - 1)))
    row = [b - a for a, b in zip([0] + cuts, cuts + [grand])]
    if family == "xos":
        # Rows that sum to at most ``grand``: each entry at most the row's.
        count = draw(st.integers(0, 2))
        lower = [[draw(st.integers(0, x)) for x in row] for _ in range(count)]
        return on_grid(300, lower + [row] if draw(st.booleans()) else [row] + lower)
    if family == "additive":
        return on_grid(300, [row])
    return on_grid(300, [[x + draw(st.integers(0, 5)) for x in row]], grand)
