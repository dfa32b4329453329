"""Reference second-price auction, greedy statistic, price range and first
prices, kept as test oracles.

``auction.second_price_grand_bundle`` ranks the value-query answers on
integers, ``auction.greedy_marginal_value`` keeps running integer sums, and
``mechanism.final_mechanism`` works out the price range [W/m^2, 8W] on the
statistic's integer numerator and denominator, looks up its first prices by
integer ``Bounds`` and reads its value-query counts off the run. The
functions here are those steps as they were on ``Fraction``s: ``max`` and
``index`` over the answers, whole bundles re-summed, the range by
``Fraction`` arithmetic, first prices keyed by the range's ends, and each
value query tallied as it is asked. The integer path must give exactly their
winners, payments, allocations, statistics, value-query counts, ``Params``
and first vectors. ``reference_learning_mechanism`` is the learning loop as
it was before a beta = 1 run stopped without flipping its certain stop coin:
every iteration flips it. ``valuations`` draws the bidders they are compared
on.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from hypothesis import strategies as st

from auctionlab.auction import Allocation, fixed_price_auction
from auctionlab.mechanism import (
    LEARNING_COMPLETED,
    LEARNING_STOPPED,
    SECOND_PRICE,
    IterationRecord,
    MechanismOutcome,
    partition_bidders,
    price_learning_mechanism,
    price_update,
)
from auctionlab.oracle import welfare
from auctionlab.price_tree import (
    Params,
    build_modified_tree,
    canonical_vectors,
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


def tally(counts, bidder_id) -> None:
    """Count one query asked of ``bidder_id`` into ``counts``, if given."""
    if counts is not None:
        counts[bidder_id] = counts.get(bidder_id, 0) + 1


def reference_second_price(bidders, items, value_queries=None) -> Allocation:
    """The grand-bundle auction on ``Fraction`` answers: one value query per
    bidder, tallied into ``value_queries`` as it is asked; the first largest
    answer wins and pays the largest of the others, or 0 when alone."""
    grand = frozenset(items)
    values = []
    for bidder_id, valuation in bidders:
        values.append(value_query(valuation, grand))
        tally(value_queries, bidder_id)
    winner_pos = values.index(max(values))
    price = max(values[:winner_pos] + values[winner_pos + 1 :], default=Fraction(0))
    winner_id = bidders[winner_pos][0]
    return Allocation({winner_id: grand}, {winner_id: price})


def reference_greedy(bidders, items, value_queries=None) -> Allocation:
    """The greedy allocation, re-summing whole bundles in ``Fraction``: the
    reference whose welfare the integer running-sum statistic must equal.
    Each value query is tallied into ``value_queries`` as it is asked."""
    bundles = {bidder_id: set() for bidder_id, _ in bidders}
    current = {bidder_id: Fraction(0) for bidder_id, _ in bidders}
    for j in sorted(set(items)):
        best_gain = Fraction(0)
        best_bidder = None
        for bidder_id, valuation in bidders:
            gain = value_query(valuation, bundles[bidder_id] | {j}) - current[bidder_id]
            tally(value_queries, bidder_id)
            if gain > best_gain:
                best_gain, best_bidder = gain, bidder_id
        if best_bidder is not None:
            bundles[best_bidder].add(j)
            current[best_bidder] += best_gain
    return Allocation(
        {b: frozenset(s) for b, s in bundles.items()},
        {b: Fraction(0) for b in bundles},
    )


def reference_range(stat_welfare: Fraction, m: int) -> tuple[Fraction, Fraction]:
    """[W/m^2, 8W] by ``Fraction`` arithmetic; [1, 1] for a zero statistic."""
    if stat_welfare > 0:
        return stat_welfare / (m * m), 8 * stat_welfare
    return Fraction(1), Fraction(1)


def reference_first_prices(psi_min: Fraction, psi_max: Fraction, parity: str, m: int):
    """A range's ``Params``, root vector, and iteration 1's vectors, scaled
    from a unit tree built afresh for the ``Fraction`` ratio of its ends."""
    check_range(psi_min, psi_max)
    ratio = psi_max / psi_min
    unit = build_modified_tree(solve_parameters(1, ratio), parity)
    alpha, beta, gamma = unit.params.alpha, unit.params.beta, unit.params.gamma
    params = Params(alpha, beta, gamma, psi_min, psi_max)
    children = [psi_min * price for price in unit.prices(2)]
    return (
        params,
        (psi_min * unit.prices(1)[0],) * m,
        tuple((p,) * m for p in children),
    )


def reference_learning_mechanism(
    bidders, m, psi_min, psi_max, tape
) -> MechanismOutcome:
    """The learning mechanism with a stop coin flipped in every iteration,
    at beta = 1 too, where ``random() < 1.0`` always holds. Its first prices
    are ``reference_first_prices``, its tree is built afresh, and every
    auction runs, an empty group's too."""
    parity = tape.tree_parity()
    first = reference_first_prices(Fraction(psi_min), Fraction(psi_max), parity, m)
    params, prices, vectors = first
    tree = build_modified_tree(params, parity)
    by_id = dict(bidders)
    groups = partition_bidders([b for b, _ in bidders], params.beta, tape)
    learned, records, held = [prices], [], []
    outcome = dict(branch=LEARNING_COMPLETED, stop_iteration=None, j_star=None)
    for i in range(1, params.beta + 1):
        if i > 1:
            vectors = tuple(canonical_vectors(tree, prices, i))
        halves = tuple(tuple(p / 2 for p in v) for v in vectors)
        group = [(b, by_id[b]) for b in groups[i - 1]]
        allocations = tuple(fixed_price_auction(group, range(m), h) for h in halves)
        welfares = tuple(welfare(a, by_id) for a in allocations)
        records.append(IterationRecord(i, vectors, allocations, welfares))
        held += allocations
        stop = tape.stop_coin(params.beta)
        pick = tape.pick_auction(params.alpha)
        if stop:
            outcome = dict(branch=LEARNING_STOPPED, stop_iteration=i, j_star=pick + 1)
            selected, selected_welfare = allocations[pick], welfares[pick]
            break
        prices = price_update(allocations, vectors)
        learned.append(prices)
    else:
        final_group = [(b, by_id[b]) for b in groups[params.beta]]
        halves = tuple(p / 2 for p in prices)
        selected = fixed_price_auction(final_group, range(m), halves)
        selected_welfare = welfare(selected, by_id)
        held.append(selected)
    demand = {}
    for allocation in held:
        for b in allocation.bundles:
            tally(demand, b)
    return MechanismOutcome(
        allocation=selected,
        welfare=selected_welfare,
        value_queries={},
        demand_queries=demand,
        learned_prices=tuple(learned),
        params=params,
        parity=parity,
        groups=tuple(map(tuple, groups)),
        iterations=tuple(records),
        **outcome,
    )


def reference_final_mechanism(
    bidders, m, tape, learn=price_learning_mechanism
) -> MechanismOutcome:
    """The top-level mechanism from the references: the ``Fraction``
    second-price auction valued by ``oracle.welfare``, or the ``Fraction``
    greedy statistic and range handed to ``learn`` and the statistic's
    fields put into its outcome. The value-query counts are the references'
    tallies."""
    value_queries = {}
    if tape.second_price_branch():
        allocation = reference_second_price(bidders, range(m), value_queries)
        return MechanismOutcome(
            allocation=allocation,
            welfare=welfare(allocation, dict(bidders)),
            branch=SECOND_PRICE,
            value_queries=value_queries,
        )
    flags = tape.sample_statistics_group(len(bidders))
    stat = [b for b, f in zip(bidders, flags) if f]
    mech = [b for b, f in zip(bidders, flags) if not f]
    greedy = reference_greedy(stat, range(m), value_queries)
    stat_welfare = welfare(greedy, dict(stat))
    inner = learn(mech, m, *reference_range(stat_welfare, m), tape)
    return replace(
        inner,
        value_queries=value_queries,
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
