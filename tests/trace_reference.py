"""Reference analysis trace, kept as a test oracle.

``trace.build_trace`` reads the instance's facts off the ``OptimalSolution``,
worked out once: the supporting prices on one integer grid and each one's
leaf in a tree. It locates each distinct learned-price object once per level
and compares on integers. ``per_run_build_trace`` is the function as it was
before: everything per run, one lookup per item and level. Both must give
equal ``AnalysisTrace`` fields and raise alike.
"""

from __future__ import annotations

from fractions import Fraction

from auctionlab.errors import DomainError, InvariantViolationError
from auctionlab.mechanism import MechanismOutcome, price_update
from auctionlab.oracle import OptimalSolution
from auctionlab.price_tree import PriceTree
from auctionlab.rationals import ZERO, common_scale, scaled_ints
from auctionlab.trace import AnalysisTrace, IterationDiagnostics, LevelTrace


def per_run_build_trace(
    run: MechanismOutcome, optimal: OptimalSolution, tree: PriceTree
) -> AnalysisTrace:
    """``build_trace`` working out every fact per run: each item's leaf by
    ``PriceTree.leaf_of``, the grid of the star items' prices, and each
    learned price's node for every item; ``Fraction`` comparisons for the
    learned prices and the mean auction welfare."""
    if not run.iterations or run.params is None:
        raise DomainError(
            "the run carries no learning history (second-price branch?)"
        )
    params = run.params
    alpha = params.alpha
    ancestor = tree.ancestor
    m = len(optimal.supporting_prices)
    n = len(optimal.allocation.bundles)

    # Map each item to the group (1-based) of its optimal owner. The
    # optimum's allocation names each of its n bidders, and the marker n of
    # an unassigned item is in no group.
    group_of: dict[int, int] = {}
    for gi, group in enumerate(run.groups, start=1):
        for b in group:
            if not 0 <= b < n:
                raise DomainError(f"group {gi}: bidder {b} is not an oracle index")
            group_of[b] = gi
    owner_group = [group_of.get(optimal.assignment[j]) for j in range(m)]

    q = optimal.supporting_prices
    located = {j: tree.leaf_of(q[j]) for j in range(m) if owner_group[j] is not None}
    leaf = {j: k for j, k in located.items() if k is not None}
    star = frozenset(leaf)
    q_star = tuple(q[j] if j in star else ZERO for j in range(m))
    grid = common_scale(q_star)
    mass = scaled_ints(q_star, grid)
    wnum, wden = optimal.welfare.as_integer_ratio()

    # Learned price vectors, extended past a stop coin for diagnostics.
    prices = list(run.learned_prices)
    if len(prices) == len(run.iterations):
        last = run.iterations[-1]
        prices.append(price_update(last.allocations, last.vectors))

    levels: list[LevelTrace] = []
    level_mass: list[int] = []
    refined = star
    for level in range(1, len(prices) + 1):
        vector = prices[level - 1]
        at = [tree.position(price, level) for price in vector]
        if None in at:
            raise InvariantViolationError(
                f"learned price {vector[at.index(None)]} is not a level-{level} price"
            )
        refined = frozenset(j for j in refined if ancestor(leaf[j], level) == at[j])
        qv = tuple(
            q_star[j] if j in star and owner_group[j] >= level else ZERO
            for j in range(m)
        )
        correct = frozenset(j for j in refined if owner_group[j] >= level)
        for j in correct:
            if not vector[j] <= qv[j]:
                raise InvariantViolationError(
                    f"correctly priced item {j} has learned price {vector[j]} "
                    f"above supporting price {qv[j]}"
                )
        if levels and not correct <= levels[-1].correct:
            raise InvariantViolationError("correct sets are not nested")
        level_mass.append(sum(mass[j] for j in correct))
        levels.append(
            LevelTrace(
                level=level,
                q_vector=qv,
                refinement_correct=refined,
                correct=correct,
                correct_mass=Fraction(level_mass[-1], grid),
            )
        )

    iterations: list[IterationDiagnostics] = []
    for record in run.iterations:
        i = record.level
        this, nxt = levels[i - 1], levels[i]

        partition: list[set[int]] = [set() for _ in range(alpha)]
        for j in this.correct:
            partition[ancestor(leaf[j], i + 1) % alpha].add(j)
        if frozenset().union(*partition) != this.correct or sum(
            len(p) for p in partition
        ) != len(this.correct):
            raise InvariantViolationError("demand sets do not partition")

        sold = [
            frozenset(partition[k]) & alloc.allocated_items
            for k, alloc in enumerate(record.allocations)
        ]

        # Both masses are of this level's q_vector: q on the items of groups
        # i and later, which every sold item, being correct at level i, is.
        sold_mass = sum(mass[j] for items in sold for j in items)
        kept_mass = sum(
            mass[j] for j in nxt.refinement_correct if owner_group[j] >= i
        )
        # kept >= sold - OPT / (10 beta), both sides times 10 beta * wden * grid.
        overestimate_ok = (sold_mass - kept_mass) * 10 * params.beta * wden <= (
            wnum * grid
        )
        if not overestimate_ok:
            raise InvariantViolationError(
                f"iteration {i} overestimate accounting failed: kept "
                f"{Fraction(kept_mass, grid)} < sold {Fraction(sold_mass, grid)} "
                f"- {optimal.welfare / (10 * params.beta)}"
            )

        change = level_mass[i] - level_mass[i - 1]
        learnable = change * 3 * params.beta * wden >= -wnum * grid
        mean_welfare = sum(record.welfares, ZERO) / alpha
        allocatable = mean_welfare >= optimal.welfare / (
            200 * alpha * params.beta**2
        )
        iterations.append(
            IterationDiagnostics(
                level=i,
                demand_partition=tuple(frozenset(p) for p in partition),
                sold_in_partition=tuple(sold),
                auction_welfares=record.welfares,
                learnable_change=Fraction(change, grid),
                learnable_realized=learnable,
                allocatable_realized=allocatable,
                overestimate_ok=overestimate_ok,
            )
        )

    return AnalysisTrace(
        star_items=star,
        q_star=q_star,
        opt_welfare=optimal.welfare,
        levels=tuple(levels),
        iterations=tuple(iterations),
    )
