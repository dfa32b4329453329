"""Diagnostic reconstruction of the welfare analysis, run against the oracle.

Given a learning-mechanism run, the oracle's optimal allocation O with
supporting prices q, and the modified tree the run used, this module chases
the analysis definitions directly:

* *star items*: items allocated by O whose supporting price lands in one of
  the tree's retained bins (the wrong-parity half is invisible to this run);
  ``q_star`` zeroes q outside them.
* ``q_vector(i)``: ``q_star`` with items owned by the groups already consumed
  (groups 1..i-1) zeroed out.
* *refinement-correct through i*: star items whose ``q_star`` price sits in
  the same level-k node as the learned price vector's k-th coordinate for
  every k <= i. The *correctly priced* set C(i) additionally drops items
  whose ``q_vector(i)`` price is zero, so every member satisfies
  learned price <= supporting price.
* the demand partition D(i)_j: correctly priced items split by which child of
  their level-i node holds their supporting price.

Two kinds of diagnostics are produced. The *overestimate accounting* bounds
how much correctly-priced mass the alpha auctions of one iteration can push
past its true price; evaluated against the refinement-correct set *before*
group removal it holds deterministically for every run (group removal is a
separate, in-expectation effect), so it is asserted. The
*learnable-or-allocatable* dichotomy is a statement about expectations, so
it is estimated over many seeds and reported with confidence intervals,
never asserted.

For a run that stopped mid-way, the price vector the stopped iteration would
have produced is reconstructed from its recorded auctions so that the
iteration's diagnostics still exist.

The price tree is a row of leaf cells, and a node is a block of them. The
instance's facts are worked out once, on the ``OptimalSolution``: its
supporting prices on one integer grid and each one's leaf in a tree. A node
of a supporting price is its leaf's ancestor (``PriceTree.ancestor``), and a
run locates each distinct learned-price object once per level by its node's
place (``PriceTree.position``), so membership compares places. Prices and
welfares are compared as integers, with one ``Fraction`` per reported value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, InvariantViolationError
from .mechanism import MechanismOutcome, price_update
from .oracle import OptimalSolution
from .price_tree import PriceTree
from .rationals import ZERO, common_scale, scaled_ints
from .valuations import ItemSet


@dataclass(frozen=True)
class LevelTrace:
    """Per-level analysis state (levels 1..beta+1, as far as the run got)."""

    level: int
    q_vector: tuple[Fraction, ...]
    refinement_correct: ItemSet
    correct: ItemSet
    correct_mass: Fraction


@dataclass(frozen=True)
class IterationDiagnostics:
    """Per-iteration quantities (iterations carry the alpha auctions)."""

    level: int
    demand_partition: tuple[ItemSet, ...]
    sold_in_partition: tuple[ItemSet, ...]
    auction_welfares: tuple[Fraction, ...]
    learnable_change: Fraction
    learnable_realized: bool
    allocatable_realized: bool
    overestimate_ok: bool


@dataclass(frozen=True)
class AnalysisTrace:
    star_items: ItemSet
    q_star: tuple[Fraction, ...]
    opt_welfare: Fraction
    levels: tuple[LevelTrace, ...]
    iterations: tuple[IterationDiagnostics, ...]

    def level(self, index: int) -> LevelTrace:
        return self.levels[index - 1]


def build_trace(
    run: MechanismOutcome, optimal: OptimalSolution, tree: PriceTree
) -> AnalysisTrace:
    """Chase the analysis definitions for one recorded run.

    Bidders are matched by id: oracle bidder k is bidder id k, the way
    ``Instance.bidders()`` numbers them, so ``optimal`` must have been
    computed over the instance's valuations in order. A group id that is not
    an oracle index raises ``DomainError``. Items the optimum assigns to
    bidders outside the run's groups (possible when tracing a top-level run
    whose statistics group is ineligible) are never star items. Auction
    welfares are read from the run's records. The three
    structural invariants (nested correct sets, partitioned demand sets,
    learned price below supporting price on correct items) and the per-run
    overestimate inequality are verified here and raise on violation.
    """
    if not run.iterations or run.params is None:
        raise DomainError(
            "the run carries no learning history (second-price branch?)"
        )
    alpha, beta = run.params.alpha, run.params.beta
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
    owner_group = list(map(group_of.get, optimal.assignment))

    q = optimal.supporting_prices
    grid, mass = optimal.price_grid
    leaves = optimal.leaves.get((tree.parity, tree.params))
    if leaves is None:
        leaves = optimal.leaves[tree.parity, tree.params] = tuple(map(tree.leaf_of, q))
    leaf = {j: k for j, k in enumerate(leaves) if k is not None and owner_group[j]}
    star = frozenset(leaf)
    q_star = tuple(q[j] if j in star else ZERO for j in range(m))
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
        # A vector repeats one price object across items: locate each once.
        distinct = {id(p): p for p in vector}
        place = {key: tree.position(p, level) for key, p in distinct.items()}
        if None in place.values():
            off = next(p for p in vector if place[id(p)] is None)
            raise InvariantViolationError(
                f"learned price {off} is not a level-{level} price"
            )
        refined = frozenset(
            j for j in refined if ancestor(leaf[j], level) == place[id(vector[j])]
        )
        # Every star item's owner is in a group, so q_vector(1) is q_star.
        qv = q_star if level == 1 else tuple(
            q_star[j] if j in star and owner_group[j] >= level else ZERO
            for j in range(m)
        )
        correct = frozenset(j for j in refined if owner_group[j] >= level)
        for j in correct:
            num, den = vector[j].as_integer_ratio()
            if num * grid > mass[j] * den:
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
        parts = tuple(map(frozenset, partition))
        union, size = frozenset().union(*parts), sum(map(len, parts))
        if union != this.correct or size != len(this.correct):
            raise InvariantViolationError("demand sets do not partition")
        sold = [part & a.allocated_items for part, a in zip(parts, record.allocations)]

        # Both masses are of this level's q_vector: q on the items of groups
        # i and later, which every sold item, being correct at level i, is.
        sold_mass = sum(mass[j] for items in sold for j in items)
        kept_mass = sum(
            mass[j] for j in nxt.refinement_correct if owner_group[j] >= i
        )
        # kept >= sold - OPT / (10 beta), both sides times 10 beta * wden * grid.
        overestimate_ok = (sold_mass - kept_mass) * 10 * beta * wden <= wnum * grid
        if not overestimate_ok:
            raise InvariantViolationError(
                f"iteration {i} overestimate accounting failed: kept "
                f"{Fraction(kept_mass, grid)} < sold {Fraction(sold_mass, grid)} "
                f"- {optimal.welfare / (10 * beta)}"
            )

        change = level_mass[i] - level_mass[i - 1]
        learnable = change * 3 * beta * wden >= -wnum * grid
        # mean welfare >= OPT / (200 alpha beta^2), times alpha * 200 beta^2
        # * wden * den, with ``den`` the welfares' common grid.
        den = common_scale(record.welfares)
        total = sum(scaled_ints(record.welfares, den))
        allocatable = total * 200 * beta**2 * wden >= wnum * den
        iterations.append(
            IterationDiagnostics(
                level=i,
                demand_partition=parts,
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


@dataclass(frozen=True)
class IterationBranchStats:
    iteration: int
    samples: int
    learnable_mean_change: float
    learnable_threshold: float
    learnable_ci_low: float
    learnable_holds_95: bool
    allocatable_mean: float
    allocatable_threshold: float
    allocatable_ci_low: float
    allocatable_holds_95: bool

    @property
    def either_holds_95(self) -> bool:
        return self.learnable_holds_95 or self.allocatable_holds_95


@dataclass(frozen=True)
class BranchReport:
    iterations: tuple[IterationBranchStats, ...]
    seed_count: int
    power_warning: bool


def _ci_low(values: Sequence[float]) -> float:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean - 1.96 * math.sqrt(var / n)


def check_learnable_or_allocatable(
    traces: Sequence[AnalysisTrace],
    opt: Fraction,
    alpha: int,
    beta: int,
    *,
    min_seeds: int = 100,
) -> BranchReport:
    """Monte Carlo estimate of the learnable-or-allocatable dichotomy.

    All traces must come from the same instance (same ``opt``). Expectations
    are estimated per iteration over the traces that reached it; the verdicts
    use one-sided 95% normal intervals. This is a diagnostic report --
    sampling noise cannot refute a disjunction of expectations, so nothing
    here asserts.
    """
    stats = []
    for i in range(1, beta + 1):
        changes = []
        per_auction_welfares = []
        for trace in traces:
            for diag in trace.iterations:
                if diag.level == i:
                    changes.append(float(diag.learnable_change))
                    per_auction_welfares.extend(
                        float(w) for w in diag.auction_welfares
                    )
        if not changes:
            continue
        learn_thresh = float(-opt / (3 * beta))
        alloc_thresh = float(opt / (200 * alpha * beta**2))
        learn_low = _ci_low(changes)
        alloc_low = _ci_low(per_auction_welfares)
        stats.append(
            IterationBranchStats(
                iteration=i,
                samples=len(changes),
                learnable_mean_change=sum(changes) / len(changes),
                learnable_threshold=learn_thresh,
                learnable_ci_low=learn_low,
                learnable_holds_95=learn_low >= learn_thresh,
                allocatable_mean=sum(per_auction_welfares)
                / len(per_auction_welfares),
                allocatable_threshold=alloc_thresh,
                allocatable_ci_low=alloc_low,
                allocatable_holds_95=alloc_low >= alloc_thresh,
            )
        )
    return BranchReport(
        iterations=tuple(stats),
        seed_count=len(traces),
        power_warning=len(traces) < min_seeds,
    )
