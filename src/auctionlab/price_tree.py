"""Geometric price bins and the nested price-discretization trees.

The price range [psi_min, psi_max] is split into t geometric *bins*, each
spanning a factor gamma. A *price tree* arranges a retained subset of these
bins into a perfect alpha-ary tree with beta+1 levels (root = level 1,
leaves = level beta+1): every level partitions the retained bins at a coarser
or finer granularity, and a node's price is the price of its smallest bin.
Such a tree is fixed by its row of alpha^beta leaf cells, which is all a
``PriceTree`` holds: a node is a block of contiguous leaves, its price is its
first leaf's, and ``PriceTree.prices(level)`` reads a level's node prices off
the leaves.

*Modified* trees retain only the odd- or even-indexed bins, so prices sitting
in different nodes of the same level are at least a factor gamma apart; the
mechanism flips a coin between the two parities. ``build_modified_tree(params,
parity)`` builds one in a single call from its params: it splits the range
into bins, keeps one parity, and spreads the retained bins over the
alpha^beta leaf slots by repeated ceil-splits into contiguous blocks; leaf
slots left over are filled with *dummy* bins priced above psi_max so that no
real price ever belongs to them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import DomainError, InvariantViolationError
from .rationals import RationalLike, as_rational, common_scale, scaled_ints
from .valuations import _fact

ODD = "odd"
EVEN = "even"
# The tree arity, and the number of auctions per learning iteration.
ALPHA = 2


@dataclass(frozen=True)
class Params:
    """Discretization parameters.

    The constructor checks basic sanity only; the coupled bounds
    20*alpha*beta <= gamma <= 30*alpha*beta and alpha^beta >= t are guaranteed
    for solver output and can be asserted via ``validate_parameter_equations``
    (tests exercise tree mechanics with small hand-picked gammas).

    The hash is the fields' hash, worked out on the first ``hash`` and kept
    beside them: a cache keyed by the parameters would otherwise hash three
    ``Fraction``s on every lookup.
    """

    alpha: int
    beta: int
    gamma: Fraction
    psi_min: Fraction
    psi_max: Fraction

    def __post_init__(self) -> None:
        if self.alpha < 2:
            raise DomainError(f"alpha must be an integer >= 2, got {self.alpha}")
        if self.beta < 1:
            raise DomainError(f"beta must be an integer >= 1, got {self.beta}")
        if self.gamma.numerator <= self.gamma.denominator:  # gamma <= 1
            raise DomainError(f"gamma must exceed 1, got {self.gamma}")
        check_range(self.psi_min, self.psi_max)

    def __hash__(self) -> int:
        return self._hash

    @_fact
    def _hash(self) -> int:
        return hash((self.alpha, self.beta, self.gamma, self.psi_min, self.psi_max))

    @property
    def bin_count(self) -> int:
        """t: number of bins covering [psi_min, psi_max] (at least 1)."""
        return max(1, ceil_log(self.gamma, self.psi_max / self.psi_min))

    @property
    def leaf_capacity(self) -> int:
        return self.alpha**self.beta


def check_range(psi_min: Fraction, psi_max: Fraction) -> None:
    """A price range must have 0 < psi_min <= psi_max, decided on integers."""
    lo_num, lo_den = psi_min.numerator, psi_min.denominator
    if lo_num <= 0:
        raise DomainError(f"psi_min must be positive, got {psi_min}")
    if psi_max.numerator * lo_den < lo_num * psi_max.denominator:
        raise DomainError("psi_max must be at least psi_min")


def ceil_log(gamma: Fraction, ratio: Fraction) -> int:
    """Smallest k >= 0 with gamma^k >= ratio, by exact repeated multiplication."""
    if ratio <= 0:
        raise DomainError(f"ratio must be positive, got {ratio}")
    k = 0
    power = Fraction(1)
    while power < ratio:
        power *= gamma
        k += 1
    return k


def validate_parameter_equations(params: Params) -> None:
    """Assert the coupled parameter bounds the solver promises."""
    lo = 20 * params.alpha * params.beta
    hi = 30 * params.alpha * params.beta
    if not lo <= params.gamma <= hi:
        raise InvariantViolationError(
            f"gamma {params.gamma} outside [{lo}, {hi}]"
        )
    if params.leaf_capacity < params.bin_count:
        raise InvariantViolationError(
            f"alpha^beta = {params.leaf_capacity} cannot hold t = {params.bin_count} bins"
        )


def solve_parameters(psi_min: RationalLike, psi_max: RationalLike) -> Params:
    """Pick (alpha, beta, gamma) for a price range from the range alone.

    alpha is ``ALPHA``; beta is the smallest integer >= 1 such that, with
    gamma = 20*alpha*beta, the tree capacity alpha^beta covers the resulting
    bin count. gamma grows with beta, so the bin count shrinks as the
    capacity grows and the search always terminates.
    """
    lo = as_rational(psi_min)
    hi = as_rational(psi_max)
    check_range(lo, hi)
    ratio = hi / lo
    beta = 1
    while True:
        gamma = Fraction(20 * ALPHA * beta)
        if ALPHA**beta >= ceil_log(gamma, ratio):
            return Params(ALPHA, beta, gamma, lo, hi)
        beta += 1


@dataclass(frozen=True)
class BinCell:
    """One bin: a half-open geometric interval, closed at psi_max for the last
    real bin. ``index`` is the 1-based bin index, None for a dummy cell; dummy
    cells contain no price by definition."""

    index: Optional[int]
    price: Fraction
    upper: Fraction
    closed: bool


def build_bins(params: Params) -> tuple[BinCell, ...]:
    """The t real bins partitioning [psi_min, psi_max], bin k at position k-1."""
    t = params.bin_count
    cells = []
    lower = params.psi_min
    for i in range(1, t + 1):
        if i == t:
            cells.append(BinCell(i, lower, params.psi_max, True))
        else:
            upper = lower * params.gamma
            cells.append(BinCell(i, lower, upper, False))
            lower = upper
    return tuple(cells)


@dataclass(frozen=True)
class PriceTree:
    """A perfect alpha-ary discretization tree over the bins of one parity,
    "odd" or "even", held as its alpha^beta leaf cells, left to right and
    dummies included. In a tree of depth d = beta+1, the node at place k of
    level l (1 = root, d = leaves) spans the leaves at places p with
    p // alpha^(d-l) == k, and its price is its first leaf's.
    """

    params: Params
    parity: str
    leaves: tuple[BinCell, ...]

    @property
    def depth(self) -> int:
        return self.params.beta + 1

    def ancestor(self, leaf: int, level: int) -> int:
        """The place of the level-``level`` ancestor of the leaf at ``leaf``."""
        return leaf // self.params.alpha ** (self.depth - level)

    def prices(self, level: int) -> tuple[Fraction, ...]:
        """The node prices of 1-based ``level``, left to right."""
        return self._prices[self._row(level)]

    def position(self, price: Fraction, level: int) -> Optional[int]:
        """The place of the level-``level`` node whose own price equals
        ``price``, or None."""
        return self._positions[self._row(level)].get(price.as_integer_ratio())

    def leaf_of(self, price: Fraction) -> Optional[int]:
        """The place of the leaf whose real bin holds ``price``, or None: the
        nodes whose leaves hold ``price`` are exactly this leaf's ancestors."""
        grid, leaves, lowers, uppers = self._leaf_bins
        num, den = price.as_integer_ratio()
        # num/den >= b/grid iff floor(num * grid / den) >= b, for an integer b.
        k = bisect_right(lowers, num * grid // den) - 1
        above = num * grid - uppers[k] * den if k >= 0 else 1
        if above < 0 or above == 0 and self.leaves[leaves[k]].closed:
            return leaves[k]
        return None

    def _row(self, level: int) -> int:
        if not 1 <= level <= self.depth:
            raise DomainError(f"level {level} outside 1..{self.depth}")
        return level - 1

    @cached_property
    def _prices(self) -> tuple[tuple[Fraction, ...], ...]:
        alpha, depth = self.params.alpha, self.depth
        return tuple(
            tuple(c.price for c in self.leaves[:: alpha ** (depth - level)])
            for level in range(1, depth + 1)
        )

    @cached_property
    def _positions(self) -> tuple[dict[tuple[int, int], int], ...]:
        # Node prices within a level are distinct: each is its first leaf's.
        return tuple(
            {price.as_integer_ratio(): k for k, price in enumerate(level)}
            for level in self._prices
        )

    @cached_property
    def _leaf_bins(self) -> tuple[int, list[int], list[int], list[int]]:
        """The leaves holding a real bin, left to right and so in rising
        price, and the lower and upper bounds of their bins on one grid."""
        leaves = [k for k, cell in enumerate(self.leaves) if cell.index is not None]
        cells = [self.leaves[k] for k in leaves]
        grid = common_scale(b for c in cells for b in (c.price, c.upper))
        lowers = scaled_ints([c.price for c in cells], grid)
        uppers = scaled_ints([c.upper for c in cells], grid)
        return grid, leaves, lowers, uppers


def _spread(
    retained: tuple[BinCell, ...], alpha: int, levels_below: int
) -> list[Optional[BinCell]]:
    """Distribute retained bins over alpha^levels_below leaf slots by repeated
    ceil-splits into contiguous blocks; empty slots become dummies later."""
    if levels_below == 0:
        return [retained[0] if retained else None]
    block = -(-len(retained) // alpha) if retained else 0
    out: list[Optional[BinCell]] = []
    for k in range(alpha):
        piece = retained[k * block : (k + 1) * block]
        out.extend(_spread(piece, alpha, levels_below - 1))
    return out


def build_modified_tree(params: Params, parity: str) -> PriceTree:
    """The tree over only the odd- or even-indexed bins of ``params``.

    With t = 1 the even tree retains nothing and is built purely from dummy
    bins: its prices match no real price, so a mechanism run that drew it
    learns nothing, which the parity coin already accounts for.
    """
    if parity not in (ODD, EVEN):
        raise DomainError(f"parity must be {ODD!r} or {EVEN!r}, got {parity!r}")
    # Bin k sits at position k - 1, so odd bins start at 0 and even ones at 1.
    retained = build_bins(params)[parity == EVEN :: 2]
    if len(retained) > params.leaf_capacity:
        raise InvariantViolationError(
            f"{len(retained)} retained bins exceed the {params.leaf_capacity} "
            f"leaves of an alpha={params.alpha}, beta={params.beta} tree"
        )
    slots = _spread(retained, params.alpha, params.beta)

    dummy_counter = 0
    leaf_cells: list[BinCell] = []
    for slot in slots:
        if slot is not None:
            leaf_cells.append(slot)
        else:
            dummy_counter += 1
            price = params.psi_max * params.gamma**dummy_counter
            leaf_cells.append(BinCell(None, price, price * params.gamma, False))

    return PriceTree(params, parity, tuple(leaf_cells))


def canonical_vectors(
    tree: PriceTree, prices: tuple[Fraction, ...], level: int
) -> list[tuple[Fraction, ...]]:
    """The alpha refinements of a level-``level`` price vector.

    Coordinate j of the k-th result is the price of the k-th child of the
    level-``level`` node that prices[j] strongly belongs to, the node whose
    own price it is. Every entry of ``prices`` must be the price of some node
    of that level, and the level must not be the leaf level.
    """
    if level >= tree.depth:
        raise InvariantViolationError(
            f"level {level} has no children to refine into"
        )
    children = tree.prices(level + 1)
    alpha = tree.params.alpha
    columns: list[tuple[Fraction, ...]] = []
    for j, price in enumerate(prices):
        k = tree.position(price, level)
        if k is None:
            raise InvariantViolationError(
                f"price {price} (coordinate {j}) strongly belongs to no "
                f"level-{level} node"
            )
        columns.append(children[k * alpha : (k + 1) * alpha])
    return [
        tuple(columns[j][k] for j in range(len(prices))) for k in range(alpha)
    ]
