"""Reference paths for the price tree, kept as test oracles.

``PriceTree`` holds only its row of leaf cells and locates prices by their
places. The scans here answer the same questions from the cells themselves:
a node is a block of contiguous leaves, a price belongs to it when one of
the block's real bins contains it (``contains``), and it strongly
belongs to it when it equals the block's first price. ``nested_tree`` is the
construction the leaf row replaced: leaf nodes grouped alpha at a time, level
by level, each node holding its cells and its children. ``retained`` picks a
parity's bins by their 1-based index, the rule ``build_modified_tree``'s
slice must agree with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from auctionlab.errors import DomainError, InvariantViolationError
from auctionlab.price_tree import ODD, BinCell, Params, PriceTree, build_bins


def nodes(tree: PriceTree, level: int) -> list[tuple[BinCell, ...]]:
    """The leaf blocks of the nodes of 1-based ``level``, left to right."""
    width = tree.params.alpha ** (tree.depth - level)
    return [tree.leaves[k : k + width] for k in range(0, len(tree.leaves), width)]


def children(cells: tuple[BinCell, ...], alpha: int) -> list[tuple[BinCell, ...]]:
    """The alpha leaf blocks of a non-leaf node's children, left to right."""
    width = len(cells) // alpha
    return [cells[k * width : (k + 1) * width] for k in range(alpha)]


def contains(cell: BinCell, price: Fraction) -> bool:
    """True iff the price falls inside the cell's bin: half-open, closed at
    the top for the last real bin; a dummy cell contains no price."""
    if cell.index is None:
        return False
    if cell.closed:
        return cell.price <= price <= cell.upper
    return cell.price <= price < cell.upper


def belongs(cells: tuple[BinCell, ...], price: Fraction) -> bool:
    """True iff the price falls inside one of the block's real bins."""
    return any(contains(c, price) for c in cells)


def bin_indices(cells: tuple[BinCell, ...]) -> tuple[int, ...]:
    """1-based indices of the real bins in the block."""
    return tuple(c.index for c in cells if c.index is not None)


def strong_node(tree: PriceTree, price: Fraction, level: int) -> Optional[int]:
    """The place of the node of ``level`` whose own price, its first
    leaf's, equals ``price``; None if there is none. A scan."""
    if not 1 <= level <= tree.depth:
        raise DomainError(f"level {level} outside 1..{tree.depth}")
    for k, cells in enumerate(nodes(tree, level)):
        if cells[0].price == price:
            return k
    return None


@dataclass(frozen=True)
class Node:
    cells: tuple[BinCell, ...]
    children: tuple["Node", ...]

    @property
    def price(self) -> Fraction:
        return self.cells[0].price


def _spread(retained, alpha, levels_below):
    if levels_below == 0:
        return [retained[0] if retained else None]
    block = -(-len(retained) // alpha) if retained else 0
    out = []
    for k in range(alpha):
        piece = retained[k * block : (k + 1) * block]
        out.extend(_spread(piece, alpha, levels_below - 1))
    return out


def retained(bins: tuple[BinCell, ...], parity: str) -> tuple[BinCell, ...]:
    """The bins of one parity, chosen by their 1-based ``index``."""
    wanted = 1 if parity == ODD else 0
    return tuple(c for c in bins if c.index % 2 == wanted)


def nested_tree(params: Params, parity: str) -> list[tuple[Node, ...]]:
    """The modified tree as nested nodes, root level first: retained bins
    spread over the leaves by ceil-splits, empty leaves filled with dummies
    priced psi_max * gamma^k, then nodes grouped alpha at a time."""
    kept = retained(build_bins(params), parity)
    leaf_cells = []
    dummies = 0
    for slot in _spread(kept, params.alpha, params.beta):
        if slot is None:
            dummies += 1
            price = params.psi_max * params.gamma**dummies
            slot = BinCell(None, price, price * params.gamma, False)
        leaf_cells.append(slot)
    level = tuple(Node((cell,), ()) for cell in leaf_cells)
    levels = [level]
    for _ in range(params.beta):
        grouped = []
        for k in range(0, len(level), params.alpha):
            kids = level[k : k + params.alpha]
            grouped.append(Node(tuple(c for kid in kids for c in kid.cells), kids))
        level = tuple(grouped)
        levels.append(level)
    levels.reverse()
    return levels


def nested_canonical_vectors(
    levels: list[tuple[Node, ...]], prices: tuple[Fraction, ...], level: int, alpha: int
) -> list[tuple[Fraction, ...]]:
    """``canonical_vectors`` over nested nodes: each coordinate's node is
    found by a scan of its level, and its children's prices are read off."""
    columns = []
    for price in prices:
        homes = [node for node in levels[level - 1] if node.price == price]
        if len(homes) != 1:
            raise InvariantViolationError(f"price {price} names {len(homes)} nodes")
        columns.append(tuple(child.price for child in homes[0].children))
    return [tuple(column[k] for column in columns) for k in range(alpha)]
