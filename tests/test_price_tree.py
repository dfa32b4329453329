"""Geometric bins, parameter solving, and modified trees built from their
params, against worked examples and the nested reference construction."""

import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab.errors import DomainError, InvariantViolationError
from auctionlab.price_tree import (
    EVEN,
    ODD,
    Params,
    build_bins,
    build_modified_tree,
    canonical_vectors,
    ceil_log,
    check_range,
    solve_parameters,
    validate_parameter_equations,
)

from tree_reference import (
    belongs,
    bin_indices,
    children,
    contains,
    nested_canonical_vectors,
    nested_tree,
    nodes,
    retained,
    strong_node,
)


class TestSolveParameters:
    def test_psi_ratio_million(self):
        params = solve_parameters(1, 10**6)
        assert (params.alpha, params.beta, params.gamma) == (2, 2, 80)
        assert params.bin_count == 4

    def test_degenerate_range(self):
        params = solve_parameters(5, 5)
        assert (params.alpha, params.beta, params.gamma) == (2, 1, 40)
        assert params.bin_count == 1

    def test_psi_ratio_thousand(self):
        params = solve_parameters(1, 1000)
        assert (params.alpha, params.beta, params.gamma) == (2, 1, 40)
        assert params.bin_count == 2

    @pytest.mark.parametrize("welfare", [Fraction(1), Fraction(37, 3), Fraction(10**5)])
    def test_beta_at_the_mechanism_range(self, welfare):
        # final_mechanism learns prices in [A / m^2, 8A] for the statistics
        # group's welfare A. Up to m = 14 the ratio 8m^2 <= 1568 needs two
        # bins of width gamma = 40, which a beta-1 tree (capacity alpha = 2)
        # covers, so the stop coin (probability 1/beta) always ends learning
        # in the first iteration.
        for m in range(2, 17):
            params = solve_parameters(welfare / (m * m), 8 * welfare)
            assert params.beta == (1 if m <= 14 else 2), m

    def test_nonpositive_floor_rejected(self):
        with pytest.raises(DomainError):
            solve_parameters(0, 5)
        with pytest.raises(DomainError):
            solve_parameters(-1, 5)

    def test_inverted_range_rejected(self):
        with pytest.raises(DomainError):
            solve_parameters(7, 2)

    def test_solver_output_satisfies_coupled_bounds(self):
        rng = random.Random(5)
        for _ in range(50):
            lo = Fraction(rng.randint(1, 50), rng.randint(1, 10))
            ratio = Fraction(rng.randint(1, 10**9))
            params = solve_parameters(lo, lo * ratio)
            validate_parameter_equations(params)


def test_ceil_log_exact_boundaries():
    assert ceil_log(Fraction(4), Fraction(256)) == 4
    assert ceil_log(Fraction(4), Fraction(257)) == 5
    assert ceil_log(Fraction(4), Fraction(1)) == 0
    assert ceil_log(Fraction(40), Fraction(1600)) == 2


def test_params_hash_is_worked_out_once(monkeypatch):
    """A ``Params`` hashes as its fields do, equal parameters alike, and
    hashes its ``Fraction``s on the first ``hash`` only."""
    params = solve_parameters(Fraction(1, 3), Fraction(400))
    copy = Params(*(getattr(params, f.name) for f in fields(Params)))
    fields_hash = hash(tuple(getattr(params, f.name) for f in fields(Params)))
    hashed = []
    real = Fraction.__hash__

    def counted(self):
        hashed.append(self)
        return real(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    assert hash(params) == hash(copy) == fields_hash
    assert len(hashed) == 6
    assert {params: 1}[copy] == 1 and params == copy
    assert len(hashed) == 6


FOUR_BINS = Params(2, 2, Fraction(4), Fraction(1), Fraction(256))


def reference_range_error(gamma, psi_min, psi_max):
    """The message ``Params`` raised when it compared ``Fraction``s, or None."""
    if gamma <= 1:
        return f"gamma must exceed 1, got {gamma}"
    if psi_min <= 0:
        return f"psi_min must be positive, got {psi_min}"
    if psi_max < psi_min:
        return "psi_max must be at least psi_min"
    return None


def range_error(gamma, psi_min, psi_max):
    """The message ``Params`` raises on integers, or None; ``check_range``
    must raise the same for the ends whenever gamma is valid."""
    try:
        Params(2, 1, gamma, psi_min, psi_max)
    except DomainError as exc:
        message = str(exc)
    else:
        message = None
    if not message or not message.startswith("gamma"):
        try:
            check_range(psi_min, psi_max)
        except DomainError as exc:
            assert str(exc) == message
        else:
            assert message is None
    return message


class TestRangeMessages:
    """``Params`` and ``check_range`` decide on numerators and denominators;
    their messages are the ones the ``Fraction`` comparisons gave."""

    @pytest.mark.parametrize(
        "gamma, psi_min, psi_max, message",
        [
            (Fraction(1), 1, 2, "gamma must exceed 1, got 1"),
            (1, 1, 2, "gamma must exceed 1, got 1"),
            (Fraction(1, 2), 1, 2, "gamma must exceed 1, got 1/2"),
            (Fraction(-3), 1, 2, "gamma must exceed 1, got -3"),
            (Fraction(0), -1, -2, "gamma must exceed 1, got 0"),
            (Fraction(41, 40), 1, 2, None),
            (40, 0, 5, "psi_min must be positive, got 0"),
            (40, Fraction(0), 0, "psi_min must be positive, got 0"),
            (40, -1, 5, "psi_min must be positive, got -1"),
            (40, Fraction(-1, 3), Fraction(-1, 6), "psi_min must be positive, got -1/3"),
            (40, 5, 4, "psi_max must be at least psi_min"),
            (40, Fraction(1, 2), Fraction(1, 3), "psi_max must be at least psi_min"),
            (40, 1, 0, "psi_max must be at least psi_min"),
            (40, Fraction(2, 3), Fraction(6, 10), "psi_max must be at least psi_min"),
            (40, Fraction(7, 9), Fraction(7, 9), None),
            (40, 5, 5, None),
            (40, Fraction(10, 2), 5, None),
            (40, Fraction(6, 4), Fraction(9, 6), None),
            (40, 3, Fraction(12, 4), None),
            (40, Fraction(3, 2), 2, None),
        ],
    )
    def test_messages_are_pinned(self, gamma, psi_min, psi_max, message):
        assert range_error(gamma, psi_min, psi_max) == message
        assert reference_range_error(gamma, psi_min, psi_max) == message

    @settings(max_examples=300, deadline=None)
    @given(
        ends=st.lists(
            st.one_of(
                st.integers(-5, 50),
                st.fractions(min_value=-5, max_value=50, max_denominator=60),
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_integer_decisions_match_fraction_comparisons(self, ends):
        gamma, psi_min, psi_max = ends
        assert range_error(gamma, psi_min, psi_max) == reference_range_error(
            gamma, psi_min, psi_max
        )


class TestBins:
    def test_geometric_partition(self):
        bins = build_bins(FOUR_BINS)
        assert len(bins) == 4
        assert [c.price for c in bins] == [1, 4, 16, 64]
        assert [c.upper for c in bins] == [4, 16, 64, 256]
        assert [c.closed for c in bins] == [False, False, False, True]

    def test_single_point_bin(self):
        bins = build_bins(Params(2, 1, Fraction(40), Fraction(5), Fraction(5)))
        assert len(bins) == 1
        assert contains(bins[0], Fraction(5))
        assert bins[0].price == 5

    def test_membership(self):
        bins = build_bins(FOUR_BINS)

        def owners(price):
            return [c.index for c in bins if contains(c, price)]

        assert owners(Fraction(1)) == [1]
        assert owners(Fraction(4)) == [2]
        assert owners(Fraction(255)) == [4]
        assert owners(Fraction(256)) == [4]  # the last bin is closed
        assert owners(Fraction(257)) == []
        assert owners(Fraction(1, 2)) == []

    def test_within_bin_spread_is_at_most_gamma(self):
        for cell in build_bins(FOUR_BINS):
            assert cell.upper <= cell.price * FOUR_BINS.gamma


class TestModifiedTree:
    def test_odd_tree_of_four_bins(self):
        tree = build_modified_tree(FOUR_BINS, ODD)
        leaf_prices = [c.price for c in tree.leaves if c.index is not None]
        assert leaf_prices == [1, 16]
        assert bin_indices(tree.leaves) == (1, 3)
        assert tree.prices(1) == (1,)

    def test_even_tree_of_single_bin_is_dummy_backed(self):
        params = Params(2, 1, Fraction(40), Fraction(5), Fraction(5))
        tree = build_modified_tree(params, EVEN)
        assert bin_indices(tree.leaves) == ()
        assert all(
            not belongs(cells, Fraction(5))
            for level in range(1, tree.depth + 1)
            for cells in nodes(tree, level)
        )
        assert tree.leaf_of(Fraction(5)) is None
        assert tree.prices(1)[0] > params.psi_max

    def test_figure_shape_alpha2_beta3_t8(self):
        # eight bins at gamma = 2; the odd tree keeps B1, B3, B5, B7 as leaves
        params = Params(2, 3, Fraction(2), Fraction(1), Fraction(200))
        assert len(build_bins(params)) == 8
        tree = build_modified_tree(params, ODD)
        assert tree.depth == 4
        assert len(tree.leaves) == 8
        assert bin_indices(tree.leaves) == (1, 3, 5, 7)

    def test_capacity_violation_rejected(self):
        # t = 8; the odd tree keeps 4 bins, over the capacity alpha^beta = 2
        params = Params(2, 1, Fraction(2), Fraction(1), Fraction(200))
        with pytest.raises(InvariantViolationError):
            build_modified_tree(params, ODD)

    def test_bad_parity(self):
        with pytest.raises(DomainError):
            build_modified_tree(FOUR_BINS, "both")


class TestBelonging:
    def test_root_price_strongly_belongs(self):
        tree = build_modified_tree(FOUR_BINS, ODD)
        assert strong_node(tree, Fraction(1), 1) == 0
        assert tree.position(Fraction(1), 1) == 0
        assert belongs(tree.leaves, Fraction(1))

    def test_belongs_without_strongly(self):
        tree = build_modified_tree(FOUR_BINS, ODD)
        assert belongs(tree.leaves, Fraction(16))
        assert strong_node(tree, Fraction(16), 1) is None
        assert tree.position(Fraction(16), 1) is None

    def test_strong_node_level_out_of_range(self):
        tree = build_modified_tree(FOUR_BINS, ODD)
        for level in (0, tree.depth + 1):
            with pytest.raises(DomainError):
                strong_node(tree, Fraction(1), level)
            with pytest.raises(DomainError):
                tree.position(Fraction(1), level)
            with pytest.raises(DomainError):
                tree.prices(level)

    def test_above_range_belongs_nowhere(self):
        tree = build_modified_tree(FOUR_BINS, ODD)
        assert all(
            not belongs(cells, Fraction(300))
            for level in range(1, tree.depth + 1)
            for cells in nodes(tree, level)
        )
        assert tree.leaf_of(Fraction(300)) is None

    def test_wrong_parity_belongs_nowhere(self):
        tree = build_modified_tree(FOUR_BINS, ODD)
        assert all(
            not belongs(cells, Fraction(5))
            for level in range(1, tree.depth + 1)
            for cells in nodes(tree, level)
        )  # 5 sits in B2
        assert tree.leaf_of(Fraction(5)) is None


def random_params(rng):
    """Hand-made parameters: alpha 2 at beta 1-4 or alpha 3 at beta 1-3, a
    gamma and a floor off the integers, and from 1 bin up to as many as one
    parity's leaves hold, with psi_max anywhere in the last bin (or equal to
    psi_min)."""
    alpha, beta = rng.choice(((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)))
    gamma = Fraction(rng.randint(3, 40), rng.randint(1, 2))
    psi_min = Fraction(rng.randint(1, 500), rng.randint(1, 30))
    t = rng.randint(1, 2 * alpha**beta)
    last = psi_min * gamma ** (t - 1)
    psi_max = last + (gamma - 1) * last * Fraction(rng.randint(0 if t == 1 else 1, 8), 8)
    params = Params(alpha, beta, gamma, psi_min, psi_max)
    assert params.bin_count == t
    return params


def lookup_probes(tree):
    """Prices on and beside every bin edge of both parities, inside every
    bin, at and past the closed psi_max edge, below psi_min, at every leaf's
    own price (dummies included, and so at every node's) and between
    dummies, and two ints."""
    params = tree.params
    tiny = params.psi_min / 10**6
    probes = [Fraction(0), -params.psi_min, params.psi_min / 2, 1, int(params.psi_max)]
    for cell in build_bins(params):
        for edge in (cell.price, cell.upper):
            probes += [edge, edge - tiny, edge + tiny]
        probes.append((cell.price + cell.upper) / 2)
    probes += [params.psi_max, params.psi_max + tiny, params.psi_max * params.gamma]
    for cell in tree.leaves:
        probes += [cell.price, cell.price * params.gamma + tiny]
    return probes


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_lookups_match_scans(parity):
    """``leaf_of`` against ``belongs`` and ``position`` against
    ``strong_node``, scans over the leaf blocks of the nodes, on random trees
    at beta 1-4: the nodes a price belongs to are exactly its leaf's
    ancestors (``ancestor``, the leaf's place divided by alpha^(depth-l)); a
    node's child holding the price is the level-(l+1) ancestor, whose place
    modulo alpha is its place among the children; and ``position`` names the
    node that ``strong_node`` finds."""
    rng = random.Random(11 if parity == ODD else 12)
    trees = [random_params(rng) for _ in range(60)]
    trees += [
        solve_parameters(lo, lo * Fraction(rng.randint(1, 10**6)) ** e)
        for lo in (Fraction(1), Fraction(37, 3))
        for e in (1, 2, 3, 4)
    ]
    located = set()
    for params in trees:
        tree = build_modified_tree(params, parity)
        alpha, depth = params.alpha, tree.depth
        for price in lookup_probes(tree):
            leaf = tree.leaf_of(price)
            located.add((params.beta, leaf is not None))
            for level in range(1, depth + 1):
                blocks = nodes(tree, level)
                homes = [k for k, cells in enumerate(blocks) if belongs(cells, price)]
                assert homes == ([] if leaf is None else [tree.ancestor(leaf, level)])
                assert leaf is None or homes == [leaf // alpha ** (depth - level)]
                if leaf is not None and level < depth:
                    kids = children(blocks[homes[0]], alpha)
                    held = [k for k, cells in enumerate(kids) if belongs(cells, price)]
                    below = tree.ancestor(leaf, level + 1)
                    assert held == [below % alpha], price
                    assert kids[below % alpha] == nodes(tree, level + 1)[below]
                assert tree.position(price, level) == strong_node(tree, price, level)
    assert located == {(beta, found) for beta in (1, 2, 3, 4) for found in (True, False)}


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_leaf_row_matches_nested_construction(parity):
    """The leaf row against the nested construction it replaced, on random
    trees at alpha 2, beta 1-4 and alpha 3, beta 1-3, and on solver trees:
    the same leaf cells, the same node prices at every level, and the same
    ``canonical_vectors`` at every non-leaf level, for the whole row of node
    prices and for random vectors over it."""
    rng = random.Random(21 if parity == ODD else 22)
    trees = [random_params(rng) for _ in range(80)]
    trees += [
        solve_parameters(lo, lo * Fraction(rng.randint(1, 10**6)) ** e)
        for lo in (Fraction(1), Fraction(37, 3))
        for e in (1, 2, 3, 4)
    ]
    shapes = set()
    for params in trees:
        tree = build_modified_tree(params, parity)
        levels = nested_tree(params, parity)
        alpha = params.alpha
        shapes.add((alpha, params.beta))
        assert tree.depth == len(levels)
        assert tree.leaves == tuple(node.cells[0] for node in levels[-1])
        for level, row in enumerate(levels, start=1):
            assert tree.prices(level) == tuple(node.price for node in row)
        for level in range(1, tree.depth):
            row = tree.prices(level)
            vectors = [row] + [
                tuple(rng.choice(row) for _ in range(rng.randint(0, 6)))
                for _ in range(4)
            ]
            for vector in vectors:
                assert canonical_vectors(tree, vector, level) == (
                    nested_canonical_vectors(levels, vector, level, alpha)
                )
    assert shapes >= {(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)}


CANON = Params(2, 2, Fraction(2), Fraction(1), Fraction(200))  # t = 8


class TestCanonicalVectors:
    def test_root_vector_refines_to_child_prices(self):
        tree = build_modified_tree(CANON, ODD)
        vecs = canonical_vectors(tree, (Fraction(1), Fraction(1)), 1)
        assert vecs == [(1, 1), (16, 16)]

    def test_empty_vector(self):
        tree = build_modified_tree(CANON, ODD)
        assert canonical_vectors(tree, (), 1) == [(), ()]

    def test_mixed_vector_refines_per_coordinate(self):
        tree = build_modified_tree(CANON, ODD)
        vecs = canonical_vectors(tree, (Fraction(1), Fraction(16)), 2)
        assert vecs == [(1, 16), (4, 64)]

    def test_price_outside_level_rejected(self):
        tree = build_modified_tree(CANON, ODD)
        with pytest.raises(InvariantViolationError):
            canonical_vectors(tree, (Fraction(3),), 1)

    def test_leaf_level_rejected(self):
        tree = build_modified_tree(CANON, ODD)
        with pytest.raises(InvariantViolationError):
            canonical_vectors(tree, (Fraction(1),), 3)


# Ten bins at gamma = 2 in a ternary tree of depth 3: each parity keeps five
# bins, and the nine leaves take them in ceil-split blocks of 2, 2, 1 and
# then 1, 1, 0. Dummy leaves are priced psi_max * gamma^k, k = 1, 2, ...
TERNARY = Params(3, 2, Fraction(2), Fraction(1), Fraction(1024))


class TestTernaryTree:
    @pytest.mark.parametrize(
        "parity, leaf_bins, leaf_prices",
        [
            (
                ODD,
                [(1,), (3,), (), (5,), (7,), (), (9,), (), ()],
                [1, 4, 2048, 16, 64, 4096, 256, 8192, 16384],
            ),
            (
                EVEN,
                [(2,), (4,), (), (6,), (8,), (), (10,), (), ()],
                [2, 8, 2048, 32, 128, 4096, 512, 8192, 16384],
            ),
        ],
    )
    def test_leaf_spread(self, parity, leaf_bins, leaf_prices):
        tree = build_modified_tree(TERNARY, parity)
        assert tree.depth == 3
        assert [bin_indices((cell,)) for cell in tree.leaves] == leaf_bins
        assert [cell.price for cell in tree.leaves] == leaf_prices
        assert [len(tree.prices(level)) for level in (1, 2, 3)] == [1, 3, 9]
        assert tree.prices(2) == tuple(leaf_prices[::3])

    @pytest.mark.parametrize(
        "parity, root_children, vector, refined",
        [
            (ODD, [1, 16, 256], (1, 16), [(1, 16), (4, 64), (2048, 4096)]),
            (EVEN, [2, 32, 512], (2, 512), [(2, 512), (8, 8192), (2048, 16384)]),
        ],
    )
    def test_canonical_vectors_have_three_children(
        self, parity, root_children, vector, refined
    ):
        tree = build_modified_tree(TERNARY, parity)
        root = (tree.prices(1)[0],) * 2
        assert canonical_vectors(tree, root, 1) == [(p, p) for p in root_children]
        vector = tuple(Fraction(p) for p in vector)
        assert canonical_vectors(tree, vector, 2) == refined


@settings(max_examples=60, deadline=None)
@given(
    lo_num=st.integers(min_value=1, max_value=1000),
    ratio=st.integers(min_value=1, max_value=10**9),
    parity=st.sampled_from([ODD, EVEN]),
)
def test_tree_invariants_hold_for_solved_parameters(lo_num, ratio, parity):
    psi_min = Fraction(lo_num, 7)
    params = solve_parameters(psi_min, psi_min * ratio)
    tree = build_modified_tree(params, parity)
    kept = retained(build_bins(params), parity)

    assert tree.depth == params.beta + 1
    assert len(tree.leaves) == params.leaf_capacity

    # each level partitions the retained bins
    indices = tuple(c.index for c in kept)
    for level in range(1, tree.depth + 1):
        spread = [i for cells in nodes(tree, level) for i in bin_indices(cells)]
        assert tuple(spread) == indices

    # gap property: distinct same-level prices differ by at least gamma
    for level in range(1, tree.depth + 1):
        prices = sorted(tree.prices(level))
        for a, b in zip(prices, prices[1:]):
            if a != b:
                assert b >= a * params.gamma

    # partition property: a retained price belongs to exactly one node per level
    rng = random.Random(lo_num * 31 + ratio)
    probes = [c.price for c in kept]
    probes += [
        c.price + (c.upper - c.price) * Fraction(rng.randint(0, 7), 8)
        for c in kept
    ]
    for price in probes:
        for level in range(1, tree.depth + 1):
            assert sum(belongs(cells, price) for cells in nodes(tree, level)) == 1
