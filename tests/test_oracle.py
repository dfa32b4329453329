"""Brute-force optimum vs an independent full scan of every assignment."""

import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from auctionlab.auction import Allocation
from auctionlab.errors import (
    CapabilityError,
    InstanceShapeError,
    InvariantViolationError,
)
from auctionlab.harness import GeneratorSpec, generate_instance
from auctionlab.instances import valuation_to_dict
from auctionlab.oracle import (
    OptimalSolution,
    _budget_step,
    _xos_step,
    brute_force_opt,
    welfare,
)
from auctionlab.valuations import (
    additive,
    budget_additive,
    bundle_value_table,
    supporting_prices,
    value_query,
    xos,
)


def naive_opt(valuations, m):
    """Scan all (n+1)^m assignment vectors in lexicographic order and keep the
    first welfare maximizer. Independent of the production implementation."""
    n = len(valuations)
    best_welfare = Fraction(-1)
    best_assignment = None
    for assignment in product(range(n + 1), repeat=m):
        total = Fraction(0)
        for i in range(n):
            bundle = [j for j in range(m) if assignment[j] == i]
            total += value_query(valuations[i], bundle)
        if total > best_welfare:
            best_welfare = total
            best_assignment = assignment
    return best_welfare, best_assignment


def reference_supporting_prices(rows, budget, bundle):
    """Supporting prices as the oracle once worked them out, in ``Fraction``,
    from a valuation's inputs (``budget`` is None for XOS): the entries of the
    first maximizing clause for XOS; for budget-additive, the item values,
    scaled by budget / total when they exceed the budget."""
    if budget is None:
        totals = [sum((row[j] for j in bundle), Fraction(0)) for row in rows]
        clause = rows[totals.index(max(totals))]
        return {j: clause[j] for j in bundle}
    (values,) = rows
    total = sum((values[j] for j in bundle), Fraction(0))
    if total <= budget or total == 0:
        return {j: values[j] for j in bundle}
    ratio = budget / total
    return {j: values[j] * ratio for j in bundle}


def fraction_inputs(valuation):
    """A valuation's rows and budget (None for XOS) as ``Fraction``s, read
    from its instance-file entry."""
    entry = valuation_to_dict(valuation)
    if entry["kind"] == "xos":
        return [[Fraction(x) for x in row] for row in entry["clauses"]], None
    return [[Fraction(x) for x in entry["values"]]], Fraction(entry["budget"])


def reference_subset_split_opt(valuations, m):
    """The oracle's earlier form: every bidder's step tries all 3^m subset
    splits and keeps back-pointers, which rebuild the assignment."""
    n = len(valuations)
    scale = lcm(*(v.scale for v in valuations))
    items = range(m)
    nmask = 1 << m
    digits = [0] * nmask
    for mask in range(1, nmask):
        low = mask & -mask
        digits[mask] = digits[mask ^ low] + (n + 1) ** (m - low.bit_length())
    big = (n + 1) ** m
    prev = [0] * nmask
    choices = []
    for i, valuation in enumerate(valuations):
        table = bundle_value_table(valuation, items, scale)
        weight = [big * v + (n - i) * d for v, d in zip(table, digits)]
        cur = [0] * nmask
        choice = [0] * nmask
        for s in range(1, nmask):
            best = prev[s]
            pick = 0
            t = s
            while t:
                total = prev[s ^ t] + weight[t]
                if total > best:
                    best = total
                    pick = t
                t = (t - 1) & s
            cur[s] = best
            choice[s] = pick
        prev = cur
        choices.append(choice)

    assignment = [n] * m
    rest = nmask - 1
    for i in range(n - 1, -1, -1):
        taken = choices[i][rest]
        rest ^= taken
        for j in items:
            if taken >> j & 1:
                assignment[j] = i
    bundles = {i: frozenset(j for j in items if assignment[j] == i) for i in range(n)}
    prices = [Fraction(0)] * m
    for i, bundle in bundles.items():
        if bundle:
            rows, budget = fraction_inputs(valuations[i])
            for j, q in reference_supporting_prices(rows, budget, bundle).items():
                prices[j] = q
    return OptimalSolution(
        Allocation(bundles, {}),
        Fraction(prev[nmask - 1] // big, scale),
        tuple(prices),
        tuple(assignment),
    )


def split_step(prev, weight):
    """The oracle's earlier DP step: add a bidder with bundle weights
    ``weight`` by trying every split of every S into the bidder's part T and
    the rest, 3^m steps."""
    cur = prev[:]
    for s in range(1, len(prev)):
        best = prev[s]
        t = s
        while t:
            total = prev[s ^ t] + weight[t]
            if total > best:
                best = total
            t = (t - 1) & s
        cur[s] = best
    return cur


def random_valuation(rng, m, hi=9):
    if rng.random() < 0.5:
        return xos(
            *[[rng.randint(0, hi) for _ in range(m)] for _ in range(rng.randint(1, 3))]
        )
    return budget_additive([rng.randint(0, hi) for _ in range(m)], rng.randint(0, 15))


class TestBruteForceOpt:
    def test_single_bidder_takes_everything(self):
        sol = brute_force_opt([xos((5, 7))], 2)
        assert sol.allocation.bundle(0) == {0, 1}
        assert sol.welfare == 12
        assert sol.supporting_prices == (5, 7)

    def test_additive_pair(self):
        sol = brute_force_opt([additive((3, 0)), additive((0, 5))], 2)
        assert sol.assignment == (0, 1)
        assert sol.welfare == 8
        assert sol.supporting_prices == (3, 5)

    def test_no_bidders(self):
        sol = brute_force_opt([], 3)
        assert sol.welfare == 0
        assert sol.assignment == (0, 0, 0)
        assert sol.supporting_prices == (0, 0, 0)

    def test_cap(self):
        with pytest.raises(CapabilityError):
            brute_force_opt([additive((1, 1))] * 2, 2, assignment_cap=8)

    def test_default_cap_bounds_subset_splits(self):
        # 8 * 3^10 splits fit under the default cap, although 9^10
        # assignment vectors would not.
        inst = generate_instance(GeneratorSpec(8, 10, seed=5))
        sol = brute_force_opt(list(inst.valuations), 10)
        assert sol.welfare == welfare(sol.allocation, inst.valuations)
        # 3^17 splits exceed it even for one bidder; refused before any work,
        # so a valuation that would fail to build a table is never touched.
        with pytest.raises(CapabilityError, match="subset splits"):
            brute_force_opt([None], 17)

    def test_matches_naive_scan_with_ties(self):
        rng = random.Random(2024)
        for _ in range(40):
            n = rng.randint(1, 3)
            m = rng.randint(1, 4)
            vals = [random_valuation(rng, m) for _ in range(n)]
            sol = brute_force_opt(vals, m)
            ref_welfare, ref_assignment = naive_opt(vals, m)
            assert sol.welfare == ref_welfare
            # matching assignment vector, including the lexicographic tie-break
            translated = tuple(n if a == n else a for a in sol.assignment)
            assert translated == ref_assignment
        # Values in {0, 1, 2} make optimal allocations tie often.
        rng = random.Random(4242)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rng.randint(1, 5)
            vals = [random_valuation(rng, m, hi=2) for _ in range(n)]
            sol = brute_force_opt(vals, m)
            assert (sol.welfare, sol.assignment) == naive_opt(vals, m)

    @pytest.mark.parametrize("family", ["xos", "additive", "budget-additive"])
    @pytest.mark.parametrize("items", [2, 4])
    def test_item_count_must_match_m(self, family, items):
        def make(k):
            values = list(range(1, k + 1))
            if family == "xos":
                return xos(values, values[::-1])
            if family == "additive":
                return additive(values)
            return budget_additive(values, 4)

        # Both directions are refused before any table is built, for the
        # sole bidder and for a middle bidder, whose XOS passes would
        # otherwise read a short row against the wrong items.
        with pytest.raises(InstanceShapeError, match=f"0 has {items} items, not 3"):
            brute_force_opt([make(items)], 3)
        with pytest.raises(InstanceShapeError, match=f"1 has {items} items, not 3"):
            brute_force_opt([make(3), make(items), make(3)], 3)

    def test_deterministic(self):
        vals = [xos((4, 4), (1, 6)), budget_additive((3, 3), 4)]
        first = brute_force_opt(vals, 2)
        second = brute_force_opt(vals, 2)
        assert first == second

    def test_budget_additive_supporting_prices_scale_to_budget(self):
        sol = brute_force_opt([budget_additive((4, 4), 6)], 2)
        assert sol.welfare == 6
        assert sol.supporting_prices == (3, 3)
        assert sum(sol.supporting_prices, Fraction(0)) == sol.welfare

    def test_supporting_prices_match_bundle_values(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 3)
            m = rng.randint(1, 4)
            vals = [random_valuation(rng, m) for _ in range(n)]
            sol = brute_force_opt(vals, m)
            assert sum(sol.supporting_prices, Fraction(0)) == sol.welfare
            for i in range(n):
                bundle = sol.allocation.bundle(i)
                assert sum(
                    (sol.supporting_prices[j] for j in bundle), Fraction(0)
                ) == value_query(vals[i], bundle)
                assert {
                    j: sol.supporting_prices[j] for j in bundle
                } == supporting_prices(vals[i], bundle)
            for j in range(m):
                if sol.assignment[j] == n:
                    assert sol.supporting_prices[j] == 0


def test_supporting_prices_match_fraction_reference():
    """Both families' supporting prices, read off the integer grid, against
    the ``Fraction`` formulas, on entries with denominators 1-6 and budgets
    from zero to slack."""
    rng = random.Random(77)

    def entry():
        return Fraction(rng.choice([0, 1, 2, 3, 7]), rng.choice([1, 2, 3, 4, 6]))

    binding = 0
    for _ in range(400):
        m = rng.randint(0, 6)
        if rng.random() < 0.5:
            rows = [[entry() for _ in range(m)] for _ in range(rng.randint(1, 3))]
            budget = None
            v = xos(*rows)
        else:
            values = [entry() for _ in range(m)]
            budget = sum(values, Fraction(0)) * Fraction(rng.randint(0, 5), 4)
            rows = [values]
            v = budget_additive(values, budget)
        bundle = frozenset(j for j in range(m) if rng.random() < 0.6)
        prices = supporting_prices(v, bundle)
        assert prices == reference_supporting_prices(rows, budget, bundle)
        binding += budget is not None and budget < sum(
            (values[j] for j in bundle), Fraction(0)
        )
    assert binding > 50


class TestMatchesSubsetSplitReference:
    """The subset-max transform for XOS bidders and the digit read-out of the
    assignment against the all-splits DP with back-pointers."""

    def check(self, vals, m, **kwargs):
        sol = brute_force_opt(vals, m, **kwargs)
        ref = reference_subset_split_opt(vals, m)
        assert sol.assignment == ref.assignment
        assert sol.welfare == ref.welfare
        assert sol.supporting_prices == ref.supporting_prices
        assert sol.allocation == ref.allocation

    def test_tie_heavy_mixed_bidders(self):
        # Values in {0, 1, 2}: optimal allocations tie often, and XOS and
        # budget-additive bidders come in random order.
        rng = random.Random(5151)
        for _ in range(300):
            n = rng.randint(1, 4)
            m = rng.randint(1, 6)
            self.check([random_valuation(rng, m, hi=2) for _ in range(n)], m)

    def test_tight_budgets_mixed_bidders(self):
        # A budget equal to the largest item value binds on every bundle of
        # two valued items, so the budget step's every-split repair runs;
        # XOS bidders come in between in random order.
        rng = random.Random(6262)
        for _ in range(200):
            n = rng.randint(2, 5)
            m = rng.randint(1, 6)
            vals = []
            for _ in range(n):
                values = [rng.randint(0, 4) for _ in range(m)]
                if rng.random() < 0.5:
                    vals.append(budget_additive(values, max(values)))
                else:
                    vals.append(xos(values, [rng.randint(0, 4) for _ in range(m)]))
            self.check(vals, m)

    @pytest.mark.parametrize("family", ["xos-random", "additive", "budget-additive"])
    def test_generated_instances(self, family):
        rng = random.Random(family)
        shapes = [(9, 10)]
        shapes += [(rng.randint(1, 9), rng.randint(1, 10)) for _ in range(39)]
        for k, (n, m) in enumerate(shapes):
            inst = generate_instance(GeneratorSpec(n, m, family, seed=700 + k))
            self.check(list(inst.valuations), m)

    def test_edge_cases(self):
        self.check([xos((3,))], 1)
        self.check([xos((0, 2, 1), (4, 0, 0))], 3)
        self.check([budget_additive((1, 2, 3), 4)], 3)
        zero = [additive((0, 0)), budget_additive((0, 0), 0), xos((0, 0), (0, 0))]
        self.check(zero, 2)
        self.check([additive((1,)), additive((1,)), budget_additive((1,), 1)], 1)
        self.check([additive((1, 5, 2, 0)), additive((3, 1, 2, 4))], 4)
        self.check(
            [additive((Fraction(1, 2), 3, 2)), additive((1, Fraction(7, 3), 2))], 3
        )

    @pytest.mark.parametrize(
        "vals",
        [
            [xos((2, 0, 5), (1, 0, 1))],
            [xos((2, 0, 5), (1, 4, 1)), xos((3, 3, 0), (0, 1, 6))],
            [additive((4, 0, 2))],
            [additive((4, 1, 2)), additive((3, 2, 2))],
            [budget_additive((4, 3, 2), 5)],
            [budget_additive((4, 3, 2), 5), budget_additive((1, 4, 4), 6)],
        ],
    )
    def test_one_and_two_bidders(self, vals):
        # With one bidder its weights are the answer; with two no full step
        # runs, only the first bidder's table and the last bidder's split of
        # the whole item set.
        self.check(vals, 3)
        sol = brute_force_opt(vals, 3)
        assert (sol.welfare, sol.assignment) == naive_opt(vals, 3)

    def test_twelve_items(self):
        # Four bidders, so both middle steps run at m = 12: a budget-additive
        # bidder, then an XOS bidder. On this seed the optimum depends on the
        # budget step's every-split repair: without it the assignment differs.
        rng = random.Random(13)
        vals = [random_valuation(rng, 12) for _ in range(4)]
        vals[0] = xos(*[[rng.randint(0, 9) for _ in range(12)] for _ in range(3)])
        vals[1] = budget_additive([rng.randint(0, 9) for _ in range(12)], 20)
        vals[2] = xos(*[[rng.randint(0, 9) for _ in range(12)] for _ in range(2)])
        self.check(vals, 12, assignment_cap=4 * 3**12)


class TestWelfare:
    def test_empty_allocation(self):
        assert welfare(Allocation({}, {}), []) == 0

    def test_single_bidder_full_bundle(self):
        alloc = Allocation({0: frozenset({0, 1})}, {})
        assert welfare(alloc, [xos((5, 7))]) == 12

    def test_fixed_price_example_value(self):
        alloc = Allocation({0: frozenset({0}), 1: frozenset({1})}, {})
        assert welfare(alloc, [additive((5, 1)), additive((4, 4))]) == 9

    def test_overlap_rejected(self):
        with pytest.raises(InvariantViolationError):
            Allocation({0: frozenset({0}), 1: frozenset({0})}, {})


def test_xos_step_matches_split_step():
    """One XOS step, per-item passes, against trying every split with the
    bidder's weights factor * max_c c(S) + tie(S), on arbitrary tables."""

    def total(row, mask):
        return sum(x for j, x in enumerate(row) if mask >> j & 1)

    rng = random.Random(1313)
    for trial in range(300):
        m = rng.randint(1, 7)
        size = 1 << m
        if trial % 3 == 0:
            prev = [rng.randint(-50, 50) for _ in range(size)]
        elif trial % 3 == 1:
            prev = [rng.randint(0, 1) for _ in range(size)]
        else:
            prev = [rng.randint(0, 10**12) for _ in range(size)]
        rows = [[rng.randint(0, 3) for _ in range(m)] for _ in range(rng.randint(1, 4))]
        factor = rng.randint(0, 4)
        tie = [rng.randint(0, 3) for _ in range(m)]
        weight = [
            factor * max(total(row, mask) for row in rows) + total(tie, mask)
            for mask in range(size)
        ]
        assert _xos_step(prev, rows, factor, tie, m) == split_step(prev, weight)


def test_budget_step_matches_split_step():
    """One budget-additive step, scaled passes with every-split repair, against
    trying every split with the bidder's weights factor * min(cap, a(S)) +
    tie(S), on arbitrary tables and caps from zero to past the row sum."""

    def total(row, mask):
        return sum(x for j, x in enumerate(row) if mask >> j & 1)

    rng = random.Random(2121)
    repaired = 0
    for trial in range(500):
        m = rng.randint(1, 7)
        size = 1 << m
        if trial % 3 == 0:
            prev = [rng.randint(-50, 50) for _ in range(size)]
        elif trial % 3 == 1:
            prev = [rng.randint(0, 1) for _ in range(size)]
        else:
            prev = [rng.randint(0, 10**12) for _ in range(size)]
        row = [rng.choice([0, 1, 2, 5]) for _ in range(m)]
        positive = [x for x in row if x] or [1]
        caps = [
            0,
            min(positive) - 1,
            (min(positive) + sum(row)) // 2,
            sum(row),
            sum(row) + 1 + rng.randint(0, 3),
        ]
        cap = caps[trial % 5]
        factor = rng.randint(0, 4)
        tie = [rng.randint(0, 3) for _ in range(m)]
        weight = [
            factor * min(cap, total(row, mask)) + total(tie, mask)
            for mask in range(size)
        ]
        got = _budget_step(prev, row, cap, factor, tie, m, weight)
        assert got == split_step(prev, weight)
        uncapped = [factor * total(row, mask) + total(tie, mask) for mask in range(size)]
        repaired += got != split_step(prev, uncapped)
    # The cap changes the table often enough that the repair is exercised.
    assert repaired > 100
