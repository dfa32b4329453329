"""The truthfulness sweep as it was before it reused the honest run's
verdict and one worthless lie, kept as a test oracle.

``harness.truthfulness_report`` takes the honest run's verdict for a replay
that returns the honest outcome itself, and hands every lie that hides
entirely over as one object. ``reference_truthfulness_report`` builds every
lie afresh and checks every replay's utility and demand-query counts; the
two must give equal reports. It looks ``final_mechanism`` up on ``harness``
at each call, so a mechanism planted there runs under both.
"""

from __future__ import annotations

import random

from auctionlab import harness
from auctionlab.errors import ConfigError
from auctionlab.harness import (
    LIE_VALUE_RANGE,
    TruthfulnessReport,
    _cents_grid,
    _deviation,
    _gain,
    _log_uniform_cents,
    _query_budget_check,
    instance_digest,
)
from auctionlab.instances import valuation_to_dict
from auctionlab.mechanism import CoinTape, check_market, utility_terms
from auctionlab.rationals import format_rational
from auctionlab.valuations import Valuation


def reference_truthfulness_report(instance, seeds, deviations, *, deviation_seed=0):
    """Every lie built, every replay checked in full."""
    if seeds < 1:
        raise ConfigError(f"seeds must be at least 1, got {seeds}")
    if deviations < 0:
        raise ConfigError(f"deviations must be nonnegative, got {deviations}")
    bidders = instance.bidders()
    m = instance.item_count
    check_market(bidders, m)
    rng = random.Random(deviation_seed)
    lo, hi = LIE_VALUE_RANGE
    grid, (low, high, top) = _cents_grid(lo / 2, hi * 2, hi * m)
    entry = _log_uniform_cents(low, high, grid)
    budget = _log_uniform_cents(low, top, grid)
    violations = []
    budget_violations = []
    runs = checked = 0
    for seed in range(seeds):
        tape = CoinTape(seed)
        honest = harness.final_mechanism(bidders, m, tape)
        runs += 1
        budget_violations.extend(_query_budget_check(honest, seed))
        base = {b: utility_terms(honest, b, v) for b, v in bidders}
        for b, truth in bidders:
            for _ in range(deviations):
                lie = _deviation(rng, m, grid, entry, budget, Valuation(1, ((0,) * m,)))
                twisted = list(bidders)
                twisted[b] = (b, lie)
                outcome = harness.final_mechanism(twisted, m, tape.replay())
                runs += 1
                checked += 1
                over = _query_budget_check(outcome, seed)
                gain = _gain(utility_terms(outcome, b, truth), base[b])
                if over or gain:
                    replay = {
                        "lie": valuation_to_dict(lie),
                        "instance": instance_digest(instance),
                    }
                    budget_violations.extend(
                        {**v, "deviator": b, **replay} for v in over
                    )
                    if gain:
                        violations.append(
                            {
                                "seed": seed,
                                "bidder": b,
                                "gain": format_rational(gain),
                                **replay,
                            }
                        )
    return TruthfulnessReport(
        runs=runs,
        deviations_checked=checked,
        violations=tuple(violations),
        query_budget_violations=tuple(budget_violations),
    )
