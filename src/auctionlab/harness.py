"""Instance generation, Monte Carlo experiments, and truthfulness sweeps.

Everything here is deterministic given its seeds: generated instances depend
only on the generator seed, trial tapes are seeded ``base_seed + trial``, and
reports aggregate per-seed results in seed order, so a rerun of the same
configuration reproduces its CSV byte for byte.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .errors import ConfigError, InvariantViolationError
from .instances import Instance, instance_to_dict, valuation_to_dict
from .mechanism import (
    CoinTape,
    MechanismOutcome,
    check_market,
    final_mechanism,
    sha256,
    utility_terms,
)
from .oracle import brute_force_opt
from .rationals import as_rational, format_rational
from .valuations import Valuation, on_grid

FAMILIES = ("xos-random", "additive", "budget-additive")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a random instance.

    Clause entries are drawn log-uniformly from ``value_range`` and quantized
    to two decimals, so supporting prices spread over several geometric bins
    instead of clumping at one scale.
    """

    bidder_count: int
    item_count: int
    family: str = "xos-random"
    clause_count: tuple[int, int] = (2, 3)
    value_range: tuple[Fraction, Fraction] = (Fraction(1), Fraction(100))
    seed: int = 0

    def __post_init__(self) -> None:
        for name, value in (
            ("n", self.bidder_count),
            ("m", self.item_count),
            ("seed", self.seed),
        ):
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.bidder_count < 0 or self.item_count < 0:
            raise ConfigError("bidder and item counts must be nonnegative")
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        try:
            lo, hi = self.clause_count
        except (TypeError, ValueError):
            raise ConfigError(
                f"clause count must be a pair of integers, got {self.clause_count!r}"
            ) from None
        if not (_is_int(lo) and _is_int(hi) and 1 <= lo <= hi):
            raise ConfigError(f"invalid clause count range {self.clause_count}")
        lo, hi = self.value_range
        if not 0 < lo <= hi:
            raise ConfigError(
                '"value_range" must satisfy 0 < lo <= hi, '
                f"got {format_rational(lo)} and {format_rational(hi)}"
            )
        # The log-uniform draw takes float logs of lo and of bounds up to the
        # largest budget, m * hi, in cents; float() raises past the range.
        try:
            math.log(float(lo))
            float(100 * max(1, self.item_count) * hi)
        except (OverflowError, ValueError):
            raise ConfigError(
                "value_range lies outside the float range of the log-uniform draw"
            ) from None

    @staticmethod
    def from_dict(data: dict) -> "GeneratorSpec":
        if not isinstance(data, dict):
            raise ConfigError(
                f"generator spec must hold a JSON object, got {type(data).__name__}"
            )
        for name in ("n", "m"):
            if name not in data:
                raise ConfigError(f'bad generator spec: missing field "{name}"')
        for name in ("clause_count", "value_range"):
            # A string here would be read character by character.
            if name in data and not isinstance(data[name], list):
                raise ConfigError(
                    f'bad generator spec: "{name}" must be a list, '
                    f"got {type(data[name]).__name__}"
                )
        raw_range = data.get("value_range", ["1", "100"])
        if len(raw_range) != 2:
            raise ConfigError(
                'bad generator spec: "value_range" must hold two numbers, '
                f"got {len(raw_range)}"
            )
        try:
            value_range = tuple(as_rational(x) for x in raw_range)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f'bad generator spec: "value_range": {exc}') from None
        try:
            return GeneratorSpec(
                bidder_count=data["n"],
                item_count=data["m"],
                family=data.get("family", "xos-random"),
                clause_count=tuple(data.get("clause_count", (2, 3))),
                value_range=value_range,
                seed=data.get("seed", 0),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad generator spec: {exc}") from None


# A random exact value, drawn as its numerator over a grid the caller fixes.
Draw = Callable[[random.Random], int]


def _log_uniform_cents(low: int, high: int, grid: int) -> Draw:
    """Log-uniform draws from [low / grid, high / grid], quantized to cents,
    exactly in range, each as its numerator over ``grid``.

    The caller fixes ``grid``, a multiple of 100, so cents are whole numbers
    on it. The logs of the bounds (``low / grid`` is correctly rounded, as
    the float of a ``Fraction`` is) and the cents grid points inside the
    range are worked out once per bound pair; each draw takes the float
    ``rng.uniform(log_lo, log_hi)`` gives, with one ``rng.random()``, and
    clamps the rounded cents as integers. A draw below
    the first cent inside the range gives ``low`` and one above the last
    gives ``high``, so off-cent bounds are returned as they are. With
    ``low == high`` a draw returns ``low`` and takes nothing from ``rng``.
    """
    if low == high:
        return lambda rng: low
    log_lo, log_hi = math.log(low / grid), math.log(high / grid)
    span = log_hi - log_lo
    cent = grid // 100
    first, last = -(-low // cent), high // cent

    def draw(rng: random.Random) -> int:
        cents = round(math.exp(log_lo + span * rng.random()) * 100)
        if cents < first:
            return low
        if cents > last:
            return high
        return cents * cent

    return draw


def _cents_grid(*bounds: Fraction) -> tuple[int, list[int]]:
    """The least multiple of 100 on which every one of ``bounds`` is whole,
    and the bounds as numerators over it."""
    grid = math.lcm(100, *(x.denominator for x in bounds))
    return grid, [x.numerator * grid // x.denominator for x in bounds]


def generate_instance(spec: GeneratorSpec) -> Instance:
    rng = random.Random(spec.seed)
    m = spec.item_count
    grid, (low, high) = _cents_grid(*spec.value_range)
    draw = _log_uniform_cents(low, high, grid)

    def draw_row() -> list[int]:
        return [draw(rng) for _ in range(m)]

    valuations: list[Valuation] = []
    for _ in range(spec.bidder_count):
        if spec.family == "additive":
            valuations.append(on_grid(grid, [draw_row()]))
        elif spec.family == "xos-random":
            clauses = rng.randint(*spec.clause_count)
            valuations.append(on_grid(grid, [draw_row() for _ in range(clauses)]))
        else:
            values = draw_row()
            total = sum(values)
            # The budget's bounds are on the values' grid already.
            budget = _log_uniform_cents(max(values), total, grid)(rng) if total else 0
            valuations.append(on_grid(grid, [values], budget))
    return Instance(m, tuple(valuations))


@dataclass(frozen=True)
class ExperimentConfig:
    instance: Instance
    trials: int
    base_seed: int = 0
    measure_ratio: bool = True
    oracle_cap: int = 10**8

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class TrialResult:
    seed: int
    branch: str
    welfare: Fraction
    payments_total: Fraction
    demand_queries: int
    value_queries: int


@dataclass(frozen=True)
class ExperimentReport:
    trials: tuple[TrialResult, ...]
    mean_welfare: Fraction
    opt: Optional[Fraction]
    ratio_of_means: Optional[Fraction]
    ratio_quantiles: dict[str, str] = field(default_factory=dict)

    def to_summary(self) -> dict:
        out = {
            "trials": len(self.trials),
            "mean_welfare": format_rational(self.mean_welfare),
            "opt": None if self.opt is None else format_rational(self.opt),
            "ratio_of_means": None
            if self.ratio_of_means is None
            else format_rational(self.ratio_of_means),
            "ratio_quantiles": self.ratio_quantiles,
            "branch_counts": {},
        }
        for t in self.trials:
            out["branch_counts"][t.branch] = out["branch_counts"].get(t.branch, 0) + 1
        return out


CSV_HEADER = "trial_seed,branch,welfare,payments_total,demand_queries,value_queries"

QUANTILES = (("q00", 0.0), ("q25", 0.25), ("q50", 0.5), ("q75", 0.75), ("q90", 0.9), ("q100", 1.0))


def _ratio_quantiles(opt: int, welfares: Iterable[int]) -> dict[str, str]:
    """The ``QUANTILES`` of the per-trial ratios opt / w, the optimum and
    the welfares given as numerators on one grid: "inf" where w = 0, and "1"
    throughout when opt = 0. opt / w falls as w rises, so the ratios in
    rising order are the welfares in falling order, sorted as integers, and
    a ``Fraction`` is built only for each rank read."""
    if opt == 0:
        return {name: "1" for name, _ in QUANTILES}
    falling = sorted(welfares, reverse=True)
    out = {}
    for name, level in QUANTILES:
        w = falling[max(1, math.ceil(level * len(falling))) - 1]
        out[name] = format_rational(Fraction(opt, w)) if w > 0 else "inf"
    return out


def run_trial(instance: Instance, seed: int) -> TrialResult:
    outcome = final_mechanism(instance.bidders(), instance.item_count, CoinTape(seed))
    return TrialResult(
        seed=seed,
        branch=outcome.branch,
        welfare=outcome.welfare,
        payments_total=outcome.allocation.total_payments,
        demand_queries=sum(outcome.demand_queries.values()),
        value_queries=sum(outcome.value_queries.values()),
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the mechanism over ``trials`` independent tapes and aggregate.

    The optimum comes from the exact oracle; requesting the ratio on an
    instance beyond the oracle cap raises ``CapabilityError`` (rerun with
    ``measure_ratio=False`` for welfare-only reports). Convention: a zero
    optimum reports ratio 1. An instance outside the mechanism's domain is
    refused before the oracle runs. The welfares and the optimum are put on
    one integer grid, the least common multiple of their denominators, and
    the mean, the check against the optimum and the quantile ranks are
    worked out there; a ``Fraction`` is built only for a reported figure.
    """
    instance = config.instance
    check_market(instance.bidders(), instance.item_count)
    opt: Optional[Fraction] = None
    if config.measure_ratio:
        opt = brute_force_opt(
            list(instance.valuations),
            instance.item_count,
            assignment_cap=config.oracle_cap,
        ).welfare

    trials = [
        run_trial(instance, config.base_seed + k) for k in range(config.trials)
    ]
    dens = [t.welfare.denominator for t in trials]
    grid = math.lcm(*dens, 1 if opt is None else opt.denominator)
    welfares = [t.welfare.numerator * (grid // d) for t, d in zip(trials, dens)]
    total = sum(welfares)
    mean_welfare = Fraction(total, grid * len(trials))

    ratio = None
    quantiles: dict[str, str] = {}
    if opt is not None:
        top = opt.numerator * (grid // opt.denominator)
        for t, w in zip(trials, welfares):
            if w > top:
                raise InvariantViolationError(
                    f"trial {t.seed} produced welfare {t.welfare} above the "
                    f"optimum {opt}; the oracle or mechanism is broken"
                )
        if top == 0:
            ratio = Fraction(1)
        elif total > 0:
            # opt / mean = (top / grid) / (total / (grid * trials))
            ratio = Fraction(top * len(trials), total)
        quantiles = _ratio_quantiles(top, welfares)
    return ExperimentReport(tuple(trials), mean_welfare, opt, ratio, quantiles)


def report_to_csv(report: ExperimentReport) -> str:
    lines = [CSV_HEADER]
    for t in report.trials:
        lines.append(
            f"{t.seed},{t.branch},{format_rational(t.welfare)},"
            f"{format_rational(t.payments_total)},{t.demand_queries},{t.value_queries}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TruthfulnessReport:
    runs: int
    deviations_checked: int
    violations: tuple[dict, ...]
    query_budget_violations: tuple[dict, ...]

    @property
    def clean(self) -> bool:
        return not self.violations and not self.query_budget_violations


# The value range the random lies' entries and budgets are drawn around.
LIE_VALUE_RANGE = (Fraction(1), Fraction(100))


def _deviation(
    rng: random.Random, m: int, grid: int, entry: Draw, budget: Draw, hidden: Valuation
) -> Valuation:
    """A random lie: ``hidden``, the worthless report over ``m`` items, which
    a sweep builds once; an XOS report of 1-3 clauses; or a budget-additive
    report, with entries and budget drawn by ``entry`` and ``budget`` as
    numerators over ``grid``."""
    kind = rng.random()
    if kind < 0.15:
        return hidden  # hide entirely
    if kind < 0.55:
        rows = [[entry(rng) for _ in range(m)] for _ in range(rng.randint(1, 3))]
        return on_grid(grid, rows)
    values = [entry(rng) for _ in range(m)]
    return on_grid(grid, [values], budget(rng))


def _query_budget_check(outcome: MechanismOutcome, seed: int) -> list[dict]:
    """Bidders demand-queried more than alpha times, or at all outside the
    learning groups: in the statistics group or in a second-price run."""
    if not outcome.demand_queries:
        return []
    grouped = {b for group in outcome.groups for b in group}
    return [
        {"seed": seed, "bidder": bidder, "demand_queries": count}
        for bidder, count in outcome.demand_queries.items()
        if bidder not in grouped or count > outcome.params.alpha
    ]


def _gain(utility: tuple[int, int], base: tuple[int, int]) -> Optional[Fraction]:
    """utility - base (as ``utility_terms`` gives them) if positive, else None."""
    num = utility[0] * base[1] - base[0] * utility[1]
    return Fraction(num, utility[1] * base[1]) if num > 0 else None


def instance_digest(instance: Instance) -> str:
    """The sha256 hex digest of the instance's compact, key-sorted JSON."""
    text = json.dumps(instance_to_dict(instance), sort_keys=True, separators=(",", ":"))
    return sha256(text.encode()).hexdigest()


def truthfulness_report(
    instance: Instance,
    seeds: int,
    deviations: int,
    *,
    deviation_seed: int = 0,
) -> TruthfulnessReport:
    """Replay every tape against deviating reports; collect any utility gain.

    For each tape seed, each bidder, and each of ``deviations`` random
    alternative reports, the deviator's utility (measured with its true
    valuation) must not exceed its truthful utility -- exactly, on the
    integer ``utility_terms``; a gain is built as a ``Fraction`` only for a
    violation, which names the seed, the bidder, the gain, the lie, as an
    instance-format bidder entry, and the instance, by ``instance_digest``,
    so that ``final_mechanism`` on ``CoinTape(seed)`` with the lie in place
    replays it on the instance it names. Also audits the per-bidder
    demand-query budget of every run touched; a violation found in a
    deviating run names the deviator, the lie and the instance the same way.
    A sweep with no runs would read clean without checking anything, so
    ``seeds < 1`` or ``deviations < 0`` raises ``ConfigError``; a market the
    mechanism refuses is refused by ``check_market``.

    Every deviation replays the honest run's tape, and the mechanism reads a
    report only through a query it records, so a lie by a bidder the honest
    run never queried cannot change that run: ``final_mechanism`` returns the
    honest outcome itself, without running, and it takes the honest run's
    verdict. Such a lie is still drawn and handed over, so the lies after it
    and the report are the same; a lie that hides entirely is one object.
    """
    if seeds < 1:
        raise ConfigError(f"seeds must be at least 1, got {seeds}")
    if deviations < 0:
        raise ConfigError(f"deviations must be nonnegative, got {deviations}")
    bidders = instance.bidders()
    m = instance.item_count
    check_market(bidders, m)
    rng = random.Random(deviation_seed)
    lo, hi = LIE_VALUE_RANGE
    # One grid for entries and budgets, so lies are built as drawn.
    grid, (low, high, top) = _cents_grid(lo / 2, hi * 2, hi * m)
    entry = _log_uniform_cents(low, high, grid)
    budget = _log_uniform_cents(low, top, grid)
    hidden = Valuation(1, ((0,) * m,))  # every lie that hides entirely
    violations: list[dict] = []
    budget_violations: list[dict] = []
    runs = 0
    checked = 0

    for seed in range(seeds):
        # Every deviation replays the honest run's tape: its draws are made
        # once per seed, the tape keeps the honest run for the deviations
        # it never read, and both go when the seed is done.
        tape = CoinTape(seed)
        honest = final_mechanism(bidders, m, tape)
        runs += 1
        honest_over = _query_budget_check(honest, seed)
        budget_violations.extend(honest_over)
        base = {b: utility_terms(honest, b, v) for b, v in bidders}
        for b, truth in bidders:
            for _ in range(deviations):
                lie = _deviation(rng, m, grid, entry, budget, hidden)
                twisted = list(bidders)
                twisted[b] = (b, lie)
                outcome = final_mechanism(twisted, m, tape.replay())
                runs += 1
                checked += 1
                fresh = outcome is not honest  # else the honest verdict: no gain
                over = _query_budget_check(outcome, seed) if fresh else honest_over
                gain = fresh and _gain(utility_terms(outcome, b, truth), base[b])
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
