"""Command-line interface.

Subcommands:

* ``gen``       -- generate a random instance file from a generator spec
* ``params``    -- solve the discretization parameters for a price range
* ``run``       -- Monte Carlo experiment over one instance (CSV + summary)
* ``trace``     -- per-iteration analysis quantities against the oracle
* ``truthtest`` -- deviation sweep; exits nonzero if any deviation ever pays

Exit codes: 0 on success, 1 when a truthfulness or invariant check fails,
2 on bad input or configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import AuctionLabError, ConfigError, InvariantViolationError
from .harness import (
    ExperimentConfig,
    GeneratorSpec,
    generate_instance,
    report_to_csv,
    run_experiment,
    truthfulness_report,
)
from .instances import dump_instance, load_instance
from .mechanism import CoinTape, check_market, price_learning_mechanism
from .oracle import brute_force_opt
from .price_tree import solve_parameters
from .rationals import ZERO, as_rational, format_rational
from .trace import build_trace, check_learnable_or_allocatable

TRACE_CSV_HEADER = (
    "seed,iteration,correct_items,correct_mass,auction_welfare_mean,"
    "learnable_change,learnable_realized,allocatable_realized,overestimate_ok"
)


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        with open(args.spec) as fp:
            data = json.load(fp)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"unreadable generator spec: {exc}") from None
    spec = GeneratorSpec.from_dict(data)
    instance = generate_instance(spec)
    dump_instance(instance, args.output)
    print(f"wrote {instance.bidder_count} bidders x {instance.item_count} items to {args.output}")
    return 0


def _rational_arg(text: str) -> Fraction:
    try:
        return as_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"not a rational number: {text!r}: {exc}"
        ) from None


def _cmd_params(args: argparse.Namespace) -> int:
    params = solve_parameters(args.psi_min, args.psi_max)
    print(
        json.dumps(
            {
                "alpha": params.alpha,
                "beta": params.beta,
                "gamma": format_rational(params.gamma),
                "t": params.bin_count,
            }
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    config = ExperimentConfig(
        instance=instance,
        trials=args.trials,
        base_seed=args.seed,
        measure_ratio=not args.no_ratio,
    )
    report = run_experiment(config)
    if args.output:
        with open(args.output, "w") as fp:
            fp.write(report_to_csv(report))
    print(json.dumps(report.to_summary(), indent=2))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    if args.min_seeds < 0:
        raise ConfigError(f"--min-seeds must be nonnegative, got {args.min_seeds}")
    instance = load_instance(args.instance)
    check_market(instance.bidders(), instance.item_count)
    optimal = brute_force_opt(list(instance.valuations), instance.item_count)
    positive = [q for q in optimal.supporting_prices if q > 0]
    psi_min = min(positive) if positive else Fraction(1)
    psi_max = max(positive) if positive else Fraction(1)

    traces = []
    rows = [TRACE_CSV_HEADER]
    params = None
    for seed in range(args.seeds):
        try:
            run = price_learning_mechanism(
                instance.bidders(), instance.item_count, psi_min, psi_max, CoinTape(seed)
            )
            trace = build_trace(run, optimal, run.tree)
        except InvariantViolationError as exc:
            # Seeds run from 0, so --seeds seed+1 replays the failure.
            raise InvariantViolationError(f"seed {seed}: {exc}") from exc
        params = run.params
        traces.append(trace)
        for diag in trace.iterations:
            level = trace.level(diag.level)
            mean = sum(diag.auction_welfares, ZERO) / len(diag.auction_welfares)
            rows.append(
                f"{seed},{diag.level},{len(level.correct)},"
                f"{format_rational(level.correct_mass)},"
                f"{format_rational(mean)},"
                f"{format_rational(diag.learnable_change)},"
                f"{int(diag.learnable_realized)},{int(diag.allocatable_realized)},"
                f"{int(diag.overestimate_ok)}"
            )
    if args.output:
        with open(args.output, "w") as fp:
            fp.write("\n".join(rows) + "\n")

    report = check_learnable_or_allocatable(
        traces, optimal.welfare, params.alpha, params.beta, min_seeds=args.min_seeds
    )
    summary = {
        "opt": format_rational(optimal.welfare),
        "psi_min": format_rational(psi_min),
        "psi_max": format_rational(psi_max),
        "alpha": params.alpha,
        "beta": params.beta,
        "seeds": report.seed_count,
        "power_warning": report.power_warning,
        "iterations": [
            {
                "iteration": s.iteration,
                "samples": s.samples,
                "learnable_mean_change": s.learnable_mean_change,
                "learnable_threshold": s.learnable_threshold,
                "learnable_holds_95": s.learnable_holds_95,
                "allocatable_mean": s.allocatable_mean,
                "allocatable_threshold": s.allocatable_threshold,
                "allocatable_holds_95": s.allocatable_holds_95,
                "either_holds_95": s.either_holds_95,
            }
            for s in report.iterations
        ],
    }
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_truthtest(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    report = truthfulness_report(instance, args.seeds, args.deviations)
    print(
        json.dumps(
            {
                "runs": report.runs,
                "deviations_checked": report.deviations_checked,
                "violations": list(report.violations),
                "query_budget_violations": list(report.query_budget_violations),
            },
            indent=2,
        )
    )
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auctionlab",
        description="Posted-price mechanism laboratory for XOS combinatorial auctions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--spec", required=True, help="generator spec JSON")
    gen.add_argument("-o", "--output", required=True, help="instance file to write")
    gen.set_defaults(func=_cmd_gen)

    params = sub.add_parser("params", help="solve discretization parameters")
    params.add_argument("--psi-min", required=True, type=_rational_arg)
    params.add_argument("--psi-max", required=True, type=_rational_arg)
    params.set_defaults(func=_cmd_params)

    run = sub.add_parser("run", help="Monte Carlo experiment on an instance")
    run.add_argument("--instance", required=True)
    run.add_argument("--trials", type=int, default=100)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--no-ratio", action="store_true", help="skip the oracle")
    run.add_argument("-o", "--output", help="per-trial CSV path")
    run.set_defaults(func=_cmd_run)

    trace = sub.add_parser("trace", help="analysis quantities vs the oracle")
    trace.add_argument("--instance", required=True)
    trace.add_argument("--seeds", type=int, default=100)
    trace.add_argument("--min-seeds", type=int, default=100)
    trace.add_argument("-o", "--output", help="per-iteration CSV path")
    trace.set_defaults(func=_cmd_trace)

    truth = sub.add_parser("truthtest", help="deviation sweep (must be clean)")
    truth.add_argument("--instance", required=True)
    truth.add_argument("--seeds", type=int, default=25)
    truth.add_argument("--deviations", type=int, default=10)
    truth.set_defaults(func=_cmd_truthtest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except AuctionLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
