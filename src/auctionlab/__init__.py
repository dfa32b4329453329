"""auctionlab: a posted-price mechanism laboratory for XOS combinatorial auctions.

Exact-rational implementations of the valuation queries, auction primitives,
the iterative price-learning mechanism, a brute-force welfare oracle, and the
diagnostics that compare the two.
"""

from .auction import (
    Allocation,
    PriceVector,
    fixed_price_auction,
    greedy_marginal_value,
    second_price_grand_bundle,
)
from .errors import (
    AuctionLabError,
    CapabilityError,
    ConfigError,
    DomainError,
    InstanceShapeError,
    InvariantViolationError,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    GeneratorSpec,
    generate_instance,
    run_experiment,
    truthfulness_report,
)
from .instances import Instance, dump_instance, load_instance
from .mechanism import (
    CoinTape,
    MechanismOutcome,
    bidder_utility,
    final_mechanism,
    partition_bidders,
    price_learning_mechanism,
    price_update,
)
from .oracle import OptimalSolution, brute_force_opt, welfare
from .price_tree import (
    Params,
    PriceTree,
    build_bins,
    build_modified_tree,
    canonical_vectors,
    solve_parameters,
)
from .trace import AnalysisTrace, build_trace, check_learnable_or_allocatable
from .valuations import (
    Valuation,
    additive,
    budget_additive,
    demand_query,
    supporting_prices,
    value_query,
    xos,
)

__version__ = "0.1.0"
