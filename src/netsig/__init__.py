"""Exact and Monte Carlo batch-failure signatures of two-state networks."""

from .combinatorics import (
    StratumTable,
    binomial,
    build_stratum_table,
    enumerate_orders,
    n_star,
    random_order,
    stirling2,
    unrank_order,
)
from .engine import (
    MResult,
    SampledTSignature,
    TSignature,
    calculate_m,
    classic_signature,
    exact_tsignature,
)
from .errors import (
    ContractError,
    EnumerationCapError,
    GraphParseError,
    NetworkValidationError,
    UnsupportedModeError,
)
from .fixtures import fixture_path, load_fixture
from .graph import Network, parse_network
from .reliability import (
    CountingModel,
    ReliabilityCurve,
    binomial_model,
    count_cdf,
    poisson_model,
    survival_mixture,
)
from .sampling import SamplingPlan, approx_tsignature

__version__ = "0.2.0"

__all__ = [
    "StratumTable",
    "binomial",
    "build_stratum_table",
    "enumerate_orders",
    "n_star",
    "random_order",
    "stirling2",
    "unrank_order",
    "MResult",
    "SampledTSignature",
    "TSignature",
    "calculate_m",
    "classic_signature",
    "exact_tsignature",
    "ContractError",
    "EnumerationCapError",
    "GraphParseError",
    "NetworkValidationError",
    "UnsupportedModeError",
    "fixture_path",
    "load_fixture",
    "Network",
    "parse_network",
    "CountingModel",
    "ReliabilityCurve",
    "binomial_model",
    "count_cdf",
    "poisson_model",
    "survival_mixture",
    "SamplingPlan",
    "approx_tsignature",
    "__version__",
]
