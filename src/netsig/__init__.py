"""Exact and Monte Carlo batch-failure signatures of two-state networks."""

from .combinatorics import (
    build_stratum_table,
    enumerate_orders,
    n_star,
    random_order,
    unrank_order,
)
from .engine import (
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
from .reliability import count_cdf, survival_mixture
from .sampling import approx_tsignature

__version__ = "0.4.0"

__all__ = [
    "build_stratum_table",
    "enumerate_orders",
    "n_star",
    "random_order",
    "unrank_order",
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
    "count_cdf",
    "survival_mixture",
    "approx_tsignature",
    "__version__",
]
