"""Exact and Monte Carlo batch-failure signatures of two-state networks.

The public names are imported from their submodules on first use (PEP 562),
so `import netsig` loads no submodule and a CLI call loads only the modules
its command runs.
"""

__version__ = "0.4.0"

# The submodule of each public name, in the order of `__all__`.
_EXPORTS = {
    "combinatorics": ("build_stratum_table", "enumerate_orders", "n_star", "random_order",
                      "unrank_order"),
    "_record": ("TSignature",),
    "engine": ("calculate_m",),
    "frontier": ("classic_signature", "exact_tsignature"),
    "errors": ("ContractError", "EnumerationCapError", "GraphParseError",
               "NetworkValidationError", "UnsupportedModeError"),
    "fixtures": ("fixture_path", "load_fixture"),
    "graph": ("Network", "parse_network"),
    "reliability": ("count_cdf", "survival_mixture"),
    "sampling": ("approx_tsignature",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    """Import a public name, or a submodule that defines one, and bind it."""
    if name in _SOURCE:
        value = getattr(__import__(f"{__name__}.{_SOURCE[name]}", fromlist=[name]), name)
    elif name in _EXPORTS:
        value = __import__(f"{__name__}.{name}", fromlist=[name])
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
