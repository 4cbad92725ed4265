"""Where the tracer hooks into netsig, and the per-layer metrics it yields.

Wrappers go on the names the callers look up: the CLI's imported names for
the phases, `netsig.engine.iter_base_partitions` and
`netsig.sampling.random_order` / `_order_m` (imported by name), and the
`BitGraph` methods on the class.
"""

from __future__ import annotations

from tracer import Tracer


def install(tracer: Tracer, hot: bool) -> None:
    """Patch wrappers into netsig.  Phases (parse, table build, kernel,
    emit) are always wrapped and kept as spans; with `hot`, the per-query
    calls are wrapped too."""
    import netsig.cli as cli
    import netsig.engine as engine
    import netsig.reliability as reliability
    import netsig.sampling as sampling
    from netsig._bitgraph import TABLE_MAX_LINKS, BitGraph

    for owner, attr, name in (
        (cli, "parse_network", "graph.parse_network"),
        (cli, "_load_signature_input", "cli.load_signature_input"),
        (cli, "exact_tsignature", "engine.exact_tsignature"),
        (cli, "approx_tsignature", "sampling.approx_tsignature"),
        (cli, "survival_mixture", "reliability.survival_mixture"),
        (cli, "_emit", "cli.emit"),
        (sampling, "build_stratum_table", "combinatorics.stratum_table"),
    ):
        tracer.patch(owner, attr, tracer.wrap(name, getattr(owner, attr), span=True))

    init = BitGraph.__init__
    table_build = tracer.wrap("bitgraph.table_build", init, span=True)

    def __init__(self, net, build_table=False):
        builds = build_table and len(net.links) <= TABLE_MAX_LINKS
        (table_build if builds else init)(self, net, build_table)

    tracer.patch(BitGraph, "__init__", __init__)
    if not hot:
        return

    tracer.patch(engine, "iter_base_partitions",
                 tracer.wrap_generator("combinatorics.partitions", engine.iter_base_partitions))
    tracer.patch(sampling, "random_order", tracer.wrap("combinatorics.random_order", sampling.random_order))
    tracer.patch(sampling, "_order_m", tracer.wrap("engine.order_m", sampling._order_m))
    tracer.patch(reliability, "count_cdf", tracer.wrap("reliability.count_cdf", reliability.count_cdf))
    tracer.patch(BitGraph, "connected", tracer.wrap("bitgraph.connected", BitGraph.connected))
    tracer.patch(BitGraph, "_bfs_connected", tracer.wrap("bitgraph.bfs", BitGraph._bfs_connected))

    min_subset_size = BitGraph.min_subset_size

    def probed(self, removed_mask, block, cache=None):
        # A hit is a key already present before the call; the key format is
        # the one BitGraph.min_subset_size caches under.
        if cache is not None:
            block_mask = 0
            for link in block:
                block_mask |= 1 << (link - 1)
            if (removed_mask, block_mask) in cache:
                tracer.extra["min_subset.hits"] += 1
            tracer.caches[id(cache)] = cache
        return min_subset_size(self, removed_mask, block, cache)

    tracer.patch(BitGraph, "min_subset_size", tracer.wrap("bitgraph.min_subset", probed))


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def lib_seconds(phases: Tracer) -> float:
    """Library time of an in-process run: input parse plus kernel."""
    return sum(
        phases.busy(name)
        for name in (
            "graph.parse_network",
            "cli.load_signature_input",
            "engine.exact_tsignature",
            "sampling.approx_tsignature",
            "reliability.survival_mixture",
        )
    )


def per_layer(phases: Tracer, hot: Tracer, orders: int, samples: int) -> dict[str, float]:
    """Per-layer metrics: phase times from the run with phase wrappers only,
    counts and self times of hot calls from the fully traced run.  `orders`
    is the number of orders scored (n* or samples); `samples` is 0 unless
    the workload samples."""
    connected = hot.calls("bitgraph.connected")
    table_misses = hot.calls_under("bitgraph.bfs", "bitgraph.connected")
    ms_calls = hot.calls("bitgraph.min_subset")
    ms_hits = hot.extra["min_subset.hits"]
    random_orders = hot.calls("combinatorics.random_order")
    cdf_calls = hot.calls("reliability.count_cdf")
    return {
        "graph.parse_s": phases.busy("graph.parse_network") + phases.busy("cli.load_signature_input"),
        "bitgraph.table_build_s": phases.busy("bitgraph.table_build"),
        "bitgraph.connected.calls": connected,
        "bitgraph.table_answer_ratio": _ratio(connected - table_misses, connected),
        "bitgraph.bfs.calls": hot.calls("bitgraph.bfs"),
        "bitgraph.bfs.self_s": hot.self_time("bitgraph.bfs"),
        "bitgraph.min_subset.calls": ms_calls,
        "bitgraph.min_subset.self_s": hot.self_time("bitgraph.min_subset"),
        "bitgraph.min_subset.cache_hit_ratio": _ratio(ms_hits, ms_calls),
        "bitgraph.min_subset.queries_per_miss": _ratio(
            hot.calls_under("bitgraph.connected", "bitgraph.min_subset"), ms_calls - ms_hits
        ),
        "bitgraph.min_subset.cache_entries": sum(len(c) for c in hot.caches.values()),
        "engine.self_s": hot.self_time("engine.exact_tsignature") + hot.self_time("engine.order_m"),
        "engine.orders_per_query": _ratio(orders, connected),
        "combinatorics.partitions.count": hot.calls("combinatorics.partitions"),
        "combinatorics.partitions.self_s": hot.self_time("combinatorics.partitions"),
        "combinatorics.random_order.calls": random_orders,
        "combinatorics.random_order.us_per_call": 1e6 * _ratio(hot.busy("combinatorics.random_order"), random_orders),
        "sampling.self_s": hot.self_time("sampling.approx_tsignature"),
        "sampling.us_per_sample": 1e6 * _ratio(phases.busy("sampling.approx_tsignature"), samples),
        "reliability.count_cdf.calls": cdf_calls,
        "reliability.count_cdf.us_per_call": 1e6 * _ratio(hot.busy("reliability.count_cdf"), cdf_calls),
        "reliability.survival_mixture.self_s": hot.self_time("reliability.survival_mixture"),
        "cli.emit_s": phases.busy("cli.emit"),
    }


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name.endswith((".calls", ".count", ".cache_entries")):
        return "count"
    return "ratio"


# Metrics that must read the same in every traced run on the same input.
COUNT_METRICS = (
    "bitgraph.connected.calls",
    "bitgraph.table_answer_ratio",
    "bitgraph.bfs.calls",
    "bitgraph.min_subset.calls",
    "bitgraph.min_subset.cache_hit_ratio",
    "bitgraph.min_subset.queries_per_miss",
    "bitgraph.min_subset.cache_entries",
    "engine.orders_per_query",
    "combinatorics.partitions.count",
    "combinatorics.random_order.calls",
    "reliability.count_cdf.calls",
)
