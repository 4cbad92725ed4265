"""Monte Carlo approximation of the batch-failure signature.

Orders are drawn uniformly over the full order space through stratification
on the block count (probability proportional to the stratum size k!*S(n,k)),
then scored exactly like the enumeration pipeline.

Reproducibility contract: the random stream for sample j is derived from
(seed, j) alone, so a run is bit-identical for a fixed (seed, sample_count)
no matter how the samples are split across workers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ._bitgraph import BitGraph
from .combinatorics import build_stratum_table, random_order
from .engine import SampledTSignature, _check_m_mode, _order_m, _run_histogram
from .graph import Network

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class SamplingPlan:
    sample_count: int
    seed: int = 0
    workers: int = 1
    m_mode: str = "exact-subset"

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def _sample_rng(seed: int, index: int) -> random.Random:
    # Counter-based derivation: one independent stream per sample index.
    return random.Random(((seed & _SEED_MASK) << 64) | index)


def _draw_orders(net, worker_id, workers, counts, m_mode, seed, sample_count) -> None:
    """Draw and score the samples with index % workers == worker_id."""
    bg = BitGraph(net, build_table=True)
    table = build_stratum_table(net.n)
    for j in range(worker_id, sample_count, workers):
        order = random_order(table, _sample_rng(seed, j))
        counts[_order_m(bg, order, m_mode, None) - 1] += 1


def approx_tsignature(net: Network, plan: SamplingPlan) -> SampledTSignature:
    """Sampled signature with per-component binomial standard errors."""
    _check_m_mode(net, plan.m_mode)
    n_samples = plan.sample_count
    counts = _run_histogram(
        net, plan.workers, _draw_orders, plan.m_mode, plan.seed, n_samples
    )
    values = [c / n_samples for c in counts]
    std_error = tuple(
        math.sqrt(v * (1.0 - v) / n_samples) for v in values
    )
    return SampledTSignature(
        n=net.n,
        counts=counts,
        total=n_samples,
        mode="sampled",
        m_mode=plan.m_mode,
        std_error=std_error,
    )
