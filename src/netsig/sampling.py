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
from dataclasses import dataclass, field

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


def _draw_orders(bg, n, worker_id, workers, counts, m_mode, seed, sample_count) -> None:
    """Draw and score the samples with index % workers == worker_id."""
    table = build_stratum_table(n)
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


@dataclass(frozen=True)
class ConvergenceRow:
    seed: int
    sample_count: int
    values: tuple[float, ...]
    std_error: tuple[float, ...]


@dataclass(frozen=True)
class ConvergenceReport:
    """Plain-data sweep over seeds and sample sizes for the CLI to render."""

    rows: tuple[ConvergenceRow, ...]
    # max componentwise deviation across seeds, per sample size
    spread_by_samples: dict[int, float] = field(default_factory=dict)
    # mean-over-seeds vectors per sample size, for shrinkage inspection
    mean_by_samples: dict[int, tuple[float, ...]] = field(default_factory=dict)


def convergence_report(
    net: Network,
    seeds: list[int],
    sample_counts: list[int],
    m_mode: str = "exact-subset",
    workers: int = 1,
) -> ConvergenceReport:
    """Run the sampler for every (seed, sample size) pair and summarize the
    spread across seeds at each sample size."""
    if not seeds or not sample_counts:
        raise ValueError("seeds and sample_counts must be nonempty")
    rows = []
    spread: dict[int, float] = {}
    means: dict[int, tuple[float, ...]] = {}
    for n_samples in sample_counts:
        vectors = []
        for seed in seeds:
            plan = SamplingPlan(
                sample_count=n_samples, seed=seed, workers=workers, m_mode=m_mode
            )
            sig = approx_tsignature(net, plan)
            vectors.append(sig.values)
            rows.append(
                ConvergenceRow(
                    seed=seed,
                    sample_count=n_samples,
                    values=sig.values,
                    std_error=sig.std_error,
                )
            )
        spread[n_samples] = max(
            (
                abs(u[i] - v[i])
                for u in vectors
                for v in vectors
                for i in range(net.n)
            ),
            default=0.0,
        )
        means[n_samples] = tuple(
            sum(v[i] for v in vectors) / len(vectors) for i in range(net.n)
        )
    return ConvergenceReport(
        rows=tuple(rows), spread_by_samples=spread, mean_by_samples=means
    )
