"""Monte Carlo approximation of the batch-failure signature.

Orders are drawn uniformly over the full order space: one uniform integer u
below n* per sample, whose order is `combinatorics.unrank_order(table, u)`,
`table` being the cumulative block-count weights of `build_stratum_table`
(whose last entry is n*).  The sample is decoded lazily:
`_unrank_partition` gives the base partition and the block-permutation
rank, and the one M scorer, `engine._order_m`, does the rank's Fisher-Yates
swaps from the last position down inside its union pass, so it places only
the blocks from the fatal block on.

Reproducibility contract: sample j draws from its own counter-based stream
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
Its c-th block (c = 0, 1, 2, ...) is the 512-bit BLAKE2b digest, keyed by
the seed's 8 little-endian bytes and personalized b"netsig order", of the
16 little-endian bytes of c * 2**64 + j.  A uniform integer below x is the
top x.bit_length() bits of the next block (of the next blocks, joined, past
512 bits), redrawn from the following blocks until it is below x.  The
stream depends on (seed, j) alone, so a run is bit-identical for a fixed
(seed, sample_count) no matter how the samples are split across workers;
another stream of the same sample would take another personalization.
Seeds lie in [0, 2**64) and sample indices below 2**64.
"""

from __future__ import annotations

from ._bitgraph import BitGraph
from .combinatorics import _unrank_partition, build_stratum_table
# Not called here: it stays until perfbench/layers.py drops its trace wrapper
# of this name.
from .combinatorics import random_order  # noqa: F401
from .engine import TSignature, _check_m_mode, _check_workers, _order_m, _run_histogram
from .graph import Network

_DIGEST_BITS = 512
_ORDER_STREAM = b"netsig order"


def _sample_rank(keyed, index: int, x: int) -> int:
    """The uniform integer below x of sample `index`, drawn from the digests
    of `keyed` (the seed-keyed BLAKE2b of `_seed_hash`) updated with the 16
    bytes of counter * 2**64 + index, as the module docstring sets out."""
    bits = x.bit_length()
    digests = -(-bits // _DIGEST_BITS)
    counter = 0
    while True:
        u = 0
        for _ in range(digests):
            h = keyed.copy()
            h.update((counter << 64 | index).to_bytes(16, "little"))
            counter += 1
            u = u << _DIGEST_BITS | int.from_bytes(h.digest(), "big")
        u >>= digests * _DIGEST_BITS - bits
        if u < x:
            return u


def _seed_hash(seed: int):
    """BLAKE2b keyed by the seed: the root of every sample's order stream."""
    # Imported here, so only sampling pays for it; the builtin BLAKE2b
    # spares hashlib's OpenSSL binding.
    try:
        from _blake2 import blake2b
    except ImportError:
        from hashlib import blake2b

    return blake2b(key=seed.to_bytes(8, "little"), person=_ORDER_STREAM)


def _draw_orders(net, worker_id, workers, counts, m_mode, seed, sample_count) -> None:
    """Draw and score the samples with index % workers == worker_id: one
    rank per sample, decoded by the scorer up to the fatal block.  Only the
    greedy count queries the connectivity table, so only it builds a graph
    of its own; the minimum subset is scored on the network's."""
    bg = BitGraph(net, build_table=True) if m_mode == "paper-greedy" else net.bitgraph
    table = build_stratum_table(net.n)
    keyed = _seed_hash(seed)
    n_star = table[-1]
    for j in range(worker_id, sample_count, workers):
        blocks, perm = _unrank_partition(table, _sample_rank(keyed, j, n_star))
        counts[_order_m(bg, blocks, perm, m_mode) - 1] += 1


def approx_tsignature(
    net: Network,
    sample_count: int,
    seed: int = 0,
    workers: int = 1,
    m_mode: str = "exact-subset",
) -> TSignature:
    """Sampled signature of `sample_count` orders drawn from the stream of
    `seed`; its `std_error` gives the per-component binomial standard
    errors."""
    if not 1 <= sample_count <= 2**64:
        raise ValueError(f"sample_count must lie in [1, 2**64], got {sample_count}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    _check_workers(workers)
    _check_m_mode(net, m_mode)
    counts = _run_histogram(net, workers, _draw_orders, m_mode, seed, sample_count)
    return TSignature(
        n=net.n, counts=counts, total=sample_count, mode="sampled", m_mode=m_mode
    )
