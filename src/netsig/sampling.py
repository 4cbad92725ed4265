"""Monte Carlo approximation of the batch-failure signature.

Orders are drawn uniformly over the full order space: one uniform integer u
below n* per sample, whose order is `combinatorics.unrank_order(table, u)`
for the rank table of `build_stratum_table` (whose last row ends with n*).
That map decodes an order from its last block to its first, so the one M
scorer, `engine._order_m`, decodes the rank itself inside its union pass
and stops at the fatal block: the blocks before it are never placed.  It
reads the table through `engine._rank_constants`, built once per worker.
The m-mode and worker-count checks are `_record`'s, shared with the exact
runs, which do not load `engine` unless they score orders.

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
Seeds lie in [0, 2**64) and sample indices below 2**64.  A worker takes
its draws from one generator, `_sample_ranks`, which works out the digest
count and the shift of a draw once, as both depend on x alone, and reads
only the leading bytes of the digest when one digest holds a draw (x
below 2**512: n* of up to 90 links).  The draws are those of netsig
0.3.0, but 0.4.0 maps each draw to another order (the last-block-first
map), so its counts for a seed differ from 0.3.0's.
"""

from __future__ import annotations

from ._bitgraph import BitGraph
from ._record import TSignature, _check_m_mode, _check_workers
from .combinatorics import build_stratum_table
# Not called here: it stays until perfbench/layers.py drops its trace wrapper
# of this name.
from .combinatorics import random_order  # noqa: F401
from .engine import _order_m, _rank_constants, _run_histogram

_DIGEST_BITS = 512
_ORDER_STREAM = b"netsig order"


def _sample_ranks(keyed, indices, x: int):
    """Yield the uniform integer below x of each sample in `indices`, in
    turn, drawn from the digests of `keyed` (the seed-keyed BLAKE2b of
    `_seed_hash`) updated with the 16 bytes of counter * 2**64 + index, as
    the module docstring sets out."""
    bits = x.bit_length()
    digests = -(-bits // _DIGEST_BITS)
    copy = keyed.copy
    from_bytes = int.from_bytes
    if digests == 1:
        # The top bits of one digest: only the bytes that hold them are
        # read.
        size = -(-bits // 8)
        shift = 8 * size - bits
        for index in indices:
            word = index  # counter * 2**64 + index at counter 0
            while True:
                h = copy()
                h.update(word.to_bytes(16, "little"))
                u = from_bytes(h.digest()[:size], "big") >> shift
                if u < x:
                    break
                word += 1 << 64  # the next counter
            yield u
        return
    shift = digests * _DIGEST_BITS - bits
    for index in indices:
        word = index  # counter * 2**64 + index at counter 0
        while True:
            u = 0
            for _ in range(digests):
                h = copy()
                h.update(word.to_bytes(16, "little"))
                word += 1 << 64  # the next counter
                u = u << _DIGEST_BITS | from_bytes(h.digest(), "big")
            u >>= shift
            if u < x:
                break
        yield u


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
    constants = _rank_constants(table)
    keyed = _seed_hash(seed)
    for u in _sample_ranks(keyed, range(worker_id, sample_count, workers), table[-1][-1]):
        counts[_order_m(bg, constants, u, m_mode) - 1] += 1


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
