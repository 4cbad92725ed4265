"""Acceptance suite: one test per published-behavior criterion.

Every test records a `[criterion NN] PASS/FAIL` verdict that the conftest
terminal-summary hook prints after the run, one line per criterion.
"""

import functools
import math
import os
import time
from fractions import Fraction

import pytest

from netsig.combinatorics import (
    build_stratum_table,
    enumerate_orders,
    n_star,
    unrank_order,
)
from netsig.engine import calculate_m, classic_signature, exact_tsignature
from netsig.errors import UnsupportedModeError
from netsig.fixtures import load_fixture
from netsig.reliability import survival_mixture
from netsig.sampling import _sample_rank, _seed_hash, approx_tsignature

from conftest import oracle_histogram, random_connected_network

WORKERS = min(8, os.cpu_count() or 1)

# Published reference vectors (values as printed, at source precision).
N_STAR_TABLE = {
    2: 3,
    3: 13,
    4: 75,
    5: 541,
    6: 4_683,
    7: 47_293,
    8: 545_835,
    9: 7_087_261,
    10: 102_247_563,
    11: 1_622_632_573,
    12: 28_091_567_595,
}
N_STAR_26 = 4_002_225_759_844_168_492_486_127_539_083

# Printed for the 7-node benchmark, but no network of that shape has it: kept
# as the recorded discrepancy (README, "Criterion 2 and the published 7-node
# vector").  Criterion 2 pins BENCH7_COUNTS instead.
BENCH7_PUBLISHED = (0.0, 0.1030962, 0.2788933, 0.4374931, 0.1512359, 0.0292814, 0.0, 0.0, 0.0)

# Exact M histogram of the `figure1` fixture over all 7,087,261 orders.  Not
# taken from the engine: `oracle_histogram(load_fixture("figure1"))` in
# conftest.py gives it (about 3 min), and a subset DP over (surviving set R,
# fatal block B), weighting each pair by Fubini(|R|) * Fubini(n - |R| - |B|),
# gives the same integers.
BENCH7_COUNTS = (0, 548_784, 1_556_228, 2_791_442, 1_425_489, 577_271, 188_047, 0, 0)

# Exact M histogram of the `figure2` fixture over all 1,622,632,573 orders,
# from the earlier order-enumeration engine (prefix-pruned block
# permutations of every set partition, 2 workers, 453 s), a second algorithm
# to the frontier min-cut program that computes it now.
BENCH11_COUNTS = (
    0, 42_523_566, 82_929_456, 141_399_642, 244_301_706, 383_304_074,
    349_356_832, 222_385_638, 113_908_093, 42_523_566, 0,
)

BENCH11_EXACT = (0.0, 0.02621, 0.05111, 0.08714, 0.15056, 0.23622, 0.21530, 0.13705, 0.07020, 0.02621, 0.0)

EON_PAR_COP_REFERENCE = (
    0.0, 0.0, 0.0, 0.000107, 0.000370, 0.000868, 0.001716, 0.003077,
    0.005183, 0.008481, 0.013657, 0.021973, 0.035222, 0.055667, 0.084447,
    0.117803, 0.142872, 0.143175, 0.122817, 0.093849, 0.065459, 0.041978,
    0.024496, 0.012354, 0.004428, 0.0,
)


# (number, verdict, headline) rows, printed by the conftest summary hook
SCOREBOARD = []


def criterion(number, headline):
    """Record the scoreboard verdict whether the wrapped test passes or fails."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                verdict = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
                SCOREBOARD.append((number, verdict, headline))
                raise
            SCOREBOARD.append((number, "PASS", headline))
            return result

        return wrapper

    return deco


@criterion(1, "order-count table n=2..12 and the 31-digit n*(26), exact, <1s")
def test_criterion_01_order_counts():
    start = time.perf_counter()
    for n, expected in N_STAR_TABLE.items():
        assert n_star(n) == expected
    assert n_star(26) == N_STAR_26
    assert time.perf_counter() - start < 1.0


@criterion(2, "7-node benchmark exact counts equal the brute-force oracle (integer equality)")
def test_criterion_02_bench7_published_vector():
    net = load_fixture("figure1")
    sig = exact_tsignature(net, workers=WORKERS)
    assert sig.total == 7_087_261
    assert sig.counts == BENCH7_COUNTS, (
        f"computed {sig.counts}; the brute-force oracle gives {BENCH7_COUNTS}"
    )
    # the greedy mode only covers two-terminal networks; this one has three
    # terminals, so only the subset mode completes (documented caveat)
    with pytest.raises(UnsupportedModeError):
        exact_tsignature(net, m_mode="paper-greedy")
    # links 1, 3, 4 (ab, ad, ac) alone keep b, c and d connected, so this
    # order scores M = 7, where the published vector has no mass
    witness = ((2, 5, 6, 7, 8, 9), (1, 3, 4))
    assert calculate_m(net, witness) == 7 and BENCH7_PUBLISHED[6] == 0.0, (
        "the recorded discrepancy no longer holds; see README, "
        "'Criterion 2 and the published 7-node vector'"
    )


@criterion(3, "11-link benchmark: worker-split consistency on first 1e7 orders")
def test_criterion_03_stream_split_consistency():
    net = load_fixture("figure2")
    limit = 10_000_000
    one = exact_tsignature(net, workers=1, order_limit=limit)
    eight = exact_tsignature(net, workers=8, order_limit=limit)
    assert one.counts == eight.counts
    assert one.total == limit


@criterion(3, "11-link benchmark full exact counts (integer equality), vector to 5e-5")
def test_criterion_03_bench11_exact_nightly():
    net = load_fixture("figure2")
    sig = exact_tsignature(net, workers=WORKERS)
    assert sig.total == 1_622_632_573
    assert sig.counts == BENCH11_COUNTS
    assert max(abs(a - b) for a, b in zip(sig.values, BENCH11_EXACT)) <= 5e-5


@criterion(4, "11-link benchmark: 1e6 samples within max(0.005, 4*se) of exact")
def test_criterion_04_sampling_self_consistency():
    net = load_fixture("figure2")
    start = time.perf_counter()
    sig = approx_tsignature(net, 1_000_000, seed=20240824, workers=WORKERS)
    assert time.perf_counter() - start < 900
    for value, expect, se in zip(sig.values, BENCH11_EXACT, sig.std_error):
        assert abs(value - expect) <= max(0.005, 4 * se)


@criterion(5, "26-link EON: zero pattern, 0.01 band, 3-seed spread <= 0.01")
def test_criterion_05_eon_band():
    net = load_fixture("eon_par_cop")
    runs = [
        approx_tsignature(net, 100_000, seed=seed, workers=WORKERS)
        for seed in (11, 22, 33)
    ]
    for sig in runs:
        for i in (1, 2, 3, 26):
            assert sig.values[i - 1] == 0.0
        for value, expect in zip(sig.values, EON_PAR_COP_REFERENCE):
            if expect > 0.0:
                assert abs(value - expect) <= 0.01
    for i in range(net.n):
        column = [sig.values[i] for sig in runs]
        assert max(column) - min(column) <= 0.01


@criterion(6, "exact engine equals brute-force oracle (rational equality)")
def test_criterion_06_oracle_equivalence(rng):
    corpus = [
        load_fixture(name)
        for name in ("single_edge", "series2", "parallel2", "series3", "triangle", "bridge", "counterexample")
    ]
    corpus += [random_connected_network(rng, rng.randint(4, 5)) for _ in range(25)]
    for net in corpus:
        sig = exact_tsignature(net)
        counts, total = oracle_histogram(net)
        # integer histogram equality is the exact rational statement
        assert sig.counts == counts
        assert sig.total == total
    bridge = classic_signature(load_fixture("bridge"))
    assert [Fraction(c, bridge.total) for c in bridge.counts] == [
        Fraction(0), Fraction(1, 5), Fraction(3, 5), Fraction(1, 5), Fraction(0),
    ]


@criterion(7, "greedy count never exceeds the exact minimum; strict case exists")
def test_criterion_07_mode_ordering(rng):
    corpus = [
        load_fixture(name)
        for name in ("single_edge", "series2", "parallel2", "series3", "triangle", "bridge", "counterexample", "zigzag")
    ] + [random_connected_network(rng, rng.randint(4, 5)) for _ in range(25)]
    # Orders from the sampler's stream: sample j of seed 7007, with j
    # running on across the corpus.
    keyed = _seed_hash(7_007)
    strict_seen = False
    for i, net in enumerate(corpus):
        table = build_stratum_table(net.n)
        for j in range(10_000 * i, 10_000 * (i + 1)):
            order = unrank_order(table, _sample_rank(keyed, j, table[-1]))
            exact = calculate_m(net, order, "exact-subset")
            greedy = calculate_m(net, order, "paper-greedy")
            assert greedy <= exact
            strict_seen = strict_seen or greedy < exact
    # one shortest path of the zigzag network carries a whole 3-link cut
    net = load_fixture("zigzag")
    order = ((1, 2, 3), (4,), (5,), (6,), (7,))
    assert calculate_m(net, order, "exact-subset") == 3
    assert calculate_m(net, order, "paper-greedy") == 1
    assert strict_seen


@criterion(8, "uniform order sampler passes chi-square at p > 0.001 (n=3, 4)")
def test_criterion_08_sampler_uniformity():
    scipy_stats = pytest.importorskip("scipy.stats")
    for n, draws in ((3, 130_000), (4, 750_000)):
        index = {order: i for i, order in enumerate(enumerate_orders(n))}
        assert len(index) == n_star(n)
        table = build_stratum_table(n)
        keyed = _seed_hash(5_000 + n)  # the sampler's stream
        observed = [0] * len(index)
        for j in range(draws):
            u = _sample_rank(keyed, j, table[-1])
            observed[index[unrank_order(table, u)]] += 1
        result = scipy_stats.chisquare(observed)
        assert result.pvalue > 0.001


@criterion(9, "reliability closed forms to 1e-12; curves monotone from 1")
def test_criterion_09_reliability_closed_forms():
    grid = [i * 4 / 99 for i in range(100)]
    series = survival_mixture(exact_tsignature(load_fixture("series2")), "poisson", 1.0, grid)
    parallel = survival_mixture(exact_tsignature(load_fixture("parallel2")), "poisson", 1.0, grid)
    for t, s in zip(grid, series):
        assert abs(s - math.exp(-t)) <= 1e-12
    for t, s in zip(grid, parallel):
        assert abs(s - math.exp(-t) * (1 + t)) <= 1e-12
    for name in ("single_edge", "series2", "parallel2", "series3", "triangle", "bridge", "counterexample", "zigzag", "figure1"):
        curve = survival_mixture(exact_tsignature(load_fixture(name)), "poisson", 1.0, grid)
        assert curve[0] == 1.0
        for a, b in zip(curve, curve[1:]):
            assert b <= a + 1e-15


@criterion(10, "identical seeds give byte-identical artifacts across workers")
def test_criterion_10_determinism(tmp_path, capsys):
    import json

    from netsig.cli import main

    def artifact(*argv):
        assert main(list(argv)) == 0
        payload = json.loads(capsys.readouterr().out)
        payload["manifest"].pop("duration_seconds")
        payload["manifest"]["flags"].pop("workers")
        return json.dumps(payload, sort_keys=True).encode()

    from netsig.fixtures import fixture_path

    args = ("approx", str(fixture_path("bridge")), "--samples", "3000", "--seed", "12")
    first = artifact(*args, "--workers", "1")
    assert artifact(*args, "--workers", "1") == first
    assert artifact(*args, "--workers", "4") == first
    assert artifact(*args, "--workers", "3") == first
