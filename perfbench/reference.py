"""Fixed pure-Python work whose wall time measures the machine's speed.

run.py runs this around CLI calls and reports times divided by its wall
time, so that the host's speed swings cancel.  It does the kinds of work
netsig does, in about equal parts: bitmask breadth-first search with subset
scans and a dict cache, a recursive search over block orders with list
slicing, and float series sums.  It never imports netsig and prints a
checksum that must not change.
"""

import math
import random
from itertools import combinations

LINKS = 26
NODES = 12


def bitmask_search(rng: random.Random, rounds: int) -> int:
    adj = [[] for _ in range(NODES)]
    for i in range(LINKS):
        a, b = rng.sample(range(NODES), 2)
        adj[a].append((1 << i, b))
        adj[b].append((1 << i, a))

    def connected(removed):
        seen = 1
        queue = [0]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for bit, w in adj[v]:
                if bit & removed or seen >> w & 1:
                    continue
                seen |= 1 << w
                queue.append(w)
        return seen & 0b11 == 0b11

    cache = {}
    total = 0
    for _ in range(rounds):
        mask = rng.getrandbits(LINKS) & rng.getrandbits(LINKS)
        block = tuple(sorted(rng.sample(range(LINKS), 3)))
        key = (mask, block)
        if key not in cache:
            hits = 0
            for size in range(1, 4):
                for combo in combinations(block, size):
                    m = mask
                    for b in combo:
                        m |= 1 << b
                    hits += connected(m)
            cache[key] = hits
        total += cache[key]
    return total


def order_search(blocks: int) -> int:
    masks = [0b101 << i for i in range(blocks)]
    counts = [0] * (blocks + 1)

    def descend(removed, depth, remaining):
        for pos, i in enumerate(remaining):
            merged = removed | masks[i]
            if merged.bit_count() % 3:
                descend(merged, depth + 1, remaining[:pos] + remaining[pos + 1:])
            else:
                counts[depth] += 1

    descend(0, 0, list(range(blocks)))
    return sum(i * c for i, c in enumerate(counts))


def series_sums(points: int) -> int:
    total = 0.0
    for k in range(points):
        mean = 40.0 * k / points
        term = math.exp(-mean)
        cdf = term
        for r in range(1, 26):
            term *= mean / r
            cdf += term
        total += min(cdf, 1.0) * math.comb(26, k % 26)
    return int(total)


def main() -> int:
    rng = random.Random(12345)
    return bitmask_search(rng, 1500) + order_search(10) + series_sums(20000)


if __name__ == "__main__":
    print(main())
