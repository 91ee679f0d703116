"""Seeded inputs of the classify_mix workload.

A stream is 8,000 known hypersurfaces, drawn without replacement from the
golden pool (the Table-1 rows and every printed and errata series member
with all weights <= 5000), and 72,000 random weight systems, drawn without
replacement from a fixed universe of uniform random ascending tuples with
weights <= 5000 and index 1..10.  The universe is fixed so that the golden
file can hold the trusted outcome of every input any seed can draw.  No
input occurs twice in a stream; the seed shuffles the order.
"""

from __future__ import annotations

import hashlib
import random

KNOWN = 8_000
RANDOM = 72_000
UNIVERSE_SIZE = 2 * RANDOM
UNIVERSE_SEED = 20_001_017
MAX_WEIGHT = 5_000


def pool_keys(pool):
    """Golden pool rows [I, w0, w1, w2, w3, d, tag, hash] -> ((w0..w3), d)."""
    return [(tuple(row[1:5]), row[5]) for row in pool]


def universe(pool):
    rng = random.Random(UNIVERSE_SEED)
    seen = set(pool_keys(pool))
    out = []
    while len(out) < UNIVERSE_SIZE:
        w = tuple(sorted(rng.randint(1, MAX_WEIGHT) for _ in range(4)))
        d = sum(w) - rng.randint(1, 10)
        if d <= w[3] or (w, d) in seen:
            continue
        seen.add((w, d))
        out.append((w, d))
    return out


def universe_digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


def stream(seed: int, pool_size: int):
    """[("pool" | "universe", position)] in the order the seed gives."""
    rng = random.Random(seed)
    items = [("pool", i) for i in rng.sample(range(pool_size), KNOWN)]
    items += [("universe", j) for j in rng.sample(range(UNIVERSE_SIZE), RANDOM)]
    rng.shuffle(items)
    return items


def resolve(items, pool, univ):
    """(weights, degree) of each stream item."""
    keys = pool_keys(pool)
    return [keys[i] if source == "pool" else univ[i] for source, i in items]


def write(path, inputs) -> None:
    with open(path, "w") as fh:
        for w, d in inputs:
            fh.write(f"{w[0]} {w[1]} {w[2]} {w[3]} {d}\n")
