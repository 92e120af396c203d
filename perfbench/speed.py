"""A fixed probe of the host's speed, to scale query times by.

A shared host's speed swings by a factor of up to two within seconds,
and a run-long median does not average that out: a run's median lands in
whichever state the host was in for most of it.  The probe is a fixed
pure-Python task, independent of the program under test, run between
queries; a query's time is scaled by PROBE_REF_S over the mean of the
probe times just before and just after it.  A scaled time reads as the
query's wall time on a host where the probe takes PROBE_REF_S seconds.

The probe mixes the kinds of work the workloads do: exact integer
elimination with growing entries (intlinalg), small-graph traversal
over dicts, sets and frozensets with JSON output (graphs, forest,
verify), and building and rewriting a long expression string (the
tropical report).
"""

from __future__ import annotations

import json
import random
from time import perf_counter

# a round figure near the probe's time on a shared 2 GHz Xeon, which
# ranged from about 0.05 to 0.11 s
PROBE_REF_S = 0.1


def _elimination(n: int = 56) -> int:
    """Fraction-free (Bareiss) elimination of a fixed integer matrix."""
    rng = random.Random(5)
    m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    prev = 1
    for k in range(n - 1):
        pivot = next(i for i in range(k, n) if m[i][k])
        m[k], m[pivot] = m[pivot], m[k]
        for i in range(k + 1, n):
            row, top, lead = m[i], m[k], m[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * top[k] - lead * top[j]) // prev
            row[k] = 0
        prev = m[k][k]
    return prev


def _graphs(count: int = 60, n: int = 12) -> int:
    """Traverse small random graphs and serialise sets of vertex subsets."""
    rng = random.Random(7)
    size = 0
    for _ in range(count):
        adj = {v: set() for v in range(n)}
        for _ in range(20):
            a, b = rng.sample(range(n), 2)
            adj[a].add(b)
            adj[b].add(a)
        seen, stack = set(), [0]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(adj[v] - seen)
        subsets = {frozenset(rng.sample(range(n), 4)) for _ in range(60)}
        size += len(json.dumps(sorted(tuple(sorted(s)) for s in subsets)))
    return size + len(seen)


def _expression(terms: int = 40000) -> int:
    """Build a long sum-of-products string and rewrite it."""
    text = "*".join(f"(x{i % 97}+{i * 7919})" for i in range(terms))
    text = text.replace("x1", "y1")
    return len(text) + text.count("9")


def probe() -> float:
    """Wall time of one run of the fixed task."""
    start = perf_counter()
    _elimination()
    _graphs()
    _expression()
    return perf_counter() - start


def scale(elapsed: float, before: float, after: float) -> float:
    """`elapsed` seconds, taken between probes of `before` and `after`
    seconds, as seconds on the reference host."""
    return elapsed * PROBE_REF_S * 2 / (before + after)
