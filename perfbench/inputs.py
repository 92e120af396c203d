"""Seeded inputs for the benchmark workloads.

Graphs are produced here as graph documents in the CLI's file format
(decimal-string weights), without importing the program, so the inputs
stay fixed while the program under test changes.

`oracle-large` and `forest-large` draw from fixed pools whose answers were
computed once with the SNF oracle (see refs.py): pool entry j of stratum
s is generated from the string key "<workload>/<stratum>/<j>", and the
workload seed only picks which entries a run visits and in what order.
Query i of a run always uses stratum i mod (number of strata), so every
seed sees the same mix of sizes, families and primes; only the graphs
differ.  `tropical-eval` needs no stored answers; its graphs are seeded
relabellings of a fixed rotation of base graphs, each with a seeded
valuation, because the enumeration cost follows the graph's structure
and a random structure per seed would swing the run's median.
`verify-small` passes a fresh seed per query.
"""

from __future__ import annotations

import hashlib
import json
import random

ORACLE_REPLICATES = 5
FOREST_REPLICATES = 8
TROPICAL_QUERIES = 120
VERIFY_QUERIES = 400
VERIFY_INSTANCES = 200

# Strata are listed in query order.  Every attribute cycles within a few
# queries, so a run's mix hardly depends on how many queries it completes
# (query cost differs by family and grows steeply with size).
_ORACLE_SIZES = {"dense-ppower": (32, 34, 36, 38, 40),
                 "dense-generic": (16, 17, 18, 19, 20),
                 "sparse-unit": (80, 88, 95, 102, 110)}

# (family, n, p) with family = i mod 3, size = i mod 5, p = i mod 2: the 30
# strata are all distinct (2, 3 and 5 are coprime).  Five sizes per family
# spread the stratum costs evenly, so the median query does not sit in a
# gap between cost clusters.
ORACLE_STRATA = tuple(
    (family, _ORACLE_SIZES[family][i % 5], (3, 5)[i % 2])
    for i, family in enumerate(list(_ORACLE_SIZES) * 10))

# (n, p, top exponent a of the vertex weights p**a * unit): n = i mod 5,
# p = i mod 2, and a alternates with p in the first ten and against it in
# the last ten, so the 20 strata are all distinct and every attribute
# cycles within five queries.
FOREST_STRATA = tuple(
    ((180, 200, 220, 240, 260)[i % 5], (3, 5)[i % 2], (2, 3)[(i + i // 10) % 2])
    for i in range(20))

# (vertices, edges, base index): 0.4-0.7 s and 2.4-4.3 MB of report
# each on a 2 GHz Xeon.  14-15 edges take 2-7 s a query, which would leave
# too few queries in a run for a tail percentile.
TROPICAL_BASES = ((8, 12, 0), (9, 12, 0), (8, 13, 1), (8, 12, 1), (9, 12, 1),
                  (8, 12, 2), (8, 13, 3))


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc) -> str:
    return hashlib.sha256(canonical(doc).encode()).hexdigest()


def _names(n: int) -> list[str]:
    return [f"v{i:03d}" for i in range(n)]


def _graph_doc(weights: dict[str, int], edges) -> dict:
    return {
        "vertices": [{"id": v, "weight": str(weights[v])}
                     for v in sorted(weights)],
        "edges": [list(e) for e in sorted(edges)],
    }


def _tree(rng: random.Random, names: list[str]) -> set[tuple[str, str]]:
    return {(names[rng.randrange(i)], names[i]) for i in range(1, len(names))}


def _unit(rng: random.Random, p: int) -> int:
    # small units keep SNF coefficient growth at the sizing the pool was
    # chosen for; the generic family is where growth is meant to show
    return rng.choice([u for u in range(1, 5) if u % p])


def sparse_unit_graph(rng: random.Random, n: int, p: int, top_a: int) -> dict:
    """Random tree plus n/4 extra edges; weights p**a * unit, a <= top_a."""
    names = _names(n)
    edges = _tree(rng, names)
    while len(edges) < n - 1 + n // 4:
        i, j = sorted(rng.sample(range(n), 2))
        edges.add((names[i], names[j]))
    weights = {v: p ** rng.randint(0, top_a) * _unit(rng, p) for v in names}
    return _graph_doc(weights, edges)


def dense_graph(rng: random.Random, n: int, density: float, weight) -> dict:
    """Random spanning tree plus each other pair with probability density."""
    names = _names(n)
    edges = _tree(rng, names)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.add((names[i], names[j]))
    return _graph_doc({v: weight(rng) for v in names}, edges)


def oracle_graph(stratum, j: int) -> dict:
    family, n, p = stratum
    rng = random.Random(f"oracle-large/{family}/{n}/{p}/{j}")
    if family == "dense-ppower":
        return dense_graph(rng, n, 0.32, lambda r: p ** r.randint(0, 3))
    if family == "dense-generic":
        return dense_graph(rng, n, 0.5, lambda r: r.randint(1, 10 ** 6))
    return sparse_unit_graph(rng, n, p, 3)


def forest_graph(stratum, j: int) -> dict:
    n, p, top_a = stratum
    rng = random.Random(f"forest-large/{n}/{p}/{top_a}/{j}")
    return sparse_unit_graph(rng, n, p, top_a)


def pool_key(workload: str, stratum, j: int) -> str:
    return "/".join([workload, *map(str, stratum), str(j)])


def pool_plan(workload: str, seed: int, strata, replicates: int):
    """(stratum, replicate) per query: strata in fixed rotation, the
    replicates of each stratum in a seeded order, no entry twice."""
    rng = random.Random(f"{workload}/plan/{seed}")
    orders = []
    for _ in strata:
        order = list(range(replicates))
        rng.shuffle(order)
        orders.append(order)
    return [(strata[i % len(strata)], orders[i % len(strata)][i // len(strata)])
            for i in range(len(strata) * replicates)]


def tropical_input(seed: int, i: int) -> tuple[dict, dict[str, int]]:
    """The i-th base graph (connected, all weights 1) under a seeded
    relabelling, and a seeded valuation in {0..3} per vertex."""
    n, m, base = TROPICAL_BASES[i % len(TROPICAL_BASES)]
    rng = random.Random(f"tropical-eval/base/{n}/{m}/{base}")
    names = _names(n)
    edges = _tree(rng, names)
    pairs = [(names[a], names[b]) for a in range(n) for b in range(a + 1, n)]
    while len(edges) < m:
        edges.add(rng.choice(pairs))
    rng = random.Random(f"tropical-eval/{seed}/{i}")
    label = dict(zip(names, rng.sample(names, n)))
    relabelled = {tuple(sorted((label[u], label[v]))) for u, v in edges}
    valuation = {v: rng.randint(0, 3) for v in names}
    return _graph_doc({v: 1 for v in names}, relabelled), valuation


def verify_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i
