"""Randomized cross-check harness.

Every theorem-level shortcut in the package is checked here against the
exact Smith-normal-form computation on randomized instances.  Each
property draws its own deterministic stream from the configured seed, so
a report is reproducible bit for bit.

A property is a generator `check(cfg, rng, count)` registered with
`@prop(name, stream)`.  For each draw from `rng` it yields `None` if the
instance holds, a counterexample document if it fails, or `SKIP` if it
rejects the draw.  `_run` seeds the stream, stops at `count` accepted
instances, at 40 * count draws or when the generator ends, and reports
the first failure with the number of instances run.  A property that
accepted no instance fails, with the counterexample {"accepted": 0}.
Globals are looked up at run time, so tests can patch them.

The forest oracle, the chi chain map and restriction functoriality run
at every configured prime, p = 2 included: a forest node at level r is
a reduction component oriented over Z/p**(r - min valuation), which
makes the structure theorem hold at p = 2 as well.  A restriction that
raises `ChainMapError` or `UnsupportedRestriction` is a failure with a
counterexample.  The weight, core and tropical properties keep to odd
primes.  The tropical properties draw valuations from
0..max_valuation + 1, and `core_relation` from 0..max(1, max_valuation):
with every weight a unit, no graph has a forest node at an odd prime.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Iterator, Optional

from .graphs import (
    Subgraph,
    WeightedGraph,
    bipartition,
    components,
    full_subgraph,
    graph_to_json,
    p_valuation,
    subgraph_of,
)
from .cohomology import (
    cohomology_groups,
    critical_cohomology_dim,
    torsion_order_p,
)
from .forest import build_forest, torsion_structure
from .fcomplex import (
    ChainMapError,
    UnsupportedRestriction,
    chi,
    chi_image_torsion_order,
    complex_cohomology,
    fundamental_complex,
    p_part_graph,
    restrict,
)
from .intlinalg import (
    COMPRESS_MIN_GAP,
    check_smith,
    determinant,
    direct_sum,
    factorize,
    matrix,
    smith_normal_form,
)
from .orientation import generation_check, is_orientable
from .tropical import eval_expr, tval, z_complete, z_gamma
from .weights import (
    core_torsion_relation,
    edge_weighted_constants,
    hbe_count,
    oriented_core,
    oriented_torsion_exponent,
    tree_torsion,
)


@dataclass(frozen=True)
class VerificationConfig:
    instance_count: int = 500
    max_vertices: int = 6
    max_valuation: int = 3
    primes: tuple[int, ...] = (2, 3, 5)
    seed: int = 42
    parallelism: int = 1

    def __post_init__(self):
        for option, value, least in (("--instances", self.instance_count, 1),
                                     ("--max-vertices", self.max_vertices, 3),
                                     ("--max-valuation", self.max_valuation, 0),
                                     ("--parallelism", self.parallelism, 1)):
            if value < least:
                raise ValueError(f"{option} must be at least {least}, got {value}")

    def odd_primes(self) -> tuple[int, ...]:
        return tuple(p for p in self.primes if p != 2) or (3,)


@dataclass
class PropertyResult:
    name: str
    instances: int
    passed: bool
    counterexample: Optional[dict] = None

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = f"{status}  {self.name} ({self.instances} instances)"
        if self.counterexample is not None:
            out += "\n      counterexample: " + json.dumps(
                self.counterexample, sort_keys=True)
        return out


def _rng_for(cfg: VerificationConfig, name: str) -> random.Random:
    return random.Random(cfg.seed * 0x9E3779B1 + zlib.crc32(name.encode()))


def random_connected(rng, max_n, p, max_a, min_n=1) -> WeightedGraph:
    n = rng.randint(min_n, max_n)
    names = [f"v{i}" for i in range(n)]
    weights = {v: p ** rng.randint(0, max_a) for v in names}
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    extra = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if (names[i], names[j]) not in edges and rng.random() < 0.3]
    return WeightedGraph(weights, edges + extra)


def random_graph(rng, max_n, max_w) -> WeightedGraph:
    n = rng.randint(1, max_n)
    names = [f"v{i}" for i in range(n)]
    weights = {v: rng.randint(1, max_w) for v in names}
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.4]
    return WeightedGraph(weights, edges)


def random_bipartite_connected(rng, p, max_n, max_a) -> WeightedGraph:
    n = rng.randint(2, max_n)
    names = [f"v{i}" for i in range(n)]
    side = {v: rng.choice([0, 1]) for v in names}
    side[names[0]] = 0
    weights = {v: p ** rng.randint(0, max_a) for v in names}
    edges = []
    for i in range(1, n):
        choices = [names[j] for j in range(i) if side[names[j]] != side[names[i]]]
        if not choices:
            side[names[i]] ^= 1
            choices = [names[j] for j in range(i)
                       if side[names[j]] != side[names[i]]]
        edges.append((rng.choice(choices), names[i]))
    for i in range(n):
        for j in range(i + 1, n):
            e = (names[i], names[j])
            if side[names[i]] != side[names[j]] and e not in edges \
                    and rng.random() < 0.25:
                edges.append(e)
    return WeightedGraph(weights, edges)


def _graph_doc(g: WeightedGraph, **extra) -> dict:
    return {"graph": graph_to_json(g), **extra}


# Yielded for a rejected draw: it counts towards the draw cap only.
SKIP = object()

PROPERTIES: dict[str, Callable[[VerificationConfig, int], PropertyResult]] = {}
SLOW: dict[str, int] = {}


def _run(name: str, stream: str, check: Callable[..., Iterator],
         cfg: VerificationConfig, count: int) -> PropertyResult:
    draws = islice(check(cfg, _rng_for(cfg, stream), count), 40 * count)
    accepted = (outcome for outcome in draws if outcome is not SKIP)
    done = 0
    for done, outcome in enumerate(islice(accepted, count), 1):
        if outcome is not None:
            return PropertyResult(name, done, False, outcome)
    if done == 0:  # a property that checked nothing has shown nothing
        return PropertyResult(name, 0, False, {"accepted": 0})
    return PropertyResult(name, done, True)


def prop(name: str, stream: str, slow: int = 1):
    """Register a property generator under `name`, drawing from `stream`.

    Instance cost varies wildly; `slow` divides the instance budget to
    keep the total sane."""
    def register(check):
        PROPERTIES[name] = partial(_run, name, stream, check)
        SLOW[name] = slow
        return check
    return register


# --- properties ---------------------------------------------------------------

def _ranks(sub: Subgraph) -> tuple[int, int]:
    h0, h1 = cohomology_groups(sub)
    return h0.rank, h1.rank


@prop("snf_invariants", "snf")
def check_snf_invariants(cfg, rng, count):
    # one draw in four takes the compressed path, so its U and V are checked
    while True:
        cols = rng.randint(1, 5)
        rows = (cols + COMPRESS_MIN_GAP + rng.randint(0, 3)
                if rng.randint(0, 3) == 0 else rng.randint(1, 5))
        a = matrix([[rng.randint(-20, 20) for _ in range(cols)]
                    for _ in range(rows)])
        try:
            dec = smith_normal_form(a)
            check_smith(a, dec)
        except AssertionError:  # a failed multiply-back
            ok = False
        else:
            chain = dec.divisors
            ok = (abs(determinant(dec.u)) == abs(determinant(dec.v)) == 1
                  and all(y % x == 0 for x, y in zip(chain, chain[1:])))
        yield None if ok else {"matrix": a.entries}


@prop("rank_formula", "rank")
def check_rank_formula(cfg, rng, count):
    while True:
        g = random_connected(rng, cfg.max_vertices, 3, cfg.max_valuation)
        sub = full_subgraph(g)
        ranks = _ranks(sub)
        ne, nv = len(g.edges), len(g.vertices)
        want = (1, ne - nv + 1) if bipartition(sub) is not None else (0, ne - nv)
        yield None if ranks == want else _graph_doc(g)


@prop("rank_reweighting", "reweight")
def check_rank_reweighting(cfg, rng, count):
    # an instance is a round: one graph under ten random reweightings
    for _ in range(max(1, count // 10)):
        g = random_connected(rng, cfg.max_vertices, 3, cfg.max_valuation)
        base = _ranks(full_subgraph(g))
        reweighted = (WeightedGraph({v: rng.randint(1, 50) for v in g.vertices},
                                    g.edges) for _ in range(10))
        bad = next((h for h in reweighted
                    if _ranks(full_subgraph(h)) != base), None)
        yield None if bad is None else _graph_doc(bad)


@prop("p_splitting", "psplit")
def check_p_splitting(cfg, rng, count):
    while True:
        g = random_graph(rng, cfg.max_vertices, 60)
        _, h1 = cohomology_groups(full_subgraph(g))
        total = h1.torsion_order
        prod = 1
        for p in factorize(total):
            _, h1p = cohomology_groups(full_subgraph(p_part_graph(g, p)))
            prod *= p ** h1p.p_exponent(p)
        yield None if prod == total else _graph_doc(g)


@prop("disjoint_union", "disjoint")
def check_disjoint_union(cfg, rng, count):
    while True:
        g1 = random_graph(rng, 4, 30)
        g2 = random_graph(rng, 4, 30)
        renamed = {f"w{v}": k for v, k in g2.weight.items()}
        union = WeightedGraph(
            {**g1.weight, **renamed},
            list(g1.edges) + [(f"w{u}", f"w{v}") for u, v in g2.edges])
        hu = cohomology_groups(full_subgraph(union))
        ha = cohomology_groups(full_subgraph(g1))
        hb = cohomology_groups(full_subgraph(g2))
        ok = hu[0] == direct_sum(ha[0], hb[0]) and hu[1] == direct_sum(ha[1], hb[1])
        yield None if ok else _graph_doc(union)


@prop("unit_rescaling", "rescale")
def check_unit_rescaling(cfg, rng, count):
    while True:
        p = rng.choice(cfg.primes)
        g = random_connected(rng, cfg.max_vertices, p, cfg.max_valuation)
        base = torsion_order_p(full_subgraph(g), p)
        units = [u for u in range(1, 10) if u % p]
        h = WeightedGraph({v: g.weight[v] * rng.choice(units)
                           for v in g.vertices}, g.edges)
        ok = torsion_order_p(full_subgraph(h), p) == base
        yield None if ok else _graph_doc(h, prime=p)


@prop("forest_oracle", "forest")
def check_forest_oracle(cfg, rng, count):
    while True:
        p = rng.choice(cfg.primes)
        g = random_connected(rng, cfg.max_vertices, p, cfg.max_valuation)
        _, h1 = cohomology_groups(full_subgraph(g))
        got = torsion_structure(build_forest(g, p))
        want = list(h1.p_part_exponents(p))
        yield None if got == want else _graph_doc(g, prime=p, forest=got,
                                                  divisors=want)


@prop("order_law", "orderlaw")
def check_order_law(cfg, rng, count):
    while True:
        p = rng.choice(cfg.primes)
        g = random_connected(rng, cfg.max_vertices, p, cfg.max_valuation)
        forest = build_forest(g, p)
        _, h1 = complex_cohomology(fundamental_complex(forest))
        ok = h1.torsion_order == p ** len(forest.counted_nodes) and h1.rank == 0
        yield None if ok else _graph_doc(g, prime=p)


@prop("generation", "generation", slow=4)
def check_generation(cfg, rng, count):
    while True:
        p = rng.choice(cfg.primes)
        g = random_connected(rng, min(5, cfg.max_vertices), p,
                             cfg.max_valuation)
        s = rng.randint(1, 3)
        yield None if generation_check(g, p, s) else _graph_doc(g, prime=p, s=s)


@prop("euler_relation", "euler")
def check_euler_relation(cfg, rng, count):
    while True:
        g = random_graph(rng, cfg.max_vertices, 40)
        c0, c1, c2 = edge_weighted_constants(full_subgraph(g))
        _, h1 = cohomology_groups(full_subgraph(g))
        yield None if c0 * c2 == c1 * h1.torsion_order else _graph_doc(g)


@prop("hbe_count", "hbe")
def check_hbe_count(cfg, rng, count):
    while True:
        p = rng.choice(cfg.odd_primes())
        g = random_connected(rng, cfg.max_vertices, p, cfg.max_valuation,
                             min_n=3)
        if bipartition(full_subgraph(g)) is not None:
            yield SKIP
            continue
        _, _, c2 = edge_weighted_constants(full_subgraph(g))
        ok = hbe_count(g, p) == p_valuation(c2, p)
        yield None if ok else _graph_doc(g, prime=p)


@prop("tree_formula", "tree")
def check_tree_formula(cfg, rng, count):
    while True:
        n = rng.randint(1, 8)
        names = [f"v{i}" for i in range(n)]
        g = WeightedGraph({v: rng.randint(1, 10 ** 6) for v in names},
                          [(names[rng.randrange(i)], names[i])
                           for i in range(1, n)])
        _, h1 = cohomology_groups(full_subgraph(g))
        ok = tree_torsion(full_subgraph(g)) == h1.torsion_order
        yield None if ok else _graph_doc(g)


@prop("spanning_tree", "spanning")
def check_spanning_tree(cfg, rng, count):
    while True:
        p = rng.choice(cfg.odd_primes())
        g = random_bipartite_connected(rng, p, 7, cfg.max_valuation)
        sub = full_subgraph(g)
        ok = oriented_torsion_exponent(sub, p) == torsion_order_p(sub, p)
        yield None if ok else _graph_doc(g, prime=p)


@prop("core_relation", "core")
def check_core_relation(cfg, rng, count):
    while True:
        p = rng.choice(cfg.odd_primes())
        g = random_connected(rng, cfg.max_vertices, p,
                             max(1, cfg.max_valuation), min_n=3)
        try:
            got = core_torsion_relation(g, p)  # asserts against the oracle
        except AssertionError:
            yield _graph_doc(g, prime=p)
        else:
            yield SKIP if got is None else None


@prop("tropical_interpretation", "tropical", slow=2)
def check_tropical(cfg, rng, count):
    while True:
        n = rng.randint(2, min(6, cfg.max_vertices))
        names = [f"v{i}" for i in range(n)]
        edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
        edges += [(names[i], names[j]) for i in range(n)
                  for j in range(i + 1, n)
                  if (names[i], names[j]) not in edges and rng.random() < 0.35]
        z = z_gamma(WeightedGraph({v: 1 for v in names}, edges))
        vals = {v: rng.randint(0, cfg.max_valuation + 1) for v in names}
        doc = None
        for p in cfg.odd_primes():
            g = WeightedGraph({v: p ** vals[v] for v in names}, edges)
            want = torsion_order_p(full_subgraph(g), p)
            if eval_expr(z, vals) != tval(want):
                doc = _graph_doc(g, prime=p, valuations=vals)
                break
        yield doc


@prop("complete_graph", "complete")
def check_complete_graph(cfg, rng, count):
    for n in (3, 4, 5):
        names = [f"v{i}" for i in range(n)]
        kn = WeightedGraph({v: 1 for v in names},
                           [(names[i], names[j]) for i in range(n)
                            for j in range(i + 1, n)])
        zg = z_gamma(kn)
        zc = z_complete(n, names)
        for _ in range(max(1, count // 3)):
            vals = {v: rng.randint(0, cfg.max_valuation + 1) for v in names}
            ge = eval_expr(zg, vals)
            ce = eval_expr(zc, vals)
            p = rng.choice(cfg.odd_primes())
            g = WeightedGraph({v: p ** vals[v] for v in names}, kn.edges)
            want = tval(torsion_order_p(full_subgraph(g), p))
            yield None if ge == ce == want else _graph_doc(g, prime=p,
                                                           valuations=vals)


@prop("chi_chain_map", "chi", slow=2)
def check_chi(cfg, rng, count):
    while True:
        p = rng.choice(cfg.primes)
        g = random_connected(rng, cfg.max_vertices, p, cfg.max_valuation)
        try:
            cm = chi(fundamental_complex(build_forest(g, p)))
            want = p ** torsion_order_p(full_subgraph(g), p)
            ok = chi_image_torsion_order(cm) == want
        except ChainMapError:
            ok = False
        yield None if ok else _graph_doc(g, prime=p)


@prop("restrict_functoriality", "restrict", slow=4)
def check_restrict(cfg, rng, count):
    while True:
        p = rng.choice(cfg.primes)
        g = random_connected(rng, cfg.max_vertices, p, cfg.max_valuation)
        forest = build_forest(g, p)
        fc = fundamental_complex(forest)
        try:
            restrict(fc, full_subgraph(g))
            j1 = restrict(fc, oriented_core(forest).core)
            inner = j1.target.forest.graph
            # anchor on a minimal-valuation vertex: off the minimum the
            # restriction formulas are not a chain map (see build notes)
            v = min(inner.vertices,
                    key=lambda w: (p_valuation(inner.weight[w], p), w))
            j2 = restrict(j1.target, subgraph_of(inner, [v], []))
            direct = restrict(fc, subgraph_of(g, [v], []))
            ok = j2.compose(j1) == (direct.map_neg, direct.map_zero,
                                    direct.map_one)
        except (ChainMapError, UnsupportedRestriction):
            ok = False
        yield None if ok else _graph_doc(g, prime=p)


@prop("orientation_methods", "orient", slow=2)
def check_orientation_methods(cfg, rng, count):
    while True:
        p = rng.choice(cfg.primes)
        s = rng.randint(1, 3)
        g = random_connected(rng, min(5, cfg.max_vertices), p, 2)
        sub = full_subgraph(g)
        if any(g.edge_valuation(e, p) >= s for e in g.edges):
            yield SKIP
            continue
        rep = is_orientable(sub, p, s)
        dims_ok = all(critical_cohomology_dim(c, p, s) == 1
                      for c in components(sub))
        yield None if rep.orientable == dims_ok else _graph_doc(g, prime=p, s=s)


def run_property(name: str, cfg: VerificationConfig) -> PropertyResult:
    budget = max(3, cfg.instance_count // len(PROPERTIES))
    budget = max(3, budget // SLOW[name])
    return PROPERTIES[name](cfg, budget)


def run_all(cfg: VerificationConfig) -> list[PropertyResult]:
    names = sorted(PROPERTIES)
    if cfg.parallelism > 1:
        from concurrent.futures import ProcessPoolExecutor
        # fork starts every worker up front: never more than there are properties
        with ProcessPoolExecutor(max_workers=min(cfg.parallelism, len(names))) as pool:
            futures = [(n, pool.submit(run_property, n, cfg)) for n in names]
            return [f.result() for _, f in futures]
    return [run_property(n, cfg) for n in names]
