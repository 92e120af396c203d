"""Randomized cross-check harness.

Every theorem-level shortcut in the package is checked here against the
exact Smith-normal-form computation on randomized instances.  Each
property draws its own deterministic stream from the configured seed, so
a report is reproducible bit for bit.

The forest oracle, the chi chain map and restriction functoriality run
at every configured prime, p = 2 included: a forest node at level r is
a reduction component oriented over Z/p**(r - min valuation), which
makes the structure theorem hold at p = 2 as well.  A restriction that
raises `ChainMapError` or `UnsupportedRestriction` is a failure with a
counterexample.  The weight, core and tropical properties keep to odd
primes.  The tropical properties draw valuations from
0..max_valuation + 1.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

from .graphs import (
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
    generation_check,
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
    restrict,
)
from .intlinalg import (
    determinant,
    direct_sum,
    factorize,
    matmul,
    matrix,
    smith_normal_form,
)
from .orientation import is_orientable
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
    doc = {"graph": graph_to_json(g)}
    doc.update(extra)
    return doc


# --- properties ---------------------------------------------------------------

def check_snf_invariants(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "snf")
    for k in range(count):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = matrix([[rng.randint(-20, 20) for _ in range(cols)]
                    for _ in range(rows)])
        dec = smith_normal_form(a)
        ok = (matmul(matmul(dec.u, a), dec.v) == dec.s
              and abs(determinant(dec.u)) == 1
              and abs(determinant(dec.v)) == 1)
        chain = dec.divisors
        ok = ok and all(y % x == 0 for x, y in zip(chain, chain[1:]))
        if not ok:
            return PropertyResult("snf_invariants", k + 1, False,
                                  {"matrix": a.entries})
    return PropertyResult("snf_invariants", count, True)


def check_rank_formula(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "rank")
    for k in range(count):
        g = random_connected(rng, cfg.max_vertices, 3, cfg.max_valuation)
        sub = full_subgraph(g)
        h0, h1 = cohomology_groups(sub)
        bip = bipartition(sub) is not None
        ne, nv = len(g.edges), len(g.vertices)
        if (h0.rank, h1.rank) != ((1, ne - nv + 1) if bip else (0, ne - nv)):
            return PropertyResult("rank_formula", k + 1, False, _graph_doc(g))
    return PropertyResult("rank_formula", count, True)


def check_rank_reweighting(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "reweight")
    rounds = max(1, count // 10)
    for k in range(rounds):
        g = random_connected(rng, cfg.max_vertices, 3, cfg.max_valuation)
        base = cohomology_groups(full_subgraph(g))
        for _ in range(10):
            h = WeightedGraph({v: rng.randint(1, 50) for v in g.vertices},
                              g.edges)
            got = cohomology_groups(full_subgraph(h))
            if (got[0].rank, got[1].rank) != (base[0].rank, base[1].rank):
                return PropertyResult("rank_reweighting", k + 1, False,
                                      _graph_doc(h))
    return PropertyResult("rank_reweighting", rounds, True)


def check_p_splitting(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "psplit")
    for k in range(count):
        g = random_graph(rng, cfg.max_vertices, 60)
        _, h1 = cohomology_groups(full_subgraph(g))
        total = h1.torsion_order
        prod = 1
        for p in factorize(total):
            gp = WeightedGraph({v: p ** p_valuation(g.weight[v], p)
                                for v in g.vertices}, g.edges)
            _, h1p = cohomology_groups(full_subgraph(gp))
            prod *= p ** h1p.p_exponent(p)
        if prod != total:
            return PropertyResult("p_splitting", k + 1, False, _graph_doc(g))
    return PropertyResult("p_splitting", count, True)


def check_disjoint_union(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "disjoint")
    for k in range(count):
        g1 = random_graph(rng, 4, 30)
        g2 = random_graph(rng, 4, 30)
        renamed = {f"w{v}": k for v, k in g2.weight.items()}
        union = WeightedGraph(
            {**g1.weight, **renamed},
            list(g1.edges) + [(f"w{u}", f"w{v}") for u, v in g2.edges])
        hu = cohomology_groups(full_subgraph(union))
        ha = cohomology_groups(full_subgraph(g1))
        hb = cohomology_groups(full_subgraph(g2))
        if hu[0] != direct_sum(ha[0], hb[0]) or hu[1] != direct_sum(ha[1], hb[1]):
            return PropertyResult("disjoint_union", k + 1, False,
                                  _graph_doc(union))
    return PropertyResult("disjoint_union", count, True)


def check_unit_rescaling(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "rescale")
    for k in range(count):
        p = rng.choice(cfg.primes)
        g = random_connected(rng, cfg.max_vertices, p, cfg.max_valuation)
        base = torsion_order_p(full_subgraph(g), p)
        units = [u for u in range(1, 10) if u % p]
        h = WeightedGraph({v: g.weight[v] * rng.choice(units)
                           for v in g.vertices}, g.edges)
        if torsion_order_p(full_subgraph(h), p) != base:
            return PropertyResult("unit_rescaling", k + 1, False,
                                  _graph_doc(h, prime=p))
    return PropertyResult("unit_rescaling", count, True)


def check_forest_oracle(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "forest")
    for k in range(count):
        p = rng.choice(cfg.primes)
        g = random_connected(rng, cfg.max_vertices, p, cfg.max_valuation)
        _, h1 = cohomology_groups(full_subgraph(g))
        got = torsion_structure(build_forest(g, p))
        want = list(h1.p_part_exponents(p))
        if got != want:
            return PropertyResult(
                "forest_oracle", k + 1, False,
                _graph_doc(g, prime=p, forest=got, divisors=want))
    return PropertyResult("forest_oracle", count, True)


def check_order_law(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "orderlaw")
    for k in range(count):
        p = rng.choice(cfg.primes)
        g = random_connected(rng, cfg.max_vertices, p, cfg.max_valuation)
        forest = build_forest(g, p)
        _, h1 = complex_cohomology(fundamental_complex(forest))
        if h1.torsion_order != p ** len(forest.counted_nodes) or h1.rank != 0:
            return PropertyResult("order_law", k + 1, False,
                                  _graph_doc(g, prime=p))
    return PropertyResult("order_law", count, True)


def check_generation(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "generation")
    for k in range(count):
        p = rng.choice(cfg.primes)
        g = random_connected(rng, min(5, cfg.max_vertices), p,
                             cfg.max_valuation)
        s = rng.randint(1, 3)
        if not generation_check(g, p, s):
            return PropertyResult("generation", k + 1, False,
                                  _graph_doc(g, prime=p, s=s))
    return PropertyResult("generation", count, True)


def check_euler_relation(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "euler")
    for k in range(count):
        g = random_graph(rng, cfg.max_vertices, 40)
        c0, c1, c2 = edge_weighted_constants(full_subgraph(g))
        _, h1 = cohomology_groups(full_subgraph(g))
        if c0 * c2 != c1 * h1.torsion_order:
            return PropertyResult("euler_relation", k + 1, False, _graph_doc(g))
    return PropertyResult("euler_relation", count, True)


def check_hbe_count(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "hbe")
    done = 0
    tried = 0
    while done < count and tried < 40 * count:
        tried += 1
        p = rng.choice(cfg.odd_primes())
        g = random_connected(rng, cfg.max_vertices, p, cfg.max_valuation,
                             min_n=3)
        if bipartition(full_subgraph(g)) is not None:
            continue
        _, _, c2 = edge_weighted_constants(full_subgraph(g))
        done += 1
        if hbe_count(g, p) != p_valuation(c2, p):
            return PropertyResult("hbe_count", done, False,
                                  _graph_doc(g, prime=p))
    return PropertyResult("hbe_count", done, True)


def check_tree_formula(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "tree")
    for k in range(count):
        n = rng.randint(1, 8)
        names = [f"v{i}" for i in range(n)]
        g = WeightedGraph({v: rng.randint(1, 10 ** 6) for v in names},
                          [(names[rng.randrange(i)], names[i])
                           for i in range(1, n)])
        _, h1 = cohomology_groups(full_subgraph(g))
        if tree_torsion(full_subgraph(g)) != h1.torsion_order:
            return PropertyResult("tree_formula", k + 1, False, _graph_doc(g))
    return PropertyResult("tree_formula", count, True)


def check_spanning_tree(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "spanning")
    for k in range(count):
        p = rng.choice(cfg.odd_primes())
        g = random_bipartite_connected(rng, p, 7, cfg.max_valuation)
        sub = full_subgraph(g)
        if oriented_torsion_exponent(sub, p) != torsion_order_p(sub, p):
            return PropertyResult("spanning_tree", k + 1, False,
                                  _graph_doc(g, prime=p))
    return PropertyResult("spanning_tree", count, True)


def check_core_relation(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "core")
    done = 0
    tried = 0
    while done < count and tried < 40 * count:
        tried += 1
        p = rng.choice(cfg.odd_primes())
        g = random_connected(rng, cfg.max_vertices, p, cfg.max_valuation,
                             min_n=3)
        try:
            got = core_torsion_relation(g, p)  # asserts against the oracle
        except AssertionError:
            return PropertyResult("core_relation", done + 1, False,
                                  _graph_doc(g, prime=p))
        if got is not None:
            done += 1
    return PropertyResult("core_relation", done, True)


def check_tropical(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "tropical")
    for k in range(count):
        n = rng.randint(2, min(6, cfg.max_vertices))
        names = [f"v{i}" for i in range(n)]
        edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
        edges += [(names[i], names[j]) for i in range(n)
                  for j in range(i + 1, n)
                  if (names[i], names[j]) not in edges and rng.random() < 0.35]
        z = z_gamma(WeightedGraph({v: 1 for v in names}, edges))
        vals = {v: rng.randint(0, cfg.max_valuation + 1) for v in names}
        for p in cfg.odd_primes():
            g = WeightedGraph({v: p ** vals[v] for v in names}, edges)
            want = torsion_order_p(full_subgraph(g), p)
            if eval_expr(z, vals) != tval(want):
                return PropertyResult("tropical_interpretation", k + 1, False,
                                      _graph_doc(g, prime=p, valuations=vals))
    return PropertyResult("tropical_interpretation", count, True)


def check_complete_graph(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "complete")
    per_n = max(1, count // 3)
    for n in (3, 4, 5):
        names = [f"v{i}" for i in range(n)]
        kn = WeightedGraph({v: 1 for v in names},
                           [(names[i], names[j]) for i in range(n)
                            for j in range(i + 1, n)])
        zg = z_gamma(kn)
        zc = z_complete(n, names)
        for k in range(per_n):
            vals = {v: rng.randint(0, cfg.max_valuation + 1) for v in names}
            ge = eval_expr(zg, vals)
            ce = eval_expr(zc, vals)
            p = rng.choice(cfg.odd_primes())
            g = WeightedGraph({v: p ** vals[v] for v in names}, kn.edges)
            want = tval(torsion_order_p(full_subgraph(g), p))
            if not (ge == ce == want):
                return PropertyResult(
                    "complete_graph", k + 1, False,
                    _graph_doc(g, prime=p, valuations=vals))
    return PropertyResult("complete_graph", 3 * per_n, True)


def check_chi(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "chi")
    for k in range(count):
        p = rng.choice(cfg.primes)
        g = random_connected(rng, cfg.max_vertices, p, cfg.max_valuation)
        try:
            cm = chi(fundamental_complex(build_forest(g, p)))
        except ChainMapError:
            return PropertyResult("chi_chain_map", k + 1, False,
                                  _graph_doc(g, prime=p))
        want = p ** torsion_order_p(full_subgraph(g), p)
        if chi_image_torsion_order(cm) != want:
            return PropertyResult("chi_chain_map", k + 1, False,
                                  _graph_doc(g, prime=p))
    return PropertyResult("chi_chain_map", count, True)


def check_restrict(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "restrict")
    for k in range(count):
        p = rng.choice(cfg.primes)
        g = random_connected(rng, cfg.max_vertices, p, cfg.max_valuation)
        forest = build_forest(g, p)
        fc = fundamental_complex(forest)
        try:
            restrict(forest, full_subgraph(g), source=fc)
            core = oriented_core(g, p, forest)
            j1 = restrict(forest, core.core, source=fc)
            inner = j1.target.forest.graph
            # anchor on a minimal-valuation vertex: off the minimum the
            # restriction formulas are not a chain map (see build notes)
            v = min(inner.vertices,
                    key=lambda w: (p_valuation(inner.weight[w], p), w))
            j2 = restrict(j1.target.forest,
                          subgraph_of(inner, [v], []), source=j1.target)
            direct = restrict(forest, subgraph_of(g, [v], []), source=fc)
            if j2.compose(j1) != (direct.map_neg, direct.map_zero,
                                  direct.map_one):
                return PropertyResult("restrict_functoriality", k + 1, False,
                                      _graph_doc(g, prime=p))
        except (ChainMapError, UnsupportedRestriction):
            return PropertyResult("restrict_functoriality", k + 1, False,
                                  _graph_doc(g, prime=p))
    return PropertyResult("restrict_functoriality", count, True)


def check_orientation_methods(cfg, count) -> PropertyResult:
    rng = _rng_for(cfg, "orient")
    done = 0
    tried = 0
    while done < count and tried < 40 * count:
        tried += 1
        p = rng.choice(cfg.primes)
        s = rng.randint(1, 3)
        g = random_connected(rng, min(5, cfg.max_vertices), p, 2)
        sub = full_subgraph(g)
        if any(g.edge_valuation(e, p) >= s for e in g.edges):
            continue
        done += 1
        rep = is_orientable(sub, p, s)
        dims_ok = all(critical_cohomology_dim(c, p, s) == 1
                      for c in components(sub))
        if rep.orientable != dims_ok:
            return PropertyResult("orientation_methods", done, False,
                                  _graph_doc(g, prime=p, s=s))
    return PropertyResult("orientation_methods", done, True)


PROPERTIES: dict[str, Callable] = {
    "snf_invariants": check_snf_invariants,
    "rank_formula": check_rank_formula,
    "rank_reweighting": check_rank_reweighting,
    "p_splitting": check_p_splitting,
    "disjoint_union": check_disjoint_union,
    "unit_rescaling": check_unit_rescaling,
    "forest_oracle": check_forest_oracle,
    "order_law": check_order_law,
    "generation": check_generation,
    "euler_relation": check_euler_relation,
    "hbe_count": check_hbe_count,
    "tree_formula": check_tree_formula,
    "spanning_tree": check_spanning_tree,
    "core_relation": check_core_relation,
    "tropical_interpretation": check_tropical,
    "complete_graph": check_complete_graph,
    "chi_chain_map": check_chi,
    "restrict_functoriality": check_restrict,
    "orientation_methods": check_orientation_methods,
}

# instance cost varies wildly; weights keep the total budget sane
SLOW = {"generation": 4, "tropical_interpretation": 2, "chi_chain_map": 2,
        "restrict_functoriality": 4, "orientation_methods": 2}


def run_property(name: str, cfg: VerificationConfig) -> PropertyResult:
    budget = max(3, cfg.instance_count // len(PROPERTIES))
    budget = max(3, budget // SLOW.get(name, 1))
    return PROPERTIES[name](cfg, budget)


def run_all(cfg: VerificationConfig) -> list[PropertyResult]:
    names = sorted(PROPERTIES)
    if cfg.parallelism > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            futures = [(n, pool.submit(run_property, n, cfg)) for n in names]
            return [f.result() for _, f in futures]
    return [run_property(n, cfg) for n in names]
