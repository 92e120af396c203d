"""Acceptance suite: every criterion at its stated tolerance.

One pass/fail line per criterion is printed (run with -s to see them on
passing runs).  Tolerances are exact (zero) unless a runtime bound is
part of the criterion, in which case the bound is asserted too.

Criterion 2 runs the structure theorem against the Smith-normal-form
oracle for p in {2, 3, 5} exactly as specified.  Its p = 2 slice rests
on the forest membership rule: a level-r node is oriented over
Z/p^(r - min valuation).  A pinned 6-vertex regression case for that
rule lives in tests/test_forest.py; the README explains the rule.
"""

import random
import time

import pytest

from gcoh.graphs import (
    WeightedGraph,
    bipartition,
    full_subgraph,
    p_valuation,
    subgraph_of,
)
from gcoh.cohomology import (
    cohomology_groups,
    d0_matrix,
    torsion_order_p,
)
from gcoh.forest import build_forest, torsion_structure
from gcoh.fcomplex import (
    chi,
    chi_image_torsion_order,
    complex_cohomology,
    fundamental_complex,
    restrict,
)
from gcoh.intlinalg import direct_sum, factorize, smith_normal_form
from gcoh.orientation import generation_check
from gcoh.tropical import eval_expr, tval, z_complete, z_gamma
from gcoh.verify import random_bipartite_connected, random_connected, random_graph
from gcoh.weights import (
    edge_weighted_constants,
    hbe_count,
    oriented_core,
    oriented_torsion_exponent,
    tree_torsion,
)


def _criterion(num, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def k3():
    return WeightedGraph({"R": 27, "G": 1, "B": 3},
                         [("R", "G"), ("R", "B"), ("G", "B")])


def test_criterion_1_worked_example():
    t0 = time.monotonic()
    g = k3()
    sub = full_subgraph(g)

    dec = smith_normal_form(d0_matrix(sub))
    _, h1 = cohomology_groups(sub)
    ok = dec.divisors == (1, 1, 162) and h1.divisors == (162,) and h1.rank == 0

    ok = ok and torsion_order_p(sub, 3) == 4

    forest = build_forest(g, 3)
    labels = {n.label() for n in forest.nodes}
    ok = ok and labels == {"({G},1)", "({B,G},2)", "({B,G},3)", "({B,G,R},4)"}

    core = oriented_core(forest)
    ok = ok and core.core.edges == (("B", "G"), ("G", "R"))

    z = z_gamma(g)
    ok = ok and eval_expr(z, {"R": 3, "G": 0, "B": 1}) == tval(4)

    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _criterion(1, ok, f"K3(27,1,3) worked example, exact match, "
                      f"{elapsed:.2f}s (< 1s)")


@pytest.mark.parametrize("p", [3, 5, 2])
def test_criterion_2_structure_theorem_oracle(p):
    rng = random.Random(1000 + p)
    count = 167
    mismatches = []
    t0 = time.monotonic()
    for _ in range(count):
        g = random_connected(rng, 7, p, 4, min_n=2)
        _, h1 = cohomology_groups(full_subgraph(g))
        got = torsion_structure(build_forest(g, p))
        want = list(h1.p_part_exponents(p))
        if got != want:
            mismatches.append((g, got, want))
    elapsed = time.monotonic() - t0
    detail = f"{count} random connected graphs at p={p}, {elapsed:.1f}s"
    if mismatches:
        g, got, want = mismatches[0]
        detail += (f"; {len(mismatches)} mismatches, first: {g} forest={got} "
                   f"divisors={want} (forest disagrees with the SNF oracle)")
    _criterion(2, not mismatches and elapsed < 60, detail)


def test_criterion_3_tropical_theorem():
    rng = random.Random(3000)
    count = 300
    t0 = time.monotonic()
    bad = None
    for _ in range(count):
        n = rng.randint(2, 6)
        names = [f"v{i}" for i in range(n)]
        edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
        edges += [(names[i], names[j]) for i in range(n)
                  for j in range(i + 1, n)
                  if (names[i], names[j]) not in edges and rng.random() < 0.35]
        z = z_gamma(WeightedGraph({v: 1 for v in names}, edges))
        vals = {v: rng.randint(0, 4) for v in names}
        for p in (3, 5):
            g = WeightedGraph({v: p ** vals[v] for v in names}, edges)
            want = torsion_order_p(full_subgraph(g), p)
            if eval_expr(z, vals) != tval(want):
                bad = (g, vals, p)
                break
        if bad:
            break
    elapsed = time.monotonic() - t0
    _criterion(3, bad is None and elapsed < 120,
               f"tropical function equals torsion exponent on {count} graphs "
               f"at p in {{3,5}}, {elapsed:.1f}s (< 120s)"
               + (f"; counterexample {bad}" if bad else ""))


def test_criterion_4_complete_graph_formula():
    rng = random.Random(4000)
    bad = None
    for n in (3, 4, 5):
        names = [f"v{i}" for i in range(n)]
        kn_edges = [(names[i], names[j]) for i in range(n)
                    for j in range(i + 1, n)]
        zg = z_gamma(WeightedGraph({v: 1 for v in names}, kn_edges))
        zc = z_complete(n, names)
        for _ in range(100):
            vals = {v: rng.randint(0, 4) for v in names}
            p = rng.choice([3, 5])
            g = WeightedGraph({v: p ** vals[v] for v in names}, kn_edges)
            want = tval(torsion_order_p(full_subgraph(g), p))
            if not (eval_expr(zc, vals) == eval_expr(zg, vals) == want):
                bad = (n, vals, p)
                break
        if bad:
            break
    _criterion(4, bad is None,
               "closed complete-graph formula == subgraph enumeration == "
               "oracle, n in {3,4,5} x 100 valuations"
               + (f"; counterexample {bad}" if bad else ""))


def test_criterion_5_tree_formula():
    rng = random.Random(5000)
    bad = None
    for _ in range(200):
        n = rng.randint(1, 8)
        names = [f"v{i}" for i in range(n)]
        g = WeightedGraph({v: rng.randint(1, 10 ** 6) for v in names},
                          [(names[rng.randrange(i)], names[i])
                           for i in range(1, n)])
        _, h1 = cohomology_groups(full_subgraph(g))
        if tree_torsion(full_subgraph(g)) != h1.torsion_order:
            bad = g
            break
    _criterion(5, bad is None,
               "tree formula equals SNF torsion order on 200 random trees"
               + (f"; counterexample {bad}" if bad else ""))


def test_criterion_6_spanning_tree_theorem():
    rng = random.Random(6000)
    bad = None
    for _ in range(200):
        p = rng.choice([3, 5])
        g = random_bipartite_connected(rng, p, 7, 4)
        sub = full_subgraph(g)
        if oriented_torsion_exponent(sub, p) != torsion_order_p(sub, p):
            bad = (g, p)
            break
    _criterion(6, bad is None,
               "spanning-tree exponent equals oracle exponent on 200 "
               "oriented reduced connected instances (odd primes; the p=2 "
               "pipeline is out of scope per the build notes)"
               + (f"; counterexample {bad}" if bad else ""))


def test_criterion_7_euler_relation_and_hbe():
    rng = random.Random(7000)
    bad = None
    for _ in range(200):
        g = random_graph(rng, 6, 40)
        sub = full_subgraph(g)
        c0, c1, c2 = edge_weighted_constants(sub)
        _, h1 = cohomology_groups(sub)
        if c0 * c2 != c1 * h1.torsion_order:
            bad = ("euler", g)
            break
    hbe_done = 0
    while bad is None and hbe_done < 60:
        p = rng.choice([3, 5])
        g = random_connected(rng, 6, p, 3, min_n=3)
        if bipartition(full_subgraph(g)) is not None:
            continue
        _, _, c2 = edge_weighted_constants(full_subgraph(g))
        if hbe_count(g, p) != p_valuation(c2, p):
            bad = ("hbe", g, p)
            break
        hbe_done += 1
    _criterion(7, bad is None,
               "Euler relation exact on 200 random graphs and the forest "
               "count matches val_p(C2) on non-bipartite instances (odd p)"
               + (f"; counterexample {bad}" if bad else ""))


def test_criterion_8_structural_suite():
    rng = random.Random(8000)
    failures = []

    # rank independence under reweighting: 10 reweightings x 50 graphs
    for _ in range(50):
        g = random_connected(rng, 6, 3, 3)
        base = cohomology_groups(full_subgraph(g))
        for _ in range(10):
            h = WeightedGraph({v: rng.randint(1, 60) for v in g.vertices},
                              g.edges)
            got = cohomology_groups(full_subgraph(h))
            if (got[0].rank, got[1].rank) != (base[0].rank, base[1].rank):
                failures.append(("rank", h))
                break

    # p-splitting product law
    for _ in range(40):
        g = random_graph(rng, 5, 60)
        _, h1 = cohomology_groups(full_subgraph(g))
        prod = 1
        for p in factorize(h1.torsion_order):
            gp = WeightedGraph({v: p ** p_valuation(g.weight[v], p)
                                for v in g.vertices}, g.edges)
            prod *= p ** cohomology_groups(full_subgraph(gp))[1].p_exponent(p)
        if prod != h1.torsion_order:
            failures.append(("p_splitting", g))

    # disjoint-union additivity
    for _ in range(40):
        g1 = random_graph(rng, 4, 30)
        g2 = random_graph(rng, 4, 30)
        union = WeightedGraph(
            {**g1.weight, **{f"w{v}": k for v, k in g2.weight.items()}},
            list(g1.edges) + [(f"w{u}", f"w{v}") for u, v in g2.edges])
        hu = cohomology_groups(full_subgraph(union))
        ha = cohomology_groups(full_subgraph(g1))
        hb = cohomology_groups(full_subgraph(g2))
        if hu[0] != direct_sum(ha[0], hb[0]) \
                or hu[1] != direct_sum(ha[1], hb[1]):
            failures.append(("disjoint", union))

    # chi chain-map identity (all primes) and image torsion order (odd)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        g = random_connected(rng, 6, p, 3)
        try:
            cm = chi(fundamental_complex(build_forest(g, p)))
        except AssertionError:
            failures.append(("chi_chain_map", g, p))
            continue
        if p != 2 and chi_image_torsion_order(cm) != \
                p ** torsion_order_p(full_subgraph(g), p):
            failures.append(("chi_image", g, p))

    # restriction chain maps and composition (odd primes)
    for _ in range(25):
        p = rng.choice([3, 5])
        g = random_connected(rng, 6, p, 3)
        forest = build_forest(g, p)
        fc = fundamental_complex(forest)
        try:
            restrict(fc, full_subgraph(g))
            core = oriented_core(forest)
            j1 = restrict(fc, core.core)
            inner = j1.target.forest.graph
            v = min(inner.vertices,
                    key=lambda w: (p_valuation(inner.weight[w], p), w))
            j2 = restrict(j1.target, subgraph_of(inner, [v], []))
            direct = restrict(fc, subgraph_of(g, [v], []))
            if j2.compose(j1) != (direct.map_neg, direct.map_zero,
                                  direct.map_one):
                failures.append(("restrict_compose", g, p))
        except AssertionError:
            failures.append(("restrict", g, p))

    # generation theorem on 100 instances with s <= 3
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        g = random_connected(rng, 5, p, 3)
        s = rng.randint(1, 3)
        if not generation_check(g, p, s):
            failures.append(("generation", g, p, s))

    # order law for the fundamental complex (all primes)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        g = random_connected(rng, 6, p, 3)
        forest = build_forest(g, p)
        _, h1 = complex_cohomology(fundamental_complex(forest))
        if h1.torsion_order != p ** len(forest.counted_nodes):
            failures.append(("order_law", g, p))

    _criterion(8, not failures,
               "structural suite: rank independence, p-splitting, disjoint "
               "union, chi identities, restriction functoriality, "
               "generation, order law"
               + (f"; failures {failures[:2]}" if failures else ""))
