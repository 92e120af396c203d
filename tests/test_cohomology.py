import json
import random
from itertools import product

import gcoh.cohomology
import gcoh.intlinalg
import gcoh.orientation
from gcoh.cli import main
from gcoh.forest import build_forest
from gcoh.graphs import (
    WeightedGraph,
    filtration,
    full_subgraph,
    graph_to_json,
    p_valuation,
)
from gcoh.intlinalg import AbelianGroup, mat_vec
from gcoh.cohomology import (
    cohomology_groups,
    critical_cohomology_dim,
    d0_edge_matrix,
    d0_matrix,
    torsion_order_p,
)
from gcoh.orientation import generation_check


def k3():
    return WeightedGraph({"R": 27, "G": 1, "B": 3},
                         [("R", "G"), ("R", "B"), ("G", "B")])


def triangle(a, b, c):
    return WeightedGraph({"u": a, "v": b, "w": c},
                         [("u", "v"), ("u", "w"), ("v", "w")])


def test_d0_matrix_rows():
    g = full_subgraph(k3())
    a = d0_matrix(g)
    assert g.vertices == ("B", "G", "R") and a.cols == 3
    rows = dict(zip(g.edges, a.entries))
    # row of e(v,w): k_w in column v, k_v in column w
    assert rows[("G", "R")] == (0, 27, 1)
    assert rows[("B", "R")] == (27, 0, 3)
    assert rows[("B", "G")] == (1, 3, 0)


def test_d0_edge_matrix():
    tri = triangle(1, 1, 1)
    a = d0_edge_matrix(full_subgraph(tri))
    assert all(sorted(row) == [0, 1, 1] for row in a.entries)

    e = WeightedGraph({"u": 4, "v": 6}, [("u", "v")])
    ae = d0_edge_matrix(full_subgraph(e))
    assert ae.entries == ((24, 24),)

    g = full_subgraph(k3())
    rows = dict(zip(g.edges, d0_edge_matrix(g).entries))
    assert rows[("B", "G")] == (3, 3, 0)


def test_cohomology_groups_examples():
    e = WeightedGraph({"u": 4, "v": 6}, [("u", "v")])
    h0, h1 = cohomology_groups(full_subgraph(e))
    assert h0 == AbelianGroup(1)
    assert h1 == AbelianGroup(0, (2,))

    h0, h1 = cohomology_groups(full_subgraph(k3()))
    assert h0 == AbelianGroup(0)
    assert h1 == AbelianGroup(0, (162,))

    h0, h1 = cohomology_groups(full_subgraph(triangle(1, 1, 1)))
    assert h0 == AbelianGroup(0)
    assert h1 == AbelianGroup(0, (2,))


def test_cohomology_of_edgeless_graph():
    g = WeightedGraph({"a": 5, "b": 7}, [])
    h0, h1 = cohomology_groups(full_subgraph(g))
    assert h0 == AbelianGroup(2)
    assert h1 == AbelianGroup(0)


def test_torsion_order_p_examples():
    g = full_subgraph(k3())
    assert torsion_order_p(g, 3) == 4
    assert torsion_order_p(g, 2) == 1
    assert torsion_order_p(full_subgraph(triangle(1, 1, 1)), 3) == 0


def brute_critical_dim(g, p, s):
    """Independent oracle: enumerate kernels mod p**s and p**(s-1)."""
    a = d0_matrix(g)
    n = a.cols

    def kernel(mod):
        return [x for x in product(range(mod), repeat=n)
                if all(v % mod == 0 for v in mat_vec(a, x))]

    ker_s = set(kernel(p ** s))
    if s == 1:
        image = {(0,) * n}
    else:
        image = {tuple(p * x % p ** s for x in v) for v in kernel(p ** (s - 1))}
    return _log(len(ker_s) // len(image), p)


def _log(n, p):
    e = 0
    while n > 1:
        n //= p
        e += 1
    return e


def test_critical_dim_examples():
    single = WeightedGraph({"v": 9}, [])
    for s in (1, 2, 3):
        assert critical_cohomology_dim(full_subgraph(single), 3, s) == 1

    tri111 = full_subgraph(triangle(1, 1, 1))
    assert critical_cohomology_dim(tri111, 3, 1) == 0
    assert brute_critical_dim(tri111, 3, 1) == 0

    tri211 = full_subgraph(triangle(2, 1, 1))
    assert critical_cohomology_dim(tri211, 2, 2) == 1
    assert brute_critical_dim(tri211, 2, 2) == 1


def test_critical_dim_matches_brute_force_on_random_graphs():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 3)
        names = [f"v{i}" for i in range(n)]
        p = rng.choice([2, 3])
        weights = {v: p ** rng.randint(0, 2) for v in names}
        edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.7]
        g = full_subgraph(WeightedGraph(weights, edges))
        s = rng.randint(1, 2)
        assert critical_cohomology_dim(g, p, s) == brute_critical_dim(g, p, s)
    # p = 5 and s = 3 too, on graphs small enough to enumerate (p**s)**n
    for p, s in product((2, 3, 5), (1, 2, 3)):
        for _ in range(3):
            n = rng.randint(1, 3 if p ** s <= 27 else 2)
            names = [f"v{i}" for i in range(n)]
            weights = {v: p ** rng.randint(0, 3) * rng.choice((1, 2, 4, 7))
                       for v in names}
            edges = [(names[i], names[j]) for i in range(n)
                     for j in range(i + 1, n) if rng.random() < 0.7]
            g = full_subgraph(WeightedGraph(weights, edges))
            assert (critical_cohomology_dim(g, p, s)
                    == brute_critical_dim(g, p, s))


def test_rank_formula_connected():
    # connected: rank H1 = #E - #V + 1 if bipartite else #E - #V
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 6)
        names = [f"v{i}" for i in range(n)]
        edges = [(names[i], names[i + 1]) for i in range(n - 1)]
        extra = [(names[i], names[j]) for i in range(n) for j in range(i + 2, n)
                 if rng.random() < 0.3]
        g = WeightedGraph({v: rng.randint(1, 50) for v in names}, edges + extra)
        sub = full_subgraph(g)
        h0, h1 = cohomology_groups(sub)
        from gcoh.graphs import bipartition
        bip = bipartition(sub) is not None
        ne, nv = len(g.edges), len(g.vertices)
        assert h0.rank == (1 if bip else 0)
        assert h1.rank == (ne - nv + 1 if bip else ne - nv)


def test_rank_independent_of_weights():
    rng = random.Random(6)
    g0 = triangle(1, 1, 1)
    base = cohomology_groups(full_subgraph(g0))
    for _ in range(10):
        g = triangle(rng.randint(1, 99), rng.randint(1, 99), rng.randint(1, 99))
        h0, h1 = cohomology_groups(full_subgraph(g))
        assert (h0.rank, h1.rank) == (base[0].rank, base[1].rank)


def test_p_splitting_product_law():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(2, 5)
        names = [f"v{i}" for i in range(n)]
        weights = {v: rng.randint(1, 60) for v in names}
        edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.6]
        g = WeightedGraph(weights, edges)
        _, h1 = cohomology_groups(full_subgraph(g))
        total = h1.torsion_order
        from gcoh.intlinalg import factorize
        prod = 1
        for p in factorize(total):
            gp = WeightedGraph(
                {v: p ** p_valuation(weights[v], p) for v in names}, edges)
            _, h1p = cohomology_groups(full_subgraph(gp))
            prod *= p ** h1p.p_exponent(p)
        assert prod == total


def test_unit_rescaling_invariance():
    rng = random.Random(8)
    g = k3()
    base = torsion_order_p(full_subgraph(g), 3)
    for _ in range(10):
        units = {v: rng.choice([1, 2, 4, 5, 7, 8]) for v in g.vertices}
        g2 = WeightedGraph({v: g.weight[v] * units[v] for v in g.vertices},
                           g.edges)
        assert torsion_order_p(full_subgraph(g2), 3) == base


def test_disjoint_union_additivity():
    from gcoh.intlinalg import direct_sum
    g1 = triangle(2, 1, 1)
    g2 = WeightedGraph({"x": 4, "y": 6}, [("x", "y")])
    union = WeightedGraph(
        {**{v: g1.weight[v] for v in g1.vertices},
         **{v: g2.weight[v] for v in g2.vertices}},
        list(g1.edges) + list(g2.edges))
    h0u, h1u = cohomology_groups(full_subgraph(union))
    a0, a1 = cohomology_groups(full_subgraph(g1))
    b0, b1 = cohomology_groups(full_subgraph(g2))
    assert h0u == direct_sum(a0, b0)
    assert h1u == direct_sum(a1, b1)


def test_filtration_covers_isolated_heavy_vertex():
    g = WeightedGraph({"a": 1, "b": 3, "z": 81}, [("a", "b")])
    filt = filtration(full_subgraph(g), 3)
    keys = {(s.vertices, s.edges) for s in filt.span}
    assert (("z",), ()) in keys
    assert filt.top == 5


def test_generation_check_examples():
    assert generation_check(k3(), 3, 2) is True
    edge = WeightedGraph({"u": 4, "v": 6}, [("u", "v")])
    assert generation_check(edge, 2, 1) is True
    # bipartite graph with p**s above every edge product
    square = WeightedGraph({v: 3 for v in "abcd"},
                           [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert generation_check(square, 3, 4) is True


def test_generation_check_randomized():
    rng = random.Random(9)
    for _ in range(12):
        n = rng.randint(2, 5)
        names = [f"v{i}" for i in range(n)]
        p = rng.choice([2, 3])
        weights = {v: p ** rng.randint(0, 3) for v in names}
        edges = [(names[i], names[i + 1]) for i in range(n - 1)]
        edges += [(names[i], names[j]) for i in range(n) for j in range(i + 2, n)
                  if rng.random() < 0.4]
        g = WeightedGraph(weights, edges)
        s = rng.randint(1, 3)
        assert generation_check(g, p, s) is True


def test_one_snf_per_cohomology_query(monkeypatch, tmp_path, capsys):
    calls = []
    real = gcoh.intlinalg.smith_normal_form

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args[0], out))
        return out

    monkeypatch.setattr(gcoh.intlinalg, "smith_normal_form", counted)
    rng = random.Random(41)
    names = [f"v{i:02d}" for i in range(30)]
    big = WeightedGraph(  # d0 is tall enough for the Hermite-compressed path
        {v: 3 ** rng.randint(0, 3) * rng.choice([1, 2]) for v in names},
        {tuple(sorted(rng.sample(names, 2))) for _ in range(70)})
    graphs = [k3(), triangle(1, 1, 1), triangle(4, 6, 9), big,
              WeightedGraph({"a": 5, "b": 7}, [])]
    for g in graphs:
        calls.clear()
        h0, h1 = cohomology_groups(full_subgraph(g))
        assert len(calls) == 1
        a, dec = calls[0]
        assert (dec.hermite is not None) == (g is big)
        assert h0 == AbelianGroup(len(g.vertices) - real(a).rank)  # a may be d0 transposed
        for p in (2, 3):
            calls.clear()
            build_forest(g, p)
            assert calls == []
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json(g)))
        calls.clear()
        assert main(["torsion", str(path), "--prime", "3"]) == 0
        assert len(calls) == 1
    capsys.readouterr()


def test_generation_check_decomposes_the_candidates_once(monkeypatch):
    # Unit weights at p = 3: every class is reduced, so orientability
    # needs no Smith form and the only solves are against the candidates.
    monkeypatch.setattr(gcoh.intlinalg, "COMPRESS_MIN_GAP", 1)
    real = gcoh.intlinalg.smith_normal_form
    real_solve = gcoh.intlinalg.SmithDecomposition.solve
    calls, solved = [], []

    def counted(a):
        calls.append(a)
        return real(a)

    def counted_solve(dec, b, modulus=None):
        solved.append(dec)
        return real_solve(dec, b, modulus)

    for module in (gcoh.intlinalg, gcoh.cohomology, gcoh.orientation):
        monkeypatch.setattr(module, "smith_normal_form", counted)
    monkeypatch.setattr(gcoh.intlinalg.SmithDecomposition, "solve",
                        counted_solve)
    g = WeightedGraph({"a": 1, "b": 2, "c": 1, "d": 4, "e": 5},
                      [("a", "b"), ("c", "d")])
    gens = len(gcoh.intlinalg.kernel_mod(
        gcoh.cohomology.d0_matrix(full_subgraph(g)), 3, 2))
    calls.clear()
    assert generation_check(g, 3, 2) is True
    assert gens >= 3 and len(solved) == gens
    assert len({id(dec) for dec in solved}) == 1
    assert len(calls) == 3  # kernel_mod's SNF and its span check, then one


def reference_generation_candidates(full, p, s):
    """The per-level route: one `is_orientable(delta, p, s - d)` per d."""
    from gcoh.orientation import is_orientable

    verts, ps, out = full.vertices, p ** s, []
    filt = filtration(full, p)
    for delta in sorted(filt.span, key=lambda d: (d.vertices, d.edges)):
        r_delta, m_delta = filt.boundary_valuation(delta), filt.min_val[delta]
        for d in range(s):
            if r_delta is not None and r_delta - m_delta < s - d:
                continue
            report = is_orientable(delta, p, s - d)
            if not report.orientable or report.orientation_class is None:
                continue
            scaled = tuple(report.orientation_class.get(v, 0) * p ** d % ps
                           for v in verts)
            if any(scaled):
                out.append(scaled)
    return out


def test_generation_candidates_take_one_snf_per_class(monkeypatch):
    """Each filtration class is decomposed at most once, and exactly when
    it is not reduced at one of its levels; the candidates equal the
    per-level route's."""
    real = gcoh.orientation.smith_normal_form
    calls = []

    def counted(a):
        calls.append(a.entries)
        return real(a)

    rng = random.Random(43)
    decomposed = 0
    for _ in range(40):
        n = rng.randint(2, 6)
        p = rng.choice([2, 3])
        names = [f"v{i}" for i in range(n)]
        edges = {(names[rng.randrange(i)], names[i]) for i in range(1, n)}
        edges |= {(names[i], names[j]) for i in range(n)
                  for j in range(i + 1, n) if rng.random() < 0.3}
        g = WeightedGraph({v: p ** rng.randint(0, 3) * rng.choice([1, 5, 7])
                           for v in names}, sorted(edges))
        s = rng.randint(1, 4)
        full = full_subgraph(g)
        want = reference_generation_candidates(full, p, s)
        filt = filtration(full, p)
        expected = 0
        for delta in filt.span:
            r_delta, m_delta = filt.boundary_valuation(delta), filt.min_val[delta]
            top = max((g.edge_valuation(e, p) for e in delta.edge_set),
                      default=-1)
            expected += any(top >= s - d for d in range(s)
                            if r_delta is None or r_delta - m_delta >= s - d)
        calls.clear()
        monkeypatch.setattr(gcoh.orientation, "smith_normal_form", counted)
        got = gcoh.orientation._generation_candidates(full, p, s)
        monkeypatch.setattr(gcoh.orientation, "smith_normal_form", real)
        assert got == want, (g, p, s)
        assert len(calls) == expected, (g, p, s)
        assert len(set(calls)) == len(calls)
        decomposed += expected
    assert decomposed > 10
