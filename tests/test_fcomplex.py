import hashlib
import random
from dataclasses import FrozenInstanceError

import pytest

from gcoh import intlinalg
from gcoh.graphs import (
    Subgraph,
    WeightedGraph,
    components,
    full_subgraph,
    p_valuation,
    subgraph_of,
)
from gcoh.cohomology import cohomology_groups
from gcoh.intlinalg import (
    AbelianGroup,
    cokernel_structure,
    matmul,
    matrix_from_columns,
    smith_normal_form,
)
from gcoh.forest import build_forest, forest_to_dot
from gcoh.fcomplex import (
    CLS0,
    REL0,
    ChainMapError,
    UnsupportedRestriction,
    chi,
    chi_image_torsion_order,
    complex_cohomology,
    fundamental_complex,
    restrict,
)
from gcoh.verify import random_connected
from gcoh.weights import oriented_core


def k3():
    return WeightedGraph({"R": 27, "G": 1, "B": 3},
                         [("R", "G"), ("R", "B"), ("G", "B")])


def k3_complex():
    return fundamental_complex(build_forest(k3(), 3))


def test_results_are_frozen():
    fc = k3_complex()
    g = fc.forest.graph
    results = [(fc.forest, "nodes"), (fc, "gens_one"), (chi(fc), "degree0"),
               (restrict(fc, full_subgraph(g)), "map_one")]
    for result, name in results:
        with pytest.raises(FrozenInstanceError):
            setattr(result, name, ())


def graph_of(gen):
    return tuple(gen.vertices)


def test_complex_generators_k3():
    fc = k3_complex()
    # relators exist exactly off the minimal subgraphs
    assert [graph_of(d) for d in fc.gens_neg] == [("B", "G"), ("B", "G", "R")]
    kinds = [(k, graph_of(d)) for k, d in fc.gens_zero]
    assert (CLS0, ("G",)) in kinds
    # class generators include the degenerate single-vertex covers
    assert (CLS0, ("B",)) in kinds
    assert (CLS0, ("R",)) in kinds


def test_complex_differential_k3():
    fc = k3_complex()
    f = fc.forest
    path = next(d for d in f.subgraphs if len(d.vertex_set) == 3)
    gb = next(d for d in f.subgraphs if graph_of(d) == ("B", "G"))
    gv = next(d for d in f.subgraphs if graph_of(d) == ("G",))
    b_extra = next(d for d in f.extras if graph_of(d) == ("B",))

    # d(class0(path)) = p^4 * class1(path)
    col = fc.d_zero.column(fc.zero_at[(CLS0, path)])
    assert col[fc.one_at[path]] == 3 ** 4
    assert sum(abs(x) for x in col) == 3 ** 4

    # d(rel0(gb)) = p^(3-1) class1(gb) - class1(g) - class1(b-cover)
    col = fc.d_zero.column(fc.zero_at[(REL0, gb)])
    assert col[fc.one_at[gb]] == 3 ** 2
    assert col[fc.one_at[gv]] == -1
    assert col[fc.one_at[b_extra]] == -1

    # differentials square to zero (also verified at construction)
    assert matmul(fc.d_zero, fc.d_neg).is_zero()


def test_complex_cohomology_examples():
    h0, h1 = complex_cohomology(k3_complex())
    assert h0 == AbelianGroup(0)
    assert h1.rank == 0 and h1.torsion_order == 3 ** 4

    tri = WeightedGraph({"u": 1, "v": 1, "w": 1},
                        [("u", "v"), ("u", "w"), ("v", "w")])
    h0, h1 = complex_cohomology(fundamental_complex(build_forest(tri, 3)))
    assert h0 == AbelianGroup(0) and h1 == AbelianGroup(0)

    single = WeightedGraph({"v": 9}, [])
    h0, h1 = complex_cohomology(fundamental_complex(build_forest(single, 3)))
    assert h0 == AbelianGroup(1) and h1 == AbelianGroup(0)


def test_order_law_connected():
    # |H1(complex)| = p^(number of counted nodes), any prime
    rng = random.Random(31)
    for _ in range(25):
        p = rng.choice([2, 3, 5])
        g = random_connected(rng, 6, p, 3)
        f = build_forest(g, p)
        _, h1 = complex_cohomology(fundamental_complex(f))
        assert h1.torsion_order == p ** len(f.counted_nodes)
        assert h1.rank == 0


def random_graph(rng, max_n, p, max_a):
    """p-power weights, each edge with probability 0.35: often disconnected."""
    n = rng.randint(1, max_n)
    names = [f"v{i}" for i in range(n)]
    weights = {v: p ** rng.randint(0, max_a) for v in names}
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.35]
    return WeightedGraph(weights, edges)


def reference_cohomology(fc):
    """(H0, H1) by the kernel-plus-quotient route: a lattice basis of
    ker(d_zero), the coordinates of im(d_neg) in that basis, and the
    cokernel of the coordinate matrix."""
    h1 = cokernel_structure(fc.d_zero)
    dec = smith_normal_form(fc.d_zero)
    kernel = [dec.v.column(j) for j in range(dec.rank, fc.d_zero.cols)]
    if not kernel:
        assert fc.d_neg.is_zero()
        return AbelianGroup(0), h1
    basis = smith_normal_form(matrix_from_columns(kernel, fc.d_zero.cols))
    coords = [basis.solve(w) for w in fc.d_neg.columns()]
    assert None not in coords  # im(d_neg) lies in ker(d_zero)
    return cokernel_structure(matrix_from_columns(coords, len(kernel))), h1


def test_complex_cohomology_matches_the_kernel_quotient_route():
    rng = random.Random(36)
    nonzero_h0 = disconnected = 0
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        g = random_graph(rng, 7, p, 3)
        fc = fundamental_complex(build_forest(g, p))
        h0, h1 = complex_cohomology(fc)
        assert (h0, h1) == reference_cohomology(fc)
        assert h0 == cohomology_groups(full_subgraph(g))[0]
        nonzero_h0 += h0 != AbelianGroup(0)
        disconnected += h0.rank > 1
    assert nonzero_h0 and disconnected  # the draws reach both cases


def test_complex_cohomology_takes_two_smith_forms(monkeypatch):
    calls = []
    real = intlinalg.smith_normal_form

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
    rng = random.Random(37)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        fc = fundamental_complex(build_forest(random_graph(rng, 7, p, 3), p))
        calls.clear()
        complex_cohomology(fc)
        assert len(calls) == 2


def test_complex_h0_free_generator_bipartite():
    square = WeightedGraph({v: 3 for v in "abcd"},
                           [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    h0, _ = complex_cohomology(fundamental_complex(build_forest(square, 3)))
    assert h0 == AbelianGroup(1)


def test_chi_k3_values():
    fc = k3_complex()
    cm = chi(fc)
    f = fc.forest
    verts = cm.ambient.vertices  # B, G, R
    gv = next(d for d in f.subgraphs if graph_of(d) == ("G",))
    col = cm.degree0.column(fc.zero_at[(CLS0, gv)])
    # divided class of the one-vertex graph, up to the induced sign
    assert [abs(x) for x in col] == [0, 1, 0]

    path = next(d for d in f.subgraphs if len(d.vertex_set) == 3)
    col1 = cm.degree1.column(fc.one_at[path])
    edges = cm.ambient.edges
    nonzero = {e: c for e, c in zip(edges, col1) if c}
    assert set(nonzero) == {("B", "R")}
    assert abs(nonzero[("B", "R")]) == 2  # 162 / 3^4

    # relators map to zero
    for kind, d in fc.gens_zero:
        if kind == REL0:
            assert not any(cm.degree0.column(fc.zero_at[(kind, d)]))


def test_chi_is_chain_map_randomized():
    rng = random.Random(32)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        g = random_connected(rng, 6, p, 3)
        fc = fundamental_complex(build_forest(g, p))
        chi(fc)  # raises ChainMapError on failure


def test_chi_image_is_full_p_torsion_odd_primes():
    rng = random.Random(33)
    for _ in range(20):
        p = rng.choice([3, 5])
        g = random_connected(rng, 6, p, 3)
        fc = fundamental_complex(build_forest(g, p))
        cm = chi(fc)
        _, h1 = cohomology_groups(full_subgraph(g))
        assert chi_image_torsion_order(cm) == p ** h1.p_exponent(p)


def test_restrict_identity():
    g = k3()
    f = build_forest(g, 3)
    r = restrict(fundamental_complex(f), full_subgraph(g))
    # value-equal generators on both sides: the matrices are permutations
    for m in (r.map_neg, r.map_zero, r.map_one):
        assert m.rows == m.cols
        assert sorted(m.column(j) for j in range(m.cols)) == sorted(
            tuple(1 if i == j else 0 for i in range(m.rows))
            for j in range(m.cols))


def test_restrict_single_vertex_example():
    g = k3()
    f = build_forest(g, 3)
    fc = fundamental_complex(f)
    d = subgraph_of(g, ["G"], [])
    r = restrict(fc, d)
    small = r.target
    gv = small.forest.subgraphs[0]
    for kind, omega in fc.gens_zero:
        if kind != CLS0 or "G" not in omega.vertex_set:
            continue
        col = r.map_zero.column(fc.zero_at[(kind, omega)])
        assert col[small.zero_at[(CLS0, gv)]] == 1


def test_restrict_drop_edge_example():
    g = k3()
    f = build_forest(g, 3)
    fc = fundamental_complex(f)
    d = subgraph_of(g, ["R", "G", "B"], [("R", "G"), ("G", "B")])
    r = restrict(fc, d)
    path_big = next(x for x in f.subgraphs if len(x.vertex_set) == 3)
    path_small = next(x for x in r.target.forest.subgraphs
                      if len(x.vertex_set) == 3)
    col = r.map_zero.column(fc.zero_at[(CLS0, path_big)])
    assert col[r.target.zero_at[(CLS0, path_small)]] == 1
    # the path is now a bipartite component: its degree-1 class is divided out
    assert path_small not in r.target.one_at


def test_restrict_composition_on_chains():
    rng = random.Random(34)
    g = k3()
    f = build_forest(g, 3)
    fc = fundamental_complex(f)
    mid = subgraph_of(g, ["R", "G", "B"], [("R", "G"), ("G", "B")])
    j1 = restrict(fc, mid)
    inner_graph = j1.target.forest.graph
    small = subgraph_of(inner_graph, ["G"], [])
    j2 = restrict(j1.target, small)
    direct = restrict(fc, subgraph_of(g, ["G"], []))
    composed = j2.compose(j1)
    for got, want in zip(composed,
                         (direct.map_neg, direct.map_zero, direct.map_one)):
        assert got == want


def test_restrict_functoriality_at_p2_randomized():
    # the anchored composition of `gcoh verify`: full graph, oriented
    # core, then one minimal-valuation vertex of the core
    rng = random.Random(38)
    for _ in range(40):
        g = random_connected(rng, 6, 2, 3)
        f = build_forest(g, 2)
        fc = fundamental_complex(f)
        restrict(fc, full_subgraph(g))
        j1 = restrict(fc, oriented_core(f).core)
        inner = j1.target.forest.graph
        v = min(inner.vertices,
                key=lambda w: (p_valuation(inner.weight[w], 2), w))
        j2 = restrict(j1.target, subgraph_of(inner, [v], []))
        direct = restrict(fc, subgraph_of(g, [v], []))
        assert j2.compose(j1) == (direct.map_neg, direct.map_zero,
                                  direct.map_one)


def test_restrict_raises_on_known_defective_case():
    # dropping the bc edge cuts the infinite chain of this path into
    # pieces with different minimum valuations; the restriction formulas
    # do not give a chain map there
    g = WeightedGraph({"a": 1, "b": 9, "c": 27}, [("a", "b"), ("b", "c")])
    f = build_forest(g, 3)
    d = subgraph_of(g, ["a", "b", "c"], [("a", "b")])
    with pytest.raises(ChainMapError):
        restrict(fundamental_complex(f), d)


def test_restrict_refuses_a_subgraph_of_another_graph():
    # a value-equal copy of the graph is still another graph
    fc = k3_complex()
    with pytest.raises(ValueError, match="does not belong"):
        restrict(fc, full_subgraph(k3()))


def _pin_graphs():
    """Seeded graphs at p = 2, 3, 5, weights p-powers times units prime
    to p, each with three subgraphs: the full graph, its oriented core
    and a random subgraph that drops an induced edge."""
    rng = random.Random(39)
    for p in (2, 3, 5):
        for _ in range(40):
            h = random_connected(rng, 7, p, 3)
            g = WeightedGraph({v: h.weight[v] * rng.choice([1, 1, 7, 11, 13])
                               for v in h.vertices}, h.edges)
            f = build_forest(g, p)
            verts = [v for v in g.vertices if rng.random() < 0.8] or [g.vertices[0]]
            inside = [e for e in g.edges if e[0] in verts and e[1] in verts]
            kept = [e for e in inside if rng.random() < 0.7]
            if inside and len(kept) == len(inside):
                kept.pop(rng.randrange(len(kept)))
            yield p, g, f, (full_subgraph(g), oriented_core(f).core,
                            subgraph_of(g, verts, kept))


def _shape(m):
    return m.rows, m.cols, m.entries


def test_chi_and_restrict_are_pinned():
    # every chi matrix and torsion order, every restriction's maps or its
    # refusal's type and message, on seeded graphs at three primes
    digest = hashlib.sha256()
    runs = refusals = 0
    for p, g, f, subgraphs in _pin_graphs():
        fc = fundamental_complex(f)
        cm = chi(fc)
        digest.update(repr((p, g, _shape(cm.degree0), _shape(cm.degree1),
                            _shape(cm.ambient_d0),
                            chi_image_torsion_order(cm))).encode())
        for d in subgraphs:
            runs += 1
            try:
                r = restrict(fc, d)
                got = (_shape(r.map_neg), _shape(r.map_zero), _shape(r.map_one))
            except (ChainMapError, UnsupportedRestriction) as exc:
                got = (type(exc).__name__, str(exc))
                refusals += 1
            digest.update(repr(got).encode())
    assert 0 < refusals < runs // 2
    assert digest.hexdigest() == (
        "5f4a6fd6ff5f9ad51c3e26b9501066246fb0bedd599dd1c7f02251b1baa00422")


def test_dot_and_core_are_pinned():
    # what the chi/restrict pin leaves out: the descent edges (`below`)
    # through the DOT rendering and the maximal subgraphs through every
    # part of the oriented core, on the same seeded graphs
    digest = hashlib.sha256()
    for p, g, f, _ in _pin_graphs():
        dec = oriented_core(f)
        parts = [(c.graph.sort_key(), c.sup_level, c.min_val, c.bipartite,
                  c.from_forest) for c in dec.per_component]
        digest.update(repr((p, g, forest_to_dot(f), dec.core.sort_key(),
                            sorted(dec.special_edges), parts)).encode())
    assert digest.hexdigest() == (
        "56357ed298bc0dd7a784c20e42e03e2560a72ca4cd06eb3cbae686e134cb426b")


def test_restriction_pieces_are_the_intersection_components():
    # what `restrict` reads off the target filtration, against the graph
    # search it replaced: the components of each generator's intersection
    # with d are the target's classes at the generator's first level
    pairs = 0
    for p, g, f, subgraphs in _pin_graphs():
        fc = fundamental_complex(f)
        for d in subgraphs:
            dg = d.as_graph()
            small = build_forest(dg, p).filtration
            for omega in {x for _, x in fc.gens_zero}:
                r = f.filtration.span[omega][0]
                pieces = list(dict.fromkeys(
                    small.class_of(v, r)
                    for v in sorted(omega.vertex_set & d.vertex_set)))
                assert pieces == components(Subgraph(
                    dg, omega.vertex_set & d.vertex_set,
                    omega.edge_set & d.edge_set))
                pairs += 1
    assert pairs > 1000
