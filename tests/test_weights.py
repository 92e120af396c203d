import random

import pytest

from gcoh.graphs import WeightedGraph, full_subgraph, p_valuation, subgraph_of
from gcoh.cohomology import cohomology_groups, torsion_order_p
from gcoh.forest import build_forest
from gcoh.weights import (
    core_torsion_relation,
    edge_weighted_constants,
    hbe_count,
    oriented_core,
    oriented_torsion_exponent,
    tree_torsion,
    weighted_spanning_tree,
)


def k3():
    return WeightedGraph({"R": 27, "G": 1, "B": 3},
                         [("R", "G"), ("R", "B"), ("G", "B")])


def test_tree_torsion_examples():
    single = full_subgraph(WeightedGraph({"v": 7}, []))
    assert tree_torsion(single) == 1

    edge = full_subgraph(WeightedGraph({"u": 4, "v": 6}, [("u", "v")]))
    assert tree_torsion(edge) == 2

    star = full_subgraph(WeightedGraph(
        {"c": 2, "x": 3, "y": 4, "z": 5},
        [("c", "x"), ("c", "y"), ("c", "z")]))
    assert tree_torsion(star) == 4
    _, h1 = cohomology_groups(star)
    assert h1.torsion_order == 4


def test_tree_torsion_rejects_non_trees():
    tri = full_subgraph(WeightedGraph({v: 1 for v in "abc"},
                                      [("a", "b"), ("b", "c"), ("a", "c")]))
    with pytest.raises(ValueError):
        tree_torsion(tri)


@pytest.mark.parametrize("weights, edges, tree", [
    # n - 1 edges, but a cycle and an isolated vertex
    ({"a": 1, "b": 1, "c": 1, "d": 1}, [("a", "b"), ("b", "c"), ("a", "c")], False),
    # a path missing an edge: acyclic, two components
    ({"a": 2, "b": 3, "c": 5, "d": 7}, [("a", "b"), ("c", "d")], False),
    ({"a": 2, "b": 3, "c": 5, "d": 7}, [("a", "b"), ("b", "c"), ("c", "d")], True),
    ({"v": 9}, [], True),
    ({"u": 2, "v": 4}, [], False),
])
def test_tree_torsion_checks_the_tree_by_its_edges(weights, edges, tree):
    g = full_subgraph(WeightedGraph(weights, edges))
    if tree:
        _, h1 = cohomology_groups(g)
        assert tree_torsion(g) == h1.torsion_order
    else:
        with pytest.raises(ValueError, match="connected acyclic subgraph"):
            tree_torsion(g)


def random_tree(rng, max_n, max_w):
    n = rng.randint(1, max_n)
    names = [f"v{i}" for i in range(n)]
    weights = {v: rng.randint(1, max_w) for v in names}
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    return WeightedGraph(weights, edges)


def test_tree_torsion_matches_oracle_randomized():
    rng = random.Random(41)
    for _ in range(40):
        g = full_subgraph(random_tree(rng, 8, 10 ** 6))
        _, h1 = cohomology_groups(g)
        assert tree_torsion(g) == h1.torsion_order


def test_edge_weighted_constants_examples():
    tri = full_subgraph(WeightedGraph({v: 1 for v in "uvw"},
                                      [("u", "v"), ("u", "w"), ("v", "w")]))
    assert edge_weighted_constants(tri) == (1, 1, 2)

    edge = full_subgraph(WeightedGraph({"u": 4, "v": 6}, [("u", "v")]))
    assert edge_weighted_constants(edge) == (2, 24, 24)

    g = full_subgraph(k3())
    c0, c1, c2 = edge_weighted_constants(g)
    assert (c0, c1) == (1, 81)
    _, h1 = cohomology_groups(g)
    assert c0 * c2 == c1 * h1.torsion_order  # Euler relation
    assert p_valuation(c2, 3) == 8


def random_graph(rng, max_n, max_w, connected=False):
    n = rng.randint(1, max_n)
    names = [f"v{i}" for i in range(n)]
    weights = {v: rng.randint(1, max_w) for v in names}
    edges = []
    if connected:
        edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    extra = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if (names[i], names[j]) not in edges and rng.random() < 0.4]
    return WeightedGraph(weights, edges + extra)


def test_euler_relation_randomized_including_disconnected():
    rng = random.Random(42)
    for _ in range(40):
        g = full_subgraph(random_graph(rng, 6, 40))
        c0, c1, c2 = edge_weighted_constants(g)
        _, h1 = cohomology_groups(g)
        assert c0 * c2 == c1 * h1.torsion_order


def test_hbe_count_examples():
    assert hbe_count(k3(), 3) == 8
    tri = WeightedGraph({v: 1 for v in "uvw"},
                        [("u", "v"), ("u", "w"), ("v", "w")])
    assert hbe_count(tri, 3) == 0
    tri3 = WeightedGraph({"u": 3, "v": 1, "w": 1},
                         [("u", "v"), ("u", "w"), ("v", "w")])
    c0, c1, c2 = edge_weighted_constants(full_subgraph(tri3))
    assert hbe_count(tri3, 3) == p_valuation(c2, 3) == 2


def test_hbe_count_refuses_bipartite_components():
    g = WeightedGraph({"u": 4, "v": 6}, [("u", "v")])
    with pytest.raises(ValueError):
        hbe_count(g, 2)


def test_hbe_equals_c2_valuation_odd_primes_randomized():
    rng = random.Random(43)
    done = 0
    while done < 20:
        p = rng.choice([3, 5])
        g = random_graph(rng, 6, 1, connected=True)
        # re-weight with p powers and ensure not bipartite
        g = WeightedGraph({v: p ** rng.randint(0, 3) for v in g.vertices},
                          g.edges)
        from gcoh.graphs import bipartition
        if bipartition(full_subgraph(g)) is not None:
            continue
        c0, c1, c2 = edge_weighted_constants(full_subgraph(g))
        assert hbe_count(g, p) == p_valuation(c2, p)
        done += 1


def test_oriented_core_examples():
    dec = oriented_core(build_forest(k3(), 3))
    assert tuple(dec.core.vertices) == ("B", "G", "R")
    assert dec.core.edges == (("B", "G"), ("G", "R"))
    assert dec.special_edges == frozenset()

    tri = WeightedGraph({v: 1 for v in "uvw"},
                        [("u", "v"), ("u", "w"), ("v", "w")])
    dec = oriented_core(build_forest(tri, 3))
    assert dec.core.edges == ()
    assert all(not c.from_forest for c in dec.per_component)

    square = WeightedGraph({v: 3 for v in "abcd"},
                           [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    dec = oriented_core(build_forest(square, 3))
    assert dec.core.edge_set == frozenset(square.edges)


def test_oriented_core_special_edges_two_adic():
    # c(1)--x(2) + triangle x,y,z of weight 2: the top edges of the
    # non-bipartite core component are distinguished
    g = WeightedGraph({"c": 1, "x": 2, "y": 2, "z": 2},
                      [("c", "x"), ("x", "y"), ("x", "z"), ("y", "z")])
    dec = oriented_core(build_forest(g, 2))
    non_bip = [c for c in dec.per_component if not c.bipartite]
    assert len(non_bip) == 1 and non_bip[0].graph.vertex_set == frozenset("cxyz")
    assert dec.special_edges == frozenset(
        {("x", "y"), ("x", "z"), ("y", "z")})


def test_core_membership_inequalities():
    # for each forest component there is a common level r with
    # max internal valuation < r <= min boundary valuation; a one-vertex
    # part's level is its boundary valuation, which the core reads off
    # the filtration and is checked here against the edge scan
    from references import boundary_valuation
    rng = random.Random(44)
    singletons = touched_at_zero = 0
    for p in (2, 3, 5):
        for _ in range(300):
            g = random_graph(rng, 9, 1, connected=True)
            g = WeightedGraph({v: p ** rng.randint(0, 3) for v in g.vertices},
                              g.edges)
            dec = oriented_core(build_forest(g, p))
            for part in dec.per_component:
                bound = boundary_valuation(part.graph, p)
                if not part.from_forest:
                    assert part.sup_level == bound, (g, p, part)
                    singletons += 1
                    touched_at_zero += bound == 0
                    continue
                r = part.sup_level
                if r is None:
                    continue
                internal = max((g.edge_valuation(e, p)
                                for e in part.graph.edge_set), default=None)
                assert (internal is None or internal < r)
                assert bound is None or r <= bound
    # 855 one-vertex parts, 108 of them touched by an edge of valuation 0
    assert singletons >= 800 and touched_at_zero >= 100, (singletons,
                                                          touched_at_zero)


def test_core_torsion_relation_examples():
    assert core_torsion_relation(k3(), 3) == 4

    tri = WeightedGraph({v: 1 for v in "uvw"},
                        [("u", "v"), ("u", "w"), ("v", "w")])
    assert core_torsion_relation(tri, 3) is None  # empty forest

    tri9 = WeightedGraph({"u": 9, "v": 1, "w": 1},
                         [("u", "v"), ("u", "w"), ("v", "w")])
    got = core_torsion_relation(tri9, 3)
    assert got == torsion_order_p(full_subgraph(tri9), 3) == 2


def test_core_torsion_relation_refuses_what_it_does_not_cover():
    # empty, disconnected non-bipartite and connected bipartite graphs;
    # each of the latter two has forest nodes, so only the shape refuses
    assert core_torsion_relation(WeightedGraph({}, []), 3) is None
    two = WeightedGraph({"u": 9, "v": 1, "w": 1, "x": 3},
                        [("u", "v"), ("u", "w"), ("v", "w")])
    assert build_forest(two, 3).nodes
    assert core_torsion_relation(two, 3) is None
    path = WeightedGraph({"u": 9, "v": 1, "w": 3}, [("u", "v"), ("v", "w")])
    assert build_forest(path, 3).nodes
    assert core_torsion_relation(path, 3) is None


def test_core_torsion_relation_randomized_odd():
    rng = random.Random(45)
    done = 0
    while done < 25:
        p = rng.choice([3, 5])
        g = random_graph(rng, 6, 1, connected=True)
        g = WeightedGraph({v: p ** rng.randint(0, 3) for v in g.vertices},
                          g.edges)
        got = core_torsion_relation(g, p)  # asserts internally when defined
        if got is not None:
            assert got == torsion_order_p(full_subgraph(g), p)
            done += 1


def test_weighted_spanning_tree_examples():
    # a tree is its own weighted spanning tree
    tree = WeightedGraph({"a": 3, "b": 9, "c": 3}, [("a", "b"), ("b", "c")])
    t = weighted_spanning_tree(full_subgraph(tree), 3)
    assert t.edge_set == frozenset(tree.edges)

    # 4-cycle with equal weights: deletes the lexicographically largest edge
    square = WeightedGraph({v: 3 for v in "abcd"},
                           [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    t = weighted_spanning_tree(full_subgraph(square), 3)
    assert len(t.edge_set) == 3
    assert ("c", "d") not in t.edge_set

    # path with a strictly heavier chord: the chord goes
    g = WeightedGraph({"a": 3, "b": 1, "c": 1, "d": 27},
                      [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    t = weighted_spanning_tree(full_subgraph(g), 3)
    assert ("a", "d") not in t.edge_set


def test_weighted_spanning_tree_rejects_p2_and_unoriented():
    square = WeightedGraph({v: 2 for v in "abcd"},
                           [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    with pytest.raises(ValueError):
        weighted_spanning_tree(full_subgraph(square), 2)
    tri = WeightedGraph({v: 1 for v in "uvw"},
                        [("u", "v"), ("u", "w"), ("v", "w")])
    with pytest.raises(ValueError):
        weighted_spanning_tree(full_subgraph(tri), 3)


def test_oriented_torsion_exponent_examples():
    square = WeightedGraph({v: 3 for v in "abcd"},
                           [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    sub = full_subgraph(square)
    assert oriented_torsion_exponent(sub, 3) == 3
    assert torsion_order_p(sub, 3) == 3

    path = subgraph_of(k3(), ["R", "G", "B"], [("R", "G"), ("G", "B")])
    assert oriented_torsion_exponent(path, 3) == 0


def random_bipartite_connected(rng, p, max_n, max_a):
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
            choices = [names[j] for j in range(i) if side[names[j]] != side[names[i]]]
        edges.append((rng.choice(choices), names[i]))
    for i in range(n):
        for j in range(i + 1, n):
            e = (names[i], names[j])
            if side[names[i]] != side[names[j]] and e not in edges \
                    and rng.random() < 0.3:
                edges.append(e)
    return WeightedGraph(weights, edges)


def test_spanning_tree_reduction_randomized():
    rng = random.Random(46)
    for _ in range(30):
        p = rng.choice([3, 5])
        g = random_bipartite_connected(rng, p, 7, 3)
        sub = full_subgraph(g)
        tree = weighted_spanning_tree(sub, p)
        assert p_valuation(tree_torsion(tree), p) == torsion_order_p(sub, p)
        assert oriented_torsion_exponent(sub, p) == torsion_order_p(sub, p)
