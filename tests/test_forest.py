import random
import re
from dataclasses import fields
from itertools import combinations

import pytest

from gcoh.graphs import (
    Filtration,
    Subgraph,
    WeightedGraph,
    bipartition,
    components,
    full_subgraph,
    reduction,
    subgraph_of,
)
from gcoh.cohomology import cohomology_groups
from gcoh.forest import build_forest, forest_to_dot, torsion_structure
from gcoh.weights import spanning_tree_exponent, weighted_spanning_tree
from gcoh.orientation import is_orientable
from gcoh.verify import random_connected
from references import covers_by_class_lookup, min_valuation, reduce_graph
from test_intlinalg import outputs_under_hash_seeds, sparse_graph


def k3():
    return WeightedGraph({"R": 27, "G": 1, "B": 3},
                         [("R", "G"), ("R", "B"), ("G", "B")])


def node_shapes(forest):
    return sorted((tuple(n.graph.vertices), tuple(n.graph.edges), n.level)
                  for n in forest.nodes)


def test_forest_k3_worked_example():
    f = build_forest(k3(), 3)
    assert node_shapes(f) == [
        (("B", "G"), (("B", "G"),), 2),
        (("B", "G"), (("B", "G"),), 3),
        (("B", "G", "R"), (("B", "G"), ("G", "R")), 4),
        (("G",), (), 1),
    ]
    assert [n.label() for n in f.peak_map] == ["({G},1)"]
    assert len(f.counted_nodes) == 4
    peaks = [n.label() for n in f.peak_map.values()]
    assert peaks == ["({B,G,R},4)"]
    a, = f.peak_map
    assert f.peak_map[a].level == 4
    assert torsion_structure(f) == [4]


def test_forest_descent_chain_k3():
    f = build_forest(k3(), 3)
    top, = f.peak_map.values()
    chain = [top]
    while f.down(chain[-1]) is not None:
        chain.append(f.down(chain[-1]))
    assert [n.level for n in chain] == [4, 3, 2, 1]
    min_val = f.filtration.min_val
    assert chain[-1].level == min_val[chain[-1].graph] + 1  # a minimal node
    # descent drops the level by one, stays inside, and keeps the minimum
    for above, below in zip(chain, chain[1:]):
        assert below.level == above.level - 1
        assert below.graph.vertex_set <= above.graph.vertex_set
        assert min_val[below.graph] == min_val[above.graph]


def test_forest_trivial_for_unit_triangle():
    tri = WeightedGraph({"u": 1, "v": 1, "w": 1},
                        [("u", "v"), ("u", "w"), ("v", "w")])
    f = build_forest(tri, 3)
    assert f.nodes == ()
    assert torsion_structure(f) == []


def test_forest_disjoint_union_doubles():
    g = WeightedGraph(
        {"R": 27, "G": 1, "B": 3, "r": 27, "g": 1, "b": 3},
        [("R", "G"), ("R", "B"), ("G", "B"),
         ("r", "g"), ("r", "b"), ("g", "b")])
    f = build_forest(g, 3)
    assert torsion_structure(f) == [4, 4]


def test_forest_two_adic_example():
    # c--x edge of valuation 1 attached to a unit-gcd triangle x,y,z;
    # hand-checked elementary divisors (1,2,2,8): exponents {1,1,3}
    g = WeightedGraph({"c": 1, "x": 2, "y": 2, "z": 2},
                      [("c", "x"), ("x", "y"), ("x", "z"), ("y", "z")])
    _, h1 = cohomology_groups(full_subgraph(g))
    assert h1.divisors == (2, 2, 8)
    f = build_forest(g, 2)
    assert len(f.nodes) == 5
    assert torsion_structure(f) == [1, 1, 3]


def test_forest_bipartite_tail_marked():
    g = WeightedGraph({"u": 4, "v": 6}, [("u", "v")])
    f = build_forest(g, 2)
    assert f.bipartite_components
    tail = f.bipartite_components[0]
    assert f.sup_level[tail] is None
    assert torsion_structure(f) == [1]  # Z/2 from the gcd


def test_forest_isolated_heavy_vertex():
    g = WeightedGraph({"a": 1, "b": 3, "z": 81}, [("a", "b")])
    f = build_forest(g, 3)
    # {z} is its own bipartite component; its chain is excluded, and the
    # a--b edge has unit gcd, so no torsion at all
    keys = {(n.graph.vertices, n.level) for n in f.nodes}
    assert (("z",), 5) in keys
    assert torsion_structure(f) == []
    _, h1 = cohomology_groups(full_subgraph(g))
    assert h1.torsion_order == 1


def test_forest_deterministic():
    g = k3()
    f1, f2 = build_forest(g, 3), build_forest(g, 3)
    assert ([(n.level, n.graph.sort_key()) for n in f1.nodes]
            == [(n.level, n.graph.sort_key()) for n in f2.nodes])
    assert forest_to_dot(f1) == forest_to_dot(f2)


def test_signs_are_independent_of_the_hash_seed():
    # at p = 2 a top that is not bipartite is signed through its reduction
    # one level down, which walks the class's vertices; the map's key
    # order must not follow the hash order of its vertex set
    code = (
        "import hashlib, random\n"
        "from gcoh.forest import build_forest\n"
        "from gcoh.verify import random_connected\n"
        "h = hashlib.sha256()\n"
        "for seed in range(600):\n"
        "    f = build_forest(random_connected(random.Random(seed), 9, 2, 5), 2)\n"
        "    h.update(repr(list(f.signs.items())).encode())\n"
        "print(h.hexdigest())\n")
    digests = outputs_under_hash_seeds(code, ("0", "1", "2"))
    assert len(digests[0]) == 65 and digests[0] == digests[1] == digests[2]


def test_minimal_subgraphs_pairwise_disjoint():
    rng = random.Random(21)
    pairs = 0
    for _ in range(20):
        g = random_connected(rng, 6, 3, 3)
        f = build_forest(g, 3)
        min_val = f.filtration.min_val
        minimal = [c for c in f.subgraphs if f.levels[c][0] == min_val[c] + 1]
        for a, b in combinations(minimal, 2):
            assert a.vertex_set.isdisjoint(b.vertex_set), (g, a, b)
            pairs += 1
    assert pairs > 20


def test_descent_invariants_randomized():
    # one level down, contained in the source, same minimum valuation
    rng = random.Random(24)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        g = random_connected(rng, 6, p, 3)
        f = build_forest(g, p)
        min_val = f.filtration.min_val
        for node in f.nodes:
            below = f.down(node)
            if below is None:
                assert node.level == min_val[node.graph] + 1  # minimal
                continue
            assert below.level == node.level - 1
            assert below.graph.vertex_set <= node.graph.vertex_set
            assert below.graph.edge_set <= node.graph.edge_set
            assert min_val[below.graph] == min_val[node.graph]
        for node in f.nodes:
            sup = f.sup_level[node.graph]
            assert min_val[node.graph] < node.level
            assert sup is None or node.level <= sup


def test_oracle_equivalence_randomized_odd_primes():
    # structure theorem vs elementary divisors, small randomized slice
    rng = random.Random(22)
    for _ in range(60):
        p = rng.choice([3, 5])
        g = random_connected(rng, 6, p, 3)
        f = build_forest(g, p)
        _, h1 = cohomology_groups(full_subgraph(g))
        assert torsion_structure(f) == list(h1.p_part_exponents(p)), g


def test_cardinality_law_odd_primes():
    # total torsion exponent equals the number of counted nodes
    rng = random.Random(23)
    for _ in range(30):
        p = rng.choice([3, 5])
        g = random_connected(rng, 6, p, 3)
        f = build_forest(g, p)
        _, h1 = cohomology_groups(full_subgraph(g))
        assert len(f.counted_nodes) == h1.p_exponent(p)


def test_known_two_adic_counterexample_documented():
    # Regression case for the membership rule at p = 2.  The triangle
    # {v0,v1,v3} (weights 4,2,2, minimal valuation 1) is a component of
    # the level-4 reduction; it is not Z/2^4-oriented but it is
    # Z/2^3-oriented, and 3 = level - minimal valuation is the modulus a
    # forest node is oriented over.  A rule that asked for Z/2^level
    # dropped this node and counted exponents [1,1,1,1,1,2] against the
    # divisors' [1,1,1,1,1,3].
    g = WeightedGraph(
        {"v0": 4, "v1": 2, "v2": 8, "v3": 2, "v4": 8, "v5": 8},
        [("v0", "v1"), ("v0", "v3"), ("v0", "v4"), ("v0", "v5"),
         ("v1", "v2"), ("v1", "v3"), ("v2", "v3"), ("v2", "v4"),
         ("v3", "v4"), ("v3", "v5")])
    _, h1 = cohomology_groups(full_subgraph(g))
    assert list(h1.p_part_exponents(2)) == [1, 1, 1, 1, 1, 3]
    f = build_forest(g, 2)
    assert "({v0,v1,v3},4)" in {n.label() for n in f.nodes}
    assert torsion_structure(f) == [1, 1, 1, 1, 1, 3]


def test_membership_matches_critical_dimension():
    # The combinatorial membership rule against the critical-dimension
    # decision: a level-r reduction component is a node exactly when its
    # minimal valuation m is below r and it is oriented over Z/p^(r - m).
    rng = random.Random(25)
    checked = 0
    for _ in range(45):
        p = rng.choice([2, 3, 5])
        base = random_connected(rng, 6, p, 3)
        units = [u for u in range(1, 8) if u % p]
        g = WeightedGraph({v: base.weight[v] * rng.choice(units)
                           for v in base.vertices}, base.edges)
        f = build_forest(g, p)
        nodes = set(f.nodes)
        for r in range(1, f.filtration.top + 1):
            for comp in components(reduce_graph(g, p, r)):
                m = min_valuation(comp, p)
                want = m < r and is_orientable(comp, p, r - m).orientable
                assert ((comp, r) in nodes) == want, (g, p, comp, r)
                checked += 1
    assert checked > 200


def forests_for_the_cover_reference():
    rng = random.Random(29)
    for i in range(240):
        p = (2, 3, 5)[i % 3]
        base = random_connected(rng, 8, p, 4)
        units = [u for u in range(1, 12) if u % p]
        yield build_forest(WeightedGraph(
            {v: base.weight[v] * rng.choice(units) for v in base.vertices},
            base.edges), p)
    for i in range(6):
        p = (2, 3, 5)[i % 3]
        yield build_forest(sparse_graph(rng, rng.randint(180, 260), p), p)


def test_covers_descent_and_maximal_match_the_class_lookups():
    # the one cover loop against the three passes it replaced: the descent
    # through the anchor's class, the class-above maximality rule and the
    # covers with their extras; phi in order, the complex's column order
    descents = extras = 0
    for f in forests_for_the_cover_reference():
        phi, want_extras, below, maximal = covers_by_class_lookup(
            f.filtration, f.levels, f.subgraphs)
        assert list(f.phi.items()) == list(phi.items()), f.graph
        assert f.extras == want_extras, f.graph
        assert f.below == below, f.graph
        assert f.maximal == maximal, f.graph
        descents += len(below)
        extras += len(want_extras)
    assert descents >= 300 and extras >= 100  # not vacuous


def test_a_cover_that_is_no_node_is_refused(monkeypatch):
    # At p = 3 the whole graph first appears at level 2, and {b,c}, a
    # node at level 1, is in its cover.  Refused as a node, {b,c} is
    # neither a node nor a one-vertex extra: the forest is not built.
    g = WeightedGraph({"a": 1, "b": 1, "c": 1, "x": 3},
                      [("a", "x"), ("b", "x"), ("b", "c")])
    whole, cover = full_subgraph(g), subgraph_of(g, "bc", [("b", "c")])
    f = build_forest(g, 3)
    assert cover in f.phi[whole] and 1 in f.levels[cover]
    signs = Filtration.reduced_signs
    monkeypatch.setattr(Filtration, "reduced_signs", lambda filt, c, s: (
        None if c == cover else signs(filt, c, s)))
    with pytest.raises(AssertionError, match=re.escape(repr(cover))):
        build_forest(g, 3)


def two_adic_bipartition(d, s):
    """Bipartitioning of the (s-1)-step 2-adic reduction of d, built from
    the reduction itself; for s = 1 every edge is forgotten."""
    if s >= 2:
        reduced = reduction(d, 2, s - 1)
    else:
        reduced = Subgraph(d.parent, d.vertex_set, frozenset())
    return bipartition(reduced)


def test_two_adic_top_orientation_matches_the_reduction():
    # A non-bipartite top at p = 2 is oriented by the bipartitions of the
    # level-(sup - 1) classes inside it, read off the filtration; the
    # reference rebuilds the reduction of the top at sup - 1.
    rng = random.Random(26)
    checked = set()
    for _ in range(80):
        base = random_connected(rng, 7, 2, 3)
        g = WeightedGraph({v: base.weight[v] * rng.choice([1, 3, 5])
                           for v in base.vertices}, base.edges)
        f = build_forest(g, 2)
        for top in f.maximal:
            if top in f.filtration.colouring:
                continue
            sup = f.sup_level[top]
            want = two_adic_bipartition(top, sup)
            assert want is not None
            assert {v: f.signs[v] for v in top.vertex_set} == want, (g, top)
            checked.add(sup)
    assert 1 in checked and len(checked) >= 3  # sup == 1 and deeper tops


def test_bipartite_top_orientation_is_its_bipartition():
    # A bipartite top takes the sweep's colouring; the reference is the
    # breadth-first 2-colouring of the top itself.
    rng = random.Random(27)
    checked = 0
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        base = random_connected(rng, 7, p, 3)
        units = [u for u in range(1, 8) if u % p]
        g = WeightedGraph({v: base.weight[v] * rng.choice(units)
                           for v in base.vertices}, base.edges)
        f = build_forest(g, p)
        for top in f.maximal:
            if top in f.filtration.colouring:
                assert ({v: f.signs[v] for v in top.vertex_set}
                        == bipartition(top)), (g, p, top)
                checked += 1
    assert checked >= 60


def orientations_down_the_covers(f):
    """Reference orientations: sign each top by the filtration's rule at
    its largest level, then restrict each subgraph's signs to the
    subgraphs and extras in its cover, walking down `f.phi`."""
    filt = f.filtration
    orientation, queue = {}, []
    for top in f.maximal:
        sup = f.sup_level[top]
        orientation[top] = filt.reduced_signs(
            top, filt.top if sup is None else sup)
        queue.append(top)
    while queue:
        delta = queue.pop()
        alpha = orientation[delta]
        for child in f.phi.get(delta, ()):
            if child not in orientation:
                orientation[child] = {v: alpha[v] for v in child.vertex_set}
                queue.append(child)
    return orientation


def test_signs_restrict_to_the_orientations_down_the_covers():
    # One sign per vertex under a top: every subgraph's and extra's
    # orientation, its restriction, is what the walk down the covers gives.
    rng = random.Random(28)
    extras = two_adic_tops = 0
    for i in range(300):
        p = (2, 3, 5)[i % 3]
        base = random_connected(rng, 9, p, 4)
        units = [u for u in range(1, 12) if u % p]
        g = WeightedGraph({v: base.weight[v] * rng.choice(units)
                           for v in base.vertices}, base.edges)
        f = build_forest(g, p)
        want = orientations_down_the_covers(f)
        assert want.keys() == f.sup_level.keys(), (g, p)
        for d, alpha in want.items():
            assert {v: f.signs[v] for v in d.vertex_set} == alpha, (g, p, d)
        extras += len(f.extras)
        two_adic_tops += sum(p == 2 and top not in f.filtration.colouring
                             for top in f.maximal)
    assert extras >= 100 and two_adic_tops >= 20  # not vacuous


def test_dot_export_shape():
    f = build_forest(k3(), 3)
    dot = forest_to_dot(f)
    assert dot.startswith("digraph forest {")
    assert 'label="({G},1)"' in dot
    assert 'color=red, label="s"' in dot
    g = WeightedGraph({"u": 4, "v": 6}, [("u", "v")])
    dot2 = forest_to_dot(build_forest(g, 2))
    assert "ad infinitum" in dot2


DOT_STRING = r'"((?:[^"\\]|\\.)*)"'  # a DOT quoted string: \" and \\ escaped


def test_dot_labels_are_escaped_strings():
    # ids may hold any character; a quote or a trailing backslash must not
    # end the label early
    g = WeightedGraph({'a"b': 3, "c": 1, "d\\": 9, 'e"\\"': 27},
                      [('a"b', "c"), ("c", "d\\"), ("d\\", 'e"\\"')])
    f = build_forest(g, 3)
    assert f.bipartite_components and f.nodes
    node = re.compile(rf"  n(\d+) \[label={DOT_STRING}\];")
    tail = re.compile(rf"  tail\d+ \[label={DOT_STRING}, shape=box\];")
    labels = 0
    for line in forest_to_dot(f).splitlines():
        if "label=" not in line or 'label="s"]' in line:
            continue
        m = node.fullmatch(line)
        if m:
            want = f.nodes[int(m[1])].label()
        else:
            m = tail.fullmatch(line)
            assert m, line
            comp, = f.bipartite_components
            want = f"({{{','.join(comp.vertices)}}},r>{f.filtration.top}) ad infinitum"
        assert re.sub(r"\\(.)", r"\1", m[m.lastindex]) == want
        labels += 1
    assert labels == len(f.nodes) + 1


def test_a_deep_valuation_is_stored_per_breakpoint_and_per_class():
    # A 200-vertex path of weight-2 vertices with one vertex of weight
    # 2 * 3**k in the middle: edge valuations 0 and k, so two breakpoints
    # and four classes (the half paths, the heavy vertex, the whole path),
    # but 2k + 1 nodes.  What the sweep and the forest store must not grow
    # with k.
    k, n = 20000, 200
    names = [f"v{i:03d}" for i in range(n)]
    weights = dict.fromkeys(names, 2)
    weights[names[n // 2]] = 2 * 3 ** k
    g = WeightedGraph(weights, zip(names, names[1:]))
    f = build_forest(g, 3)
    filt = f.filtration
    assert filt.breaks == (1, k + 1) and len(filt.owner) == 2
    assert len(filt.span) == 4
    for field in fields(f):
        value = getattr(f, field.name)
        if field.name not in ("graph", "filtration", "signs"):
            assert len(value) <= len(filt.span), field.name
    assert len(f.signs) == n
    assert len(f.nodes) == 2 * k + 1
    _, h1 = cohomology_groups(full_subgraph(g))
    assert torsion_structure(f) == list(h1.p_part_exponents(3)) == [k]
    tree = weighted_spanning_tree(full_subgraph(g), 3)
    assert spanning_tree_exponent(tree, 3) == k
