import json
import pickle
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from gcoh.graphs import (
    PRIME_BOUND,
    Subgraph,
    WeightedGraph,
    bipartition,
    components,
    edge_boundary,
    filtration,
    full_subgraph,
    graph_from_json,
    graph_to_json,
    is_prime,
    p_valuation,
    reduction,
    subgraph_of,
)
from references import boundary_valuation, find_odd_cycle, min_valuation, reduce_graph
from test_intlinalg import outputs_under_hash_seeds


def k3_27_1_3():
    return WeightedGraph({"R": 27, "G": 1, "B": 3},
                         [("R", "G"), ("R", "B"), ("G", "B")])


def test_p_valuation_examples():
    assert p_valuation(27, 3) == 3
    assert p_valuation(1, 5) == 0
    assert p_valuation(24, 2) == 3


def test_p_valuation_rejects_bad_input():
    with pytest.raises(ValueError):
        p_valuation(0, 3)
    with pytest.raises(ValueError):
        p_valuation(12, 4)


def division_loop_valuation(n, p):
    """The reference: divide by p once per factor."""
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a


def test_p_valuation_matches_the_division_loop():
    # valuations around the powers of two, where the squaring ladder turns,
    # and in the thousands, times a seeded unit
    rng = random.Random(31)
    wanted = ([0, 1] + [2 ** j + d for j in range(1, 12) for d in (-1, 0, 1)]
              + [rng.randint(1000, 4000) for _ in range(4)])
    for p in (2, 3, 1000003):
        for a in wanted:
            unit = rng.randrange(1, 10 ** 30)
            unit += unit % p == 0
            n = p ** a * unit
            assert p_valuation(n, p) == division_loop_valuation(n, p) == a, (p, a)


def test_is_prime_agrees_with_trial_division_below_1e5():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(-2, 10 ** 5)
            if is_prime(n) != trial_division(n)] == []


def test_is_prime_on_large_numbers_is_fast_and_exact():
    cases = {
        2 ** 61 - 1: True,
        10 ** 16 + 61: True,
        10 ** 14 + 31: True,
        # strong pseudoprime to the bases 2..23, and to 2..37
        3825123056546413051: False,
        318665857834031151167461: False,
        (10 ** 9 + 7) * (10 ** 9 + 9): False,
    }
    for n, want in cases.items():
        start = time.perf_counter()
        assert is_prime(n) is want, n
        assert time.perf_counter() - start < 0.1, n


def test_is_prime_refuses_numbers_from_the_bound_on():
    assert is_prime(PRIME_BOUND - 1) is False  # even
    for n in (PRIME_BOUND, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=str(PRIME_BOUND)):
            is_prime(n)


def test_graph_rejects_loops_multiedges_and_bad_weights():
    with pytest.raises(ValueError):
        WeightedGraph({"a": 1}, [("a", "a")])
    with pytest.raises(ValueError):
        WeightedGraph({"a": 1, "b": 1}, [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError):
        WeightedGraph({"a": 0, "b": 1}, [("a", "b")])
    with pytest.raises(ValueError):
        WeightedGraph({"a": 1}, [("a", "b")])
    for weight in (2.5, 3.0, True, "7"):  # no silent int(): 2.5 is not 2
        with pytest.raises(ValueError, match="weight of 'b' must be an int"):
            WeightedGraph({"a": 2, "b": weight}, [("a", "b")])


def test_subgraph_equality_and_hash_ignore_the_parent():
    edges = [("a", "b"), ("b", "c")]
    one = subgraph_of(WeightedGraph({v: 1 for v in "abc"}, edges), "ab", edges[:1])
    other = subgraph_of(WeightedGraph({v: 7 for v in "abcd"}, edges), "ab", edges[:1])
    assert one.parent is not other.parent
    assert one == other and hash(one) == hash(other) == hash(one)
    assert {one: 1}[other] == 1
    assert one != subgraph_of(one.parent, "ab", [])
    copy = pickle.loads(pickle.dumps(one))
    assert copy == one and hash(copy) == hash(one) and copy.parent.weight == one.parent.weight
    # a hash holds only in the process that computed it: one pickled here
    # is rebuilt, with a hash of its own, under another hash seed
    code = (
        "import pickle\n"
        "from gcoh.graphs import subgraph_of\n"
        f"copy = pickle.loads(bytes.fromhex({pickle.dumps(one).hex()!r}))\n"
        "fresh = subgraph_of(copy.parent, 'ab', [('b', 'a')])\n"
        "assert copy == fresh and hash(copy) == hash(fresh) "
        "== hash((frozenset('ab'), frozenset([('a', 'b')])))\n"
        "assert {fresh: 1}[copy] == 1 and copy.parent.weight == {'a': 1, 'b': 1, 'c': 1}\n"
        "print(type(copy).__name__, copy)\n")
    assert outputs_under_hash_seeds(code, ("1", "2")) == ["Subgraph Subgraph({a,b};{ab})\n"] * 2


def test_a_subgraph_is_a_value_of_its_own():
    g = WeightedGraph({v: 1 for v in "abc"}, [("a", "b"), ("b", "c")])
    one = subgraph_of(g, "ab", [("a", "b")])
    pair = (one.vertex_set, one.edge_set)
    assert hash(one) == hash(pair)
    assert one != pair and pair != one and not one == pair and not pair == one
    assert {pair: 1}.get(one) is None and {one: 1}.get(pair) is None
    same = Subgraph(g, frozenset("ba"), frozenset([("a", "b")]))
    assert one == same and not one != same and one != full_subgraph(g)
    for order in (lambda x, y: x < y, lambda x, y: x <= y,
                  lambda x, y: x > y, lambda x, y: x >= y):
        for other in (one, full_subgraph(g), pair):
            with pytest.raises(TypeError):
                order(one, other)
        with pytest.raises(TypeError):
            order(pair, one)
    for field in ("parent", "vertex_set", "edge_set", "other"):
        with pytest.raises(AttributeError):
            setattr(one, field, frozenset())
        with pytest.raises(AttributeError):
            delattr(one, field)
    assert (one.parent, one.vertex_set, one.edge_set) == (g, *pair)
    assert Subgraph(g) == Subgraph(g, frozenset(), frozenset())
    with pytest.raises(ValueError, match="endpoint outside"):
        Subgraph(g, frozenset("a"), frozenset([("a", "b")]))


def test_patching_post_init_sees_every_construction(monkeypatch):
    built = []
    check = Subgraph.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Subgraph, "__post_init__", counted)
    g = k3_27_1_3()
    full = full_subgraph(g)
    reduced = reduction(full, 3, 2)
    parts = components(reduced)
    assert list(map(id, built)) == list(map(id, [full, reduced, *parts]))
    del built[:]
    filt = filtration(full, 3)
    assert len(built) == len(filt.span) and set(built) == set(filt.span)
    del built[:]
    copy = pickle.loads(pickle.dumps(full))
    assert len(built) == 1 and built[0] is copy and copy == full
    with pytest.raises(ValueError):  # checked, so counted, and refused
        subgraph_of(g, "R", [("R", "G")])
    assert len(built) == 2


def test_components_examples():
    g = WeightedGraph({v: 1 for v in "abcd"}, [("a", "b"), ("c", "d")])
    comps = components(full_subgraph(g))
    assert [c.vertices for c in comps] == [("a", "b"), ("c", "d")]

    tri = WeightedGraph({v: 1 for v in "abc"}, [("a", "b"), ("b", "c"), ("a", "c")])
    assert len(components(full_subgraph(tri))) == 1

    iso = WeightedGraph({v: 1 for v in "xyz"}, [])
    assert [c.vertices for c in components(full_subgraph(iso))] == [
        ("x",), ("y",), ("z",)]


def test_bipartition_examples():
    edge = WeightedGraph({"u": 1, "v": 1}, [("u", "v")])
    b = bipartition(full_subgraph(edge))
    assert b is not None and b["u"] == 1 and b["v"] == -1

    tri = WeightedGraph({v: 1 for v in "abc"}, [("a", "b"), ("b", "c"), ("a", "c")])
    assert bipartition(full_subgraph(tri)) is None

    path = WeightedGraph({"u": 2, "v": 3, "w": 2}, [("u", "v"), ("v", "w")])
    b = bipartition(full_subgraph(path))
    assert (b["u"], b["v"], b["w"]) == (1, -1, 1)


def test_bipartition_is_independent_of_the_hash_seed():
    # the colouring's key order must not follow the hash order of the
    # edge set the search walks
    code = (
        "import hashlib, random\n"
        "from gcoh.graphs import bipartition, full_subgraph\n"
        "from gcoh.verify import random_connected\n"
        "h = hashlib.sha256()\n"
        "for seed in range(600):\n"
        "    b = bipartition(full_subgraph(random_connected(random.Random(seed), 9, 2, 5)))\n"
        "    h.update(repr(None if b is None else list(b.items())).encode())\n"
        "print(h.hexdigest())\n")
    digests = outputs_under_hash_seeds(code, ("0", "1", "2"))
    assert len(digests[0]) == 65 and digests[0] == digests[1] == digests[2]


def test_odd_cycle_witness():
    tri = WeightedGraph({v: 1 for v in "abc"}, [("a", "b"), ("b", "c"), ("a", "c")])
    cyc = find_odd_cycle(full_subgraph(tri))
    assert cyc is not None and len(cyc) % 2 == 1
    # every consecutive pair (cyclically) is an edge
    edges = set(full_subgraph(tri).edge_set)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        assert tuple(sorted((a, b))) in edges

    square = WeightedGraph({v: 1 for v in "abcd"},
                           [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert find_odd_cycle(full_subgraph(square)) is None


def test_reduction_examples():
    # K3 on R,G,B with weights 27,1,3 at p=3: edge valuations RG:3, RB:4, GB:1
    g = k3_27_1_3()
    assert reduce_graph(g, 3, 3).edges == (("B", "G"),)
    assert reduce_graph(g, 3, 4).edges == (("B", "G"), ("G", "R"))
    assert reduce_graph(g, 3, 5).edges == (("B", "G"), ("B", "R"), ("G", "R"))


def test_reduction_monotone_and_stabilizes():
    g = k3_27_1_3()
    prev = frozenset()
    for s in range(1, 7):
        cur = reduce_graph(g, 3, s).edge_set
        assert prev <= cur
        prev = cur
    assert reduce_graph(g, 3, 5).edge_set == frozenset(g.edges)


def test_edge_boundary_examples():
    g = k3_27_1_3()
    comp = subgraph_of(g, ["G", "B"], [("G", "B")])
    assert edge_boundary(comp) == frozenset({("G", "R"), ("B", "R")})
    assert edge_boundary(full_subgraph(g)) == frozenset()
    single = subgraph_of(g, ["R"], [])
    assert edge_boundary(single) == frozenset({("G", "R"), ("B", "R")})


def test_subgraph_closure_enforced():
    g = k3_27_1_3()
    with pytest.raises(ValueError):
        subgraph_of(g, ["R"], [("R", "G")])


def test_json_round_trip():
    g = k3_27_1_3()
    doc = graph_to_json(g)
    assert doc["vertices"][0] == {"id": "B", "weight": "3"}
    h = graph_from_json(doc)
    assert h.vertices == g.vertices
    assert h.edges == g.edges
    assert h.weight == g.weight


def test_json_big_weights_survive():
    g = WeightedGraph({"a": 10**40 + 7, "b": 2}, [("a", "b")])
    h = graph_from_json(graph_to_json(g))
    assert h.weight["a"] == 10**40 + 7


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    names = [f"v{i}" for i in range(n)]
    weights = {v: draw(st.integers(min_value=1, max_value=200)) for v in names}
    all_pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = [e for e in all_pairs if draw(st.booleans())]
    return WeightedGraph(weights, chosen)


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_components_partition(g):
    comps = components(full_subgraph(g))
    seen = [v for c in comps for v in c.vertex_set]
    assert sorted(seen) == list(g.vertices)
    edge_union = [e for c in comps for e in c.edge_set]
    assert sorted(edge_union) == list(g.edges)


@settings(max_examples=60, deadline=None)
@given(random_graphs(), st.sampled_from([2, 3, 5]))
def test_bipartition_or_odd_cycle(g, p):
    sub = full_subgraph(g)
    b = bipartition(sub)
    if b is None:
        cyc = find_odd_cycle(sub)
        assert cyc is not None and len(cyc) % 2 == 1
        edges = set(sub.edge_set)
        for a, c in zip(cyc, cyc[1:] + cyc[:1]):
            assert tuple(sorted((a, c))) in edges
    else:
        assert set(b) == sub.vertex_set
        assert all(x in (1, -1) for x in b.values())
        assert all(b[u] != b[v] for u, v in sub.edge_set)
        for comp in components(sub):
            assert b[comp.min_vertex()] == 1


@settings(max_examples=40, deadline=None)
@given(random_graphs(), st.sampled_from([2, 3]), st.integers(1, 6))
def test_reduction_monotone_property(g, p, s):
    a = reduction(full_subgraph(g), p, s)
    b = reduction(full_subgraph(g), p, s + 1)
    assert a.edge_set <= b.edge_set
    assert all(g.edge_valuation(e, p) < s for e in a.edge_set)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.text(max_size=4), st.integers(1, 10**30),
                       max_size=6), st.data())
def test_json_round_trip_fuzz(weights, data):
    names = sorted(weights)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = WeightedGraph(weights, edges)
    h = graph_from_json(json.loads(json.dumps(graph_to_json(g))))
    assert (h.vertices, h.weight, h.edges) == (g.vertices, g.weight, g.edges)


@st.composite
def valued_graphs(draw):
    """Graphs with p-power weights times units: several reduction levels,
    isolated vertices, edgeless and empty graphs."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(min_value=0, max_value=7))
    names = [f"v{i}" for i in range(n)]
    units = [u for u in range(1, 8) if u % p]
    weights = {v: p ** draw(st.integers(0, 4)) * draw(st.sampled_from(units))
               for v in names}
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return WeightedGraph(weights, edges), p


EDGELESS = (WeightedGraph({"a": 9, "b": 1}, []), 3)
ISOLATED_HEAVY = (WeightedGraph({"a": 1, "b": 3, "z": 81}, [("a", "b")]), 3)


@settings(max_examples=80, deadline=None)
@given(valued_graphs())
@example(EDGELESS)
@example(ISOLATED_HEAVY)
def test_filtration_matches_reduction_components(gp):
    g, p = gp
    filt = filtration(full_subgraph(g), p)
    top = max((g.edge_valuation(e, p) + 1 for e in g.edges), default=1)
    for comp in components(full_subgraph(g)):
        if not comp.edge_set:
            top = max(top, min_valuation(comp, p) + 1)
    assert filt.top == top
    # one vertex map per breakpoint: level 1 and one above each valuation
    assert filt.breaks == tuple(sorted(
        {1} | {g.edge_valuation(e, p) + 1 for e in g.edges}))
    assert len(filt.owner) == len(filt.breaks)
    occurs: dict = {}
    for r in range(1, top + 1):
        want = components(reduce_graph(g, p, r))
        assert list(filt.at(r)) == want
        for c in filt.at(r):
            assert (c in filt.colouring) == (bipartition(c) is not None)
            assert filt.colouring.get(c) == bipartition(c)
            assert filt.min_val[c] == min_valuation(c, p)
            assert all(filt.class_of(v, r) is c for v in c.vertex_set)
            occurs.setdefault(id(c), []).append(r)
    # one object per class, and its span is the levels it occurs at
    assert len(occurs) == len(filt.span)
    for c, (first, last) in filt.span.items():
        assert occurs[id(c)] == list(range(first, last + 1))
    assert all(filt.valuation[v] == p_valuation(g.weight[v], p)
               for v in g.vertices)


def test_filtration_levels_without_an_entering_edge_share_one_map():
    # an isolated vertex of valuation 40 takes the filtration to level 41;
    # the levels above the last edge must not each copy the vertex map
    weights = {f"v{i}": 3 ** (i % 3) for i in range(8)}
    g = WeightedGraph({**weights, "z": 3 ** 40},
                      [(f"v{i}", f"v{i + 1}") for i in range(7)])
    filt = filtration(full_subgraph(g), 3)
    assert filt.top == 41
    valuations = {g.edge_valuation(e, 3) for e in g.edges}
    assert len({id(m) for m in filt.owner}) <= len(valuations) + 1
    heavy = filt.class_of("z", 1)
    assert filt.span[heavy] == (1, 41) and filt.class_of("z", 41) is heavy


def test_filtration_levels_start_at_one():
    # breakpoints 1, 2 and 4 on a(1)-b(3)-c(9) at p = 3: below level 1
    # the bisection would index the last map, the whole graph
    g = WeightedGraph({"a": 1, "b": 3, "c": 9}, [("a", "b"), ("b", "c")])
    filt = filtration(full_subgraph(g), 3)
    assert filt.breaks == (1, 2, 4)
    assert filt.class_of("a", 1).vertex_set == {"a"}
    for r in (0, -5):
        with pytest.raises(ValueError):
            filt.class_of("a", r)
        with pytest.raises(ValueError):
            filt.at(r)

@settings(max_examples=80, deadline=None)
@given(valued_graphs())
@example(EDGELESS)
@example(ISOLATED_HEAVY)
def test_filtration_boundary_valuation_matches_the_edge_scan(gp):
    g, p = gp
    filt = filtration(full_subgraph(g), p)
    for c in filt.span:
        assert filt.boundary_valuation(c) == boundary_valuation(c, p), c


@settings(max_examples=80, deadline=None)
@given(valued_graphs())
@example(EDGELESS)
@example(ISOLATED_HEAVY)
def test_filtration_signs_match_the_bipartition_of_the_reduction(gp):
    g, p = gp
    filt = filtration(full_subgraph(g), p)
    assert filt.prime == p
    for c in filt.span:
        for r in range(filt.top + 1):
            reduced = (reduction(c, p, r) if r
                       else Subgraph(g, c.vertex_set, frozenset()))
            assert filt.signs(c, r) == bipartition(reduced), (c, r)
        # the reduced-scheme rule, over the levels where c is a class
        first, last = filt.span[c]
        for s in range(first, last + 1):
            if bipartition(c) is not None:
                want = bipartition(c)
            elif p == 2:
                want = (bipartition(reduction(c, 2, s - 1)) if s > 1
                        else dict.fromkeys(c.vertex_set, 1))
            else:
                want = None
            assert filt.reduced_signs(c, s) == want, (c, s)


def _tree_path(tree, u, v):
    """Edges of the path from u to v in a forest given by its edges."""
    adj: dict = {}
    for a, b in tree:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    back = {u: None}
    queue = [u]
    while queue:
        x = queue.pop()
        for y in adj.get(x, ()):
            if y not in back:
                back[y] = x
                queue.append(y)
    path = []
    while v != u:
        path.append(tuple(sorted((v, back[v]))))
        v = back[v]
    return path


@settings(max_examples=80, deadline=None)
@given(valued_graphs())
def test_filtration_tree_has_the_cycle_property(gp):
    # The unique minimum spanning forest under (valuation, edge): every
    # non-tree edge is the largest edge on the tree path between its ends.
    g, p = gp
    full = full_subgraph(g)
    tree = filtration(full, p).tree
    forest = Subgraph(g, full.vertex_set, tree)
    assert ([c.vertex_set for c in components(forest)]
            == [c.vertex_set for c in components(full)])
    assert len(tree) == len(g.vertices) - len(components(full))

    def key(e):
        return g.edge_valuation(e, p), e

    for e in full.edge_set - tree:
        assert all(key(f) < key(e) for f in _tree_path(tree, *e))
