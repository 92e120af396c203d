import hashlib
import random
import sys
from functools import cache
from itertools import combinations, permutations, product
from math import gcd
from operator import add, sub
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gcoh.graphs import (
    WeightedGraph,
    bipartition,
    components,
    full_subgraph,
    graph_from_json,
    is_connected,
    p_valuation,
    subgraph_of,
)
from gcoh.cohomology import torsion_order_p
from gcoh.tropical import (
    INF,
    ClampAtZero,
    Const,
    EnumerationCapExceeded,
    Plus,
    Quotient,
    Times,
    TropicalValue,
    UNIT,
    Var,
    _close_edge,
    _factor,
    _factor_rows,
    _pick,
    elementary_symmetric,
    eval_expr,
    g_delta,
    parse,
    plus,
    render,
    times,
    tval,
    z_complete,
    z_gamma,
)
from references import (
    candidates_by_vertex_set,
    close_edge,
    eval_gcd_product,
    factor_rows_by_name,
    min_valuation,
    reduce_graph,
    t_plus,
    t_quotient,
    t_times,
    tropical_max,
    variables,
)


def k3():
    return WeightedGraph({"R": 27, "G": 1, "B": 3},
                         [("R", "G"), ("R", "B"), ("G", "B")])


def test_semiring_ops():
    assert t_plus(tval(3), tval(5)) == tval(3)
    assert t_times(tval(3), INF) == INF
    assert t_quotient(tval(7), tval(3)) == tval(4)
    assert t_plus(INF, tval(2)) == tval(2)
    with pytest.raises(ZeroDivisionError):
        t_quotient(tval(1), INF)


def test_tropical_values_are_not_ordered():
    # infinity is the largest value in the min-plus order; no order is
    # defined rather than one that puts it below every integer
    with pytest.raises(TypeError):
        INF < tval(3)


def test_eval_examples():
    vs = ["a", "b", "c"]
    assignment = {"a": 3, "b": 0, "c": 1}
    assert eval_expr(elementary_symmetric(1, vs), assignment) == tval(0)
    assert eval_expr(elementary_symmetric(2, vs), assignment) == tval(1)
    assert eval_expr(elementary_symmetric(3, vs), assignment) == tval(4)
    # maximum as a negated minimum
    mx = tropical_max([Var(v) for v in vs])
    assert eval_expr(mx, assignment) == tval(3)


def test_eval_unbound_variable_refused():
    with pytest.raises(KeyError):
        eval_expr(Var("zz"), {"a": 1})


@pytest.mark.parametrize("value", [2.7, 2.0, True, False, "5"])
def test_eval_refuses_values_that_are_not_integers(value):
    # int() would read these as 2, 2, 1, 0 and 5
    expr = parse("(a ⊕ inf)")
    with pytest.raises(ValueError, match="'a'"):
        eval_expr(expr, {"a": value})
    assert eval_expr(expr, {"a": 2}) == tval(2)
    assert eval_expr(expr, {"a": tval(2)}) == tval(2)
    assert eval_expr(expr, {"a": None}) == INF
    # tval and TropicalValue follow the same rule
    with pytest.raises(ValueError):
        tval(value)
    with pytest.raises(ValueError):
        TropicalValue(True, value)


def _nested(depth, wrap):
    e = Var("a")
    for _ in range(depth):
        e = wrap(e)
    return e


@pytest.mark.parametrize("expr, want", [
    pytest.param(parse("max(" * 600 + "a" + ", 0)" * 600), 0, id="parsed-600"),
    pytest.param(_nested(5000, ClampAtZero), 0, id="clamp-5000"),
    pytest.param(_nested(5000, lambda e: Times((Var("a"), e))), -15003,
                 id="times-5000")])
def test_eval_of_deep_nesting_is_its_value_or_a_value_error(expr, want):
    # text that parse accepts evaluates or is refused, never a RecursionError
    try:
        got = eval_expr(expr, {"a": -3})
    except ValueError as err:
        assert "nested too deeply" in str(err)
    else:
        assert got == tval(want)


def test_eval_reaches_the_nesting_parse_reads():
    # one stack frame per level in both, so what parses evaluates
    expr = parse("max(" * 950 + "a" + ", 0)" * 950)
    assert eval_expr(expr, {"a": 3}) == tval(3)


def test_g_delta_k3_examples():
    g = k3()
    assignment = {"R": 3, "G": 0, "B": 1}
    gv = subgraph_of(g, ["G"], [])
    assert eval_expr(g_delta(gv), assignment) == tval(1)
    gb = subgraph_of(g, ["G", "B"], [("G", "B")])
    assert eval_expr(g_delta(gb), assignment) == tval(2)
    rv = subgraph_of(g, ["R"], [])
    assert eval_expr(g_delta(rv), assignment) == tval(0)


def test_g_delta_preconditions():
    g = k3()
    tri = full_subgraph(g)
    with pytest.raises(ValueError):
        g_delta(tri)  # not bipartite and not proper
    path = subgraph_of(g, ["R", "G", "B"], [("R", "G"), ("G", "B")])
    assert eval_expr(g_delta(path), {"R": 3, "G": 0, "B": 1}) == tval(1)


def test_z_gamma_k3():
    z = z_gamma(k3())
    assert eval_expr(z, {"R": 3, "G": 0, "B": 1}) == tval(4)
    assert variables(z) == {"R", "G", "B"}


def test_z_gamma_single_edge_is_min():
    g = WeightedGraph({"u": 1, "v": 1}, [("u", "v")])
    z = z_gamma(g)
    for a in range(4):
        for b in range(4):
            assert eval_expr(z, {"u": a, "v": b}) == tval(min(a, b))


def test_z_gamma_zero_valuations():
    tri = WeightedGraph({v: 1 for v in "uvw"},
                        [("u", "v"), ("u", "w"), ("v", "w")])
    z = z_gamma(tri)
    assert eval_expr(z, {"u": 0, "v": 0, "w": 0}) == tval(0)


def test_z_gamma_cap(monkeypatch):
    monkeypatch.delenv("GCOH_MAX_SUBGRAPHS", raising=False)
    big = WeightedGraph({f"v{i}": 1 for i in range(11)}, [])
    with pytest.raises(EnumerationCapExceeded):
        z_gamma(big)
    monkeypatch.setenv("GCOH_MAX_SUBGRAPHS", "11")
    z_gamma(big)  # the environment override works


def test_z_gamma_disconnected_sums_components():
    g = WeightedGraph({"a": 1, "b": 1, "x": 1}, [("a", "b")])
    z = z_gamma(g)
    assert eval_expr(z, {"a": 2, "b": 3, "x": 5}) == tval(2)


def test_z_gamma_disconnected_text_is_pinned():
    # a bipartite path with its chain gap, an isolated vertex (the empty
    # product 0) and a triangle (no gap), multiplied in vertex order
    g = WeightedGraph({v: 1 for v in "abcwxyz"},
                      [("a", "b"), ("b", "c"), ("x", "y"), ("y", "z"),
                       ("x", "z")])
    z = z_gamma(g)
    assert render(z) == (
        "(((max(((a ⊙ b) ⊘ a), 0) ⊙ max((((a ⊙ b) ⊕ (b ⊙ c)) ⊘ b), 0) ⊙ "
        "max(((b ⊙ c) ⊘ c), 0) ⊙ max(((b ⊙ c) ⊘ (0 ⊘ ((0 ⊘ (a ⊙ b)) ⊕ (0 ⊘ "
        "(a ⊕ b))))), 0) ⊙ max(((a ⊙ b) ⊘ (0 ⊘ ((0 ⊘ (b ⊙ c)) ⊕ (0 ⊘ (b ⊕ "
        "c))))), 0)) ⊘ ((0 ⊘ ((0 ⊘ (a ⊙ b)) ⊕ (0 ⊘ (b ⊙ c)))) ⊘ (a ⊕ b ⊕ "
        "c))) ⊙ 0 ⊙ (max((((x ⊙ y) ⊕ (x ⊙ z)) ⊘ x), 0) ⊙ max((((x ⊙ y) ⊕ (y "
        "⊙ z)) ⊘ y), 0) ⊙ max((((x ⊙ z) ⊕ (y ⊙ z)) ⊘ z), 0) ⊙ max((((x ⊙ z) "
        "⊕ (y ⊙ z)) ⊘ (0 ⊘ ((0 ⊘ (x ⊙ y)) ⊕ (0 ⊘ (x ⊕ y))))), 0) ⊙ max((((x "
        "⊙ y) ⊕ (y ⊙ z)) ⊘ (0 ⊘ ((0 ⊘ (x ⊙ z)) ⊕ (0 ⊘ (x ⊕ z))))), 0) ⊙ "
        "max((((x ⊙ y) ⊕ (x ⊙ z)) ⊘ (0 ⊘ ((0 ⊘ (y ⊙ z)) ⊕ (0 ⊘ (y ⊕ z))))), "
        "0) ⊙ max(((y ⊙ z) ⊘ (0 ⊘ ((0 ⊘ (x ⊙ y)) ⊕ (0 ⊘ (x ⊙ z)) ⊕ (0 ⊘ (x "
        "⊕ y ⊕ z))))), 0) ⊙ max(((x ⊙ z) ⊘ (0 ⊘ ((0 ⊘ (x ⊙ y)) ⊕ (0 ⊘ (y ⊙ "
        "z)) ⊕ (0 ⊘ (x ⊕ y ⊕ z))))), 0) ⊙ max(((x ⊙ y) ⊘ (0 ⊘ ((0 ⊘ (x ⊙ "
        "z)) ⊕ (0 ⊘ (y ⊙ z)) ⊕ (0 ⊘ (x ⊕ y ⊕ z))))), 0)))")
    val = {"a": 1, "b": 3, "c": 2, "w": 4, "x": 2, "y": 1, "z": 3}
    assert eval_expr(z, val) == tval(10)
    g3 = WeightedGraph({v: 3 ** k for v, k in val.items()}, g.edges)
    assert torsion_order_p(full_subgraph(g3), 3) == 10


def random_connected(rng, max_n):
    n = rng.randint(2, max_n)
    names = [f"v{i}" for i in range(n)]
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    extra = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if (names[i], names[j]) not in edges and rng.random() < 0.35]
    return names, edges + extra


def test_tropical_interpretation_randomized():
    rng = random.Random(51)
    for _ in range(25):
        names, edges = random_connected(rng, 5)
        vals = {v: rng.randint(0, 3) for v in names}
        base = WeightedGraph({v: 1 for v in names}, edges)
        z = z_gamma(base)
        for p in (3, 5):
            g = WeightedGraph({v: p ** vals[v] for v in names}, edges)
            want = torsion_order_p(full_subgraph(g), p)
            assert eval_expr(z, vals) == tval(want), (g, vals, p)


def test_z_complete_examples():
    z3 = z_complete(3, ["B", "G", "R"])
    assert eval_expr(z3, {"R": 3, "G": 0, "B": 1}) == tval(4)
    z4 = z_complete(4)
    assert eval_expr(z4, {f"v{i}": 0 for i in range(4)}) == tval(0)
    assert eval_expr(z4, {f"v{i}": 1 for i in range(4)}) == tval(4)


def test_z_complete_matches_z_gamma():
    rng = random.Random(52)
    for n in (3, 4, 5):
        names = [f"v{i}" for i in range(n)]
        kn_edges = [(names[i], names[j]) for i in range(n)
                    for j in range(i + 1, n)]
        zg = z_gamma(WeightedGraph({v: 1 for v in names}, kn_edges))
        zc = z_complete(n, names)
        for _ in range(30):
            vals = {v: rng.randint(0, 4) for v in names}
            assert eval_expr(zc, vals) == eval_expr(zg, vals)


def test_complete_graph_components_are_stars():
    # bipartite components of reductions of K_n are stars centered at a
    # minimal-weight vertex
    rng = random.Random(53)
    p = 3
    for _ in range(20):
        n = rng.randint(3, 6)
        names = [f"v{i}" for i in range(n)]
        g = WeightedGraph({v: p ** rng.randint(0, 4) for v in names},
                          [(names[i], names[j]) for i in range(n)
                           for j in range(i + 1, n)])
        top = 1 + max(g.edge_valuation(e, p) for e in g.edges)
        for r in range(1, top + 1):
            for comp in components(reduce_graph(g, p, r)):
                if bipartition(comp) is None or not comp.edge_set:
                    continue
                degree = {v: 0 for v in comp.vertex_set}
                for u, w in comp.edge_set:
                    degree[u] += 1
                    degree[w] += 1
                centers = [v for v in comp.vertex_set
                           if degree[v] == len(comp.edge_set)]
                assert centers, comp
                m = min_valuation(comp, p)
                assert any(p_valuation(g.weight[c], p) == m for c in centers)


def test_gcd_product_shadow():
    rng = random.Random(54)
    vs = ["a", "b", "c", "d"]
    exprs = [
        elementary_symmetric(2, vs),
        Times((Var("a"), Var("b"), Var("b"))),
        Plus((Times((Var("a"), Var("c"))), Var("d"))),
    ]
    for e in exprs:
        for _ in range(10):
            nums = {v: rng.randint(1, 200) for v in vs}
            for p in (2, 3, 5):
                vals = {v: p_valuation(nums[v], p) for v in vs}
                assert eval_expr(e, vals) == tval(
                    p_valuation(eval_gcd_product(e, nums), p))


def test_render_parse_round_trip():
    g = k3()
    exprs = [
        z_gamma(g),
        z_complete(4),
        elementary_symmetric(2, ["x", "y", "z"]),
        Const(INF),
        Const(tval(-3)),
        Quotient(Var("a"), Var("b")),
    ]
    for e in exprs:
        text = render(e)
        assert parse(text) == e
    rendered = render(z_complete(4))
    assert "⊙" in rendered and "⊕" in rendered


# --- references: the full product, the recursive renderer, the tree walk ----

def _connected_two_colorable(vs, es):
    adj = {v: [] for v in vs}
    for u, w in es:
        adj[u].append(w)
        adj[w].append(u)
    colour = {vs[0]: 0}
    queue = [vs[0]]
    while queue:
        v = queue.pop()
        for w in adj[v]:
            if w not in colour:
                colour[w] = colour[v] ^ 1
                queue.append(w)
            elif colour[w] == colour[v]:
                return False
    return len(colour) == len(vs)


def reference_candidates(g):
    """(vertices, edges, boundary) of every connected bipartite proper
    subgraph of a connected graph, in (|V|, V, |E|, E) order: the factors
    of the full product, dead ones included, by filtering every subset of
    the induced edges."""
    return _reference_candidates(g.vertices, g.edges)


@cache
def _reference_candidates(verts, all_edges):
    out = []
    for k in range(1, len(verts) + 1):
        for vs in combinations(verts, k):
            vset = set(vs)
            induced = [e for e in all_edges if e[0] in vset and e[1] in vset]
            touching = [e for e in all_edges if e[0] in vset or e[1] in vset]
            for r in range(len(induced) + 1):
                for es in combinations(induced, r):
                    if (vs, es) != (verts, all_edges) \
                            and _connected_two_colorable(vs, es):
                        out.append((vs, es,
                                    [e for e in touching if e not in es]))
    return out


def reference_product(g, keep):
    """The product over the reference candidates that `keep(vs, es,
    boundary)` accepts, built as `z_gamma` builds its product."""
    comps = components(full_subgraph(g))
    if len(comps) > 1:
        return times(reference_product(c.as_graph(), keep) for c in comps)
    mono = {e: Times((Var(e[0]), Var(e[1]))) for e in g.edges}
    neg = {e: Quotient(UNIT, m) for e, m in mono.items()}
    varcache = {v: Var(v) for v in g.vertices}

    def factor(vs, es, boundary):
        low = plus(varcache[v] for v in vs)
        return _factor([mono[e] for e in boundary], [neg[e] for e in es],
                       low, Quotient(UNIT, low))

    product = times(factor(vs, es, boundary)
                    for vs, es, boundary in reference_candidates(g)
                    if keep(vs, es, boundary))
    if g.edges and bipartition(full_subgraph(g)) is not None:
        chain_gap = Quotient(tropical_max([mono[e] for e in g.edges]),
                             plus(varcache[v] for v in g.vertices))
        return Quotient(product, chain_gap)
    return product


def full_value(h, candidates, a):
    """The full product's value at the valuation a on a connected graph,
    from the factor formula max(0, min boundary - max(internal edges,
    vertex minimum)) and the chain gap."""
    sums = {e: a[e[0]] + a[e[1]] for e in h.edges}
    total = 0
    for vs, es, boundary in candidates:
        lower = max([sums[e] for e in es] + [min(a[v] for v in vs)])
        total += max(0, min(sums[b] for b in boundary) - lower)
    if h.edges and bipartition(full_subgraph(h)) is not None:
        total -= max(sums.values()) - min(a[v] for v in h.vertices)
    return total


def reference_render(e):
    """The recursive renderer."""
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        return "inf" if not e.value.finite else str(e.value.value)
    if isinstance(e, Plus):
        return "(" + " ⊕ ".join(reference_render(c) for c in e.children) + ")"
    if isinstance(e, Times):
        return "(" + " ⊙ ".join(reference_render(c) for c in e.children) + ")"
    if isinstance(e, Quotient):
        return (f"({reference_render(e.numerator)} ⊘ "
                f"{reference_render(e.denominator)})")
    if isinstance(e, ClampAtZero):
        return f"max({reference_render(e.child)}, 0)"
    raise TypeError(e)


def reference_eval(e, assignment):
    """The `TropicalValue` tree walk."""
    if isinstance(e, Var):
        if e.name not in assignment:
            raise KeyError(e.name)
        return tval(assignment[e.name])
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Plus):
        out = INF
        for c in e.children:
            out = t_plus(out, reference_eval(c, assignment))
        return out
    if isinstance(e, Times):
        out = tval(0)
        for c in e.children:
            out = t_times(out, reference_eval(c, assignment))
        return out
    if isinstance(e, Quotient):
        return t_quotient(reference_eval(e.numerator, assignment),
                          reference_eval(e.denominator, assignment))
    if isinstance(e, ClampAtZero):
        v = reference_eval(e.child, assignment)
        return v if not v.finite else tval(max(v.value, 0))
    raise TypeError(e)


# --- references: liveness as a linear program, dead factors as walks --------

def _normal(row):
    coeffs, strict = row
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    return (tuple(c // g for c in coeffs) if g > 1 else coeffs), strict


def fm_feasible(rows, n):
    """Fourier-Motzkin: has the homogeneous system of rows (c, strict),
    meaning c . a > 0 or c . a >= 0, a rational solution?"""
    rows = {_normal(r) for r in rows}
    left = set(range(n))
    while left:
        def pairs(x):
            p = sum(c[x] > 0 for c, _ in rows)
            q = sum(c[x] < 0 for c, _ in rows)
            return p * q - p - q
        x = min(left, key=pairs)
        left.discard(x)
        new = {r for r in rows if r[0][x] == 0}
        for p, sp in (r for r in rows if r[0][x] > 0):
            for q, sq in (r for r in rows if r[0][x] < 0):
                combined = tuple(-q[x] * pi + p[x] * qi for pi, qi in zip(p, q))
                new.add(_normal((combined, sp or sq)))
        rows = new
    return not any(strict for _, strict in rows)


def lp_live(g, vs, es, boundary):
    """Is the factor positive at some valuation a >= 0?  It is exactly
    when, for some v in vs, every boundary edge sum exceeds every chosen
    edge sum and a_v; the system is homogeneous, so a rational solution
    scales to an integer one."""
    col = {v: i for i, v in enumerate(g.vertices)}
    n = len(col)

    def chi(e):
        out = [0] * n
        out[col[e[0]]] += 1
        out[col[e[1]]] += 1
        return out

    edges = [(tuple(x - y for x, y in zip(chi(b), chi(e))), True)
             for b in boundary for e in es]
    nonneg = [(tuple(int(i == j) for j in range(n)), False) for i in range(n)]
    if not fm_feasible(edges + nonneg, n):
        return False
    return any(fm_feasible(
        edges + nonneg + [(tuple(x - (j == col[v]) for j, x in enumerate(chi(b))),
                           True) for b in boundary], n) for v in vs)


def alternating_walk(es, left_out):
    """A closed walk v0, v1, ..., v0 whose steps alternate between edges
    of es and edges of left_out, or None: depth-first search for a cycle
    over (vertex, next edge kind)."""
    step = {0: {}, 1: {}}
    for kind, edges in ((0, es), (1, left_out)):
        for u, w in edges:
            step[kind].setdefault(u, []).append(w)
            step[kind].setdefault(w, []).append(u)
    state, path = {}, []

    def visit(node):
        state[node] = 1
        path.append(node)
        v, kind = node
        for w in step[kind].get(v, ()):
            nxt = (w, 1 - kind)
            if state.get(nxt) == 1:
                cycle = path[path.index(nxt):] + [nxt]
                return [u for u, _ in cycle]
            if nxt not in state:
                found = visit(nxt)
                if found:
                    return found
        state[node] = 2
        path.pop()
        return None

    for v in {u for e in es for u in e}:
        if (v, 0) not in state:
            found = visit((v, 0))
            if found:
                return found
    return None


def is_alternating_closed_walk(walk, es, left_out):
    steps = [tuple(sorted(s)) for s in zip(walk, walk[1:])]
    kinds = [set(map(tuple, map(sorted, es))), set(map(tuple, map(sorted, left_out)))]
    if len(steps) < 2 or len(steps) % 2 or walk[0] != walk[-1]:
        return False
    first = 0 if steps[0] in kinds[0] else 1
    return all(s in kinds[(first + i) % 2] for i, s in enumerate(steps))


@cache
def connected_graphs(max_n):
    """One connected graph per isomorphism class, on 1..max_n vertices."""
    out = []
    for n in range(1, max_n + 1):
        names = [f"v{i}" for i in range(n)]
        pairs = list(combinations(range(n), 2))
        seen = set()
        for mask in range(1 << len(pairs)):
            chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            key = min(tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in chosen))
                      for p in permutations(range(n)))
            if key in seen:
                continue
            seen.add(key)
            g = WeightedGraph({v: 1 for v in names},
                              [(names[a], names[b]) for a, b in chosen])
            if is_connected(full_subgraph(g)):
                out.append(g)
    return tuple(out)


@cache
def bench_bases():
    """The seven base graphs of the benchmark's tropical workload."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    return tuple((graph_from_json(doc), val) for doc, val in
                 (inputs.tropical_input(0, i)
                  for i in range(len(inputs.TROPICAL_BASES))))


def random_graph6(rng):
    names = [f"v{i}" for i in range(6)]
    edges = {(names[rng.randrange(i)], names[i]) for i in range(1, 6)}
    edges |= {(names[i], names[j]) for i in range(6) for j in range(i + 1, 6)
              if rng.random() < 0.4}
    return WeightedGraph({v: 1 for v in names}, sorted(edges))


# --- live factors ------------------------------------------------------------

def test_liveness_matches_the_lp_reference():
    """On every connected graph with at most 5 vertices the factors kept
    are, in order, the candidates the linear program finds positive
    somewhere; every dropped one closes an alternating walk."""
    kept = dropped = 0
    for g in connected_graphs(5):
        every = reference_candidates(g)
        live = [c for c in every if lp_live(g, *c)]
        assert list(factor_rows_by_name(g)) == live, g
        for vs, es, boundary in every:
            left_out = [e for e in boundary if e[0] in vs and e[1] in vs]
            walk = alternating_walk(es, left_out)
            if (vs, es, boundary) in live:
                assert walk is None, (g, vs, es, walk)
                kept += 1
            else:
                assert walk is not None, (g, vs, es)
                assert is_alternating_closed_walk(walk, es, left_out), walk
                dropped += 1
    assert kept and dropped


def test_live_factors_on_the_first_bench_base():
    g, _ = bench_bases()[0]
    assert len(reference_candidates(g)) == 1354
    assert sum(1 for _ in factor_rows_by_name(g)) == 903


def graph_with(rng, n, m):
    """A seeded connected graph on n vertices with m edges."""
    names = [f"v{i}" for i in range(n)]
    edges = {(names[rng.randrange(i)], names[i]) for i in range(1, n)}
    pairs = list(combinations(names, 2))
    while len(edges) < m:
        edges.add(rng.choice(pairs))
    return WeightedGraph({v: 1 for v in names}, sorted(edges))


def test_live_factors_match_the_search_per_vertex_set():
    """The one search per graph finds the rows the search per vertex set
    finds, in the same order and with the same boundaries."""
    rng = random.Random(28)
    graphs = [graph_with(rng, n, n - 1 + rng.randint(0, n))
              for n in (6, 7, 8, 9) for _ in range(4)]
    graphs += [g for g, _ in bench_bases()]
    graphs.append(graph_with(rng, 10, 14))
    for g in graphs:
        assert factor_rows_by_name(g) == list(candidates_by_vertex_set(g)), g


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_higher_mask_is_an_earlier_name_list(data):
    """Over the numbering `_factor_rows` gives, two masks of one size
    order as the name lists `_pick` reads off them: -a < -b exactly when
    a's list is the earlier one, so the rows can sort on ints."""
    ids = data.draw(st.lists(st.text("ab_-09", min_size=1, max_size=3),
                             min_size=1, max_size=12, unique=True))
    names, _, _ = _factor_rows(WeightedGraph(dict.fromkeys(ids, 1), []))
    k = data.draw(st.integers(0, len(names)))
    bits = st.lists(st.integers(0, len(names) - 1), min_size=k, max_size=k,
                    unique=True)
    a, b = (sum(1 << i for i in data.draw(bits)) for _ in range(2))
    first, second = _pick(names, a), _pick(names, b)
    assert first == sorted(first) and second == sorted(second)
    assert (-a < -b) == (first < second), (names, a, b)


def test_packed_closure_matches_the_list_closure():
    """The search's closure, one int with a w-bit row per node, adds each
    arc and its mirror as the list of rows does: it refuses exactly the
    same arcs, and after each accepted one row z of the int is the list's
    row z.  Rows run to 24 bits wide, past the 20 of the default cap."""
    rng = random.Random(31)
    refused = accepted = 0
    for n in range(1, 13):
        w = 2 * n
        col = sum(1 << z * w for z in range(w))
        full = (1 << w) - 1
        for _ in range(20):
            packed, rows = 0, [0] * w
            for _ in range(3 * n):
                x, y = rng.randrange(w), rng.randrange(w)
                got, want = _close_edge(packed, w, col, x, y), close_edge(rows, x, y)
                assert (got is None) == (want is None), (n, x, y, rows)
                if want is None:
                    refused += 1
                    continue
                assert [got >> z * w & full for z in range(w)] == want, (n, x, y)
                assert got >> w * w == 0
                packed, rows = got, want
                accepted += 1
    assert refused > 500 and accepted > 2000, (refused, accepted)


def test_z_gamma_past_the_default_cap(monkeypatch):
    """With the cap raised to 12, sparse 11- and 12-vertex graphs (closure
    rows 22 and 24 bits wide) still give the 3-torsion exponent."""
    monkeypatch.setenv("GCOH_MAX_SUBGRAPHS", "12")
    rng = random.Random(32)
    for n, m in ((11, 15), (12, 16)):
        g = graph_with(rng, n, m)
        z = z_gamma(g)
        for _ in range(4):
            a = {v: rng.randint(0, 3) for v in g.vertices}
            g3 = WeightedGraph({v: 3 ** a[v] for v in g.vertices}, g.edges)
            assert eval_expr(z, a) == tval(torsion_order_p(full_subgraph(g3), 3)), (g, a)


INFINITE = float("inf")


def factor_peaks(candidates, points):
    """Per candidate, the largest of min boundary - max(internal edges,
    vertex minimum) over the valuations in `points`: the factor is
    positive at one of them exactly when this is, computed a column at
    a time."""
    col = {v: [a[v] for a in points] for v in points[0]}
    top = [INFINITE] * len(points)
    sums = {}

    def edge(e):
        if e not in sums:
            sums[e] = list(map(add, col[e[0]], col[e[1]]))
        return sums[e]

    out = []
    for vs, es, boundary in candidates:
        upper = map(min, *map(edge, boundary), top)
        lower = map(max, *map(edge, es), map(min, *(col[v] for v in vs), top))
        out.append(max(map(sub, upper, lower)))
    return out


def check_full_product(g, points, sampled):
    """The dropped factors vanish at every valuation of `points`, so
    there the product of the live factors equals the full product; and
    `eval_expr(z_gamma(g))` equals the full product's value at the first
    `sampled` of them."""
    live = {(vs, es) for vs, es, _ in factor_rows_by_name(g)}
    every = reference_candidates(g)
    dead = [c for c in every if c[:2] not in live]
    for c, peak in zip(dead, factor_peaks(dead, points)):
        assert peak <= 0, (g, c)
    z = z_gamma(g)
    for a in points[:sampled]:
        assert eval_expr(z, a) == tval(full_value(g, every, a)), (g, a)


def test_z_gamma_equals_the_full_product_on_the_grid():
    """At every valuation in {0..3}^V of every connected graph with at
    most 5 vertices: through eval_expr on every point up to 4 vertices,
    through the dropped factors and 48 sampled points on 5."""
    rng = random.Random(60)
    for g in connected_graphs(5):
        points = [dict(zip(g.vertices, values))
                  for values in product(range(4), repeat=len(g.vertices))]
        if len(points) > 256:
            rng.shuffle(points)
            check_full_product(g, points, 48)
        else:
            check_full_product(g, points, len(points))


def test_z_gamma_equals_the_full_product_at_wide_valuations():
    """Seeded valuations in {0..8}^V on 6-vertex graphs and the bench
    bases."""
    rng = random.Random(61)
    graphs = [random_graph6(rng) for _ in range(8)]
    graphs += [g for g, _ in bench_bases()]
    for g in graphs:
        points = [{v: rng.randint(0, 8) for v in g.vertices}
                  for _ in range(100)]
        check_full_product(g, points, 3)


def test_render_is_the_recursive_render_without_dead_factors():
    rng = random.Random(62)
    graphs = list(connected_graphs(4)) + [random_graph6(rng) for _ in range(4)]
    graphs += [bench_bases()[0][0],
               WeightedGraph({"a": 1, "b": 1, "x": 1, "y": 1},
                             [("a", "b"), ("x", "y")])]

    def live(vs, es, boundary):
        return alternating_walk(
            es, [e for e in boundary if e[0] in vs and e[1] in vs]) is None

    for g in graphs:
        assert render(z_gamma(g)) == reference_render(reference_product(g, live))


def test_eval_matches_the_tree_walk_on_the_full_product():
    for g, val in bench_bases()[:1]:
        full = reference_product(g, lambda *_: True)
        assert eval_expr(z_gamma(g), val) == reference_eval(full, val)


# --- rendering and evaluation of arbitrary expressions ------------------------

NAME = st.text(alphabet="abxyz019_-", min_size=1, max_size=4).filter(
    lambda s: s != "inf" and not s.lstrip("-").isdigit())
LEAF = st.one_of(
    NAME.map(Var),
    st.integers(-5, 9).map(lambda x: Const(tval(x))),
    st.just(Const(INF)))


def _expressions(children):
    many = st.lists(children, min_size=2, max_size=4).map(tuple)
    return st.one_of(
        many.map(Plus), many.map(Times),
        st.tuples(children, children).map(lambda t: Quotient(*t)),
        children.map(ClampAtZero))


EXPR = st.recursive(LEAF, _expressions, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(EXPR)
def test_render_round_trips_and_matches_the_recursive_render(e):
    text = render(e)
    assert text == reference_render(e)
    assert parse(text) == e


@settings(max_examples=200, deadline=None)
@given(EXPR, st.dictionaries(NAME, st.one_of(st.integers(-3, 9), st.none())))
def test_eval_matches_the_tree_walk(e, assignment):
    try:
        want = reference_eval(e, assignment)
    except (KeyError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            eval_expr(e, assignment)
    else:
        assert eval_expr(e, assignment) == want


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=5))
def test_render_refuses_exactly_the_names_that_do_not_parse_back(name):
    try:
        text = render(Var(name))
    except ValueError:
        try:
            assert parse(name) != Var(name)
        except ValueError:
            pass
    else:
        assert parse(text) == Var(name)


def test_render_refuses_unwritable_vertex_ids():
    for name in ("1", "2", "-3", "inf", "a b", ""):
        with pytest.raises(ValueError):
            render(Var(name))
    g = WeightedGraph({"1": 1, "2": 1}, [("1", "2")])
    with pytest.raises(ValueError):
        render(z_gamma(g))
    assert render(Times((Var("max"), Var("a-1")))) == "(max ⊙ a-1)"


@pytest.mark.parametrize("text", [
    "", "(", "(a", "(a ⊕", "(a ⊕ b", "max(a, 1)", "max(a", "(a ⊕ b ⊙ c)",
    "a b", "(a ⊘ b ⊘ c)", ")", "?", "٣", "３", "-٣", "(a ⊕ ３)",
    pytest.param("(" * 1200 + "a" + ")" * 1200, id="nested-1200")])
def test_parse_refuses_malformed_text(text):
    # running out of tokens mid-expression is a ValueError, not an IndexError;
    # numbers are ASCII digits, and text nested too deeply for the recursive
    # descent is refused, not a RecursionError
    with pytest.raises(ValueError):
        parse(text)


# --- the maximum as a negated minimum -----------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=12))
def test_tropical_max_evaluates_to_max(xs):
    names = [f"x{i}" for i in range(len(xs))]
    mx = tropical_max([Var(v) for v in names])
    assert eval_expr(mx, dict(zip(names, xs))) == tval(max(xs))


def test_rendered_max_grows_linearly():
    text = render(tropical_max([Var(f"x{i}") for i in range(40)]))
    assert len(text) <= 500
    assert text.startswith("(0 ⊘ ((0 ⊘ x0) ⊕ (0 ⊘ x1) ⊕ ")


def distinct_nodes(e):
    seen, stack = set(), [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, (Plus, Times)):
                stack += node.children
            elif isinstance(node, Quotient):
                stack += [node.numerator, node.denominator]
            elif isinstance(node, ClampAtZero):
                stack.append(node.child)
    return len(seen)


def test_z_gamma_builds_each_negation_and_vertex_minimum_once():
    # 11,226 distinct nodes on the first bench base when every factor
    # built its own edge negations and vertex minimum
    g, _ = bench_bases()[0]
    assert distinct_nodes(z_gamma(g)) <= 11226 // 2


def test_bench_base_reports_are_pinned():
    digest = hashlib.sha256()
    for g, val in bench_bases():
        z = z_gamma(g)
        digest.update(f"{render(z)}\n{eval_expr(z, val)!r}\n".encode())
    assert digest.hexdigest() == (
        "b9845e1ff365667e7010385ad7d01eb28a0ab439a9709f63abaa605500650a04")


def test_rendered_z_gamma_parses_back_to_its_value():
    g, val = bench_bases()[0]
    z = z_gamma(g)
    assert eval_expr(parse(render(z)), val) == eval_expr(z, val)
