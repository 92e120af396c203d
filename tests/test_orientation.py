import random

import pytest

import gcoh.cohomology
import gcoh.intlinalg
import gcoh.orientation
from gcoh.graphs import (
    Subgraph,
    WeightedGraph,
    bipartition,
    components,
    edge_boundary,
    full_subgraph,
    p_valuation,
    reduction,
    subgraph_of,
)
from gcoh.cohomology import (
    critical_cohomology_dim,
    critical_columns,
    d0_matrix,
)
from gcoh.intlinalg import (
    kernel_mod,
    mat_vec,
    matrix_from_columns,
    smith_normal_form,
    span_exponent_mod,
)
from gcoh.orientation import (
    OrientationReport,
    divided_fundamental_class,
    fundamental_chain,
    is_orientable,
    is_orientation_class,
)


def triangle(a, b, c):
    return WeightedGraph({"u": a, "v": b, "w": c},
                         [("u", "v"), ("u", "w"), ("v", "w")])


def test_fundamental_chain_examples():
    e = full_subgraph(WeightedGraph({"u": 4, "v": 6}, [("u", "v")]))
    c = fundamental_chain(e, {"u": 1, "v": -1})
    assert c == {"u": 4, "v": -6}

    single = full_subgraph(WeightedGraph({"v": 7}, []))
    assert fundamental_chain(single, {"v": 1}) == {"v": 7}

    path = full_subgraph(WeightedGraph({"a": 2, "b": 3, "c": 2},
                                       [("a", "b"), ("b", "c")]))
    c = fundamental_chain(path, {"a": 1, "b": -1, "c": 1})
    assert c == {"a": 2, "b": -3, "c": 2}


def test_fundamental_chain_rejects_bad_bipartition():
    e = full_subgraph(WeightedGraph({"u": 4, "v": 6}, [("u", "v")]))
    with pytest.raises(ValueError):
        fundamental_chain(e, {"u": 1, "v": 1})
    with pytest.raises(ValueError):
        fundamental_chain(e, {"u": 1})


def test_divided_fundamental_class_examples():
    e = full_subgraph(WeightedGraph({"u": 4, "v": 6}, [("u", "v")]))
    c = divided_fundamental_class(e, {"u": 1, "v": -1})
    assert c == {"u": 2, "v": -3}

    e1 = full_subgraph(WeightedGraph({"u": 1, "v": 1}, [("u", "v")]))
    c = divided_fundamental_class(e1, {"u": 1, "v": -1})
    assert c == {"u": 1, "v": -1}

    k3 = WeightedGraph({"R": 27, "G": 1, "B": 3},
                       [("R", "G"), ("R", "B"), ("G", "B")])
    path = subgraph_of(k3, ["R", "G", "B"], [("R", "G"), ("G", "B")])
    alpha = bipartition(path)
    assert alpha is not None
    c = divided_fundamental_class(path, alpha)
    assert c == {"R": 27, "G": -1, "B": 3}


def test_is_orientable_examples():
    rep = is_orientable(full_subgraph(triangle(1, 1, 1)), 3, 1)
    assert not rep.orientable and rep.method == "odd-prime"

    rep = is_orientable(full_subgraph(triangle(2, 1, 1)), 2, 2)
    assert rep.orientable and rep.method == "two-adic"
    assert rep.orientation_class is not None

    tree = full_subgraph(WeightedGraph({"a": 9, "b": 3, "c": 27},
                                       [("a", "b"), ("b", "c")]))
    for p, s in [(3, 5), (2, 1), (5, 2)]:
        rep = is_orientable(tree, p, s)
        assert rep.orientable and rep.method == "bipartite"


def test_orientation_class_passes_predicate_when_connected():
    g = full_subgraph(triangle(2, 1, 1))
    rep = is_orientable(g, 2, 2)
    assert rep.orientable
    assert is_orientation_class(rep.orientation_class, g, 2, 2)


def test_is_orientation_class_examples():
    e = full_subgraph(WeightedGraph({"u": 4, "v": 6}, [("u", "v")]))
    z = divided_fundamental_class(e, {"u": 1, "v": -1})
    assert is_orientation_class(z, e, 2, 2) is True

    doubled = {v: 2 * c for v, c in z.items()}
    assert is_orientation_class(doubled, e, 2, 2) is False
    assert is_orientation_class({}, e, 2, 2) is False


def test_is_orientation_class_at_a_large_prime():
    # the multiple of the class is solved for at one unit coordinate, so
    # the cost does not grow with p
    p = 2 ** 61 - 1
    square = full_subgraph(WeightedGraph(
        {"a": 1, "b": p, "c": 1, "d": p},
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]))
    z = divided_fundamental_class(square, bipartition(square))
    assert is_orientation_class({v: 2 * c for v, c in z.items()},
                                square, p, 2) is True
    # d0 vanishes mod p**2 here, and the cocycle that is 1 on v is not a
    # multiple of the one that is 1 on u
    edge = full_subgraph(WeightedGraph({"u": p ** 2, "v": p ** 2},
                                       [("u", "v")]))
    assert is_orientation_class({"u": 1}, edge, p, 2) is False


def test_is_orientation_class_rejects_non_cocycle():
    e = full_subgraph(WeightedGraph({"u": 4, "v": 6}, [("u", "v")]))
    with pytest.raises(ValueError):
        is_orientation_class({"u": 1, "v": 0}, e, 2, 2)


def test_cocycle_property_of_fundamental_chain():
    # boundary of a bipartite subgraph's fundamental chain is supported on
    # its edge boundary, and vanishes for full components
    k3 = WeightedGraph({"R": 27, "G": 1, "B": 3},
                       [("R", "G"), ("R", "B"), ("G", "B")])
    gb = subgraph_of(k3, ["G", "B"], [("G", "B")])
    alpha = bipartition(gb)
    chain = fundamental_chain(gb, alpha)
    full = full_subgraph(k3)
    boundary = mat_vec(d0_matrix(full), [chain.get(v, 0) for v in full.vertices])
    support = {e for e, c in zip(full.edges, boundary) if c}
    assert support <= set(edge_boundary(gb))
    assert support  # strictly on the boundary here

    square = WeightedGraph({v: 2 for v in "abcd"},
                           [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    full = full_subgraph(square)
    chain = fundamental_chain(full, bipartition(full))
    assert not any(mat_vec(d0_matrix(full), [chain[v] for v in full.vertices]))


def _val_or_inf(x, p, s):
    if x % p ** s == 0:
        return None  # infinity
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def test_principle_of_small_cycles():
    # on connected reduced schemes, val(k_v) - val(z_v) is constant for
    # any cocycle with at least one small coefficient
    rng = random.Random(13)
    checked = 0
    while checked < 20:
        n = rng.randint(2, 5)
        p = rng.choice([2, 3])
        s = rng.randint(1, 3)
        names = [f"v{i}" for i in range(n)]
        weights = {v: p ** rng.randint(0, 2) for v in names}
        edges = [(names[i], names[i + 1]) for i in range(n - 1)]
        edges += [(names[i], names[j]) for i in range(n) for j in range(i + 2, n)
                  if rng.random() < 0.4]
        g = WeightedGraph(weights, edges)
        sub = full_subgraph(g)
        if any(g.edge_valuation(e, p) >= s for e in g.edges):
            continue  # not reduced
        gens = kernel_mod(d0_matrix(sub), p, s)
        if not gens:
            continue
        ps = p ** s
        coeffs = [rng.randint(0, ps - 1) for _ in gens]
        z = [sum(c * gen[i] for c, gen in zip(coeffs, gens)) % ps
             for i in range(n)]
        vals_k = [p_valuation(weights[v], p) for v in sub.vertices]
        vals_z = [_val_or_inf(x, p, s) for x in z]
        anchored = any(vz is not None and vz <= vk
                       for vz, vk in zip(vals_z, vals_k))
        if not anchored:
            continue
        diffs = {vk - vz for vk, vz in zip(vals_k, vals_z)}
        assert len(diffs) == 1 and diffs.pop() >= 0
        checked += 1


def test_combinatorial_and_critical_dimension_agree():
    # reduced connected inputs: combinatorial decision == critical dimension
    rng = random.Random(14)
    done = 0
    while done < 30:
        n = rng.randint(1, 4)
        p = rng.choice([2, 3])
        s = rng.randint(1, 3)
        names = [f"v{i}" for i in range(n)]
        weights = {v: p ** rng.randint(0, 2) for v in names}
        edges = [(names[i], names[i + 1]) for i in range(n - 1)]
        edges += [(names[i], names[j]) for i in range(n) for j in range(i + 2, n)
                  if rng.random() < 0.5]
        g = WeightedGraph(weights, edges)
        sub = full_subgraph(g)
        if any(g.edge_valuation(e, p) >= s for e in g.edges):
            continue
        rep = is_orientable(sub, p, s)
        dim_ok = all(critical_cohomology_dim(c, p, s) == 1
                     for c in components(sub))
        assert rep.orientable == dim_ok
        if rep.orientable and len(components(sub)) == 1:
            assert is_orientation_class(rep.orientation_class, sub, p, s)
        done += 1


# The kernel-and-span route the column rule replaced, kept as a reference:
# generators of H0(Z/p**s) from `kernel_mod`, against the image of
# H0(Z/p**(s-1)) multiplied by p.

def _lifted_image(a, p, s):
    if s == 1:
        return []
    return [tuple(p * x % p ** s for x in gen) for gen in kernel_mod(a, p, s - 1)]


def reference_critical_dim(g, p, s):
    a = d0_matrix(g)
    return (span_exponent_mod(kernel_mod(a, p, s), a.cols, p, s)
            - span_exponent_mod(_lifted_image(a, p, s), a.cols, p, s))


def reference_orientation_class(g, p, s):
    """The first `kernel_mod` generator outside the lifted image."""
    a = d0_matrix(g)
    image = smith_normal_form(matrix_from_columns(_lifted_image(a, p, s), a.cols))
    for gen in kernel_mod(a, p, s):
        if image.solve(gen, (p, s)) is None:
            return {v: c for v, c in zip(g.vertices, gen) if c}
    return None


def column_class(g, p, s):
    dec = smith_normal_form(d0_matrix(g))
    (j,) = critical_columns(dec, p, s)
    ps = p ** s
    return {v: x % ps for v, x in zip(g.vertices, dec.v.column(j)) if x % ps}


def test_column_rule_matches_kernel_and_span_reference():
    rng = random.Random(61)
    seen = {"reduced": 0, "non-reduced": 0, "oriented non-reduced": 0,
            "not oriented": 0}
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        s = rng.randint(1, 4)
        n = rng.randint(1, 6)
        names = [f"v{i}" for i in range(n)]
        units = [u for u in range(1, 8) if u % p]
        weights = {v: p ** rng.randint(0, 3) * rng.choice(units) for v in names}
        edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
        edges += [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.3 and (names[i], names[j]) not in edges]
        g = WeightedGraph(weights, edges)
        sub = full_subgraph(g)
        reduced = all(g.edge_valuation(e, p) < s for e in g.edges)
        seen["reduced" if reduced else "non-reduced"] += 1
        dim = critical_cohomology_dim(sub, p, s)
        assert dim == reference_critical_dim(sub, p, s)
        rep = is_orientable(sub, p, s)
        assert rep.orientable == (dim == 1)
        if dim != 1:
            seen["not oriented"] += 1
            continue
        assert is_orientation_class(rep.orientation_class, sub, p, s)
        cls = column_class(sub, p, s)
        assert cls == reference_orientation_class(sub, p, s)
        assert is_orientation_class(cls, sub, p, s)
        if not reduced:
            seen["oriented non-reduced"] += 1
            assert rep.method == "critical-dimension"
            assert rep.orientation_class == cls
    assert min(seen.values()) >= 30, seen


def test_one_snf_per_orientation_question(monkeypatch):
    real = gcoh.intlinalg.smith_normal_form
    calls = []

    def counted(a):
        calls.append(a)
        return real(a)

    for module in (gcoh.intlinalg, gcoh.cohomology, gcoh.orientation):
        monkeypatch.setattr(module, "smith_normal_form", counted)
    cycle = full_subgraph(WeightedGraph(
        {"a": 9, "b": 3, "c": 1, "d": 3},
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]))
    for s, dim in [(1, 2), (2, 1), (3, 1)]:
        calls.clear()
        assert critical_cohomology_dim(cycle, 3, s) == dim
        assert len(calls) == 1
    calls.clear()
    rep = is_orientable(cycle, 3, 2)  # edge a-b has valuation 3: not reduced
    assert len(calls) == 1
    assert rep.orientable and rep.method == "critical-dimension"
    assert rep.orientation_class == {"b": 6, "c": 1, "d": 6}


# The route `is_orientable` took before it read the filtration, kept as a
# reference: its own components, an edge scan for reducedness, and the
# reduction of each non-bipartite component at s - 1 for the 2-adic signs.

def _reference_component(comp, p, s):
    if any(comp.parent.edge_valuation(e, p) >= s for e in comp.edge_set):
        dec = smith_normal_form(d0_matrix(comp))
        critical = critical_columns(dec, p, s)
        if len(critical) != 1:
            return None, "critical-dimension"
        col, ps = dec.v.column(critical[0]), p ** s
        return ({v: x % ps for v, x in zip(comp.vertices, col) if x % ps},
                "critical-dimension")
    alpha = bipartition(comp)
    if alpha is not None:
        return divided_fundamental_class(comp, alpha), "bipartite"
    if p != 2:
        return None, "odd-prime"
    lower = (reduction(comp, 2, s - 1) if s >= 2
             else Subgraph(comp.parent, comp.vertex_set, frozenset()))
    alpha = bipartition(lower)
    if alpha is None or p_valuation(comp.weight_gcd(), 2) != 0:
        return None, "two-adic"
    return (divided_fundamental_class(comp, alpha, require_bipartition=False),
            "two-adic")


def reference_is_orientable(d, p, s):
    if not d.vertex_set:
        return OrientationReport(True, {}, "bipartite")
    decided = [_reference_component(comp, p, s) for comp in components(d)]
    methods = [m for _, m in decided]
    method = (methods[0] if len(set(methods)) == 1
              else "+".join(sorted(set(methods))))
    if any(cls is None for cls, _ in decided):
        return OrientationReport(False, None, method)
    merged = {}
    for cls, _ in decided:
        merged.update(cls)
    return OrientationReport(True, merged, method)


def test_is_orientable_matches_the_per_component_reference():
    rng = random.Random(62)
    seen = {"disconnected": 0, "edge subset": 0, "oriented two-adic": 0,
            "oriented critical-dimension": 0, "odd-prime": 0, "mixed": 0}
    for _ in range(3000):
        p = rng.choice((2, 2, 3, 5))
        s = rng.randint(1, 4)
        # up to three dense blocks, so components with odd cycles are common
        names, edges = [], []
        for _ in range(rng.randint(0, 3)):
            block = [f"v{len(names) + i}" for i in range(rng.randint(1, 4))]
            edges += [(u, w) for i, u in enumerate(block) for w in block[i + 1:]
                      if rng.random() < 0.8]
            names += block
        units = [u for u in (1, 3, 5, 7) if u % p]
        weights = {v: p ** rng.choice((0, 0, 0, 1, 2, 3)) * rng.choice(units)
                   for v in names}
        g = WeightedGraph(weights, edges)
        d = full_subgraph(g)
        if rng.random() < 0.3:
            d = subgraph_of(g, names, [e for e in edges if rng.random() < 0.7])
            seen["edge subset"] += 1
        rep = is_orientable(d, p, s)
        assert rep == reference_is_orientable(d, p, s), (d, p, s)
        seen["disconnected"] += len(components(d)) > 1
        seen["odd-prime"] += "odd-prime" in rep.method
        seen["mixed"] += "+" in rep.method
        if rep.orientable:
            for method in ("two-adic", "critical-dimension"):
                seen["oriented " + method] += method in rep.method
    assert min(seen.values()) >= 30, seen
