"""Closed forms and structural reductions for varying weights.

Trees admit an exact product formula for the torsion order.  General
graphs factor through two reductions: the oriented core (the union of
the maximal fundamental-forest subgraphs, `FundamentalForest.maximal`)
and, for oriented graphs at odd primes, a valuation-preserving spanning
tree (the Kruskal tree of `graphs.filtration`).  The edge-weighted
complex ties everything together through an exact Euler-style relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional

from .graphs import (
    Edge,
    Subgraph,
    WeightedGraph,
    bipartition,
    components,
    filtration,
    full_subgraph,
    is_connected,
    p_valuation,
    reduction,
    require_prime,
)
from .cohomology import d0_edge_matrix, torsion_order_p
from .forest import FundamentalForest, build_forest
from .intlinalg import cokernel_structure


def tree_torsion(g: Subgraph) -> int:
    """Torsion order of H1 for a tree: gcd of the weights times the
    product of k_v**(valence - 1)."""
    if len(g.edge_set) != len(g.vertex_set) - 1 or not is_connected(g):
        raise ValueError("tree_torsion requires a connected acyclic subgraph")
    if len(g.vertex_set) == 1:
        return 1  # gcd * k**(-1) cancels
    degree = {v: 0 for v in g.vertex_set}
    for u, v in g.edge_set:
        degree[u] += 1
        degree[v] += 1
    g0 = g.weight_gcd()
    return g0 * prod(g.parent.weight[v] ** (degree[v] - 1)
                     for v in g.vertex_set)


def edge_weighted_constants(g: Subgraph) -> tuple[int, int, int]:
    """(C0, C1, C2) of the edge-weighted comparison.

    C0 multiplies the weight gcds of the bipartite components (1 for each
    non-bipartite one), C1 is the product of all weights, C2 the torsion
    order of the edge-weighted complex.  They satisfy
    |torsion H1| = C0 * C2 / C1 exactly.
    """
    c0 = 1
    for comp in components(g):
        if bipartition(comp) is not None:
            c0 *= comp.weight_gcd()
    c1 = prod(g.parent.weight[v] for v in g.vertex_set) if g.vertex_set else 1
    c2 = cokernel_structure(d0_edge_matrix(g)).torsion_order
    return c0, c1, c2


def hbe_count(g: WeightedGraph, p: int) -> int:
    """Forest node count, the sum of its classes' level ranges, plus the
    total weight valuation.

    Equals val_p(C2) at odd primes.  Refused when the graph has a
    bipartite component, where the count would be infinite.
    """
    forest = build_forest(g, p)
    if forest.bipartite_components:
        raise ValueError("hbe_count is infinite on bipartite components")
    return (sum(map(len, forest.levels.values()))
            + sum(forest.filtration.valuation.values()))


@dataclass(frozen=True)
class CoreComponent:
    graph: Subgraph
    sup_level: Optional[int]  # None for a bipartite component's tail
    min_val: int
    bipartite: bool
    from_forest: bool


@dataclass(frozen=True)
class CoreDecomposition:
    core: Subgraph
    special_edges: frozenset[Edge]
    per_component: tuple[CoreComponent, ...]


def oriented_core(forest: FundamentalForest) -> CoreDecomposition:
    """Disjoint union of the forest's maximal subgraphs, padded with
    one-vertex components so every vertex of the forest's graph g is
    covered.  The graph and the prime p are the forest's.

    At p = 2 each non-bipartite component carries its set of
    top-valuation edges (removing them leaves a bipartite graph).
    """
    g, p = forest.graph, forest.prime
    parts: list[CoreComponent] = []
    filt = forest.filtration
    for delta in forest.maximal:
        parts.append(CoreComponent(delta, forest.sup_level[delta],
                                   filt.min_val[delta],
                                   delta in filt.colouring, True))
    for v in g.vertices:
        if v in forest.signs:
            continue
        # {v}'s boundary valuation: 0 when an edge of valuation 0 joins v
        # at level 1, else the last level of the class {v}
        below = filt.class_of(v, 1)
        sup = 0 if len(below.vertex_set) > 1 else filt.boundary_valuation(below)
        parts.append(CoreComponent(
            Subgraph(g, frozenset([v]), frozenset()), sup,
            filt.valuation[v], True, False))
    parts.sort(key=lambda c: c.graph.min_vertex())

    special: set[Edge] = set()
    if p == 2:
        for part in parts:
            if part.bipartite or part.sup_level is None:
                continue
            top = part.sup_level - 1
            special |= {(u, v) for u, v in part.graph.edge_set
                        if filt.valuation[u] + filt.valuation[v] == top}
    vertex_union = frozenset(v for part in parts for v in part.graph.vertex_set)
    edge_union = frozenset(e for part in parts for e in part.graph.edge_set)
    core = Subgraph(g, vertex_union, edge_union)
    return CoreDecomposition(core, frozenset(special), tuple(parts))


def core_torsion_relation(g: WeightedGraph, p: int) -> Optional[int]:
    """val_p of the torsion order via the oriented core:
    val_p(torsion of the core) plus the sum of (sup level - min valuation)
    over its bipartite forest components.

    Applicable to connected non-bipartite graphs with a nonempty forest;
    returns None otherwise.  The result is asserted against the direct
    computation, never silently wrong.  (Vertices not covered by a
    maximal element have weight valuation equal to their boundary
    valuation, so they contribute nothing.)
    """
    forest = build_forest(g, p)
    filt = forest.filtration
    # connected: one class at the top level; non-bipartite: no infinite tail
    if (len(filt.at(filt.top)) != 1 or forest.bipartite_components
            or not forest.levels):
        return None
    dec = oriented_core(forest)
    total = torsion_order_p(dec.core, p)
    for part in dec.per_component:
        if not part.bipartite:
            continue
        sup = part.sup_level
        if sup is None:
            raise AssertionError("bipartite core component with infinite level "
                                 "inside a connected non-bipartite graph")
        total += sup - part.min_val
    direct = torsion_order_p(full_subgraph(g), p)
    if total != direct:
        raise AssertionError(
            f"core relation gives {total}, direct computation {direct}")
    return total


def _partitions_at(g: Subgraph, p: int, levels: list[int]) -> list[frozenset]:
    out = []
    for r in levels:
        out.append(frozenset(frozenset(c.vertex_set)
                             for c in components(reduction(g, p, r))))
    return out


def weighted_spanning_tree(g: Subgraph, p: int) -> Subgraph:
    """Spanning tree preserving, for every vertex pair, the largest level
    at which the pair is disconnected in the reductions.

    The Kruskal tree of `filtration`, unique under the order (valuation,
    edge): lexicographically largest edges go first among ties, matching
    the worked examples.  Requires a nonempty connected subgraph that is
    orientable at its top level, where it is reduced: at odd p, that is
    a bipartite one.  Odd primes only, the p = 2 analogue of this
    reduction is out of scope.
    """
    require_prime(p)
    if p == 2:
        raise ValueError("weighted spanning trees are built for odd primes only")
    filt = filtration(g, p)
    comps = filt.at(filt.top)
    if len(comps) != 1:
        raise ValueError("weighted_spanning_tree requires a connected subgraph")
    # reduced at its top level, so oriented at odd p exactly when bipartite
    if comps[0] not in filt.colouring:
        raise ValueError(f"subgraph is not orientable mod p^{filt.top}")

    tree = Subgraph(g.parent, g.vertex_set, filt.tree)
    # a reduction of g or of the tree, whose edges are g's, changes only
    # at level 1 and at v + 1 for an edge valuation v, read off g's edges
    levels = sorted({1} | {g.parent.edge_valuation(e, p) + 1 for e in g.edge_set})
    if _partitions_at(tree, p, levels) != _partitions_at(g, p, levels):
        raise AssertionError("spanning tree does not preserve the reduction "
                             "partitions")
    return tree


def oriented_torsion_exponent(g: Subgraph, p: int) -> int:
    """p-torsion exponent of an oriented reduced subgraph, by its tree."""
    return spanning_tree_exponent(weighted_spanning_tree(g, p), p)


def spanning_tree_exponent(tree: Subgraph, p: int) -> int:
    """The torsion exponent read off a weighted spanning tree: the
    p-valuation of its `tree_torsion`, that is, minimal weight valuation
    plus the sum of (valence - 1) times the valuation over the tree."""
    return p_valuation(tree_torsion(tree), p)
