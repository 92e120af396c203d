"""The fundamental forest of a weighted graph at a prime.

Fix a prime p.  For each level r >= 1, take the components of the
level-r reduction whose minimal weight valuation m is below r and which
are oriented over Z/p**(r - m); these pairs (component, level) are the
forest's nodes.  Walking one level down through the component containing
a minimal-weight vertex gives the descent map; iterating it lands on the
minimal nodes.  Chains that do not come from a bipartite component of
the whole graph are finite, and their peaks carry the p-torsion of the
first cohomology group: one cyclic summand of order
p**(peak level - chain minimum valuation) per counted chain.

Bipartite components contribute an infinite tail of nodes; the tail is
stored symbolically (sup_level None) and only materialized up to the
largest level that matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import (
    Bipartition,
    Subgraph,
    WeightedGraph,
    bipartition,
    boundary_valuation,
    components,
    full_subgraph,
    p_valuation,
    reduce_graph,
    reduction,
    require_prime,
)
from .orientation import two_adic_bipartition


@dataclass(frozen=True)
class ForestNode:
    """One pair (subgraph, level); `min_val` and `sup_level` are the
    subgraph's minimal weight valuation and its largest level (None for
    the infinite tail of a bipartite component)."""

    graph: Subgraph
    level: int
    min_val: int
    sup_level: Optional[int]

    def sort_key(self):
        return (self.level, self.graph.vertices, self.graph.edges)

    def label(self) -> str:
        return f"({{{','.join(self.graph.vertices)}}},{self.level})"


class FundamentalForest:
    """Forest structure at a prime; see the module docstring.

    Attributes of note:
      nodes            all materialized nodes
      subgraphs        distinct node subgraphs
      extras           single-vertex cover graphs that fail the minimal
                       valuation condition (needed to span vertex sets in
                       the fundamental complex; they carry no nodes)
      descent          one-level-down map, defined off the minimal nodes
      to_minimal       iterated descent
      minimal_nodes    nodes at level = min_val + 1
      counted_minimal  minimal nodes of finite chains
      counted_nodes    nodes on finite chains (they count the torsion)
      peak_map         counted minimal node -> highest node of its chain
      peak_nodes       images of peak_map
      witness          minimal subgraph -> a vertex realizing min_val
      orientation      subgraph -> sign map, induced from the chain tops
    """

    def __init__(self, graph: WeightedGraph, prime: int):
        self.graph = graph
        self.prime = prime
        self.top_level = 1
        self.nodes: tuple[ForestNode, ...] = ()
        self.subgraphs: tuple[Subgraph, ...] = ()
        self.extras: tuple[Subgraph, ...] = ()
        self.sup_level: dict[Subgraph, Optional[int]] = {}
        self.min_val: dict[Subgraph, int] = {}
        self.lower_level: dict[Subgraph, int] = {}
        self.phi: dict[Subgraph, tuple[Subgraph, ...]] = {}
        self.descent: dict[ForestNode, ForestNode] = {}
        self.to_minimal: dict[ForestNode, ForestNode] = {}
        self.minimal_nodes: tuple[ForestNode, ...] = ()
        self.counted_minimal: tuple[ForestNode, ...] = ()
        self.counted_nodes: tuple[ForestNode, ...] = ()
        self.peak_map: dict[ForestNode, ForestNode] = {}
        self.peak_nodes: tuple[ForestNode, ...] = ()
        self.witness: dict[Subgraph, str] = {}
        self.orientation: dict[Subgraph, Bipartition] = {}
        self.bipartite_components: tuple[Subgraph, ...] = ()
        self._node_at: dict[tuple[Subgraph, int], ForestNode] = {}

    def node_at(self, graph: Subgraph, level: int) -> ForestNode:
        return self._node_at[(graph, level)]

    def node_count(self) -> int:
        return len(self.nodes)


def _membership(comp: Subgraph, p: int, level: int) -> bool:
    """Is a reduction component a forest node at this level?

    It is when its minimal valuation m is below the level and it is
    oriented over Z/p**(level - m).  Every weight is divisible by p**m, so
    d0(comp) = p**m * d0(comp / p**m) and the critical dimension of comp
    at s is that of comp / p**m at s - m.  The divided scheme is reduced
    at level - 2m, where the combinatorial criterion decides it: bipartite,
    or, at p = 2, the reduction of comp at level - 1 is bipartite (the
    divided weights have odd gcd).  No Smith normal form is needed.
    """
    if comp.min_valuation(p) >= level:
        return False
    if bipartition(comp) is not None:
        return True
    return p == 2 and two_adic_bipartition(comp, level) is not None


def build_forest(g: WeightedGraph, p: int) -> FundamentalForest:
    require_prime(p)
    forest = FundamentalForest(g, p)
    full = full_subgraph(g)

    top = 1
    if g.edges:
        top = max(g.edge_valuation(e, p) for e in g.edges) + 1
    graph_components = components(full)
    for comp in graph_components:
        if not comp.edge_set:
            top = max(top, comp.min_valuation(p) + 1)
    forest.top_level = top

    # nodes per level, with subgraphs deduplicated across levels
    canon: dict[tuple, Subgraph] = {}
    levels: dict[Subgraph, list[int]] = {}
    for r in range(1, top + 1):
        for comp in components(reduce_graph(g, p, r)):
            if not _membership(comp, p, r):
                continue
            delta = canon.setdefault(comp.key(), comp)
            levels.setdefault(delta, []).append(r)

    bip_comps = tuple(c for c in graph_components if bipartition(c) is not None)
    forest.bipartite_components = tuple(
        canon.get(c.key(), c) for c in bip_comps)
    for delta, rs in levels.items():
        lo, hi = min(rs), max(rs)
        if rs != list(range(lo, hi + 1)):
            raise AssertionError(f"levels of {delta} not contiguous: {rs}")
        forest.min_val[delta] = delta.min_valuation(p)
        if any(delta == c for c in forest.bipartite_components):
            forest.sup_level[delta] = None  # infinite tail
        else:
            forest.sup_level[delta] = hi

    nodes = []
    for delta, rs in levels.items():
        for r in rs:
            node = ForestNode(delta, r, forest.min_val[delta],
                              forest.sup_level[delta])
            nodes.append(node)
            forest._node_at[(delta, r)] = node
    nodes.sort(key=ForestNode.sort_key)
    forest.nodes = tuple(nodes)
    forest.subgraphs = tuple(sorted(
        levels, key=lambda d: (d.vertices, d.edges)))

    # descent: one level down through the smallest minimal-weight vertex
    for node in forest.nodes:
        if node.level == node.min_val + 1:
            continue
        anchor = min(
            v for v in node.graph.vertex_set
            if p_valuation(node.graph.parent.weight[v], p) == node.min_val)
        below = reduction(node.graph, p, node.level - 1)
        target_graph = next(c for c in components(below)
                            if anchor in c.vertex_set)
        target_graph = canon[target_graph.key()]
        forest.descent[node] = forest.node_at(target_graph, node.level - 1)

    for node in forest.nodes:
        cur = node
        while cur in forest.descent:
            cur = forest.descent[cur]
        forest.to_minimal[node] = cur

    forest.minimal_nodes = tuple(
        n for n in forest.nodes if n.level == n.min_val + 1)

    excluded = set()
    for comp in forest.bipartite_components:
        bottom = min(r for (d, r) in forest._node_at if d == comp)
        excluded.add(forest.to_minimal[forest.node_at(comp, bottom)])
    forest.counted_minimal = tuple(
        n for n in forest.minimal_nodes if n not in excluded)
    counted_min = set(forest.counted_minimal)
    forest.counted_nodes = tuple(
        n for n in forest.nodes if forest.to_minimal[n] in counted_min)

    for a in forest.counted_minimal:
        chain = [n for n in forest.nodes if forest.to_minimal[n] == a]
        forest.peak_map[a] = max(chain, key=lambda n: n.level)
    forest.peak_nodes = tuple(sorted(forest.peak_map.values(),
                                     key=ForestNode.sort_key))

    for node in forest.minimal_nodes:
        delta = node.graph
        forest.witness[delta] = min(
            v for v in delta.vertex_set
            if p_valuation(delta.parent.weight[v], p) == node.min_val)

    _build_phi(forest)
    _assign_orientations(forest)
    return forest


def _build_phi(forest: FundamentalForest) -> None:
    """Level-down cover of each non-minimal subgraph, extras included.

    The cover of D is the set of components of the reduction of D at its
    largest internal edge valuation.  Components that fail the minimal
    valuation condition are single vertices whose weight valuation equals
    their boundary valuation; they are recorded as extras so the cover
    always spans V(D).
    """
    p = forest.prime
    minimal_graphs = {n.graph for n in forest.minimal_nodes}
    extras: dict[Subgraph, Subgraph] = {}
    for delta in forest.subgraphs:
        if delta in minimal_graphs:
            continue
        lower = delta.max_edge_valuation(p)
        if lower is None or lower < 1:
            raise AssertionError(
                f"non-minimal subgraph with no positive-valuation edge: {delta}")
        forest.lower_level[delta] = lower
        children = []
        for comp in components(reduction(delta, p, lower)):
            if (comp, lower) in forest._node_at:
                children.append(comp)
                continue
            # must be a single-vertex cover graph with valuation == level
            if len(comp.vertex_set) != 1:
                raise AssertionError(
                    f"uncovered multi-vertex child {comp} of {delta}")
            v = comp.min_vertex()
            mv = p_valuation(delta.parent.weight[v], p)
            bv = boundary_valuation(comp, p)
            if mv != bv:
                raise AssertionError(
                    f"cover vertex {v} has valuation {mv} but boundary {bv}")
            comp = extras.setdefault(comp, comp)
            forest.min_val.setdefault(comp, mv)
            forest.sup_level.setdefault(comp, mv)  # degenerate: r == m
            children.append(comp)
        forest.phi[delta] = tuple(
            sorted(children, key=lambda c: (c.vertices, c.edges)))
    forest.extras = tuple(sorted(extras, key=lambda c: (c.vertices, c.edges)))


def _maximal_graphs(forest: FundamentalForest) -> list[Subgraph]:
    """Subgraphs whose top node has no node above it in the forest order."""
    p = forest.prime
    out = []
    for delta in forest.subgraphs:
        sup = forest.sup_level[delta]
        if sup is None:
            out.append(delta)  # infinite tail: the component itself
            continue
        if sup + 1 > forest.top_level:
            out.append(delta)
            continue
        above = next(c for c in components(reduce_graph(forest.graph, p, sup + 1))
                     if delta.vertex_set <= c.vertex_set)
        if (above, sup + 1) not in forest._node_at:
            out.append(delta)
    return out


def _assign_orientations(forest: FundamentalForest) -> None:
    """Choose sign maps consistently: orient each forest-maximal subgraph,
    then restrict downwards through the covers.

    A bipartite top takes its own normalized bipartitioning; at p = 2 a
    non-bipartite top takes the bipartitioning of its next reduction.
    """
    p = forest.prime
    queue = []
    for top_graph in _maximal_graphs(forest):
        if top_graph in forest.orientation:
            continue
        alpha = bipartition(top_graph)
        if alpha is None:
            if p != 2:
                raise AssertionError("non-bipartite top at an odd prime")
            sup = forest.sup_level[top_graph]
            assert sup is not None
            alpha = two_adic_bipartition(top_graph, sup)
            if alpha is None:
                raise AssertionError("unorientable top subgraph")
            alpha = alpha.restricted(top_graph.vertex_set)
        forest.orientation[top_graph] = alpha
        queue.append(top_graph)
    while queue:
        delta = queue.pop()
        alpha = forest.orientation[delta]
        for child in forest.phi.get(delta, ()):
            if child not in forest.orientation:
                forest.orientation[child] = alpha.restricted(child.vertex_set)
                queue.append(child)
    missing = [d for d in list(forest.subgraphs) + list(forest.extras)
               if d not in forest.orientation]
    if missing:
        raise AssertionError(f"subgraphs without an orientation: {missing}")


def torsion_structure(forest: FundamentalForest) -> list[int]:
    """Exponents e_i with the p-torsion of H^1 isomorphic to +Z/p**e_i.

    One exponent per counted chain: its peak level minus its minimum
    valuation.  Sorted ascending.
    """
    return sorted(peak.level - a.min_val
                  for a, peak in forest.peak_map.items())


def forest_to_dot(forest: FundamentalForest) -> str:
    """Graphviz rendering: one node per pair, red descent edges, and one
    annotated node per infinite tail."""
    lines = ["digraph forest {", '  rankdir=BT;']
    names: dict[ForestNode, str] = {}
    for i, node in enumerate(forest.nodes):
        names[node] = f"n{i}"
        lines.append(f'  n{i} [label="{node.label()}"];')
    tails = []
    for comp in forest.bipartite_components:
        vs = ",".join(comp.vertices)
        tails.append(comp)
        lines.append(
            f'  tail{len(tails)} [label="({{{vs}}},r>{forest.top_level})'
            f' ad infinitum", shape=box];')
        top_node = forest.node_at(comp, forest.top_level)
        lines.append(f'  {names[top_node]} -> tail{len(tails)} [style=dotted];')
    for node, target in forest.descent.items():
        lines.append(
            f'  {names[node]} -> {names[target]} [color=red, label="s"];')
    lines.append("}")
    return "\n".join(lines)
