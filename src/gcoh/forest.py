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

Everything is read off one `graphs.filtration` sweep: the reduction
components at every level with their level intervals, bipartiteness,
minimal valuations and the sweep's 2-colourings.  Descent and covers
look up a vertex's class one level down; a subgraph is maximal when the
class above its top level is not a node; a class's boundary valuation is
its last level.  Every sign map is `Filtration.signs`: a bipartite top
takes its own colouring, and at p = 2 a non-bipartite top takes the
colourings of the classes one level down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import (
    Bipartition,
    Filtration,
    Subgraph,
    WeightedGraph,
    filtration,
    full_subgraph,
    require_prime,
)


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
      maximal          subgraphs whose top node has no node above it
      filtration       the sweep behind all of the above: min_val, span, top
    """

    def __init__(self, graph: WeightedGraph, prime: int, filt: Filtration):
        self.graph = graph
        self.prime = prime
        self.filtration = filt
        self.nodes: tuple[ForestNode, ...] = ()
        self.subgraphs: tuple[Subgraph, ...] = ()
        self.extras: tuple[Subgraph, ...] = ()
        self.sup_level: dict[Subgraph, Optional[int]] = {}
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
        self.maximal: tuple[Subgraph, ...] = ()
        self._node_at: dict[tuple[Subgraph, int], ForestNode] = {}

    def node_at(self, graph: Subgraph, level: int) -> ForestNode:
        return self._node_at[(graph, level)]


def _membership(filt: Filtration, comp: Subgraph, p: int, level: int) -> bool:
    """Is a reduction component a forest node at this level?

    It is when its minimal valuation m is below the level and it is
    oriented over Z/p**(level - m).  Every weight is divisible by p**m, so
    d0(comp) = p**m * d0(comp / p**m) and the critical dimension of comp
    at s is that of comp / p**m at s - m.  The divided scheme is reduced
    at level - 2m, where the combinatorial criterion decides it: bipartite,
    or, at p = 2, the reduction of comp at level - 1 is bipartite (the
    divided weights have odd gcd): `filt.signs` signs it.  No SNF needed.
    """
    if filt.min_val[comp] >= level:
        return False
    if filt.bipartite[comp]:
        return True
    return p == 2 and filt.signs(comp, level - 1) is not None


def build_forest(g: WeightedGraph, p: int) -> FundamentalForest:
    require_prime(p)
    filt = filtration(full_subgraph(g), p)
    forest = FundamentalForest(g, p, filt)
    top = filt.top

    levels: dict[Subgraph, list[int]] = {}
    for r in range(1, top + 1):
        for comp in filt.at(r):
            if _membership(filt, comp, p, r):
                levels.setdefault(comp, []).append(r)

    forest.bipartite_components = tuple(
        c for c in filt.at(top) if filt.bipartite[c])
    tails = set(forest.bipartite_components)
    nodes = []
    for delta, rs in levels.items():
        if rs != list(range(rs[0], rs[-1] + 1)):
            raise AssertionError(f"levels of {delta} not contiguous: {rs}")
        sup = forest.sup_level[delta] = None if delta in tails else rs[-1]
        for r in rs:
            nodes.append(ForestNode(delta, r, filt.min_val[delta], sup))
            forest._node_at[(delta, r)] = nodes[-1]
    forest.nodes = tuple(sorted(nodes, key=ForestNode.sort_key))
    forest.subgraphs = tuple(sorted(
        levels, key=lambda d: (d.vertices, d.edges)))

    # descent: one level down through the smallest minimal-weight vertex;
    # nodes come in level order, so the node below is already mapped
    for node in forest.nodes:
        if node.level == node.min_val + 1:
            forest.to_minimal[node] = node
            forest.witness[node.graph] = _anchor(filt, node)
            continue
        below = filt.class_of(_anchor(filt, node), node.level - 1)
        forest.descent[node] = forest.node_at(below, node.level - 1)
        forest.to_minimal[node] = forest.to_minimal[forest.descent[node]]

    forest.minimal_nodes = tuple(
        n for n in forest.nodes if n.level == n.min_val + 1)

    excluded = {forest.to_minimal[forest.node_at(c, levels[c][0])]
                for c in forest.bipartite_components}
    forest.counted_minimal = tuple(
        n for n in forest.minimal_nodes if n not in excluded)
    counted_min = set(forest.counted_minimal)
    forest.counted_nodes = tuple(
        n for n in forest.nodes if forest.to_minimal[n] in counted_min)

    chains: dict[ForestNode, list[ForestNode]] = {}
    for n in forest.nodes:
        chains.setdefault(forest.to_minimal[n], []).append(n)
    for a in forest.counted_minimal:
        forest.peak_map[a] = max(chains[a], key=lambda n: n.level)
    forest.peak_nodes = tuple(sorted(forest.peak_map.values(),
                                     key=ForestNode.sort_key))

    maximal = []
    for delta in forest.subgraphs:
        sup = forest.sup_level[delta]
        if (sup is None or sup >= top
                or (filt.class_of(delta.min_vertex(), sup + 1), sup + 1)
                not in forest._node_at):
            maximal.append(delta)
    forest.maximal = tuple(maximal)

    _build_phi(forest)
    _assign_orientations(forest)
    return forest


def _anchor(filt: Filtration, node: ForestNode) -> str:
    """The smallest vertex of the node's subgraph realizing its min_val."""
    return min(v for v in node.graph.vertex_set
               if filt.valuation[v] == node.min_val)


def _build_phi(forest: FundamentalForest) -> None:
    """Level-down cover of each non-minimal subgraph, extras included.

    The cover of D is the set of components of the reduction of D at its
    largest internal edge valuation, one below the level where D first
    appears.  Components that fail the minimal valuation condition are
    single vertices whose weight valuation equals their boundary
    valuation; they are recorded as extras so the cover always spans V(D).
    """
    filt = forest.filtration
    minimal_graphs = {n.graph for n in forest.minimal_nodes}
    extras: set[Subgraph] = set()
    for delta in forest.subgraphs:
        if delta in minimal_graphs:
            continue
        lower = filt.span[delta][0] - 1
        if lower < 1:
            raise AssertionError(
                f"non-minimal subgraph with no positive-valuation edge: {delta}")
        children = []
        for comp in dict.fromkeys(filt.class_of(v, lower) for v in delta.vertices):
            if (comp, lower) in forest._node_at:
                children.append(comp)
                continue
            # must be a single-vertex cover graph with valuation == level
            if len(comp.vertex_set) != 1:
                raise AssertionError(
                    f"uncovered multi-vertex child {comp} of {delta}")
            v = comp.min_vertex()
            mv = filt.valuation[v]
            bv = filt.boundary_valuation(comp)
            if mv != bv:
                raise AssertionError(
                    f"cover vertex {v} has valuation {mv} but boundary {bv}")
            extras.add(comp)
            forest.sup_level.setdefault(comp, mv)  # degenerate: r == m
            children.append(comp)
        forest.phi[delta] = tuple(
            sorted(children, key=lambda c: (c.vertices, c.edges)))
    forest.extras = tuple(sorted(extras, key=lambda c: (c.vertices, c.edges)))


def _assign_orientations(forest: FundamentalForest) -> None:
    """Choose sign maps consistently: orient each forest-maximal subgraph,
    then restrict downwards through the covers.

    Every top is signed by `Filtration.signs`: a bipartite top by its
    own colouring from the sweep, and at p = 2 a non-bipartite top at
    level sup by the colourings of the level-(sup - 1) classes inside it.
    """
    filt = forest.filtration
    queue = []
    for top_graph in forest.maximal:
        if top_graph in forest.orientation:
            continue
        bipartite = filt.bipartite[top_graph]
        if not bipartite and forest.prime != 2:
            raise AssertionError("non-bipartite top at an odd prime")
        alpha = filt.signs(top_graph, filt.top if bipartite
                           else forest.sup_level[top_graph] - 1)
        if alpha is None:
            raise AssertionError("unorientable top subgraph")
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
            f'  tail{len(tails)} [label="({{{vs}}},r>{forest.filtration.top})'
            f' ad infinitum", shape=box];')
        top_node = forest.node_at(comp, forest.filtration.top)
        lines.append(f'  {names[top_node]} -> tail{len(tails)} [style=dotted];')
    for node, target in forest.descent.items():
        lines.append(
            f'  {names[node]} -> {names[target]} [color=red, label="s"];')
    lines.append("}")
    return "\n".join(lines)
