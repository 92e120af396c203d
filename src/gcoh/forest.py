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
components with their level intervals, minimal valuations and the
sweep's 2-colourings, which the bipartite ones alone have.  Node levels
are read per class, over its interval; descent and covers look up a
vertex's class one level down; a subgraph is maximal when the class
above its top level is not a node; a class's boundary valuation is its
last level.  Membership and the signs of every top are one rule,
`Filtration.reduced_signs`: a bipartite class takes its colouring, at
p = 2 a non-bipartite one the colourings one level down.  The tops are
disjoint, so their signs make one map, `signs`; every subgraph lies
under a top, and its orientation is the restriction of that map, which
makes the choice consistent.  The forest is one frozen value,
constructed once from these tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .graphs import (
    Filtration,
    Subgraph,
    WeightedGraph,
    filtration,
    full_subgraph,
    require_prime,
)


class ForestNode(NamedTuple):
    """One pair (class, level), a plain value: its minimal valuation is
    `forest.filtration.min_val[graph]`, its largest level
    `forest.sup_level[graph]` (None for the infinite tail)."""

    graph: Subgraph
    level: int

    def sort_key(self):
        return (self.level, *self.graph.sort_key())

    def label(self) -> str:
        return f"({{{','.join(self.graph.vertices)}}},{self.level})"


@dataclass(frozen=True, eq=False)
class FundamentalForest:
    """Forest structure at a prime, built once by `build_forest`; see the
    module docstring.  Equality is identity.  Attributes of note:
      nodes            all materialized nodes
      subgraphs        distinct node subgraphs
      extras           single-vertex cover graphs that fail the minimal
                       valuation condition (needed to span vertex sets in
                       the fundamental complex; they carry no nodes)
      sup_level        subgraph or extra -> largest level, None for a tail
      phi              non-minimal subgraph -> its level-down cover
      descent          one-level-down map, defined off the minimal nodes,
                       those at level min_val + 1
      counted_minimal  minimal nodes of finite chains
      counted_nodes    nodes on finite chains (they count the torsion)
      peak_map         counted minimal node -> highest node of its chain
      peak_nodes       images of peak_map
      witness          minimal subgraph -> a vertex realizing min_val
      signs            vertex under a top -> its top's sign; a subgraph's
                       orientation is the restriction to its vertices
      maximal          subgraphs whose top node has no node above it
      filtration       the sweep behind all of the above (prime, span...)
    """

    graph: WeightedGraph
    filtration: Filtration
    nodes: tuple[ForestNode, ...]
    subgraphs: tuple[Subgraph, ...]
    extras: tuple[Subgraph, ...]
    sup_level: dict[Subgraph, Optional[int]]
    phi: dict[Subgraph, tuple[Subgraph, ...]]
    descent: dict[ForestNode, ForestNode]
    counted_minimal: tuple[ForestNode, ...]
    counted_nodes: tuple[ForestNode, ...]
    peak_map: dict[ForestNode, ForestNode]
    peak_nodes: tuple[ForestNode, ...]
    witness: dict[Subgraph, str]
    signs: dict[str, int]
    bipartite_components: tuple[Subgraph, ...]
    maximal: tuple[Subgraph, ...]

    @property
    def prime(self) -> int:
        return self.filtration.prime


def build_forest(g: WeightedGraph, p: int) -> FundamentalForest:
    require_prime(p)
    filt = filtration(full_subgraph(g), p)
    top = filt.top

    # A class is a node at level r when its minimal valuation m is below
    # r and it is oriented over Z/p**(r - m), as comp / p**m is at r - m:
    # d0(comp) = p**m * d0(comp / p**m).  The divided scheme is reduced,
    # its weight gcd prime to p, so `reduced_signs` decides it, no SNF.
    levels: dict[Subgraph, range] = {}  # each class's node levels
    for comp, (first, last) in filt.span.items():
        rs = [r for r in range(first, last + 1)
              if filt.min_val[comp] < r
              and filt.reduced_signs(comp, r) is not None]
        if rs:
            if rs != list(range(rs[0], rs[-1] + 1)):
                raise AssertionError(f"levels of {comp} not contiguous: {rs}")
            levels[comp] = range(rs[0], rs[-1] + 1)

    bipartite_components = tuple(
        c for c in filt.at(top) if c in filt.colouring)
    tails = set(bipartite_components)
    sup_level: dict[Subgraph, Optional[int]] = {}
    anchor: dict[Subgraph, str] = {}  # smallest vertex of least valuation
    for delta, rs in levels.items():
        m = filt.min_val[delta]
        sup_level[delta] = None if delta in tails else rs[-1]
        anchor[delta] = min(v for v in delta.vertex_set
                            if filt.valuation[v] == m)
    nodes = tuple(sorted((ForestNode(delta, r)
                          for delta, rs in levels.items() for r in rs),
                         key=ForestNode.sort_key))
    subgraphs = tuple(sorted(levels, key=Subgraph.sort_key))

    # descent: one level down through the anchor; nodes come in level
    # order, so the node below is already mapped
    descent: dict[ForestNode, ForestNode] = {}
    to_minimal: dict[ForestNode, ForestNode] = {}
    witness: dict[Subgraph, str] = {}
    for node in nodes:
        if node.level == filt.min_val[node.graph] + 1:
            to_minimal[node] = node
            witness[node.graph] = anchor[node.graph]
            continue
        below = filt.class_of(anchor[node.graph], node.level - 1)
        if node.level - 1 not in levels.get(below, ()):
            raise AssertionError(f"descent from {node.label()} leaves the forest")
        descent[node] = ForestNode(below, node.level - 1)
        to_minimal[node] = to_minimal[descent[node]]

    excluded = {to_minimal[ForestNode(c, levels[c][0])]
                for c in bipartite_components}
    counted_minimal = tuple(n for n in nodes if n not in excluded
                            and n.level == filt.min_val[n.graph] + 1)
    counted_nodes = tuple(n for n in nodes if to_minimal[n] not in excluded)

    chains: dict[ForestNode, list[ForestNode]] = {}
    for n in nodes:
        chains.setdefault(to_minimal[n], []).append(n)
    peak_map = {a: max(chains[a], key=lambda n: n.level)
                for a in counted_minimal}
    peak_nodes = tuple(sorted(peak_map.values(), key=ForestNode.sort_key))

    # the tops are disjoint, so their signs make one map; a tail, which is
    # bipartite, is signed at the top level
    maximal = []
    signs: dict[str, int] = {}
    for delta in subgraphs:
        sup = sup_level[delta]
        if (sup is None or sup >= top
                or sup + 1 not in levels.get(
                    filt.class_of(delta.min_vertex(), sup + 1), ())):
            maximal.append(delta)
            alpha = filt.reduced_signs(delta, top if sup is None else sup)
            if alpha is None:
                raise AssertionError(f"unorientable top {delta}")
            if not signs.keys().isdisjoint(alpha):
                raise AssertionError(f"top {delta} overlaps another top")
            signs.update(alpha)

    phi, extras = _build_phi(filt, levels, subgraphs)
    for comp in extras:
        sup_level[comp] = filt.valuation[comp.min_vertex()]  # r == m
    # every subgraph and extra lies under a top and takes its signs
    unsigned = [d for d in sup_level if not d.vertex_set <= signs.keys()]
    if unsigned:
        raise AssertionError(f"subgraphs outside every top: {unsigned}")
    return FundamentalForest(
        g, filt, nodes, subgraphs, extras, sup_level, phi, descent,
        counted_minimal, counted_nodes, peak_map, peak_nodes, witness,
        signs, bipartite_components, tuple(maximal))


def _build_phi(filt: Filtration, levels: dict[Subgraph, range],
               subgraphs: tuple[Subgraph, ...]) -> tuple[dict, tuple]:
    """Level-down cover of each non-minimal subgraph, and the extras.

    The cover of D is the set of components of the reduction of D at its
    largest internal edge valuation, one below the level where D first
    appears.  Components that fail the minimal valuation condition are
    single vertices whose weight valuation equals their boundary
    valuation; they are returned as extras so the cover always spans V(D).
    """
    phi: dict[Subgraph, tuple[Subgraph, ...]] = {}
    extras: set[Subgraph] = set()
    for delta in subgraphs:
        if levels[delta][0] == filt.min_val[delta] + 1:
            continue  # a minimal subgraph has no cover
        lower = filt.span[delta][0] - 1
        if lower < 1:
            raise AssertionError(
                f"non-minimal subgraph with no positive-valuation edge: {delta}")
        children = []
        for comp in dict.fromkeys(filt.class_of(v, lower) for v in delta.vertices):
            if lower in levels.get(comp, ()):
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
            children.append(comp)
        phi[delta] = tuple(sorted(children, key=Subgraph.sort_key))
    return phi, tuple(sorted(extras, key=Subgraph.sort_key))


def torsion_structure(forest: FundamentalForest) -> list[int]:
    """Exponents e_i with the p-torsion of H^1 isomorphic to +Z/p**e_i.

    One exponent per counted chain: its peak level minus its minimum
    valuation.  Sorted ascending.
    """
    return sorted(peak.level - forest.filtration.min_val[a.graph]
                  for a, peak in forest.peak_map.items())


def _dot_string(text: str) -> str:
    """text as a DOT quoted string, with backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def forest_to_dot(forest: FundamentalForest) -> str:
    """Graphviz rendering: one node per pair, red descent edges, and one
    annotated node per infinite tail; labels are escaped DOT strings."""
    lines = ["digraph forest {", '  rankdir=BT;']
    names: dict[ForestNode, str] = {}
    for i, node in enumerate(forest.nodes):
        names[node] = f"n{i}"
        lines.append(f'  n{i} [label={_dot_string(node.label())}];')
    tails = []
    for comp in forest.bipartite_components:
        vs = ",".join(comp.vertices)
        tails.append(comp)
        label = _dot_string(f"({{{vs}}},r>{forest.filtration.top}) ad infinitum")
        lines.append(f'  tail{len(tails)} [label={label}, shape=box];')
        top_node = names[ForestNode(comp, forest.filtration.top)]
        lines.append(f'  {top_node} -> tail{len(tails)} [style=dotted];')
    for node, target in forest.descent.items():
        lines.append(
            f'  {names[node]} -> {names[target]} [color=red, label="s"];')
    lines.append("}")
    return "\n".join(lines)
