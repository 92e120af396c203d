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
sweep's 2-colourings, which the bipartite ones alone have.  A class's
node levels are one range, computed from its interval.  One loop reads
the cover of each class that is not minimal, the classes of its vertices
one level below its first node, each a node or a one-vertex extra.
Descent leaves a class once, at its first node level, to the cover
holding a vertex of least valuation; a subgraph is maximal when no cover
holds it.  Membership and the signs of every top are one rule,
`Filtration.reduced_signs`: a bipartite class takes its colouring, at
p = 2 a non-bipartite one the colourings one level down.  The tops are
disjoint, so their signs make one map, `signs`; every subgraph lies
under a top, and its orientation is the restriction of that map, which
makes the choice consistent.  The forest is one frozen value that stores
one entry per class; the (class, level) node views are built when read.
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

    def label(self) -> str:
        return f"({{{','.join(self.graph.vertices)}}},{self.level})"


@dataclass(frozen=True, eq=False)
class FundamentalForest:
    """Forest structure at a prime, built once by `build_forest`; see the
    module docstring.  Equality is identity.  It stores no node: `nodes`,
    `counted_nodes` (level, then subgraph order) and the descent `down`
    are built when read from what it stores per class.  Attributes:
      subgraphs        distinct node subgraphs, in `Subgraph.sort_key` order
      levels           node subgraph -> the range of its node levels
      extras           single-vertex cover graphs that fail the minimal
                       valuation condition (needed to span vertex sets in
                       the fundamental complex; they carry no nodes)
      sup_level        subgraph or extra -> largest level, None for a tail
      phi              non-minimal subgraph -> its level-down cover (nodes
                       and extras), keys in `subgraphs` order
      below            non-minimal subgraph -> its cover holding the anchor,
                       the smallest vertex of least valuation
      counted          subgraphs on finite chains (they count the torsion)
      peak_map         minimal node of a finite chain -> its highest node
      signs            vertex under a top -> its top's sign; a subgraph's
                       orientation is the restriction to its vertices
      maximal          subgraphs that no cover holds
      filtration       the sweep behind all of the above (prime, span...)
    """

    graph: WeightedGraph
    filtration: Filtration
    subgraphs: tuple[Subgraph, ...]
    levels: dict[Subgraph, range]
    extras: tuple[Subgraph, ...]
    sup_level: dict[Subgraph, Optional[int]]
    phi: dict[Subgraph, tuple[Subgraph, ...]]
    below: dict[Subgraph, Subgraph]
    counted: frozenset[Subgraph]
    peak_map: dict[ForestNode, ForestNode]
    signs: dict[str, int]
    bipartite_components: tuple[Subgraph, ...]
    maximal: tuple[Subgraph, ...]

    @property
    def prime(self) -> int:
        return self.filtration.prime

    @property
    def nodes(self) -> tuple[ForestNode, ...]:
        return tuple(sorted((ForestNode(c, r) for c in self.subgraphs
                             for r in self.levels[c]), key=lambda n: n.level))

    @property
    def counted_nodes(self) -> tuple[ForestNode, ...]:
        return tuple(n for n in self.nodes if n.graph in self.counted)

    def down(self, node: ForestNode) -> Optional[ForestNode]:
        """The node one level below `node`, None for a minimal node."""
        c, r = node
        if r > self.levels[c][0]:
            return ForestNode(c, r - 1)
        return ForestNode(self.below[c], r - 1) if c in self.below else None


def build_forest(g: WeightedGraph, p: int) -> FundamentalForest:
    require_prime(p)
    filt = filtration(full_subgraph(g), p)
    top = filt.top

    # A class is a node at level r when its minimal valuation m is below
    # r and it is oriented over Z/p**(r - m), as comp / p**m is at r - m:
    # d0(comp) = p**m * d0(comp / p**m).  The divided scheme is reduced,
    # its weight gcd prime to p, so `reduced_signs` decides it, no SNF: a
    # bipartite class keeps its colouring to its last level, a p = 2 one
    # is signed at its first level alone, by the classes inside it.
    levels: dict[Subgraph, range] = {}
    for comp, (first, last) in filt.span.items():
        lo = max(first, filt.min_val[comp] + 1)
        if lo <= last and filt.reduced_signs(comp, lo) is not None:
            levels[comp] = range(lo, (last if comp in filt.colouring else lo) + 1)
    subgraphs = tuple(sorted(levels, key=Subgraph.sort_key))

    bipartite_components = tuple(
        c for c in filt.at(top) if c in filt.colouring)
    sup_level: dict[Subgraph, Optional[int]] = {  # a tail: bipartite to the top
        c: None if rs[-1] == top and c in filt.colouring else rs[-1]
        for c, rs in levels.items()}

    # One pass over the classes in order of first node level; a minimal
    # class, first node at min_val + 1, is its chain's root.  Any other
    # class first appears at its first node level, so its level-down cover
    # is the classes of its vertices at `lower`, one level down: each is a
    # node there, so not maximal, or a single vertex of valuation `lower`,
    # an extra.  Descent steps to the cover holding the anchor, the
    # smallest vertex of least valuation m < lower, so a node, whose class
    # comes earlier and has its root.
    phi: dict[Subgraph, tuple[Subgraph, ...]] = {}
    below: dict[Subgraph, Subgraph] = {}
    root: dict[Subgraph, Subgraph] = {}  # the class of the chain's minimal node
    covered: set[Subgraph] = set()
    extras: set[Subgraph] = set()
    order = sorted(subgraphs, key=lambda c: levels[c][0])
    for delta in order:
        m, lower = filt.min_val[delta], levels[delta][0] - 1
        if lower == m:
            root[delta] = delta
            continue
        phi[delta] = cover = tuple(sorted(
            {filt.class_of(v, lower) for v in delta.vertex_set},
            key=Subgraph.sort_key))
        for comp in cover:
            if lower in levels.get(comp, ()):
                covered.add(comp)
            elif (len(comp.vertex_set) == 1
                  and filt.valuation[comp.min_vertex()] == lower):
                extras.add(comp)
                sup_level[comp] = lower  # r == m
            else:
                raise AssertionError(
                    f"cover {comp} of {delta} at level {lower} is neither "
                    f"a node nor a one-vertex extra")
        anchor = min(v for v in delta.vertex_set if filt.valuation[v] == m)
        below[delta] = filt.class_of(anchor, lower)
        root[delta] = root[below[delta]]
    phi = {d: phi[d] for d in subgraphs if d in phi}  # the complex's columns

    # descent is injective, one class per level of a chain, so a chain's
    # peak is the last level of its last class
    excluded = {root[c] for c in bipartite_components}
    counted = frozenset(c for c in subgraphs if root[c] not in excluded)
    peak_map = {ForestNode(root[c], levels[root[c]][0]):
                ForestNode(c, levels[c][-1]) for c in order if c in counted}

    # the tops are disjoint, so their signs make one map; a tail, which is
    # bipartite, is signed at the top level
    maximal = tuple(d for d in subgraphs if d not in covered)
    signs: dict[str, int] = {}
    for delta in maximal:
        sup = sup_level[delta]
        alpha = filt.reduced_signs(delta, top if sup is None else sup)
        if alpha is None:
            raise AssertionError(f"unorientable top {delta}")
        if not signs.keys().isdisjoint(alpha):
            raise AssertionError(f"top {delta} overlaps another top")
        signs.update(alpha)

    # every subgraph and extra lies under a top and takes its signs
    unsigned = [d for d in sup_level if not d.vertex_set <= signs.keys()]
    if unsigned:
        raise AssertionError(f"subgraphs outside every top: {unsigned}")
    return FundamentalForest(
        g, filt, subgraphs, levels, tuple(sorted(extras, key=Subgraph.sort_key)),
        sup_level, phi, below, counted, peak_map, signs, bipartite_components,
        maximal)


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
    for node, name in names.items():
        target = forest.down(node)
        if target is not None:
            lines.append(f'  {name} -> {names[target]} [color=red, label="s"];')
    lines.append("}")
    return "\n".join(lines)
