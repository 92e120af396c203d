"""Vertex-weighted graphs, subgraphs and the basic arithmetic on them.

A weighted graph is a simple graph (no loops, no multi-edges) together with
a positive integer weight on every vertex.  Everything downstream (cochain
complexes, reductions, the fundamental forest) works with subgraphs of one
fixed ambient graph, so `Subgraph` keeps a reference to its parent.

All objects are immutable after construction and safe to share.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Optional

Edge = tuple[str, str]


def edge_key(u: str, v: str) -> Edge:
    """Normalize an undirected edge to a sorted pair."""
    if u == v:
        raise ValueError(f"loop edge at vertex {u!r}")
    return (u, v) if u < v else (v, u)


# Miller-Rabin to the first 13 prime bases is exact below this bound
# (Sorenson and Webster, 2015); larger numbers are refused.
PRIME_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=256)
def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; a ValueError from PRIME_BOUND on."""
    if p >= PRIME_BOUND:
        raise ValueError(f"cannot decide whether {p} is prime: primality "
                         f"is exact only below {PRIME_BOUND}")
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x == 1:
            continue
        for _ in range(r):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def p_valuation(n: int, p: int) -> int:
    """Largest a with p**a dividing n, for n >= 1."""
    if n < 1:
        raise ValueError(f"p_valuation requires n >= 1, got {n}")
    require_prime(p)
    # divide by p, p**2, p**4, ... while exact, then step back down the
    # same powers greedily: about 2 log2(a) divisions in place of a
    a, powers = 0, [p]
    while n % powers[-1] == 0:
        n //= powers[-1]
        a += 1 << (len(powers) - 1)
        powers.append(powers[-1] ** 2)
    for i in range(len(powers) - 2, -1, -1):
        if n % powers[i] == 0:
            n //= powers[i]
            a += 1 << i
    return a


class WeightedGraph:
    """Simple graph with a positive integer weight per vertex.

    Vertex identifiers are strings; the canonical order is lexicographic.
    Weights are arbitrary-precision.
    """

    __slots__ = ("vertices", "weight", "edges", "edge_set")

    def __init__(self, weights: Mapping[str, int], edges: Iterable[tuple[str, str]]):
        self.weight = {str(v): k for v, k in weights.items()}
        for v, k in self.weight.items():
            if type(k) is not int:  # no bool, no float, no string
                raise ValueError(f"weight of {v!r} must be an integer, "
                                 f"got {k!r}")
            if k < 1:
                raise ValueError(f"weight of {v!r} must be >= 1, got {k}")
        self.vertices: tuple[str, ...] = tuple(sorted(self.weight))
        seen: set[Edge] = set()
        for u, v in edges:
            e = edge_key(str(u), str(v))
            if e[0] not in self.weight or e[1] not in self.weight:
                raise ValueError(f"edge {e} has an undeclared endpoint")
            if e in seen:
                raise ValueError(f"multiple edge {e}")
            seen.add(e)
        self.edge_set: frozenset[Edge] = frozenset(seen)
        self.edges: tuple[Edge, ...] = tuple(sorted(seen))

    def edge_valuation(self, e: Edge, p: int) -> int:
        u, v = e
        return p_valuation(self.weight[u] * self.weight[v], p)

    def __repr__(self) -> str:
        ws = ",".join(f"{v}:{self.weight[v]}" for v in self.vertices)
        es = ",".join(f"{u}{v}" for u, v in self.edges)
        return f"WeightedGraph({ws};{es})"


@dataclass(frozen=True)
class Subgraph:
    """A subgraph of a fixed parent graph.

    Every edge of `edge_set` must have both endpoints in `vertex_set`.
    Weights are induced from the parent.
    """

    parent: WeightedGraph = field(compare=False)
    vertex_set: frozenset[str] = frozenset()
    edge_set: frozenset[Edge] = frozenset()

    def __post_init__(self):
        for v in self.vertex_set:
            if v not in self.parent.weight:
                raise ValueError(f"vertex {v!r} not in parent graph")
        for e in self.edge_set:
            if e not in self.parent.edge_set:
                raise ValueError(f"edge {e} not in parent graph")
            if e[0] not in self.vertex_set or e[1] not in self.vertex_set:
                raise ValueError(f"edge {e} has an endpoint outside the subgraph")

    def __hash__(self) -> int:
        # fcomplex keys every table by subgraphs: hash the pair once
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.vertex_set, self.edge_set)))
            return self._hash

    def __getstate__(self) -> dict:
        # a hash holds only in the process that computed it: not pickled
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.vertex_set))

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edge_set))

    def sort_key(self) -> tuple[tuple[str, ...], tuple[Edge, ...]]:
        """Canonical order; it fixes the fundamental complex's columns."""
        return (self.vertices, self.edges)

    def min_vertex(self) -> str:
        return min(self.vertex_set)

    def weight_gcd(self) -> int:
        from math import gcd
        g = 0
        for v in self.vertex_set:
            g = gcd(g, self.parent.weight[v])
        return g

    def as_graph(self) -> WeightedGraph:
        """The subgraph as a standalone graph with induced weights."""
        return WeightedGraph(
            {v: self.parent.weight[v] for v in self.vertex_set}, self.edge_set
        )

    def __repr__(self) -> str:
        return f"Subgraph({{{','.join(self.vertices)}}};{{{','.join(a + b for a, b in self.edges)}}})"


def full_subgraph(g: WeightedGraph) -> Subgraph:
    return Subgraph(g, frozenset(g.vertices), g.edge_set)


def subgraph_of(parent: WeightedGraph, vertices: Iterable[str],
                edges: Iterable[tuple[str, str]]) -> Subgraph:
    return Subgraph(parent, frozenset(vertices),
                    frozenset(edge_key(u, v) for u, v in edges))


def _adjacency(g: Subgraph) -> dict[str, list[str]]:
    adj: dict[str, list[str]] = {v: [] for v in g.vertex_set}
    for u, v in g.edge_set:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _search(g: Subgraph) -> list[tuple[frozenset[str], Optional[dict[str, int]]]]:
    """One breadth-first search over g: per component, in order of
    smallest vertex identifier, its vertex set and its colouring by
    signs, +1 and -1 opposite across every edge with the smallest vertex
    +1, or None when an edge joins two equal colours."""
    adj = _adjacency(g)
    sign: dict[str, int] = {}
    found = []
    for start in sorted(g.vertex_set):
        if start in sign:
            continue
        sign[start], block, bipartite = 1, [start], True
        for v in block:  # the block grows while it is read
            for w in adj[v]:
                if w not in sign:
                    sign[w] = -sign[v]
                    block.append(w)
                elif sign[w] == sign[v]:
                    bipartite = False
        found.append((frozenset(block),
                      {v: sign[v] for v in block} if bipartite else None))
    return found


def components(g: Subgraph) -> list[Subgraph]:
    """Maximal connected subgraphs, sorted by smallest vertex identifier."""
    return [Subgraph(g.parent, block,
                     frozenset(e for e in g.edge_set if e[0] in block))
            for block, _ in _search(g)]


def is_connected(g: Subgraph) -> bool:
    return len(_search(g)) <= 1


def bipartition(g: Subgraph) -> Optional[dict[str, int]]:
    """Two-colour `g` as signs, +1 and -1 opposite across every edge, if
    possible, else None.

    Per component the colouring is unique up to sign; it is normalized so
    the smallest vertex identifier of each component gets +1.
    """
    sign: dict[str, int] = {}
    for _, colouring in _search(g):
        if colouring is None:
            return None
        sign.update(colouring)
    return sign


def reduction(g: Subgraph, p: int, s: int) -> Subgraph:
    """Delete every edge whose weight product has p-adic valuation >= s.

    Keeps all vertices.  The result has no edge with valuation >= s.
    """
    require_prime(p)
    if s < 1:
        raise ValueError(f"reduction level must be >= 1, got {s}")
    kept = frozenset(e for e in g.edge_set if g.parent.edge_valuation(e, p) < s)
    return Subgraph(g.parent, g.vertex_set, kept)


class Filtration(NamedTuple):
    """The components ("classes") of `reduction(g, p, r)` for r in 1..top,
    at the prime p the sweep ran at (`prime`).

    Classes change only at the sorted `breaks`, level 1 and v + 1 for
    each edge valuation v; `owner[i]` maps each vertex to its class from
    `breaks[i]` on, and `class_of` and `at` bisect.  A class is one
    object at all its levels.  Per class: `span` (first and last level,
    so readers visit a class once over its levels), `min_val` (smallest
    vertex valuation) and, exactly for a bipartite class, `colouring`:
    the sweep's 2-colouring as a dict of signs, the smallest vertex +1.
    `tree` holds the edges that merged two classes, the unique minimum
    spanning forest under the strict order (valuation, edge).
    `reduced_signs` is the sign rule the forest and orientation share.
    """

    prime: int
    top: int
    valuation: dict[str, int]
    breaks: tuple[int, ...]
    owner: tuple[dict[str, Subgraph], ...]
    span: dict[Subgraph, tuple[int, int]]
    min_val: dict[Subgraph, int]
    colouring: dict[Subgraph, dict[str, int]]
    tree: frozenset[Edge]

    def at(self, r: int) -> tuple[Subgraph, ...]:
        """The level-r classes in the order `components` gives them."""
        return tuple(sorted(set(self._owner(r).values()),
                            key=Subgraph.min_vertex))

    def class_of(self, v: str, r: int) -> Subgraph:
        return self._owner(r)[v]

    def _owner(self, r: int) -> dict[str, Subgraph]:
        if r < 1:
            raise ValueError(f"filtration levels start at 1, got {r}")
        return self.owner[bisect_right(self.breaks, r) - 1]

    def signs(self, c: Subgraph, r: int) -> Optional[dict[str, int]]:
        """`bipartition(reduction(c, p, r))` for a class c, r >= 0, read
        off the colourings.

        No edge is left at r = 0, so every vertex gets +1.  Below c's
        first level the reduction is the union of the level-r classes
        inside c, each signed by its own colouring; from that level on it
        is c.
        """
        if r >= self.span[c][0]:
            return self.colouring.get(c)
        if r == 0:
            return dict.fromkeys(c.vertex_set, 1)
        sign: dict[str, int] = {}
        for cls in dict.fromkeys(self.class_of(v, r) for v in c.vertex_set):
            if cls not in self.colouring:
                return None
            sign.update(self.colouring[cls])
        return sign

    def reduced_signs(self, c: Subgraph, s: int) -> Optional[dict[str, int]]:
        """Signs for a class c at a level s from its first on, where c is
        reduced: c's colouring when c is bipartite, at p = 2 the signs of
        its reduction one level down, else None.  At p = 2 these orient c
        when its weight gcd is odd, which the caller checks or divides out.
        """
        if c in self.colouring:
            return self.colouring[c]
        return self.signs(c, s - 1) if self.prime == 2 else None

    def boundary_valuation(self, d: Subgraph) -> Optional[int]:
        """The smallest valuation over the edge boundary of a class d,
        None for an empty boundary, when the filtered graph is a whole
        graph; `boundary_valuation` in tests/references.py is the direct
        reference.

        Every edge of valuation below d's last level that touches d is in
        d, and d changes one level up, through an edge of valuation equal
        to its last level: that level is the smallest boundary valuation,
        unless d lasts to `top` and is a whole component.
        """
        last = self.span[d][1]
        return None if last == self.top else last


def filtration(g: Subgraph, p: int) -> Filtration:
    """One union-find sweep over the edges of g in (valuation, edge) order.

    It stops at each breakpoint; the levels run to the largest edge
    valuation + 1, further if an isolated vertex of valuation a needs
    level a + 1.  Each vertex keeps its class root and its colour, +1 or
    -1; a merge relabels the smaller class and recolours it so that the
    merging edge joins opposite colours, and an edge between equal
    colours of one class makes the class non-bipartite.
    """
    require_prime(p)
    val = {v: p_valuation(g.parent.weight[v], p) for v in g.vertex_set}
    entering: dict[int, list[Edge]] = {}
    for a, e in sorted((val[u] + val[v], (u, v)) for u, v in g.edge_set):
        entering.setdefault(a, []).append(e)
    touched = {v for e in g.edge_set for v in e}
    top = max([max(entering, default=0) + 1]
              + [val[v] + 1 for v in g.vertex_set - touched])
    breaks = sorted({1} | {a + 1 for a in entering})

    root = {v: v for v in g.vertex_set}
    colour = dict.fromkeys(g.vertex_set, 1)
    members = {v: [v] for v in g.vertex_set}
    edges: dict[str, list[Edge]] = {v: [] for v in g.vertex_set}
    bip = dict.fromkeys(g.vertex_set, True)

    owner: dict[str, Subgraph] = {}
    owners, tree = [], []
    span: dict[Subgraph, tuple[int, int]] = {}
    min_val: dict[Subgraph, int] = {}
    colouring: dict[Subgraph, dict[str, int]] = {}
    changed = dict.fromkeys(sorted(g.vertex_set))  # roots whose class changes
    for r in breaks:
        for e in entering.get(r - 1, ()):
            u, w = e
            a, b = root[u], root[w]
            if a == b:
                bip[a] = bip[a] and colour[u] != colour[w]
            else:
                if len(members[a]) < len(members[b]):
                    a, b = b, a
                flip = -colour[u] * colour[w]
                for v in members[b]:
                    root[v] = a
                    colour[v] *= flip
                members[a] += members.pop(b)
                edges[a] += edges.pop(b)
                bip[a] = bip[a] and bip.pop(b)
                changed[b] = None
                tree.append(e)
            edges[a].append(e)
            changed[a] = None
        below, owner = owner, dict(owner)
        for a in changed:
            if a in below:  # a's class at the breakpoint below ends here
                span[below[a]] = (span[below[a]][0], r - 1)
            if a not in members:  # merged into another class
                continue
            sub = Subgraph(g.parent, frozenset(members[a]), frozenset(edges[a]))
            span[sub] = (r, top)
            min_val[sub] = min(val[v] for v in members[a])
            if bip[a]:
                plus = colour[min(members[a])]
                colouring[sub] = {v: colour[v] * plus for v in members[a]}
            owner.update(dict.fromkeys(members[a], sub))
        changed = {}
        owners.append(owner)
    return Filtration(p, top, val, tuple(breaks), tuple(owners), span,
                      min_val, colouring, frozenset(tree))


def edge_boundary(d: Subgraph) -> frozenset[Edge]:
    """Parent edges touching V(d) that are missing from E(d).

    Includes edges with both endpoints in V(d) that are not in E(d).
    """
    return frozenset(
        e for e in d.parent.edges
        if e not in d.edge_set and (e[0] in d.vertex_set or e[1] in d.vertex_set))


# --- graph file format -------------------------------------------------------
#
# {"vertices": [{"id": "R", "weight": "27"}, ...], "edges": [["R", "G"], ...]}
#
# Weights are strings of ASCII decimal digits so arbitrarily large
# integers survive JSON; JSON integers are accepted too.

def graph_to_json(g: WeightedGraph) -> dict:
    return {
        "vertices": [{"id": v, "weight": str(g.weight[v])} for v in g.vertices],
        "edges": [[u, v] for u, v in g.edges],
    }


def graph_from_json(doc: dict) -> WeightedGraph:
    """Parse a graph document: unique string ids, weights that are JSON
    integers or strings of ASCII decimal digits."""
    try:
        weights: dict[str, int] = {}
        for item in doc["vertices"]:
            v = item["id"]
            if not isinstance(v, str):
                raise ValueError(f"vertex id {v!r} is not a string")
            if v in weights:
                raise ValueError(f"duplicate vertex id {v!r}")
            w = item["weight"]
            if type(w) not in (int, str):  # no bool, no float
                raise ValueError(f"weight of vertex {v!r} is neither an "
                                 f"integer nor a string: {w!r}")
            if type(w) is str and not (w.isascii() and w.isdigit()):
                raise ValueError(f"weight of vertex {v!r} is not a string "
                                 f"of ASCII decimal digits: {w!r}")
            weights[v] = int(w)
        edges = []
        for e in doc["edges"]:
            if type(e) is not list or len(e) != 2:
                raise ValueError(f"edge {e!r} is not a list of two vertex ids")
            if not all(isinstance(v, str) for v in e):
                raise ValueError(f"edge endpoint in {e!r} is not a string")
            edges.append(tuple(e))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph document: {exc}") from exc
    return WeightedGraph(weights, edges)


def load_json(path: str):
    """The JSON document in a file; invalid JSON is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise ValueError(f"not valid JSON: {exc}") from exc


def load_graph(path: str) -> WeightedGraph:
    return graph_from_json(load_json(path))
