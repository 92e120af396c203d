"""Vertex-weighted graphs, subgraphs and the basic arithmetic on them.

A weighted graph is a simple graph (no loops, no multi-edges) together with
a positive integer weight on every vertex.  Everything downstream (cochain
complexes, reductions, the fundamental forest) works with subgraphs of one
fixed ambient graph, so `Subgraph` keeps a reference to its parent.

All objects are immutable after construction and safe to share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Optional

Edge = tuple[str, str]


def edge_key(u: str, v: str) -> Edge:
    """Normalize an undirected edge to a sorted pair."""
    if u == v:
        raise ValueError(f"loop edge at vertex {u!r}")
    return (u, v) if u < v else (v, u)


@lru_cache(maxsize=256)
def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def p_valuation(n: int, p: int) -> int:
    """Largest a with p**a dividing n, for n >= 1."""
    if n < 1:
        raise ValueError(f"p_valuation requires n >= 1, got {n}")
    require_prime(p)
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a


class WeightedGraph:
    """Simple graph with a positive integer weight per vertex.

    Vertex identifiers are strings; the canonical order is lexicographic.
    Weights are arbitrary-precision.
    """

    __slots__ = ("vertices", "weight", "edges", "_adj")

    def __init__(self, weights: Mapping[str, int], edges: Iterable[tuple[str, str]]):
        self.weight = {str(v): int(k) for v, k in weights.items()}
        for v, k in self.weight.items():
            if k < 1:
                raise ValueError(f"weight of {v!r} must be >= 1, got {k}")
        self.vertices: tuple[str, ...] = tuple(sorted(self.weight))
        seen: list[Edge] = []
        for u, v in edges:
            e = edge_key(str(u), str(v))
            if e[0] not in self.weight or e[1] not in self.weight:
                raise ValueError(f"edge {e} has an undeclared endpoint")
            if e in seen:
                raise ValueError(f"multiple edge {e}")
            seen.append(e)
        self.edges: tuple[Edge, ...] = tuple(sorted(seen))
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = {v: tuple(sorted(ws)) for v, ws in adj.items()}

    def neighbours(self, v: str) -> tuple[str, ...]:
        return self._adj[v]

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
        parent_edges = set(self.parent.edges)
        for v in self.vertex_set:
            if v not in self.parent.weight:
                raise ValueError(f"vertex {v!r} not in parent graph")
        for e in self.edge_set:
            if e not in parent_edges:
                raise ValueError(f"edge {e} not in parent graph")
            if e[0] not in self.vertex_set or e[1] not in self.vertex_set:
                raise ValueError(f"edge {e} has an endpoint outside the subgraph")

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.vertex_set))

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edge_set))

    def weight(self, v: str) -> int:
        if v not in self.vertex_set:
            raise KeyError(v)
        return self.parent.weight[v]

    def key(self) -> tuple[frozenset[str], frozenset[Edge]]:
        return (self.vertex_set, self.edge_set)

    def neighbours(self, v: str) -> list[str]:
        out = []
        for u, w in self.edge_set:
            if u == v:
                out.append(w)
            elif w == v:
                out.append(u)
        return sorted(out)

    def min_vertex(self) -> str:
        return min(self.vertex_set)

    def weight_gcd(self) -> int:
        from math import gcd
        g = 0
        for v in self.vertex_set:
            g = gcd(g, self.parent.weight[v])
        return g

    def min_valuation(self, p: int) -> int:
        """Smallest p-adic valuation of a vertex weight in this subgraph."""
        return min(p_valuation(self.parent.weight[v], p) for v in self.vertex_set)

    def max_edge_valuation(self, p: int) -> Optional[int]:
        """Largest p-adic valuation of an internal edge, None if edgeless."""
        if not self.edge_set:
            return None
        return max(self.parent.edge_valuation(e, p) for e in self.edge_set)

    def as_graph(self) -> WeightedGraph:
        """The subgraph as a standalone graph with induced weights."""
        return WeightedGraph(
            {v: self.parent.weight[v] for v in self.vertex_set}, self.edge_set
        )

    def __repr__(self) -> str:
        return f"Subgraph({{{','.join(self.vertices)}}};{{{','.join(a + b for a, b in self.edges)}}})"


def full_subgraph(g: WeightedGraph) -> Subgraph:
    return Subgraph(g, frozenset(g.vertices), frozenset(g.edges))


def subgraph_of(parent: WeightedGraph, vertices: Iterable[str],
                edges: Iterable[tuple[str, str]]) -> Subgraph:
    return Subgraph(parent, frozenset(vertices),
                    frozenset(edge_key(u, v) for u, v in edges))


def components(g: Subgraph) -> list[Subgraph]:
    """Maximal connected subgraphs, sorted by smallest vertex identifier."""
    adj: dict[str, set[str]] = {v: set() for v in g.vertex_set}
    for u, v in g.edge_set:
        adj[u].add(v)
        adj[v].add(u)
    seen: set[str] = set()
    comps = []
    for start in sorted(g.vertex_set):
        if start in seen:
            continue
        block = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in block:
                    block.add(w)
                    queue.append(w)
        seen |= block
        comps.append(Subgraph(
            g.parent, frozenset(block),
            frozenset(e for e in g.edge_set if e[0] in block)))
    return comps


def is_connected(g: Subgraph) -> bool:
    return len(components(g)) <= 1


@dataclass(frozen=True)
class Bipartition:
    """A two-colouring of vertices by signs, opposite across every edge."""

    sign: Mapping[str, int]

    def __call__(self, v: str) -> int:
        return self.sign[v]

    def is_valid_for(self, g: Subgraph) -> bool:
        if any(v not in self.sign for v in g.vertex_set):
            return False
        if any(self.sign[v] not in (1, -1) for v in g.vertex_set):
            return False
        return all(self.sign[u] != self.sign[v] for u, v in g.edge_set)

    def restricted(self, vertices: Iterable[str]) -> "Bipartition":
        return Bipartition({v: self.sign[v] for v in vertices})


def bipartition(g: Subgraph) -> Optional[Bipartition]:
    """Two-colour `g` if possible, else None.

    Per component the colouring is unique up to sign; it is normalized so
    the smallest vertex identifier of each component gets +1.
    """
    sign: dict[str, int] = {}
    for comp in components(g):
        start = comp.min_vertex()
        sign[start] = 1
        queue = [start]
        while queue:
            v = queue.pop()
            for w in comp.neighbours(v):
                if w not in sign:
                    sign[w] = -sign[v]
                    queue.append(w)
                elif sign[w] == sign[v]:
                    return None
    return Bipartition(sign)


def find_odd_cycle(g: Subgraph) -> Optional[list[str]]:
    """An odd closed walk witnessing non-bipartiteness, or None."""
    colour: dict[str, int] = {}
    parent: dict[str, Optional[str]] = {}
    for comp in components(g):
        start = comp.min_vertex()
        colour[start] = 0
        parent[start] = None
        queue = [start]
        while queue:
            v = queue.pop(0)
            for w in comp.neighbours(v):
                if w not in colour:
                    colour[w] = colour[v] ^ 1
                    parent[w] = v
                    queue.append(w)
                elif colour[w] == colour[v]:
                    # walk both ancestries back to the common root
                    left, right = [v], [w]
                    while left[-1] != right[-1]:
                        la, ra = parent[left[-1]], parent[right[-1]]
                        if len(left) <= len(right) and la is not None:
                            left.append(la)
                        elif ra is not None:
                            right.append(ra)
                        else:
                            break
                    while left[-1] != right[-1]:
                        left.append(parent[left[-1]])  # type: ignore[arg-type]
                    cycle = left + right[-2::-1]
                    return cycle
    return None


def reduction(g: Subgraph, p: int, s: int) -> Subgraph:
    """Delete every edge whose weight product has p-adic valuation >= s.

    Keeps all vertices.  The result has no edge with valuation >= s.
    """
    require_prime(p)
    if s < 1:
        raise ValueError(f"reduction level must be >= 1, got {s}")
    kept = frozenset(e for e in g.edge_set if g.parent.edge_valuation(e, p) < s)
    return Subgraph(g.parent, g.vertex_set, kept)


def reduce_graph(g: WeightedGraph, p: int, s: int) -> Subgraph:
    return reduction(full_subgraph(g), p, s)


def edge_boundary(d: Subgraph) -> frozenset[Edge]:
    """Parent edges touching V(d) that are missing from E(d).

    Includes edges with both endpoints in V(d) that are not in E(d).
    """
    return frozenset(
        e for e in d.parent.edges
        if e not in d.edge_set and (e[0] in d.vertex_set or e[1] in d.vertex_set))


def boundary_valuation(d: Subgraph, p: int) -> Optional[int]:
    """Smallest valuation over the edge boundary, None for empty boundary."""
    vals = [d.parent.edge_valuation(e, p) for e in edge_boundary(d)]
    return min(vals) if vals else None


# --- graph file format -------------------------------------------------------
#
# {"vertices": [{"id": "R", "weight": "27"}, ...], "edges": [["R", "G"], ...]}
#
# Weights are decimal strings so arbitrarily large integers survive JSON.

def graph_to_json(g: WeightedGraph) -> dict:
    return {
        "vertices": [{"id": v, "weight": str(g.weight[v])} for v in g.vertices],
        "edges": [[u, v] for u, v in g.edges],
    }


def graph_from_json(doc: dict) -> WeightedGraph:
    try:
        weights = {item["id"]: int(item["weight"]) for item in doc["vertices"]}
        edges = [(u, v) for u, v in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph document: {exc}") from exc
    return WeightedGraph(weights, edges)


def load_graph(path: str) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from exc
    return graph_from_json(doc)


def dump_graph(g: WeightedGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_json(g), fh, indent=2, sort_keys=True)
        fh.write("\n")
