"""Reference helpers the tests check the package against.

The package has no use for these: each is a direct computation that a
test compares a faster or more structured one with, or a small builder
the tests need for their inputs.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence

from gcoh.forest import ForestNode
from gcoh.graphs import (
    Filtration,
    Subgraph,
    WeightedGraph,
    _adjacency,
    edge_boundary,
    full_subgraph,
    p_valuation,
    reduction,
)
from gcoh.intlinalg import IntMatrix, _add_scaled
from gcoh.tropical import (
    INF,
    ClampAtZero,
    Const,
    Plus,
    Quotient,
    Times,
    TropicalExpr,
    TropicalValue,
    UNIT,
    Var,
    _factor_rows,
    _negated_min,
    _pick,
)


# --- graphs ------------------------------------------------------------------

def find_odd_cycle(g: Subgraph) -> Optional[list[str]]:
    """An odd closed walk witnessing non-bipartiteness, or None."""
    adj = _adjacency(g)
    colour: dict[str, int] = {}
    parent: dict[str, Optional[str]] = {}
    for start in sorted(g.vertex_set):
        if start in colour:
            continue
        colour[start] = 0
        parent[start] = None
        queue = [start]
        while queue:
            v = queue.pop(0)
            for w in sorted(adj[v]):
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


def reduce_graph(g: WeightedGraph, p: int, s: int) -> Subgraph:
    return reduction(full_subgraph(g), p, s)


def boundary_valuation(d: Subgraph, p: int) -> Optional[int]:
    """Smallest valuation over the edge boundary, None for empty boundary;
    the reference for `Filtration.boundary_valuation`."""
    vals = [d.parent.edge_valuation(e, p) for e in edge_boundary(d)]
    return min(vals) if vals else None


def min_valuation(d: Subgraph, p: int) -> int:
    """Smallest p-adic valuation of a vertex weight in d."""
    return min(p_valuation(d.parent.weight[v], p) for v in d.vertex_set)


# --- forest ------------------------------------------------------------------

def covers_by_class_lookup(filt: Filtration, levels: dict[Subgraph, range],
                           subgraphs: tuple[Subgraph, ...]):
    """(phi, extras, below, maximal) of the forest with node levels
    `levels`, in three passes: descent through the anchor's class, a
    subgraph maximal when the class above its top level is not a node,
    and the covers with their extras, each cover vertex checked against
    its boundary valuation.  `build_forest` reads all four off one loop
    over the covers; this is its reference.
    """
    top = filt.top
    below: dict[Subgraph, Subgraph] = {}
    for delta in sorted(subgraphs, key=lambda c: levels[c][0]):
        m, lo = filt.min_val[delta], levels[delta][0]
        if lo == m + 1:
            continue
        anchor = min(v for v in delta.vertex_set if filt.valuation[v] == m)
        below[delta] = filt.class_of(anchor, lo - 1)
        if lo - 1 not in levels.get(below[delta], ()):
            raise AssertionError(
                f"descent from {ForestNode(delta, lo).label()} leaves the forest")

    maximal = []
    for delta in subgraphs:
        rs = levels[delta]
        sup = None if rs[-1] == top and delta in filt.colouring else rs[-1]
        if (sup is None or sup >= top
                or sup + 1 not in levels.get(
                    filt.class_of(delta.min_vertex(), sup + 1), ())):
            maximal.append(delta)

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
    return (phi, tuple(sorted(extras, key=Subgraph.sort_key)), below,
            tuple(maximal))


# --- matrices ----------------------------------------------------------------

def zero_matrix(rows: int, cols: int) -> IntMatrix:
    return IntMatrix([{} for _ in range(rows)], cols)


def identity_matrix(n: int) -> IntMatrix:
    return IntMatrix([{i: 1} for i in range(n)], n)


def min_degree_order(rows: Sequence[dict[int, int]], n: int) -> list[int]:
    """The n columns in greedy minimum-degree order of the sparse rows' pattern.
    The column order that `intlinalg._degree_order` replaced, kept as its
    reference.

    Two columns are adjacent when they share a row; for d0 that is the
    graph.  The column of least degree goes next, the lowest index among
    ties, and its neighbours become a clique: the fill of symmetric
    elimination (George and Liu, SIAM Rev. 31(1), 1989).
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    for row in rows:
        support = list(row)
        for j in support:
            adj[j].update(support)
            adj[j].discard(j)
    heap = [(len(nb), j) for j, nb in enumerate(adj)]
    heapify(heap)
    order: list[int] = []
    placed = [False] * n
    while heap:
        deg, j = heappop(heap)
        if placed[j] or deg != len(adj[j]):
            continue  # stale: j is placed, or its degree changed since
        placed[j] = True
        order.append(j)
        for k in adj[j]:
            adj[k] |= adj[j]
            adj[k] -= {j, k}
            heappush(heap, (len(adj[k]), k))
    return order


def hermite_rows_by_columns(rows: Sequence[dict[int, int]], n: int):
    """(H, C, R) with rows == C @ H and H == R @ rows, the sparse rows left
    as they are: H is an echelon block, kept as its sparse rows, reduced
    below its pivots but not above them.  The column elimination that
    `intlinalg._hermite_rows` replaced, kept as its reference.

    Column by column, the row with the least absolute entry (the first
    among ties) is the pivot and reduces the rows below it to their least
    remainders until the column is clear under it; colrows[j] indexes the
    unfinished sparse rows with a nonzero in column j, and the pass that
    leaves the remainders also finds the least of them, the next pivot.
    The steps of one pass touch distinct rows through the same pivot row,
    so their order in the log does not change R.  R replays the log
    backwards on sparse columns; C is solved back over the nonzeros of H,
    where a pivot alone clears the leading entry of each remainder.
    """
    s = [dict(row) for row in rows]
    colrows: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(s):
        for j in row:
            colrows[j].add(i)
    log: list[tuple[int, int, Optional[int]]] = []  # row dst += c * row src; c None: swap
    t = 0
    for j, col in enumerate(colrows):
        nxt = min([(abs(s[i][j]), i) for i in col], default=None)  # (|entry|, row)
        while nxt is not None:
            piv = nxt[1]
            if piv != t:
                for k in s[t].keys() ^ s[piv].keys():
                    colrows[k] ^= {t, piv}  # the one of the two rows with a nonzero moves
                s[t], s[piv] = s[piv], s[t]
                log.append((t, piv, None))
            top, p = s[t], s[t][j]
            nxt = (abs(p), t)  # the next pivot: least over t and the nonzero remainders
            for i in list(col):  # col holds no finished row
                if i == t:
                    continue
                row = s[i]
                q, rem = divmod(row[j], p)
                if 2 * abs(rem) > abs(p):
                    q += 1
                for k, y in top.items():
                    z = row.pop(k, 0) - q * y
                    if z:
                        row[k] = z
                        colrows[k].add(i)
                    else:
                        colrows[k].discard(i)
                log.append((i, t, -q))
                if j in row and (x := (abs(row[j]), i)) < nxt:
                    nxt = x
            if len(col) == 1:  # every remainder was zero: the column is clear under t
                for k in top:
                    colrows[k].discard(t)
                t += 1
                break
    r_cols: list[dict[int, int]] = [{i: 1} if i < t else {} for i in range(len(rows))]
    for dst, src, c in reversed(log):
        if c is None:
            r_cols[dst], r_cols[src] = r_cols[src], r_cols[dst]
        else:
            _add_scaled(r_cols[src], c, r_cols[dst].items())
    del s[t:], colrows, log  # freed before C and R are built; s is H
    pivots = {}  # pivot column -> (row of H, pivot entry, the row's other nonzeros)
    for k, row in enumerate(s):
        (j, lead), *tail = sorted(row.items())
        pivots[j] = (k, lead, tail)
    c_rows = []
    for row in rows:
        rest, c = dict(row), {}  # rest is emptied as C is solved
        while rest:
            k, lead, tail = pivots[j := min(rest)]
            q = c[k] = rest.pop(j) // lead
            _add_scaled(rest, -q, tail)
        c_rows.append(c)
    return s, IntMatrix(c_rows, t), IntMatrix(r_cols, t).transpose()


# --- tropical semiring -------------------------------------------------------

def t_plus(a: TropicalValue, b: TropicalValue) -> TropicalValue:
    if not a.finite:
        return b
    if not b.finite:
        return a
    return TropicalValue(True, min(a.value, b.value))


def t_times(a: TropicalValue, b: TropicalValue) -> TropicalValue:
    if not a.finite or not b.finite:
        return INF
    return TropicalValue(True, a.value + b.value)


def t_quotient(a: TropicalValue, b: TropicalValue) -> TropicalValue:
    if not b.finite:
        raise ZeroDivisionError("tropical division by infinity")
    if not a.finite:
        return INF
    return TropicalValue(True, a.value - b.value)


def tropical_max(children: Sequence[TropicalExpr]) -> TropicalExpr:
    """Maximum as a negated minimum (see `_negated_min`), one node per
    term; a single term is its own maximum."""
    if not children:
        raise ValueError("maximum of nothing")
    if len(children) == 1:
        return children[0]
    return _negated_min(Quotient(UNIT, x) for x in children)


def eval_gcd_product(e: TropicalExpr, assignment: Mapping[str, int]) -> int:
    """The gcd/product-semiring shadow of a quotient- and clamp-free
    expression (sum becomes gcd, product becomes multiplication)."""
    if isinstance(e, Var):
        return int(assignment[e.name])
    if isinstance(e, Const):
        if not e.value.finite:
            return 0  # the zero of the gcd/product semiring
        raise ValueError("finite constants have no canonical preimage")
    if isinstance(e, Plus):
        out = 0
        for c in e.children:
            out = gcd(out, eval_gcd_product(c, assignment))
        return out
    if isinstance(e, Times):
        out = 1
        for c in e.children:
            out *= eval_gcd_product(c, assignment)
        return out
    raise ValueError("expression uses quotient or clamp")


def variables(e: TropicalExpr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Const):
        return set()
    if isinstance(e, Plus) or isinstance(e, Times):
        out: set[str] = set()
        for c in e.children:
            out |= variables(c)
        return out
    if isinstance(e, Quotient):
        return variables(e.numerator) | variables(e.denominator)
    if isinstance(e, ClampAtZero):
        return variables(e.child)
    raise TypeError(f"not a tropical expression: {e!r}")


# --- live factors ------------------------------------------------------------

def spans(adj: list[int]) -> bool:
    """Do the edges behind the adjacency bitmasks connect every vertex?"""
    seen = frontier = 1
    while frontier:
        reached = 0
        while frontier:
            low = frontier & -frontier
            reached |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reached & ~seen
        seen |= reached
    return seen == (1 << len(adj)) - 1


def close_edge(reach: list[int], x: int, y: int) -> Optional[list[int]]:
    """A copy of the transitive closure `reach` (node -> bitmask of the
    nodes reachable from it) with an edge's arcs x -> y and its mirror
    y ^ 1 -> x ^ 1 added; None if they close a cycle."""
    reach = reach[:]
    for tail, head in ((x, y), (y ^ 1, x ^ 1)):
        if reach[head] >> tail & 1:
            return None
        gained = reach[head] | 1 << head
        for z, r in enumerate(reach):
            if z == tail or r >> tail & 1:
                reach[z] = r | gained
    return reach


def live_edge_sets(k: int, edges: Sequence[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Index tuples into `edges` (pairs of vertex numbers below k) of
    the live edge sets: connected, spanning the k vertices, bipartite,
    and with no alternating closed walk against the edges left out.

    The search decides each edge in or out and cuts a branch once the
    chosen edges hold an odd cycle, the chosen and remaining edges no
    longer connect the vertices, or the decided edges hold an
    alternating closed walk.  The walks are the cycles of a digraph on
    (vertex, parity), node 2v + parity: a chosen edge uv goes from parity
    0 to 1 (both ways round), a left-out edge from 1 to 0.
    """
    adj = [0] * k
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def search(i: int, comp: list[int], side: list[int], reach: list[int],
               adj: list[int]) -> None:
        if i == len(edges):
            out.append(tuple(chosen))
            return
        u, v = edges[i]
        if comp[u] != comp[v] or side[u] != side[v]:
            closure = close_edge(reach, 2 * u, 2 * v + 1)
            if closure is not None:
                joined, sides = comp, side
                if comp[u] != comp[v]:  # merge v's class into u's
                    old, flip = comp[v], side[u] == side[v]
                    sides = [s ^ flip if c == old else s
                             for c, s in zip(comp, side)]
                    joined = [comp[u] if c == old else c for c in comp]
                chosen.append(i)
                search(i + 1, joined, sides, closure, adj)
                chosen.pop()
        dropped = adj[:]
        dropped[u] &= ~(1 << v)
        dropped[v] &= ~(1 << u)
        if spans(dropped):
            closure = close_edge(reach, 2 * u + 1, 2 * v)
            if closure is not None:
                search(i + 1, comp, side, closure, dropped)

    if spans(adj):
        search(0, list(range(k)), [0] * k, [0] * (2 * k), adj)
    return out


def factor_rows_by_name(g: WeightedGraph) -> list[tuple[tuple, tuple, list]]:
    """(vertices, edges, boundary) of the rows `tropical.z_gamma` builds
    its factors from on a connected graph, in its order, by name."""
    verts, pairs, rows = _factor_rows(g)
    edges = [(verts[a], verts[b]) for a, b in pairs]
    return [(tuple(_pick(verts, vm)), tuple(_pick(edges, em)),
             _pick(edges, t & ~em))
            for vm, em, t in rows if t != em]


def candidates_by_vertex_set(g: WeightedGraph) -> Iterable[tuple[tuple, tuple, list]]:
    """`factor_rows_by_name` by one search per vertex set: (vertices,
    edges, boundary) of every live factor of a connected graph, in the
    same order.  For each vertex set in turn it searches the induced
    edges for the live edge sets that span it.
    """
    verts = g.vertices
    all_edges = g.edges
    full_key = (verts, all_edges)
    for k in range(1, len(verts) + 1):
        for vs in combinations(verts, k):
            vset = set(vs)
            touching = [e for e in all_edges
                        if e[0] in vset or e[1] in vset]
            induced = [e for e in touching
                       if e[0] in vset and e[1] in vset]
            number = {v: i for i, v in enumerate(vs)}
            local = [(number[u], number[w]) for u, w in induced]
            for picked in sorted(live_edge_sets(k, local),
                                 key=lambda t: (len(t), t)):
                es = tuple(induced[i] for i in picked)
                if (vs, es) == full_key:
                    continue
                chosen = set(es)
                boundary = [e for e in touching if e not in chosen]
                yield vs, es, boundary
