"""Reference helpers the tests check the package against.

The package has no use for these: each is a direct computation that a
test compares a faster or more structured one with, or a small builder
the tests need for their inputs.
"""

from __future__ import annotations

from math import gcd
from typing import Mapping, Optional

from gcoh.graphs import (
    Subgraph,
    WeightedGraph,
    _adjacency,
    edge_boundary,
    full_subgraph,
    p_valuation,
    reduction,
)
from gcoh.intlinalg import IntMatrix
from gcoh.tropical import (
    INF,
    ClampAtZero,
    Const,
    Plus,
    Quotient,
    Times,
    TropicalExpr,
    TropicalValue,
    Var,
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


# --- matrices ----------------------------------------------------------------

def zero_matrix(rows: int, cols: int) -> IntMatrix:
    return IntMatrix([{} for _ in range(rows)], cols)


def identity_matrix(n: int) -> IntMatrix:
    return IntMatrix([{i: 1} for i in range(n)], n)


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
