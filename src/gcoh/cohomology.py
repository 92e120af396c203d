"""Cochain complexes of weighted graphs and their cohomology.

The complex lives in degrees 0 and 1: degree 0 is spanned by vertices,
degree 1 by edges, and the differential sends a vertex v to the sum of
its incident edges e(v,w) weighted by the opposite endpoint's weight k_w.
H^0 is the kernel (always free), H^1 the cokernel, computed exactly via
Smith normal form.  `orientation` and its `generation_check` build on
this module's critical columns; nothing here imports them.
"""

from __future__ import annotations

from .graphs import Subgraph, p_valuation, require_prime
from .intlinalg import (
    AbelianGroup,
    IntMatrix,
    SmithDecomposition,
    cokernel_structure,
    smith_normal_form,
)


def _edge_rows(g: Subgraph, entries) -> IntMatrix:
    """Rows are edges, columns vertices; the row of edge e(u,v) holds
    `entries(k_u, k_v)` in columns u and v."""
    verts = g.vertices
    col = {v: i for i, v in enumerate(verts)}
    weight = g.parent.weight
    rows = []
    for u, v in g.edges:
        x, y = entries(weight[u], weight[v])
        rows.append({col[u]: x, col[v]: y})
    return IntMatrix(rows, len(verts))


def d0_matrix(g: Subgraph) -> IntMatrix:
    """Matrix of the differential: rows are edges, columns vertices.

    The row of edge e(v,w) holds k_w in column v and k_v in column w.
    """
    return _edge_rows(g, lambda ku, kv: (kv, ku))


def d0_edge_matrix(g: Subgraph) -> IntMatrix:
    """Edge-weighted variant: both endpoint columns carry k_v * k_w."""
    return _edge_rows(g, lambda ku, kv: (ku * kv,) * 2)


def cohomology_groups(g: Subgraph) -> tuple[AbelianGroup, AbelianGroup]:
    """(H0, H1): the kernel is free, the cokernel carries the torsion."""
    a = d0_matrix(g)
    h1 = cokernel_structure(a)
    rank = a.rows - h1.rank  # rank of d0, from the same decomposition
    return AbelianGroup(a.cols - rank), h1


def torsion_order_p(g: Subgraph, p: int) -> int:
    """Exponent N such that the p-torsion of H1 has order p**N."""
    require_prime(p)
    _, h1 = cohomology_groups(g)
    return h1.p_exponent(p)


def critical_columns(dec: SmithDecomposition, p: int, s: int) -> list[int]:
    """The columns j of V with j >= rank (d_j = 0) or v_p(d_j) >= s; mod
    p**s they span the cokernel of `critical_cohomology_dim`."""
    diag = dec.diagonal
    return [j for j in range(dec.v.cols)
            if j >= len(diag) or p_valuation(diag[j], p) >= s]


def critical_cohomology_dim(g: Subgraph, p: int, s: int) -> int:
    """Dimension over Z/p of coker(H0(Z/p**(s-1)) -> H0(Z/p**s)).

    The map includes coefficients by multiplication with p.  For s = 1
    the source is trivial and this is just dim H0(Z/p).  With
    U @ d0 @ V == S, summand j of H0(Z/p**s) is Z/p**min(v_p(d_j), s),
    spanned by column j of V (v_p(0) is infinite), and multiplication by
    p from level s - 1 is onto it unless v_p(d_j) >= s, where it leaves
    one Z/p.  So one decomposition gives the dimension: the number of
    `critical_columns`.
    """
    require_prime(p)
    if s < 1:
        raise ValueError("modulus exponent must be >= 1")
    return len(critical_columns(smith_normal_form(d0_matrix(g)), p, s))
