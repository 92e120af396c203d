"""Cochain complexes of weighted graphs and their cohomology.

The complex lives in degrees 0 and 1: degree 0 is spanned by vertices,
degree 1 by edges, and the differential sends a vertex v to the sum of
its incident edges e(v,w) weighted by the opposite endpoint's weight k_w.
H^0 is the kernel (always free), H^1 the cokernel, computed exactly via
Smith normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .graphs import (
    Subgraph,
    WeightedGraph,
    filtration,
    full_subgraph,
    p_valuation,
    require_prime,
)
from .intlinalg import (
    AbelianGroup,
    IntMatrix,
    SmithDecomposition,
    cokernel_structure,
    kernel_mod,
    matrix_from_columns,
    smith_normal_form,
)

GENERATION_S_CAP = 4


@dataclass(frozen=True)
class Chain:
    """Coefficient vector on vertices (degree 0) or edges (degree 1).

    `modulus` is None for integer coefficients or (p, s) for Z/p**s, in
    which case coefficients are kept reduced into [0, p**s).
    """

    degree: int
    coefficients: Mapping
    modulus: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.degree not in (0, 1):
            raise ValueError("chain degree must be 0 or 1")
        if self.modulus is not None:
            p, s = self.modulus
            ps = p ** s
            if any(not 0 <= c < ps for c in self.coefficients.values()):
                raise ValueError("coefficients not reduced modulo p**s")

    def coefficient(self, label) -> int:
        return self.coefficients.get(label, 0)

    def vector(self, labels) -> tuple[int, ...]:
        return tuple(self.coefficient(l) for l in labels)

    def reduced(self, p: int, s: int) -> "Chain":
        ps = p ** s
        return Chain(self.degree,
                     {l: c % ps for l, c in self.coefficients.items() if c % ps},
                     (p, s))


def _edge_rows(g: Subgraph, entries) -> IntMatrix:
    """Rows are edges, columns vertices; the row of edge e(u,v) holds
    `entries(k_u, k_v)` in columns u and v."""
    verts = g.vertices
    col = {v: i for i, v in enumerate(verts)}
    weight = g.parent.weight
    rows = []
    for u, v in g.edges:
        row = [0] * len(verts)
        row[col[u]], row[col[v]] = entries(weight[u], weight[v])
        rows.append(row)
    return IntMatrix(rows, ncols=len(verts))


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


def _generation_candidates(full: Subgraph, p: int, s: int) -> list[tuple[int, ...]]:
    """p**d * (orientation class of D over Z/p**(s-d)) as vectors on the
    vertices, nonzero mod p**s, per class D of the filtration with
    boundary valuation minus minimal weight valuation >= s - d.  Each
    class's levels share one decomposition of its d0."""
    from .orientation import orientation_classes

    verts = full.vertices
    ps = p ** s
    candidates: list[tuple[int, ...]] = []
    filt = filtration(full, p)
    for delta in sorted(filt.span, key=lambda d: (d.vertices, d.edges)):
        r_delta = filt.boundary_valuation(delta)  # None means empty boundary
        m_delta = filt.min_val[delta]
        levels = [s - d for d in range(s)
                  if r_delta is None or r_delta - m_delta >= s - d]
        classes = orientation_classes(filt, delta, levels)
        for t in levels:
            cls = classes[t][0]
            if cls is None:
                continue
            scaled = tuple(x * p ** (s - t) % ps for x in cls.vector(verts))
            if any(scaled):
                candidates.append(scaled)
    return candidates


def generation_check(g: WeightedGraph, p: int, s: int) -> bool:
    """Do scaled divided fundamental classes of reduction components span
    the mod-p**s cocycles?

    Candidates are p**d * (divided fundamental class of D) over d in
    [0, s) and components D of reductions that are Z/p**(s-d)-oriented
    with boundary valuation minus minimal weight valuation >= s - d.
    Returning False signals a bug: the underlying theorem asserts truth.
    """
    require_prime(p)
    if s < 1:
        raise ValueError("modulus exponent must be >= 1")
    if s > GENERATION_S_CAP:
        raise ValueError(f"generation_check capped at s <= {GENERATION_S_CAP}")
    full = full_subgraph(g)
    a = d0_matrix(full)
    candidates = _generation_candidates(full, p, s)
    dec = smith_normal_form(matrix_from_columns(candidates, len(full.vertices)))
    return all(dec.solve(gen, (p, s)) is not None
               for gen in kernel_mod(a, p, s))
