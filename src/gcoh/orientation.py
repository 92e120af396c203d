"""Orientability of weighted graphs over Z/p**s and orientation classes.

A connected scheme is oriented when the cokernel of the coefficient
inclusion H0(Z/p**(s-1)) -> H0(Z/p**s) is one-dimensional over Z/p.  For
reduced schemes this has a purely combinatorial characterization:

  * odd p: oriented iff bipartite;
  * p = 2: oriented iff bipartite, or the next reduction step is
    bipartite and the weight gcd is odd.

An orientation class is a degree-0 cochain: a plain dict {vertex:
coefficient}, like the sign maps it is built from, with coefficient 0 off
its keys.  A reduced scheme's class is the divided fundamental chain of
a suitable sign map, a dict {vertex: +1 or -1}.  Every input of this
rule is read off one `graphs.filtration` sweep at p: the components are
the top-level classes, a class is reduced at s from its first level on,
the signs are `Filtration.reduced_signs`, the rule forest membership
uses too, and the weight gcd is odd when the class's minimal valuation
is 0.  Non-reduced inputs follow the column
rule: with U @ d0 @ V == S, summand j of H0(Z/p**s) is
Z/p**min(v_p(d_j), s), and multiplication by p from level s - 1 is onto
it unless v_p(d_j) >= s (d_j = 0 past the rank).  So the scheme is
oriented exactly when one column j is critical in that sense, and then
column j of V mod p**s (its nonzero residues) is the orientation
class.  `generation_check` asks whether scaled classes of the
filtration's classes span the mod-p**s cocycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graphs import (
    Filtration,
    Subgraph,
    WeightedGraph,
    filtration,
    full_subgraph,
    is_connected,
    require_prime,
)
from .cohomology import critical_columns, d0_matrix
from .intlinalg import (SmithDecomposition, kernel_mod, mat_vec,
                        matrix_from_columns, smith_normal_form)

GENERATION_S_CAP = 4


@dataclass(frozen=True)
class OrientationReport:
    orientable: bool
    orientation_class: Optional[dict[str, int]]
    method: str


def fundamental_chain(d: Subgraph, a: dict[str, int],
                      require_bipartition: bool = True) -> dict[str, int]:
    """Signed weight chain: coefficient of v is a[v] * k_v, zero off V(d).

    With `require_bipartition` off, `a` only has to assign signs to V(d);
    that form carries the 2-adic extension, where the signs come from a
    bipartitioning of a further reduction rather than of d itself.
    """
    if any(a.get(v) not in (1, -1) for v in d.vertex_set):
        raise ValueError("sign map does not cover the subgraph")
    if require_bipartition and any(a[u] == a[v] for u, v in d.edge_set):
        raise ValueError("not a valid bipartition of the subgraph")
    return {v: a[v] * d.parent.weight[v] for v in d.vertex_set}


def divided_fundamental_class(d: Subgraph, a: dict[str, int],
                              require_bipartition: bool = True) -> dict[str, int]:
    """Fundamental chain divided by the gcd of the weights on V(d)."""
    chain = fundamental_chain(d, a, require_bipartition)
    g = d.weight_gcd()
    return {v: c // g for v, c in chain.items()}


def _decide_reduced(filt: Filtration, c: Subgraph,
                    s: int) -> tuple[Optional[dict[str, int]], str]:
    alpha = filt.reduced_signs(c, s)
    if c in filt.colouring:
        return divided_fundamental_class(c, alpha), "bipartite"
    method = "two-adic" if filt.prime == 2 else "odd-prime"
    if alpha is None or filt.min_val[c] != 0:
        return None, method
    return divided_fundamental_class(c, alpha, require_bipartition=False), method


def _decide_from_columns(c: Subgraph, dec: SmithDecomposition, p: int,
                         s: int) -> tuple[Optional[dict[str, int]], str]:
    """The column rule on a decomposition of d0(c)."""
    critical = critical_columns(dec, p, s)
    if len(critical) != 1:
        return None, "critical-dimension"
    ps, col = p ** s, dec.v.column(critical[0])
    cls = {v: x % ps for v, x in zip(c.vertices, col) if x % ps}
    return cls, "critical-dimension"


def orientation_classes(filt: Filtration, c: Subgraph,
                        levels: Iterable[int]) -> dict[int, tuple[Optional[dict], str]]:
    """The orientation class of a class c of `filt` over Z/p**s, p the
    filtration's prime, for each s in `levels`, None where c is not
    oriented, with the rule that decided it.  c is reduced at s exactly
    from its first level on, where its edges all have valuation below s;
    d0(c) is decomposed at most once, for every level below that."""
    dec = None
    out: dict[int, tuple[Optional[dict], str]] = {}
    for s in levels:
        if filt.span[c][0] <= s:
            out[s] = _decide_reduced(filt, c, s)
        else:
            if dec is None:
                dec = smith_normal_form(d0_matrix(c))
            out[s] = _decide_from_columns(c, dec, filt.prime, s)
    return out


def _generation_candidates(full: Subgraph, p: int, s: int) -> list[tuple[int, ...]]:
    """p**d * (orientation class of D over Z/p**(s-d)) as vectors on the
    vertices, nonzero mod p**s, per class D of the filtration with
    boundary valuation minus minimal weight valuation >= s - d.  Each
    class's levels share one decomposition of its d0."""
    verts = full.vertices
    ps = p ** s
    candidates: list[tuple[int, ...]] = []
    filt = filtration(full, p)
    for delta in sorted(filt.span, key=Subgraph.sort_key):
        r_delta = filt.boundary_valuation(delta)  # None means empty boundary
        m_delta = filt.min_val[delta]
        levels = [s - d for d in range(s)
                  if r_delta is None or r_delta - m_delta >= s - d]
        classes = orientation_classes(filt, delta, levels)
        for t in levels:
            cls = classes[t][0]
            if cls is None:
                continue
            scaled = tuple(cls.get(v, 0) * p ** (s - t) % ps for v in verts)
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
    candidates = _generation_candidates(full, p, s)
    dec = smith_normal_form(matrix_from_columns(candidates, len(full.vertices)))
    return all(dec.solve(gen, (p, s)) is not None
               for gen in kernel_mod(d0_matrix(full), p, s))


def is_orientable(d: Subgraph, p: int, s: int) -> OrientationReport:
    """Decide Z/p**s orientability; a disconnected subgraph is oriented
    exactly when every component is.

    The components are the top-level classes of `filtration(d, p)`.  The
    reported class is the sum of per-component classes (components have
    disjoint supports, so nothing is lost); for reduced inputs it is a
    divided fundamental chain with integer coefficients.
    """
    require_prime(p)
    if s < 1:
        raise ValueError("modulus exponent must be >= 1")
    if not d.vertex_set:
        return OrientationReport(True, {}, "bipartite")
    filt = filtration(d, p)
    decided = [orientation_classes(filt, c, (s,))[s]
               for c in filt.at(filt.top)]
    method = "+".join(sorted({m for _, m in decided}))
    if any(cls is None for cls, _ in decided):
        return OrientationReport(False, None, method)
    merged = {v: x for cls, _ in decided for v, x in cls.items()}
    return OrientationReport(True, merged, method)


def is_orientation_class(z: dict[str, int], d: Subgraph, p: int, s: int) -> bool:
    """Test the two defining conditions for a connected subgraph:

    the class has full order p**s, and every cocycle agrees with one of
    its first p multiples up to something killed by p**(s-1).
    """
    require_prime(p)
    if not is_connected(d):
        raise ValueError("orientation classes are tested on connected subgraphs")
    ps = p ** s
    zv = [z.get(v, 0) % ps for v in d.vertices]
    d0 = d0_matrix(d)
    if any(c % ps for c in mat_vec(d0, zv)):
        raise ValueError("chain is not a cocycle mod p**s")
    i = next((i for i, x in enumerate(zv) if x % p), None)
    if i is None:
        return False  # order below p**s
    inv = pow(zv[i], -1, p)
    for gen in kernel_mod(d0, p, s):
        # p**(s-1) * (gen - n*z) = 0 mod p**s iff gen = n*z mod p; z_i is
        # a unit mod p, so n = gen_i / z_i is the only candidate
        n = gen[i] * inv
        if any((a - n * b) % p for a, b in zip(gen, zv)):
            return False
    return True
