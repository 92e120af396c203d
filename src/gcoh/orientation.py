"""Orientability of weighted graphs over Z/p**s and orientation classes.

A connected scheme is oriented when the cokernel of the coefficient
inclusion H0(Z/p**(s-1)) -> H0(Z/p**s) is one-dimensional over Z/p.  For
reduced schemes this has a purely combinatorial characterization:

  * odd p: oriented iff bipartite;
  * p = 2: oriented iff bipartite, or the next reduction step is
    bipartite and the weight gcd is odd.

A reduced scheme's orientation class is the divided fundamental chain
of a suitable bipartitioning.  Non-reduced inputs follow the column
rule: with U @ d0 @ V == S, summand j of H0(Z/p**s) is
Z/p**min(v_p(d_j), s), and multiplication by p from level s - 1 is onto
it unless v_p(d_j) >= s (d_j = 0 past the rank).  So the scheme is
oriented exactly when one column j is critical in that sense, and then
column j of V mod p**s is the orientation class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graphs import (
    Bipartition,
    Subgraph,
    bipartition,
    components,
    is_connected,
    p_valuation,
    reduction,
    require_prime,
)
from .cohomology import Chain, critical_columns, d0_matrix
from .intlinalg import SmithDecomposition, kernel_mod, mat_vec, smith_normal_form


@dataclass(frozen=True)
class OrientationReport:
    ring: str
    orientable: bool
    orientation_class: Optional[Chain]
    method: str


def fundamental_chain(d: Subgraph, a: Bipartition,
                      require_bipartition: bool = True) -> Chain:
    """Signed weight chain: coefficient of v is a(v) * k_v, zero off V(d).

    With `require_bipartition` off, `a` only has to assign signs to V(d);
    that form carries the 2-adic extension, where the signs come from a
    bipartitioning of a further reduction rather than of d itself.
    """
    if any(v not in a.sign or a.sign[v] not in (1, -1) for v in d.vertex_set):
        raise ValueError("sign map does not cover the subgraph")
    if require_bipartition and not a.is_valid_for(d):
        raise ValueError("not a valid bipartition of the subgraph")
    return Chain(0, {v: a(v) * d.parent.weight[v] for v in d.vertex_set})


def divided_fundamental_class(d: Subgraph, a: Bipartition,
                              require_bipartition: bool = True) -> Chain:
    """Fundamental chain divided by the gcd of the weights on V(d)."""
    chain = fundamental_chain(d, a, require_bipartition)
    g = d.weight_gcd()
    return Chain(0, {v: c // g for v, c in chain.coefficients.items()})


def two_adic_bipartition(d: Subgraph, s: int) -> Optional[Bipartition]:
    """Bipartitioning of the (s-1)-step 2-adic reduction of d.

    This is the sign choice that orients non-bipartite 2-adically
    oriented schemes; each component of the reduction is normalized with
    +1 on its smallest vertex.  For s = 1 every edge is forgotten.
    """
    if s >= 2:
        reduced = reduction(d, 2, s - 1)
    else:
        reduced = Subgraph(d.parent, d.vertex_set, frozenset())
    return bipartition(reduced)


def _decide_reduced(comp: Subgraph, p: int, s: int) -> tuple[bool, Optional[Chain], str]:
    alpha = bipartition(comp)
    if alpha is not None:
        return True, divided_fundamental_class(comp, alpha), "bipartite"
    if p != 2:
        return False, None, "odd-prime"
    alpha2 = two_adic_bipartition(comp, s)
    if alpha2 is not None and p_valuation(comp.weight_gcd(), 2) == 0:
        cls = divided_fundamental_class(comp, alpha2, require_bipartition=False)
        return True, cls, "two-adic"
    return False, None, "two-adic"


def _decide_from_columns(comp: Subgraph, dec: SmithDecomposition, p: int,
                         s: int) -> tuple[bool, Optional[Chain], str]:
    """The column rule on a decomposition of d0(comp)."""
    critical = critical_columns(dec, p, s)
    if len(critical) != 1:
        return False, None, "critical-dimension"
    cls = Chain(0, dict(zip(comp.vertices, dec.v.column(critical[0]))))
    return True, cls.reduced(p, s), "critical-dimension"


def _is_reduced(comp: Subgraph, p: int, s: int) -> bool:
    return all(comp.parent.edge_valuation(e, p) < s for e in comp.edge_set)


def _decide_component(comp: Subgraph, p: int, s: int) -> tuple[bool, Optional[Chain], str]:
    if _is_reduced(comp, p, s):
        return _decide_reduced(comp, p, s)
    return _decide_from_columns(comp, smith_normal_form(d0_matrix(comp)), p, s)


def orientation_classes(comp: Subgraph, p: int,
                        levels: Iterable[int]) -> dict[int, Optional[Chain]]:
    """The orientation class of a connected subgraph over Z/p**s for each
    s in `levels`, None where it is not oriented.  d0(comp) is decomposed
    at most once, for every level at which comp is not reduced."""
    dec = None
    out: dict[int, Optional[Chain]] = {}
    for s in levels:
        if _is_reduced(comp, p, s):
            _, out[s], _ = _decide_reduced(comp, p, s)
        else:
            if dec is None:
                dec = smith_normal_form(d0_matrix(comp))
            _, out[s], _ = _decide_from_columns(comp, dec, p, s)
    return out


def is_orientable(d: Subgraph, p: int, s: int) -> OrientationReport:
    """Decide Z/p**s orientability; a disconnected subgraph is oriented
    exactly when every component is.

    The reported class is the sum of per-component classes (components
    have disjoint supports, so nothing is lost); for reduced inputs it is
    a divided fundamental chain with integer coefficients.
    """
    require_prime(p)
    if s < 1:
        raise ValueError("modulus exponent must be >= 1")
    ring = f"mod({p}^{s})"
    if not d.vertex_set:
        return OrientationReport(ring, True, Chain(0, {}), "bipartite")
    methods = []
    merged: dict[str, int] = {}
    orientable = True
    for comp in components(d):
        ok, cls, method = _decide_component(comp, p, s)
        methods.append(method)
        if not ok:
            orientable = False
            continue
        assert cls is not None
        for v, c in cls.coefficients.items():
            merged[v] = c
    method = methods[0] if len(set(methods)) == 1 else "+".join(sorted(set(methods)))
    if not orientable:
        return OrientationReport(ring, False, None, method)
    return OrientationReport(ring, True, Chain(0, merged), method)


def is_orientation_class(z: Chain, d: Subgraph, p: int, s: int) -> bool:
    """Test the two defining conditions for a connected subgraph:

    the class has full order p**s, and every cocycle agrees with one of
    its first p multiples up to something killed by p**(s-1).
    """
    require_prime(p)
    if not is_connected(d):
        raise ValueError("orientation classes are tested on connected subgraphs")
    if z.degree != 0:
        raise ValueError("expected a degree-0 chain")
    ps = p ** s
    zred = z if z.modulus == (p, s) else z.reduced(p, s)
    zv = zred.vector(d.vertices)
    d0 = d0_matrix(d)
    if any(c % ps for c in mat_vec(d0, zv)):
        raise ValueError("chain is not a cocycle mod p**s")
    if all(x % p == 0 for x in zv):
        return False  # order below p**s
    for gen in kernel_mod(d0, p, s):
        # p**(s-1) * (gen - n*z) = 0 mod p**s iff gen = n*z mod p
        if not any(all((a - n * b) % p == 0 for a, b in zip(gen, zv))
                   for n in range(p)):
            return False
    return True
