"""Three-term complex built from the fundamental forest.

Degrees -1, 0, 1.  Degree 1 has one class generator per counted
subgraph, degree 0 a class generator per subgraph plus one relator per
non-minimal subgraph, degree -1 one relator per non-minimal subgraph.
The differentials encode how chains in the forest telescope; the first
cohomology of this small complex is exactly the p-torsion of the graph's
first cohomology, and the comparison map `chi` realizes it inside the
ambient cochain complex by divided fundamental chains, built as sparse
(row, coefficient) terms.  Their signs are one consistent choice: every
subgraph takes the signs of the top above it, the restriction of the
forest's one sign map `forest.signs`.  Every generator is a class of the
forest's filtration, so `restrict` reads a generator's pieces in a
subgraph off the subgraph's own filtration and runs no graph search.

Cover terms in the differentials run over the full vertex-spanning cover
(forest.phi), which includes the degenerate single-vertex extras.  Those
carry acyclic generator pairs with unit differential, so they change no
cohomology, but without them the comparison map would not be a chain map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .graphs import Subgraph, WeightedGraph, full_subgraph, p_valuation
from .cohomology import d0_matrix
from .forest import FundamentalForest, build_forest
from .intlinalg import AbelianGroup, IntMatrix, cokernel_structure, matmul

REL0 = "rel0"
CLS0 = "cls0"


class ChainMapError(AssertionError):
    """A built map failed its exact chain-map verification."""


@dataclass(frozen=True)
class FundamentalComplex:
    """`zero_at` and `one_at` give each generator's position; a class
    divided out (an infinite tail) has no degree-1 generator in `one_at`."""

    forest: FundamentalForest
    gens_neg: tuple[Subgraph, ...]
    gens_zero: tuple[tuple[str, Subgraph], ...]
    gens_one: tuple[Subgraph, ...]
    d_neg: IntMatrix   # degree -1 -> 0
    d_zero: IntMatrix  # degree 0 -> 1
    zero_at: dict[tuple[str, Subgraph], int] = field(repr=False, compare=False)
    one_at: dict[Subgraph, int] = field(repr=False, compare=False)


def _lower_level(forest: FundamentalForest, d: Subgraph) -> int:
    """The level of a non-minimal subgraph's cover, one below its first."""
    return forest.filtration.span[d][0] - 1


def _columns(n: int, cols: Iterable[Iterable[tuple[int, int]]]) -> IntMatrix:
    """Matrix with n rows, one iterable of (row, coefficient) terms per
    column; terms on the same row add up, and a sum of zero is dropped."""
    cols = list(cols)
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    for j, terms in enumerate(cols):
        for i, c in terms:
            rows[i][j] = rows[i].get(j, 0) + c
    return IntMatrix([{j: x for j, x in row.items() if x} for row in rows], len(cols))


def fundamental_complex(forest: FundamentalForest) -> FundamentalComplex:
    bip = set(forest.bipartite_components)
    rel_graphs = tuple(forest.phi)
    cls_graphs = tuple(list(forest.subgraphs) + list(forest.extras))
    gens_zero = tuple([(REL0, d) for d in rel_graphs]
                      + [(CLS0, d) for d in cls_graphs])
    gens_one = tuple(d for d in cls_graphs if d not in bip)
    one_at = {d: i for i, d in enumerate(gens_one)}
    zero_at = {g: i for i, g in enumerate(gens_zero)}
    min_val = forest.filtration.min_val
    p = forest.prime

    def zero_terms(kind: str, d: Subgraph) -> list[tuple[int, int]]:
        sup = forest.sup_level[d]
        rel = kind == REL0
        terms = [(one_at[child], -1) for child in forest.phi[d]] if rel else []
        if sup is not None:
            base = _lower_level(forest, d) if rel else min_val[d]
            terms.append((one_at[d], p ** (sup - base)))
        return terms

    d_zero = _columns(len(gens_one),
                      [zero_terms(kind, d) for kind, d in gens_zero])
    d_neg = _columns(len(gens_zero), (
        [(zero_at[(CLS0, d)], 1),
         (zero_at[(REL0, d)], -p ** (_lower_level(forest, d) - min_val[d]))]
        + [(zero_at[(CLS0, child)], -p ** (min_val[child] - min_val[d]))
           for child in forest.phi[d]]
        for d in rel_graphs))

    if not matmul(d_zero, d_neg).is_zero():
        raise ChainMapError("fundamental complex differentials do not square to zero")
    return FundamentalComplex(forest, rel_graphs, gens_zero, gens_one,
                              d_neg, d_zero, zero_at, one_at)


def complex_cohomology(fc: FundamentalComplex) -> tuple[AbelianGroup, AbelianGroup]:
    """(H0, H1) of the three-term complex, from two cokernels.

    H1 is coker(d_zero).  ker(d_zero) is saturated (it holds x whenever
    it holds a nonzero multiple of x), so it is a direct summand of the
    degree-0 lattice with a free complement of rank rank(d_zero), and it
    contains im(d_neg).  Hence coker(d_neg) = H0 + Z^rank(d_zero): H0 has
    the divisors of coker(d_neg) and rank(d_zero) less free rank.
    """
    h1 = cokernel_structure(fc.d_zero)
    coker = cokernel_structure(fc.d_neg)
    rank_zero = fc.d_zero.rows - h1.rank
    return AbelianGroup(coker.rank - rank_zero, coker.divisors), h1


def p_part_graph(g: WeightedGraph, p: int) -> WeightedGraph:
    """Same graph with every weight replaced by its p-part."""
    return WeightedGraph(
        {v: p ** p_valuation(g.weight[v], p) for v in g.vertices}, g.edges)


@dataclass(frozen=True)
class ComparisonMap:
    """chi: fundamental complex -> ambient cochain complex (p-part weights)."""

    complex: FundamentalComplex
    ambient: WeightedGraph
    ambient_d0: IntMatrix
    degree0: IntMatrix  # vertices x gens_zero
    degree1: IntMatrix  # edges x gens_one


def chi(fc: FundamentalComplex) -> ComparisonMap:
    """Build the comparison map and verify it is a chain map.

    A fundamental chain of d is sparse, one (row, coefficient) term per
    vertex of d: its p-part weight, signed by `forest.signs`.  Degree-0
    class generators map to divided fundamental chains, relators to zero,
    and degree-1 class generators to their chains' boundaries, from one
    product, divided by p**(sup level), each checked exact in edge order.
    """
    forest = fc.forest
    p = forest.prime
    gp = p_part_graph(forest.graph, p)
    ambient_d0 = d0_matrix(full_subgraph(gp))
    row = {v: i for i, v in enumerate(gp.vertices)}
    min_val = forest.filtration.min_val

    def chain(d: Subgraph, div: int = 1) -> list[tuple[int, int]]:
        return [(row[v], forest.signs[v] * gp.weight[v] // div)
                for v in d.vertex_set]

    degree0 = _columns(len(row), ([] if kind == REL0 else
                                  chain(d, p ** min_val[d])
                                  for kind, d in fc.gens_zero))

    boundaries = matmul(ambient_d0, _columns(len(row), map(chain, fc.gens_one)))
    cols1 = []
    for d, terms in zip(fc.gens_one, boundaries.transpose().data):
        sup = forest.sup_level[d]
        ps = p ** sup
        for i, c in terms.items():  # in edge order
            if c % ps:
                raise ChainMapError(f"boundary of {d} not divisible by "
                                    f"p^{sup} on edge {gp.edges[i]}")
        cols1.append([(i, c // ps) for i, c in terms.items()])
    degree1 = _columns(len(gp.edges), cols1)

    if matmul(ambient_d0, degree0) != matmul(degree1, fc.d_zero):
        raise ChainMapError("comparison map fails the degree-0 square")
    if not matmul(degree0, fc.d_neg).is_zero():
        raise ChainMapError("comparison map fails the degree--1 square")
    return ComparisonMap(fc, gp, ambient_d0, degree0, degree1)


def chi_image_torsion_order(cm: ComparisonMap) -> int:
    """Order of the subgroup of coker(d0) generated by the chi images of
    the degree-1 class generators."""
    d0, images = cm.ambient_d0, cm.degree1
    base = cokernel_structure(d0).torsion_order
    quotient_torsion = cokernel_structure(IntMatrix(  # images' columns after d0's
        [{**a, **{d0.cols + j: x for j, x in b.items()}}
         for a, b in zip(d0.data, images.data)], d0.cols + images.cols)).torsion_order
    if base % quotient_torsion:
        raise AssertionError("torsion order did not divide out exactly")
    return base // quotient_torsion


@dataclass(frozen=True)
class Restriction:
    """Matrices of the induced map between fundamental complexes."""

    target: FundamentalComplex  # complex of the subgraph as its own graph
    map_neg: IntMatrix
    map_zero: IntMatrix
    map_one: IntMatrix

    def compose(self, inner: "Restriction") -> tuple[IntMatrix, IntMatrix, IntMatrix]:
        """Matrices of (this after inner) on the degree -1, 0, 1 parts."""
        return (matmul(self.map_neg, inner.map_neg),
                matmul(self.map_zero, inner.map_zero),
                matmul(self.map_one, inner.map_one))


class UnsupportedRestriction(ValueError):
    """The restriction's image needs generators the target complex lacks."""


def restrict(source: FundamentalComplex, d: Subgraph) -> Restriction:
    """Induced map from the complex of the ambient graph to the complex of
    the subgraph (with induced weights), verified to be a chain map.

    d is a subgraph of `source.forest`'s graph, at that forest's prime.
    The formulas are the same at every prime, p = 2 included.  Known
    limitation, recorded with the build: for subgraphs that cut an
    infinite chain into pieces with different minimum valuations they do
    not define a chain map and this raises ChainMapError.  An
    intersection component that is not a generator of the target complex
    raises UnsupportedRestriction.  `gcoh verify` checks functoriality on
    the full graph, its oriented core and a minimal-valuation vertex at
    every configured prime and reports either error as a failure.
    """
    forest = source.forest
    if d.parent is not forest.graph:
        raise ValueError("subgraph does not belong to the forest's graph")
    p = forest.prime
    target = fundamental_complex(build_forest(d.as_graph(), p))
    small = target.forest

    # each generator's intersection with d in components, read off the
    # target filtration: a generator is a class at its first level r, so
    # they are the level-r classes of its vertices in d.  Checked once;
    # gens_one go first, which decides what a refusal names
    pieces: dict[Subgraph, list[Subgraph]] = {}
    for omega in dict.fromkeys(source.gens_one
                               + tuple(g for _, g in source.gens_zero)):
        r = forest.filtration.span[omega][0]
        pieces[omega] = list(dict.fromkeys(
            small.filtration.class_of(v, r)
            for v in sorted(omega.vertex_set & d.vertex_set)))
        for psi in pieces[omega]:
            if (CLS0, psi) not in target.zero_at:
                raise UnsupportedRestriction(
                    f"component {psi} of the restriction is not a generator")

    small_rel = {psi: i for i, psi in enumerate(target.gens_neg)}

    def zero_terms(kind: str, omega: Subgraph):
        for psi in pieces[omega]:
            if kind == CLS0:
                yield target.zero_at[(CLS0, psi)], 1
            elif psi in small_rel:  # else no relator on the target side
                shift = _lower_level(small, psi) - _lower_level(forest, omega)
                if shift >= 0:  # else the target chain reaches deeper
                    yield target.zero_at[(REL0, psi)], p ** shift

    # a class divided out in the target (sup level None) maps to nothing
    map_one = _columns(len(target.gens_one), (
        [(target.one_at[psi],
          p ** (small.sup_level[psi] - forest.sup_level[omega]))
         for psi in pieces[omega] if small.sup_level[psi] is not None]
        for omega in source.gens_one))
    map_zero = _columns(len(target.gens_zero),
                        (zero_terms(kind, omega)
                         for kind, omega in source.gens_zero))
    map_neg = _columns(len(target.gens_neg), (
        [(small_rel[psi], 1) for psi in pieces[omega] if psi in small_rel]
        for omega in source.gens_neg))

    if matmul(target.d_neg, map_neg) != matmul(map_zero, source.d_neg):
        raise ChainMapError("restriction fails the degree--1 square")
    if matmul(target.d_zero, map_zero) != matmul(map_one, source.d_zero):
        raise ChainMapError("restriction fails the degree-0 square")
    return Restriction(target, map_neg, map_zero, map_one)
