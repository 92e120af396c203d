import hashlib
import os
import random
import subprocess
import sys
from dataclasses import replace
from itertools import combinations, product
from math import gcd
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from gcoh import fcomplex, intlinalg
from gcoh.cohomology import cohomology_groups, critical_columns, d0_matrix
from gcoh.forest import build_forest, torsion_structure
from gcoh.graphs import (
    WeightedGraph,
    bipartition,
    components,
    full_subgraph,
    p_valuation,
)
from gcoh.intlinalg import (
    AbelianGroup,
    IntMatrix,
    check_smith,
    cokernel_structure,
    determinant,
    direct_sum,
    FACTORIZE_BOUND,
    factorize,
    kernel_mod,
    matmul,
    mat_vec,
    matrix,
    smith_normal_form,
    solve_mod,
    span_exponent_mod,
)
from gcoh.verify import random_connected
from references import (
    hermite_rows_by_columns,
    identity_matrix,
    min_degree_order,
    zero_matrix,
)


def minors_gcd(a: IntMatrix, k: int) -> int:
    """gcd of all k x k minors; independent oracle for elementary divisors."""
    g = 0
    for rows in combinations(range(a.rows), k):
        for cols in combinations(range(a.cols), k):
            sub = matrix([[a[i, j] for j in cols] for i in rows])
            g = gcd(g, determinant(sub))
    return g


def divisors_by_minors(a: IntMatrix) -> list[int]:
    """Elementary divisors via gcds of minors (classical determinant oracle)."""
    out = []
    prev = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        g = minors_gcd(a, k)
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


D0_K3 = matrix([[1, 27, 0], [3, 0, 27], [0, 3, 1]])  # rows RG,RB,GB; cols R,G,B


def test_snf_diagonal_examples():
    assert smith_normal_form(matrix([[2, 0], [0, 3]])).divisors == (1, 6)
    dec = smith_normal_form(zero_matrix(2, 3))
    assert dec.diagonal == ()
    assert dec.u == identity_matrix(2) and dec.v == identity_matrix(3)
    # worked K3 example, cross-checked against the minors oracle
    assert divisors_by_minors(D0_K3) == [1, 1, 162]
    assert smith_normal_form(D0_K3).divisors == (1, 1, 162)


@pytest.mark.parametrize("entry", [1.7, 2.0, "3", True, None],
                         ids=["fraction", "float", "string", "bool", "none"])
def test_matrix_refuses_entries_that_are_not_integers(entry):
    # int() would read the first four as 1, 2, 3 and 1
    with pytest.raises(ValueError, match="integers"):
        matrix([[1, 0], [0, entry]])
    with pytest.raises(ValueError, match="integers"):
        matrix([[entry]])
    assert matrix([[1, 0], [0, 3]]).entries == ((1, 0), (0, 3))


def test_snf_empty_shapes():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        dec = smith_normal_form(zero_matrix(*shape))
        assert dec.diagonal == ()
        assert dec.s.rows == shape[0] and dec.s.cols == shape[1]


def test_cokernel_examples():
    assert cokernel_structure(matrix([[6, 4]])) == AbelianGroup(0, (2,))
    assert cokernel_structure(zero_matrix(3, 0)) == AbelianGroup(3)
    assert cokernel_structure(D0_K3) == AbelianGroup(0, (162,))


def brute_kernel_mod(a: IntMatrix, p: int, s: int) -> set:
    ps = p ** s
    out = set()
    for x in product(range(ps), repeat=a.cols):
        if all(v % ps == 0 for v in mat_vec(a, x)):
            out.add(x)
    return out


def span_mod(gens, n, p, s) -> set:
    ps = p ** s
    out = {(0,) * n}
    frontier = [(0,) * n]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = tuple((x + y) % ps for x, y in zip(v, g))
            if w not in out:
                out.add(w)
                frontier.append(w)
    return out


def test_kernel_mod_examples():
    # [6 4] mod 2: everything
    a = matrix([[6, 4]])
    gens = kernel_mod(a, 2, 1)
    assert span_mod(gens, 2, 2, 1) == brute_kernel_mod(a, 2, 1)
    assert len(brute_kernel_mod(a, 2, 1)) == 4

    # triangle(1,1,1) at p=3: invertible mod 3 (det -2), only zero
    tri = matrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert determinant(tri) == -2
    assert brute_kernel_mod(tri, 3, 1) == {(0, 0, 0)}
    assert span_mod(kernel_mod(tri, 3, 1), 3, 3, 1) == {(0, 0, 0)}

    # triangle(2,1,1) at p=2, s=2: cyclic, generated by (-2, 1, -1)
    tri2 = matrix([[1, 2, 0], [1, 0, 2], [0, 1, 1]])
    ker = brute_kernel_mod(tri2, 2, 2)
    assert ker == span_mod([(2, 1, 3)], 3, 2, 2)  # (-2,1,-1) mod 4
    assert span_mod(kernel_mod(tri2, 2, 2), 3, 2, 2) == ker


def test_solve_mod_examples():
    ident = identity_matrix(3)
    assert solve_mod(ident, [5, 0, 2], 3, 2) == (5, 0, 2)
    assert solve_mod(matrix([[3]]), [1], 3, 2) is None
    assert solve_mod(matrix([[3]]), [3], 3, 2) == (1,)
    # no rows: trivially solvable
    assert solve_mod(zero_matrix(0, 2), [], 2, 3) == (0, 0)


def test_solve_integer():
    a = smith_normal_form(matrix([[2, 0], [0, 3]]))
    assert a.solve([4, 9]) == (2, 3)
    assert a.solve([1, 0]) is None
    zero = smith_normal_form(zero_matrix(2, 2))
    assert zero.solve([0, 0]) == (0, 0)
    assert zero.solve([1, 0]) is None


def test_group_invariants():
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 6))
    g = AbelianGroup(2, (2, 6))
    assert g.torsion_order == 12
    assert g.p_exponent(2) == 2
    assert g.p_exponent(3) == 1
    assert g.p_part_exponents(2) == (1, 1)


def test_direct_sum_canonical():
    a = AbelianGroup(1, (6,))
    b = AbelianGroup(0, (4,))
    assert direct_sum(a, b) == AbelianGroup(1, (2, 12))
    assert direct_sum(b, a) == AbelianGroup(1, (2, 12))
    assert direct_sum(AbelianGroup(0, (2,)), b) == AbelianGroup(0, (2, 4))
    assert direct_sum(AbelianGroup(2), AbelianGroup(0)) == AbelianGroup(2)
    # the p-primary parts of a sum are the unions of the summands' parts
    rng = random.Random(8)
    for _ in range(200):
        groups = []
        for _ in range(2):
            chain = [1]
            for _ in range(rng.randint(0, 3)):
                chain.append(chain[-1] * rng.randint(1, 12))
            groups.append(AbelianGroup(rng.randint(0, 2),
                                       tuple(d for d in chain if d > 1)))
        got = direct_sum(*groups)
        assert got.rank == groups[0].rank + groups[1].rank
        for p in (2, 3, 5, 7, 11):
            assert got.p_part_exponents(p) == tuple(sorted(
                groups[0].p_part_exponents(p) + groups[1].p_part_exponents(p)))


def test_direct_sum_past_the_factorization_bound():
    q = 2 ** 61 - 1  # a Mersenne prime; trial division up to its root fails
    assert q > FACTORIZE_BOUND ** 2
    assert direct_sum(AbelianGroup(0, (q,)), AbelianGroup(0, (2,))) \
        == AbelianGroup(0, (2 * q,))
    assert direct_sum(AbelianGroup(1, (2 * q,)), AbelianGroup(0, (6,))) \
        == AbelianGroup(1, (2, 6 * q))


def test_factorize():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}


small_matrices = st.lists(
    st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=4),
    min_size=1, max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_snf_invariants(rows):
    a = matrix(rows)
    dec = smith_normal_form(a)
    assert matmul(matmul(dec.u, a), dec.v) == dec.s
    assert abs(determinant(dec.u)) == 1
    assert abs(determinant(dec.v)) == 1
    assert all(d > 0 for d in dec.diagonal)
    chain = dec.divisors
    for x, y in zip(chain, chain[1:]):
        assert y % x == 0
    off = [dec.s[i, j] for i in range(dec.s.rows) for j in range(dec.s.cols) if i != j]
    assert all(x == 0 for x in off)
    # oracle: divisors from gcds of minors
    assert list(chain) == divisors_by_minors(a)


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_cokernel_invariant_under_permutation(rows):
    a = matrix(rows)
    rng = random.Random(7)
    perm_rows = list(range(a.rows))
    perm_cols = list(range(a.cols))
    rng.shuffle(perm_rows)
    rng.shuffle(perm_cols)
    b = matrix([[a[i, j] for j in perm_cols] for i in perm_rows])
    assert cokernel_structure(a) == cokernel_structure(b)


@settings(max_examples=40, deadline=None)
@given(small_matrices, st.sampled_from([2, 3]), st.integers(2, 3))
def test_kernel_mod_reduction_property(rows, p, s):
    # Reductions of mod-p**s kernel elements are mod-p**(s-1) kernel
    # elements (the reverse containment fails already for A = [p]).
    a = matrix(rows)
    gens_s = kernel_mod(a, p, s)
    gens_s1 = kernel_mod(a, p, s - 1)
    reduced = [tuple(x % p ** (s - 1) for x in g) for g in gens_s]
    base = span_exponent_mod(gens_s1, a.cols, p, s - 1)
    joined = span_exponent_mod(gens_s1 + reduced, a.cols, p, s - 1)
    assert joined == base


@settings(max_examples=30, deadline=None)
@given(small_matrices, st.sampled_from([2, 3]))
def test_kernel_mod_matches_brute_force(rows, p):
    a = matrix(rows)
    if a.cols > 3 or p ** a.cols > 300:
        return
    gens = kernel_mod(a, p, 1)
    assert span_mod(gens, a.cols, p, 1) == brute_kernel_mod(a, p, 1)


@settings(max_examples=40, deadline=None)
@given(small_matrices, st.sampled_from([2, 3]), st.integers(1, 3),
       st.data())
def test_solve_mod_solves(rows, p, s, data):
    a = matrix(rows)
    x0 = [data.draw(st.integers(0, p ** s - 1)) for _ in range(a.cols)]
    b = mat_vec(a, x0)
    x = solve_mod(a, b, p, s)
    assert x is not None
    ps = p ** s
    assert [v % ps for v in mat_vec(a, x)] == [v % ps for v in b]


def test_kernel_basis():
    # the columns of V past the rank are a lattice basis of the kernel
    a = matrix([[1, 1, 1]])
    dec = smith_normal_form(a)
    basis = [dec.v.column(j) for j in range(dec.rank, a.cols)]
    assert len(basis) == 2
    for v in basis:
        assert mat_vec(a, v) == (0,)


# --- the multiply-back product and the Hermite-compressed path ---------------

# Half the entries zero, as in edge-vertex matrices and near-identity transforms.
entries = st.one_of(st.just(0), st.integers(min_value=-30, max_value=30))


def shaped(rows, cols):
    """Matrices whose row and column counts are drawn from the two strategies."""
    return st.tuples(rows, cols).flatmap(lambda rc: st.lists(
        st.lists(entries, min_size=rc[1], max_size=rc[1]),
        min_size=rc[0], max_size=rc[0]).map(lambda r: matrix(r, ncols=rc[1])))


@st.composite
def small_graph_d0(draw):
    n = draw(st.integers(2, 6))
    names = [f"v{i}" for i in range(n)]
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9))
    weights = {v: draw(st.integers(1, 40)) for v in names}
    return d0_matrix(full_subgraph(WeightedGraph(weights, edges)))


tall_matrices = shaped(st.integers(5, 12), st.integers(1, 4))
wide_matrices = shaped(st.integers(1, 4), st.integers(5, 12))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_matmul_matches_triple_sum(m, k, n, data):
    a = data.draw(shaped(st.just(m), st.just(k)))
    b = data.draw(shaped(st.just(k), st.just(n)))
    naive = [[sum(a[i, l] * b[l, j] for l in range(k)) for j in range(n)]
             for i in range(m)]
    out = matmul(a, b)
    assert (out.rows, out.cols) == (m, n)
    assert out == matrix(naive, ncols=n)


def compressed_smith(a: IntMatrix):
    """The decomposition under the shape rule at gap 1: a matrix with more
    rows than columns takes the Hermite-compressed path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intlinalg, "COMPRESS_MIN_GAP", 1)
        return smith_normal_form(a)


@settings(max_examples=40, deadline=None)
@given(st.one_of(tall_matrices, wide_matrices, small_graph_d0()))
def test_snf_diagonal_on_full_and_compressed_paths(a):
    want = divisors_by_minors(a)
    full = smith_normal_form(a)
    assert full.hermite is None
    assert list(full.divisors) == want
    dec = compressed_smith(a)
    assert (dec.hermite is None) == (a.rows <= a.cols)
    assert list(dec.divisors) == want
    if dec.hermite is not None:
        assert max(dec.u.rows, dec.v.rows) <= a.cols
        assert dec.hermite.h.rows == len(want)  # the block has full row rank
    check_smith(a, dec)


@settings(max_examples=40, deadline=None)
@given(st.one_of(tall_matrices, small_graph_d0()))
def test_compressed_v_spans_the_kernel(a):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intlinalg, "COMPRESS_MIN_GAP", 1)
        dec = smith_normal_form(a)
        gens = kernel_mod(a, 3, 2)
    basis = [dec.v.column(j) for j in range(dec.rank, a.cols)]
    assert (dec.hermite is not None) == (a.rows > a.cols)
    assert dec.v.rows == a.cols
    assert len(basis) == a.cols - len(divisors_by_minors(a))
    assert all(not any(mat_vec(a, x)) for x in basis)
    assert all(all(y % 9 == 0 for y in mat_vec(a, x)) for x in gens)
    assert (span_exponent_mod(gens, a.cols, 3, 2)
            == span_exponent_mod(kernel_mod(a, 3, 2), a.cols, 3, 2))


@settings(max_examples=60, deadline=None)
@given(st.one_of(tall_matrices, small_graph_d0()),
       st.sampled_from([None, (2, 1), (2, 3), (3, 2), (5, 1)]), st.data())
def test_solve_through_the_block_matches_the_full_path(a, modulus, data):
    # b = A x0 + delta: solvable when delta is zero, often not otherwise
    x0 = data.draw(st.lists(st.integers(-9, 9), min_size=a.cols,
                            max_size=a.cols))
    delta = data.draw(st.lists(entries.map(lambda x: x % 4), min_size=a.rows,
                               max_size=a.rows))
    b = [x + d for x, d in zip(mat_vec(a, x0), delta)]
    full = smith_normal_form(a)
    dec = compressed_smith(a)
    assert (dec.hermite is not None) == (a.rows > a.cols)
    want, got = full.solve(b, modulus), dec.solve(b, modulus)
    assert (want is None) == (got is None)
    if not any(delta):
        assert got is not None
    m = 0 if modulus is None else modulus[0] ** modulus[1]
    for x in (want, got):
        if x is not None:
            assert all((y - z) % m == 0 if m else y == z
                       for y, z in zip(mat_vec(a, x), b))
    if modulus is not None:
        assert (solve_mod(a, b, *modulus) is None) == (want is None)


@settings(max_examples=40, deadline=None)
@given(wide_matrices, st.sampled_from([(2, 2), (3, 1), (5, 2)]))
def test_divisor_callers_hand_over_the_tall_side(a, modulus):
    want = divisors_by_minors(a)
    p, s = modulus
    ps = p ** s
    lattice = divisors_by_minors(matrix([list(row) + [ps if i == j else 0
                                                      for j in range(a.rows)]
                                         for i, row in enumerate(a.entries)]))
    decs = []

    def recorded(m):
        decs.append(smith_normal_form(m))
        return decs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intlinalg, "COMPRESS_MIN_GAP", 1)
        mp.setattr(intlinalg, "smith_normal_form", recorded)
        group = cokernel_structure(a)
        exponent = span_exponent_mod(a.columns(), a.rows, p, s)
    assert group == AbelianGroup(a.rows - len(want),
                                 tuple(d for d in want if d > 1))
    assert exponent == a.rows * s - sum(p_valuation(d, p) for d in lattice)
    assert len(decs) == 2 and all(d.hermite is not None for d in decs)


def test_shape_rule_picks_the_path():
    gap = intlinalg.COMPRESS_MIN_GAP
    tall = matrix([[i + 1, 2 * i] for i in range(gap + 2)])
    assert smith_normal_form(tall).hermite is not None
    assert smith_normal_form(tall.transpose()).hermite is None
    near_square = matrix([[i + 1, 2 * i] for i in range(gap + 1)])
    assert smith_normal_form(near_square).hermite is None
    with pytest.raises(TypeError):
        smith_normal_form(tall, transforms="v")


def bumped(m: IntMatrix) -> IntMatrix:
    rows = [list(r) for r in m.entries]
    rows[0][0] += 1
    return matrix(rows, ncols=m.cols)


def test_check_smith_fires_on_tampering():
    a = matrix([[3 * i + 1, 2 * i - 5, i * i]
                for i in range(intlinalg.COMPRESS_MIN_GAP + 3)])
    dec = smith_normal_form(a)
    block = dec.hermite
    assert block is not None
    check_smith(a, dec)
    for field in ("u", "s", "v"):
        with pytest.raises(AssertionError, match="Smith decomposition"):
            check_smith(a, replace(dec, **{field: bumped(getattr(dec, field))}))
    for field in ("h", "c", "r"):
        tampered = block._replace(**{field: bumped(getattr(block, field))})
        with pytest.raises(AssertionError, match="Hermite block"):
            check_smith(a, replace(dec, hermite=tampered))
    small = matrix(a.entries[:3])
    full = smith_normal_form(small)
    assert full.hermite is None
    check_smith(small, full)
    with pytest.raises(AssertionError, match="Smith decomposition"):
        check_smith(small, replace(full, s=bumped(full.s)))


def sympy_divisors(a: IntMatrix) -> tuple[int, ...]:
    """Nonzero invariant factors from sympy: an oracle independent of the
    engine that reaches sizes the minors oracle cannot."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    factors = invariant_factors(sympy.Matrix(a.rows, a.cols,
                                             [x for row in a.entries for x in row]),
                                domain=sympy.ZZ)
    return tuple(int(d) for d in factors if d)


zero_heavy_entries = st.sampled_from((0,) * 24 + (1, 2, 3, 4, 6, 9, -1, -2, -3, -4, -6, -9))


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 14), st.integers(1, 10)).flatmap(
    lambda rc: st.lists(st.lists(zero_heavy_entries, min_size=rc[1], max_size=rc[1]),
                        min_size=rc[0], max_size=rc[0])))
def test_snf_diagonal_matches_sympy_on_zero_heavy_matrices(rows):
    # many rounds with non-unit pivots and remainders: the cases in which
    # the pivot search reads cached row minima
    a = matrix(rows)
    want = sympy_divisors(a)
    assert smith_normal_form(a).divisors == want
    assert compressed_smith(a).divisors == want


def sparse_graph(rng: random.Random, n: int, p: int) -> WeightedGraph:
    """A random tree plus n/4 extra edges on n vertices, with weights
    p**a * u, a in 0..3 and u in 1..7 prime to p."""
    names = [f"v{i}" for i in range(n)]
    edges = {(names[rng.randrange(i)], names[i]) for i in range(1, n)}
    while len(edges) < n - 1 + n // 4:
        i, j = sorted(rng.sample(range(n), 2))
        edges.add((names[i], names[j]))
    units = [u for u in range(1, 8) if u % p]
    weights = {v: p ** rng.randint(0, 3) * rng.choice(units) for v in names}
    return WeightedGraph(weights, sorted(edges))


def sparse_graph_d0(seed: int) -> IntMatrix:
    """d0 of a `sparse_graph` on 20-40 vertices at p = 3."""
    rng = random.Random(seed)
    return d0_matrix(full_subgraph(sparse_graph(rng, rng.randint(20, 40), 3)))


@pytest.mark.parametrize("seed", range(8))
def test_snf_diagonal_matches_sympy_on_sparse_graphs(seed):
    a = sparse_graph_d0(seed)
    want = sympy_divisors(a)
    assert any(d > 1 for d in want)
    assert smith_normal_form(a).divisors == want
    dec = compressed_smith(a)
    assert dec.hermite is not None and dec.divisors == want


# --- the raw diagonal, the column order and the transforms at scale ----------

RAW_DIAGONALS = [
    (matrix([[2, 0], [0, 3]]), (2, 3), (1, 6)),
    (matrix([[4, 0, 0], [0, 6, 0], [0, 0, 9]]), (4, 6, 9), (1, 6, 36)),
    # tall, so compressed at gap 1
    (matrix([[0, 9, 0], [4, 0, 0], [0, 0, 6], [0, 0, 0]]), (4, 6, 9), (1, 6, 36)),
]


@pytest.mark.parametrize("a, raw, chain", RAW_DIAGONALS)
def test_per_column_callers_read_the_raw_diagonal(a, raw, chain):
    # the diagonal is no divisor chain, yet the callers that pair d_j with
    # column j of V agree with brute force modulo p**s
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intlinalg, "COMPRESS_MIN_GAP", 1)
        dec = smith_normal_form(a)
        assert (dec.hermite is not None) == (a.rows > a.cols)
        assert dec.diagonal == raw and dec.divisors == chain
        for p, s in product((2, 3), (1, 2)):
            ps = p ** s
            ker = brute_kernel_mod(a, p, s)
            assert span_mod(kernel_mod(a, p, s), a.cols, p, s) == ker
            lifted = {tuple(p * x % ps for x in v)
                      for v in brute_kernel_mod(a, p, s - 1)}
            crit = critical_columns(dec, p, s)
            assert p ** len(crit) == len(ker) // len(lifted)
            assert all(tuple(x % ps for x in dec.v.column(j)) in ker for j in crit)
            image = {tuple(y % ps for y in mat_vec(a, x))
                     for x in product(range(ps), repeat=a.cols)}
            for b in product(range(ps), repeat=a.rows):
                x = dec.solve(b, (p, s))
                assert (x is not None) == (b in image)
                assert x is None or tuple(y % ps for y in mat_vec(a, x)) == b


@pytest.mark.parametrize("n, seed", [(200, 0), (200, 3), (300, 1)])
def test_snf_matches_the_forest_at_benchmark_scale(n, seed):
    # the forest is an oracle for the p-parts independent of the SNF;
    # the rank of d0 is n minus the number of bipartite components
    for p in (2, 3, 5):
        g = sparse_graph(random.Random(seed), n, p)
        sub = full_subgraph(g)
        a = d0_matrix(sub)
        _, h1 = cohomology_groups(sub)
        assert list(h1.p_part_exponents(p)) == torsion_structure(build_forest(g, p))
        bipartite = sum(bipartition(c) is not None for c in components(sub))
        assert a.rows - h1.rank == n - bipartite
        if n == 200 and p == 3:
            # the elimination in the original column order: same divisors
            block = intlinalg._hermite_rows(a.data)[0]
            unordered = intlinalg._smith(block, len(block), a.cols)
            want = intlinalg.SmithDecomposition(*unordered).divisors
            assert h1 == AbelianGroup(a.rows - len(want),
                                      tuple(d for d in want if d > 1))


@pytest.mark.parametrize("seed", range(4))
def test_compressed_transforms_are_unimodular(seed):
    # check_smith proves U @ H @ V == S, not that U and V are invertible
    rng = random.Random(seed)
    a = d0_matrix(full_subgraph(sparse_graph(rng, rng.randint(40, 60), 3)))
    assert intlinalg._degree_order(a.data, a.cols) != list(range(a.cols))
    dec = compressed_smith(a)
    assert dec.hermite is not None
    assert abs(determinant(dec.u)) == abs(determinant(dec.v)) == 1


def dense_graph(rng: random.Random, n: int, density: float, weight) -> WeightedGraph:
    """A random tree on n vertices plus each other pair with probability
    density; vertex weights drawn by weight(rng)."""
    names = [f"v{i}" for i in range(n)]
    edges = {(names[rng.randrange(i)], names[i]) for i in range(1, n)}
    edges |= {(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
              if rng.random() < density}
    return WeightedGraph({v: weight(rng) for v in names}, sorted(edges))


def decomposition_digest(dec) -> str:
    """sha256 over the entries of U, S, V and, when set, H, C and R."""
    parts = [dec.u, dec.s, dec.v, *(dec.hermite or ())]
    return hashlib.sha256(repr([m.entries for m in parts]).encode()).hexdigest()


# d0 of seeded graphs on both paths.  The full-path digest was recorded
# with the dense Smith elimination, so a rewrite of it must take the same
# pivots.  The three compressed digests were re-recorded when the Hermite
# block came to be built by row insertion (a different, reduced H, so new
# U, V, C and R), and again when the columns came to be ordered by degree
# in place of minimum-degree elimination (a different column order, so a
# different H); the divisors did not change either time.
# test_row_insertion_matches_the_column_elimination_on_d0 checks the block
# against the column elimination it replaced, and
# test_degree_order_matches_the_minimum_degree_order the column order.
PINNED_DECOMPOSITIONS = {
    "sparse-unit-110": (
        lambda: sparse_graph(random.Random(7), 110, 3), True,
        "50f95db4d40c8024fcbb91617323827650efeff477d376ca47b7e8086ab7854d"),
    "dense-ppower-36": (
        lambda: dense_graph(random.Random(36), 36, 0.32, lambda r: 3 ** r.randint(0, 3)),
        True, "a368267b7caf0249ac1cfcb1b043ade6f9ff92c76009b48decb13bbaa1118f7b"),
    "dense-generic-18": (
        lambda: dense_graph(random.Random(18), 18, 0.5, lambda r: r.randint(1, 10 ** 6)),
        True, "a037899b4cae6b70ee55aac7f09ebbb4befc4245b322410a7696fb549265cfb8"),
    "full-path-30": (
        lambda: sparse_graph(random.Random(30), 30, 5), False,
        "96743c1f11fe01c71d9c36d8f20ce3a0c2a04ec0970c88ddd599299a71be595d"),
}


@pytest.mark.parametrize("name", PINNED_DECOMPOSITIONS)
def test_decompositions_are_pinned(name):
    graph, compressed, want = PINNED_DECOMPOSITIONS[name]
    a = d0_matrix(full_subgraph(graph()))
    dec = smith_normal_form(a)
    assert (dec.hermite is not None) == compressed
    assert decomposition_digest(dec) == want


def outputs_under_hash_seeds(code: str, seeds: Sequence[str]) -> list[str]:
    """What `python -c code` prints under each PYTHONHASHSEED, with this
    package and the tests' directory (argv[1]) importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(intlinalg.__file__).resolve().parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return [subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)],
                           env={**env, "PYTHONHASHSEED": seed}, capture_output=True,
                           timeout=120, check=True, text=True).stdout
            for seed in seeds]


def test_snf_is_independent_of_the_hash_seed():
    code = (
        "import random, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_intlinalg import d0_matrix, decomposition_digest, full_subgraph, sparse_graph\n"
        "from gcoh.intlinalg import smith_normal_form\n"
        "a = d0_matrix(full_subgraph(sparse_graph(random.Random(7), 110, 3)))\n"
        "dec = smith_normal_form(a)\n"
        "assert dec.hermite is not None\n"
        "print(decomposition_digest(dec))\n")
    digests = outputs_under_hash_seeds(code, ("0", "1"))
    assert len(digests[0]) == 65 and digests[0] == digests[1]


# --- sparse rounds against the dense elimination they replaced ---------------

def dense_smith(rows, m: int, n: int):
    """The elimination on dense S rows, kept as the reference for `_smith`:
    the same pivots, so the same U, S and V."""
    s = [list(row) for row in rows]
    u = [{i: 1} for i in range(m)]
    vt = [{j: 1} for j in range(n)]
    low = [None] * m
    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            lo = low[i]
            if lo is None:
                lo = low[i] = min(filter(None, map(abs, s[i][t:])), default=0)
            if lo and (best is None or lo < best):
                best, pivot = lo, i
                if lo == 1:
                    break
        if pivot is None:
            break
        j = t + list(map(abs, s[pivot][t:])).index(best)
        if pivot != t:
            s[t], s[pivot] = s[pivot], s[t]
            u[t], u[pivot] = u[pivot], u[t]
            low[t], low[pivot] = low[pivot], low[t]
        if j != t:
            for row in s[t:]:
                row[t], row[j] = row[j], row[t]
            vt[t], vt[j] = vt[j], vt[t]
        top, u_top = s[t], u[t]
        p = top[t]
        top_t = top[t:]
        dirty = False
        for i in range(t + 1, m):
            x = s[i][t]
            if x:
                c = -(x // p)
                s[i][t:] = [a + c * b for a, b in zip(s[i][t:], top_t)]
                intlinalg._add_scaled(u[i], c, u_top.items())
                low[i] = None
                dirty = dirty or s[i][t] != 0
        live = [row for row in s[t:] if row[t]]
        v_top = vt[t].items()
        for j in range(t + 1, n):
            x = top[j]
            if x:
                c = -(x // p)
                for row in live:
                    row[j] += c * row[t]
                intlinalg._add_scaled(vt[j], c, v_top)
                dirty = dirty or top[j] != 0
        if dirty:
            low[t] = None
            continue
        if p < 0:
            s[t] = [-x for x in top]
            u[t] = {k: -x for k, x in u_top.items()}
        t += 1
    return (IntMatrix(u, m), matrix(s, ncols=n), IntMatrix(vt, n).transpose())


ZERO_HEAVY = (0,) * 24 + (1, 2, 3, 4, 6, 9, -1, -2, -3, -4, -6, -9)


def test_sparse_rounds_take_the_dense_pivots():
    rng = random.Random(18)
    shapes = set()
    for _ in range(3000):
        m, n = rng.randint(0, 14), rng.randint(0, 10)
        rows = [tuple(rng.choice(ZERO_HEAVY) for _ in range(n)) for _ in range(m)]
        sparse = matrix(rows, ncols=n).data
        assert intlinalg._smith(sparse, m, n) == dense_smith(rows, m, n)
        shapes.add((m > 0, n > 0))
    assert len(shapes) == 4  # 0-row and 0-column shapes were drawn


def test_eliminations_leave_their_input_rows_unchanged():
    rng = random.Random(21)
    shapes = set()
    for _ in range(600):
        m, n = rng.randint(0, 14), rng.randint(0, 10)
        rows = matrix([[rng.choice(ZERO_HEAVY) for _ in range(n)] for _ in range(m)],
                      ncols=n).data
        given = repr(rows)
        block = intlinalg._hermite_rows(rows)[0]
        assert repr(rows) == given
        for s in (rows, block):
            before = repr(s)
            intlinalg._smith(s, len(s), n)
            assert repr(s) == before
        shapes.add((m > 0, n > 0))
    assert len(shapes) == 4  # 0-row and 0-column shapes were drawn


# --- the Hermite block by row insertion against the column elimination ------

def is_reduced_echelon(h: Sequence[dict[int, int]]) -> bool:
    """Leading columns strictly increase, and every entry above a pivot p
    has absolute value at most |p|/2."""
    leads = [min(row) for row in h]
    return (leads == sorted(set(leads))
            and all(2 * abs(h[i].get(j, 0)) <= abs(h[k][j])
                    for k, j in enumerate(leads) for i in range(k)))


def assert_blocks_agree(rows: list[dict[int, int]], n: int) -> None:
    """Both eliminations certify their blocks, which have the same row
    count and the same divisors; the row insertion's block is reduced."""
    a = IntMatrix(rows, n)
    blocks = (intlinalg._hermite_rows(rows), hermite_rows_by_columns(rows, n))
    divisors = []
    for h, c, r in blocks:
        assert matmul(c, IntMatrix(h, n)) == a and matmul(r, a) == IntMatrix(h, n)
        divisors.append(intlinalg.SmithDecomposition(*intlinalg._smith(h, len(h), n)).divisors)
    assert len(blocks[0][0]) == len(blocks[1][0]) and divisors[0] == divisors[1]
    assert is_reduced_echelon(blocks[0][0])


ORACLE_FAMILIES = {
    "dense-ppower": lambda rng, p: dense_graph(rng, rng.randint(32, 40), 0.32,
                                               lambda r: p ** r.randint(0, 3)),
    "dense-generic": lambda rng, p: dense_graph(rng, rng.randint(16, 20), 0.5,
                                                lambda r: r.randint(1, 10 ** 6)),
    "sparse-unit": lambda rng, p: sparse_graph(rng, rng.randint(80, 110), p),
}


@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_row_insertion_matches_the_column_elimination_on_d0(family):
    # in the elimination's column order, as the compressed path runs it
    for seed in range(6):
        rng = random.Random(seed)
        a = d0_matrix(full_subgraph(ORACLE_FAMILIES[family](rng, (3, 5)[seed % 2])))
        order = intlinalg._degree_order(a.data, a.cols)
        back = sorted(range(a.cols), key=order.__getitem__)
        assert_blocks_agree([{back[j]: x for j, x in row.items()} for row in a.data], a.cols)


def test_row_insertion_matches_the_column_elimination_on_zero_heavy_shapes():
    rng = random.Random(23)
    shapes = set()
    for _ in range(600):
        m, n = rng.randint(0, 14), rng.randint(0, 10)
        rows = [tuple(rng.choice(ZERO_HEAVY) for _ in range(n)) for _ in range(m)]
        assert_blocks_agree(matrix(rows, ncols=n).data, n)
        shapes.add((m > 0, n > 0))
    assert len(shapes) == 4  # 0-row and 0-column shapes were drawn


def generic_weight_graph(seed: int, n: int) -> WeightedGraph:
    """A random tree on n vertices plus random extra edges up to 1.5 n,
    with weights b**k * u: b from {1, 2, 3, 4, 5, 6, 9, 15, 45}, k in
    0..3 and u from {1, 7, 77}."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    edges = {(names[rng.randrange(i)], names[i]) for i in range(1, n)}
    while len(edges) < 3 * n // 2:
        i, j = sorted(rng.sample(range(n), 2))
        edges.add((names[i], names[j]))
    weights = {v: rng.choice((1, 2, 3, 4, 5, 6, 9, 15, 45)) ** rng.randint(0, 3)
               * rng.choice((1, 7, 77)) for v in names}
    return WeightedGraph(weights, sorted(edges))


def eliminated(a: IntMatrix, order_of) -> intlinalg.SmithDecomposition:
    """smith_normal_form(a), its compressed path ordering the columns by
    order_of, with H relabelled into that order, where it is echelon."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intlinalg, "_degree_order", order_of)
        dec = smith_normal_form(a)
    assert dec.hermite is not None
    back = sorted(range(a.cols), key=order_of(a.data, a.cols).__getitem__)
    h = IntMatrix([{back[j]: x for j, x in row.items()} for row in dec.hermite.h.data], a.cols)
    return replace(dec, hermite=dec.hermite._replace(h=h))


@pytest.mark.parametrize("family", [*ORACLE_FAMILIES, "generic-weight-200"])
def test_degree_order_matches_the_minimum_degree_order(family):
    # the compressed path under both column orders: each result passed
    # check_smith, the divisors agree and H is reduced in its own order;
    # check_smith does not prove U and V invertible, so small ones are
    # checked by determinant
    for seed in range(6) if family in ORACLE_FAMILIES else range(2):
        if family in ORACLE_FAMILIES:
            g = ORACLE_FAMILIES[family](random.Random(seed), (3, 5)[seed % 2])
        else:
            g = generic_weight_graph(seed, 200)
        a = d0_matrix(full_subgraph(g))
        decs = [eliminated(a, order_of) for order_of in (intlinalg._degree_order, min_degree_order)]
        assert decs[0].divisors == decs[1].divisors
        for dec in decs:
            assert is_reduced_echelon(dec.hermite.h.data)
            if a.cols <= 60:
                assert abs(determinant(dec.u)) == abs(determinant(dec.v)) == 1


@pytest.mark.parametrize("n, seed", [(200, 0), (200, 1), (300, 0), (300, 1)])
def test_snf_matches_the_forest_on_generic_weights(n, seed):
    # generic weights once grew the exact transforms to tens of thousands
    # of bits at n = 300; the forest gives each p-part independently
    g = generic_weight_graph(seed, n)
    sub = full_subgraph(g)
    _, h1 = cohomology_groups(sub)
    for p in (2, 3, 5, 7):
        assert list(h1.p_part_exponents(p)) == torsion_structure(build_forest(g, p))
    bipartite = sum(bipartition(c) is not None for c in components(sub))
    assert len(g.edges) - h1.rank == n - bipartite


def test_matmul_matches_triple_sum_on_seeded_shapes():
    rng = random.Random(19)
    shapes = [(0, 3, 4), (3, 0, 4), (4, 3, 0), (0, 0, 0), (1, 1, 1)]
    shapes += [(rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)) for _ in range(60)]
    for m, k, n in shapes:
        bits = rng.choice((4, 300, 700))

        def draw(r, c):
            return matrix([[rng.choice((0, 0, 1)) * rng.randint(-2 ** bits, 2 ** bits)
                            for _ in range(c)] for _ in range(r)], ncols=c)

        a, b = draw(m, k), draw(k, n)
        naive = [[sum(a[i, l] * b[l, j] for l in range(k)) for j in range(n)]
                 for i in range(m)]
        out = matmul(a, b)
        assert (out.rows, out.cols) == (m, n)
        assert out == matrix(naive, ncols=n)


def bumped_at(m: IntMatrix, i: int, j: int) -> IntMatrix:
    rows = [list(r) for r in m.entries]
    rows[i][j] += 1
    return matrix(rows, ncols=m.cols)


def test_check_smith_fires_on_every_tampered_entry():
    # A has no zero row and no zero column, so each single-entry change of
    # U, S, V, H, C or R moves one of the products it must multiply back to
    a = d0_matrix(full_subgraph(sparse_graph(random.Random(3), 24, 3)))
    assert all(any(row) for row in a.entries) and all(map(any, a.columns()))
    rng = random.Random(20)
    full, compressed = smith_normal_form(a), compressed_smith(a)
    assert full.hermite is None and compressed.hermite is not None
    for dec in (full, compressed):
        check_smith(a, dec)
        fields = [("Smith decomposition", f, getattr(dec, f),
                   lambda f, m: replace(dec, **{f: m})) for f in ("u", "s", "v")]
        if dec.hermite is not None:
            fields += [("Hermite block", f, getattr(dec.hermite, f),
                        lambda f, m: replace(dec, hermite=dec.hermite._replace(**{f: m})))
                       for f in ("h", "c", "r")]
        for message, field, m, tampered in fields:
            cells = [(i, j) for i in range(m.rows) for j in range(m.cols)]
            for nonzero in (False, True):
                i, j = rng.choice([ij for ij in cells if bool(m[ij]) == nonzero])
                with pytest.raises(AssertionError, match=message):
                    check_smith(a, tampered(field, bumped_at(m, i, j)))


# --- a matrix is its nonzeros ------------------------------------------------

def stores_no_zero(m: IntMatrix) -> bool:
    """Every stored entry is nonzero and inside the shape."""
    return (len(m.data) == m.rows
            and all(x and 0 <= j < m.cols for row in m.data for j, x in row.items()))


def test_no_matrix_stores_a_zero():
    # equality and hashing compare the stored rows, so they hold only if
    # no builder keeps a zero, a sum that cancels included
    rng = random.Random(22)

    def draw(r, c):
        return matrix([[rng.choice(ZERO_HEAVY) for _ in range(c)] for _ in range(r)], ncols=c)

    def stacked(x, y):
        return matrix([*x.entries, *y.entries], ncols=x.cols)

    def combined(x, y, f):
        return matrix([map(f, rx, ry) for rx, ry in zip(x.entries, y.entries)], ncols=x.cols)

    built, blocks = [], 0
    for _ in range(300):
        m, k, n = rng.randint(0, 12), rng.randint(0, 8), rng.randint(0, 8)
        a, b, c = draw(m, k), draw(k, n), draw(k, n)
        twice = matrix([row * 2 for row in a.entries], ncols=2 * k)  # [A | A]
        # [A | A] @ [B ; -B] == 0 and [A | A] @ [B ; C - B] == A @ C
        zero = matmul(twice, stacked(b, combined(b, b, lambda x, _: -x)))
        assert zero == zero_matrix(m, n) and zero.is_zero()
        assert hash(zero) == hash(zero_matrix(m, n))
        ac = matmul(twice, stacked(b, combined(c, b, int.__sub__)))
        assert ac == matmul(a, c) and hash(ac) == hash(matmul(a, c))
        built += [a, a.transpose(), zero, ac]
        for dec in (smith_normal_form(a), compressed_smith(a)):
            built += [dec.u, dec.s, dec.v, *(dec.hermite or ())]
            blocks += dec.hermite is not None
    for _ in range(60):
        g = random_connected(rng, 7, 3, 3)
        a = d0_matrix(full_subgraph(g))
        fc = fcomplex.fundamental_complex(build_forest(g, 3))
        built += [a, fc.d_neg, fc.d_zero]
        for dec in (smith_normal_form(a), compressed_smith(a)):
            built += [dec.u, dec.s, dec.v, *(dec.hermite or ())]
            blocks += dec.hermite is not None
    # the fundamental complex's column builder adds terms on one row
    built.append(fcomplex._columns(2, [[(0, 3), (1, 1), (0, -3)], []]))
    assert built[-1] == matrix([[0, 0], [1, 0]])
    assert blocks >= 100  # the compressed path ran, so H, C and R were built
    assert all(map(stores_no_zero, built))
