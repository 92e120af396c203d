"""Exact integer linear algebra: Smith normal form and friends.

This is the oracle everything else is checked against, so every Smith
decomposition is checked exactly before it is returned (`check_smith`).
An `IntMatrix` is its sparse rows, dicts {col: value} of the nonzero
entries, which are Python ints (arbitrary precision); it is dense only
when `matrix` reads it and when `entries` writes it out.

One shape rule decides the path.  A matrix with at least
COMPRESS_MIN_GAP more rows than columns has its columns ordered by
degree, ties by index, is row-reduced to an echelon Hermite block H,
certified by A == C @ H and H == R @ A, and the SNF runs on H with
transforms no larger than cols x cols; V absorbs the column order.  Any
other matrix goes through the SNF as it is.  Callers that read only the
divisors and the rank hand over the tall orientation (they do not
change under transposition), kernels read V (row compression keeps the
kernel), and solving goes through the block (`SmithDecomposition.solve`).
The Hermite block is built by inserting A's rows one at a time into an
echelon basis that stays reduced, so no entry above a pivot outgrows
it; the Smith pivots are entries of minimal absolute value.  Both keep
coefficient growth down.  S is diagonal; its divisor chain comes from
gcd/lcm on the scalars.  The SNF takes A's rows as they are, the column
order relabels their keys, and both eliminations run on dict rows
without changing their input and without a column index (the Smith
blocks are small or square, where scanning the rows is cheaper than
keeping one; a Smith column swap permutes two index lists, not the
rows' keys).  H, U, S, V, R and C are the rows they built, and the
multiply-back products walk only their nonzero entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from typing import Iterable, NamedTuple, Optional, Sequence

from .graphs import p_valuation

Vector = tuple[int, ...]


class IntMatrix:
    """Integer matrix with explicit shape, held as its sparse rows.

    `data[i]` is row i as a dict {col: value} of its nonzero entries.  No
    zero is ever stored, so equal matrices have equal rows and hashes.
    The explicit shape lets zero-row and zero-column matrices (edgeless
    graphs, empty generator lists) behave like any other.  The rows are
    taken as given and must not change afterwards.  `matrix` is the one
    dense reader, `entries` the one dense writer.
    """

    __slots__ = ("data", "rows", "cols")

    def __init__(self, data: list[dict[int, int]], ncols: int):
        self.data = data
        self.rows = len(data)
        self.cols = ncols

    @property
    def entries(self) -> tuple[Vector, ...]:
        """The rows as dense tuples."""
        return tuple(tuple(row.get(j, 0) for j in range(self.cols)) for row in self.data)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not 0 <= j < self.cols:
            raise IndexError(ij)
        return self.data[i].get(j, 0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(frozenset(row.items()) for row in self.data)))

    def column(self, j: int) -> Vector:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        return tuple(row.get(j, 0) for row in self.data)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return not any(self.data)

    def transpose(self) -> "IntMatrix":
        cols: list[dict[int, int]] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, x in row.items():
                cols[j][i] = x
        return IntMatrix(cols, self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {self.entries!r})"


def matrix(rows: Iterable[Iterable[int]], ncols: Optional[int] = None) -> IntMatrix:
    """The matrix of these dense rows.  An entry that is not an `int` (a
    bool, a float, a string) raises ValueError; none is converted."""
    dense = [list(row) for row in rows]
    bad = [x for row in dense for x in row if type(x) is not int]
    if bad:
        raise ValueError(f"matrix entries are integers, not {bad[0]!r}")
    widths = {len(row) for row in dense} or {ncols or 0}
    if len(widths) > 1:
        raise ValueError("ragged matrix")
    if ncols is not None and widths != {ncols}:
        raise ValueError("declared column count does not match entries")
    return IntMatrix([{j: x for j, x in enumerate(row) if x} for row in dense], widths.pop())


def matrix_from_columns(cols: Sequence[Sequence[int]], nrows: int) -> IntMatrix:
    """The matrix of these dense columns, each of length nrows."""
    return matrix(cols, ncols=nrows).transpose()


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """A @ B, row by row over the nonzero entries of both factors.

    The multiply-back checks run through here; their factors (edge-vertex
    matrices with two nonzeros a row, transforms close to the identity)
    are mostly zero, so the cost follows the nonzeros, not the shape.
    Entries that cancel to zero are dropped.
    """
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    b_rows = b.data
    out = []
    for row in a.data:
        acc: dict[int, int] = {}
        for k, x in row.items():
            for j, y in b_rows[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: z for j, z in acc.items() if z})
    return IntMatrix(out, b.cols)


def mat_vec(a: IntMatrix, v: Sequence[int]) -> Vector:
    if len(v) != a.cols:
        raise ValueError("vector length does not match column count")
    return tuple(sum(x * v[j] for j, x in row.items()) for row in a.data)


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = a.rows
    if n != a.cols:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = [list(row) for row in a.entries]
    sign = 1
    denom = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // denom
            m[i][k] = 0
        denom = m[k][k]
    return sign * m[n - 1][n - 1]


class HermiteBlock(NamedTuple):
    """A block H of full row rank with A == C @ H and H == R @ A, echelon
    in the elimination's column order.

    The two identities make each row lattice contain the other, so A and
    H have the same elementary divisors, the same integer kernel and the
    same kernel mod p**s; since H has full row rank, R @ C is the identity.
    """

    h: IntMatrix
    c: IntMatrix
    r: IntMatrix


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ B @ V == S with U, V unimodular and S diagonal; `divisors` is
    the chain.

    B is A itself, or the Hermite block `hermite.h` when that is set.
    `diagonal` pairs d_j with column j of V; it need not be a chain.
    """

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix
    hermite: Optional[HermiteBlock] = None

    @property
    def diagonal(self) -> tuple[int, ...]:
        # S's nonzero rows come first, row i holding d_i in column i
        return tuple(row[i] for i, row in enumerate(self.s.data) if row)

    @property
    def divisors(self) -> tuple[int, ...]:
        """A's elementary divisors d1 | d2 | ... | dr, units included."""
        return _divisor_chain(self.diagonal)

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    def solve(self, b: Sequence[int],
              modulus: Optional[tuple[int, int]] = None) -> Optional[Vector]:
        """Some x with A x = b, or with A x = b mod p**s when modulus is
        (p, s); None if there is none.

        With U @ B @ V == S, B x = c exactly when S y = U c and x = V y.
        On the full path B is A and c is b.  On the compressed path B is
        H and c is R @ b: A x = b (mod p**s) exactly when C @ c = b and
        H x = c (mod p**s), because A == C @ H and H == R @ A.
        """
        block = self.hermite
        rows = self.u.rows if block is None else block.c.rows
        if len(b) != rows:
            raise ValueError("right-hand side length does not match row count")
        p, s = modulus if modulus is not None else (None, 0)
        if s < 0:
            raise ValueError("negative modulus exponent")
        ps = None if p is None else p ** s

        def red(x: int) -> int:
            return x if ps is None else x % ps

        if block is not None:
            y = mat_vec(block.r, b)
            if any(red(x - z) for x, z in zip(mat_vec(block.c, y), b)):
                return None
            b = y
        c = [red(x) for x in mat_vec(self.u, b)]
        diag = self.diagonal
        if any(c[len(diag):]):
            return None
        y = [0] * self.v.rows
        for i, d in enumerate(diag):
            ci = c[i]
            if p is None:
                y[i], r = divmod(ci, d)
                if r:
                    return None
            elif ci:
                vd = p_valuation(d, p)
                if vd >= s or p_valuation(ci, p) < vd:
                    return None
                y[i] = (ci // p ** vd) * pow(d // p ** vd, -1, ps) % ps
        return tuple(red(x) for x in mat_vec(self.v, y))


# Shape rule for the compressed path: it is taken when A has at least this
# many more rows than columns.  It saves the transform rows beyond the
# column count and pays for the Hermite certificate; on edge-vertex
# matrices the two break even near this gap.
COMPRESS_MIN_GAP = 20


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Compute U, S, V with U*B*V = S diagonal and positive.

    B is A, or its row Hermite block H when A has at least
    COMPRESS_MIN_GAP more rows than columns; there the elimination runs
    on A P for the column order P of `_degree_order`, columns by degree,
    ties by index; H keeps A's column order and V = P V'.  A's sparse
    rows are read as they are and P relabels their keys.  U and V
    accumulate the row and column operations, and the result passes
    `check_smith` before return.
    """
    rows, n = a.data, a.cols
    if a.rows - n >= COMPRESS_MIN_GAP:
        order = _degree_order(rows, n)
        back = sorted(range(n), key=order.__getitem__)  # order's inverse
        h, c, r = _hermite_rows([{back[j]: x for j, x in row.items()} for row in rows])
        u, s, v = _smith(h, len(h), n)
        h = IntMatrix([{order[k]: x for k, x in row.items()} for row in h], n)
        v = IntMatrix([v.data[k] for k in back], n)
        dec = SmithDecomposition(u, s, v, HermiteBlock(h, c, r))
    else:
        dec = SmithDecomposition(*_smith(rows, a.rows, n))
    check_smith(a, dec)
    return dec


def check_smith(a: IntMatrix, dec: SmithDecomposition) -> None:
    """Raise AssertionError unless `dec` multiplies back exactly: U*A*V == S,
    or A == C*H, H == R*A and U*H*V == S."""
    b = a
    block = dec.hermite
    if block is not None:
        if matmul(block.c, block.h) != a or matmul(block.r, a) != block.h:
            raise AssertionError("Hermite block certificate failed to multiply back")
        b = block.h
    if matmul(matmul(dec.u, b), dec.v) != dec.s:
        raise AssertionError("Smith decomposition failed to multiply back")


def _degree_order(rows: Sequence[dict[int, int]], n: int) -> list[int]:
    """The n columns by degree, the number of sparse rows they meet,
    ties by index."""
    degree = [0] * n
    for row in rows:
        for j in row:
            degree[j] += 1
    return sorted(range(n), key=degree.__getitem__)


def _hermite_rows(rows: Sequence[dict[int, int]]):
    """(H, C, R) with rows == C @ H and H == R @ rows, the sparse rows left
    as they are: H is an echelon block, kept as its sparse rows, and
    reduced: every entry above a pivot p has absolute value at most |p|/2.

    The rows enter one at a time into a basis with one row per pivot
    column (Kannan and Bachem, SIAM J. Comput. 8(4), 1979), latest last
    column first, ties by row index.  An entering row's leading entry is
    cleared against the basis row of its column: by one row step when the
    pivot divides it, else by a 2 x 2 extended-gcd step that leaves the
    gcd in the basis row.  At a column with no basis row the entering row
    becomes one.  A new or changed basis row has its entries at the later
    pivot columns reduced to symmetric remainders, and so have the basis
    rows above it at its pivot column, so no entry outgrows the pivot
    below it (Domich, Kannan and Trotter, Math. Oper. Res. 12, 1987).  A
    row's keys are walked upward on a heap, so no row is sorted.  R
    replays the step log backwards on sparse columns.  An entering row
    that clears to zero is no row of H, so its column of R stays zero and
    its row steps since its last 2 x 2 step (or since it entered) would
    replay to nothing: they leave the log.  C is solved back over the
    nonzeros of H, where a pivot alone clears the leading entry of each
    remainder.
    """
    s = [dict(row) for row in rows]
    basis: dict[int, int] = {}  # pivot column -> its row of s
    # (dst, src, c): row dst += c * row src;
    # (i, j, a, b, c, d): rows i and j become a*i + b*j and c*i + d*j
    log: list[tuple[int, ...]] = []

    def step(i: int, q: int, b: int, k: int, heap: list[int]) -> None:
        # row i -= q * basis row b of column k, whose later keys join the heap
        _add_scaled(s[i], -q, s[b].items())
        log.append((i, b, -q))
        for j in s[b]:
            if j > k:
                heappush(heap, j)

    def reduce(i: int, heap: list[int]) -> None:
        # basis row i's entries at the pivot columns on the heap (all past
        # its own) to symmetric remainders, upward
        row, done = s[i], -1
        while heap:
            k = heappop(heap)
            if k > done and k in row and k in basis:
                done, b = k, basis[k]
                if q := _nearest(row[k], s[b][k]):
                    step(i, q, b, k, heap)

    def settle(b: int, k: int) -> None:
        # basis row b is new or changed at pivot column k
        top = s[b]
        reduce(b, _later(top, k))
        p = top[k]
        for e in basis.values():
            if e != b and k in s[e] and (q := _nearest(s[e][k], p)):
                heap: list[int] = []
                step(e, q, b, k, heap)
                reduce(e, heap)

    for i in sorted(range(len(s)), key=lambda i: (-max(s[i], default=-1), i)):
        row, heap, done, start = s[i], _later(s[i], -1), -1, len(log)
        while heap:
            k = heappop(heap)
            if k <= done or k not in row:
                continue  # seen already, or cleared since it was pushed
            done = k
            b = basis.get(k)
            if b is None:
                basis[k] = i
                settle(i, k)
                break
            p, x = s[b][k], row[k]
            if x % p == 0:
                step(i, x // p, b, k, heap)
                continue
            g, a, c = _xgcd(p, x)
            s[b], s[i] = _combine(a, s[b], c, row), _combine(-x // g, s[b], p // g, row)
            log.append((b, i, a, c, -x // g, p // g))
            row, heap = s[i], _later(s[i], k)
            settle(b, k)
            start = len(log)
        else:
            del log[start:]  # row i cleared: these steps would add its zero column of R
    order = [basis[k] for k in sorted(basis)]  # H's rows, top to bottom
    t = len(order)
    r_cols: list[dict[int, int]] = [{} for _ in rows]
    for k, i in enumerate(order):
        r_cols[i] = {k: 1}
    for op in reversed(log):
        if len(op) == 3:
            dst, src, c = op
            _add_scaled(r_cols[src], c, r_cols[dst].items())
        else:
            i, j, a, b, c, d = op
            x, y = r_cols[i], r_cols[j]
            r_cols[i], r_cols[j] = _combine(a, x, c, y), _combine(b, x, d, y)
    h = [s[i] for i in order]
    del s, log  # freed before C is built
    pivots = {}  # pivot column -> (row of H, pivot entry, the row's other nonzeros)
    for k, (j, row) in enumerate(zip(sorted(basis), h)):
        pivots[j] = (k, row[j], [(c, x) for c, x in row.items() if c != j])
    c_rows = []
    for row in rows:
        rest, c = dict(row), {}  # rest is emptied as C is solved
        while rest:
            k, lead, tail = pivots[j := min(rest)]
            q = c[k] = rest.pop(j) // lead
            _add_scaled(rest, -q, tail)
        c_rows.append(c)
    return h, IntMatrix(c_rows, t), IntMatrix(r_cols, t).transpose()


def _later(row: dict[int, int], k: int) -> list[int]:
    """A heap of row's keys past k."""
    heap = [j for j in row if j > k]
    heapify(heap)
    return heap


def _nearest(x: int, p: int) -> int:
    """The q with |x - q p| <= |p| / 2: x - q p is the symmetric remainder."""
    q, r = divmod(x, p)
    return q + 1 if 2 * abs(r) > abs(p) else q


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x a + y b."""
    x, y, u, v = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, x, y, u, v = b, r, u, v, x - q * u, y - q * v
    return (a, x, y) if a > 0 else (-a, -x, -y)


def _combine(a: int, x: dict[int, int], b: int, y: dict[int, int]) -> dict[int, int]:
    """a x + b y on sparse vectors, keeping only the nonzeros."""
    out = {k: a * z for k, z in x.items()} if a else {}
    _add_scaled(out, b, y.items())
    return out


def _add_scaled(dst: dict[int, int], c: int, src: Iterable[tuple[int, int]]) -> None:
    """dst += c * src on sparse vectors; dst keeps only its nonzeros."""
    for k, x in src:
        y = dst.get(k, 0) + c * x
        if y:
            dst[k] = y
        else:
            dst.pop(k, None)


def _smith(rows: Sequence[dict[int, int]], m: int, n: int):
    """(U, S, V) for the m x n matrix of these sparse rows, left as they are.

    S is kept by sparse rows, U by sparse rows and V by sparse columns, so
    every step costs the nonzeros it touches.  Rows above the current
    pivot are finished (zero off the diagonal) and rows from the pivot
    down are zero left of it, so a step touches only the rows from the
    pivot down, and a row's entries are all at or right of the pivot
    column.  A column swap touches no row: the rows from the pivot down
    keep their keys, `key` maps a logical column to its key there and
    `col` maps back, and a finished row is written under its logical
    column.
    """
    s = [dict(row) for row in rows]
    u: list[dict[int, int]] = [{i: 1} for i in range(m)]
    vt: list[dict[int, int]] = [{j: 1} for j in range(n)]
    key, col = list(range(n)), list(range(n))
    low: list[Optional[int]] = [None] * m  # least |x| of row i's entries; None: stale
    t = 0
    while t < min(m, n):
        # Re-pick the pivot every round: the first entry of least absolute
        # value in row-major order (a unit cannot be beaten, so the scan
        # stops there).  Remainders from the quotient steps keep shrinking
        # it, which both guarantees termination and keeps coefficient
        # growth tame.  A row's least entry is recomputed only after a
        # step changed the row: a row no step touched has no entry in
        # column t, so moving past column t keeps its nonzero entries.
        pivot = None
        best = None
        for i in range(t, m):
            lo = low[i]
            if lo is None:
                lo = low[i] = min(map(abs, s[i].values()), default=0)
            if lo and (best is None or lo < best):
                best, pivot = lo, i
                if lo == 1:
                    break
        if pivot is None:
            break
        j = min([col[k] for k, x in s[pivot].items() if abs(x) == best])
        if pivot != t:
            s[t], s[pivot] = s[pivot], s[t]
            u[t], u[pivot] = u[pivot], u[t]
            low[t], low[pivot] = low[pivot], low[t]
        if j != t:
            col[key[t]], col[key[j]] = j, t
            key[t], key[j] = key[j], key[t]
            vt[t], vt[j] = vt[j], vt[t]

        kt = key[t]
        top, u_top = s[t], u[t]
        p = top[kt]
        live = [top]  # rows a column step changes: nonzero in column t
        for i in range(t + 1, m):
            row = s[i]
            x = row.get(kt)
            if x:
                c = -(x // p)
                _add_scaled(row, c, top.items())
                _add_scaled(u[i], c, u_top.items())
                low[i] = None
                if kt in row:
                    live.append(row)
        dirty = len(live) > 1
        v_top = vt[t].items()
        for k, x in [(k, x) for k, x in top.items() if k != kt]:
            c = -(x // p)
            for row in live:
                y = row.get(k, 0) + c * row[kt]
                if y:
                    row[k] = y
                else:
                    del row[k]
            _add_scaled(vt[col[k]], c, v_top)
            dirty = dirty or k in top
        if dirty:
            low[t] = None  # the rows of `live` other than top were stepped
            continue  # smaller remainders exist; re-pick the pivot

        s[t] = {t: abs(p)}
        if p < 0:
            u[t] = {k: -x for k, x in u_top.items()}
        t += 1

    return IntMatrix(u, m), IntMatrix(s, n), IntMatrix(vt, n).transpose()


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus elementary divisors.

    Divisors are > 1 and each divides the next; the torsion subgroup is
    the direct sum of Z/d over the divisors.
    """

    rank: int
    divisors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        for d in self.divisors:
            if d <= 1:
                raise ValueError(f"elementary divisor must be > 1, got {d}")
        for a, b in zip(self.divisors, self.divisors[1:]):
            if b % a != 0:
                raise ValueError(f"divisor chain broken: {a} does not divide {b}")

    @property
    def torsion_order(self) -> int:
        return prod(self.divisors) if self.divisors else 1

    def p_exponent(self, p: int) -> int:
        """val_p of the torsion order; the p-torsion has order p**this."""
        return sum(self.p_part_exponents(p))

    def p_part_exponents(self, p: int) -> tuple[int, ...]:
        """Exponents e with the p-primary part isomorphic to +Z/p**e."""
        # each divisor divides the next, so the exponents come sorted
        exponents = (p_valuation(d, p) for d in self.divisors)
        return tuple(e for e in exponents if e)

    def __str__(self) -> str:
        parts = [f"Z^{self.rank}"] if self.rank else []
        parts += [f"Z/{d}" for d in self.divisors]
        return " + ".join(parts) if parts else "0"


# Trial division stops here; `factorize` raises on larger prime factors.
FACTORIZE_BOUND = 10**7


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; raises past FACTORIZE_BOUND."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
        if d > FACTORIZE_BOUND:
            raise ValueError("factorization bound exceeded")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _divisor_chain(diagonal: Sequence[int]) -> tuple[int, ...]:
    """The chain d1 | d2 | ... of diag(diagonal), entries positive: folding
    each pair (d_i, d_j), i < j, into (gcd, lcm) keeps every p-part."""
    units = [d for d in diagonal if d == 1]  # a unit divides everything
    chain = [d for d in diagonal if d != 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            x, y = chain[i], chain[j]
            chain[i], chain[j] = gcd(x, y), lcm(x, y)
    return tuple(units + chain)


def direct_sum(a: AbelianGroup, b: AbelianGroup) -> AbelianGroup:
    """a + b, its divisor chain folded from the summands' divisors."""
    chain = _divisor_chain(a.divisors + b.divisors)
    return AbelianGroup(a.rank + b.rank, tuple(d for d in chain if d > 1))


def cokernel_structure(a: IntMatrix) -> AbelianGroup:
    """Structure of Z^rows / (column span of A)."""
    dec = smith_normal_form(a if a.rows >= a.cols else a.transpose())
    return AbelianGroup(a.rows - dec.rank,
                        tuple(d for d in dec.divisors if d > 1))


def kernel_mod(a: IntMatrix, p: int, s: int) -> list[Vector]:
    """Generators of {x : A x = 0 mod p**s} as a Z/p**s module.

    With U B V = S (B is A or its row Hermite block, which has the same
    kernel mod p**s) the kernel is spanned by the columns of V scaled by
    p**max(0, s - val_p(d_j)).  The generated set is checked against the
    cardinality predicted by the diagonal.
    """
    if s < 1:
        raise ValueError("modulus exponent must be >= 1")
    dec = smith_normal_form(a)
    diag = dec.diagonal
    ps = p ** s
    gens: list[Vector] = []
    expected_exp = 0
    for j in range(a.cols):
        d = diag[j] if j < len(diag) else 0
        if d == 0:
            mult, contrib = 1, s
        else:
            vd = min(p_valuation(d, p), s)
            mult, contrib = p ** (s - vd), vd
        expected_exp += contrib
        if mult < ps:
            col = dec.v.column(j)
            gens.append(tuple((x * mult) % ps for x in col))
    got = span_exponent_mod(gens, a.cols, p, s)
    if got != expected_exp:
        raise AssertionError(
            f"kernel generators span p^{got}, expected p^{expected_exp}")
    return gens


def span_exponent_mod(vectors: Sequence[Sequence[int]], n: int,
                      p: int, s: int) -> int:
    """e such that the Z/p**s span of the vectors in (Z/p**s)^n has order p**e."""
    ps = p ** s
    rows = matrix(vectors, ncols=n).data + [{j: ps} for j in range(n)]
    dec = smith_normal_form(IntMatrix(rows, n))
    index = prod(dec.diagonal)  # |Z^n / span|; a power of p by construction
    return n * s - p_valuation(index, p)


def solve_mod(a: IntMatrix, b: Sequence[int], p: int, s: int) -> Optional[Vector]:
    """Some x with A x = b mod p**s, or None if there is none."""
    return smith_normal_form(a).solve(b, (p, s))
