"""Min-plus expressions predicting p-torsion exponents.

The semiring is the integers with minimum as addition and integer sum as
multiplication; infinity is the additive zero.  To a graph we attach a
tropical rational function in its vertex variables whose value at the
weight valuations equals the p-torsion exponent of the first cohomology,
for every odd prime p.  The function is a tropical product of clamped
factors, one per connected bipartite proper subgraph: the gap between
the subgraph's boundary valuation and its internal level.

Only live factors are built.  Write a(uv) = a_u + a_v.  A factor is
positive at some valuation a exactly when its edges are a threshold set,
a(e) < a(b) for each chosen edge e and every other edge b: adding a
constant to every a_v widens the gap to the vertex minimum, and raising
every vertex outside the set lifts every edge leaving it.  By Gordan's
alternative that fails exactly when some nonzero nonnegative combination
of the left-out edges has the vertex degrees of a chosen edge, that is
when the chosen and the left-out edges form an alternating closed walk.
Such a walk uses only left-out edges with both ends on chosen edges, as
the chosen edges have no degree elsewhere.  So one search over the
graph's edges finds every live factor: it grows connected edge sets and
cuts a branch at an odd cycle or an alternating closed walk.  A dead
factor is zero at every valuation, so leaving it out changes no value.
The search works on vertex and edge numbers, sorted as the names are,
and each factor is built straight from its bitmasks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence, Union

from .graphs import (
    Subgraph,
    WeightedGraph,
    bipartition,
    components,
    edge_boundary,
    full_subgraph,
    is_connected,
)

DEFAULT_VERTEX_CAP = 10
CAP_ENV_VAR = "GCOH_MAX_SUBGRAPHS"


@dataclass(frozen=True)
class TropicalValue:
    """An integer or the absorbing infinity (the min-plus zero).  A finite
    value must be an `int` (bools excluded), else ValueError."""

    finite: bool
    value: int = 0

    def __post_init__(self):
        if self.finite and (type(self.value) is bool
                            or not isinstance(self.value, int)):
            raise ValueError(f"a finite TropicalValue holds an integer, "
                             f"not {self.value!r}")

    def __repr__(self) -> str:
        return str(self.value) if self.finite else "inf"


INF = TropicalValue(False)


def tval(x: Union[int, TropicalValue, None]) -> TropicalValue:
    """x as a TropicalValue, None as infinity; like `TropicalValue`, any
    other value that is not an `int` (a bool, a float, a string) raises
    ValueError."""
    if isinstance(x, TropicalValue):
        return x
    if x is None:
        return INF
    return TropicalValue(True, x)


# --- expressions -------------------------------------------------------------

class TropicalExpr:
    __slots__ = ()


@dataclass(frozen=True)
class Var(TropicalExpr):
    name: str


@dataclass(frozen=True)
class Const(TropicalExpr):
    value: TropicalValue


@dataclass(frozen=True)
class Plus(TropicalExpr):
    children: tuple[TropicalExpr, ...]


@dataclass(frozen=True)
class Times(TropicalExpr):
    children: tuple[TropicalExpr, ...]


@dataclass(frozen=True)
class Quotient(TropicalExpr):
    numerator: TropicalExpr
    denominator: TropicalExpr


@dataclass(frozen=True)
class ClampAtZero(TropicalExpr):
    child: TropicalExpr


def plus(children: Iterable[TropicalExpr]) -> TropicalExpr:
    kids = tuple(children)
    if not kids:
        return Const(INF)  # empty minimum
    if len(kids) == 1:
        return kids[0]
    return Plus(kids)


UNIT = Const(tval(0))  # the min-plus one, shared so it renders once


def times(children: Iterable[TropicalExpr]) -> TropicalExpr:
    kids = tuple(children)
    if not kids:
        return UNIT  # empty product
    if len(kids) == 1:
        return kids[0]
    return Times(kids)


def _negated_min(negations: Iterable[TropicalExpr]) -> TropicalExpr:
    """The maximum of x_1..x_k from their negations 0 ⊘ x_i, as the
    negated minimum max(x_1..x_k) = -min(-x_1..-x_k):
    0 ⊘ ((0 ⊘ x_1) ⊕ ... ⊕ (0 ⊘ x_k))."""
    return Quotient(UNIT, plus(negations))


def _int_value(name: str, x: Union[int, TropicalValue, None]) -> Optional[int]:
    """The value assigned to `name` as a Python int, None for infinity;
    a value of any other type (a bool, a float, a string) is refused."""
    if isinstance(x, TropicalValue):
        return x.value if x.finite else None
    if x is None or (isinstance(x, int) and not isinstance(x, bool)):
        return x
    raise ValueError(f"value of {name!r} must be an integer, a TropicalValue "
                     f"or None, not {x!r}")


_MISS = object()


def eval_expr(e: TropicalExpr,
              assignment: Mapping[str, Union[int, TropicalValue]]) -> TropicalValue:
    """Evaluate with the min-plus semantics.

    Values are Python ints with None for infinity; only the result is a
    `TropicalValue`.  Expressions built here share subtrees aggressively
    (every edge monomial, edge negation and vertex minimum of a graph is
    one object), so results are memoized per node identity for the
    duration of the call.  Each nesting level takes one stack frame, as
    in `parse`; nesting too deep for Python's recursion limit raises
    ValueError, as in `parse`.
    """
    cache: dict[int, Optional[int]] = {}
    cached = cache.get

    def go(node: TropicalExpr) -> Optional[int]:
        kind = type(node)
        if kind is Times:
            out = 0
            for c in node.children:
                x = cached(id(c), _MISS)
                if x is _MISS:
                    x = go(c)
                out = None if out is None or x is None else out + x
        elif kind is Plus:
            out = None
            for c in node.children:
                x = cached(id(c), _MISS)
                if x is _MISS:
                    x = go(c)
                if out is None or (x is not None and x < out):
                    out = x
        elif kind is Var:
            if node.name not in assignment:
                raise KeyError(f"unbound variable {node.name!r}")
            out = _int_value(node.name, assignment[node.name])
        elif kind is Quotient:
            num = cached(id(node.numerator), _MISS)
            if num is _MISS:
                num = go(node.numerator)
            den = cached(id(node.denominator), _MISS)
            if den is _MISS:
                den = go(node.denominator)
            if den is None:
                raise ZeroDivisionError("tropical division by infinity")
            out = None if num is None else num - den
        elif kind is ClampAtZero:
            x = cached(id(node.child), _MISS)
            if x is _MISS:
                x = go(node.child)
            out = None if x is None else max(x, 0)
        elif kind is Const:
            out = node.value.value if node.value.finite else None
        else:
            raise TypeError(f"not a tropical expression: {node!r}")
        cache[id(node)] = out
        return out

    try:
        return tval(go(e))
    except RecursionError:
        raise ValueError("expression nested too deeply to evaluate") from None


# --- graph-attached expressions ----------------------------------------------

def _factor(upper, lower, vertex_min, vertex_neg) -> TropicalExpr:
    """One factor, max(0, min boundary ⊘ max(internal edges, vertex
    minimum)), built from shared nodes: the boundary edges' monomials
    `upper`, the internal edges' negations `lower` (0 ⊘ monomial), and
    the vertex set's minimum and its negation.  With no internal edges
    the maximum is the vertex minimum itself."""
    return ClampAtZero(Quotient(
        plus(upper),
        _negated_min(lower + [vertex_neg]) if lower else vertex_min))


def g_delta(d: Subgraph) -> TropicalExpr:
    """Factor of a connected bipartite proper subgraph: the clamped count
    of levels at which it is an admissible component.

    Numerator: minimum over boundary-edge monomials.  Denominator:
    maximum of the internal-edge monomials and the vertex minimum (the
    vertex term only binds when there are no internal edges).
    """
    if not is_connected(d) or bipartition(d) is None:
        raise ValueError("factor requires a connected bipartite subgraph")
    boundary = edge_boundary(d)
    if not boundary:
        raise ValueError("factor requires a proper subgraph (nonempty boundary)")
    mono = {e: Times((Var(e[0]), Var(e[1])))
            for e in boundary | d.edge_set}
    low = plus(Var(v) for v in sorted(d.vertex_set))
    return _factor([mono[e] for e in sorted(boundary)],
                   [Quotient(UNIT, mono[e]) for e in sorted(d.edge_set)],
                   low, Quotient(UNIT, low))


class EnumerationCapExceeded(ValueError):
    pass


def _close_edge(reach: int, w: int, col: int, x: int, y: int) -> Optional[int]:
    """The transitive closure `reach` with an edge's arcs x -> y and its
    mirror y ^ 1 -> x ^ 1 added; None if they close a cycle.

    The closure is one int: row z, bits z*w .. z*w + w - 1, is the
    bitmask of the nodes reachable from node z, and `col` has bit z*w set
    for every row.  An arc tail -> head ORs head's row and head itself
    into tail's row and every row holding tail: one bit per such row, at
    its low end, times that w-bit mask, which cannot carry into the next
    row.
    """
    full = (1 << w) - 1
    for tail, head in ((x, y), (y ^ 1, x ^ 1)):
        if reach >> (head * w + tail) & 1:
            return None
        gained = (reach >> head * w & full) | 1 << head
        reach |= ((reach >> tail & col) | 1 << tail * w) * gained
    return reach


def _pick(items: Sequence, mask: int) -> list:
    """The items at the set bits of `mask`, in order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(items[low.bit_length() - 1])
        mask ^= low
    return out


def _live_edge_sets(n: int, edges: Sequence[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """(vertex, edge, touching-edge) bitmasks of the live edge sets over
    `edges`, pairs of vertex numbers below n: each vertex alone, and each
    connected bipartite edge set with no alternating closed walk against
    the edges left out between its vertices.

    One search per root edge i, the least in the set, with the edges
    below i left out.  Each step puts the least undecided edge touching
    the chosen vertices in or out, so each leaf is a connected set, found
    once.  A new vertex takes the side opposite its neighbour, and an
    edge between chosen vertices must join opposite sides.  The walks
    are the cycles of a digraph on (vertex, parity), node 2v + parity: a
    chosen edge uv goes from parity 0 to 1 (both ways round), a left-out
    edge from 1 to 0 once both its ends are chosen.  Its transitive
    closure is one int of 2n rows, 2n bits each (see `_close_edge`), so
    a branch passes its closure on and backtracking copies nothing.
    """
    inc = [0] * n
    for j, (u, v) in enumerate(edges):
        inc[u] |= 1 << j
        inc[v] |= 1 << j
    out = [(1 << k, 0, inc[k]) for k in range(n)]
    w = 2 * n  # the closure's row width: one bit per node
    col = sum(1 << z * w for z in range(w))

    def grow(decided: int, picked: int, verts: int, odd: int, touch: int,
             reach: int) -> None:
        free = touch & ~decided
        if not free:
            out.append((verts, picked, touch))
            return
        low = free & -free
        decided |= low
        u, v = edges[low.bit_length() - 1]
        if not verts >> u & 1:
            u, v = v, u  # u is chosen
        new = not verts >> v & 1
        if new or (odd >> u ^ odd >> v) & 1:
            closure = _close_edge(reach, w, col, 2 * u, 2 * v + 1)
            # the left-out edges from a new vertex back to the chosen ones
            left = inc[v] & decided & ~picked & ~low if new else 0
            for a, b in _pick(edges, left):
                t = a + b - v
                if closure is not None and verts >> t & 1:
                    closure = _close_edge(closure, w, col, 2 * t + 1, 2 * v)
            if closure is not None:
                grow(decided, picked | low, verts | 1 << v,
                     odd | (~odd >> u & 1) << v, touch | inc[v], closure)
        closure = reach if new else _close_edge(reach, w, col, 2 * u + 1, 2 * v)
        if closure is not None:
            grow(decided, picked, verts, odd, touch, closure)

    for i, (u, v) in enumerate(edges):
        low = 1 << i
        grow((low << 1) - 1, low, 1 << u | 1 << v, 1 << v, inc[u] | inc[v],
             _close_edge(0, w, col, 2 * u, 2 * v + 1))
    return out


def _factor_rows(n: int, edges: Sequence[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """`_live_edge_sets` in factor order: by vertex count, vertex
    numbers, edge count and edge numbers."""
    verts = cache(lambda mask: _pick(range(n), mask))  # one list per vertex set
    nums = range(len(edges))
    return sorted(_live_edge_sets(n, edges),
                  key=lambda r: (r[0].bit_count(), verts(r[0]),
                                 r[1].bit_count(), _pick(nums, r[1])))


def z_gamma(g: WeightedGraph) -> TropicalExpr:
    """Tropical product of the factors over all connected bipartite
    proper subgraphs; its value at the weight valuations is the p-torsion
    exponent for every odd prime p.  Only the live factors are built (see
    the module docstring): the others are zero at every valuation.  The
    graph is numbered once, and each factor picks its nodes by the bits
    of its `_factor_rows` row.  The one row with no boundary is the whole
    graph, found exactly when it is bipartite: it marks the chain gap.

    A bipartite connected graph needs a correction: the factors count
    every admissible (subgraph, level) pair, but the pairs on the
    distinguished descent chain below the whole graph's infinite tail do
    not carry torsion, and there is exactly one such pair per level from
    just above the smallest vertex valuation up to the largest internal
    edge valuation.  Dividing by that gap (a tropical quotient) makes a
    single edge come out as min(a, b) = the gcd valuation, as it must.

    Disconnected graphs multiply their components' expressions.  Graphs
    with more vertices than the cap (default 10, also when
    GCOH_MAX_SUBGRAPHS is unset or empty; otherwise the variable must
    hold ASCII decimal digits only) are refused: the enumeration is
    exponential.
    """
    env = os.environ.get(CAP_ENV_VAR) or str(DEFAULT_VERTEX_CAP)
    if not (env.isascii() and env.isdigit()):
        raise ValueError(f"{CAP_ENV_VAR} must be a non-negative integer, "
                         f"got {env!r}")
    limit = int(env)
    if len(g.vertices) > limit:
        raise EnumerationCapExceeded(
            f"{len(g.vertices)} vertices exceeds the enumeration cap {limit}; "
            f"raise {CAP_ENV_VAR} to override")
    comps = components(full_subgraph(g))
    if len(comps) > 1:
        return times(z_gamma(c.as_graph()) for c in comps)
    var = [Var(v) for v in g.vertices]
    number = {v: i for i, v in enumerate(g.vertices)}
    edges = [(number[u], number[v]) for u, v in g.edges]
    mono = [Times((var[u], var[v])) for u, v in edges]
    neg = [Quotient(UNIT, m) for m in mono]
    factors, vset, bipartite = [], None, False
    for vmask, emask, touch in _factor_rows(len(var), edges):
        if touch == emask:  # no boundary: the whole graph, when bipartite
            bipartite = True
            continue
        if vmask != vset:  # the rows arrive grouped by vertex set
            vset = vmask
            low = plus(_pick(var, vmask))
            low_neg = Quotient(UNIT, low)
        factors.append(_factor(_pick(mono, touch & ~emask),
                               _pick(neg, emask), low, low_neg))
    product = times(factors)
    if g.edges and bipartite:  # the gap's maximum reuses the edge negations
        top = mono[0] if len(mono) == 1 else _negated_min(neg)
        return Quotient(product, Quotient(top, plus(var)))
    return product


def elementary_symmetric(i: int, vars: Sequence[str]) -> TropicalExpr:
    """Sum over i-subsets of the product of the subset: evaluates to the
    sum of the i smallest assigned values."""
    if not 1 <= i <= len(vars):
        raise ValueError(f"need 1 <= i <= {len(vars)}, got {i}")
    return plus(times(Var(v) for v in subset)
                for subset in combinations(vars, i))


def z_complete(n: int, names: Optional[Sequence[str]] = None) -> TropicalExpr:
    """Closed form for the complete graph on n >= 3 vertices: the minimum
    to the power n-3, times the sum of the three smallest."""
    if n < 3:
        raise ValueError("complete-graph formula needs n >= 3")
    if names is None:
        names = [f"v{i}" for i in range(n)]
    if len(names) != n:
        raise ValueError("name count does not match n")
    s1 = elementary_symmetric(1, names)
    s3 = elementary_symmetric(3, names)
    return times([s1] * (n - 3) + [s3])


# --- rendering / parsing ------------------------------------------------------

PLUS_SIGN = "⊕"   # (+)
TIMES_SIGN = "⊙"  # (.)
DIV_SIGN = "⊘"    # (/)


def _nameable(name: str) -> bool:
    """Does `name` tokenize back to itself as a variable?"""
    return (name != "" and all(ch.isalnum() or ch in "_-" for ch in name)
            and name != "inf" and not name.lstrip("-").isdigit())


def render(e: TropicalExpr) -> str:
    """Fully parenthesized min-plus notation; `parse` reverses it.

    One pass appends fragments to a list that is joined once.  Leaves
    and sums, products and quotients whose children all have text
    already (edge monomials and their negations, say) are written once
    per object and reused wherever they are shared.  Raises ValueError
    on a variable name that would not parse back as itself.
    """
    memo: dict[int, str] = {}
    written = memo.get

    def leaf(node: TropicalExpr) -> Optional[str]:
        kind = type(node)
        if kind is Var:
            if not _nameable(node.name):
                raise ValueError(
                    f"variable name {node.name!r} cannot be written: names "
                    "need letters, digits, '_' or '-', and must not read as "
                    "a number or 'inf'")
            text = node.name
        elif kind is Const:
            text = "inf" if not node.value.finite else str(node.value.value)
        else:
            return None
        memo[id(node)] = text
        return text

    out: list[str] = []
    stack: list[Union[str, TropicalExpr]] = [e]
    while stack:
        node = stack.pop()
        if type(node) is str:
            out.append(node)
            continue
        text = written(id(node)) or leaf(node)
        if text is not None:
            out.append(text)
            continue
        kind = type(node)
        if kind is Plus or kind is Times:
            sep = f" {PLUS_SIGN} " if kind is Plus else f" {TIMES_SIGN} "
            kids = node.children
            texts = [written(id(c)) or leaf(c) for c in kids]
            if None not in texts:
                text = memo[id(node)] = "(" + sep.join(texts) + ")"
                out.append(text)
                continue
            stack.append(")")
            for j in range(len(kids) - 1, 0, -1):
                stack.append(kids[j])
                stack.append(sep)
            stack.append(kids[0])
            out.append("(")
        elif kind is Quotient:
            num, den = node.numerator, node.denominator
            a, b = written(id(num)) or leaf(num), written(id(den)) or leaf(den)
            if a is not None and b is not None:
                text = memo[id(node)] = f"({a} {DIV_SIGN} {b})"
                out.append(text)
                continue
            stack += [")", den, f" {DIV_SIGN} ", num]
            out.append("(")
        elif kind is ClampAtZero:
            stack += [", 0)", node.child]
            out.append("max(")
        else:
            raise TypeError(f"not a tropical expression: {node!r}")
    return "".join(out)


def _tokenize(text: str) -> list[str]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()," or ch in (PLUS_SIGN, TIMES_SIGN, DIV_SIGN):
            out.append(ch)
            i += 1
        elif text.startswith("max(", i):
            out.append("max(")
            i += 4
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_-"):
                j += 1
            if j == i:
                raise ValueError(f"cannot tokenize at {text[i:i+10]!r}")
            out.append(text[i:j])
            i = j
    return out


def parse(text: str) -> TropicalExpr:
    """Read `render`'s notation back; malformed text raises ValueError."""
    tokens = _tokenize(text)[::-1]  # a stack: the next token is last

    def take(*expected: str) -> str:
        tok = tokens.pop() if tokens else None
        if tok is None or (expected and tok not in expected):
            want = " or ".join(expected) or "a token"
            raise ValueError(f"expected {want}, got {tok!r}")
        return tok

    def atom() -> TropicalExpr:
        tok = take()
        if tok == "max(":
            child = atom()
            take(",")
            take("0")  # the clamp is against 0
            take(")")
            return ClampAtZero(child)
        if tok == "(":
            parts = [atom()]
            op = sep = take(")", PLUS_SIGN, TIMES_SIGN, DIV_SIGN)
            while sep != ")":
                parts.append(atom())
                sep = take(op, ")")
            if op == ")":
                return parts[0]
            if op == PLUS_SIGN:
                return plus(parts)
            if op == TIMES_SIGN:
                return times(parts)
            if len(parts) != 2:
                raise ValueError("quotient takes exactly two operands")
            return Quotient(parts[0], parts[1])
        if tok == "inf":
            return Const(INF)
        digits = tok[1:] if tok.startswith("-") else tok
        if digits.isascii() and digits.isdigit():
            return Const(tval(int(tok)))
        if not _nameable(tok):
            raise ValueError(f"unexpected token {tok!r}")
        return Var(tok)

    try:
        expr = atom()
    except RecursionError:
        raise ValueError("expression nested too deeply to parse") from None
    if tokens:
        raise ValueError(f"trailing tokens from {tokens[-1]!r}")
    return expr
