"""Rational polytopes given by halfspaces: exact vertices and lattice counts.

A halfspace is {v : <normal, v> >= offset} with an integer normal and a
rational offset.  Vertex enumeration walks the dimension-sized facet
subsets depth first, growing one fraction-free integer elimination per
shared prefix and pruning every subset whose prefix is already
dependent; only feasible solutions become Fractions.  It refuses systems
with more than MAX_SUBSET_SOLVES such subsets (the Gr(3,7) NO body,
50,388 subsets, takes about 1 s).  Lattice counts and boundedness come
from a Fourier-Motzkin projection chain built once per system, so
counting never enumerates vertices: it walks the chain's levels, memoized
on the residuals of the rows still to be read.  A count, or a document's
counts together, making more than MAX_WALK_NODES walk calls is refused.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from operator import floordiv, mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from fanoperiods._record import Record
from fanoperiods.laurent import _as_fraction

# C(facets, dim) square solves allowed in vertex enumeration; the NO body
# of Gr(3,6) needs C(14, 9) = 2002, that of Gr(3,7) C(19, 12) = 50388.
MAX_SUBSET_SOLVES = 100_000

# Calls a lattice count may make on its Fourier-Motzkin levels, memo hits
# included, so the limit bounds time (a walk reaches it in 15-25 s on a
# 2-vCPU host); Gr(3,6) at dilation 2 makes 60,243 calls and Gr(1,20) at
# dilation 1 (C(39, 19) points) 3,949.
MAX_WALK_NODES = 10_000_000


class UnboundedPolytopeError(ValueError):
    """Raised when a count requires a bounded polytope and none is given."""


class Halfspace(Record):
    """The set {v : <normal, v> >= offset}."""

    __slots__ = _fields = ("normal", "offset")

    def __init__(self, normal: Sequence[int], offset: Fraction):
        self._store(tuple(normal), _as_fraction(offset))


class HalfspaceSystem(Record):
    """A finite intersection of halfspaces in a fixed dimension."""

    __slots__ = ("dim", "facets", "_chain_cache")
    _fields = ("dim", "facets")

    def __init__(self, dim: int, facets: Iterable[Halfspace]):
        facets = tuple(facets)
        for facet in facets:
            if len(facet.normal) != dim:
                raise ValueError(
                    f"facet normal {facet.normal!r} does not match dimension {dim}"
                )
            if not any(facet.normal):
                raise ValueError("facet normals must be nonzero")
        self._store(dim, facets)

    @property
    def _chain(self) -> _ProjectionChain:
        """The projection chain, built on first use and kept."""
        try:
            return self._chain_cache
        except AttributeError:
            chain = _projection_chain(self)
            object.__setattr__(self, "_chain_cache", chain)
            return chain


def polar_from_support(exponents: Iterable[Sequence[int]]) -> HalfspaceSystem:
    """Polar polytope {v : <e, v> >= -1 for every support vector e}.

    Zero vectors impose no condition and are dropped; an empty (or
    all-zero) support has no polar polytope and raises.
    """
    normals: set[tuple[int, ...]] = set()
    dim: int | None = None
    for e in exponents:
        vec = tuple(int(c) for c in e)
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise ValueError("support vectors of mixed dimension")
        if any(vec):
            normals.add(vec)
    if dim is None or not normals:
        raise ValueError("polar of an empty support is undefined")
    return HalfspaceSystem(
        dim, tuple(Halfspace(n, Fraction(-1)) for n in sorted(normals))
    )


# ---------------------------------------------------------------------------
# fraction-free elimination
#
# A facet <a, v> >= p/q becomes the integer row (q*a | p).  A basis is a
# list of (pivot column, row) in which every row is zero in every other
# row's pivot column; rows are kept divided by their gcd, so entries stay
# small without ever forming a Fraction.


def _insert(basis: list, row: Sequence[int], dim: int) -> list | None:
    """The basis grown by `row`, or None if `row` is dependent on it.

    Dependence is decided in the first `dim` columns; later columns (the
    right-hand side) are carried along.  `basis` is left unchanged.
    """
    for col, b in basis:
        f = row[col]
        if f:
            p = b[col]
            row = [p * x - f * y for x, y in zip(row, b)]
    col = next((c for c in range(dim) if row[c]), None)
    if col is None:
        return None
    g = math.gcd(*row)
    row = [x // g for x in row]
    p = row[col]
    grown = []
    for c, b in basis:
        f = b[col]
        if f:
            b = [p * y - f * x for x, y in zip(row, b)]
            g = math.gcd(*b)
            b = [y // g for y in b]
        grown.append((c, b))
    grown.append((col, row))
    return grown


def vertices(system: HalfspaceSystem) -> list[tuple[Fraction, ...]]:
    """All basic feasible solutions, each listed once, sorted.

    Facet subsets are walked depth first in `combinations` order, one
    elimination per prefix: a facet dependent on its prefix prunes every
    subset that extends the prefix.  Refuses (ValueError) when the
    C(facets, dim) square subsystems exceed MAX_SUBSET_SOLVES.
    """
    dim = system.dim
    solves = math.comb(len(system.facets), dim)
    if solves > MAX_SUBSET_SOLVES:
        raise ValueError(
            f"vertex enumeration needs C({len(system.facets)}, {dim}) = "
            f"{solves} subset solves, over the limit of {MAX_SUBSET_SOLVES}"
        )
    rows = [
        [f.offset.denominator * a for a in f.normal] + [f.offset.numerator]
        for f in system.facets
    ]
    found: set[tuple[Fraction, ...]] = set()

    def walk(basis: list, start: int) -> None:
        if len(basis) == dim:
            # diagonal: coordinate c is rhs_c / pivot_c = point[c] / det
            det = math.lcm(*(b[c] for c, b in basis))
            point = [0] * dim
            for c, b in basis:
                point[c] = b[dim] * (det // b[c])
            if all(sum(map(mul, row, point)) >= row[dim] * det for row in rows):
                found.add(tuple(Fraction(x, det) for x in point))
            return
        for j in range(start, len(rows) - dim + len(basis) + 1):
            grown = _insert(basis, rows[j], dim)
            if grown is not None:
                walk(grown, j + 1)

    walk([], 0)
    return sorted(found)


# ---------------------------------------------------------------------------
# Fourier-Motzkin projection chain
#
# Coordinates are eliminated one at a time, each time the one whose
# elimination pairs the fewest rows, and counted in the reverse order.
# Level j bounds coordinate order[j] given order[0..j-1]; each of its rows
# is the integer inequality
#     <normal, v[order[0..j-1]]> + coef * v[order[j]] >= offset * dilation,
# with coef > 0 (a lower bound) or coef < 0 (an upper bound).
#
# Every derived row remembers the set of facets it combines.  The rows
# that matter combine a minimal set of facets; all others are implied by
# them.  So after k eliminations a row combining more than k + 1 facets
# is dropped (Chernikov's rule), and of two rows combining the same set
# only the first is kept.  That keeps the chain small without changing
# the polyhedron at any level.


def _primitive(
    normal: tuple[int, ...], offset: Fraction
) -> tuple[tuple[int, ...], Fraction]:
    g = math.gcd(*normal)
    return tuple(a // g for a in normal), offset / g


class _ProjectionChain(NamedTuple):
    """levels[j] = (lower, divisors, column) for the j-th counted coordinate.

    Its `lower` lower rows come first; a row's divisor is -|coef|, and
    `column` is the coordinate's coefficient in each row of a later level.
    `offsets` holds every row's offset, level by level.  Offsets are
    linear in the dilation, so one chain serves every dilation and, read
    with all offsets 0, describes the recession cone.
    """

    levels: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]
    offsets: tuple[int, ...]
    empty: bool  # some derived row reads 0 >= b with b > 0

    @property
    def bounded(self) -> bool:
        # the recession cone is {0} exactly when every coordinate is pinned
        # from both sides once the coordinates before it are
        return all(0 < lower < len(divisors) for lower, divisors, _ in self.levels)


def _pairs_to_combine(rows: dict, i: int) -> int:
    """Lower-upper row pairs that eliminating coordinate i would combine."""
    lower = sum(1 for n, _ in rows.values() if n[i] > 0)
    upper = sum(1 for n, _ in rows.values() if n[i] < 0)
    return lower * upper


def _projection_chain(system: HalfspaceSystem) -> _ProjectionChain:
    """Eliminate every coordinate, keeping the rows that bound each one.

    The last elimination leaves rows 0 >= b, so an empty rational range
    anywhere shows up as `empty`.
    """
    rows = {
        frozenset([k]): _primitive(f.normal, f.offset)
        for k, f in enumerate(system.facets)
    }
    alive = list(range(system.dim))
    levels, later = [], []  # later: (normal, offset) of the rows of `levels`
    empty = False
    while alive:
        i = min(alive, key=lambda i: _pairs_to_combine(rows, i))
        alive.remove(i)
        lower = [(h, n, b) for h, (n, b) in rows.items() if n[i] > 0]
        upper = [(h, n, b) for h, (n, b) in rows.items() if n[i] < 0]
        below = {h: row for h, row in rows.items() if not row[0][i]}
        for hp, p, bp in lower:
            for hq, q, bq in upper:
                h = hp | hq
                if len(h) > len(levels) + 2 or h in below:
                    continue
                normal = tuple(p[i] * y - q[i] * x for x, y in zip(p, q))
                offset = p[i] * bq - q[i] * bp
                if any(normal):
                    below[h] = _primitive(normal, offset)
                elif offset > 0:
                    empty = True
        rows = below
        # the tightest offset per normal; lower normals (positive at i) first
        tightest: dict[tuple[int, ...], Fraction] = {}
        for _, n, b in lower + upper:
            tightest[n] = max(b, tightest.get(n, b))
        # each row scaled by its offset's denominator is an integer row
        divisors = tuple(-abs(b.denominator * n[i]) for n, b in tightest.items())
        column = tuple(b.denominator * n[i] for n, b in later)
        levels.append((sum(n[i] > 0 for n in tightest), divisors, column))
        later = [*tightest.items(), *later]
    offsets = tuple(b.numerator for _, b in later)
    return _ProjectionChain(tuple(reversed(levels)), offsets, empty)


def _count_points(chain: _ProjectionChain, dilation: int, nodes: Iterator[int]) -> int:
    """Integer points of the dilated polytope, walked level by level.

    The points below a prefix depend only on the residuals offset * dilation
    - <normal, prefix> of the rows at its level and later, so each level but
    the last memoizes on that tuple.  Every call, memo hits too, draws from
    `nodes`."""
    levels = chain.levels
    last = len(levels) - 1
    memos: list[dict[tuple[int, ...], int]] = [{} for _ in range(last)]

    def walk(j: int, res: tuple[int, ...]) -> int:
        if next(nodes) > MAX_WALK_NODES:
            raise ValueError(
                f"lattice count at dilation {dilation} brings the walk past "
                f"the limit of {MAX_WALK_NODES} nodes"
            )
        if j < last and res in memos[j]:
            return memos[j][res]
        lower, divisors, column = levels[j]
        # a lower row reads x >= ceil(res / coef), an upper one
        # x <= floor(res / coef); both are floor divisions by -|coef|
        quotients = list(map(floordiv, res, divisors))
        lo = -min(quotients[:lower])
        hi = min(quotients[lower:])
        if j == last:
            return max(hi - lo + 1, 0)
        rest = tuple(map(sub, res[len(divisors) :], [lo * c for c in column]))
        total = 0
        for _ in range(lo, hi + 1):
            total += walk(j + 1, rest)
            rest = tuple(map(sub, rest, column))
        memos[j][res] = total
        return total

    return walk(0, tuple(b * dilation for b in chain.offsets))


class GeometryFlags(NamedTuple):
    bounded: bool
    full_dimensional: bool
    origin_interior: bool


def geometry_flags(system: HalfspaceSystem) -> GeometryFlags:
    """Boundedness, full-dimensionality of the vertex hull, origin strictly inside."""
    bounded = system._chain.bounded
    vs = vertices(system)
    basis: list = []
    for v in vs[1:]:
        diff = [x - b for x, b in zip(v, vs[0])]
        scale = math.lcm(*(d.denominator for d in diff))
        row = [d.numerator * (scale // d.denominator) for d in diff]
        basis = _insert(basis, row, system.dim) or basis
    full_dimensional = len(basis) == system.dim
    origin_interior = all(f.offset < 0 for f in system.facets)
    return GeometryFlags(bounded, full_dimensional, origin_interior)


def lattice_point_count(
    system: HalfspaceSystem, dilation: int, *, nodes: Iterator[int] | None = None
) -> int:
    """Number of integer vectors v with <a, v> >= dilation * offset for all facets.

    Dilation scales offsets only.  The count walks the system's
    Fourier-Motzkin chain: each coordinate ranges over the exact integer
    interval its level allows given the coordinates before it, and the
    last coordinate adds its interval length instead of visiting points.
    An empty polytope counts 0 at every dilation, including 0.  A node is
    one call of the walk, a memo hit included; a walk past MAX_WALK_NODES
    nodes is refused (ValueError), and counts given one `nodes` counter,
    such as itertools.count(1), share that limit.
    """
    if dilation < 0:
        raise ValueError("dilation must be non-negative")
    chain = system._chain
    if not chain.bounded:
        raise UnboundedPolytopeError("lattice counts require a bounded polytope")
    if chain.empty:
        return 0
    return _count_points(chain, dilation, count(1) if nodes is None else nodes)


# ---------------------------------------------------------------------------
# JSON document
#
# {"dim": 2,
#  "facets": [{"normal": [1, 0], "offset": "-1"}, ...],
#  "vertices": [["-1", "-1"], ...],
#  "lattice_counts": {"1": 10, "2": 28}}


def build_document(system: HalfspaceSystem, order: int = 0) -> dict:
    """The document of a polar polytope with its counts at dilations 1..order.

    The counts are taken one dilation at a time and share one walk limit,
    so an order far beyond what the limit allows is refused at the first
    dilation that passes it.  Counts of an unbounded polytope are refused
    (UnboundedPolytopeError); with order 0 its document has none.
    """
    if order >= 1 and not system._chain.bounded:
        raise UnboundedPolytopeError(
            "the polar polytope is unbounded (the origin is not interior to the "
            "convex hull of the support), so it has no lattice counts"
        )
    vs = vertices(system)
    counts: dict[str, int] = {}
    nodes = count(1)
    for r in range(1, order + 1):
        counts[str(r)] = lattice_point_count(system, r, nodes=nodes)
    return {
        "dim": system.dim,
        "facets": [
            {"normal": list(f.normal), "offset": str(f.offset)}
            for f in sorted(system.facets, key=lambda f: (f.normal, f.offset))
        ],
        "vertices": [[str(c) for c in v] for v in vs],
        "lattice_counts": counts,
    }
