"""Rational polytopes given by halfspaces: exact vertices and lattice counts.

A halfspace is {v : <normal, v> >= offset} with an integer normal and a
rational offset.  Vertex enumeration solves every dimension-sized facet
subsystem exactly and keeps the feasible solutions; it refuses systems
needing more than MAX_SUBSET_SOLVES such solves.  Lattice counts and
boundedness come from a Fourier-Motzkin projection chain built once per
system, so counting never enumerates vertices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from fanoperiods._record import Record
from fanoperiods.laurent import _as_fraction

# C(facets, dim) square solves allowed in vertex enumeration; the NO body
# of Gr(3,6) needs C(14, 9) = 2002, that of Gr(3,7) C(19, 12) = 50388.
MAX_SUBSET_SOLVES = 100_000


class UnboundedPolytopeError(ValueError):
    """Raised when a count requires a bounded polytope and none is given."""


class Halfspace(Record):
    """The set {v : <normal, v> >= offset}."""

    __slots__ = _fields = ("normal", "offset")

    def __init__(self, normal: Sequence[int], offset: Fraction):
        self._store(tuple(normal), _as_fraction(offset))

    def holds_at(self, point: Sequence[Fraction]) -> bool:
        value = sum(
            (Fraction(a) * x for a, x in zip(self.normal, point)), Fraction(0)
        )
        return value >= self.offset


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

    def contains(self, point: Sequence[Fraction]) -> bool:
        return all(f.holds_at(point) for f in self.facets)

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
# exact linear algebra on Fractions


def _reduce(rows: list[list[Fraction]], dim: int) -> list[list[Fraction]] | None:
    """Gauss-Jordan elimination of `rows` in place over the first `dim` columns.

    Returns the rows, the first `dim` of them reduced to the identity in
    those columns, or None at the first column without a pivot, that is
    when the rows have rank below `dim`.
    """
    n = len(rows)
    for col in range(dim):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col]
        rows[col] = [x / inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return rows


def vertices(system: HalfspaceSystem) -> list[tuple[Fraction, ...]]:
    """All basic feasible solutions, each listed once, sorted.

    Refuses (ValueError) when the C(facets, dim) square subsystems to solve
    exceed MAX_SUBSET_SOLVES.
    """
    solves = math.comb(len(system.facets), system.dim)
    if solves > MAX_SUBSET_SOLVES:
        raise ValueError(
            f"vertex enumeration needs C({len(system.facets)}, {system.dim}) = "
            f"{solves} subset solves, over the limit of {MAX_SUBSET_SOLVES}"
        )
    found: set[tuple[Fraction, ...]] = set()
    for subset in combinations(system.facets, system.dim):
        # Fraction(c): the pivot division must stay exact on int normals.
        rows = [[Fraction(c) for c in f.normal] + [f.offset] for f in subset]
        if _reduce(rows, system.dim) is None:
            continue
        point = tuple(row[-1] for row in rows)
        if system.contains(point):
            found.add(point)
    return sorted(found)


# ---------------------------------------------------------------------------
# Fourier-Motzkin projection chain
#
# Coordinates are eliminated one at a time, each time the one whose
# elimination pairs the fewest rows, and counted in the reverse order.
# Level j bounds coordinate order[j] given order[0..j-1]; its row
# (normal, coef, offset) is the integer inequality
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
    """levels[j] = (lower, upper): the rows bounding the j-th counted coordinate.

    Offsets are linear in the dilation, so one chain serves every dilation
    and, read with all offsets 0, describes the recession cone.
    """

    levels: tuple[tuple[tuple, tuple], ...]
    empty: bool  # some derived row reads 0 >= b with b > 0

    @property
    def bounded(self) -> bool:
        # the recession cone is {0} exactly when every coordinate is pinned
        # from both sides once the coordinates before it are
        return all(lower and upper for lower, upper in self.levels)


def _level(j: int, order: tuple[int, ...], rows) -> tuple:
    """Integer rows of level j, keeping the tightest offset per normal."""
    tightest: dict[tuple[int, ...], Fraction] = {}
    for _, normal, offset in rows:
        if normal not in tightest or offset > tightest[normal]:
            tightest[normal] = offset
    return tuple(
        (
            tuple(b.denominator * n[k] for k in order[:j]),
            b.denominator * n[order[j]],
            b.numerator,
        )
        for n, b in tightest.items()
    )


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
    eliminated = []
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
                if len(h) > len(eliminated) + 2 or h in below:
                    continue
                normal = tuple(p[i] * y - q[i] * x for x, y in zip(p, q))
                offset = p[i] * bq - q[i] * bp
                if any(normal):
                    below[h] = _primitive(normal, offset)
                elif offset > 0:
                    empty = True
        eliminated.append((i, lower, upper))
        rows = below
    order = tuple(i for i, _, _ in reversed(eliminated))
    levels = tuple(
        (_level(j, order, lower), _level(j, order, upper))
        for j, (_, lower, upper) in enumerate(reversed(eliminated))
    )
    return _ProjectionChain(levels, empty)


def _count_points(chain: _ProjectionChain, dilation: int) -> int:
    """Integer points of the dilated polytope, walked level by level."""
    levels = [
        (
            [(a, c, b * dilation) for a, c, b in lower],
            [(a, c, b * dilation) for a, c, b in upper],
        )
        for lower, upper in chain.levels
    ]
    last = len(levels) - 1
    prefix: list[int] = []

    def walk(j: int) -> int:
        lower, upper = levels[j]
        lo = max(-((sum(map(mul, a, prefix)) - b) // c) for a, c, b in lower)
        hi = min((b - sum(map(mul, a, prefix))) // c for a, c, b in upper)
        if j == last:
            return max(hi - lo + 1, 0)
        total = 0
        for x in range(lo, hi + 1):
            prefix.append(x)
            total += walk(j + 1)
            prefix.pop()
        return total

    return walk(0)


class GeometryFlags(NamedTuple):
    bounded: bool
    full_dimensional: bool
    origin_interior: bool


def geometry_flags(system: HalfspaceSystem) -> GeometryFlags:
    """Boundedness, full-dimensionality of the vertex hull, origin strictly inside."""
    bounded = system._chain.bounded
    vs = vertices(system)
    rows = [[x - b for x, b in zip(v, vs[0])] for v in vs[1:]]
    full_dimensional = _reduce(rows, system.dim) is not None
    origin_interior = all(f.offset < 0 for f in system.facets)
    return GeometryFlags(bounded, full_dimensional, origin_interior)


def lattice_point_count(system: HalfspaceSystem, dilation: int) -> int:
    """Number of integer vectors v with <a, v> >= dilation * offset for all facets.

    Dilation scales offsets only.  The count walks the system's
    Fourier-Motzkin chain: each coordinate ranges over the exact integer
    interval its level allows given the coordinates before it, and the
    last coordinate adds its interval length instead of visiting points.
    An empty polytope counts 0 at every dilation, including 0.
    """
    if dilation < 0:
        raise ValueError("dilation must be non-negative")
    chain = system._chain
    if not chain.bounded:
        raise UnboundedPolytopeError("lattice counts require a bounded polytope")
    if chain.empty:
        return 0
    return _count_points(chain, dilation)


# ---------------------------------------------------------------------------
# JSON document
#
# {"dim": 2,
#  "facets": [{"normal": [1, 0], "offset": "-1"}, ...],
#  "vertices": [["-1", "-1"], ...],
#  "lattice_counts": {"1": 10, "2": 28}}


def build_document(
    system: HalfspaceSystem, dilations: Sequence[int] = ()
) -> dict:
    vs = vertices(system)
    counts: dict[str, int] = {}
    if dilations and system._chain.bounded:
        for r in sorted(set(dilations)):
            counts[str(r)] = lattice_point_count(system, r)
    return {
        "dim": system.dim,
        "facets": [
            {"normal": list(f.normal), "offset": str(f.offset)}
            for f in sorted(system.facets, key=lambda f: (f.normal, f.offset))
        ],
        "vertices": [[str(c) for c in v] for v in vs],
        "lattice_counts": counts,
    }
