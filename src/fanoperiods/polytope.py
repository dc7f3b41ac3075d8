"""Rational polytopes given by halfspaces: exact vertices and lattice counts.

A halfspace is {v : <normal, v> >= offset} with an integer normal and a
rational offset.  Vertices come from the double description method, in
integers and one facet at a time, so their cost follows the rays kept;
more than MAX_RAY_SCANS ray scans are refused (the Gr(5,10) NO body, 42
facets in dimension 25, takes about 0.04 s).  Lattice counts and
boundedness come from a Fourier-Motzkin projection chain built once per
system, so counting never enumerates vertices: it walks the chain's
levels, memoized on the residuals of the rows still to be read.  A count,
or a document's counts together, making more than MAX_WALK_NODES walk
calls is refused, as is a count storing over MAX_MEMO_STATES states.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, product, repeat
from operator import and_, floordiv, mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from fanoperiods._record import Record
from fanoperiods.laurent import _as_fraction

# Ray scans of vertex enumeration's adjacency tests; the limit bounds time
# (a refusal takes 15-25 s on a 2-vCPU host), and Gr(5,10) takes 104,619.
MAX_RAY_SCANS = 300_000_000

# Calls a lattice count may make on its Fourier-Motzkin levels, memo hits
# included, so the limit bounds time (a walk reaches it in 15-25 s on a
# 2-vCPU host); Gr(3,6) at dilation 2 makes 60,243 calls and Gr(1,20) at
# dilation 1 (C(39, 19) points) 3,949.
MAX_WALK_NODES = 10_000_000

# States one lattice count may store in its memos, about 400 bytes each, so the
# limit bounds memory; Gr(4,9) at dilation 1 stores 508,531 (212 MB max RSS).
MAX_MEMO_STATES = 1_000_000


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
    vectors = [tuple(int(c) for c in e) for e in exponents]
    if len({len(vec) for vec in vectors}) > 1:
        raise ValueError("support vectors of mixed dimension")
    normals = sorted({vec for vec in vectors if any(vec)})
    if not normals:
        raise ValueError("polar of an empty support is undefined")
    return HalfspaceSystem(len(normals[0]), (Halfspace(n, Fraction(-1)) for n in normals))


# ---------------------------------------------------------------------------
# double description


def _combine(a: int, x: Sequence[int], b: int, y: Sequence[int]) -> tuple[int, ...]:
    """a*x + b*y, divided by the gcd of its entries."""
    v = [a * p + b * q for p, q in zip(x, y)]
    g = math.gcd(*v)
    return tuple(c // g for c in v)


def _vertex_rays(system: HalfspaceSystem) -> list[tuple[int, ...]]:
    """The extreme rays (x | t), t > 0, of the cone cut out by t >= 0 and the
    integer rows (q*a | -p) of the facets <a, v> >= p/q: the vertices x/t.

    Double description: the cone starts as all of space, held as lines,
    and takes one row at a time.  A line the row does not vanish on
    becomes a ray, and the other lines and rays are projected along it
    onto the row's hyperplane.  Otherwise the rays on the row's
    non-negative side stay, and each pair on opposite sides that spans a
    2-face (no third ray is tight on every row both are tight on) adds
    the ray where that face meets the hyperplane.  A cone that keeps a
    line has no vertex.  Testing a pair scans every ray; more than
    MAX_RAY_SCANS ray scans raise ValueError.
    """
    dim = system.dim
    rows = [(0,) * dim + (1,)] + [
        tuple(f.offset.denominator * a for a in f.normal) + (-f.offset.numerator,)
        for f in system.facets
    ]
    lines = [tuple(int(i == j) for j in range(dim + 1)) for i in range(dim + 1)]
    rays: list[tuple[tuple[int, ...], int]] = []  # (ray, bit set of its tight rows)
    scans = 0
    for k, row in enumerate(rows):
        dots = [sum(map(mul, row, x)) for x in lines]
        values = [sum(map(mul, row, x)) for x, _ in rays]
        i = next((i for i, d in enumerate(dots) if d), None)
        if i is not None:
            line, d = lines.pop(i), dots.pop(i)
            if d < 0:
                line, d = tuple(-c for c in line), -d
            lines = [_combine(d, x, -e, line) for x, e in zip(lines, dots)]
            rays = [
                (_combine(d, x, -v, line), t | 1 << k) for (x, t), v in zip(rays, values)
            ]
            rays.append((line, (1 << k) - 1))
            continue
        tights = [t for _, t in rays]
        kept = [(x, t if v else t | 1 << k) for (x, t), v in zip(rays, values) if v >= 0]
        positive = [(x, t, v) for (x, t), v in zip(rays, values) if v > 0]
        negative = [(x, t, v) for (x, t), v in zip(rays, values) if v < 0]
        for (xp, tp, vp), (xn, tn, vn) in product(positive, negative):
            scans += len(rays)
            if scans > MAX_RAY_SCANS:
                raise ValueError(
                    f"vertex enumeration passes the limit of {MAX_RAY_SCANS} "
                    f"ray scans at facet {k} of {len(system.facets)}"
                )
            common = tp & tn
            if list(map(and_, tights, repeat(common))).count(common) == 2:
                kept.append((_combine(vp, xn, -vn, xp), common | 1 << k))
        rays = kept
    return [] if lines else [x for x, _ in rays if x[dim]]


def vertices(system: HalfspaceSystem) -> list[tuple[Fraction, ...]]:
    """All basic feasible solutions, each listed once, sorted."""
    rays = _vertex_rays(system)
    return sorted(tuple(Fraction(c, x[-1]) for c in x[:-1]) for x in rays)


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


def _past_walk_limit(dilation: int) -> ValueError:
    return ValueError(
        f"lattice count at dilation {dilation} brings the walk past "
        f"the limit of {MAX_WALK_NODES} nodes"
    )


def _count_points(chain: _ProjectionChain, dilation: int, nodes: Iterator[int]) -> int:
    """Integer points of the dilated polytope, walked level by level.

    The points below a prefix depend only on the residuals offset * dilation
    - <normal, prefix> of the rows at its level and later, so each level but
    the last memoizes on that tuple.  Every call, memo hits too, draws from
    `nodes`; past MAX_MEMO_STATES stored states the count is refused."""
    levels = chain.levels
    if not levels:
        return 1  # R^0 holds one point
    last = len(levels) - 1
    memos: list[dict[tuple[int, ...], int]] = [{} for _ in range(last)]
    stored = count(1)

    def walk(j: int, res: tuple[int, ...]) -> int:
        if next(nodes) > MAX_WALK_NODES:
            raise _past_walk_limit(dilation)
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
        if next(stored) > MAX_MEMO_STATES:
            raise ValueError(
                f"lattice count at dilation {dilation} stores more walk states "
                f"than the limit of {MAX_MEMO_STATES}"
            )
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
    # the vertex hull spans when the rays (v | 1) do: only then is y = 0 a vertex
    # of the system <ray, y> = 0
    rays = _vertex_rays(system)
    equalities = [Halfspace([s * c for c in x], 0) for x in rays for s in (1, -1)]
    full_dimensional = bool(_vertex_rays(HalfspaceSystem(system.dim + 1, equalities)))
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
    such as itertools.count(1), share that limit.  A count storing more
    than MAX_MEMO_STATES memo states is refused too; each count has its own.
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

    The counts share one walk limit.  Refusals (ValueError), in the order
    they run:
    - an order above MAX_WALK_NODES, before anything is built, since a
      count on a nonempty polytope walks at least one node;
    - counts of an unbounded polytope (UnboundedPolytopeError); with
      order 0 its document has none;
    - on a chain of two levels, whose walk makes one call at its root and
      one per value of the first coordinate, the dilation at which the
      walks pass the limit, before any count;
    - vertex enumeration past MAX_RAY_SCANS ray scans;
    - while counting, one dilation at a time on one node counter, the
      first count that passes the limit or stores more than
      MAX_MEMO_STATES states.
    """
    if order > MAX_WALK_NODES:
        raise ValueError(
            f"--order {order} is above {MAX_WALK_NODES}, the limit of "
            "nodes that the lattice counts of one document walk together"
        )
    if order >= 1:
        chain = system._chain
        if not chain.bounded:
            raise UnboundedPolytopeError(
                "the polar polytope is unbounded (the origin is not interior to "
                "the convex hull of the support), so it has no lattice counts"
            )
        if len(chain.levels) == 2 and not chain.empty:
            lower, divisors, _ = chain.levels[0]
            offsets = chain.offsets[: len(divisors)]
            walked = 0
            for r in range(1, order + 1):
                quotients = [b * r // d for b, d in zip(offsets, divisors)]
                walked += 1 + max(min(quotients[lower:]) + min(quotients[:lower]) + 1, 0)
                if walked > MAX_WALK_NODES:
                    raise _past_walk_limit(r)
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
