"""Tests for exact halfspace polytopes, vertex enumeration, and lattice counts.

Counts for the standard polar triangle come from the closed form
binomial(3r+2, 2); squares from (2r+1)^2.  Both are computed here
independently of the library.  Random systems are checked against slow
oracles kept here: the integer bounding-box scan over the vertex set, the
recession-ray search over (dim - 1)-subsets of facet normals, and the
earlier vertex enumeration that solves every dim-subset of facets over
Fractions.
`parse_document` reads an emitted polytope document back; the CLI tests
use it too.
"""

from __future__ import annotations

import json
import math
import time
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations, count, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanoperiods import polytope
from fanoperiods.grassmannian import nobody_polytope
from fanoperiods.polytope import (
    Halfspace,
    HalfspaceSystem,
    UnboundedPolytopeError,
    build_document,
    geometry_flags,
    lattice_point_count,
    polar_from_support,
    vertices,
)
from fanoperiods.young import BoxContext, schur_dimension


def parse_document(data):
    """Parse a polytope document back into (system, vertices, counts)."""
    if not isinstance(data, Mapping):
        raise ValueError("polytope JSON must be an object")
    dim = data.get("dim")
    if not isinstance(dim, int) or dim <= 0:
        raise ValueError(f'bad "dim" {dim!r}')
    facets = []
    for record in data.get("facets", []):
        normal = record.get("normal")
        if (
            not isinstance(normal, (list, tuple))
            or len(normal) != dim
            or not all(isinstance(c, int) for c in normal)
        ):
            raise ValueError(f"bad facet normal {normal!r}")
        facets.append(Halfspace(tuple(normal), Fraction(str(record.get("offset")))))
    system = HalfspaceSystem(dim, tuple(facets))
    parsed_vertices = [
        tuple(Fraction(c) for c in v) for v in data.get("vertices", [])
    ]
    counts = {
        int(r): int(c) for r, c in (data.get("lattice_counts") or {}).items()
    }
    return system, parsed_vertices, counts


def _rank_and_kernel_vector(rows, dim):
    """Row-reduce; return (rank, one kernel vector or None).

    The recession-ray oracle's own elimination, independent of the
    library's.
    """
    a = [list(row) for row in rows]
    pivots = []
    row = 0
    for col in range(dim):
        pivot = next((r for r in range(row, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = a[row][col]
        a[row] = [x / inv for x in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == len(a):
            break
    rank = len(pivots)
    if rank == dim:
        return rank, None
    free = next(c for c in range(dim) if c not in pivots)
    vector = [Fraction(0)] * dim
    vector[free] = Fraction(1)
    for r, col in enumerate(pivots):
        vector[col] = -a[r][free]
    return rank, tuple(vector)


def _has_recession_ray(system):
    """Oracle: a line in the recession cone, or a ray spanned by the kernel
    of dim - 1 facet normals."""
    normals = [[Fraction(c) for c in f.normal] for f in system.facets]
    rank, _ = _rank_and_kernel_vector(normals, system.dim)
    if rank < system.dim:
        return True  # a whole line survives in the recession cone
    distinct = sorted({f.normal for f in system.facets})
    for subset in combinations(distinct, system.dim - 1):
        rows = [[Fraction(c) for c in n] for n in subset]
        sub_rank, direction = _rank_and_kernel_vector(rows, system.dim)
        if sub_rank != system.dim - 1 or direction is None:
            continue
        for ray in (direction, tuple(-c for c in direction)):
            if all(
                sum((Fraction(a) * r for a, r in zip(f.normal, ray)), Fraction(0)) >= 0
                for f in system.facets
            ):
                return True
    return False


def _reduce(rows, dim):
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


def _vertices_by_fractions(system):
    """Oracle: solve every dim-subset of facets from scratch over Fractions."""
    found = set()
    for subset in combinations(system.facets, system.dim):
        rows = [[Fraction(c) for c in f.normal] + [f.offset] for f in subset]
        if _reduce(rows, system.dim) is None:
            continue
        point = tuple(row[-1] for row in rows)
        if all(
            sum(a * x for a, x in zip(f.normal, point)) >= f.offset
            for f in system.facets
        ):
            found.add(point)
    return sorted(found)


def _full_dimensional_by_fractions(vs, dim):
    """Oracle: the vertex differences have rank dim."""
    rows = [[x - b for x, b in zip(v, vs[0])] for v in vs[1:]]
    return _reduce(rows, dim) is not None


def _box_scan_count(system, dilation):
    """Oracle: test every integer point of the dilated vertex bounding box."""
    vs = vertices(system)
    if not vs:
        return 0
    lo = [math.ceil(min(v[i] for v in vs) * dilation) for i in range(system.dim)]
    hi = [math.floor(max(v[i] for v in vs) * dilation) for i in range(system.dim)]
    return sum(
        all(
            sum(a * c for a, c in zip(f.normal, candidate)) >= f.offset * dilation
            for f in system.facets
        )
        for candidate in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    )


def _frac(*x):
    return Fraction(*x)


def _triangle():
    # polar dual of the standard reflexive triangle conv{(1,0),(0,1),(-1,-1)}
    return polar_from_support([(1, 0), (0, 1), (-1, -1)])


def _square():
    return polar_from_support([(1, 0), (-1, 0), (0, 1), (0, -1)])


def _halfspaces(dim, *rows):
    return HalfspaceSystem(dim, tuple(Halfspace(n, Fraction(b)) for n, b in rows))


def test_polar_facets_of_triangle():
    system = _triangle()
    assert system.dim == 2
    assert set(system.facets) == {
        Halfspace((1, 0), Fraction(-1)),
        Halfspace((0, 1), Fraction(-1)),
        Halfspace((-1, -1), Fraction(-1)),
    }


def test_polar_rejects_empty_support():
    with pytest.raises(ValueError):
        polar_from_support([])


def test_polar_rejects_zero_only_support():
    with pytest.raises(ValueError):
        polar_from_support([(0, 0)])


def test_polar_deduplicates_support():
    system = polar_from_support([(1, 0), (1, 0), (0, 1), (-1, -1)])
    assert len(system.facets) == 3


def test_triangle_vertices():
    vs = vertices(_triangle())
    assert set(vs) == {
        (_frac(-1), _frac(-1)),
        (_frac(2), _frac(-1)),
        (_frac(-1), _frac(2)),
    }


def test_polar_involution_on_triangle():
    # polar of the triangle's vertex set returns the original triangle
    vs = vertices(_triangle())
    back = polar_from_support([tuple(int(c) for c in v) for v in vs])
    assert set(vertices(back)) == {
        (_frac(1), _frac(0)),
        (_frac(0), _frac(1)),
        (_frac(-1), _frac(-1)),
    }


def test_square_vertices():
    vs = vertices(_square())
    assert set(vs) == {
        (_frac(sx), _frac(sy)) for sx in (-1, 1) for sy in (-1, 1)
    }


def test_segment_vertices():
    vs = vertices(polar_from_support([(1,), (-1,)]))
    assert set(vs) == {(_frac(-1),), (_frac(1),)}


def test_redundant_facet_changes_nothing():
    system = _triangle()
    padded = HalfspaceSystem(
        2, system.facets + (Halfspace((1, 0), Fraction(-2)),)
    )
    assert set(vertices(padded)) == set(vertices(system))


def test_vertex_enumeration_refuses_over_budget(monkeypatch):
    # the cube [-1, 1]^9 cut by |x_1 + ... + x_9| <= 1 has 252 vertices
    # and takes 23,384,914 ray scans; the NO body of Gr(4,8) takes 7,821
    normals = [tuple(int(i == j) for j in range(9)) for i in range(9)]
    normals += [tuple(-c for c in n) for n in normals]
    normals += [(1,) * 9, (-1,) * 9]
    big = HalfspaceSystem(9, tuple(Halfspace(n, Fraction(-1)) for n in normals))
    monkeypatch.setattr(polytope, "MAX_RAY_SCANS", 100_000)
    with pytest.raises(ValueError, match="limit of 100000 ray scans at facet"):
        vertices(big)
    assert len(vertices(nobody_polytope(BoxContext(4, 8)))) == 70


@pytest.mark.parametrize(
    "k, n",
    [(2, 4), (2, 5), (3, 5), (2, 6), (3, 6), (2, 7), (3, 7), (2, 8), (4, 8), (3, 8), (2, 9)],
)
def test_nobody_polytope_has_one_vertex_per_schubert_cell(k, n):
    # observed, not proven: the NO body of Gr(k, n) has C(n, k) vertices,
    # as many as the rectangles seed has Plucker coordinates
    system = nobody_polytope(BoxContext(k, n))
    start = time.perf_counter()
    assert len(vertices(system)) == math.comb(n, k)
    assert time.perf_counter() - start < 5.0


def test_lattice_count_refuses_a_walk_past_the_node_limit(monkeypatch):
    # Gr(2,5) at dilation 1 walks 421 nodes, Gr(2,4) at dilation 2 walks 376
    monkeypatch.setattr(polytope, "MAX_WALK_NODES", 400)
    with pytest.raises(ValueError, match="dilation 1 .* limit of 400 nodes"):
        lattice_point_count(nobody_polytope(BoxContext(2, 5)), 1)
    assert lattice_point_count(nobody_polytope(BoxContext(2, 4)), 2) == 825


def test_counts_of_one_document_share_the_node_limit(monkeypatch):
    # Gr(2,4) walks 86 nodes at dilation 1 and 376 at dilation 2
    monkeypatch.setattr(polytope, "MAX_WALK_NODES", 400)
    system = nobody_polytope(BoxContext(2, 4))
    assert build_document(system, 1)["lattice_counts"] == {"1": 105}
    with pytest.raises(ValueError, match="dilation 2 .* limit of 400 nodes"):
        build_document(system, 2)


def test_lattice_count_refuses_a_memo_past_the_state_limit(monkeypatch):
    # Gr(2,5) at dilation 1 stores 155 states, Gr(2,4) at dilation 2 stores 91
    monkeypatch.setattr(polytope, "MAX_MEMO_STATES", 150)
    with pytest.raises(
        ValueError, match="dilation 1 stores more walk states than the limit of 150"
    ):
        lattice_point_count(nobody_polytope(BoxContext(2, 5)), 1)
    assert lattice_point_count(nobody_polytope(BoxContext(2, 4)), 2) == 825


def test_each_count_of_a_document_has_its_own_state_limit(monkeypatch):
    # Gr(2,4) stores 31 states at dilation 1 and 91 at dilation 2: 122 in
    # all, but the memos of one count are gone before the next starts
    monkeypatch.setattr(polytope, "MAX_MEMO_STATES", 100)
    system = nobody_polytope(BoxContext(2, 4))
    assert build_document(system, 2)["lattice_counts"] == {"1": 105, "2": 825}
    monkeypatch.setattr(polytope, "MAX_MEMO_STATES", 90)
    with pytest.raises(ValueError, match="dilation 2 stores more walk states"):
        build_document(system, 2)


@pytest.mark.parametrize(
    "support", [[(1, 0), (0, 1), (-1, -1)], [(2, 1), (-1, 3), (-3, -2), (1, -1)]]
)
@pytest.mark.parametrize("limit", [1, 2, 7, 40, 400, 4000])
def test_a_two_level_refusal_names_the_dilation_the_walk_would(monkeypatch, support, limit):
    # a planar polar has a two-level chain, whose document is refused from
    # the first level's ranges before any count; the dilation and message
    # must be those at which one shared walk passes the limit
    monkeypatch.setattr(polytope, "MAX_WALK_NODES", limit)
    system = polar_from_support(support)
    assert len(system._chain.levels) == 2
    nodes = count(1)
    with pytest.raises(ValueError, match="brings the walk past") as walked:
        for r in count(1):
            lattice_point_count(system, r, nodes=nodes)
    monkeypatch.setattr(polytope, "_count_points", None)
    with pytest.raises(ValueError) as refused:
        build_document(system, 10**6)
    assert str(refused.value) == str(walked.value)


def test_a_refused_order_materializes_no_dilations(monkeypatch):
    # the counts run one dilation at a time, so a huge order costs only the
    # walk up to the dilation that passes the limit
    monkeypatch.setattr(polytope, "MAX_WALK_NODES", 400)
    system = nobody_polytope(BoxContext(2, 4))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dilation 2 .* limit of 400 nodes"):
            build_document(system, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, f"peak {peak} bytes"


@pytest.mark.parametrize(
    "k, n, dilation, ceiling",
    [
        (2, 5, 1, 600),
        (2, 5, 2, 4_000),
        (2, 5, 3, 15_000),
        (3, 6, 2, 100_000),
        (3, 7, 1, 40_000),
        (2, 8, 1, 25_000),
    ],
)
def test_nobody_counts_are_hook_content_within_a_node_ceiling(k, n, dilation, ceiling):
    # the memoized walk takes 421, 2,861, 10,201, 60,243, 28,663 and 15,508
    # nodes here; a walk of every prefix took 1,191, 14,576, 76,161,
    # 3,129,218, 2,307,667 and 2,788,258
    nodes = count(1)
    system = nobody_polytope(BoxContext(k, n))
    hilbert = schur_dimension((n * dilation,) * k, n)
    assert lattice_point_count(system, dilation, nodes=nodes) == hilbert
    assert next(nodes) <= ceiling


def test_memo_key_keeps_the_last_row_of_the_chain():
    # v = (z, y, x), counted x first and z last: z <= x + 1, the upper row
    # of the last level, is the only row below x's level that reads x, so a
    # memo key without the chain's last residual would count 18, not 27
    prism = polar_from_support(
        [(1, 0, 0), (-1, 0, 1), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    assert lattice_point_count(prism, 1) == 27
    for r in range(4):
        assert lattice_point_count(prism, r) == _box_scan_count(prism, r)


def test_unbounded_polytope_has_no_counts():
    quadrant = polar_from_support([(1, 0), (0, 1)])
    with pytest.raises(UnboundedPolytopeError, match="polar polytope is unbounded"):
        build_document(quadrant, 1)
    assert build_document(quadrant, 0)["lattice_counts"] == {}


def test_nine_dimensional_simplex():
    # {x_i >= 0, sum x_i <= 1}: past the old dimension cap of 8
    facets = [Halfspace(tuple(int(i == j) for j in range(9)), Fraction(0)) for i in range(9)]
    simplex = HalfspaceSystem(9, (*facets, Halfspace((-1,) * 9, Fraction(-1))))
    assert len(vertices(simplex)) == 10
    for r in range(4):
        assert lattice_point_count(simplex, r) == math.comb(r + 9, 9)


def test_triangle_lattice_counts():
    system = _triangle()
    for r in range(4):
        assert lattice_point_count(system, r) == math.comb(3 * r + 2, 2)


def test_square_lattice_counts():
    system = _square()
    assert lattice_point_count(system, 0) == 1
    assert lattice_point_count(system, 1) == 9
    assert lattice_point_count(system, 2) == 25


def test_lattice_counts_monotone():
    system = _triangle()
    counts = [lattice_point_count(system, r) for r in range(5)]
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_lattice_count_unbounded_raises():
    halfplane = HalfspaceSystem(2, (Halfspace((1, 0), Fraction(-1)),))
    with pytest.raises(UnboundedPolytopeError):
        lattice_point_count(halfplane, 1)


def test_lattice_count_of_point():
    point = HalfspaceSystem(
        1, (Halfspace((1,), Fraction(-1)), Halfspace((-1,), Fraction(1)))
    )
    assert lattice_point_count(point, 1) == 1
    assert lattice_point_count(point, 3) == 1


def test_zero_dimensional_space_counts_one_point():
    # R^0 is one point at every dilation; its chain has no levels to walk
    space = HalfspaceSystem(0, [])
    assert [lattice_point_count(space, r) for r in range(4)] == [1, 1, 1, 1]
    document = build_document(space, 2)
    assert document["vertices"] == [[]]
    assert document["lattice_counts"] == {"1": 1, "2": 1}


def test_lattice_count_of_empty_polytope():
    empty = HalfspaceSystem(
        1, (Halfspace((1,), Fraction(1)), Halfspace((-1,), Fraction(1)))
    )
    assert lattice_point_count(empty, 1) == 0


def test_five_dimensional_polar_matches_box_scan():
    # eliminating five coordinates exercises the pruned projection chain
    system = polar_from_support([
        (-1, -1, -1, 1, 0), (-1, 1, 0, 0, 1), (-1, 1, 1, 0, 1), (0, 0, 0, 0, 1),
        (0, 1, 1, -1, -1), (1, -1, 1, 0, 1), (1, 0, 0, -1, 1), (1, 0, 1, 0, 0),
        (1, 1, -1, 1, -1), (1, 1, 0, -1, -1), (1, 1, 1, -1, 1),
    ])
    assert lattice_point_count(system, 1) == _box_scan_count(system, 1) == 63


def test_empty_polytope_counts_zero_at_dilation_zero():
    # the dilation-0 system Av >= 0 holds at the origin, but the polytope is empty
    empty = HalfspaceSystem(
        2,
        (
            Halfspace((1, 0), Fraction(1)),
            Halfspace((-1, 0), Fraction(1)),
            Halfspace((0, 1), Fraction(-1)),
            Halfspace((0, -1), Fraction(-1)),
        ),
    )
    assert geometry_flags(empty).bounded
    assert lattice_point_count(empty, 0) == 0
    assert lattice_point_count(_triangle(), 0) == 1


@st.composite
def _small_systems(draw):
    dim = draw(st.integers(1, 3))
    normal = st.tuples(*[st.integers(-2, 2)] * dim).filter(any)
    offset = st.builds(Fraction, st.integers(-3, 2), st.integers(1, 2))
    facets = draw(st.lists(st.builds(Halfspace, normal, offset), min_size=1, max_size=6))
    return HalfspaceSystem(dim, tuple(facets))


_EMPTY_SQUARE = HalfspaceSystem(
    2,
    (
        Halfspace((1, 0), Fraction(1, 2)),
        Halfspace((-1, 0), Fraction(0)),
        Halfspace((0, 1), Fraction(-1)),
        Halfspace((0, -1), Fraction(-1)),
    ),
)
_POINT = HalfspaceSystem(
    3,
    (
        Halfspace((1, 0, 0), Fraction(1, 2)),
        Halfspace((0, 1, 0), Fraction(-1)),
        Halfspace((0, 0, 1), Fraction(0)),
        Halfspace((-1, -1, -1), Fraction(1, 2)),
    ),
)
_WEDGE = HalfspaceSystem(
    2, (Halfspace((1, 1), Fraction(-1)), Halfspace((1, -1), Fraction(-1)))
)


@settings(deadline=None, max_examples=150)
@given(system=_small_systems(), dilation=st.integers(0, 3))
@example(system=_EMPTY_SQUARE, dilation=0)
@example(system=_EMPTY_SQUARE, dilation=2)
@example(system=_POINT, dilation=0)
@example(system=_POINT, dilation=2)
@example(system=_WEDGE, dilation=1)
def test_counts_and_boundedness_match_the_oracles(system, dilation):
    bounded = not _has_recession_ray(system)
    assert geometry_flags(system).bounded == bounded
    if not bounded:
        with pytest.raises(UnboundedPolytopeError):
            lattice_point_count(system, dilation)
        return
    assert lattice_point_count(system, dilation) == _box_scan_count(system, dilation)


_rational = st.builds(Fraction, st.integers(-4, 3), st.integers(1, 3))


@st.composite
def _vertex_systems(draw):
    """Systems in dimension 1-5 with repeated and parallel normals, and
    with facets forced through one point so that it is a degenerate vertex."""
    dim = draw(st.integers(1, 5))
    normal = st.tuples(*[st.integers(-3, 3)] * dim).filter(any)
    pool = draw(st.lists(normal, min_size=1, max_size=dim + 2))
    centre = draw(st.tuples(*[_rational] * dim))
    facets = []
    for _ in range(draw(st.integers(1, dim + 4))):
        scale = draw(st.sampled_from((1, 2, -1)))
        a = tuple(scale * c for c in draw(st.sampled_from(pool)))
        if draw(st.booleans()):
            offset = sum((c * x for c, x in zip(a, centre)), Fraction(0))
        else:
            offset = draw(_rational)
        facets.append(Halfspace(a, offset))
    return HalfspaceSystem(dim, tuple(facets))


# a square pyramid over [-1, 1]^2: five facets meet at the apex (0, 0, 1)
_PYRAMID = _halfspaces(
    3,
    ((0, 0, 1), 0),
    ((-1, 0, -1), -1),
    ((1, 0, -1), -1),
    ((0, -1, -1), -1),
    ((0, 1, -1), -1),
    ((0, 0, -1), -1),
)

# vertices (0, 0), (1/2, 1), (1, 1/3): the differences' numerators alone
# are parallel, so the rank test must clear denominators first
_THIN_TRIANGLE = _halfspaces(2, ((2, -1), 0), ((-1, 3), 0), ((-4, -3), -5))


@settings(deadline=None, max_examples=200)
@given(system=_vertex_systems())
@example(system=_EMPTY_SQUARE)
@example(system=_WEDGE)
@example(system=_POINT)
@example(system=_PYRAMID)
@example(system=_THIN_TRIANGLE)
@example(system=_halfspaces(2, ((1, 0), -1)))
@example(system=_halfspaces(2, ((1, -1), 0), ((-1, 1), 0), ((1, 1), -2), ((-1, -1), -2)))
def test_vertices_and_flags_match_the_fraction_solves(system):
    vs = vertices(system)
    assert vs == _vertices_by_fractions(system)
    assert all(type(c) is Fraction for v in vs for c in v)
    full = _full_dimensional_by_fractions(vs, system.dim)
    assert geometry_flags(system).full_dimensional == full


def test_explicit_vertex_examples():
    assert vertices(_EMPTY_SQUARE) == []
    assert vertices(_WEDGE) == [(_frac(-1), _frac(0))]
    assert vertices(_POINT) == [(_frac(1, 2), _frac(-1), _frac(0))]
    assert len(vertices(_PYRAMID)) == 5
    assert geometry_flags(_PYRAMID).full_dimensional
    assert vertices(_THIN_TRIANGLE) == [
        (_frac(0), _frac(0)), (_frac(1, 2), _frac(1)), (_frac(1), _frac(1, 3))
    ]
    assert geometry_flags(_THIN_TRIANGLE).full_dimensional
    assert not geometry_flags(_POINT).full_dimensional
    assert not geometry_flags(_EMPTY_SQUARE).full_dimensional


def test_full_dimensional_reads_the_vertex_hull_of_an_unbounded_polyhedron():
    # conv{0, e1, e2} + cone{(1, 1, 1), (1, 1, -1)}: its three vertices lie
    # in the plane z = 0, which is no facet, so no facet is tight at every
    # vertex although the vertex hull is flat
    system = _halfspaces(
        3,
        ((1, -1, 0), -1), ((-1, 1, 0), -1),
        ((0, 1, 1), 0), ((0, 1, -1), 0), ((1, 0, 1), 0), ((1, 0, -1), 0),
    )
    vs = vertices(system)
    assert vs == [(_frac(0), _frac(0), _frac(0)), (_frac(0), _frac(1), _frac(0)),
                  (_frac(1), _frac(0), _frac(0))]
    assert not _full_dimensional_by_fractions(vs, 3)
    assert geometry_flags(system) == (False, False, False)


def test_geometry_flags_triangle():
    flags = geometry_flags(_triangle())
    assert flags.bounded and flags.full_dimensional and flags.origin_interior


def test_geometry_flags_halfplane():
    flags = geometry_flags(HalfspaceSystem(2, (Halfspace((1, 0), Fraction(-1)),)))
    assert not flags.bounded


def test_geometry_flags_slab():
    slab = HalfspaceSystem(
        2, (Halfspace((1, 0), Fraction(-1)), Halfspace((-1, 0), Fraction(-1)))
    )
    flags = geometry_flags(slab)
    assert not flags.bounded


def test_geometry_flags_halfline():
    ray = HalfspaceSystem(1, (Halfspace((1,), Fraction(-1)),))
    assert not geometry_flags(ray).bounded


def test_geometry_flags_point_not_full_dimensional():
    point = HalfspaceSystem(
        1, (Halfspace((1,), Fraction(-1)), Halfspace((-1,), Fraction(1)))
    )
    flags = geometry_flags(point)
    assert flags.bounded
    assert not flags.full_dimensional
    assert not flags.origin_interior  # origin sits on the boundary


@pytest.mark.parametrize(
    "segment, ends",
    [
        # x = 0 and -1 <= y <= 1
        (
            _halfspaces(2, ((1, 0), 0), ((-1, 0), 0), ((0, 1), -1), ((0, -1), -1)),
            [(0, -1), (0, 1)],
        ),
        # x = y and -2 <= x + y <= 2: solving it divides by 2
        (
            _halfspaces(2, ((1, -1), 0), ((-1, 1), 0), ((1, 1), -2), ((-1, -1), -2)),
            [(-1, -1), (1, 1)],
        ),
    ],
    ids=["axis", "diagonal"],
)
def test_geometry_flags_segment_in_the_plane(segment, ends):
    flags = geometry_flags(segment)
    assert flags.bounded
    assert not flags.full_dimensional
    vs = vertices(segment)
    assert vs == [tuple(_frac(c) for c in v) for v in ends]
    # -1.0 == Fraction(-1), so only the type shows that the solve stayed exact
    assert all(type(c) is Fraction for v in vs for c in v)


def test_geometry_flags_shifted_square():
    # square [0, 2]^2: bounded, full-dimensional, origin on the boundary
    shifted = HalfspaceSystem(
        2,
        (
            Halfspace((1, 0), Fraction(0)),
            Halfspace((0, 1), Fraction(0)),
            Halfspace((-1, 0), Fraction(-2)),
            Halfspace((0, -1), Fraction(-2)),
        ),
    )
    flags = geometry_flags(shifted)
    assert flags.bounded
    assert flags.full_dimensional
    assert not flags.origin_interior


def test_document_round_trip():
    system = _triangle()
    doc = build_document(system, 2)
    blob = json.dumps(doc, sort_keys=True)
    parsed_system, parsed_vertices, parsed_counts = parse_document(json.loads(blob))
    assert parsed_system == system
    assert set(parsed_vertices) == set(vertices(system))
    assert parsed_counts == {1: 10, 2: 28}
    rebuilt = build_document(parsed_system, max(parsed_counts))
    assert rebuilt == doc


def test_document_shape():
    doc = build_document(_triangle(), 1)
    assert doc["dim"] == 2
    assert {"normal", "offset"} == set(doc["facets"][0])
    assert doc["lattice_counts"] == {"1": 10}
    assert all(isinstance(c, str) for v in doc["vertices"] for c in v)
