"""Tests for bounded Young diagrams, west-step sets, diagonal statistics, and
boundary rectangles.

The small tables for (k, n) = (2, 4) and (2, 5) were worked out by hand
and are frozen here; the delta identity for the diagonal statistic is
exercised exhaustively in the acceptance suite.  `max_diag` merges
content sequences; the cell-set difference it replaced is kept here as
its oracle.  The boundary rectangles are built from closed-form rows;
the west-step route they replaced is kept here as their oracle.
`theta_valuation_delta` works on those rows without building diagrams
and is checked against `max_diag` on the public diagrams;
`sigma_reflect` complements the conjugate in the box, and the
step-set reflection it replaced is kept here as its oracle.
"""

from __future__ import annotations

import json
import time
from collections.abc import Mapping
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoperiods.young import (
    BoxContext,
    YoungDiagram,
    all_diagrams,
    boundary_rectangle,
    boundary_rectangle_box,
    from_steps,
    max_diag,
    schur_dimension,
    sigma_reflect,
    theta_valuation_delta,
    to_steps,
    valuation_vector,
)

CTX24 = BoxContext(2, 4)
CTX25 = BoxContext(2, 5)


def _d(ctx, *rows):
    return YoungDiagram(ctx, rows)


def _cells(diagram):
    """Cells (row, column), 1-indexed, top-left justified."""
    return {(i, j) for i, r in enumerate(diagram.rows, 1) for j in range(1, r + 1)}


def _max_diag_by_cells(diagram, removed):
    """Oracle: tally cells(diagram) - cells(removed) by column - row."""
    tallies = {}
    for i, j in _cells(diagram) - _cells(removed):
        tallies[j - i] = tallies.get(j - i, 0) + 1
    return max(tallies.values(), default=0)


def _cyclic_label(value, n):
    """Reduce to 1..n (the representative n, never 0)."""
    return (value - 1) % n + 1


def _boundary_rectangle_by_steps(index, ctx):
    """Oracle: west steps on the cyclic interval [i+1, i+k]."""
    west = {_cyclic_label(index + t, ctx.n) for t in range(1, ctx.k + 1)}
    return from_steps(ctx, west)


def _boundary_rectangle_box_by_steps(index, ctx):
    """Oracle: west steps on [i+1, i+k-1] plus the single step i+k+1."""
    west = {_cyclic_label(index + t, ctx.n) for t in range(1, ctx.k)}
    west.add(_cyclic_label(index + ctx.k + 1, ctx.n))
    return from_steps(ctx, west)


def _sigma_reflect_by_steps(diagram):
    """Oracle: the south steps of the border path become the west steps
    of the image in the transposed box."""
    ctx = diagram.context
    south = frozenset(range(1, ctx.n + 1)) - to_steps(diagram)
    return from_steps(BoxContext(ctx.n - ctx.k, ctx.n), south)


# ---------------------------------------------------------------------------
# contexts and diagrams


def test_context_validation():
    with pytest.raises(ValueError):
        BoxContext(0, 4)
    with pytest.raises(ValueError):
        BoxContext(4, 4)
    with pytest.raises(ValueError):
        BoxContext(5, 4)


def test_diagram_validation():
    with pytest.raises(ValueError):
        _d(CTX24, 3)  # row longer than k
    with pytest.raises(ValueError):
        _d(CTX24, 1, 2)  # not weakly decreasing
    with pytest.raises(ValueError):
        _d(CTX24, 2, 2, 1)  # more than n - k rows
    for rows in [(1, -1), (-1,), (0, -1, 0)]:
        with pytest.raises(ValueError, match="leave the"):
            _d(CTX24, *rows)  # negative row
    assert _d(CTX24, 2, 1, 0).rows == (2, 1)  # trailing zeros stripped


def test_cells():
    assert _cells(_d(CTX24, 2, 1)) == {(1, 1), (1, 2), (2, 1)}
    assert _cells(_d(CTX24)) == set()


# ---------------------------------------------------------------------------
# step sets


WEST_TABLE_24 = {
    (): {1, 2},
    (1,): {1, 3},
    (2,): {2, 3},
    (1, 1): {1, 4},
    (2, 1): {2, 4},
    (2, 2): {3, 4},
}


def test_west_steps_table_for_2_4():
    for rows, west in WEST_TABLE_24.items():
        assert to_steps(_d(CTX24, *rows)) == frozenset(west)


def test_full_box_path_shape():
    # the full box walks all south steps first, then all west steps
    for k, n in [(1, 3), (2, 4), (2, 5), (3, 7)]:
        ctx = BoxContext(k, n)
        full = _d(ctx, *([k] * (n - k)))
        assert to_steps(full) == frozenset(range(n - k + 1, n + 1))


def test_from_steps_round_trip_exhaustive():
    for n in range(2, 9):
        for k in range(1, n):
            ctx = BoxContext(k, n)
            for members in combinations(range(1, n + 1), k):
                lam = from_steps(ctx, members)
                assert to_steps(lam) == frozenset(members)


def test_step_cardinality_enforced():
    with pytest.raises(ValueError):
        from_steps(CTX24, {1})
    with pytest.raises(ValueError):
        from_steps(CTX24, {1, 2, 3})
    with pytest.raises(ValueError):
        from_steps(CTX24, {0, 1})


def test_all_diagrams_count():
    for n in range(2, 8):
        for k in range(1, n):
            assert len(all_diagrams(BoxContext(k, n))) == comb(n, k)


def test_all_diagrams_match_from_steps_on_every_box():
    # all_diagrams stores rows it builds without validating them; the
    # validating from_steps route must give the same diagrams in the same order
    for n in range(2, 10):
        for k in range(1, n):
            ctx = BoxContext(k, n)
            built = all_diagrams(ctx)
            expected = [from_steps(ctx, west) for west in combinations(range(1, n + 1), k)]
            assert built == expected
            assert [d.rows for d in built] == [d.rows for d in expected]
            assert [YoungDiagram(ctx, d.rows) for d in built] == built


# ---------------------------------------------------------------------------
# boundary rectangles


def test_boundary_rectangles_2_4():
    expected = [(), (2,), (2, 2), (1, 1)]
    for i, rows in enumerate(expected):
        assert boundary_rectangle(i, CTX24) == _d(CTX24, *rows)


def test_boundary_rectangles_2_5():
    expected = [(), (2,), (2, 2), (2, 2, 2), (1, 1, 1)]
    for i, rows in enumerate(expected):
        assert boundary_rectangle(i, CTX25) == _d(CTX25, *rows)


def test_boundary_rectangle_general_formula():
    for n in range(2, 8):
        for k in range(1, n):
            ctx = BoxContext(k, n)
            for i in range(n):
                expected = (
                    (k,) * i if i <= n - k else (n - i,) * (n - k)
                )
                assert boundary_rectangle(i, ctx) == YoungDiagram(ctx, expected)


def test_boundary_rectangle_box_2_4():
    expected = [(1,), (2, 1), (1,), (2, 1)]
    for i, rows in enumerate(expected):
        assert boundary_rectangle_box(i, CTX24) == _d(CTX24, *rows)


def test_boundary_rectangle_box_2_5():
    expected = [(1,), (2, 1), (2, 2, 1), (1, 1), (2, 1, 1)]
    for i, rows in enumerate(expected):
        assert boundary_rectangle_box(i, CTX25) == _d(CTX25, *rows)


def test_boundary_index_range():
    for build in (boundary_rectangle, boundary_rectangle_box):
        with pytest.raises(ValueError):
            build(4, CTX24)
        with pytest.raises(ValueError):
            build(-1, CTX24)


def test_boundary_rectangles_match_the_step_oracle_on_every_box():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 9):
        for k in range(1, n):
            ctx = BoxContext(k, n)
            for i in range(n):
                assert boundary_rectangle(i, ctx) == _boundary_rectangle_by_steps(
                    i, ctx
                ), (k, n, i)
                assert boundary_rectangle_box(
                    i, ctx
                ) == _boundary_rectangle_box_by_steps(i, ctx), (k, n, i)
                checked += 1
    assert checked == sum(n * (n - 1) for n in range(2, 9))
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# diagonal statistic


def test_max_diag_examples():
    full = _d(CTX24, 2, 2)
    assert max_diag(full, _d(CTX24)) == 2  # cells (1,1),(2,2) share a diagonal
    assert max_diag(full, _d(CTX24, 1)) == 1
    assert max_diag(full, full) == 0
    assert max_diag(_d(CTX24, 1), _d(CTX24)) == 1
    assert max_diag(_d(CTX24, 2, 1), _d(CTX24, 1)) == 1
    # plain set difference of cells, no containment required
    assert max_diag(_d(CTX24, 2), _d(CTX24, 1, 1)) == 1


def test_max_diag_matches_cell_oracle_on_every_same_box_pair():
    start = time.perf_counter()
    pairs = 0
    for n in range(2, 9):
        for k in range(1, n):
            diagrams = all_diagrams(BoxContext(k, n))
            for lam in diagrams:
                for mu in diagrams:
                    assert max_diag(lam, mu) == _max_diag_by_cells(lam, mu), (
                        lam.rows,
                        mu.rows,
                    )
                    pairs += 1
    assert pairs == 17560
    assert time.perf_counter() - start < 10.0


@st.composite
def _diagrams(draw):
    n = draw(st.integers(2, 9))
    k = draw(st.integers(1, n - 1))
    rows = draw(st.lists(st.integers(0, k), max_size=n - k))
    return YoungDiagram(BoxContext(k, n), sorted(rows, reverse=True))


@settings(max_examples=400, deadline=1000)
@given(_diagrams(), _diagrams())
def test_max_diag_matches_cell_oracle_across_boxes(lam, mu):
    # max_diag never needed a shared context: any two partitions compare
    assert max_diag(lam, mu) == _max_diag_by_cells(lam, mu)


def test_valuation_vector():
    seed = [_d(CTX24), _d(CTX24, 1), _d(CTX24, 2, 2)]
    assert valuation_vector(_d(CTX24, 2, 2), seed) == (2, 1, 0)
    assert valuation_vector(_d(CTX24), seed) == (0, 0, 0)


THETA_DELTA_24 = {
    (i, j): (1 if i == j else 0) - (1 if i == 2 else 0)
    for i in range(4)
    for j in range(4)
}


def test_theta_valuation_delta_2_4_table():
    for (i, j), expected in THETA_DELTA_24.items():
        assert theta_valuation_delta(i, j, CTX24) == expected


def test_theta_valuation_delta_matches_max_diag_on_every_box():
    checked = 0
    for n in range(2, 10):
        for k in range(1, n):
            ctx = BoxContext(k, n)
            for i in range(n):
                rect, box = boundary_rectangle(i, ctx), boundary_rectangle_box(i, ctx)
                for j in range(n):
                    mu = boundary_rectangle(j, ctx)
                    want = max_diag(box, mu) - max_diag(rect, mu)
                    assert theta_valuation_delta(i, j, ctx) == want, (k, n, i, j)
                    checked += 1
    assert checked == sum(n * n * (n - 1) for n in range(2, 10))


def test_theta_valuation_delta_refuses_boundary_indices():
    for i, j in [(4, 0), (-1, 0), (0, 4), (0, -1)]:
        with pytest.raises(ValueError, match="boundary index"):
            theta_valuation_delta(i, j, CTX24)


def test_theta_valuation_delta_3_5_spot():
    ctx = BoxContext(3, 5)
    assert theta_valuation_delta(1, 1, ctx) == 1
    assert theta_valuation_delta(2, 0, ctx) == -1
    assert theta_valuation_delta(0, 1, ctx) == 0


# ---------------------------------------------------------------------------
# reflection


def test_sigma_reflect_examples():
    assert sigma_reflect(_d(CTX24)) == _d(CTX24, 2, 2)
    assert sigma_reflect(_d(CTX24, 2, 2)) == _d(CTX24)
    assert sigma_reflect(_d(CTX24, 1)) == _d(CTX24, 2, 1)
    assert sigma_reflect(_d(CTX24, 2)) == _d(CTX24, 1, 1)


def test_sigma_reflect_transposes_context():
    ctx = BoxContext(1, 3)
    image = sigma_reflect(YoungDiagram(ctx, (1,)))
    assert image.context == BoxContext(2, 3)


def test_sigma_reflect_matches_the_step_oracle_on_every_box():
    reflected = 0
    for n in range(2, 11):
        for k in range(1, n):
            for lam in all_diagrams(BoxContext(k, n)):
                assert sigma_reflect(lam) == _sigma_reflect_by_steps(lam), lam
                reflected += 1
    assert reflected == 2026


def test_sigma_reflect_involution_small():
    for n in range(2, 7):
        for k in range(1, n):
            for lam in all_diagrams(BoxContext(k, n)):
                assert sigma_reflect(sigma_reflect(lam)) == lam


def test_max_diag_reflection_symmetry_small():
    # sigma reverses containment, so the arguments swap on the reflected side
    ctx = BoxContext(2, 5)
    diagrams = all_diagrams(ctx)
    for mu in diagrams:
        for lam in diagrams:
            assert max_diag(mu, lam) == max_diag(sigma_reflect(lam), sigma_reflect(mu))


# ---------------------------------------------------------------------------
# dimensions of Schur modules


def test_schur_dimension_small():
    for n in range(1, 6):
        assert schur_dimension((1,), n) == n
    assert schur_dimension((1, 1), 4) == 6
    assert schur_dimension((2,), 2) == 3
    for m in range(9):
        assert schur_dimension((m,), 2) == m + 1


def test_schur_dimension_rectangles_gl4():
    assert schur_dimension((4, 4), 4) == 105
    assert schur_dimension((8, 8), 4) == 825


def test_schur_dimension_accepts_diagram():
    assert schur_dimension(_d(CTX24, 1, 1), 4) == 6


def test_schur_dimension_too_many_rows():
    with pytest.raises(ValueError):
        schur_dimension((1, 1, 1), 2)


# ---------------------------------------------------------------------------
# JSON: {"k": 2, "n": 4, "rows": [2, 1]}


def diagram_to_json(diagram):
    return {
        "k": diagram.context.k,
        "n": diagram.context.n,
        "rows": list(diagram.rows),
    }


def diagram_from_json(data):
    if not isinstance(data, Mapping):
        raise ValueError("diagram JSON must be an object")
    k, n, rows = data.get("k"), data.get("n"), data.get("rows")
    if not isinstance(k, int) or not isinstance(n, int):
        raise ValueError('diagram JSON needs integer "k" and "n"')
    if not isinstance(rows, (list, tuple)) or not all(
        isinstance(r, int) and not isinstance(r, bool) for r in rows
    ):
        raise ValueError(f'bad "rows" {rows!r}')
    return YoungDiagram(BoxContext(k, n), tuple(rows))


def test_diagram_json_round_trip():
    lam = _d(CTX24, 2, 1)
    blob = json.dumps(diagram_to_json(lam))
    assert diagram_from_json(json.loads(blob)) == lam
    assert diagram_to_json(lam) == {"k": 2, "n": 4, "rows": [2, 1]}


def test_diagram_json_rejects_bad_rows():
    with pytest.raises(ValueError):
        diagram_from_json({"k": 2, "n": 4, "rows": [1, 2]})
    with pytest.raises(ValueError):
        diagram_from_json({"k": 2, "n": 4, "rows": [3]})
