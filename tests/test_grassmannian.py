"""Tests for the rectangles-seed grid network of the Grassmannian.

The Gr(2,4) and Gr(2,5) flow polynomials, theta summands, and period
heads frozen here were computed by hand from the staircase-path model
(weights are products of the face variables at the turning cells)
before the module was written, and cross-checked against the classical
short Pluecker relations and a word count for the low period
coefficients.  Five brute force routes are kept here as oracles:
`walk_paths`, the recursive cell walk behind each turn-column path;
`flow_determinant`, the path-matrix determinant route to the flow
polynomial, built on `walk_paths`; `theta_by_flows`, the flow quotient
behind each closed-form summand; `valuation_vector`, one `max_diag`
merge per chart label, behind the report's closed-form valuations; and
`face_by_valuations`, the diagonal statistic behind each closed-form
face weight.
"""

from __future__ import annotations

import hashlib
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoperiods import grassmannian
from fanoperiods.grassmannian import (
    MAX_CELLS,
    MAX_FAMILY_ENTRIES,
    MAX_SINGLE_PATHS,
    _family_count,
    _flow_counts,
    _min_exponent_vector,
    _rectangle_valuations,
    _rectangles,
    _single_paths,
    _terminals,
    _variable_names,
    build_rectangles_network,
    flow_polynomial,
    grass_periods,
    nobody_polytope,
    superpotential_chart,
    theta_restriction,
    verify_valuations,
)
from fanoperiods.laurent import LaurentPolynomial, QPolynomial, classical_periods
from fanoperiods.polytope import geometry_flags, lattice_point_count
from fanoperiods.young import (
    BoxContext,
    YoungDiagram,
    all_diagrams,
    boundary_rectangle,
    boundary_rectangle_box,
    from_steps,
    max_diag,
    schur_dimension,
    to_steps,
)

CTX12 = BoxContext(1, 2)
CTX24 = BoxContext(2, 4)
CTX25 = BoxContext(2, 5)
CTX35 = BoxContext(3, 5)

SMALL_CONTEXTS = [
    BoxContext(k, n) for n in range(2, 7) for k in range(1, n)
]


def rectangle_labels(ctx):
    """The diagrams behind the chart variables: the base face (empty
    diagram), then every rectangle r x c but the full box, r-major."""
    k, m = ctx.k, ctx.n - ctx.k
    rectangles = [YoungDiagram(ctx, (c,) * r) for r in range(1, m + 1) for c in range(1, k + 1)]
    return [YoungDiagram(ctx, ())] + rectangles[:-1]


def valuation_vector(diagram, labels):
    """Oracle for _rectangle_valuations: the diagonal statistic of `diagram`
    against each label in order, one `max_diag` merge each."""
    return tuple(max_diag(diagram, mu) for mu in labels)


def walk_paths(ctx, source_row, sink_column):
    """Oracle for _single_paths: a recursive walk of the grid, each path as
    (frozenset of its cells, weight).  In each row it runs west from where it
    entered, turns south at some cell (times that face) and, short of the
    sink column, turns west again in a lower row (over that face)."""
    k = ctx.k
    cell_weights = build_rectangles_network(ctx)
    zero = (0,) * len(_variable_names(ctx))
    results = []

    def extend(row, entry_column, cells, weight):
        passed = set()
        for turn_column in range(entry_column, sink_column - 1, -1):
            here = cells | passed | {(row, turn_column)}
            turned = tuple(map(add, weight, cell_weights[(row, turn_column)]))
            if turn_column == sink_column:
                tail = {(r, sink_column) for r in range(row + 1, k + 1)}
                results.append((frozenset(here | tail), turned))
            else:
                for next_row in range(row + 1, k + 1):
                    descent = here | {
                        (r, turn_column) for r in range(row + 1, next_row + 1)
                    }
                    rejoined = tuple(
                        map(sub, turned, cell_weights[(next_row, turn_column)])
                    )
                    extend(next_row, turn_column - 1, frozenset(descent), rejoined)
            passed.add((row, turn_column))

    extend(source_row, ctx.n - k, frozenset(), zero)
    return results


def cell_mask(ctx, cells):
    """The int mask of a cell set: bit (r-1)(n-k) + c for cell (r, c)."""
    return sum(1 << ((r - 1) * (ctx.n - ctx.k) + c) for r, c in cells)


def path_matrix_entry(ctx, source_row, sink_column):
    """All single-path weights between one source and one sink."""
    terms = {}
    one = QPolynomial.one()
    for _, weight in walk_paths(ctx, source_row, sink_column):
        terms[weight] = terms.get(weight, QPolynomial.zero()) + one
    return LaurentPolynomial(_variable_names(ctx), terms)


def flow_determinant(diagram):
    """Oracle for flow_polynomial: the determinant route.

    The counterclockwise boundary ordering makes the disjoint-family
    sum equal the plain determinant of the path matrix over ascending
    sources and ascending sink columns, with positive sign.
    """
    ctx = diagram.context
    sources, columns = _terminals(ctx, to_steps(diagram))
    if not sources:
        return LaurentPolynomial.one(_variable_names(ctx))
    matrix = [[path_matrix_entry(ctx, s, c) for c in columns] for s in sources]
    return _determinant(matrix, _variable_names(ctx))


def _determinant(matrix, names):
    if len(matrix) == 1:
        return matrix[0][0]
    total = LaurentPolynomial(names)
    for j, entry in enumerate(matrix[0]):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = entry * _determinant(minor, names)
        total = total + term if j % 2 == 0 else total - term
    return total


def unit(names, *exponent_vectors):
    """Laurent polynomial with coefficient 1 at each listed exponent."""
    return LaurentPolynomial.from_dict(names, {e: 1 for e in exponent_vectors})


def plucker(ctx, west):
    return flow_polynomial(from_steps(ctx, west))


def theta_by_flows(i, ctx):
    """Oracle for theta_restriction: the flow of the one-box variation of
    boundary rectangle i divided by the flow of the rectangle, which must
    be one monomial with coefficient 1."""
    numerator = flow_polynomial(boundary_rectangle_box(i, ctx))
    denominator = flow_polynomial(boundary_rectangle(i, ctx))
    assert len(denominator.terms) == 1, (ctx, i)
    ((shift, coeff),) = denominator.terms.items()
    assert coeff == QPolynomial.one(), (ctx, i)
    terms = {tuple(map(sub, e, shift)): c for e, c in numerator.terms.items()}
    return LaurentPolynomial(numerator.names, terms)


def face_by_valuations(ctx, row, column):
    """Oracle for a cell weight: the valuation vector of the diagram whose
    west steps are ([k] minus {row}) together with {n+1-column}."""
    west = (set(range(1, ctx.k + 1)) - {row}) | {ctx.n + 1 - column}
    return valuation_vector(from_steps(ctx, west), rectangle_labels(ctx))


class TestNetworkShape:
    def test_gr24_faces_and_variables(self):
        assert _variable_names(CTX24) == ("x0", "x11", "x12", "x21")
        labels = rectangle_labels(CTX24)
        assert tuple(d.rows for d in labels) == (
            (),
            (1,),
            (2,),
            (1, 1),
        )
        rectangles = [d for d in labels if d.rows]
        assert len(rectangles) == 3
        assert all(len(set(d.rows)) == 1 for d in rectangles)

    def test_gr25_faces_and_variables(self):
        assert _variable_names(CTX25) == ("x0", "x11", "x12", "x21", "x22", "x31")
        assert tuple(d.rows for d in rectangle_labels(CTX25)) == (
            (), (1,), (2,), (1, 1), (2, 2), (1, 1, 1)
        )

    def test_face_count_formula(self):
        for ctx in SMALL_CONTEXTS:
            names, labels = _variable_names(ctx), rectangle_labels(ctx)
            assert len(names) == ctx.k * (ctx.n - ctx.k)
            assert len(labels) == len(names)
            full_box = YoungDiagram(ctx, (ctx.k,) * (ctx.n - ctx.k))
            assert full_box not in labels

    def test_single_face_network(self):
        assert _variable_names(CTX12) == ("x0",)
        assert build_rectangles_network(CTX12) == {(1, 1): (1,)}

    def test_single_path_counts_are_binomial(self):
        # s from the top to c from the west: (n-k-c) west and (k-s) south
        # steps in any order; source 1 to column 1 is the most, C(n-2, k-1),
        # the count that build_rectangles_network refuses above its limit
        for n in range(2, 11):
            for k in range(1, n):
                ctx = BoxContext(k, n)
                counts = {
                    (s, c): len(_single_paths(ctx, s, c))
                    for s in range(1, k + 1)
                    for c in range(1, n - k + 1)
                }
                for (s, c), count in counts.items():
                    assert count == comb((n - k - c) + (k - s), k - s), (k, n, s, c)
                assert max(counts.values()) == counts[1, 1] == comb(n - 2, k - 1)

    def test_turn_columns_give_the_walked_paths(self):
        # the same cells and weights, path for path, on every pair with n <= 10
        for n in range(2, 11):
            for k in range(1, n):
                ctx = BoxContext(k, n)
                for s, c in product(range(1, k + 1), range(1, n - k + 1)):
                    walked = [(cell_mask(ctx, cells), w) for cells, w in walk_paths(ctx, s, c)]
                    assert sorted(_single_paths(ctx, s, c)) == sorted(walked), (k, n, s, c)

    def test_path_limit_admits_gr_10_20_and_refuses_gr_11_22(self):
        assert comb(18, 9) <= MAX_SINGLE_PATHS < comb(20, 10)
        message = (
            r"^Gr\(11,22\) has 184756 paths from one source to one sink, "
            rf"above the limit of {MAX_SINGLE_PATHS}$"
        )
        with pytest.raises(ValueError, match=message):
            build_rectangles_network(BoxContext(11, 22))
        # a flow reads its box off its diagram and is refused with it
        with pytest.raises(ValueError, match=message):
            flow_polynomial(YoungDiagram(BoxContext(11, 22), ()))

    def test_faces_match_the_valuation_route_through_n_12(self):
        for n in range(2, 13):
            for k in range(1, n):
                ctx = BoxContext(k, n)
                weights = build_rectangles_network(ctx)
                assert len(weights) == k * (n - k)
                for (row, column), weight in weights.items():
                    expected = face_by_valuations(ctx, row, column)
                    assert weight == expected, (k, n, row, column)

    def test_cell_limit_admits_gr_1_1001_and_refuses_gr_1_1002(self):
        assert MAX_CELLS == 1000
        message = r"^Gr\(1,1002\) has 1001 cells, above the limit of 1000$"
        with pytest.raises(ValueError, match=message):
            build_rectangles_network(BoxContext(1, 1002))
        # the path limit is checked first and keeps its message
        with pytest.raises(ValueError, match="paths from one source to one sink"):
            build_rectangles_network(BoxContext(40, 80))

    def test_network_is_cached(self):
        assert build_rectangles_network(CTX24) is build_rectangles_network(
            BoxContext(2, 4)
        )


class TestFlowPolynomials:
    def test_empty_diagram_normalization(self):
        for ctx in (CTX12, CTX24, CTX25, CTX35):
            empty = YoungDiagram(ctx, ())
            assert flow_polynomial(empty) == LaurentPolynomial.one(_variable_names(ctx))

    def test_gr24_flow_table(self):
        names = _variable_names(CTX24)
        table = {
            (1,): unit(names, (1, 0, 0, 0)),
            (2,): unit(names, (1, 1, 0, 1)),
            (1, 1): unit(names, (1, 1, 1, 0)),
            (2, 1): unit(names, (1, 1, 1, 1), (1, 2, 1, 1)),
            (2, 2): unit(names, (2, 1, 1, 1)),
        }
        for rows, expected in table.items():
            diagram = YoungDiagram(CTX24, rows)
            assert flow_polynomial(diagram) == expected, rows

    def test_gr25_flow_spots(self):
        names = _variable_names(CTX25)
        assert flow_polynomial(YoungDiagram(CTX25, (2,))) == unit(
            names, (1, 1, 0, 1, 0, 1)
        )
        full = YoungDiagram(CTX25, (2, 2, 2))
        assert flow_polynomial(full) == unit(names, (2, 2, 2, 1, 1, 1))

    def test_every_flow_through_n_11_is_unchanged(self):
        # sha256 over the reprs of the 4,072 flows of the boxes with n <= 11,
        # recorded while a flow took the box's network record as well
        digest = hashlib.sha256()
        for n in range(2, 12):
            for k in range(1, n):
                for diagram in all_diagrams(BoxContext(k, n)):
                    digest.update(repr(flow_polynomial(diagram)).encode() + b"\n")
        assert digest.hexdigest() == (
            "6993fdeef7cc5c8cb34eb24d8ba856cda64ca8d92bd0381271aa483f7a6ed289"
        )

    def test_unit_coefficients_everywhere(self):
        for ctx in SMALL_CONTEXTS:
            for diagram in all_diagrams(ctx):
                poly = flow_polynomial(diagram)
                assert not poly.is_zero()
                for coeff in poly.terms.values():
                    assert coeff == QPolynomial.one(), (ctx, diagram.rows)

    def test_boundary_rectangles_are_frozen_monomials(self):
        for ctx in SMALL_CONTEXTS:
            for i in range(ctx.n):
                mu = boundary_rectangle(i, ctx)
                poly = flow_polynomial(mu)
                assert len(poly.terms) == 1, (ctx, i)
                ((exponents, coeff),) = poly.terms.items()
                assert coeff == QPolynomial.one()
                assert exponents == valuation_vector(mu, rectangle_labels(ctx))

    def test_flow_minimum_matches_diagonal_statistic(self):
        for ctx in (CTX24, CTX25, CTX35):
            for diagram in all_diagrams(ctx):
                vec, attained = _min_exponent_vector(flow_polynomial(diagram).terms)
                assert attained, (ctx, diagram.rows)
                assert vec == valuation_vector(diagram, rectangle_labels(ctx))


class TestPluckerRelations:
    @pytest.mark.parametrize("ctx", [CTX24, CTX25, CTX35])
    def test_three_term_relation(self, ctx):
        rest = range(1, ctx.n + 1)
        for quad in combinations(rest, 4):
            a, b, c, d = quad
            others = [v for v in rest if v not in quad]
            for extra in combinations(others, ctx.k - 2):
                s = set(extra)
                lhs = plucker(ctx, s | {a, c}) * plucker(ctx, s | {b, d})
                rhs = plucker(ctx, s | {a, b}) * plucker(ctx, s | {c, d}) + plucker(
                    ctx, s | {a, d}
                ) * plucker(ctx, s | {b, c})
                assert lhs == rhs, (ctx, quad, sorted(s))


class TestDeterminantCrossCheck:
    # (3,6), (3,7), (4,8) and (5,10) have flows with three to five sources.
    @pytest.mark.parametrize(
        "ctx",
        [CTX24, CTX25, CTX35]
        + [BoxContext(k, n) for k, n in ((3, 6), (2, 7), (3, 7), (4, 8), (5, 10))],
    )
    def test_determinant_equals_flow_sum(self, ctx):
        for diagram in all_diagrams(ctx):
            assert flow_determinant(diagram) == flow_polynomial(diagram), (ctx, diagram.rows)

    def test_gr612_boundary_diagrams(self):
        # the 24 diagrams of the chart's numerators and denominators, with
        # up to six sources each
        ctx = BoxContext(6, 12)
        diagrams = {
            build(i, ctx)
            for i in range(ctx.n)
            for build in (boundary_rectangle, boundary_rectangle_box)
        }
        assert len(diagrams) == 24
        for diagram in diagrams:
            assert flow_determinant(diagram) == flow_polynomial(diagram), diagram.rows

    def test_single_source_entry(self):
        diagram = YoungDiagram(CTX24, (2, 1))
        assert path_matrix_entry(CTX24, 1, 1) == flow_polynomial(diagram)


class TestThetaRestriction:
    def test_gr24_theta_table(self):
        names = _variable_names(CTX24)
        expected = [
            unit(names, (1, 0, 0, 0)),
            unit(names, (0, 0, 1, 0), (0, 1, 1, 0)),
            unit(names, (-1, -1, -1, -1)),
            unit(names, (0, 0, 0, 1), (0, 1, 0, 1)),
        ]
        for i, poly in enumerate(expected):
            assert theta_restriction(i, CTX24) == poly, i

    def test_gr25_theta_spots(self):
        names = _variable_names(CTX25)
        assert theta_restriction(1, CTX25) == unit(
            names, (0, 0, 1, 0, 0, 0), (0, 1, 1, 0, 0, 0)
        )
        assert theta_restriction(2, CTX25) == unit(
            names, (0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 1, 0)
        )
        assert sorted(theta_restriction(4, CTX25).terms) == [
            (0, 0, 0, 0, 0, 1),
            (0, 0, 0, 1, 0, 1),
            (0, 1, 0, 1, 0, 1),
        ]

    def test_theta_zero_equals_numerator(self):
        for ctx in (CTX24, CTX35):
            box = YoungDiagram(ctx, (1,))
            assert theta_restriction(0, ctx) == flow_polynomial(box)

    def test_theta_minimum_attained(self):
        for i in range(CTX24.n):
            _, attained = _min_exponent_vector(theta_restriction(i, CTX24).terms)
            assert attained, i

    @pytest.mark.parametrize("ctx", [CTX24, CTX35], ids=["2-4", "3-5"])
    def test_index_outside_the_boundary_is_refused(self, ctx):
        # young refuses the index; theta_restriction keeps no copy of the check
        for i in (-1, ctx.n):
            message = rf"^boundary index {i} outside 0\.\.{ctx.n - 1}$"
            with pytest.raises(ValueError, match=message):
                theta_restriction(i, ctx)

    def test_closed_form_matches_the_flow_quotient_through_n_14(self):
        for n in range(2, 15):
            for k in range(1, n):
                ctx = BoxContext(k, n)
                for i in range(n):
                    expected = theta_by_flows(i, ctx)
                    assert theta_restriction(i, ctx) == expected, (k, n, i)


class TestSuperpotential:
    def test_gr24_chart(self):
        names = _variable_names(CTX24)
        expected = LaurentPolynomial.from_dict(
            names,
            {
                (1, 0, 0, 0): 1,
                (0, 0, 1, 0): 1,
                (0, 1, 1, 0): 1,
                (0, 0, 0, 1): 1,
                (0, 1, 0, 1): 1,
                (-1, -1, -1, -1): QPolynomial.of(1, 1),
            },
        )
        assert superpotential_chart(CTX24) == expected

    def test_smallest_case(self):
        names = _variable_names(CTX12)
        expected = LaurentPolynomial.from_dict(
            names, {(1,): 1, (-1,): QPolynomial.of(1, 1)}
        )
        assert superpotential_chart(CTX12) == expected

    @pytest.mark.parametrize("ctx", [CTX24, CTX25, CTX35])
    def test_single_novikov_monomial(self, ctx):
        chart = superpotential_chart(ctx)
        q_powers = sorted(max(p for p, _ in c.items()) for c in chart.terms.values())
        assert q_powers.count(1) == 1
        assert q_powers[-1] == 1

    @pytest.mark.parametrize("ctx", [CTX24, CTX25, CTX35])
    def test_positive_integer_coefficients_at_q_one(self, ctx):
        chart = superpotential_chart(ctx)
        for coeff in chart.terms.values():
            value = coeff.specialize_q(1)
            assert value.denominator == 1
            assert value > 0

    def test_chart_emitters_build_no_face_table(self):
        # the chart, its periods and its polytope read only the variable names
        build_rectangles_network.cache_clear()
        superpotential_chart(CTX25)
        grass_periods(CTX25, 4)
        nobody_polytope(CTX25)
        assert build_rectangles_network.cache_info().currsize == 0

    def test_gr25_term_count(self):
        assert len(superpotential_chart(CTX25).terms) == 9

    def test_term_count_through_gr_7_14(self):
        # k(n-k) + (k-1)(n-k-1) + 1 terms on every box with n <= 14, where
        # k(n-k) <= 49; Gr(6,12), Gr(6,13) and Gr(7,14) have 62, 73 and 86
        start = time.perf_counter()
        for n in range(2, 15):
            for k in range(1, n):
                terms = superpotential_chart(BoxContext(k, n)).terms
                assert len(terms) == k * (n - k) + (k - 1) * (n - k - 1) + 1, (k, n)
        assert time.perf_counter() - start < 20.0

    def test_gr_10_20_chart_within_budget(self):
        # over 6 s while each summand was a quotient of two enumerated flows;
        # the names are rebuilt so that no cached closed form helps
        _variable_names.cache_clear()
        start = time.perf_counter()
        terms = superpotential_chart(BoxContext(10, 20)).terms
        assert time.perf_counter() - start < 1.0
        assert len(terms) == 100 + 81 + 1

    def test_gr_1_1000_chart_within_budget(self):
        # P^999, one below the largest P^n the cell limit admits; its chart
        # took about two minutes while the cell weights were valuation vectors
        start = time.perf_counter()
        chart = superpotential_chart(BoxContext(1, 1000))
        assert time.perf_counter() - start < 2.0
        assert len(chart.terms) == 1000
        assert chart.terms[(-1,) * 999] == QPolynomial.of(1, 1)


class TestRectangleValuations:
    def test_closed_form_matches_max_diag_through_n_12(self):
        # all 8,166 diagrams of the boxes with n <= 12, against every label
        for n in range(2, 13):
            for k in range(1, n):
                ctx = BoxContext(k, n)
                labels = rectangle_labels(ctx)
                for diagram in all_diagrams(ctx):
                    got = _rectangle_valuations(ctx, diagram.rows)
                    assert got == valuation_vector(diagram, labels), (k, n, diagram.rows)

    @settings(max_examples=400, deadline=1000)
    @given(
        st.lists(st.integers(0, 15), max_size=15),
        st.integers(1, 12),
        st.integers(1, 12),
    )
    def test_closed_form_matches_max_diag_on_any_rectangle(self, rows, a, b):
        # a box one row deeper than both, so that the a x b rectangle, which
        # may be larger than the diagram, is a chart label
        rows = sorted(rows, reverse=True)
        k = max([b, *rows])
        ctx = BoxContext(k, k + max(a, len(rows)) + 1)
        diagram = YoungDiagram(ctx, rows)
        vector = _rectangle_valuations(ctx, diagram.rows)
        assert vector[0] == max_diag(diagram, YoungDiagram(ctx, ()))
        rectangle = YoungDiagram(ctx, (b,) * a)
        assert vector[_rectangles(ctx).index((a, b)) + 1] == max_diag(diagram, rectangle)

    def test_hand_cases(self):
        # Gr(5,7), labels x0, 1 x 1 .. 1 x 5, 2 x 1 .. 2 x 4: (5) minus 1 x 1
        # leaves one cell on each of four diagonals, and (5) keeps a cell
        # against every label but 1 x 5
        vector = _rectangle_valuations(BoxContext(5, 7), (5,))
        assert vector == (1, 1, 1, 1, 1, 0, 1, 1, 1, 1)
        for ctx in SMALL_CONTEXTS:
            assert _rectangle_valuations(ctx, ()) == (0,) * len(_variable_names(ctx))


class TestValuationReport:
    def test_empty_for_small_contexts(self):
        for ctx in SMALL_CONTEXTS:
            assert verify_valuations(ctx) == [], ctx

    def test_empty_for_gr_6_12_within_budget(self):
        # 924 diagrams' path families, up to six sources each, walked without
        # building their flow polynomials
        start = time.perf_counter()
        assert verify_valuations(BoxContext(6, 12)) == []
        assert time.perf_counter() - start < 20.0

    def test_report_is_a_list(self):
        assert isinstance(verify_valuations(CTX24), list)

    def test_min_exponent_vector_attained(self):
        vec, attained = _min_exponent_vector({(2, 0): 1, (2, 3): 5})
        assert vec == (2, 0)
        assert attained is True

    def test_min_exponent_vector_not_attained(self):
        vec, attained = _min_exponent_vector({(2, 0): 1, (0, 3): 1})
        assert vec == (0, 0)
        assert attained is False

    def test_min_exponent_vector_p2_mirror_attained(self):
        vec, attained = _min_exponent_vector({(1, 0): 1, (0, 1): 1, (-1, -1): 1})
        assert vec == (-1, -1)
        assert attained is True

    @pytest.mark.parametrize("k, n", [(3, 6), (4, 9), (5, 10)])
    def test_report_caches_only_the_boundary_flows(self, k, n):
        # the flow-quotient battery builds the flows of mu_i and its one-box
        # variation; every other diagram's families are read off the walk
        flow_polynomial.cache_clear()
        assert verify_valuations(BoxContext(k, n)) == []
        assert flow_polynomial.cache_info().currsize <= 2 * n

    def test_gr_5_10_report_peak_memory(self):
        # about 0.4 MB; 4.5 MB while every flow was kept as a polynomial
        for cache in (flow_polynomial, _single_paths, build_rectangles_network, _variable_names):
            cache.cache_clear()
        tracemalloc.start()
        try:
            assert verify_valuations(BoxContext(5, 10)) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_500_000

    def test_family_counts_match_the_flows_through_n_10(self):
        # a flow's coefficients sum to its number of path families
        for n in range(2, 11):
            for k in range(1, n):
                for diagram in all_diagrams(BoxContext(k, n)):
                    terms = flow_polynomial(diagram).terms.values()
                    families = sum(c.specialize_q(1) for c in terms)
                    ctx, west = diagram.context, to_steps(diagram)
                    assert _family_count(ctx, west) == families
                    assert sum(_flow_counts(ctx, west).values()) == families

    @pytest.mark.parametrize(
        "k, n, families, admitted",
        [(6, 12, 207_997, True), (2, 60, 34_279, True), (2, 100, 161_799, True),
         (3, 25, 432_653, True), (4, 16, 769_730, False), (3, 26, 556_164, False)],
    )
    def test_family_limit_admits_gr_2_100_and_refuses_gr_4_16(self, k, n, families, admitted):
        ctx = BoxContext(k, n)
        total = sum(_family_count(ctx, west) for west in combinations(range(1, n + 1), k))
        assert total == families
        assert (total * k * (n - k) <= MAX_FAMILY_ENTRIES) == admitted

    def test_a_raised_expected_entry_is_reported(self, monkeypatch):
        closed_form = grassmannian._rectangle_valuations

        def raised(ctx, rows):
            vector = closed_form(ctx, rows)
            return (vector[0] + 1, *vector[1:]) if rows == (2, 1) else vector

        monkeypatch.setattr(grassmannian, "_rectangle_valuations", raised)
        assert verify_valuations(CTX24) == [
            {"lambda": [2, 1], "expected": [2, 1, 1, 1], "got": [1, 1, 1, 1]}
        ]

    def test_an_unattained_minimum_is_reported(self, monkeypatch):
        # Gr(3,7), (3,3,2,1): without the family that attains its minimum the
        # other seven families keep the same componentwise minimum
        walk = grassmannian._flow_counts

        def dropped(ctx, west):
            counts = walk(ctx, west)
            if sorted(west) == [3, 5, 7]:
                del counts[_min_exponent_vector(counts)[0]]
            return counts

        monkeypatch.setattr(grassmannian, "_flow_counts", dropped)
        assert verify_valuations(BoxContext(3, 7)) == [
            {"lambda": [3, 3, 2, 1], "expected": "attained minimum",
             "got": "unattained minimum"}
        ]

    def test_a_shifted_summand_is_reported(self, monkeypatch):
        closed_form = grassmannian.theta_restriction

        def shifted(i, ctx):
            theta = closed_form(i, ctx)
            if i != 1:
                return theta
            terms = {(e[0] + 1, *e[1:]): c for e, c in theta.terms.items()}
            return LaurentPolynomial(theta.names, terms)

        monkeypatch.setattr(grassmannian, "theta_restriction", shifted)
        assert verify_valuations(CTX24) == [
            {"theta": 1, "expected": "the flow quotient", "got": "another summand"},
            {"theta": 1, "expected": [0, 0, 1, 0], "got": [1, 0, 1, 0]},
        ]

    def test_gr_7_14_report_is_refused_before_any_flow(self):
        # 10,094,282 families over 49 cells; the count stops past the limit
        flow_polynomial.cache_clear()
        message = (
            r"^Gr\(7,14\) has at least 653450 path families of 49 exponents each, "
            rf"32019050 in all, above the limit of {MAX_FAMILY_ENTRIES}$"
        )
        with pytest.raises(ValueError, match=message):
            verify_valuations(BoxContext(7, 14))
        assert flow_polynomial.cache_info().currsize == 0


class TestPolytope:
    def test_gr24_geometry(self):
        system = nobody_polytope(CTX24)
        assert system.dim == 4
        assert len(system.facets) == 6
        flags = geometry_flags(system)
        assert flags.bounded
        assert flags.full_dimensional
        assert flags.origin_interior

    def test_gr24_lattice_counts_match_hook_content(self):
        system = nobody_polytope(CTX24)
        assert lattice_point_count(system, 0) == 1
        assert lattice_point_count(system, 1) == schur_dimension((4, 4), 4)
        assert lattice_point_count(system, 2) == schur_dimension((8, 8), 4)

    def test_gr24_counts_frozen_values(self):
        system = nobody_polytope(CTX24)
        assert lattice_point_count(system, 1) == 105
        assert lattice_point_count(system, 2) == 825

    def test_gr25_count_matches_hook_content(self):
        system = nobody_polytope(CTX25)
        assert system.dim == 6
        flags = geometry_flags(system)
        assert flags.bounded
        assert flags.full_dimensional
        assert flags.origin_interior
        assert lattice_point_count(system, 1) == 1176
        assert 1176 == schur_dimension((5, 5, 5), 5)


def _inverse_powers(d, n, degree):
    """Coefficients of prod_{l=1}^d (x + l)^(-n) through x^degree, where
    (x + l)^(-n) = sum_m (-1)^m C(n+m-1, m) x^m / l^(n+m)."""
    series = [Fraction(1)] + [Fraction(0)] * degree
    for l in range(1, d + 1):
        factor = [
            Fraction((-1) ** m * comb(n + m - 1, m), l ** (n + m)) for m in range(degree + 1)
        ]
        series = [
            sum(series[i] * factor[m - i] for i in range(m + 1)) for m in range(degree + 1)
        ]
    return series


def _vandermonde(degrees):
    """prod_{i<j} (x_i - x_j)(x_i - x_j + d_i - d_j) as {exponent tuple: int}."""
    k = len(degrees)
    unit = [tuple(int(a == b) for b in range(k)) for a in range(k + 1)]  # unit[k] = 0
    poly = {(0,) * k: 1}
    for i, j in combinations(range(k), 2):
        for shift in (0, degrees[i] - degrees[j]):
            # multiply by x_i - x_j + shift
            expanded = {}
            for e, c in poly.items():
                for step, scale in ((unit[i], c), (unit[j], -c), (unit[k], shift * c)):
                    key = tuple(map(add, e, step))
                    expanded[key] = expanded.get(key, 0) + scale
            poly = {e: c for e, c in expanded.items() if c}
    return poly


def martin_periods(k, n, order):
    """c_0..c_order of Gr(k,n) by Martin's integration formula: with
    eps = (-1)^((k-1)d + k(k-1)/2), c_{nd} = (nd)! eps/k! q^d times

        sum_{d_1+...+d_k=d} [x_1^(n-1)...x_k^(n-1)]
            prod_{i<j} (x_i - x_j)(x_i - x_j + d_i - d_j)
            prod_i x_i^(n-k) prod_{l=1}^{d_i} (x_i + l)^(-n),

    and every other c_m is 0 (Hori-Vafa; Bertram-Ciocan-Fontanine-Kim)."""
    coeffs = [QPolynomial.zero()] * (order + 1)
    for d in range(order // n + 1):
        eps = (-1) ** ((k - 1) * d + k * (k - 1) // 2)
        total = Fraction(0)
        for degrees in product(range(d + 1), repeat=k):
            if sum(degrees) != d:
                continue
            series = [_inverse_powers(d_i, n, n - 1) for d_i in degrees]
            for e, c in _vandermonde(degrees).items():
                # [x_i^(n-1)] of x_i^(e_i) x_i^(n-k) (series in x_i)
                term = Fraction(c)
                for e_i, s in zip(e, series):
                    m = n - 1 - e_i - (n - k)
                    term *= s[m] if m >= 0 else 0
                total += term
        coeffs[n * d] = QPolynomial.of(factorial(n * d) * eps * total / factorial(k), d)
    return coeffs


class TestPeriods:
    @pytest.mark.parametrize(
        "k, n, order", [(1, 3, 12), (2, 4, 16), (2, 5, 15), (2, 6, 12), (3, 6, 12)]
    )
    def test_matches_martins_closed_form(self, k, n, order):
        start = time.perf_counter()
        assert grass_periods(BoxContext(k, n), order) == martin_periods(k, n, order)
        assert time.perf_counter() - start < 2.0

    def test_gr25_matches_the_apery_form_through_order_25(self):
        # c_{5d} = (5d)!/(d!)^5 a_d q^d, a_d = sum_j C(d,j)^2 C(d+j,j) the
        # Apery numbers of zeta(2): 1, 3, 19, 147, 1251, 11253
        start = time.perf_counter()
        coeffs = grass_periods(CTX25, 25)
        for m, coeff in enumerate(coeffs):
            d = m // 5
            apery = sum(comb(d, j) ** 2 * comb(d + j, j) for j in range(d + 1))
            closed = factorial(5 * d) // factorial(d) ** 5 * apery if m % 5 == 0 else 0
            assert coeff == QPolynomial.of(closed, d), m
        assert time.perf_counter() - start < 5.0

    def test_gr24_heads(self):
        coeffs = grass_periods(CTX24, 8)
        assert coeffs[0] == QPolynomial.one()
        for d in (1, 2, 3, 5, 6, 7):
            assert coeffs[d] == QPolynomial.zero(), d
        assert coeffs[4] == QPolynomial.of(48, 1)
        assert coeffs[8] == QPolynomial.of(15120, 2)

    def test_gr25_heads(self):
        coeffs = grass_periods(CTX25, 5)
        assert coeffs[0] == QPolynomial.one()
        for d in (1, 2, 3, 4):
            assert coeffs[d] == QPolynomial.zero(), d
        assert coeffs[5] == QPolynomial.of(360, 1)

    def test_gr24_matches_the_quadric_closed_form_through_order_24(self):
        # Gr(2,4) is the quadric Q^4: c_{4m} = (4m)!(2m)!/(m!)^6
        coeffs = grass_periods(CTX24, 24)
        for d, coeff in enumerate(coeffs):
            if d % 4:
                assert coeff == QPolynomial.zero(), d
            else:
                m = d // 4
                closed = factorial(4 * m) * factorial(2 * m) // factorial(m) ** 6
                assert coeff == QPolynomial.of(closed, m), d

    def test_gr36_reaches_order_12(self):
        coeffs = grass_periods(BoxContext(3, 6), 12)
        assert coeffs[0] == QPolynomial.one()
        assert coeffs[6] == QPolynomial.of(4320, 1)
        assert coeffs[12] == QPolynomial.of(943034400, 2)
        assert all(coeffs[d] == QPolynomial.zero() for d in range(1, 12) if d != 6)

    def test_matches_direct_period_extraction(self):
        chart = superpotential_chart(CTX12)
        assert grass_periods(CTX12, 6) == classical_periods(chart, 6)
        coeffs = grass_periods(CTX12, 6)
        assert coeffs[2] == QPolynomial.of(2, 1)
        assert coeffs[4] == QPolynomial.of(6, 2)
        assert coeffs[6] == QPolynomial.of(20, 3)
