"""Tests for the rectangles-seed grid network of the Grassmannian.

The Gr(2,4) and Gr(2,5) flow polynomials, theta summands, and period
heads frozen here were computed by hand from the staircase-path model
(weights are products of the face variables at the turning cells)
before the module was written, and cross-checked against the classical
short Pluecker relations and a word count for the low period
coefficients.  `flow_determinant`, the path-matrix determinant route to
the flow polynomial, is kept here as an oracle.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial

import pytest

from fanoperiods.grassmannian import (
    ChartError,
    _monomial_quotient,
    _single_paths,
    _terminals,
    build_rectangles_network,
    flow_polynomial,
    grass_periods,
    nobody_polytope,
    superpotential_chart,
    theta_restriction,
    verify_valuations,
)
from fanoperiods.laurent import (
    LaurentPolynomial,
    QPolynomial,
    classical_periods,
    min_exponent_vector,
    support,
)
from fanoperiods.polytope import geometry_flags, lattice_point_count
from fanoperiods.young import (
    BoxContext,
    YoungDiagram,
    all_diagrams,
    boundary_rectangle,
    from_steps,
    schur_dimension,
    valuation_vector,
)

CTX12 = BoxContext(1, 2)
CTX24 = BoxContext(2, 4)
CTX25 = BoxContext(2, 5)
CTX35 = BoxContext(3, 5)

SMALL_CONTEXTS = [
    BoxContext(k, n) for n in range(2, 7) for k in range(1, n)
]


def path_matrix_entry(net, source_row, sink_column):
    """All single-path weights between one source and one sink."""
    terms = {}
    one = QPolynomial.one()
    for _, weight in _single_paths(net, source_row, sink_column):
        terms[weight] = terms.get(weight, QPolynomial.zero()) + one
    return LaurentPolynomial(net.variable_names, terms)


def flow_determinant(net, diagram):
    """Oracle for flow_polynomial: the determinant route.

    The counterclockwise boundary ordering makes the disjoint-family
    sum equal the plain determinant of the path matrix over ascending
    sources and ascending sink columns, with positive sign.
    """
    sources, columns = _terminals(net, diagram)
    if not sources:
        return LaurentPolynomial.one(net.variable_names)
    matrix = [[path_matrix_entry(net, s, c) for c in columns] for s in sources]
    return _determinant(matrix, net.variable_names)


def _determinant(matrix, names):
    if len(matrix) == 1:
        return matrix[0][0]
    total = LaurentPolynomial.zero(names)
    for j, entry in enumerate(matrix[0]):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = entry * _determinant(minor, names)
        total = total + term if j % 2 == 0 else total - term
    return total


def unit(names, *exponent_vectors):
    """Laurent polynomial with coefficient 1 at each listed exponent."""
    return LaurentPolynomial.from_dict(names, {e: 1 for e in exponent_vectors})


def plucker(net, west):
    return flow_polynomial(net, from_steps(net.context, west))


class TestNetworkShape:
    def test_gr24_faces_and_variables(self):
        net = build_rectangles_network(CTX24)
        assert net.variable_names == ("x0", "x11", "x12", "x21")
        assert tuple(d.rows for d in net.variable_labels) == (
            (),
            (1,),
            (2,),
            (1, 1),
        )
        rectangles = [d for d in net.variable_labels if d.rows]
        assert len(rectangles) == 3
        assert all(len(set(d.rows)) == 1 for d in rectangles)

    def test_gr25_faces_and_variables(self):
        net = build_rectangles_network(CTX25)
        assert net.variable_names == ("x0", "x11", "x12", "x21", "x22", "x31")
        assert tuple(d.rows for d in net.variable_labels) == (
            (), (1,), (2,), (1, 1), (2, 2), (1, 1, 1)
        )

    def test_face_count_formula(self):
        for ctx in SMALL_CONTEXTS:
            net = build_rectangles_network(ctx)
            assert len(net.variable_names) == ctx.k * (ctx.n - ctx.k)
            assert len(net.variable_labels) == len(net.variable_names)
            full_box = YoungDiagram(ctx, (ctx.k,) * (ctx.n - ctx.k))
            assert full_box not in net.variable_labels

    def test_single_face_network(self):
        net = build_rectangles_network(CTX12)
        assert net.variable_names == ("x0",)
        assert tuple(d.rows for d in net.variable_labels) == ((),)

    def test_network_is_cached(self):
        assert build_rectangles_network(CTX24) is build_rectangles_network(
            BoxContext(2, 4)
        )


class TestFlowPolynomials:
    def test_empty_diagram_normalization(self):
        for ctx in (CTX12, CTX24, CTX25, CTX35):
            net = build_rectangles_network(ctx)
            empty = YoungDiagram(ctx, ())
            assert flow_polynomial(net, empty) == LaurentPolynomial.one(
                net.variable_names
            )

    def test_gr24_flow_table(self):
        net = build_rectangles_network(CTX24)
        names = net.variable_names
        table = {
            (1,): unit(names, (1, 0, 0, 0)),
            (2,): unit(names, (1, 1, 0, 1)),
            (1, 1): unit(names, (1, 1, 1, 0)),
            (2, 1): unit(names, (1, 1, 1, 1), (1, 2, 1, 1)),
            (2, 2): unit(names, (2, 1, 1, 1)),
        }
        for rows, expected in table.items():
            diagram = YoungDiagram(CTX24, rows)
            assert flow_polynomial(net, diagram) == expected, rows

    def test_gr25_flow_spots(self):
        net = build_rectangles_network(CTX25)
        names = net.variable_names
        assert flow_polynomial(net, YoungDiagram(CTX25, (2,))) == unit(
            names, (1, 1, 0, 1, 0, 1)
        )
        full = YoungDiagram(CTX25, (2, 2, 2))
        assert flow_polynomial(net, full) == unit(names, (2, 2, 2, 1, 1, 1))

    def test_unit_coefficients_everywhere(self):
        for ctx in SMALL_CONTEXTS:
            net = build_rectangles_network(ctx)
            for diagram in all_diagrams(ctx):
                poly = flow_polynomial(net, diagram)
                assert not poly.is_zero()
                for coeff in poly.terms.values():
                    assert coeff == QPolynomial.one(), (ctx, diagram.rows)

    def test_boundary_rectangles_are_frozen_monomials(self):
        for ctx in SMALL_CONTEXTS:
            net = build_rectangles_network(ctx)
            for i in range(ctx.n):
                mu = boundary_rectangle(i, ctx)
                poly = flow_polynomial(net, mu)
                assert poly.is_monomial(), (ctx, i)
                ((exponents, coeff),) = poly.terms.items()
                assert coeff == QPolynomial.one()
                assert exponents == valuation_vector(mu, net.variable_labels)

    def test_flow_minimum_matches_diagonal_statistic(self):
        for ctx in (CTX24, CTX25, CTX35):
            net = build_rectangles_network(ctx)
            for diagram in all_diagrams(ctx):
                vec, attained = min_exponent_vector(flow_polynomial(net, diagram))
                assert attained, (ctx, diagram.rows)
                assert vec == valuation_vector(diagram, net.variable_labels)


class TestPluckerRelations:
    @pytest.mark.parametrize("ctx", [CTX24, CTX25, CTX35])
    def test_three_term_relation(self, ctx):
        net = build_rectangles_network(ctx)
        rest = range(1, ctx.n + 1)
        for quad in combinations(rest, 4):
            a, b, c, d = quad
            others = [v for v in rest if v not in quad]
            for extra in combinations(others, ctx.k - 2):
                s = set(extra)
                lhs = plucker(net, s | {a, c}) * plucker(net, s | {b, d})
                rhs = plucker(net, s | {a, b}) * plucker(net, s | {c, d}) + plucker(
                    net, s | {a, d}
                ) * plucker(net, s | {b, c})
                assert lhs == rhs, (ctx, quad, sorted(s))


class TestDeterminantCrossCheck:
    # (3,6), (3,7) and (4,8) have flows with three and four sources.
    @pytest.mark.parametrize(
        "ctx",
        [CTX24, CTX25, CTX35]
        + [BoxContext(k, n) for k, n in ((3, 6), (2, 7), (3, 7), (4, 8))],
    )
    def test_determinant_equals_flow_sum(self, ctx):
        net = build_rectangles_network(ctx)
        for diagram in all_diagrams(ctx):
            assert flow_determinant(net, diagram) == flow_polynomial(
                net, diagram
            ), (ctx, diagram.rows)

    def test_single_source_entry(self):
        net = build_rectangles_network(CTX24)
        diagram = YoungDiagram(CTX24, (2, 1))
        assert path_matrix_entry(net, 1, 1) == flow_polynomial(net, diagram)


class TestThetaRestriction:
    def test_gr24_theta_table(self):
        names = build_rectangles_network(CTX24).variable_names
        expected = [
            unit(names, (1, 0, 0, 0)),
            unit(names, (0, 0, 1, 0), (0, 1, 1, 0)),
            unit(names, (-1, -1, -1, -1)),
            unit(names, (0, 0, 0, 1), (0, 1, 0, 1)),
        ]
        for i, poly in enumerate(expected):
            assert theta_restriction(i, CTX24) == poly, i

    def test_gr25_theta_spots(self):
        names = build_rectangles_network(CTX25).variable_names
        assert theta_restriction(1, CTX25) == unit(
            names, (0, 0, 1, 0, 0, 0), (0, 1, 1, 0, 0, 0)
        )
        assert theta_restriction(2, CTX25) == unit(
            names, (0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 1, 0)
        )
        assert support(theta_restriction(4, CTX25)) == [
            (0, 0, 0, 0, 0, 1),
            (0, 0, 0, 1, 0, 1),
            (0, 1, 0, 1, 0, 1),
        ]

    def test_theta_zero_equals_numerator(self):
        for ctx in (CTX24, CTX35):
            net = build_rectangles_network(ctx)
            box = YoungDiagram(ctx, (1,))
            assert theta_restriction(0, ctx) == flow_polynomial(net, box)

    def test_theta_minimum_attained(self):
        for i in range(CTX24.n):
            _, attained = min_exponent_vector(theta_restriction(i, CTX24))
            assert attained, i

    @pytest.mark.parametrize("ctx", [CTX24, CTX35], ids=["2-4", "3-5"])
    def test_index_outside_the_boundary_is_refused(self, ctx):
        # young refuses the index; theta_restriction keeps no copy of the check
        for i in (-1, ctx.n):
            message = rf"^boundary index {i} outside 0\.\.{ctx.n - 1}$"
            with pytest.raises(ValueError, match=message):
                theta_restriction(i, ctx)

    def test_monomial_quotient_requires_monomial(self):
        names = ("x",)
        numerator = unit(names, (2,), (1,))
        binomial = unit(names, (1,), (0,))
        with pytest.raises(ChartError):
            _monomial_quotient(numerator, binomial)
        assert _monomial_quotient(numerator, unit(names, (1,))) == binomial


class TestSuperpotential:
    def test_gr24_chart(self):
        names = build_rectangles_network(CTX24).variable_names
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
        names = build_rectangles_network(CTX12).variable_names
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

    def test_gr25_term_count(self):
        assert len(superpotential_chart(CTX25).terms) == 9


class TestValuationReport:
    def test_empty_for_small_contexts(self):
        for ctx in SMALL_CONTEXTS:
            assert verify_valuations(ctx) == [], ctx

    def test_report_is_a_list(self):
        assert isinstance(verify_valuations(CTX24), list)


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


class TestPeriods:
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
