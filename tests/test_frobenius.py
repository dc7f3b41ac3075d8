"""Tests for theta-series reconstruction from period sequences.

The projective-plane data frozen here comes from two sources computed
before the module was written: period coefficients from the mirror
x + y + q/(xy) via classical_periods (an independent module), and tail
coefficients derived by hand from the arrangement count
c_{i+1} = (i+1) a_i + lower contributions, for example
a_8 = (1680 - 672 - 720)/9 q^3 = 32 q^3.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanoperiods.frobenius import (
    InconsistentPeriodsError,
    PeriodSequence,
    StructureTable,
    ThetaSeries,
    UntrustedCoefficientError,
    associativity_check,
    extend_series,
    periods_from_json,
    periods_to_json,
    reconstruct_N1,
    residue_product,
    series_multiply,
    structure_table,
    table_records,
)
from fanoperiods.laurent import LaurentPolynomial, QPolynomial, classical_periods

ZERO = QPolynomial.zero()
ONE = QPolynomial.one()


def p2_periods(order: int = 12) -> PeriodSequence:
    mirror = LaurentPolynomial.from_dict(
        ("x", "y"),
        {(1, 0): 1, (0, 1): 1, (-1, -1): QPolynomial.of(1, 1)},
    )
    return PeriodSequence(tuple(classical_periods(mirror, order)))


def trivial_periods(order: int) -> PeriodSequence:
    return PeriodSequence((ONE,) + (ZERO,) * order)


def _power_residue(tail: Mapping[int, QPolynomial], degree: int) -> QPolynomial:
    """t^0 coefficient of (t + sum a_i t^(-i))^degree, expanded in full."""
    base: dict[int, QPolynomial] = {1: QPolynomial.one()}
    for i, value in tail.items():
        base[-i] = value
    current: dict[int, QPolynomial] = {0: QPolynomial.one()}
    for _ in range(degree):
        step: dict[int, QPolynomial] = {}
        for e1, c1 in current.items():
            for e2, c2 in base.items():
                e = e1 + e2
                value = c1 * c2
                step[e] = step[e] + value if e in step else value
        current = step
    return current.get(0, QPolynomial.zero())


def _reconstruct_by_residues(periods: PeriodSequence) -> ThetaSeries:
    """Oracle for reconstruct_N1: expand N_1^(i+1) afresh to find each a_i.

    At step i the only new contribution to c_{i+1} is a_i paired with
    i+1 copies of the leading t, so a_i = (c_{i+1} - known part)/(i+1).
    """
    coeffs = periods.coeffs
    order = periods.order
    if order >= 1 and coeffs[1]:
        raise InconsistentPeriodsError("c_1 must vanish")
    tail: dict[int, QPolynomial] = {}
    for i in range(1, order):
        a_i = (coeffs[i + 1] - _power_residue(tail, i + 1)) / (i + 1)
        if a_i:
            tail[i] = a_i
    return ThetaSeries(1, tail, valid_to=max(order - 1, 0))


# Mixed q-powers with negative, fractional and zero coefficients.
Q_COEFFICIENTS = st.dictionaries(
    st.integers(min_value=0, max_value=2),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    max_size=2,
).map(QPolynomial)
# Orders 0..7: c_0 = 1 alone, or c_0 = 1, c_1 = 0 and up to six more.
PERIOD_COEFFICIENTS = st.one_of(
    st.just((ONE,)),
    st.lists(Q_COEFFICIENTS, max_size=6).map(lambda rest: (ONE, ZERO, *rest)),
)


def p2_series(order: int = 12, top: int = 4) -> list[ThetaSeries]:
    series = [reconstruct_N1(p2_periods(order))]
    while len(series) < top:
        series.append(extend_series(series))
    return series


class TestPeriodSequence:
    def test_rejects_leading_coefficient(self):
        with pytest.raises(InconsistentPeriodsError):
            PeriodSequence((QPolynomial.of(2),))

    def test_from_plain_decorates_novikov_powers(self):
        seq = PeriodSequence.from_plain(
            [1, 0, 0, 6, 0, 0, 90, 0, 0, 1680, 0, 0, 34650], 3
        )
        assert seq == p2_periods(12)

    def test_from_plain_accepts_strings(self):
        seq = PeriodSequence.from_plain(["1", "0", "6"], 2)
        assert seq.coeffs[2] == QPolynomial.of(6, 1)

    def test_from_plain_rejects_off_grading_values(self):
        with pytest.raises(InconsistentPeriodsError):
            PeriodSequence.from_plain([1, 0, 5], 3)

    def test_order(self):
        assert trivial_periods(6).order == 6


class TestThetaSeries:
    def test_tail_keys_positive(self):
        with pytest.raises(ValueError):
            ThetaSeries(1, {0: ONE}, valid_to=3)

    def test_tail_within_validity(self):
        with pytest.raises(ValueError):
            ThetaSeries(1, {5: ONE}, valid_to=3)

    def test_tail_term_beyond_validity(self):
        series = ThetaSeries(1, {2: QPolynomial.of(2, 1)}, valid_to=4)
        assert series.tail_term(2) == QPolynomial.of(2, 1)
        assert series.tail_term(4) == ZERO
        with pytest.raises(UntrustedCoefficientError):
            series.tail_term(5)

    def test_window_is_required(self):
        with pytest.raises(TypeError):
            ThetaSeries(3, {}, valid_to=None)


class TestSeriesMultiply:
    def test_plain_monomials(self):
        t = ThetaSeries(1, {}, valid_to=4)
        product = series_multiply(t, t)
        assert product.floor == -3
        assert product.coefficient(2) == ONE
        assert product.coefficient(-3) == ZERO
        with pytest.raises(UntrustedCoefficientError):
            product.coefficient(-4)

    def test_square_with_tail(self):
        series = ThetaSeries(1, {1: QPolynomial.of(3)}, valid_to=4)
        square = series_multiply(series, series)
        assert square.floor == -3
        assert square.coefficient(2) == ONE
        assert square.coefficient(0) == QPolynomial.of(6)
        assert square.coefficient(-2) == QPolynomial.of(9)
        assert square.coefficient(-3) == ZERO
        with pytest.raises(UntrustedCoefficientError):
            square.coefficient(-4)

    def test_residue_identity(self):
        series = p2_series(top=3)
        n1, n2 = series[0], series[1]
        residue = series_multiply(n1, n2).coefficient(0)
        expected = n1.tail_term(2) + n2.tail_term(1)
        assert residue == expected == QPolynomial.of(6, 1)


class TestReconstruction:
    def test_trivial_periods(self):
        n1 = reconstruct_N1(trivial_periods(6))
        assert n1.p == 1
        assert n1.tail == {}
        assert n1.valid_to == 5

    def test_rejects_nonzero_c1(self):
        with pytest.raises(InconsistentPeriodsError):
            reconstruct_N1(PeriodSequence((ONE, QPolynomial.of(3))))

    def test_p2_tail(self):
        n1 = reconstruct_N1(p2_periods(12))
        assert n1.valid_to == 11
        assert n1.tail_term(1) == ZERO
        assert n1.tail_term(2) == QPolynomial.of(2, 1)
        assert n1.tail_term(5) == QPolynomial.of(5, 2)
        assert n1.tail_term(8) == QPolynomial.of(32, 3)

    def test_p2_grading_vanishing(self):
        n1 = reconstruct_N1(p2_periods(12))
        for i in range(1, n1.valid_to + 1):
            if i % 3 != 2:
                assert n1.tail_term(i) == ZERO, i

    def test_round_trip(self):
        periods = p2_periods(10)
        n1 = reconstruct_N1(periods)
        for d in range(len(periods.coeffs)):
            assert residue_product([n1] * d) == periods.coeffs[d], d

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(
            st.integers(min_value=-4, max_value=4), min_size=0, max_size=5
        )
    )
    def test_round_trip_on_arbitrary_sequences(self, values):
        coeffs = (ONE, ZERO) + tuple(QPolynomial.of(v) for v in values)
        periods = PeriodSequence(coeffs)
        n1 = reconstruct_N1(periods)
        for d in range(len(coeffs)):
            assert residue_product([n1] * d) == coeffs[d], d

    @settings(deadline=None, max_examples=80)
    @given(PERIOD_COEFFICIENTS)
    @example((ONE,) + (ZERO,) * 7)
    @example((ONE, QPolynomial.of(3)))
    @example((ONE, QPolynomial.of(Fraction(-1, 2), 1), QPolynomial.of(5)))
    def test_matches_the_residue_oracle(self, coeffs):
        periods = PeriodSequence(coeffs)
        try:
            expected = _reconstruct_by_residues(periods)
        except InconsistentPeriodsError:
            with pytest.raises(InconsistentPeriodsError):
                reconstruct_N1(periods)
            return
        assert reconstruct_N1(periods) == expected

    def test_p2_reaches_order_60(self):
        values = [
            factorial(d) // factorial(d // 3) ** 3 if d % 3 == 0 else 0
            for d in range(61)
        ]
        periods = PeriodSequence.from_plain(values, 3)
        n1 = reconstruct_N1(periods)
        assert n1.valid_to == 59
        assert n1.tail_term(2) == QPolynomial.of(2, 1)
        for i in range(1, 60):
            if i % 3 != 2:
                assert n1.tail_term(i) == ZERO, i
        for d in (12, 18, 24):
            assert residue_product([n1] * d) == periods.coeffs[d], d


class TestExtendSeries:
    def test_trivial_tower(self):
        series = [reconstruct_N1(trivial_periods(8))]
        for n in (2, 3, 4):
            series.append(extend_series(series))
            assert series[-1].p == n
            assert series[-1].tail == {}

    def test_p2_n2(self):
        series = p2_series(top=2)
        n2 = series[1]
        assert n2.p == 2
        assert n2.valid_to == 10
        assert n2.tail_term(1) == QPolynomial.of(4, 1)
        assert n2.tail_term(2) == ZERO
        assert n2.tail_term(4) == QPolynomial.of(14, 2)
        assert n2.tail_term(7) == QPolynomial.of(84, 3)

    def test_p2_n3(self):
        series = p2_series(top=3)
        n3 = series[2]
        assert n3.p == 3
        assert n3.tail_term(1) == ZERO
        assert n3.tail_term(3) == QPolynomial.of(27, 2)

    @pytest.mark.parametrize(
        "periods",
        [
            p2_periods(12),
            PeriodSequence.from_plain(
                ["1", "0", "1/2", "-3", "5/7", "0", "2", "-1/3", "4"], 1
            ),
        ],
        ids=["p2-order-12", "fractional-order-8"],
    )
    def test_ladder_windows(self, periods):
        # N_p is trusted to tail index T - p, so the ladder reaches N_T and
        # no further; the frobenius --max-p guard relies on this.
        series = [reconstruct_N1(periods)]
        while len(series) < periods.order:
            series.append(extend_series(series))
        assert [item.valid_to for item in series] == [
            periods.order - p for p in range(1, periods.order + 1)
        ]

    def test_requires_consecutive_leading_exponents(self):
        n1 = reconstruct_N1(trivial_periods(8))
        with pytest.raises(ValueError):
            extend_series([n1, n1])

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(st.integers(min_value=-3, max_value=5), min_size=0, max_size=6)
    )
    def test_extension_stays_well_formed(self, values):
        # The type invariants (unit leading term, strictly negative
        # tail) make the positive-exponent cancellations automatic, so
        # extension succeeds with the right shape for every period
        # input; the leading-form check guards internal arithmetic
        # bugs rather than bad data.
        coeffs = (ONE, ZERO) + tuple(QPolynomial.of(v) for v in values)
        series = [reconstruct_N1(PeriodSequence(coeffs))]
        top = min(3, max(series[0].valid_to, 1))
        while len(series) < top:
            series.append(extend_series(series))
        for n, item in enumerate(series, 1):
            assert item.p == n
            assert all(i >= 1 for i in item.tail)


class TestStructureTable:
    def test_trivial_table(self):
        series = [reconstruct_N1(trivial_periods(10))]
        for _ in range(3):
            series.append(extend_series(series))
        table = structure_table(series, 4)
        for (p, q, r), value in table.entries.items():
            assert value == (ONE if r == p + q else ZERO), (p, q, r)

    def test_p2_frozen_entries(self):
        table = structure_table(p2_series(top=4), 4)
        assert table.entry(1, 1, 2) == ONE
        assert table.entry(1, 1, 0) == ZERO
        assert table.entry(1, 2, 0) == QPolynomial.of(6, 1)
        assert table.entry(2, 2, 1) == QPolynomial.of(8, 1)
        assert table.entry(1, 2, 1) == ZERO
        assert table.entry(1, 3, 0) == ZERO
        assert table.entry(1, 3, 1) == QPolynomial.of(2, 1)
        assert table.entry(2, 2, 0) == ZERO

    def test_identity_rows(self):
        table = structure_table(p2_series(top=4), 4)
        for q in range(5):
            for r in range(q + 1):
                assert table.entry(0, q, r) == (ONE if q == r else ZERO)

    def test_symmetry(self):
        table = structure_table(p2_series(top=4), 4)
        for p in range(5):
            for q in range(5 - p):
                for r in range(p + q + 1):
                    assert table.entry(p, q, r) == table.entry(q, p, r)

    def test_leading_entries(self):
        table = structure_table(p2_series(top=4), 4)
        for p in range(5):
            for q in range(5 - p):
                assert table.entry(p, q, p + q) == ONE

    def test_records_include_zero_entries(self):
        table = structure_table(p2_series(top=2), 2)
        records = table_records(table)
        assert {"p": 1, "q": 1, "r": 0, "value": "0"} in records
        assert {"p": 1, "q": 1, "r": 2, "value": "1"} in records

    def test_accessor_range_validation(self):
        table = structure_table(p2_series(top=2), 2)
        with pytest.raises(ValueError):
            table.entry(1, 2, 0)
        with pytest.raises(ValueError):
            table.entry(1, 1, 3)


class TestResidueProduct:
    def test_monomials_only(self):
        t2 = ThetaSeries(2, {}, valid_to=4)
        assert residue_product([t2, t2]) == ZERO

    def test_empty_product(self):
        assert residue_product([]) == ONE

    def test_matches_structure_constant_route(self):
        series = p2_series(top=4)
        table = structure_table(series, 4)
        for p in range(1, 4):
            for q in range(1, 5 - p):
                assert residue_product([series[p - 1], series[q - 1]]) == table.entry(
                    p, q, 0
                ), (p, q)

    def test_window_exhaustion(self):
        n1 = reconstruct_N1(trivial_periods(3))
        with pytest.raises(UntrustedCoefficientError):
            residue_product([n1] * 5)


class TestAssociativity:
    def test_trivial_table_is_associative(self):
        series = [reconstruct_N1(trivial_periods(10))]
        for _ in range(3):
            series.append(extend_series(series))
        assert associativity_check(structure_table(series, 4)) == []

    def test_p2_table_is_associative(self):
        table = structure_table(p2_series(top=4), 4)
        assert associativity_check(table) == []

    def test_corrupted_entry_is_reported(self):
        series = [reconstruct_N1(trivial_periods(10))]
        for _ in range(2):
            series.append(extend_series(series))
        table = structure_table(series, 3)
        entries = dict(table.entries)
        entries[(1, 2, 0)] = QPolynomial.of(7)
        violations = associativity_check(StructureTable(3, entries))
        assert violations
        cells = {(v["p"], v["q"], v["r"], v["u"]) for v in violations}
        assert (1, 1, 1, 0) in cells


class TestPeriodsJson:
    def test_emit_then_parse_is_identity(self):
        periods = p2_periods(12)
        assert periods_from_json(periods_to_json(periods)) == periods

    def test_parse_then_emit_is_identity(self):
        document = {
            "index": 3,
            "coeffs": ["1", "0", "0", "6", "0", "0", "90", "0", "0", "1680"],
        }
        assert periods_to_json(periods_from_json(document)) == document

    def test_index_recovered_from_single_coefficient(self):
        periods = PeriodSequence(
            (ONE, ZERO, ZERO, ZERO, ZERO, ZERO, QPolynomial.of(90, 2))
        )
        assert periods_to_json(periods)["index"] == 3

    def test_undecorated_input_uses_position_gcd(self):
        periods = PeriodSequence((ONE, ZERO, QPolynomial.of(4), ZERO, QPolynomial.of(36)))
        assert periods_to_json(periods) == {
            "index": 2,
            "coeffs": ["1", "0", "4", "0", "36"],
        }

    def test_constant_sequence_defaults_to_index_one(self):
        assert periods_to_json(trivial_periods(3)) == {
            "index": 1,
            "coeffs": ["1", "0", "0", "0"],
        }

    def test_mixed_powers_are_rejected(self):
        periods = PeriodSequence((ONE, ZERO, QPolynomial.of(1, 1) + QPolynomial.of(1, 2)))
        with pytest.raises(InconsistentPeriodsError):
            periods_to_json(periods)

    def test_conflicting_ratios_are_rejected(self):
        periods = PeriodSequence(
            (ONE, ZERO, QPolynomial.of(2, 1), QPolynomial.of(6, 1))
        )
        with pytest.raises(InconsistentPeriodsError):
            periods_to_json(periods)

    def test_parse_validates_index(self):
        with pytest.raises(InconsistentPeriodsError):
            periods_from_json({"index": 0, "coeffs": ["1"]})
        with pytest.raises(InconsistentPeriodsError):
            periods_from_json({"index": "3", "coeffs": ["1"]})

    def test_parse_validates_coefficients(self):
        with pytest.raises(InconsistentPeriodsError):
            periods_from_json({"index": 2, "coeffs": ["1", 0]})
        with pytest.raises(InconsistentPeriodsError):
            periods_from_json({"index": 2, "coeffs": ["1", "0", "sixteen"]})
        with pytest.raises(InconsistentPeriodsError):
            periods_from_json({"index": 2, "coeffs": ["1", "0", "1/0"]})

    def test_fraction_strings_survive(self):
        document = {"index": 1, "coeffs": ["1", "3/2"]}
        parsed = periods_from_json(document)
        assert parsed.coeffs[1] == QPolynomial.of(Fraction(3, 2), 1)
        assert periods_to_json(parsed) == document
