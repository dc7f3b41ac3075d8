"""Tests for theta-series reconstruction from period sequences.

The projective-plane data frozen here comes from two sources computed
before the module was written: period coefficients from the mirror
x + y + q/(xy) via classical_periods (an independent module), and tail
coefficients derived by hand from the arrangement count
c_{i+1} = (i+1) a_i + lower contributions, for example
a_8 = (1680 - 672 - 720)/9 q^3 = 32 q^3.

The module runs the theta ladder on plain ints with q folded into the
key; the q-polynomial routes it replaced (Miller's recurrence, the
windowed product, the extension step and the residue product over
Fraction coefficients, on a window class of their own) are kept below
as its oracles.  The residue product is also the independent route to
the periods and the r = 0 table entries that periods_from_table and
structure_table reach through the ladder.  The associativity sweep over
q-polynomial entries, which the int-scaled sweep replaced, and the
structure table built one key (p, q, r) at a time, which the
once-per-pair table replaced, are oracles too.
"""

from __future__ import annotations

import re
import time
from fractions import Fraction
from math import comb, factorial
from typing import Mapping, NamedTuple, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanoperiods import frobenius
from fanoperiods.frobenius import (
    ReconstructionError,
    StructureTable,
    ThetaSeries,
    UntrustedCoefficientError,
    _divide_exactly,
    associativity_check,
    periods_from_table,
    reconstruct_N1,
    series_records,
    structure_table,
    table_records,
    theta_ladder,
)
from fanoperiods.grassmannian import grass_periods
from fanoperiods.laurent import LaurentPolynomial, QPolynomial, classical_periods
from fanoperiods.periods import (
    InconsistentPeriodsError,
    PeriodSequence,
    periods_from_json,
    periods_to_json,
)
from fanoperiods.young import BoxContext

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


def _reconstruct_by_recurrence(periods: PeriodSequence) -> ThetaSeries:
    """Oracle for reconstruct_N1: Miller's recurrence over q-polynomials,
    P_k = (1/k) sum_j ((d+1) j - k) phi_j P_{k-j} with Fraction coefficients."""
    coeffs = periods.coeffs
    order = periods.order
    if order >= 1 and not coeffs[1].is_zero():
        raise InconsistentPeriodsError("c_1 must vanish for a tail-free leading term")
    tail: dict[int, QPolynomial] = {}
    for d in range(2, order + 1):
        powers = [QPolynomial.one()]
        for k in range(1, d + 1):
            total = QPolynomial.zero()
            for i, a_i in tail.items():
                if i < k and powers[k - i - 1]:
                    total = total + a_i * powers[k - i - 1] * ((d + 1) * (i + 1) - k)
            powers.append(total / k)
        a = (coeffs[d] - powers[d]) / d
        if a:
            tail[d - 1] = a
    return ThetaSeries(1, tail, valid_to=max(order - 1, 0))


class _Window(NamedTuple):
    """Oracle window: nonzero coefficients by t-exponent, trusted exactly
    for exponents >= floor."""

    coeffs: dict[int, QPolynomial]
    floor: int

    def coefficient(self, exponent: int) -> QPolynomial:
        if exponent < self.floor:
            raise UntrustedCoefficientError(
                f"exponent {exponent} lies below the trusted floor {self.floor}"
            )
        return self.coeffs.get(exponent, QPolynomial.zero())


def _as_window(series: ThetaSeries | _Window) -> _Window:
    if isinstance(series, _Window):
        return series
    coeffs: dict[int, QPolynomial] = {series.p: QPolynomial.one()}
    for i, value in series.tail.items():
        coeffs[-i] = value
    return _Window(coeffs, -series.valid_to)


def _multiply_q_polynomials(a: ThetaSeries | _Window, b: ThetaSeries | _Window) -> _Window:
    """Oracle for the windowed product over q-polynomials; a window's top
    is its largest exponent with a nonzero coefficient."""
    left = _as_window(a)
    right = _as_window(b)
    left_top = max(left.coeffs, default=left.floor)
    right_top = max(right.coeffs, default=right.floor)
    floor = max(left.floor + right_top, right.floor + left_top)
    coeffs: dict[int, QPolynomial] = {}
    for e1, c1 in left.coeffs.items():
        for e2, c2 in right.coeffs.items():
            e = e1 + e2
            if e < floor:
                continue
            value = c1 * c2
            coeffs[e] = coeffs[e] + value if e in coeffs else value
    return _Window({e: c for e, c in coeffs.items() if c}, floor)


def _residue_product_q_polynomials(series: Sequence[ThetaSeries]) -> QPolynomial:
    """t^0 coefficient of the windowed product of the factors; 1 for none.

    The residue route to c_d = N_1^d[t^0] and C(p,q,0) = (N_p N_q)[t^0],
    which shares no step with the ladder, the table or periods_from_table."""
    if not series:
        return QPolynomial.one()
    accumulated = _as_window(series[0])
    for item in series[1:]:
        accumulated = _multiply_q_polynomials(accumulated, item)
    return accumulated.coefficient(0)


def _one_row_constant(series: Sequence[ThetaSeries], q: int, r: int) -> QPolynomial:
    """C(1,q,r) = a_{1-r}(N_q) + a_{q-r}(N_1), a term counting when its index is positive."""
    value = QPolynomial.zero()
    for index, owner in ((1 - r, q), (q - r, 1)):
        if index > 0 and owner:
            value = value + series[owner - 1].tail_term(index)
    return value


def _extend_q_polynomials(series: Sequence[ThetaSeries]) -> ThetaSeries:
    """Oracle for one step of theta_ladder: the product recursion over
    q-polynomials, multiplying out N_1 N_{n-1} and checking the shape."""
    if not series:
        raise ValueError("the extension recursion needs at least N_1")
    for position, item in enumerate(series, 1):
        if item.p != position:
            raise ValueError(f"series at position {position} has leading exponent {item.p}")
    n = series[-1].p + 1
    product = _multiply_q_polynomials(series[0], series[-1])
    coeffs = dict(product.coeffs)
    floor = product.floor
    for r in range(1, n):
        scalar = _one_row_constant(series, n - 1, r)
        if scalar:
            portion = _as_window(series[r - 1])
            floor = max(floor, portion.floor)
            for e, c in portion.coeffs.items():
                value = scalar * c
                coeffs[e] = coeffs[e] - value if e in coeffs else -value
    constant = _one_row_constant(series, n - 1, 0)
    if constant:
        coeffs[0] = coeffs.get(0, QPolynomial.zero()) - constant
    if floor > 0:
        raise UntrustedCoefficientError(
            f"validity window floor {floor} cannot certify the leading form"
        )
    survivors = {e: c for e, c in coeffs.items() if c and e >= floor}
    if survivors.get(n) != QPolynomial.one():
        raise ReconstructionError(f"leading term of N_{n} is not t^{n}")
    stray = sorted(e for e in survivors if 0 <= e < n)
    if stray:
        raise ReconstructionError(f"N_{n} keeps terms at non-negative exponents {stray}")
    high = sorted(e for e in survivors if e > n)
    if high:
        raise ReconstructionError(f"N_{n} has terms above t^{n} at {high}")
    tail = {-e: c for e, c in survivors.items() if e < 0}
    return ThetaSeries(n, tail, -floor)


def _open_mirror_map(n: int, degree: int) -> list[Fraction]:
    """b_1..b_degree with exp(A(z(Q))) = 1 + sum_d b_d Q^d, for the P^n mirror.

    A(z) = sum_d ((n+1)d-1)!/(d!)^(n+1) z^d and z(Q) inverts
    Q = z exp((n+1) A(z)).  By Lagrange inversion,
    b_m = (1/m) [z^(m-1)] A'(z) exp((1 - (n+1) m) A(z)); each exponential
    comes from F' = c A' F.  No residue condition and no power of N_1
    enters, so this is independent of reconstruct_N1.
    """
    a = [Fraction(0)] + [
        Fraction(factorial((n + 1) * d - 1), factorial(d) ** (n + 1))
        for d in range(1, degree + 1)
    ]
    b = []
    for m in range(1, degree + 1):
        c = 1 - (n + 1) * m
        f = [Fraction(1)]
        for k in range(1, m):
            f.append(c * sum(j * a[j] * f[k - j] for j in range(1, k + 1)) / k)
        b.append(sum((j + 1) * a[j + 1] * f[m - 1 - j] for j in range(m)) / m)
    return b


def _outcome(fn, *args):
    """The value fn returns, or the class and message of what it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return type(err), str(err)


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


# Exact values for the int-kernel tests: fractional, negative and zero.
KERNEL_VALUES = st.fractions(min_value=-7, max_value=7, max_denominator=6)
KERNEL_Q = st.dictionaries(st.integers(0, 3), KERNEL_VALUES, max_size=3).map(QPolynomial)
# c_d over the d-th prime, so the lcm L of the known tail grows at every step.
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@st.composite
def kernel_periods(draw) -> PeriodSequence:
    """Orders 0..10 with mixed q-powers; a fifth of the draws put every
    c_d over its own prime so that L changes at each step."""
    order = draw(st.integers(0, 10), label="order")
    if draw(st.integers(0, 4), label="prime denominators") == 0:
        rest = [
            QPolynomial(
                {
                    power: Fraction(amount, PRIMES[d])
                    for power, amount in draw(
                        st.dictionaries(
                            st.integers(0, 3), st.integers(-9, 9), max_size=2
                        ),
                        label=f"c_{d}",
                    ).items()
                }
            )
            for d in range(2, order + 1)
        ]
    else:
        size = max(order - 1, 0)
        rest = draw(st.lists(KERNEL_Q, min_size=size, max_size=size))
    return PeriodSequence((ONE, ZERO, *rest)[: order + 1])


def p2_series(order: int = 12, top: int = 4) -> list[ThetaSeries]:
    return theta_ladder(p2_periods(order), top)


def _entry_or_zero(table: StructureTable, p: int, q: int, r: int) -> QPolynomial:
    """Table lookup extended by the vanishing above r = p + q."""
    if r > p + q:
        return QPolynomial.zero()
    return table.entry(p, q, r)


def _dense_associativity_check(table: StructureTable) -> list[dict]:
    """Oracle for associativity_check: every product of table entries,
    zero or not, summed over every intermediate index s."""
    violations = []
    total = table.total
    for p in range(total + 1):
        for q in range(total + 1 - p):
            for r in range(total + 1 - p - q):
                for u in range(p + q + r + 1):
                    left = QPolynomial.zero()
                    for s in range(p + q + 1):
                        left = left + table.entry(p, q, s) * _entry_or_zero(
                            table, s, r, u
                        )
                    right = QPolynomial.zero()
                    for s in range(q + r + 1):
                        right = right + table.entry(q, r, s) * _entry_or_zero(
                            table, p, s, u
                        )
                    if left != right:
                        violations.append(
                            {
                                "p": p,
                                "q": q,
                                "r": r,
                                "u": u,
                                "left": str(left),
                                "right": str(right),
                            }
                        )
    return violations


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
    """Windowed products of theta series. A product's t^-k coefficient
    is read as the residue of the product times the monomial t^k."""

    def test_plain_monomials(self):
        t = ThetaSeries(1, {}, valid_to=4)
        assert _residue_product_q_polynomials([t, t]) == ZERO
        # t * t is trusted down to t^-3, so its t^-3 coefficient reads 0
        assert _residue_product_q_polynomials([t, t, ThetaSeries(3, {}, valid_to=3)]) == ZERO
        with pytest.raises(UntrustedCoefficientError):
            _residue_product_q_polynomials([t, t, ThetaSeries(4, {}, valid_to=3)])

    def test_square_with_tail(self):
        series = ThetaSeries(1, {1: QPolynomial.of(3)}, valid_to=4)
        square = [series, series]
        residue = _residue_product_q_polynomials
        assert residue(square) == QPolynomial.of(6)
        assert residue(square + [ThetaSeries(2, {}, valid_to=3)]) == QPolynomial.of(9)
        assert residue(square + [ThetaSeries(3, {}, valid_to=3)]) == ZERO
        with pytest.raises(UntrustedCoefficientError):
            residue(square + [ThetaSeries(4, {}, valid_to=3)])

    def test_residue_identity(self):
        series = p2_series(top=3)
        n1, n2 = series[0], series[1]
        residue = _residue_product_q_polynomials([n1, n2])
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
            assert _residue_product_q_polynomials([n1] * d) == periods.coeffs[d], d

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
            assert _residue_product_q_polynomials([n1] * d) == coeffs[d], d

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
            assert _residue_product_q_polynomials([n1] * d) == periods.coeffs[d], d


class TestExtendSeries:
    """The ladder's rungs N_2, N_3, ... and their windows."""

    def test_trivial_tower(self):
        series = theta_ladder(trivial_periods(8), 4)
        for n, item in enumerate(series, 1):
            assert item.p == n
            assert item.tail == {}
            assert item.valid_to == 8 - n

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
        series = theta_ladder(periods, periods.order)
        assert [item.valid_to for item in series] == [
            periods.order - p for p in range(1, periods.order + 1)
        ]

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(st.integers(min_value=-3, max_value=5), min_size=0, max_size=6)
    )
    def test_extension_stays_well_formed(self, values):
        # The type invariants (unit leading term, strictly negative
        # tail) make the positive-exponent cancellations automatic, so
        # every period input gives N_n = t^n plus a negative tail.
        periods = PeriodSequence((ONE, ZERO) + tuple(QPolynomial.of(v) for v in values))
        series = theta_ladder(periods, min(3, max(periods.order, 1)))
        for n, item in enumerate(series, 1):
            assert item.p == n
            assert all(i >= 1 for i in item.tail)


class TestThetaLadder:
    """The ladder's refusal of an empty ladder, and oracles that share no
    step with the ladder or with reconstruct_N1."""

    def test_refuses_an_empty_ladder(self):
        with pytest.raises(ValueError, match="top 0"):
            theta_ladder(trivial_periods(3), 0)

    @settings(max_examples=60, deadline=5000)
    @given(kernel_periods())
    @example(p2_periods(30))
    def test_faber_grunsky_symmetry(self, periods):
        # N_p is the p-th Faber polynomial of N_1, so the Grunsky
        # coefficients a_i(N_p)/p are symmetric in (p, i)
        start = time.perf_counter()
        series = theta_ladder(periods, max(periods.order, 1))
        for p, n_p in enumerate(series, 1):
            for i in range(1, n_p.valid_to + 1):
                if i <= len(series) and p <= series[i - 1].valid_to:
                    assert n_p.tail_term(i) / p == series[i - 1].tail_term(p) / i, (p, i)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("n, order, budget", [(1, 90, 3.0), (2, 90, 2.0), (3, 92, 2.0)])
    def test_open_mirror_map(self, n, order, budget):
        # the P^n mirror: c_{(n+1)d} = ((n+1)d)!/(d!)^(n+1) q^d, and
        # a_{(n+1)d-1}(N_1) = b_d q^d is the only nonzero tail
        index = n + 1
        values = [
            factorial(d) // factorial(d // index) ** index if d % index == 0 else 0
            for d in range(order + 1)
        ]
        start = time.perf_counter()
        n1 = reconstruct_N1(PeriodSequence.from_plain(values, index))
        b = _open_mirror_map(n, (n1.valid_to + 1) // index)
        assert time.perf_counter() - start < budget
        assert n1.valid_to == order - 1
        expected = {index * d - 1: QPolynomial.of(b_d, d) for d, b_d in enumerate(b, 1)}
        assert n1.tail == {i: value for i, value in expected.items() if value}
        if n == 2:
            assert b[:7] == [2, 5, 32, 286, 3038, 35870, 454880]


class TestIntKernelMatchesQPolynomialOracles:
    """The int kernel against the q-polynomial routes it replaced: the same
    values, and the same errors raised by the same call."""

    @settings(max_examples=150, deadline=5000)
    @given(kernel_periods())
    @example(
        PeriodSequence(
            (ONE, ZERO, QPolynomial.of(Fraction(1, 2)), QPolynomial.of(Fraction(-1, 3), 1))
        )
    )
    @example(PeriodSequence((ONE, QPolynomial.of(Fraction(2, 3)))))
    def test_reconstruct_N1(self, periods):
        start = time.perf_counter()
        assert _outcome(reconstruct_N1, periods) == _outcome(
            _reconstruct_by_recurrence, periods
        )
        assert time.perf_counter() - start < 2.0

    @settings(max_examples=60, deadline=5000)
    @given(kernel_periods())
    def test_ladder_from_periods(self, periods):
        # the whole ladder the window allows, N_1..N_top with top = max(order, 1);
        # one more rung is refused by both
        start = time.perf_counter()
        top = max(periods.order, 1)
        fast = theta_ladder(periods, top)
        slow = [_reconstruct_by_recurrence(periods)]
        while len(slow) < top:
            slow.append(_extend_q_polynomials(slow))
        assert fast == slow
        with pytest.raises(UntrustedCoefficientError):
            theta_ladder(periods, top + 1)
        with pytest.raises(UntrustedCoefficientError):
            _extend_q_polynomials(slow)
        assert time.perf_counter() - start < 2.0

    def test_window_errors_name_the_same_limit(self):
        # the ladder is refused before any step: its message names the
        # requested rung and the order it needs, where the oracle's step fails
        ladder = theta_ladder(trivial_periods(3), 3)
        with pytest.raises(UntrustedCoefficientError, match=r"^N_4 .* at least 4; .* order 3$"):
            theta_ladder(trivial_periods(3), 4)
        with pytest.raises(UntrustedCoefficientError):
            _extend_q_polynomials(ladder)

    @pytest.mark.parametrize("order, top", [(0, 2), (1, 2), (240, 241)])
    def test_an_unreachable_top_is_refused_before_reconstructing(
        self, monkeypatch, order, top
    ):
        # the window of N_1 follows from the order alone, so a top beyond it
        # costs no reconstruction
        def refuse(periods):
            raise AssertionError("reconstruct_N1 ran")

        monkeypatch.setattr(frobenius, "reconstruct_N1", refuse)
        message = f"N_{top} needs a period sequence of order at least {top}; this one has order {order}"
        with pytest.raises(UntrustedCoefficientError, match=f"^{re.escape(message)}$"):
            theta_ladder(trivial_periods(order), top)
        with pytest.raises(AssertionError, match="reconstruct_N1 ran"):
            theta_ladder(trivial_periods(order), top - 1)

    def test_power_recurrence_division_is_exact(self):
        assert _divide_exactly(-12, 4) == -3
        assert _divide_exactly(0, 7) == 0
        with pytest.raises(ReconstructionError):
            _divide_exactly(7, 2)
        with pytest.raises(ReconstructionError):
            _divide_exactly(-7, 3)

    def test_p1xp1_order_24_is_integral(self):
        # c_{2m} = binom(2m, m)^2 on the index-2 grading
        values = [
            (factorial(d) // factorial(d // 2) ** 2) ** 2 if d % 2 == 0 else 0
            for d in range(25)
        ]
        periods = PeriodSequence.from_plain(values, 2)
        start = time.perf_counter()
        n1 = reconstruct_N1(periods)
        assert time.perf_counter() - start < 1.0
        assert n1 == _reconstruct_by_recurrence(periods)
        for value in n1.tail.values():
            assert all(c.denominator == 1 for _, c in value.items())


def _structure_constant(
    series: Sequence[ThetaSeries], p: int, q: int, r: int
) -> QPolynomial:
    """C(p,q,r) = a_{p-r}(N_q) + a_{q-r}(N_p) for r < p + q, from the ladder
    series = [N_1, N_2, ...]; N_0 = 1 has an empty tail."""
    value = QPolynomial.zero()
    for index, owner in ((p - r, q), (q - r, p)):
        if index > 0 and owner:
            value = value + series[owner - 1].tail_term(index)
    return value


def _structure_table_by_entries(series: Sequence[ThetaSeries], total: int) -> StructureTable:
    """Oracle for structure_table: every key (p, q, r) on its own, both
    halves of each symmetric pair computed separately."""
    for position, item in enumerate(series, 1):
        if item.p != position:
            raise ValueError(
                f"series at position {position} has leading exponent {item.p}"
            )
    if total > len(series):
        raise ValueError(
            f"need series through N_{total} for total degree {total}"
        )
    entries: dict[tuple[int, int, int], QPolynomial] = {}
    for p in range(total + 1):
        for q in range(total + 1 - p):
            for r in range(p + q + 1):
                if r == p + q:
                    value = QPolynomial.one()
                else:
                    value = _structure_constant(series, p, q, r)
                if value:
                    entries[(p, q, r)] = value
    return StructureTable(total, entries)


@st.composite
def graded_ladders(draw) -> tuple[list[ThetaSeries], int]:
    """A ladder N_1..N_top (top 1..8) from periods on a grading of index
    1..4 with fractional and negative coefficients, and a total <= top."""
    index = draw(st.integers(1, 4), label="index")
    top = draw(st.integers(1, 8), label="top")
    order = draw(st.integers(top, 10), label="order")
    coeffs = [ONE, ZERO] + [
        draw(KERNEL_Q, label=f"c_{d}") if d % index == 0 else ZERO
        for d in range(2, order + 1)
    ]
    series = theta_ladder(PeriodSequence(tuple(coeffs)), top)
    return series, draw(st.integers(0, top), label="total")


@st.composite
def short_windowed_ladders(draw) -> tuple[list[ThetaSeries], int]:
    """Hand-built N_1..N_top with windows too short for some table keys."""
    top = draw(st.integers(1, 5), label="top")
    series = []
    for p in range(1, top + 1):
        valid_to = draw(st.integers(0, 4), label=f"valid_to of N_{p}")
        tail = draw(
            st.dictionaries(st.integers(1, 4), KERNEL_Q, max_size=3), label=f"tail of N_{p}"
        )
        series.append(ThetaSeries(p, {i: c for i, c in tail.items() if i <= valid_to}, valid_to))
    return series, draw(st.integers(0, top), label="total")


class TestStructureTable:
    def test_trivial_table(self):
        table = structure_table(theta_ladder(trivial_periods(10), 4), 4)
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
        series = p2_series(top=4)
        table = structure_table(series, 4)
        oracle = _structure_table_by_entries(series, 4)
        for p in range(5):
            for q in range(5 - p):
                for r in range(p + q + 1):
                    assert table.entry(p, q, r) == oracle.entry(q, p, r)

    @settings(max_examples=150, deadline=None)
    @given(ladder=graded_ladders())
    def test_matches_the_per_entry_oracle(self, ladder):
        series, total = ladder
        assert structure_table(series, total) == _structure_table_by_entries(series, total)

    @settings(max_examples=150, deadline=None)
    @given(ladder=short_windowed_ladders())
    def test_short_windows_match_the_per_entry_oracle(self, ladder):
        series, total = ladder
        expected = _outcome(_structure_table_by_entries, series, total)
        if isinstance(expected, StructureTable):
            assert structure_table(series, total) == expected
        else:
            assert expected[0] is UntrustedCoefficientError
            with pytest.raises(UntrustedCoefficientError):
                structure_table(series, total)

    def test_a_window_too_short_for_the_table_is_refused(self):
        series = [ThetaSeries(1, {}, 0), ThetaSeries(2, {}, 0)]
        for build in (structure_table, _structure_table_by_entries):
            with pytest.raises(UntrustedCoefficientError, match="exceeds trusted window 0"):
                build(series, 2)

    @pytest.mark.parametrize(
        "series, total, message",
        [
            ([ThetaSeries(2, {}, 4)], 1, "series at position 1 has leading exponent 2"),
            (
                [ThetaSeries(1, {}, 4), ThetaSeries(1, {}, 4)],
                5,
                "series at position 2 has leading exponent 1",
            ),
            ([ThetaSeries(1, {}, 4)], 2, "need series through N_2 for total degree 2"),
        ],
    )
    def test_refusals_match_the_per_entry_oracle(self, series, total, message):
        for build in (structure_table, _structure_table_by_entries):
            with pytest.raises(ValueError) as err:
                build(series, total)
            assert str(err.value) == message

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

    @settings(max_examples=100, deadline=None)
    @given(ladder=graded_ladders())
    def test_records_match_the_accessor_and_the_tails(self, ladder):
        series, total = ladder
        table = structure_table(series, total)
        assert table_records(table) == [
            {"p": p, "q": q, "r": r, "value": str(table.entry(p, q, r))}
            for p in range(total + 1)
            for q in range(total + 1 - p)
            for r in range(p + q + 1)
        ]
        assert series_records(series) == [
            {
                "p": n.p,
                "valid_to": n.valid_to,
                "tail": [
                    {"i": i, "value": str(n.tail_term(i))}
                    for i in range(1, n.valid_to + 1)
                    if n.tail_term(i)
                ],
            }
            for n in series
        ]

    def test_series_records_list_each_tail_by_index(self):
        series = [ThetaSeries(1, {3: Fraction(-1, 2), 1: QPolynomial.of(2, 1)}, 4)]
        assert series_records(series) == [
            {
                "p": 1,
                "valid_to": 4,
                "tail": [{"i": 1, "value": "2q"}, {"i": 3, "value": "-1/2"}],
            }
        ]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_records_of_a_table_that_shares_values(self, data):
        # one object under several unrelated keys, and equal values under
        # distinct objects: each record still prints its own entry
        total = data.draw(st.integers(0, 4), label="total")
        keys = [
            (p, q, r)
            for p in range(total + 1)
            for q in range(total + 1 - p)
            for r in range(p + q + 1)
        ]
        shared = data.draw(st.lists(KERNEL_Q, min_size=1, max_size=3), label="values")
        entries = {
            key: data.draw(st.sampled_from(shared), label=str(key))
            for key in data.draw(st.lists(st.sampled_from(keys), unique=True), label="keys")
        }
        for key in data.draw(st.lists(st.sampled_from(keys), unique=True), label="copies"):
            entries[key] = QPolynomial(dict(entries.get(key, ONE).items()))
        table = StructureTable(total, entries)
        assert table_records(table) == [
            {"p": p, "q": q, "r": r, "value": str(table.entry(p, q, r))}
            for p, q, r in keys
        ]

    @pytest.mark.parametrize(
        "key", [(5, 5, 0), (1, 1, 3), (2, 1, 0), (-1, 1, 0), (1, 0, -1)]
    )
    def test_rejects_keys_outside_the_range(self, key):
        with pytest.raises(ValueError, match=rf"{re.escape(repr(key))}.*total degree 2"):
            StructureTable(2, {(1, 1, 0): 2, key: 1})

    def test_zero_values_are_dropped(self):
        table = StructureTable(2, {(1, 1, 0): 0, (1, 1, 2): QPolynomial.one()})
        assert table.entries == {(1, 1, 2): ONE}

    def test_accessor_range_validation(self):
        table = structure_table(p2_series(top=2), 2)
        with pytest.raises(ValueError):
            table.entry(1, 2, 0)
        with pytest.raises(ValueError):
            table.entry(1, 1, 3)


class TestPeriodsFromTable:
    """Periods -> N_1 -> ladder -> table -> periods, read off the row p = 1."""

    @staticmethod
    def _round_trip(periods: PeriodSequence) -> list[QPolynomial]:
        top = max(periods.order, 1)
        return periods_from_table(structure_table(theta_ladder(periods, top), top))

    @settings(max_examples=100, deadline=5000)
    @given(kernel_periods())
    @example(trivial_periods(0))
    @example(trivial_periods(1))
    def test_round_trip(self, periods):
        # an order-0 sequence needs N_1, so its table of total 1 reads back
        # c_1 = 0 too, which every sequence has
        got = self._round_trip(periods)
        assert got == list(periods.coeffs) + [ZERO] * (len(got) - len(periods.coeffs))
        assert len(got) == max(periods.order, 1) + 1

    def test_gr25_apery_form_at_order_15(self):
        # c_{5d} = (5d)!/(d!)^5 a_d q^d with a_d = sum_j C(d,j)^2 C(d+j,j)
        values = [
            factorial(m) // factorial(m // 5) ** 5
            * sum(comb(m // 5, j) ** 2 * comb(m // 5 + j, j) for j in range(m // 5 + 1))
            if m % 5 == 0 else 0
            for m in range(16)
        ]
        periods = PeriodSequence.from_plain(values, 5)
        assert periods.coeffs[10] == QPolynomial.of(113400 * 19, 2)
        assert self._round_trip(periods) == list(periods.coeffs)

    def test_only_the_row_p_1_is_read(self):
        table = structure_table(p2_series(order=12, top=12), 12)
        row = StructureTable(12, {k: v for k, v in table.entries.items() if k[0] == 1})
        assert periods_from_table(row) == periods_from_table(table) == list(p2_periods(12).coeffs)

    def test_a_corrupted_row_entry_changes_c_8(self):
        table = structure_table(p2_series(order=12, top=12), 12)
        entries = dict(table.entries)
        entries[(1, 7, 0)] = table.entry(1, 7, 0) + ONE
        got = periods_from_table(StructureTable(12, entries))
        want = list(p2_periods(12).coeffs)
        assert got[:8] == want[:8]
        assert got[8] == want[8] + ONE

    def test_total_zero(self):
        assert periods_from_table(StructureTable(0, {(0, 0, 0): ONE})) == [ONE]


class TestResidueProduct:
    def test_monomials_only(self):
        t2 = ThetaSeries(2, {}, valid_to=4)
        assert _residue_product_q_polynomials([t2, t2]) == ZERO

    def test_empty_product(self):
        assert _residue_product_q_polynomials([]) == ONE

    def test_matches_structure_constant_route(self):
        series = p2_series(top=4)
        table = structure_table(series, 4)
        for p in range(1, 4):
            for q in range(1, 5 - p):
                residue = _residue_product_q_polynomials([series[p - 1], series[q - 1]])
                assert residue == table.entry(p, q, 0), (p, q)

    def test_window_exhaustion(self):
        n1 = reconstruct_N1(trivial_periods(3))
        with pytest.raises(UntrustedCoefficientError):
            _residue_product_q_polynomials([n1] * 5)
        # t's window reaches t^-4, so t * t^4 is trusted only down to t^1
        t = ThetaSeries(1, {}, valid_to=4)
        with pytest.raises(UntrustedCoefficientError) as err:
            _residue_product_q_polynomials([t, ThetaSeries(4, {}, valid_to=0)])
        assert str(err.value) == "exponent 0 lies below the trusted floor 1"


class TestAssociativity:
    def test_trivial_table_is_associative(self):
        series = theta_ladder(trivial_periods(10), 4)
        assert associativity_check(structure_table(series, 4)) == []

    def test_p2_table_is_associative(self):
        table = structure_table(p2_series(top=4), 4)
        assert associativity_check(table) == []

    def test_corrupted_entry_is_reported(self):
        table = structure_table(theta_ladder(trivial_periods(10), 3), 3)
        entries = dict(table.entries)
        entries[(1, 2, 0)] = QPolynomial.of(7)
        violations = associativity_check(StructureTable(3, entries))
        assert violations
        cells = {(v["p"], v["q"], v["r"], v["u"]) for v in violations}
        assert (1, 1, 1, 0) in cells


class TestAssociativityMatchesDenseSweep:
    """The sparse sweep must return the dense oracle's violation list:
    the same records in the same order with the same strings."""

    def test_trivial_table(self):
        table = structure_table(theta_ladder(trivial_periods(12), 6), 6)
        start = time.perf_counter()
        assert associativity_check(table) == _dense_associativity_check(table) == []
        assert time.perf_counter() - start < 5.0

    def test_plane_tables_through_total_8(self):
        series = p2_series(top=8)
        start = time.perf_counter()
        for total in range(9):
            table = structure_table(series, total)
            assert associativity_check(table) == _dense_associativity_check(table) == []
        assert time.perf_counter() - start < 10.0

    @settings(max_examples=60, deadline=5000)
    @given(data=st.data())
    def test_corrupted_plane_tables(self, data):
        total = data.draw(st.integers(3, 5), label="total")
        table = structure_table(p2_series(top=5), total)
        entries = dict(table.entries)
        for _ in range(data.draw(st.integers(1, 3), label="corrupted cells")):
            p = data.draw(st.integers(0, total), label="p")
            q = data.draw(st.integers(0, total - p), label="q")
            r = data.draw(st.integers(0, p + q), label="r")
            amount = data.draw(st.integers(-3, 3).filter(bool), label="amount")
            power = data.draw(st.integers(0, 2), label="q-power")
            entries[(p, q, r)] = table.entry(p, q, r) + QPolynomial.of(amount, power)
        corrupted = StructureTable(total, entries)
        assert associativity_check(corrupted) == _dense_associativity_check(corrupted)


def _associativity_q_polynomials(table: StructureTable) -> list[dict]:
    """Oracle for associativity_check: the same sparse sweep over the
    nonzero entries, summed as q-polynomials with Fraction coefficients."""
    total = table.total
    nonzero: dict[tuple[int, int], list[tuple[int, QPolynomial]]] = {}
    for (p, q, r), value in table.entries.items():
        nonzero.setdefault((p, q), []).append((r, value))
    violations = []
    for p in range(total + 1):
        for q in range(total + 1 - p):
            for r in range(total + 1 - p - q):
                left: dict[int, QPolynomial] = {}
                for s, c in nonzero.get((p, q), ()):
                    for u, d in nonzero.get((s, r), ()):
                        left[u] = left[u] + c * d if u in left else c * d
                right: dict[int, QPolynomial] = {}
                for s, c in nonzero.get((q, r), ()):
                    for u, d in nonzero.get((p, s), ()):
                        right[u] = right[u] + c * d if u in right else c * d
                for u in range(p + q + r + 1):
                    lhs, rhs = left.get(u, ZERO), right.get(u, ZERO)
                    if lhs != rhs:
                        violations.append(
                            dict(p=p, q=q, r=r, u=u, left=str(lhs), right=str(rhs))
                        )
    return violations


# the plane, P^1 x P^1 (c_2m = binom(2m, m)^2, index 2) and Gr(2,4) (index 4)
ASSOCIATIVITY_LADDERS = {
    "plane": lambda: p2_series(order=12, top=5),
    "p1xp1": lambda: theta_ladder(
        PeriodSequence.from_plain(
            [factorial(d) ** 2 // factorial(d // 2) ** 4 if d % 2 == 0 else 0
             for d in range(13)],
            2,
        ),
        5,
    ),
    "gr24": lambda: theta_ladder(PeriodSequence(tuple(grass_periods(BoxContext(2, 4), 16))), 5),
}


class TestAssociativityMatchesQPolynomialSweep:
    """The int-scaled sweep must return the q-polynomial sweep's violation
    list: the same records in the same order with the same strings."""

    @pytest.mark.parametrize("name", sorted(ASSOCIATIVITY_LADDERS))
    def test_tables_associate(self, name):
        series = ASSOCIATIVITY_LADDERS[name]()
        for total in range(6):
            table = structure_table(series, total)
            assert associativity_check(table) == _associativity_q_polynomials(table) == []

    @settings(max_examples=60, deadline=5000)
    @given(data=st.data())
    def test_corrupted_tables(self, data):
        name = data.draw(st.sampled_from(sorted(ASSOCIATIVITY_LADDERS)), label="ladder")
        total = data.draw(st.integers(2, 5), label="total")
        table = structure_table(ASSOCIATIVITY_LADDERS[name](), total)
        entries = dict(table.entries)
        for _ in range(data.draw(st.integers(1, 3), label="corrupted cells")):
            p = data.draw(st.integers(0, total), label="p")
            q = data.draw(st.integers(0, total - p), label="q")
            r = data.draw(st.integers(0, p + q), label="r")
            amount = data.draw(
                st.fractions(-3, 3, max_denominator=4).filter(bool), label="amount"
            )
            power = data.draw(st.integers(0, 2), label="q-power")
            entries[(p, q, r)] = table.entry(p, q, r) + QPolynomial.of(amount, power)
        corrupted = StructureTable(total, entries)
        violations = associativity_check(corrupted)
        assert violations == _associativity_q_polynomials(corrupted)


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
