"""Tests for the exact Laurent-polynomial kernel.

The period tests check against independently computed closed forms
(central binomial and multinomial counts), not against the engine itself,
and against `_expand_periods`, the former engine kept here as the oracle.
"""

from __future__ import annotations

import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanoperiods.laurent import (
    LaurentPolynomial,
    QPolynomial,
    RankMismatchError,
    _add_product,
    _as_fraction,
    _common_denominator,
    _from_ints,
    _to_ints,
    classical_periods,
    laurent_from_json,
    laurent_to_json,
    multiply,
)


def constant_term(f):
    """Coefficient of the zero exponent vector."""
    return f.terms.get((0,) * len(f.names), QPolynomial.zero())


def tropical_value(f, direction):
    """min over the support of the pairing with `direction`."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no tropicalization")
    v = tuple(_as_fraction(c) for c in direction)
    if len(v) != len(f.names):
        raise RankMismatchError(
            f"direction of length {len(v)} against rank {len(f.names)}"
        )
    return min(
        sum((Fraction(e_i) * v_i for e_i, v_i in zip(e, v)), Fraction(0))
        for e in f.terms
    )


def _power(f, degree):
    """f**degree by iterated multiplication; degree 0 gives 1 for every f."""
    result = LaurentPolynomial.one(f.names)
    for _ in range(degree):
        result = multiply(result, f)
    return result


def _expand_periods(f, order):
    """Oracle for classical_periods: expand f**d in full over QPolynomial
    coefficients, one multiplication per degree, and read each constant term."""
    out = []
    current = LaurentPolynomial.one(f.names)
    for d in range(order + 1):
        out.append(constant_term(current))
        if d < order:
            current = multiply(current, f)
    return out


def _poly(names, terms):
    return LaurentPolynomial.from_dict(tuple(names), terms)


def _p1_mirror():
    return _poly(("x",), {(1,): 1, (-1,): 1})


def _p2_mirror():
    return _poly(("x", "y"), {(1, 0): 1, (0, 1): 1, (-1, -1): 1})


# ---------------------------------------------------------------------------
# QPolynomial coefficients


def test_qpolynomial_arithmetic():
    a = QPolynomial({0: Fraction(3, 2), 1: Fraction(1)})
    b = QPolynomial({1: Fraction(-1), 2: Fraction(2)})
    assert a + b == QPolynomial({0: Fraction(3, 2), 2: Fraction(2)})
    assert a * b == QPolynomial(
        {1: Fraction(-3, 2), 2: Fraction(2), 3: Fraction(2)}
    )
    assert (a - a).is_zero()
    assert a * QPolynomial.zero() == QPolynomial.zero()


def test_qpolynomial_purges_zero_entries():
    p = QPolynomial({0: Fraction(0), 2: Fraction(5)})
    assert p.items() == ((2, Fraction(5)),)


def test_qpolynomial_scalar_ops():
    p = QPolynomial.of(6)
    assert p / 3 == QPolynomial.of(2)
    assert p / Fraction(1, 2) == QPolynomial.of(12)
    assert 2 * p == QPolynomial.of(12)


def test_qpolynomial_rendering():
    assert str(QPolynomial.zero()) == "0"
    assert str(QPolynomial.of(Fraction(-5, 3))) == "-5/3"
    assert str(QPolynomial({1: Fraction(2)})) == "2q"
    assert str(QPolynomial({2: Fraction(1)})) == "q^2"
    assert str(QPolynomial({0: Fraction(1), 2: Fraction(-3)})) == "1 - 3q^2"
    assert str(QPolynomial({1: Fraction(1, 8)})) == "1/8q"


def test_qpolynomial_specialize():
    p = QPolynomial({0: Fraction(1), 2: Fraction(3)})
    assert p.specialize_q(Fraction(1)) == Fraction(4)
    assert p.specialize_q(Fraction(2)) == Fraction(13)


# ---------------------------------------------------------------------------
# multiplication and powers


def test_multiply_monomial_inverse():
    f = _poly(("x",), {(1,): 1})
    g = _poly(("x",), {(-1,): 1})
    assert multiply(f, g) == LaurentPolynomial.one(("x",))


def test_multiply_difference_of_squares():
    x_plus = _poly(("x",), {(1,): 1, (0,): 1})
    x_minus = _poly(("x",), {(1,): 1, (0,): -1})
    assert multiply(x_plus, x_minus) == _poly(("x",), {(2,): 1, (0,): -1})


def test_square_of_projective_plane_mirror():
    f = _p2_mirror()
    sq = multiply(f, f)
    assert sq == _poly(
        ("x", "y"),
        {
            (2, 0): 1,
            (0, 2): 1,
            (-2, -2): 1,
            (1, 1): 2,
            (0, -1): 2,
            (-1, 0): 2,
        },
    )


def test_multiply_rank_mismatch():
    f = _poly(("x",), {(1,): 1})
    g = _poly(("x", "y"), {(1, 0): 1})
    with pytest.raises(RankMismatchError):
        multiply(f, g)


def test_multiply_name_mismatch():
    f = _poly(("x",), {(1,): 1})
    g = _poly(("y",), {(1,): 1})
    with pytest.raises(RankMismatchError):
        multiply(f, g)


def test_power_zero_is_one():
    assert _power(_p2_mirror(), 0) == LaurentPolynomial.one(("x", "y"))
    zero = LaurentPolynomial(("x",))
    assert _power(zero, 0) == LaurentPolynomial.one(("x",))
    assert _power(zero, 3) == zero


def test_power_matches_repeated_multiplication():
    f = _p1_mirror()
    expected = _poly(("x",), {(3,): 1, (1,): 3, (-1,): 3, (-3,): 1})
    assert _power(f, 3) == expected


# ---------------------------------------------------------------------------
# constant term and classical periods


def test_constant_term_examples():
    f = _poly(("x",), {(0,): Fraction(5, 2), (2,): 3})
    assert constant_term(f) == QPolynomial.of(Fraction(5, 2))
    assert constant_term(_p1_mirror()) == QPolynomial.zero()


def test_periods_p1_central_binomial():
    cs = classical_periods(_p1_mirror(), 10)
    for d, c in enumerate(cs):
        if d % 2 == 0:
            assert c == QPolynomial.of(math.comb(d, d // 2))
        else:
            assert c.is_zero()


def test_periods_p2_multinomial():
    cs = classical_periods(_p2_mirror(), 9)
    for d, c in enumerate(cs):
        if d % 3 == 0:
            m = d // 3
            expected = math.factorial(3 * m) // math.factorial(m) ** 3
            assert c == QPolynomial.of(expected)
        else:
            assert c.is_zero()


def test_periods_p2_multinomial_hold_two_powers_at_a_time():
    # holding every W^k, k <= 75, at once peaks at about 24 MiB under
    # tracemalloc; holding only the two powers that c_d pairs, at about 2.2
    tracemalloc.start()
    try:
        cs = classical_periods(_p2_mirror(), 150)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for d, c in enumerate(cs):
        m, rest = divmod(d, 3)
        expected = 0 if rest else math.factorial(3 * m) // math.factorial(m) ** 3
        assert c == QPolynomial.of(expected)
    assert peak < 8 << 20


def test_periods_of_zero_polynomial():
    cs = classical_periods(LaurentPolynomial(("x",)), 4)
    assert cs[0] == QPolynomial.one()
    assert all(c.is_zero() for c in cs[1:])


def test_periods_length():
    assert len(classical_periods(_p1_mirror(), 0)) == 1
    assert len(classical_periods(_p1_mirror(), 7)) == 8


def test_periods_keep_novikov_parameter():
    # x + q/x has constant term of x^2-degree zero picking up q per inverse power
    f = LaurentPolynomial.from_dict(("x",), {(1,): 1, (-1,): QPolynomial({1: Fraction(1)})})
    cs = classical_periods(f, 4)
    assert cs[2] == QPolynomial({1: Fraction(2)})
    assert cs[4] == QPolynomial({2: Fraction(6)})


# ---------------------------------------------------------------------------
# tropicalization


def test_tropical_value_examples():
    f = _p2_mirror()
    assert tropical_value(f, (Fraction(1), Fraction(1))) == Fraction(-2)
    assert tropical_value(f, (Fraction(0), Fraction(0))) == Fraction(0)
    assert tropical_value(f, (Fraction(1, 2), Fraction(-1, 3))) == Fraction(-1, 3)


def test_tropical_value_of_zero_polynomial():
    with pytest.raises(ValueError, match="no tropicalization"):
        tropical_value(LaurentPolynomial(("x", "y")), (Fraction(1), Fraction(1)))


# ---------------------------------------------------------------------------
# JSON round trips


def test_json_round_trip():
    f = LaurentPolynomial.from_dict(
        ("x", "y"),
        {(1, -1): Fraction(3, 2), (0, 2): QPolynomial({1: Fraction(1)})},
    )
    blob = json.dumps(laurent_to_json(f))
    assert laurent_from_json(json.loads(blob)) == f


def test_json_q_defaults_to_zero():
    data = {"vars": ["x"], "terms": [{"coeff": "2", "exp": [1]}]}
    assert laurent_from_json(data) == _poly(("x",), {(1,): 2})


def test_json_duplicate_exponent_rejected():
    data = {
        "vars": ["x"],
        "terms": [
            {"coeff": "1", "q": 0, "exp": [1]},
            {"coeff": "2", "q": 0, "exp": [1]},
        ],
    }
    with pytest.raises(ValueError):
        laurent_from_json(data)


def test_json_same_exponent_distinct_q_powers_allowed():
    data = {
        "vars": ["x"],
        "terms": [
            {"coeff": "1", "q": 0, "exp": [1]},
            {"coeff": "2", "q": 1, "exp": [1]},
        ],
    }
    f = laurent_from_json(data)
    assert f == LaurentPolynomial.from_dict(
        ("x",), {(1,): QPolynomial({0: Fraction(1), 1: Fraction(2)})}
    )


def test_json_rejects_bad_exponent_length():
    data = {"vars": ["x", "y"], "terms": [{"coeff": "1", "exp": [1]}]}
    with pytest.raises(ValueError):
        laurent_from_json(data)


def test_json_fractional_coefficients():
    data = {"vars": ["x"], "terms": [{"coeff": "-3/7", "exp": [2]}]}
    f = laurent_from_json(data)
    assert f == _poly(("x",), {(2,): Fraction(-3, 7)})


def test_json_errors_name_the_record_without_echoing_it():
    good = {"coeff": "1", "exp": [1]}
    duplicate = {"vars": ["x"], "terms": [good, {"coeff": "2", "exp": [0]}, good]}
    with pytest.raises(ValueError, match="^term record 2 repeats"):
        laurent_from_json(duplicate)
    long_string = {"vars": ["x"], "terms": [{"coeff": "7x" * 500, "exp": [1]}]}
    with pytest.raises(ValueError, match=r"\(1002 characters\)") as err:
        laurent_from_json(long_string)
    assert len(str(err.value)) < 200


# ---------------------------------------------------------------------------
# algebraic properties on small random inputs


def _small_polys(rank):
    names = ("x", "y", "z")[:rank]
    exponents = st.tuples(*[st.integers(-3, 3)] * rank)
    coeff = st.fractions(
        min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
    )
    return st.dictionaries(exponents, coeff, min_size=0, max_size=4).map(
        lambda terms: LaurentPolynomial.from_dict(names, terms)
    )


def _positive_polys(rank):
    names = ("x", "y", "z")[:rank]
    exponents = st.tuples(*[st.integers(-3, 3)] * rank)
    coeff = st.integers(1, 3).map(Fraction)
    return st.dictionaries(exponents, coeff, min_size=1, max_size=4).map(
        lambda terms: LaurentPolynomial.from_dict(names, terms)
    )


@settings(deadline=None, max_examples=60)
@given(f=_small_polys(2), g=_small_polys(2))
def test_multiplication_commutes(f, g):
    assert multiply(f, g) == multiply(g, f)


@settings(deadline=None, max_examples=40)
@given(f=_small_polys(2), g=_small_polys(2), h=_small_polys(2))
def test_multiplication_associates(f, g, h):
    assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))


@settings(deadline=None, max_examples=60)
@given(
    f=_positive_polys(2),
    g=_positive_polys(2),
    v=st.tuples(
        st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4),
        st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4),
    ),
)
def test_tropical_additivity_for_positive_coefficients(f, g, v):
    # no cancellation can occur, so tropicalization turns products into sums
    assert tropical_value(multiply(f, g), v) == tropical_value(f, v) + tropical_value(g, v)


@settings(deadline=None, max_examples=40)
@given(f=_small_polys(2), g=_small_polys(2))
def test_product_support_within_sumset(f, g):
    sums = {
        tuple(a + b for a, b in zip(e, d))
        for e in f.terms
        for d in g.terms
    } if f.terms and g.terms else set()
    assert set(multiply(f, g).terms) <= sums


@settings(deadline=None, max_examples=20)
@given(f=_small_polys(1))
def test_incremental_periods_match_direct_powers(f):
    cs = _expand_periods(f, 5)
    for d in range(6):
        assert cs[d] == constant_term(_power(f, d))


_int_maps = st.dictionaries(st.integers(-6, 6), st.integers(-20, 20), max_size=6)


@settings(deadline=None, max_examples=200)
@given(total=_int_maps, left=_int_maps, right=_int_maps, scale=st.integers(-4, 4))
@example(total={}, left={0: 1, 1: 1}, right={0: 1, -1: -1}, scale=1)
@example(total={0: 5, -3: 2}, left={-1: 2, 2: -3}, right={1: 4, -2: 1}, scale=-2)
@example(total={4: 1}, left={1: 3}, right={2: 7}, scale=0)
def test_int_kernel_matches_a_fraction_reference(total, left, right, scale):
    want = {k: Fraction(c) for k, c in total.items()}
    for k1, c1 in left.items():
        for k2, c2 in right.items():
            want[k1 + k2] = want.get(k1 + k2, Fraction(0)) + Fraction(scale) * c1 * c2
    got = dict(total)
    _add_product(got, left, right, scale)
    assert all(type(c) is int for c in got.values())
    assert {k: c for k, c in got.items() if c} == {k: c for k, c in want.items() if c}


@settings(deadline=None, max_examples=100)
@given(
    values=st.lists(
        st.dictionaries(
            st.integers(0, 3),
            st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=12),
            max_size=3,
        ).map(QPolynomial),
        max_size=4,
    ),
    factor=st.integers(1, 3),
)
def test_scale_helpers_cross_between_fractions_and_ints(values, factor):
    common = _common_denominator(values)
    assert common == math.lcm(*(c.denominator for v in values for _, c in v.items()))
    for value in values:
        scaled = _to_ints(value, common * factor)
        assert all(type(c) is int for c in scaled.values())
        assert scaled == {p: c * common * factor for p, c in value.items()}
        assert _from_ints(scaled, common * factor) == value


def _period_test_polys():
    """Ranks 1-3, exponents in [-2, 2]; coefficients are integers, fractions
    or several Novikov powers at one exponent; the zero polynomial included."""
    plain = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4),
    )
    coeff = st.one_of(
        plain.map(QPolynomial.of),
        st.dictionaries(st.integers(0, 3), plain, min_size=1, max_size=3).map(QPolynomial),
    )

    def of_rank(rank):
        names = ("x", "y", "z")[:rank]
        exponents = st.tuples(*[st.integers(-2, 2)] * rank)
        return st.dictionaries(exponents, coeff, max_size=5).map(
            lambda terms: LaurentPolynomial(names, terms)
        )

    return st.integers(1, 3).flatmap(of_rank)


@settings(deadline=None, max_examples=150)
@given(f=_period_test_polys(), order=st.integers(0, 8))
@example(f=LaurentPolynomial(("x", "y", "z")), order=8)
@example(
    f=LaurentPolynomial.from_dict(
        ("x", "y"),
        {
            (1, 0): Fraction(1, 2),
            (0, 1): QPolynomial({0: Fraction(2, 3), 1: Fraction(-1)}),
            (-1, -1): QPolynomial({1: Fraction(3, 5), 2: Fraction(1)}),
            (0, 0): Fraction(-1, 4),
        },
    ),
    order=8,
)
def test_periods_match_the_expansion_oracle(f, order):
    assert classical_periods(f, order) == _expand_periods(f, order)


# ---------------------------------------------------------------------------
# packed keys of classical_periods
#
# The engine keys each term x^e q^p of W^k, k <= K = ceil(order/2), by
# p + Q * sum_i e_i B^i with B = 2Km + 1 and Q = Kh + 1 (m the largest
# |e_i| of W, h its largest q-power).  The supports above keep exponents
# within +-2, so these cases push W^K to the digit limits: exponents
# +-Km with m = 3 in ranks 2 and 3, and q-powers Kh.


def _q(coeffs):
    return QPolynomial({p: Fraction(c) for p, c in coeffs.items()})


PACKING_CASES = {
    "rank-2-wide": _poly(
        ("x", "y"),
        {(3, 0): 1, (-3, 1): 2, (-3, 0): 1, (0, -3): Fraction(1, 2), (1, 2): -1, (0, 3): 1},
    ),
    "rank-3-wide": _poly(
        ("x", "y", "z"),
        {
            (3, 0, 0): 1,
            (-3, 1, 0): 1,
            (0, -3, 1): Fraction(-2, 3),
            (0, 3, -3): 1,
            (0, 0, 3): 2,
            (-1, -1, -1): 1,
        },
    ),
    # q-powers up to h = 4, so (q^4 x)^K against x^-K reads q^Kh; x's
    # 1 + q + q^4 against x^-1's 1 - q cancels the q^1 part of every
    # x x^-1 pair
    "novikov-wide": _poly(
        ("x", "y"),
        {
            (1, 0): _q({0: 1, 1: 1, 4: 1}),
            (-1, 0): _q({0: 1, 1: -1}),
            (0, 3): _q({4: 1}),
            (0, -1): _q({2: Fraction(1, 3)}),
            (-3, 0): _q({0: 1, 4: -2}),
        },
    ),
    # the constant 2 and 2x against -2x^-1 cancel the constant term of W^2
    "constant-term": _poly(
        ("x", "y"),
        {(0, 0): 2, (1, 0): 1, (-1, 0): -2, (0, 3): Fraction(3, 4), (0, -3): 1},
    ),
}


@pytest.mark.parametrize("order", [0, 1, 2, 9, 10])
@pytest.mark.parametrize("name", sorted(PACKING_CASES))
def test_packed_keys_match_the_expansion_oracle(name, order):
    f = PACKING_CASES[name]
    assert max(abs(x) for e in f.terms for x in e) == 3
    assert classical_periods(f, order) == _expand_periods(f, order)


def test_packing_cases_reach_the_digit_limits():
    # at order 10, K = 5 and W^K reaches exponents +-Km and q-power Kh
    for name in ("rank-2-wide", "rank-3-wide"):
        power = _power(PACKING_CASES[name], 5)
        for i in range(len(power.names)):
            assert {e[i] for e in power.terms} >= {-15, 15}
    power = _power(PACKING_CASES["novikov-wide"], 5)
    assert max(p for coeff in power.terms.values() for p, _ in coeff.items()) == 20
