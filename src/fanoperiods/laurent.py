"""Exact sparse Laurent-polynomial arithmetic over the rationals.

Coefficients live in Q[q] for a single formal parameter q (used to track
degrees of mirror maps), represented sparsely as maps from q-power to
Fraction.  Laurent polynomials are maps from integer exponent vectors to
such coefficients.  Everything is exact; no floating point appears
anywhere in this package.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence, Union

from ._record import Record

Rational = Union[int, Fraction]


class RankMismatchError(ValueError):
    """Raised when two polynomials do not share a variable context."""


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class QPolynomial(Record):
    """A polynomial in the parameter q with rational coefficients.

    Immutable; zero coefficients are never stored.
    """

    __slots__ = _fields = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Rational] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for to_power, value in coeffs.items():
                if not isinstance(to_power, int) or to_power < 0:
                    raise ValueError(f"invalid q-power {to_power!r}")
                frac = _as_fraction(value)
                if frac:
                    clean[to_power] = frac
        self._store(clean)

    @classmethod
    def zero(cls) -> QPolynomial:
        return cls()

    @classmethod
    def one(cls) -> QPolynomial:
        return cls({0: Fraction(1)})

    @classmethod
    def of(cls, value: Rational, q_power: int = 0) -> QPolynomial:
        return cls({q_power: _as_fraction(value)})

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(sorted(self._coeffs.items()))

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def specialize_q(self, value: Rational) -> Fraction:
        v = _as_fraction(value)
        return sum((c * v**p for p, c in self._coeffs.items()), Fraction(0))

    def __add__(self, other: QPolynomial) -> QPolynomial:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        total = dict(self._coeffs)
        for p, c in other._coeffs.items():
            total[p] = total[p] + c if p in total else c
        return QPolynomial(total)

    def __neg__(self) -> QPolynomial:
        return QPolynomial({p: -c for p, c in self._coeffs.items()})

    def __sub__(self, other: QPolynomial) -> QPolynomial:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: QPolynomial | Rational) -> QPolynomial:
        if isinstance(other, QPolynomial):
            total: dict[int, Fraction] = {}
            for p, c in self._coeffs.items():
                for p2, c2 in other._coeffs.items():
                    key = p + p2
                    total[key] = total[key] + c * c2 if key in total else c * c2
            return QPolynomial(total)
        if isinstance(other, (int, Fraction)):
            scale = _as_fraction(other)
            return QPolynomial({p: c * scale for p, c in self._coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, divisor: Rational) -> QPolynomial:
        scale = _as_fraction(divisor)
        if not scale:
            raise ZeroDivisionError("division of a q-polynomial by zero")
        return QPolynomial({p: c / scale for p, c in self._coeffs.items()})

    def __hash__(self) -> int:
        return hash(self.items())

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        pieces: list[str] = []
        for p, c in self.items():
            if p == 0:
                body = str(c)
            else:
                q_part = "q" if p == 1 else f"q^{p}"
                if c == 1:
                    body = q_part
                elif c == -1:
                    body = f"-{q_part}"
                else:
                    body = f"{c}{q_part}"
            if not pieces:
                pieces.append(body)
            elif body.startswith("-"):
                pieces.append(f"- {body[1:]}")
            else:
                pieces.append(f"+ {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"QPolynomial({dict(self.items())!r})"


def _as_qpolynomial(value: QPolynomial | Rational) -> QPolynomial:
    if isinstance(value, QPolynomial):
        return value
    return QPolynomial.of(value)


ExponentVector = tuple[int, ...]


class LaurentPolynomial(Record):
    """A Laurent polynomial in named variables with QPolynomial coefficients."""

    __slots__ = _fields = ("names", "terms")

    def __init__(
        self,
        names: Sequence[str],
        terms: Mapping[ExponentVector, QPolynomial] | None = None,
    ):
        names_t = tuple(names)
        if len(set(names_t)) != len(names_t):
            raise ValueError(f"variable names must be distinct: {names_t!r}")
        clean: dict[ExponentVector, QPolynomial] = {}
        if terms:
            for exponents, coeff in terms.items():
                exp_t = tuple(exponents)
                if len(exp_t) != len(names_t):
                    raise RankMismatchError(
                        f"exponent vector {exp_t!r} does not match rank {len(names_t)}"
                    )
                if not all(isinstance(e, int) for e in exp_t):
                    raise ValueError(f"non-integer exponent vector {exp_t!r}")
                if coeff:
                    clean[exp_t] = coeff
        self._store(names_t, clean)

    @classmethod
    def one(cls, names: Sequence[str]) -> LaurentPolynomial:
        return cls(names, {(0,) * len(names): QPolynomial.one()})

    @classmethod
    def from_dict(
        cls,
        names: Sequence[str],
        terms: Mapping[Sequence[int], QPolynomial | Rational],
    ) -> LaurentPolynomial:
        return cls(
            names,
            {tuple(e): _as_qpolynomial(c) for e, c in terms.items()},
        )

    def is_zero(self) -> bool:
        return not self.terms

    def map_coefficients(self, fn) -> LaurentPolynomial:
        return LaurentPolynomial(
            self.names, {e: fn(c) for e, c in self.terms.items()}
        )

    def __add__(self, other: LaurentPolynomial) -> LaurentPolynomial:
        _require_same_context(self, other)
        total = dict(self.terms)
        for e, c in other.terms.items():
            merged = total.get(e, QPolynomial.zero()) + c
            if merged:
                total[e] = merged
            else:
                total.pop(e, None)
        return LaurentPolynomial(self.names, total)

    def __neg__(self) -> LaurentPolynomial:
        return self.map_coefficients(lambda c: -c)

    def __sub__(self, other: LaurentPolynomial) -> LaurentPolynomial:
        return self + (-other)

    def __mul__(self, other: LaurentPolynomial) -> LaurentPolynomial:
        if isinstance(other, LaurentPolynomial):
            return multiply(self, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.names, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        body = {e: str(c) for e, c in sorted(self.terms.items())}
        return f"LaurentPolynomial({self.names!r}, {body!r})"


def _require_same_context(f: LaurentPolynomial, g: LaurentPolynomial) -> None:
    if f.names != g.names:
        raise RankMismatchError(
            f"variable contexts differ: {f.names!r} vs {g.names!r}"
        )


def multiply(f: LaurentPolynomial, g: LaurentPolynomial) -> LaurentPolynomial:
    """Exact product of two Laurent polynomials in the same variables."""
    _require_same_context(f, g)
    total: dict[ExponentVector, QPolynomial] = {}
    for e, c in f.terms.items():
        for e2, c2 in g.terms.items():
            key = tuple(a + b for a, b in zip(e, e2))
            prior = total.get(key)
            total[key] = c * c2 if prior is None else prior + c * c2
    return LaurentPolynomial(f.names, total)


def classical_periods(f: LaurentPolynomial, order: int) -> list[QPolynomial]:
    """Constant terms of f**d for d = 0..order.

    c_0 is 1 even for the zero polynomial (empty product convention).
    The work is done over plain ints: f is scaled by the lcm L of its
    coefficient denominators to W, and each term x^e q^p of W^k,
    k <= K = ceil(order/2), is keyed by one int p + Q * sum_i e_i B^i
    with B = 2Km + 1, Q = Kh + 1 (m the largest |e_i| and h the largest
    q-power of f): no digit carries in W^k, so products add keys and -e
    packs to the negated key.  Each c_d is read off as
    sum_e [W^a]_e [W^b]_{-e} with a = floor(d/2), b = d - a, and divided
    by L^d.  One loop over d holds only these two powers: at even d they
    are the same, and at odd d, W^b is new, built as W times W^a.
    """
    if order < 0:
        raise ValueError("period order must be non-negative")
    if not f.terms:
        return [QPolynomial.one()] + [QPolynomial.zero()] * order
    scale = _common_denominator(f.terms.values())
    half = (order + 1) // 2
    base = 2 * half * max((abs(x) for e in f.terms for x in e), default=0) + 1
    q_base = half * max(p for coeff in f.terms.values() for p, _ in coeff.items()) + 1
    folded = {
        p + q_base * sum(x * base**i for i, x in enumerate(e)): c
        for e, coeff in f.terms.items()
        for p, c in _to_ints(coeff, scale).items()
    }
    # `current` is W^b by packed key, where a cancelled term may stay as 0;
    # `high` is W^b by packed Laurent part, then q-power, without zeros,
    # and `low` is W^a in the same form
    current, high = {0: 1}, {0: {0: 1}}
    out: list[QPolynomial] = []
    for d in range(order + 1):
        low = high
        if d % 2:
            step: dict[int, int] = {}
            _add_product(step, folded, current)  # W, the short factor, outside
            current, high = step, {}
            for key, c in step.items():
                if c:
                    e, p = divmod(key, q_base)
                    high.setdefault(e, {})[p] = c
        total: dict[int, int] = {}
        for e, q_coeffs in low.items():
            if partner := high.get(-e):
                _add_product(total, q_coeffs, partner)
        out.append(_from_ints(total, scale**d))
    return out


# ---------------------------------------------------------------------------
# Integer kernel
#
# The period engine and the theta ladder in `frobenius` bring coefficients
# in Q[q] to one common denominator L, as {q-power: L * coefficient}, and
# multiply them with `_add_product`, their only int product loop.  These
# helpers are the only crossing between Fractions and ints; the Fraction
# loops of QPolynomial.__mul__ and multiply stay apart as oracles.


def _add_product(total: dict, left: Mapping, right: Mapping, scale: int = 1) -> None:
    """total[k1 + k2] += scale * c1 * c2 over every pair of entries."""
    get, right_items = total.get, right.items()
    for k1, c1 in left.items():
        c1 *= scale
        for k2, c2 in right_items:
            key = k1 + k2
            total[key] = get(key, 0) + c1 * c2


def _common_denominator(values: Iterable[QPolynomial]) -> int:
    """The lcm of every coefficient denominator of the values; 1 for none."""
    return lcm(*(c.denominator for value in values for c in value._coeffs.values()))


def _to_ints(value: QPolynomial, scale: int) -> dict[int, int]:
    """scale * value by q-power; scale must clear every denominator."""
    return {p: c.numerator * (scale // c.denominator) for p, c in value._coeffs.items()}


def _from_ints(coeffs: Mapping[int, int], scale: int) -> QPolynomial:
    """The q-polynomial coeffs / scale; zero coefficients are dropped."""
    return QPolynomial({p: Fraction(c, scale) for p, c in coeffs.items()})


# ---------------------------------------------------------------------------
# JSON serialization
#
# {"vars": ["x", "y"], "terms": [{"coeff": "3/2", "q": 0, "exp": [1, -1]}]}
# Coefficient strings are decimal integers or "p/q" fractions; "q" is the
# power of the Novikov parameter and defaults to 0.

_RATIONAL_STRING = r"-?[0-9]+(/[0-9]+)?"

# Input integers are bounded here, before conversion, so that the CLI can
# lift the interpreter's own int-to-string limit for exact results.
MAX_INPUT_DIGITS = 4300


def _bounded_int(token: str) -> int:
    digits = len(token.lstrip("-"))
    if digits > MAX_INPUT_DIGITS:
        raise ValueError(
            f"an input integer has {digits} digits; the limit is {MAX_INPUT_DIGITS}"
        )
    return int(token)


def preview(value) -> str:
    """A parsed JSON value in a few words: echoing hostile input can run long."""
    if isinstance(value, (Mapping, list, tuple)):
        kind = "an object" if isinstance(value, Mapping) else "a list"
        return f"{kind} of size {len(value)}"
    text = json.dumps(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def parse_rational(text: str) -> Fraction:
    """Read a coefficient string: a decimal integer or "p/q" with q nonzero.

    Anything else, such as "1e3", "1.5", "1_000" or " 3", is rejected
    with a ValueError, although Fraction itself would accept it, and so
    is a part of more than MAX_INPUT_DIGITS digits.
    """
    if not isinstance(text, str) or not re.fullmatch(_RATIONAL_STRING, text):
        raise ValueError(
            f"bad coefficient string {preview(text)}: expected a decimal integer or p/q"
        )
    numerator, _, denominator = text.partition("/")
    top, bottom = _bounded_int(numerator), _bounded_int(denominator or "1")
    if not bottom:
        raise ValueError(f"bad coefficient string {preview(text)}: zero denominator")
    return Fraction(top, bottom)


def laurent_to_json(f: LaurentPolynomial) -> dict:
    records = []
    for e in sorted(f.terms):
        for q_power, value in f.terms[e].items():
            records.append({"coeff": str(value), "q": q_power, "exp": list(e)})
    return {"vars": list(f.names), "terms": records}


def laurent_from_json(data: Mapping) -> LaurentPolynomial:
    if not isinstance(data, Mapping):
        raise ValueError("laurent JSON must be an object")
    names = data.get("vars")
    if (
        not isinstance(names, (list, tuple))
        or not names
        or not all(isinstance(v, str) for v in names)
    ):
        raise ValueError('laurent JSON needs a non-empty "vars" list of strings')
    records = data.get("terms", [])
    if not isinstance(records, (list, tuple)):
        raise ValueError('"terms" must be a list')
    rank = len(names)
    accumulated: dict[ExponentVector, dict[int, Fraction]] = {}
    for n, record in enumerate(records):
        where = f"term record {n}"
        if not isinstance(record, Mapping):
            raise ValueError(f"{where} is {preview(record)}, not an object")
        exp = record.get("exp")
        if (
            not isinstance(exp, (list, tuple))
            or len(exp) != rank
            or not all(isinstance(e, int) and not isinstance(e, bool) for e in exp)
        ):
            raise ValueError(f"{where}: bad exponent vector {preview(exp)} for rank {rank}")
        q_power = record.get("q", 0)
        if not isinstance(q_power, int) or isinstance(q_power, bool) or q_power < 0:
            raise ValueError(f"{where}: bad q-power {preview(q_power)}")
        coeffs = accumulated.setdefault(tuple(exp), {})
        if q_power in coeffs:
            raise ValueError(f"{where} repeats an earlier exponent vector and q-power")
        coeffs[q_power] = parse_rational(record.get("coeff"))
    return LaurentPolynomial(
        tuple(names),
        {e: QPolynomial(qs) for e, qs in accumulated.items()},
    )
