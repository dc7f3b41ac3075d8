"""Regularized period sequences and their JSON form, kept apart from
`frobenius` so that a `period` call never compiles the theta ladder."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from ._record import Record
from .laurent import QPolynomial, Rational, _as_qpolynomial, parse_rational, preview


class InconsistentPeriodsError(ValueError):
    """The period sequence cannot come from a tail-free leading term."""


class PeriodSequence(Record):
    """Regularized period coefficients c_0..c_T with c_0 = 1."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Sequence[QPolynomial | Rational]):
        clean = tuple(_as_qpolynomial(c) for c in coeffs)
        if not clean or clean[0] != QPolynomial.one():
            raise InconsistentPeriodsError("period sequences start with c_0 = 1")
        self._store(clean)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_plain(
        cls, values: Sequence[Rational | str], index: int
    ) -> PeriodSequence:
        """Decorate plain numbers with the Novikov powers q^(d/index)."""
        if index <= 0:
            raise ValueError(f"index must be positive, got {index}")
        coeffs = []
        for d, value in enumerate(values):
            amount = Fraction(value)
            if not amount:
                coeffs.append(QPolynomial.zero())
                continue
            if d % index:
                raise InconsistentPeriodsError(
                    f"nonzero c_{d} is off the index-{index} grading"
                )
            coeffs.append(QPolynomial.of(amount, d // index))
        return cls(tuple(coeffs))


# ---------------------------------------------------------------------------
# JSON serialization
#
# {"index": 3, "coeffs": ["1", "0", "0", "6", ...]}
# Coefficient strings are decimal integers or "p/q" fractions, read by
# laurent.parse_rational; the Novikov power of c_d is
# implied as d / index, so parsing re-decorates what emitting strips.


def periods_to_json(periods: PeriodSequence) -> dict:
    """Serialize with the grading index recovered from the coefficients.

    Each nonzero c_d must sit in a single Novikov power p; decorated
    coefficients (p > 0) must agree on d / p, which becomes the stored
    index.  Undecorated input falls back to the gcd of the nonzero
    positions, and 1 when only c_0 is nonzero.
    """
    values: list[str] = []
    ratios: set[int] = set()
    positions: list[int] = []
    for d, coeff in enumerate(periods.coeffs):
        items = coeff.items()
        if len(items) > 1:
            raise InconsistentPeriodsError(
                f"c_{d} mixes Novikov powers and has no period-file form"
            )
        if not items:
            values.append("0")
            continue
        power, amount = items[0]
        values.append(str(amount))
        if d:
            positions.append(d)
        if power:
            if d % power:
                raise InconsistentPeriodsError(
                    f"c_{d} sits at q^{power}, which divides no grading index"
                )
            ratios.add(d // power)
    if len(ratios) > 1:
        raise InconsistentPeriodsError(
            f"coefficients imply conflicting grading indices {sorted(ratios)}"
        )
    if ratios:
        index = ratios.pop()
    elif positions:
        index = gcd(*positions)
    else:
        index = 1
    return {"index": index, "coeffs": values}


def periods_from_json(data: Mapping) -> PeriodSequence:
    if not isinstance(data, Mapping):
        raise InconsistentPeriodsError("period JSON must be an object")
    index = data.get("index")
    if not isinstance(index, int) or isinstance(index, bool) or index <= 0:
        raise InconsistentPeriodsError(f'bad grading "index" {preview(index)}')
    values = data.get("coeffs")
    if not isinstance(values, (list, tuple)) or not all(
        isinstance(v, str) for v in values
    ):
        raise InconsistentPeriodsError('"coeffs" must be a list of strings')
    try:
        amounts = [parse_rational(v) for v in values]
    except ValueError as err:
        raise InconsistentPeriodsError(f"unreadable coefficient: {err}") from err
    return PeriodSequence.from_plain(amounts, index)
