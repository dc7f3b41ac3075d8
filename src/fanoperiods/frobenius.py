"""Theta-series reconstruction from regularized period sequences.

A period sequence c_0, c_1, ... determines a Laurent series
N_1 = t + sum_i a_i t^(-i) through the residue conditions
N_1^d[t^0] = c_d, solved by Miller's power recurrence (the direct
expansion of N_1^d is the test oracle); the recursion theta_n =
theta_1 theta_{n-1} - lower terms then builds the whole ladder N_2, N_3,
... together with the multiplication table of the theta basis.  All
series are truncated honestly: every value carries the largest tail
index it trusts, a finite integer, and operations refuse to emit
coefficients outside the joint window rather than zero-filling.

Tail coefficients satisfy a_i(N_p) = i * N_{p,i} with N_{p,i} the
two-point invariants, and the structure constants below the leading one
are C(p,q,r) = a_{p-r}(N_q) + a_{q-r}(N_p), a term counting only when
its index is positive; the ladder step uses the row p = 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from ._record import Record
from .laurent import QPolynomial, Rational, _as_qpolynomial, parse_rational, preview


class UntrustedCoefficientError(ValueError):
    """A coefficient outside the trusted truncation window was requested."""


class InconsistentPeriodsError(ValueError):
    """The period sequence cannot come from a tail-free leading term."""


class ReconstructionError(ValueError):
    """The extension recursion produced a series of the wrong shape."""


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


class ThetaSeries(Record):
    """A truncated series t^p + sum_{i > 0} a_i t^(-i).

    `tail` maps i to a_i; `valid_to` is the largest i whose coefficient
    is trusted.  Do not hash: the tail mapping keeps plain dict storage.
    """

    __slots__ = _fields = ("p", "tail", "valid_to")

    def __init__(self, p: int, tail: Mapping[int, QPolynomial | Rational], valid_to: int):
        if p < 0:
            raise ValueError(f"leading exponent must be non-negative, got {p}")
        clean: dict[int, QPolynomial] = {}
        for i, value in tail.items():
            if not isinstance(i, int) or i <= 0:
                raise ValueError(f"tail indices must be positive integers, got {i!r}")
            coeff = _as_qpolynomial(value)
            if coeff:
                clean[i] = coeff
        if valid_to < 0:
            raise ValueError(f"valid_to must be non-negative, got {valid_to}")
        beyond = [i for i in clean if i > valid_to]
        if beyond:
            raise ValueError(f"tail indices {sorted(beyond)} exceed valid_to={valid_to}")
        self._store(p, clean, valid_to)

    def tail_term(self, i: int) -> QPolynomial:
        """a_i, refusing indices beyond the trusted window."""
        if i <= 0:
            raise ValueError(f"tail index must be positive, got {i}")
        if i > self.valid_to:
            raise UntrustedCoefficientError(
                f"tail index {i} exceeds trusted window {self.valid_to}"
            )
        return self.tail.get(i, QPolynomial.zero())


class TruncatedSeries(Record):
    """A finite Laurent-series window: trusted exactly for exponents >= floor."""

    __slots__ = _fields = ("coeffs", "floor")

    def __init__(self, coeffs: Mapping[int, QPolynomial | Rational], floor: int):
        clean = {}
        for e, c in coeffs.items():
            coeff = _as_qpolynomial(c)
            if coeff and e >= floor:
                clean[e] = coeff
        self._store(clean, floor)

    def coefficient(self, exponent: int) -> QPolynomial:
        if exponent < self.floor:
            raise UntrustedCoefficientError(
                f"exponent {exponent} lies below the trusted floor {self.floor}"
            )
        return self.coeffs.get(exponent, QPolynomial.zero())

    @property
    def top(self) -> int:
        return max(self.coeffs, default=self.floor)


def _as_truncated(series: ThetaSeries | TruncatedSeries) -> TruncatedSeries:
    if isinstance(series, TruncatedSeries):
        return series
    coeffs: dict[int, QPolynomial] = {series.p: QPolynomial.one()}
    for i, value in series.tail.items():
        coeffs[-i] = value
    return TruncatedSeries(coeffs, -series.valid_to)


def series_multiply(
    a: ThetaSeries | TruncatedSeries, b: ThetaSeries | TruncatedSeries
) -> TruncatedSeries:
    """Exact product within the joint validity window.

    The unknown low-order terms of the factors reach every exponent below
    max(floor_a + top_b, floor_b + top_a), so those are dropped.
    """
    left = _as_truncated(a)
    right = _as_truncated(b)
    floor = max(left.floor + right.top, right.floor + left.top)
    coeffs: dict[int, QPolynomial] = {}
    for e1, c1 in left.coeffs.items():
        for e2, c2 in right.coeffs.items():
            e = e1 + e2
            if e < floor:
                continue
            value = c1 * c2
            coeffs[e] = coeffs[e] + value if e in coeffs else value
    return TruncatedSeries(coeffs, floor)


def reconstruct_N1(periods: PeriodSequence) -> ThetaSeries:
    """The unique series t + sum a_i t^(-i) with N_1^d[t^0] = c_d.

    With N_1 = t phi(1/t), phi(u) = 1 + sum a_i u^(i+1), c_d = [u^d] phi^d.
    Miller's recurrence (Knuth, TAOCP 4.7) for P_k = [u^k] phi^d,
    P_k = (1/k) sum_j ((d+1) j - k) phi_j P_{k-j}, gives P_d from the known
    prefix of phi; the unknown phi_d = a_{d-1} enters P_d only as d phi_d.
    O(T^3) q-polynomial products in all; the test suite compares against
    expanding N_1^d, and selfcheck multiplies back with residue_product.
    """
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


def _require_ladder(series: Sequence[ThetaSeries]) -> None:
    for position, item in enumerate(series, 1):
        if item.p != position:
            raise ValueError(
                f"series at position {position} has leading exponent {item.p}"
            )


def extend_series(series: Sequence[ThetaSeries]) -> ThetaSeries:
    """N_n from N_1..N_{n-1} via the product recursion.

    N_n = N_1 N_{n-1} - sum_{r=1}^{n-1} C(1,n-1,r) N_r - C(1,n-1,0), the
    constant C(1,n-1,0) = a_1(N_{n-1}) + a_{n-1}(N_1) removing the t^0 term.
    The result must come out as t^n plus a strictly negative tail with
    unit leading coefficient.  The input series' shape makes that
    automatic for every period sequence, so the ReconstructionError
    raised otherwise guards this module's arithmetic, not the input.
    """
    if not series:
        raise ValueError("the extension recursion needs at least N_1")
    _require_ladder(series)
    n1 = series[0]
    previous = series[-1]
    n = previous.p + 1
    product = series_multiply(n1, previous)
    coeffs = dict(product.coeffs)
    floor = product.floor
    for r in range(1, n):
        scalar = _structure_constant(series, 1, n - 1, r)
        if scalar:
            portion = _as_truncated(series[r - 1])
            floor = max(floor, portion.floor)
            for e, c in portion.coeffs.items():
                value = scalar * c
                coeffs[e] = coeffs[e] - value if e in coeffs else -value
    constant = _structure_constant(series, 1, n - 1, 0)
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
        raise ReconstructionError(
            f"N_{n} keeps terms at non-negative exponents {stray}"
        )
    high = sorted(e for e in survivors if e > n)
    if high:
        raise ReconstructionError(f"N_{n} has terms above t^{n} at {high}")
    tail = {-e: c for e, c in survivors.items() if e < 0}
    return ThetaSeries(n, tail, -floor)


class StructureTable(Record):
    """Structure constants entry(p, q, r) for p + q <= total.

    Only nonzero entries are stored; the accessor fills in zeros for
    every in-range key.
    """

    __slots__ = _fields = ("total", "entries")

    def __init__(
        self,
        total: int,
        entries: Mapping[tuple[int, int, int], QPolynomial | Rational] | None = None,
    ):
        clean = {
            key: _as_qpolynomial(value)
            for key, value in (entries or {}).items()
            if _as_qpolynomial(value)
        }
        self._store(total, clean)

    def entry(self, p: int, q: int, r: int) -> QPolynomial:
        if p < 0 or q < 0 or p + q > self.total:
            raise ValueError(f"pair ({p},{q}) outside total degree {self.total}")
        if not 0 <= r <= p + q:
            raise ValueError(f"target index {r} outside 0..{p + q}")
        return self.entries.get((p, q, r), QPolynomial.zero())


def structure_table(series: Sequence[ThetaSeries], total: int) -> StructureTable:
    """All structure constants with p + q <= total.

    entry(p,q,p+q) = 1; otherwise a_{p-r}(N_q) + a_{q-r}(N_p).  The
    q = 0 row degenerates to the identity since N_0 = 1 has an empty tail.
    """
    _require_ladder(series)
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


def table_records(table: StructureTable) -> list[dict]:
    """Every in-range entry as {"p","q","r","value"} with exact strings."""
    records = []
    for p in range(table.total + 1):
        for q in range(table.total + 1 - p):
            for r in range(p + q + 1):
                records.append(
                    {"p": p, "q": q, "r": r, "value": str(table.entry(p, q, r))}
                )
    return records


def residue_product(series: Sequence[ThetaSeries | TruncatedSeries]) -> QPolynomial:
    """t^0 coefficient of the windowed product of the factors; 1 for none."""
    if not series:
        return QPolynomial.one()
    accumulated = _as_truncated(series[0])
    for item in series[1:]:
        accumulated = series_multiply(accumulated, item)
    return accumulated.coefficient(0)


def _entry_or_zero(table: StructureTable, p: int, q: int, r: int) -> QPolynomial:
    """Table lookup extended by the vanishing above r = p + q."""
    if r > p + q:
        return QPolynomial.zero()
    return table.entry(p, q, r)


def associativity_check(table: StructureTable) -> list[dict]:
    """Compare (theta_p theta_q) theta_r with theta_p (theta_q theta_r).

    Runs over every triple with p + q + r <= the table's total degree
    and every target u, comparing exactly; a violation record names the
    cell and both sides.
    """

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
