"""Theta-series reconstruction from regularized period sequences.

A period sequence c_0, c_1, ... determines a Laurent series
N_1 = t + sum_i a_i t^(-i) through the residue conditions
N_1^d[t^0] = c_d, solved by Miller's power recurrence (the direct
expansion of N_1^d is the test oracle).  N_1 fixes the whole ladder:
N_n is the unique monic degree-n polynomial in N_1 of the form t^n plus
a negative tail, which theta_ladder reads off the recursion theta_n =
theta_1 theta_{n-1} - lower terms, and the ladder gives the
multiplication table of the theta basis, whose row p = 1 gives the
periods back (periods_from_table).  All series are truncated
honestly: every value carries the largest tail index it trusts, a
finite integer, and operations refuse to emit coefficients outside the
joint window rather than zero-filling.

The arithmetic runs on plain ints, through the one int product kernel
and the Fraction/int helpers of `laurent`.  ThetaSeries is the only
window type: the ladder runs on N_1's tail scaled by its common
denominator L as {t-exponent: {q-power: int}}, and the table's read-back
and associativity sweep run on entries scaled the same way; Miller's
recurrence runs on phi(L u), whose coefficients are integral.  Fractions
are built only where the returned records are; the same steps over
q-polynomials with Fraction coefficients, and the residue product of
windowed series, are kept in the test suite as oracles.

Tail coefficients satisfy a_i(N_p) = p * N_{p,i} with N_{p,i} the
two-point invariants: N_p is the p-th Faber polynomial of N_1, and its
Grunsky coefficients a_i(N_p)/p are the ones symmetric in (p, i) (on
the plane, a_1(N_2) = 4q and a_2(N_1) = 2q give N_{2,1} = N_{1,2} = 2q).
The structure constants below the leading one are
C(p,q,r) = a_{p-r}(N_q) + a_{q-r}(N_p), a term counting only when its
index is positive; the ladder uses the row p = 1, and the table builds
each once per pair p <= q.  Both CLI documents, table_records (every
in-range entry, zeros included) and series_records, are built here.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ._record import Record
from .laurent import (
    QPolynomial,
    Rational,
    _add_product,
    _as_qpolynomial,
    _common_denominator,
    _from_ints,
    _to_ints,
)
from .periods import InconsistentPeriodsError, PeriodSequence


class UntrustedCoefficientError(ValueError):
    """A coefficient outside the trusted truncation window was requested."""


class ReconstructionError(ValueError):
    """The reconstruction arithmetic broke an exactness it relies on."""


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


# {t-exponent or target index: {q-power: int}}, at one integer scale
Folded = dict[int, dict[int, int]]


def _divide_exactly(value: int, divisor: int) -> int:
    """value / divisor, which must be an integer."""
    quotient, remainder = divmod(value, divisor)
    if remainder:
        raise ReconstructionError(
            f"power recurrence left {value} indivisible by {divisor}"
        )
    return quotient


def reconstruct_N1(periods: PeriodSequence) -> ThetaSeries:
    """The unique series t + sum a_i t^(-i) with N_1^d[t^0] = c_d.

    With N_1 = t phi(1/t), phi(u) = 1 + sum a_i u^(i+1), c_d = [u^d] phi^d.
    Miller's recurrence (Knuth, TAOCP 4.7) for P_k = [u^k] phi^d,
    P_k = (1/k) sum_j ((d+1) j - k) phi_j P_{k-j}, gives P_d from the known
    prefix of phi; the unknown phi_d = a_{d-1} enters P_d only as d phi_d.
    The recurrence runs over plain ints on psi(u) = phi(L u), L the lcm of
    the known tail's denominators: psi has coefficients in Z[q], so
    R_k = L^k P_k = [u^k] psi^d does too and each division by k is exact.
    The test suite compares against the q-polynomial recurrence and
    against expanding N_1^d; selfcheck reads the periods back off the
    structure table built from the ladder.
    """
    coeffs = periods.coeffs
    order = periods.order
    if order >= 1 and not coeffs[1].is_zero():
        raise InconsistentPeriodsError("c_1 must vanish for a tail-free leading term")
    tail: dict[int, QPolynomial] = {}
    scale = 1
    for d in range(2, order + 1):
        # psi_j = L^j a_{j-1}, integral because L clears every denominator
        psi = [(i + 1, _to_ints(a, scale ** (i + 1))) for i, a in tail.items()]
        powers: list[dict[int, int]] = [{0: 1}]
        for k in range(1, d + 1):
            total: dict[int, int] = {}
            for j, psi_j in psi:
                weight = (d + 1) * j - k
                if j <= k and weight and powers[k - j]:
                    _add_product(total, psi_j, powers[k - j], weight)
            powers.append({p: _divide_exactly(c, k) for p, c in total.items() if c})
        a = (coeffs[d] - _from_ints(powers[d], scale**d)) / d
        if a:
            tail[d - 1] = a
            scale = _common_denominator(tail.values())
    return ThetaSeries(1, tail, valid_to=max(order - 1, 0))


def theta_ladder(periods: PeriodSequence, top: int) -> list[ThetaSeries]:
    """N_1..N_top: reconstruct_N1, then the product recursion.

    N_n = N_1 N_{n-1} - sum_{r=1}^{n-1} C(1,n-1,r) N_r - C(1,n-1,0), and the
    scalars C(1,n-1,r) = a_{n-1-r}(N_1) cancel every term from t^0 to
    t^(n-1), so N_n is t^n plus the tail read off at t^(-i), a = a(N_1):

        a_i(N_n) = a_{i+1}(N_{n-1}) + a_{i+n-1} + sum_{j+k=i} a_j a_k(N_{n-1})
                   - sum_{r=1}^{n-2} a_{n-1-r} a_i(N_r),

    trusted for i <= valid_to(N_1) - (n-1).  It runs over ints on
    A_n = L^n a(N_n), L the common denominator of N_1's tail.
    """
    if top < 1:
        raise ValueError(f"the ladder starts at N_1, got top {top}")
    # N_1 is trusted to tail index max(order - 1, 0); N_top needs index top - 1
    if top > max(periods.order, 1):
        raise UntrustedCoefficientError(
            f"N_{top} needs a period sequence of order at least {top}; "
            f"this one has order {periods.order}"
        )
    n1 = reconstruct_N1(periods)
    scale = _common_denominator(n1.tail.values())
    a = {i: _to_ints(value, scale) for i, value in n1.tail.items()}
    folded = [a]  # A_1, A_2, ...
    ladder = [n1]
    unit = {0: 1}
    for n in range(2, top + 1):
        last = folded[-1]
        tail: dict[int, dict[int, int]] = {}
        for i in range(1, n1.valid_to - n + 2):
            value: dict[int, int] = {}
            if i + 1 in last:
                _add_product(value, unit, last[i + 1], scale)
            if i + n - 1 in a:
                _add_product(value, unit, a[i + n - 1], scale ** (n - 1))
            for j, a_j in a.items():
                if j < i and i - j in last:
                    _add_product(value, a_j, last[i - j])
            for r, lower in enumerate(folded[:-1], 1):
                if n - 1 - r in a and i in lower:
                    _add_product(value, a[n - 1 - r], lower[i], -scale ** (n - 1 - r))
            value = {power: c for power, c in value.items() if c}
            if value:
                tail[i] = value
        folded.append(tail)
        values = {i: _from_ints(v, scale**n) for i, v in tail.items()}
        ladder.append(ThetaSeries(n, values, n1.valid_to - n + 1))
    return ladder


class StructureTable(Record):
    """Structure constants entry(p, q, r) for p + q <= total.

    Every key must satisfy p, q >= 0, p + q <= total and 0 <= r <= p + q.
    Only nonzero entries are stored; the accessor fills in zeros for
    every in-range key.
    """

    __slots__ = _fields = ("total", "entries")

    def __init__(
        self,
        total: int,
        entries: Mapping[tuple[int, int, int], QPolynomial | Rational] | None = None,
    ):
        clean = {}
        for key, value in (entries or {}).items():
            p, q, r = key
            if not (0 <= p and 0 <= q and p + q <= total and 0 <= r <= p + q):
                raise ValueError(f"entry key {key!r} lies outside total degree {total}")
            coeff = _as_qpolynomial(value)
            if coeff:
                clean[key] = coeff
        self._store(total, clean)

    def entry(self, p: int, q: int, r: int) -> QPolynomial:
        if p < 0 or q < 0 or p + q > self.total:
            raise ValueError(f"pair ({p},{q}) outside total degree {self.total}")
        if not 0 <= r <= p + q:
            raise ValueError(f"target index {r} outside 0..{p + q}")
        return self.entries.get((p, q, r), QPolynomial.zero())


def structure_table(series: Sequence[ThetaSeries], total: int) -> StructureTable:
    """All structure constants with p + q <= total, from series = [N_1, N_2, ...]:
    entry(p,q,p+q) = 1 and a_{p-r}(N_q) + a_{q-r}(N_p) below it, built once
    for p <= q and filed under (p,q,r) and (q,p,r)."""
    for position, item in enumerate(series, 1):
        if item.p != position:
            raise ValueError(f"series at position {position} has leading exponent {item.p}")
    if total > len(series):
        raise ValueError(f"need series through N_{total} for total degree {total}")
    one = QPolynomial.one()
    entries = {}
    for p in range(total // 2 + 1):
        for q in range(p, total + 1 - p):
            entries[(p, q, p + q)] = entries[(q, p, p + q)] = one
            # no term counts for r >= q, nor in the p = 0 row: N_0 = 1 has no tail
            for r in range(q if p else 0):
                value = series[p - 1].tail_term(q - r)
                if r < p:
                    value = value + series[q - 1].tail_term(p - r)
                if value:
                    entries[(p, q, r)] = entries[(q, p, r)] = value
    return StructureTable(total, entries)


def periods_from_table(table: StructureTable) -> list[QPolynomial]:
    """c_0..c_total read back off the row p = 1 of the table.

    theta_1 theta_r = sum_s C(1,r,s) theta_s, so theta_1^d = sum_r m_{d,r}
    theta_r with m_0 = theta_0 and m_{d+1,s} = sum_r m_{d,r} C(1,r,s); theta_r
    has no t^0 term for r >= 1, so c_d = m_{d,0}.  The row runs over ints at
    its common denominator L, so m_d sits at L^d.
    """
    row = [[table.entry(1, r, s) for s in range(r + 2)] for r in range(table.total)]
    scale = _common_denominator(value for values in row for value in values)
    row_ints = [{s: _to_ints(v, scale) for s, v in enumerate(values) if v} for values in row]
    periods = [QPolynomial.one()]
    m: Folded = {0: {0: 1}}
    for d in range(1, table.total + 1):
        step: Folded = {}
        for r, value in m.items():
            for s, c in row_ints[r].items():
                _add_product(step.setdefault(s, {}), value, c)
        m = step
        periods.append(_from_ints(m.get(0, {}), scale**d))
    return periods


def table_records(table: StructureTable) -> list[dict]:
    """Every in-range entry as {"p","q","r","value"} with exact strings,
    each stored value formatted once however many keys share it."""
    entries, zero = table.entries, QPolynomial.zero()
    texts: dict[int, str] = {}
    records = []
    for p in range(table.total + 1):
        for q in range(table.total + 1 - p):
            for r in range(p + q + 1):
                value = entries.get((p, q, r), zero)
                if id(value) not in texts:
                    texts[id(value)] = str(value)
                records.append({"p": p, "q": q, "r": r, "value": texts[id(value)]})
    return records


def series_records(series: Sequence[ThetaSeries]) -> list[dict]:
    """Each series as {"p","valid_to","tail"}, its tail as [{"i","value"}] by i."""
    return [
        {"p": n.p, "valid_to": n.valid_to,
         "tail": [{"i": i, "value": str(n.tail[i])} for i in sorted(n.tail)]}
        for n in series
    ]


def associativity_check(table: StructureTable) -> list[dict]:
    """Compare (theta_p theta_q) theta_r with theta_p (theta_q theta_r).

    Runs over every triple with p + q + r <= the table's total degree
    and every target u, comparing exactly; a violation record names the
    cell and both sides.  Each side sums products of nonzero entries
    only, looked up by their pair (p, q); entry(p, q, r) vanishes for
    r > p + q.  Entries are scaled to ints at their common denominator L,
    so both sides sit at L^2 as {u: {q-power: int}}; only sides that differ
    as dicts (a cancelled term may linger as a 0) are compared as Fractions.
    """
    total = table.total
    scale = _common_denominator(table.entries.values())
    nonzero: dict[tuple[int, int], dict[int, dict[int, int]]] = {}
    for (p, q, r), value in table.entries.items():
        nonzero.setdefault((p, q), {})[r] = _to_ints(value, scale)
    violations = []
    for p in range(total + 1):
        for q in range(total + 1 - p):
            for r in range(total + 1 - p - q):
                left: Folded = {}
                for s, a in nonzero.get((p, q), {}).items():
                    for u, b in nonzero.get((s, r), {}).items():
                        _add_product(left.setdefault(u, {}), a, b)
                right: Folded = {}
                for s, a in nonzero.get((q, r), {}).items():
                    for u, b in nonzero.get((p, s), {}).items():
                        _add_product(right.setdefault(u, {}), a, b)
                if left == right:
                    continue
                for u in range(p + q + r + 1):
                    lhs_u = _from_ints(left.get(u, {}), scale**2)
                    rhs_u = _from_ints(right.get(u, {}), scale**2)
                    if lhs_u != rhs_u:
                        violations.append(
                            dict(p=p, q=q, r=r, u=u, left=str(lhs_u), right=str(rhs_u))
                        )
    return violations
