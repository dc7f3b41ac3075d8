"""Built-in invariant battery behind the selfcheck subcommand.

Each check raises AssertionError explicitly (python -O keeps it) with a
readable message when an identity fails and returns a one-line success
detail otherwise; run_all times every check and keeps going past
failures so a broken install reports everything that is wrong at once.
"""

from __future__ import annotations

import time
from itertools import combinations
from math import factorial
from typing import Callable, NamedTuple

from .frobenius import (
    StructureTable,
    associativity_check,
    periods_from_table,
    structure_table,
    theta_ladder,
)
from .grassmannian import (
    flow_polynomial,
    grass_periods,
    nobody_polytope,
    verify_valuations,
)
from .laurent import LaurentPolynomial, QPolynomial, classical_periods
from .periods import PeriodSequence
from .polytope import geometry_flags, lattice_point_count
from .young import (
    BoxContext,
    YoungDiagram,
    all_diagrams,
    from_steps,
    max_diag,
    schur_dimension,
    sigma_reflect,
    theta_valuation_delta,
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    seconds: float


def _plane_mirror() -> LaurentPolynomial:
    return LaurentPolynomial.from_dict(
        ("x", "y"), {(1, 0): 1, (0, 1): 1, (-1, -1): 1}
    )


def _plane_closed_form(order: int) -> list[int]:
    """c_{3m} = (3m)! / (m!)^3 and zero off the grading."""
    return [
        factorial(d) // factorial(d // 3) ** 3 if d % 3 == 0 else 0
        for d in range(order + 1)
    ]


def check_period_identity() -> str:
    got = classical_periods(_plane_mirror(), 15)
    want = _plane_closed_form(15)
    for d, coeff in enumerate(got):
        if coeff != QPolynomial.of(want[d]):
            raise AssertionError(f"c_{d} = {coeff}, expected {want[d]}")
    return "plane mirror periods through order 15 match the multinomial closed form"


def check_valuation_deltas() -> str:
    checked = 0
    for n in range(2, 9):
        for k in range(1, n):
            ctx = BoxContext(k, n)
            for i in range(n):
                for j in range(n):
                    want = (1 if i == j else 0) - (1 if i == n - k else 0)
                    got = theta_valuation_delta(i, j, ctx)
                    if got != want:
                        raise AssertionError(
                            f"delta at k={k} n={n} i={i} j={j}: got {got}, expected {want}"
                        )
                    checked += 1
    return f"{checked} boundary valuation deltas match the Kronecker pattern for n <= 8"


def check_reflection_symmetry() -> str:
    pairs = 0
    for n in range(2, 7):
        for k in range(1, n):
            diagrams = all_diagrams(BoxContext(k, n))
            reflected = [sigma_reflect(mu) for mu in diagrams]
            for mu, mu_image in zip(diagrams, reflected):
                for lam, lam_image in zip(diagrams, reflected):
                    if max_diag(mu, lam) != max_diag(lam_image, mu_image):
                        raise AssertionError(
                            f"reflection mismatch at k={k} n={n} {mu.rows} {lam.rows}"
                        )
                    pairs += 1
    return f"diagonal statistic is reflection symmetric on {pairs} diagram pairs, n <= 6"


def check_flow_soundness() -> str:
    for k, n in ((2, 4), (2, 5)):
        ctx = BoxContext(k, n)
        empty = flow_polynomial(YoungDiagram(ctx, ()))
        if empty != LaurentPolynomial.one(empty.names):
            raise AssertionError(f"({k},{n}) empty flow is not 1")
        for diagram in all_diagrams(ctx):
            for e, coeff in flow_polynomial(diagram).terms.items():
                if coeff != QPolynomial.one():
                    raise AssertionError(
                        f"({k},{n}) flow of {diagram.rows} has coefficient {coeff} at {e}"
                    )

        def coordinate(west: set[int]) -> LaurentPolynomial:
            return flow_polynomial(from_steps(ctx, west))

        labels = range(1, n + 1)
        for quad in combinations(labels, 4):
            a, b, c, d = quad
            others = [v for v in labels if v not in quad]
            for extra in combinations(others, k - 2):
                s = set(extra)
                lhs = coordinate(s | {a, c}) * coordinate(s | {b, d})
                rhs = coordinate(s | {a, b}) * coordinate(s | {c, d}) + coordinate(
                    s | {a, d}
                ) * coordinate(s | {b, c})
                if lhs != rhs:
                    raise AssertionError(
                        f"({k},{n}) relation fails at {quad} over {sorted(s)}"
                    )
    return "short relations, unit coefficients, and the empty flow hold on (2,4) and (2,5)"


def check_valuation_realization() -> str:
    for k, n in ((2, 4), (2, 5), (3, 5)):
        mismatches = verify_valuations(BoxContext(k, n))
        if mismatches:
            raise AssertionError(f"({k},{n}) valuation mismatches: {mismatches[:3]}")
    return "valuation report is empty for (2,4), (2,5), and (3,5)"


def check_polytope_counts() -> str:
    system = nobody_polytope(BoxContext(2, 4))
    flags = geometry_flags(system)
    if not flags.bounded:
        raise AssertionError("polytope is unbounded")
    if not flags.full_dimensional:
        raise AssertionError("polytope is not full dimensional")
    if not flags.origin_interior:
        raise AssertionError("origin is not interior")
    for r in (1, 2):
        want = schur_dimension((4 * r, 4 * r), 4)
        got = lattice_point_count(system, r)
        if got != want:
            raise AssertionError(f"dilation {r} counts {got}, hook content gives {want}")
    return "dilations 1 and 2 count 105 and 825 points, matching hook content"


def check_grassmannian_period_shape() -> str:
    coeffs = grass_periods(BoxContext(2, 4), 12)
    if coeffs[4] != QPolynomial.of(48, 1):
        raise AssertionError(f"c_4 = {coeffs[4]}")
    for d, coeff in enumerate(coeffs):
        if d % 4 and not coeff.is_zero():
            raise AssertionError(f"c_{d} = {coeff} sits off the index-4 grading")
        for power, amount in coeff.items():
            if power * 4 != d:
                raise AssertionError(f"c_{d} carries q^{power}")
            if amount.denominator != 1 or amount < 0:
                raise AssertionError(f"c_{d} = {coeff} is not a non-negative integer")
    return "degree-12 period head is integral, non-negative, and on the index-4 grading"


def check_reconstruction_round_trip() -> str:
    periods = PeriodSequence.from_plain(_plane_closed_form(12), 3)
    series = theta_ladder(periods, 12)
    n1 = series[0]
    if not n1.tail_term(1).is_zero():
        raise AssertionError(f"a_1 = {n1.tail_term(1)}")
    if n1.tail_term(2) != QPolynomial.of(2, 1):
        raise AssertionError(f"a_2 = {n1.tail_term(2)}")
    for i in range(1, n1.valid_to + 1):
        if i % 3 != 2 and not n1.tail_term(i).is_zero():
            raise AssertionError(f"a_{i} = {n1.tail_term(i)}")
    read_back = periods_from_table(structure_table(series, 12))
    for d, coeff in enumerate(periods.coeffs):
        if read_back[d] != coeff:
            raise AssertionError(f"the table gives c_{d} = {read_back[d]}, expected {coeff}")
    return (
        "order-12 plane periods come back off the table of total 12; "
        "a_1 = 0, a_2 = 2q, grading vanishing holds"
    )


def check_associativity() -> str:
    trivial = PeriodSequence((QPolynomial.one(),) + (QPolynomial.zero(),) * 20)
    table6 = structure_table(theta_ladder(trivial, 6), 6)
    violations = associativity_check(table6)
    if violations:
        raise AssertionError(f"trivial table violates associativity: {violations[:2]}")
    table4 = structure_table(
        theta_ladder(PeriodSequence.from_plain(_plane_closed_form(12), 3), 4), 4
    )
    violations = associativity_check(table4)
    if violations:
        raise AssertionError(f"plane table violates associativity: {violations[:2]}")
    corrupted_entries = dict(table4.entries)
    corrupted_entries[(1, 2, 0)] = table4.entry(1, 2, 0) + QPolynomial.one()
    corrupted = StructureTable(4, corrupted_entries)
    if not associativity_check(corrupted):
        raise AssertionError("corrupted entry went unnoticed")
    return "trivial and plane tables associate exactly; a corrupted entry is caught"


_CHECKS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("plane period identity", check_period_identity),
    ("boundary valuation battery", check_valuation_deltas),
    ("reflection symmetry", check_reflection_symmetry),
    ("flow polynomial soundness", check_flow_soundness),
    ("valuation realization", check_valuation_realization),
    ("polytope lattice counts", check_polytope_counts),
    ("grassmannian period shape", check_grassmannian_period_shape),
    ("reconstruction round trip", check_reconstruction_round_trip),
    ("associativity", check_associativity),
)


def run_all() -> list[CheckResult]:
    results = []
    for name, fn in _CHECKS:
        start = time.perf_counter()
        try:
            detail = fn()
            passed = True
        except Exception as err:
            detail = str(err) or err.__class__.__name__
            passed = False
        results.append(
            CheckResult(name, passed, detail, time.perf_counter() - start)
        )
    return results
