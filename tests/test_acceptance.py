"""Acceptance gate: one test, and one printed pass/fail line, per criterion.

Each criterion delegates to the matching selfcheck battery function so
the shipped `fanoperiods selfcheck` command and this gate can never
drift apart; criteria with a time budget assert it here.  Criterion 9
is the exception: the residue route it compares the table against now
lives only in the tests, as the Fraction oracle of test_frobenius.  Run with -s
(or read the -v PASSED/FAILED rows) to see the per-criterion lines.
"""

from __future__ import annotations

import time

from test_frobenius import _residue_product_q_polynomials

from fanoperiods import selfcheck
from fanoperiods.cli import run
from fanoperiods.frobenius import structure_table, theta_ladder
from fanoperiods.periods import PeriodSequence


def _criterion(number, description, fn, limit_seconds=None):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"criterion {number:2d} FAIL {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} PASS {description} ({elapsed:.2f}s)")
    if limit_seconds is not None:
        assert elapsed < limit_seconds, (
            f"criterion {number} took {elapsed:.2f}s, over the {limit_seconds}s budget"
        )


def test_criterion_01_plane_period_identity():
    _criterion(
        1,
        "plane mirror periods match the multinomial closed form through order 15",
        selfcheck.check_period_identity,
        1.0,
    )


def test_criterion_02_boundary_valuation_battery():
    _criterion(
        2,
        "boundary valuation deltas match the Kronecker pattern for all n <= 8",
        selfcheck.check_valuation_deltas,
        5.0,
    )


def test_criterion_03_reflection_symmetry():
    _criterion(
        3,
        "diagonal statistic is reflection symmetric on every diagram pair, n <= 6",
        selfcheck.check_reflection_symmetry,
    )


def test_criterion_04_flow_polynomial_soundness():
    _criterion(
        4,
        "short relations, unit coefficients, and the empty flow on (2,4) and (2,5)",
        selfcheck.check_flow_soundness,
        30.0,
    )


def test_criterion_05_valuation_realization():
    _criterion(
        5,
        "valuation report is empty for (2,4), (2,5), and (3,5)",
        selfcheck.check_valuation_realization,
    )


def test_criterion_06_polytope_lattice_counts():
    _criterion(
        6,
        "dilations 1 and 2 of the (2,4) polytope count 105 and 825 points, "
        "matching hook content, with all geometry flags true",
        selfcheck.check_polytope_counts,
        60.0,
    )


def test_criterion_07_grassmannian_period_shape():
    _criterion(
        7,
        "(2,4) periods through degree 12 are integral, non-negative, "
        "and on the index-4 grading",
        selfcheck.check_grassmannian_period_shape,
    )


def test_criterion_08_reconstruction_round_trip():
    _criterion(
        8,
        "order-12 plane periods come back off the table of total 12; "
        "a_1 = 0, a_2 = 2q, grading vanishing",
        selfcheck.check_reconstruction_round_trip,
        1.0,
    )


def _two_route_consistency():
    plane = PeriodSequence.from_plain(selfcheck._plane_closed_form(18), 3)
    series = theta_ladder(plane, 6)
    table = structure_table(series, 6)
    for p in range(1, 6):
        for q in range(1, 7 - p):
            direct = _residue_product_q_polynomials([series[p - 1], series[q - 1]])
            assert direct == table.entry(p, q, 0), (
                f"residue route gives {direct} at ({p},{q}), "
                f"table has {table.entry(p, q, 0)}"
            )


def test_criterion_09_two_route_consistency():
    _criterion(
        9,
        "residue products equal the r = 0 table entries for p + q <= 6",
        _two_route_consistency,
    )


def test_criterion_10_associativity():
    _criterion(
        10,
        "trivial and plane tables associate exactly; a corrupted entry is caught",
        selfcheck.check_associativity,
    )


def test_criterion_11_selfcheck_command(capsys):
    start = time.perf_counter()
    code = run(["selfcheck"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    status = "PASS" if code == 0 and elapsed < 180 else "FAIL"
    print(
        f"criterion 11 {status} selfcheck subcommand exits 0 "
        f"in under 3 minutes ({elapsed:.2f}s)"
    )
    assert code == 0, captured.out
    assert "9/9 checks passed" in captured.out
    assert elapsed < 180, f"selfcheck took {elapsed:.2f}s"
