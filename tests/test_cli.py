"""End-to-end tests for the command line front door.

Subcommands run in process through `run`, which returns the exit code
the console script would produce; primary output is read back from
--out files or captured stdout.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fanoperiods
from fanoperiods import grassmannian, polytope
from fanoperiods.cli import CatalogEntry, _build_parser, _read_exact, catalog, main, run
from fanoperiods.frobenius import structure_table, theta_ladder
from fanoperiods.laurent import QPolynomial, classical_periods, laurent_to_json
from fanoperiods.periods import PeriodSequence, periods_from_json, periods_to_json
from fanoperiods.polytope import geometry_flags
from fanoperiods.young import schur_dimension
from test_laurent import _period_test_polys
from test_polytope import parse_document

P2_POLY = {
    "vars": ["x", "y"],
    "terms": [
        {"coeff": "1", "exp": [1, 0]},
        {"coeff": "1", "exp": [0, 1]},
        {"coeff": "1", "exp": [-1, -1]},
    ],
}


@pytest.fixture
def p2_poly_file(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(P2_POLY))
    return str(path)


@pytest.fixture
def p2_periods_file(tmp_path):
    values = [
        str(factorial(d) // factorial(d // 3) ** 3) if d % 3 == 0 else "0"
        for d in range(13)
    ]
    path = tmp_path / "p2-periods.json"
    path.write_text(json.dumps({"index": 3, "coeffs": values}))
    return str(path)


ROOT = Path(__file__).resolve().parents[1]


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_captured(argv):
    """run(argv) in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def run_python(*argv, **options):
    """Run a fresh interpreter with this package importable; `options`
    go to subprocess.run."""
    src = str(Path(fanoperiods.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, env=env, check=False, **options
    )


# stdout, stderr and exit code of help and usage-error calls, recorded when
# every call went through argparse, with the Python version and terminal width
USAGE_GOLDEN = read_json(ROOT / "tests" / "cli_usage_golden.json")


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["orbit"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run(["period"]) == 2
        capsys.readouterr()

    def test_unknown_emit_choice_is_usage_error(self, capsys):
        assert run(["grassmannian", "--k", "2", "--n", "4", "--emit", "poems"]) == 2
        capsys.readouterr()

    def test_non_numeric_order_is_usage_error(self, capsys):
        assert run(["grassmannian", "--k", "2", "--n", "4", "--order", "-3"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "subcommand" not in capsys.readouterr().err

    @pytest.mark.skipif(
        list(sys.version_info[:2]) != USAGE_GOLDEN["python"],
        reason="argparse words help and errors differently in other Python versions",
    )
    @pytest.mark.parametrize(
        "call",
        USAGE_GOLDEN["calls"],
        ids=[" ".join(c["argv"]) or "no-arguments" for c in USAGE_GOLDEN["calls"]],
    )
    def test_help_and_usage_errors_match_their_golden_bytes(self, call, monkeypatch):
        # captured before the exact reader existed, when argparse parsed every call
        monkeypatch.setenv("COLUMNS", str(USAGE_GOLDEN["columns"]))
        assert run_captured(call["argv"]) == (call["code"], call["stdout"], call["stderr"])

    def test_missing_input_file_is_domain_error(self, tmp_path, capsys):
        assert run(["period", "--poly", str(tmp_path / "absent.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("not json at all")
        assert run(["period", "--poly", str(path)]) == 1
        capsys.readouterr()

    def test_wrong_schema_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"vars": [], "terms": []}))
        assert run(["period", "--poly", str(path)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv", [["period", "--poly"], ["frobenius", "--periods"]]
    )
    def test_deeply_nested_json_is_domain_error(self, argv, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert run(argv + [str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nests too deeply" in captured.err

    def test_nested_term_record_is_named_not_echoed(self, tmp_path, capsys):
        nested = json.loads("[" * 900 + "]" * 900)
        path = tmp_path / "nested-term.json"
        path.write_text(json.dumps({"vars": ["x"], "terms": [nested]}))
        assert run(["period", "--poly", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: term record 0 is a list of size 1, not an object\n"
        )
        for bad in (
            {"exp": nested},
            {"exp": [1], "q": nested},
            {"exp": [1], "coeff": nested},
        ):
            path.write_text(json.dumps({"vars": ["x"], "terms": [bad]}))
            assert run(["period", "--poly", str(path)]) == 1
            err = capsys.readouterr().err
            assert "a list of size 1" in err and len(err) < 200, err
        periods = tmp_path / "nested-index.json"
        periods.write_text(json.dumps({"index": nested, "coeffs": ["1"]}))
        assert run(["frobenius", "--periods", str(periods)]) == 1
        assert capsys.readouterr().err == (
            'error: bad grading "index" a list of size 1\n'
        )

    @pytest.mark.parametrize("coeff", ["1e3", "1.5", "1_000", " 3"])
    def test_coefficient_outside_the_grammar_is_domain_error(
        self, coeff, tmp_path, capsys
    ):
        poly = tmp_path / "poly.json"
        terms = [{"coeff": coeff, "exp": [1]}, {"coeff": "1", "exp": [-1]}]
        poly.write_text(json.dumps({"vars": ["x"], "terms": terms}))
        assert run(["period", "--poly", str(poly), "--order", "2"]) == 1
        periods = tmp_path / "periods.json"
        periods.write_text(json.dumps({"index": 1, "coeffs": ["1", coeff]}))
        assert run(["frobenius", "--periods", str(periods), "--max-p", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("bad coefficient string") == 2

    # Each input holds one 5,000-digit integer; the text is written by hand,
    # since json.dumps cannot print such an int under the interpreter's limit.
    @pytest.mark.parametrize(
        "argv, text",
        [
            (["period", "--poly"], '{"vars": ["x"], "terms": [{"coeff": "%s", "exp": [1]}]}'),
            (["period", "--poly"], '{"vars": ["x"], "terms": [{"coeff": "1/%s", "exp": [1]}]}'),
            (["period", "--poly"], '{"vars": ["x"], "terms": [{"coeff": "1", "exp": [-%s]}]}'),
            (["frobenius", "--periods"], '{"index": 1, "coeffs": ["1", "%s"]}'),
            (["frobenius", "--periods"], '{"index": %s, "coeffs": ["1"]}'),
        ],
        ids=["numerator", "denominator", "exponent", "period", "index"],
    )
    def test_integer_over_the_digit_limit_is_domain_error(self, argv, text, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(text % ("1" + "0" * 4999))
        done = run_python("-m", "fanoperiods", *argv, str(path))
        assert done.returncode == 1
        assert done.stdout == b""
        err = done.stderr.decode()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert err.endswith("an input integer has 5000 digits; the limit is 4300\n")

    def test_run_restores_the_int_string_limit(self, p2_poly_file, tmp_path):
        limit = sys.get_int_max_str_digits()
        assert run_captured(["period", "--poly", p2_poly_file])[0] == 0
        assert sys.get_int_max_str_digits() == limit
        assert run_captured(["period", "--poly", str(tmp_path / "absent.json")])[0] == 1
        assert sys.get_int_max_str_digits() == limit

    def test_impossible_box_is_domain_error(self, capsys):
        assert run(["grassmannian", "--k", "4", "--n", "2"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("target", ["a directory", "a missing directory"])
    def test_unwritable_out_is_domain_error(self, target, p2_poly_file, tmp_path):
        out = tmp_path if target == "a directory" else tmp_path / "absent" / "p.json"
        done = run_python(
            "-m", "fanoperiods", "period", "--poly", p2_poly_file, "--out", str(out)
        )
        assert done.returncode == 1
        assert done.stdout == b""
        err = done.stderr.decode()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds the child on Linux"
    )
    def test_running_out_of_memory_is_domain_error(self, tmp_path, monkeypatch):
        import resource

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        # The P^8 mirror x_1 + ... + x_8 + 1/(x_1...x_8): W^k has
        # C(k + 8, 8) terms, about 4.9e7 at k = 30, far past the cap.
        # (The P^2 mirror at order 1000 needs only W^500 and W^499 at
        # once, which fit.)
        exps = [[int(i == j) for j in range(8)] for i in range(8)] + [[-1] * 8]
        terms = [{"coeff": "1", "exp": exp} for exp in exps]
        poly = tmp_path / "p8.json"
        poly.write_text(json.dumps({"vars": [f"x{i}" for i in range(8)], "terms": terms}))
        # With pymalloc, a failed arena falls back to malloc, which may live
        # on heap holes for minutes at the cap; plain malloc raises at the
        # first request that does not fit.
        monkeypatch.setenv("PYTHONMALLOC", "malloc")
        done = run_python(
            "-m", "fanoperiods", "period", "--poly", str(poly), "--order", "400",
            preexec_fn=cap_address_space, timeout=120,
        )
        assert done.returncode == 1
        assert done.stdout == b""
        assert done.stderr == b"error: the period request ran out of memory\n"


# one parser serves every comparison: parse_args leaves it unchanged
PARSER = _build_parser()


def _parsed_by_argparse(argv):
    """vars() of the namespace argparse builds for argv, or None on a usage
    error or help."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


def _benchmark_commands(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up while the module's classes are built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return [
        list(job.argv)
        for name in module.NAMES
        for job in module.build(name, 1, tmp_path / name)
    ]


def _all_orders(command, *pairs):
    return [
        [command, *itertools.chain.from_iterable(order)]
        for order in itertools.permutations(pairs)
    ]


CANONICAL_CALLS = [
    ["period", "--poly", "p.json"],
    ["polytope", "--poly", "p.json"],
    ["grassmannian", "--k", "2", "--n", "4"],
    ["frobenius", "--periods", "f.json"],
    ["catalog"],
    ["catalog", "p2"],
    ["catalog", ""],
    ["catalog", "p2", "--out", "o.json"],
    ["catalog", "--out", "o.json"],
    ["selfcheck"],
    ["selfcheck", "--out", "o.json"],
    *(
        [command, *required, "--q", q]
        for command, required in (
            ("period", ["--poly", "p.json"]),
            ("grassmannian", ["--k", "2", "--n", "4"]),
            ("frobenius", ["--periods", "f.json"]),
        )
        for q in ("keep", "one")
    ),
    *(
        ["grassmannian", "--k", "2", "--n", "4", "--emit", emit]
        for emit in ("superpotential", "polytope", "periods", "valuations")
    ),
    *(["frobenius", "--periods", "f.json", "--emit", emit] for emit in ("table", "series")),
    *(
        ["period", "--poly", "p.json", "--order", text]
        for text in ("0", "1", "+7", " 3", "0003", "1_0", "9" * 4300)
    ),
    ["polytope", "--poly", "p.json", "--order", "0"],
    ["grassmannian", "--k", "1", "--n", "1", "--order", "0"],
    ["frobenius", "--periods", "f.json", "--max-p", "1"],
    ["period", "--poly", "", "--out", ""],
    ["period", "--poly", "a=b", "--out", "o-p.json"],
    *_all_orders(
        "grassmannian",
        ("--k", "3"), ("--n", "6"), ("--emit", "periods"), ("--order", "5"),
        ("--q", "one"), ("--out", "o.json"),
    ),
    *_all_orders(
        "frobenius",
        ("--periods", "f.json"), ("--max-p", "3"), ("--emit", "series"), ("--q", "one"),
        ("--out", "o.json"),
    ),
    *_all_orders("period", ("--poly", "p.json"), ("--order", "9"), ("--q", "one")),
    *_all_orders("polytope", ("--poly", "p.json"), ("--order", "3"), ("--out", "o.json")),
]

# argv that the exact reader leaves to argparse: help, usage errors, and
# forms argparse accepts that are not canonical
OTHER_CALLS = [
    [],
    ["--help"],
    ["-h"],
    ["orbit"],
    ["period"],
    ["period", "--help"],
    ["period", "-h", "--poly", "p.json"],
    ["period", "--poly"],
    ["period", "--poly", "p.json", "--order=3"],
    ["period", "--poly=p.json"],
    ["period", "--pol", "p.json"],
    ["period", "--poly", "p.json", "--ord", "3"],
    ["period", "--poly", "p.json", "--o", "3"],
    ["period", "--poly", "a.json", "--poly", "b.json"],
    ["period", "--poly", "p.json", "--order", "3", "--order", "4"],
    ["period", "--poly", "-x"],
    ["period", "--poly", "p.json", "--order", "-3"],
    ["period", "--poly", "p.json", "--order", "x"],
    ["period", "--poly", "p.json", "--order", ""],
    ["period", "--poly", "p.json", "--order", "9" * 4301],
    ["period", "--poly", "p.json", "--q", "maybe"],
    ["period", "--poly", "p.json", "--", "x"],
    ["period", "extra", "--poly", "p.json"],
    ["period", "--poly", "p.json", "--k", "2"],
    ["grassmannian", "--k", "0", "--n", "4"],
    ["grassmannian", "--k", "2"],
    ["grassmannian", "--k", "2", "--n", "4", "--emit", "poems"],
    ["frobenius", "--periods", "f.json", "--max-p", "0"],
    ["frobenius", "--periods", "f.json", "--max_p", "3"],
    ["catalog", "--out", "o.json", "p2"],
    ["catalog", "p2", "p3"],
    ["catalog", "p2", "--out"],
    ["catalog", "-p2"],
    ["selfcheck", "extra"],
    ["selfcheck", "--order", "3"],
    ["Period", "--poly", "p.json"],
    ["--out", "o.json", "catalog"],
]


class TestExactReader:
    """`run` reads canonical argv without argparse; it must build the
    namespace argparse would, and leave every other argv to argparse."""

    def test_canonical_calls_give_argparses_namespace(self):
        for argv in CANONICAL_CALLS:
            read = _read_exact(argv)
            assert read is not None, argv
            assert vars(read) == _parsed_by_argparse(argv), argv

    def test_readme_and_benchmark_calls_give_argparses_namespace(self, tmp_path, monkeypatch):
        lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
        readme = [shlex.split(line)[1:] for line in lines if line.startswith("fanoperiods ")]
        benchmark = _benchmark_commands(tmp_path, monkeypatch)
        assert len(readme) >= 11 and len(benchmark) >= 30
        for argv in readme + benchmark:
            read = _read_exact(argv)
            assert read is not None, argv
            assert vars(read) == _parsed_by_argparse(argv), argv

    def test_other_calls_are_left_to_argparse(self):
        for argv in OTHER_CALLS:
            assert _read_exact(argv) is None, argv

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([
                "period", "polytope", "grassmannian", "frobenius", "catalog", "selfcheck",
                "--poly", "--order", "--q", "--out", "--k", "--n", "--emit", "--periods",
                "--max-p", "one", "keep", "table", "series", "periods", "polytope",
                "p2", "list", "0", "1", "3", "-1", "x", "", "--", "-h",
            ]),
            max_size=9,
        )
    )
    def test_any_argv_gives_none_or_argparses_namespace(self, argv):
        read = _read_exact(argv)
        if read is not None:
            assert vars(read) == _parsed_by_argparse(argv)


class TestPeriodSubcommand:
    def test_plane_example(self, p2_poly_file, tmp_path):
        out = tmp_path / "periods.json"
        assert run(
            ["period", "--poly", p2_poly_file, "--order", "9", "--out", str(out)]
        ) == 0
        data = read_json(out)
        assert data["index"] == 3
        assert data["coeffs"][3] == "6"
        assert data["coeffs"] == ["1", "0", "0", "6", "0", "0", "90", "0", "0", "1680"]

    def test_stdout_is_default(self, p2_poly_file, capsys):
        assert run(["period", "--poly", p2_poly_file, "--order", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["coeffs"] == ["1", "0", "0", "6"]

    def test_result_over_the_int_string_limit_prints(self, tmp_path):
        # c_45 of x + y + 10^300/(xy) is 45!/(15!)^3 * 10^4500: 4,520 digits
        terms = [
            {"coeff": "1", "exp": [1, 0]},
            {"coeff": "1", "exp": [0, 1]},
            {"coeff": "1" + "0" * 300, "exp": [-1, -1]},
        ]
        poly, out = tmp_path / "scaled.json", tmp_path / "periods.json"
        poly.write_text(json.dumps({"vars": ["x", "y"], "terms": terms}))
        argv = ["period", "--poly", str(poly), "--order", "45", "--out", str(out)]
        assert run(argv) == 0
        c45 = read_json(out)["coeffs"][45]
        assert c45 == str(factorial(45) // factorial(15) ** 3) + "0" * 4500

    def test_same_output_on_stdout_and_file(self, p2_poly_file, tmp_path, capsys):
        out = tmp_path / "periods.json"
        assert run(
            ["period", "--poly", p2_poly_file, "--order", "6", "--out", str(out)]
        ) == 0
        assert run(["period", "--poly", p2_poly_file, "--order", "6"]) == 0
        assert capsys.readouterr().out == out.read_text()


class TestPolytopeSubcommand:
    def test_plane_polar_triangle(self, p2_poly_file, tmp_path):
        out = tmp_path / "polytope.json"
        assert run(["polytope", "--poly", p2_poly_file, "--out", str(out)]) == 0
        data = read_json(out)
        assert data["dim"] == 2
        assert data["lattice_counts"] == {"1": 10, "2": 28}
        system, vertices, counts = parse_document(data)
        assert geometry_flags(system) == (True, True, True)
        assert set(vertices) == {
            (Fraction(-1), Fraction(-1)),
            (Fraction(2), Fraction(-1)),
            (Fraction(-1), Fraction(2)),
        }
        assert counts == {1: 10, 2: 28}

    def test_dilation_range_follows_order(self, p2_poly_file, capsys):
        assert run(["polytope", "--poly", p2_poly_file, "--order", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert sorted(data["lattice_counts"]) == ["1", "2", "3"]

    def test_unbounded_polar_is_domain_error(self, tmp_path, capsys):
        # x + y: the support spans only a quadrant, so the polar is unbounded
        terms = [{"coeff": "1", "exp": [1, 0]}, {"coeff": "1", "exp": [0, 1]}]
        path = tmp_path / "quadrant.json"
        path.write_text(json.dumps({"vars": ["x", "y"], "terms": terms}))
        assert run(["polytope", "--poly", str(path), "--order", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "polar polytope is unbounded" in captured.err
        assert run(["polytope", "--poly", str(path), "--order", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["lattice_counts"] == {}

    @pytest.mark.parametrize("order", ["100000000", str(10**20)])
    def test_order_above_the_walk_limit_is_refused_at_once(self, p2_poly_file, order):
        # one node per count at the least, so no such document fits the limit
        start = time.perf_counter()
        code, out, err = run_captured(["polytope", "--poly", p2_poly_file, "--order", order])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert f"--order {order} is above {polytope.MAX_WALK_NODES}" in err

    def test_a_two_level_walk_past_the_limit_is_refused_before_counting(self, p2_poly_file):
        # the walk of a planar polar makes one call at its root and one per
        # value of the first coordinate, so the dilation that passes the
        # limit is known before any count; walking up to it takes 15-25 s
        start = time.perf_counter()
        code, out, err = run_captured(["polytope", "--poly", p2_poly_file, "--order", "3000"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (
            "error: lattice count at dilation 2581 brings the walk past the limit "
            "of 10000000 nodes\n"
        )


class TestGrassmannianSubcommand:
    def test_polytope_example_passes_geometry_flags(self, tmp_path):
        out = tmp_path / "gr24.json"
        assert run(
            ["grassmannian", "--k", "2", "--n", "4", "--emit", "polytope", "--out", str(out)]
        ) == 0
        data = read_json(out)
        system, _, counts = parse_document(data)
        assert data["dim"] == 4
        assert geometry_flags(system) == (True, True, True)
        assert counts == {1: 105}

    def test_superpotential_carries_one_novikov_term(self, capsys):
        assert run(["grassmannian", "--k", "2", "--n", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["vars"] == ["x0", "x11", "x12", "x21"]
        assert len(data["terms"]) == 6
        novikov = [t for t in data["terms"] if t["q"] == 1]
        assert [t["exp"] for t in novikov] == [[-1, -1, -1, -1]]

    def test_superpotential_q_one_drops_the_decoration(self, capsys):
        assert run(["grassmannian", "--k", "2", "--n", "4", "--q", "one"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert {t["q"] for t in data["terms"]} == {0}

    def test_periods_use_default_order_eight(self, capsys):
        assert run(["grassmannian", "--k", "2", "--n", "4", "--emit", "periods"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["index"] == 4
        assert len(data["coeffs"]) == 9
        assert data["coeffs"][4] == "48"
        assert data["coeffs"][8] == "15120"

    def test_valuation_report_is_empty(self, capsys):
        assert run(
            ["grassmannian", "--k", "2", "--n", "5", "--emit", "valuations"]
        ) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_lattice_walk_past_the_limit_exits_one(self, monkeypatch, capsys):
        # the Gr(2,5) count at dilation 1 walks 421 nodes
        monkeypatch.setattr(polytope, "MAX_WALK_NODES", 400)
        argv = ["grassmannian", "--k", "2", "--n", "5", "--emit", "polytope", "--order", "1"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dilation 1" in captured.err
        assert "limit of 400 nodes" in captured.err

    def test_lattice_memo_past_the_state_limit_exits_one(self, monkeypatch, capsys):
        # the Gr(2,5) count at dilation 1 stores 155 memo states
        monkeypatch.setattr(polytope, "MAX_MEMO_STATES", 150)
        argv = ["grassmannian", "--k", "2", "--n", "5", "--emit", "polytope", "--order", "1"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: lattice count at dilation 1 stores more walk states than "
            "the limit of 150\n"
        )

    def test_projective_space_of_dimension_nineteen_is_counted(self):
        # Gr(1,20) = P^19: C(39, 19) points at dilation 1, in a few thousand
        # memoized walk nodes
        argv = ["grassmannian", "--k", "1", "--n", "20", "--emit", "polytope", "--order", "1"]
        code, out, err = run_captured(argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["lattice_counts"] == {"1": 68923264410}

    def test_grassmannian_four_eight_polytope_is_counted(self):
        # C(26, 16) facet subsets refused this chart before vertices came
        # from double description; it has C(8, 4) = 70 vertices
        argv = ["grassmannian", "--k", "4", "--n", "8", "--emit", "polytope", "--order", "1"]
        code, out, err = run_captured(argv)
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert len(data["vertices"]) == 70
        assert data["lattice_counts"] == {"1": schur_dimension((8,) * 4, 8)}
        assert schur_dimension((8,) * 4, 8) == 184_225_041

    @pytest.mark.parametrize(
        "k, n, paths", [(12, 24, 705_432), (30, 60, 30_067_266_499_541_040)]
    )
    @pytest.mark.parametrize("emit", ["superpotential", "polytope", "periods", "valuations"])
    def test_box_above_the_path_limit_is_refused_at_once(self, k, n, paths, emit):
        # C(n-2, k-1) paths join the top source to the west sink
        argv = ["grassmannian", "--k", str(k), "--n", str(n), "--emit", emit]
        start = time.perf_counter()
        code, out, err = run_captured(argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (
            f"error: Gr({k},{n}) has {paths} paths from one source to one sink, "
            f"above the limit of {grassmannian.MAX_SINGLE_PATHS}\n"
        )

    @pytest.mark.parametrize("k, n, cells", [(1, 5000, 4999), (2, 2000, 3996)])
    @pytest.mark.parametrize("emit", ["superpotential", "polytope", "periods", "valuations"])
    def test_box_above_the_cell_limit_is_refused_at_once(self, k, n, cells, emit):
        # one path joins each source to each sink of Gr(1,n), so the path
        # limit passes every P^(n-1); the chart grows as the square of k(n-k)
        argv = ["grassmannian", "--k", str(k), "--n", str(n), "--emit", emit]
        start = time.perf_counter()
        code, out, err = run_captured(argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (
            f"error: Gr({k},{n}) has {cells} cells, "
            f"above the limit of {grassmannian.MAX_CELLS}\n"
        )

    @pytest.mark.parametrize(
        "k, n, families", [(7, 14, 653450), (10, 20, 321113), (2, 502, 32127)]
    )
    def test_valuation_report_above_the_family_limit_is_refused_at_once(self, k, n, families):
        # both box limits admit these; the families are counted, not walked,
        # and the count stops at the first partial sum past the limit
        argv = ["grassmannian", "--k", str(k), "--n", str(n), "--emit", "valuations"]
        start = time.perf_counter()
        code, out, err = run_captured(argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        cells = k * (n - k)
        assert err == (
            f"error: Gr({k},{n}) has at least {families} path families of {cells} "
            f"exponents each, {families * cells} in all, "
            f"above the limit of {grassmannian.MAX_FAMILY_ENTRIES}\n"
        )

    @pytest.mark.parametrize("order", ["100000000", str(10**20)])
    def test_order_above_the_walk_limit_is_refused_at_once(self, order):
        argv = ["grassmannian", "--k", "2", "--n", "4", "--emit", "polytope", "--order", order]
        start = time.perf_counter()
        code, out, err = run_captured(argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert f"--order {order} is above {polytope.MAX_WALK_NODES}" in err


class TestFrobeniusSubcommand:
    def test_table_example_record(self, p2_periods_file, tmp_path):
        out = tmp_path / "table.json"
        assert run(
            [
                "frobenius",
                "--periods",
                p2_periods_file,
                "--max-p",
                "4",
                "--emit",
                "table",
                "--out",
                str(out),
            ]
        ) == 0
        records = read_json(out)
        by_key = {(r["p"], r["q"], r["r"]): r["value"] for r in records}
        assert by_key[(1, 1, 0)] == "0"
        assert by_key[(1, 2, 0)] == "6q"
        assert by_key[(2, 2, 1)] == "8q"
        assert by_key[(1, 1, 2)] == "1"

    def test_table_q_one_specializes_values(self, p2_periods_file, capsys):
        assert run(
            ["frobenius", "--periods", p2_periods_file, "--q", "one"]
        ) == 0
        records = json.loads(capsys.readouterr().out)
        by_key = {(r["p"], r["q"], r["r"]): r["value"] for r in records}
        assert by_key[(1, 2, 0)] == "6"

    def test_series_emit(self, p2_periods_file, capsys):
        assert run(
            ["frobenius", "--periods", p2_periods_file, "--max-p", "2", "--emit", "series"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert [item["p"] for item in data] == [1, 2]
        first = data[0]
        assert first["valid_to"] == 11
        assert first["tail"][0] == {"i": 2, "value": "2q"}
        second = data[1]
        assert {"i": 1, "value": "4q"} in second["tail"]

    def test_short_input_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"index": 3, "coeffs": ["1", "0", "0", "6"]}))
        assert run(["frobenius", "--periods", str(path), "--max-p", "4"]) == 1
        capsys.readouterr()

    def test_max_p_beyond_the_input_order_names_the_order(self, tmp_path, capsys):
        values = [
            str(factorial(d) // factorial(d // 3) ** 3) if d % 3 == 0 else "0"
            for d in range(7)
        ]
        path = tmp_path / "order6.json"
        path.write_text(json.dumps({"index": 3, "coeffs": values}))
        assert run(["frobenius", "--periods", str(path), "--max-p", "6"]) == 0
        capsys.readouterr()
        assert run(["frobenius", "--periods", str(path), "--max-p", "7"]) == 1
        assert capsys.readouterr().err == (
            "error: N_7 needs a period sequence of order at least 7; "
            "this one has order 6\n"
        )

    def test_off_grading_input_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "off.json"
        path.write_text(json.dumps({"index": 3, "coeffs": ["1", "0", "5"]}))
        assert run(["frobenius", "--periods", str(path)]) == 1
        capsys.readouterr()


class TestCatalog:
    def test_lookup_returns_entries(self):
        entry = catalog("p2")
        assert isinstance(entry, CatalogEntry)
        assert sorted(entry.mirror.terms) == [(-1, -1), (0, 1), (1, 0)]
        assert catalog("p1").fano_index == 2

    def test_listing_has_at_least_four_entries(self):
        assert len(catalog("list")) >= 4

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            catalog("p4")

    def test_every_entry_passes_its_regression_head(self):
        for entry in catalog("list"):
            for coeff in entry.mirror.terms.values():
                ((power, value),) = coeff.items()
                assert power == 0
                assert value.denominator == 1 and value > 0
            computed = classical_periods(entry.mirror, 6)
            assert len(entry.period_head) == 7
            for d, stored in enumerate(entry.period_head):
                value = Fraction(stored)
                assert computed[d] == QPolynomial.of(value), (entry.name, d)
                assert value.denominator == 1 and value >= 0
                if value and entry.fano_index:
                    assert d % entry.fano_index == 0, (entry.name, d)

    def test_cli_listing(self, capsys):
        assert run(["catalog"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in data] == ["p1", "p2", "p1xp1", "p3"]

    def test_cli_entry_document(self, tmp_path):
        out = tmp_path / "p2.json"
        assert run(["catalog", "p2", "--out", str(out)]) == 0
        data = read_json(out)
        assert data["fano_index"] == 3
        assert data["period_head"][3] == "6"
        assert data["mirror"]["vars"] == ["x", "y"]

    def test_cli_unknown_name_is_domain_error(self, capsys):
        assert run(["catalog", "p4"]) == 1
        capsys.readouterr()


def _graded(index: int, closed_form, order: int) -> list[str]:
    """Period strings c_0..c_order: closed_form(d / index) on the grading."""
    return [
        str(closed_form(d // index)) if d % index == 0 else "0" for d in range(order + 1)
    ]


# Several q-powers at one exponent, fractional and negative coefficients.
MIXED_Q_POLY = {
    "vars": ["x", "y"],
    "terms": [
        {"coeff": "1", "q": 0, "exp": [1, 0]},
        {"coeff": "3", "q": 1, "exp": [1, 0]},
        {"coeff": "2/3", "q": 1, "exp": [0, 1]},
        {"coeff": "-1/2", "q": 2, "exp": [-1, -1]},
        {"coeff": "5", "q": 0, "exp": [-1, 0]},
        {"coeff": "-5", "q": 1, "exp": [-1, 0]},
    ],
}

# Each term carries q^(1 + e_x + e_y), so every c_d sits at q^d and the
# q-kept periods have a period-file form; exponents reach 3 in size.
MIXED_Q_WIDE_POLY = {
    "vars": ["x", "y"],
    "terms": [
        {"coeff": "2", "q": 2, "exp": [2, -1]},
        {"coeff": "1", "q": 0, "exp": [-1, 0]},
        {"coeff": "1/3", "q": 0, "exp": [-3, 2]},
        {"coeff": "-1/2", "q": 3, "exp": [1, 1]},
        {"coeff": "1", "q": 0, "exp": [1, -2]},
    ],
}

# Fractional and negative periods, with zeros inside the sequence.
FRACTIONAL_PERIODS = ["1", "0", "1/2", "-3", "5/7", "0", "2", "-1/3", "4"]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog", "p3"],
            ["grassmannian", "--k", "2", "--n", "4", "--emit", "superpotential"],
            ["grassmannian", "--k", "2", "--n", "4", "--emit", "polytope"],
        ],
    )
    def test_repeated_runs_are_byte_identical(self, argv, capsys):
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first

    def test_table_q_one_is_the_table_specialized_entrywise(
        self, p2_periods_file, capsys
    ):
        assert run(["frobenius", "--periods", p2_periods_file, "--q", "one"]) == 0
        printed = capsys.readouterr().out
        series = theta_ladder(periods_from_json(read_json(p2_periods_file)), 4)
        table = structure_table(series, 4)
        expected = [
            {"p": p, "q": q, "r": r, "value": str(table.entry(p, q, r).specialize_q(1))}
            for p in range(5)
            for q in range(5 - p)
            for r in range(p + q + 1)
        ]
        assert printed == json.dumps(expected, indent=2) + "\n"

    @settings(deadline=None, max_examples=60)
    @given(f=_period_test_polys(), order=st.integers(0, 6))
    def test_period_q_one_is_the_q_kept_periods_specialized(
        self, f, order, tmp_path_factory
    ):
        path = tmp_path_factory.getbasetemp() / "q-one-mirror.json"
        path.write_text(json.dumps(laurent_to_json(f)))
        argv = ["period", "--poly", str(path), "--order", str(order), "--q", "one"]
        code, printed, _ = run_captured(argv)
        assert code == 0
        specialized = [QPolynomial.of(c.specialize_q(1)) for c in classical_periods(f, order)]
        assert json.loads(printed) == periods_to_json(PeriodSequence(specialized))

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_frobenius_q_one_is_the_q_kept_ladder_specialized(
        self, data, tmp_path_factory
    ):
        index = data.draw(st.integers(1, 4), label="index")
        order = data.draw(st.integers(1, 10), label="order")
        amount = st.fractions(
            min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
        )
        values = [Fraction(1)] + [
            data.draw(amount) if d % index == 0 else Fraction(0)
            for d in range(1, order + 1)
        ]
        max_p = data.draw(st.integers(1, order), label="max_p")
        emit = data.draw(st.sampled_from(["table", "series"]), label="emit")
        path = tmp_path_factory.getbasetemp() / "q-one-periods.json"
        path.write_text(json.dumps({"index": index, "coeffs": list(map(str, values))}))
        argv = ["frobenius", "--periods", str(path), "--max-p", str(max_p)]
        code, printed, err = run_captured(argv + ["--emit", emit, "--q", "one"])
        try:
            series = theta_ladder(PeriodSequence.from_plain(values, index), max_p)
        except ValueError as refusal:
            # c_1 != 0 and the like: the q-kept ladder's refusal, word for word
            assert (code, printed, err) == (1, "", f"error: {refusal}\n")
            return
        assert code == 0
        if emit == "series":
            expected = [
                {
                    "p": n.p,
                    "valid_to": n.valid_to,
                    "tail": [
                        {"i": i, "value": str(c.specialize_q(1))}
                        for i, c in sorted(n.tail.items())
                    ],
                }
                for n in series
            ]
        else:
            table = structure_table(series, max_p)
            expected = [
                {"p": p, "q": q, "r": r, "value": str(table.entry(p, q, r).specialize_q(1))}
                for p in range(max_p + 1)
                for q in range(max_p + 1 - p)
                for r in range(p + q + 1)
            ]
        assert json.loads(printed) == expected

    # sha256 of stdout recorded while --q one still specialized the outputs
    # rather than the input; the mirror's x^-1 coefficient 5 - 5q vanishes at
    # q = 1, and its other q-powers give c_d that mix Novikov powers.
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["period", "--poly", "MIXED_Q", "--order", "9", "--q", "one"],
                "73235ad07a9d050091c863f2474c91282a3ed3d37a666b7d957d67fcaef93415",
            ),
            (
                ["grassmannian", "--k", "2", "--n", "5", "--emit", "periods", "--q", "one"],
                "49688ccc371a0257b0569bdc976843ffd70be73b991f8aa430cc3212a0adc6f4",
            ),
            (
                ["grassmannian", "--k", "2", "--n", "5", "--emit", "superpotential",
                 "--q", "one"],
                "2e343cd8899c6a76b57d74e809750f1f51860e097d7d50437bb55732b5c2edff",
            ),
        ],
        ids=["mixed-q-periods", "gr25-periods", "gr25-superpotential"],
    )
    def test_q_one_output_is_frozen(self, argv, digest, tmp_path, capsys):
        path = tmp_path / "mixed-q.json"
        path.write_text(json.dumps(MIXED_Q_POLY))
        assert run([str(path) if a == "MIXED_Q" else a for a in argv]) == 0
        printed = capsys.readouterr().out.encode()
        assert hashlib.sha256(printed).hexdigest() == digest

    # sha256 of stdout recorded while the period engine keyed each term by
    # a tuple (exponent vector, q-power).  At order 18 the wide mirror's
    # powers reach exponents 27 and q^27, the limits of its packed digits.
    # Each run has a time budget: Gr(2,6) at order 18 took about 1.8 s with
    # tuple keys and takes about 0.5 s with packed ones.
    @pytest.mark.parametrize(
        "argv, digest, budget",
        [
            (
                ["grassmannian", "--k", "2", "--n", "6", "--emit", "periods",
                 "--order", "18"],
                "345b2bbd17959d29b936adb28473a042f12daae2874b32529bbe3b07cde608a6",
                1.5,
            ),
            (
                ["period", "--poly", "MIXED_Q_WIDE", "--order", "18"],
                "140d269608309c315f429f82f4d400d4fd86d5951e3dc9088ec18f65fe3a1e5d",
                1.0,
            ),
        ],
        ids=["gr26-periods-18", "mixed-q-wide-periods-18"],
    )
    def test_period_output_is_frozen(self, argv, digest, budget, tmp_path, capsys):
        path = tmp_path / "mixed-q-wide.json"
        path.write_text(json.dumps(MIXED_Q_WIDE_POLY))
        start = time.perf_counter()
        assert run([str(path) if a == "MIXED_Q_WIDE" else a for a in argv]) == 0
        elapsed = time.perf_counter() - start
        printed = capsys.readouterr().out.encode()
        assert hashlib.sha256(printed).hexdigest() == digest
        assert elapsed < budget, f"took {elapsed:.2f}s, over the {budget}s budget"

    # sha256 of stdout: the p2 and gr24 cases recorded from the
    # residue-expansion engine that preceded the power recurrence in
    # reconstruct_N1, the fractional cases before the theta ladder
    # dropped its exact (unwindowed) series.  max-p 8 on the order-8
    # fractional file is the tightest window the CLI accepts.
    @pytest.mark.parametrize(
        "index, values, argv, digest",
        [
            (
                3,
                _graded(3, lambda m: factorial(3 * m) // factorial(m) ** 3, 30),
                ["--max-p", "12", "--emit", "table"],
                "32ad56ccaba0eec32858166f933229a56564926b786e197b293f212ef17209f7",
            ),
            (
                4,
                _graded(
                    4,
                    lambda m: factorial(4 * m) * factorial(2 * m) // factorial(m) ** 6,
                    24,
                ),
                ["--max-p", "8", "--emit", "series"],
                "366c627aa5e7054f309bbbf441118675ef6b8475880c678e6a683b2e11b6b566",
            ),
            (
                1,
                FRACTIONAL_PERIODS,
                ["--max-p", "8", "--emit", "table"],
                "c6b9b75159493f6c37ce16392eda04ba481f876e8fbeb18914fc61ddc4d15002",
            ),
            (
                1,
                FRACTIONAL_PERIODS,
                ["--max-p", "8", "--emit", "series", "--q", "one"],
                "ef9bf3a323ecec5d74606016f39dea2b894a15eae3ace3118a79cd1942cd725e",
            ),
            (
                1,
                FRACTIONAL_PERIODS,
                ["--max-p", "5", "--emit", "table", "--q", "one"],
                "8ad39d8e46b4b3602b0a5b46303fbe758e91f55cdfa7b75d7595fed320aa399d",
            ),
        ],
        ids=[
            "p2-table",
            "gr24-series",
            "fractional-table",
            "fractional-series-q-one",
            "fractional-table-q-one",
        ],
    )
    def test_frobenius_output_is_frozen(
        self, index, values, argv, digest, tmp_path, capsys
    ):
        path = tmp_path / "periods.json"
        path.write_text(json.dumps({"index": index, "coeffs": values}))
        assert run(["frobenius", "--periods", str(path)] + argv) == 0
        printed = capsys.readouterr().out.encode()
        assert hashlib.sha256(printed).hexdigest() == digest

    # sha256 of stdout recorded while structure_table computed every key
    # (p, q, r) on its own and table_records read each through entry():
    # 10,416 records in 678,052 bytes, about 0.17 s for the whole process.
    def test_frobenius_table_at_max_p_30_is_frozen(self, tmp_path, capsys):
        path = tmp_path / "periods.json"
        values = _graded(3, lambda m: factorial(3 * m) // factorial(m) ** 3, 60)
        path.write_text(json.dumps({"index": 3, "coeffs": values}))
        start = time.perf_counter()
        assert run(["frobenius", "--periods", str(path), "--max-p", "30"]) == 0
        elapsed = time.perf_counter() - start
        printed = capsys.readouterr().out.encode()
        assert len(printed) == 678_052
        assert hashlib.sha256(printed).hexdigest() == (
            "caf435799e7d651352cb8eeb88132aacd3f4cf8b8440ab923ee5355d18e294ff"
        )
        assert elapsed < 1.0, f"took {elapsed:.2f}s, over the 1.0s budget"

    # sha256 of stdout recorded before the flow sum dropped the sink
    # permutations and vertex enumeration moved to a single elimination.
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--k", "4", "--n", "8", "--emit", "superpotential"],
                "aa3c6caadb6c579c2946dfff302c7ac6c1383658164003ecf6c271a699c20af7",
            ),
            (
                ["--k", "2", "--n", "5", "--emit", "polytope", "--order", "2"],
                "d564a11997072b452eacd0838b7ed99d5d09b9557bf55c7cb429022bbe7ddee5",
            ),
            (
                ["--k", "2", "--n", "6", "--emit", "polytope", "--order", "1"],
                "21ecb27cb3a8580a2d25b695fa592d1d8c85979b2a0e2d157a7d003dc48c405f",
            ),
            # recorded while vertex enumeration still solved every subset
            # over Fractions
            (
                ["--k", "3", "--n", "6", "--emit", "polytope", "--order", "0"],
                "63c7ac8ae064a035b5fb8d35949ef4c01cb94c0503761b30765982e4c686426b",
            ),
            # recorded while each summand was a quotient of two enumerated
            # flows: Gr(10,20) took 8.6 s and 533 MB as a whole process
            (
                ["--k", "7", "--n", "14"],
                "b0e5467723fe34fff9590e2f0555c9fe7df32cb6df4c5d8b10189ff6755d925b",
            ),
            (
                ["--k", "10", "--n", "20"],
                "e1c8c2289ca0569434709902fbebc90c8b2a26797fa0959260f3591bd43cf4d7",
            ),
        ],
        ids=[
            "gr48-superpotential",
            "gr25-polytope",
            "gr26-polytope",
            "gr36-polytope",
            "gr714-superpotential",
            "gr1020-superpotential",
        ],
    )
    def test_grassmannian_output_is_frozen(self, argv, digest, capsys):
        assert run(["grassmannian"] + argv) == 0
        printed = capsys.readouterr().out.encode()
        assert hashlib.sha256(printed).hexdigest() == digest

    # sha256 of stdout re-recorded when the periods came back off the table
    # in one check instead of through two residue-product checks; the
    # detail lines carry the battery's counts (1092 deltas, 1262 pairs),
    # so this pins coverage as well as verdicts.  Timings go to stderr.
    def test_selfcheck_output_is_frozen(self, capsys):
        assert run(["selfcheck"]) == 0
        printed = capsys.readouterr().out.encode()
        assert hashlib.sha256(printed).hexdigest() == (
            "712c6eb47cef7415e8c082c64b496b66ea9c0ff58e6329b96b4e296c4324fe06"
        )

    def test_file_and_rerun_identical(self, p2_poly_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["period", "--poly", p2_poly_file, "--order", "8"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestModuleEntryPoint:
    def test_python_m_matches_main(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["fanoperiods", "catalog", "list"])
        with pytest.raises(SystemExit) as stop:
            main()
        assert stop.value.code == 0
        expected = capsys.readouterr().out.encode()
        done = run_python("-m", "fanoperiods", "catalog", "list")
        assert done.returncode == 0
        assert done.stdout == expected

    def test_import_leaves_out_dataclasses_and_inspect(self):
        # Each CLI call pays for every module its subcommand loads; these two
        # (with ast, dis and tokenize behind them) would cost about 20 ms a
        # call.  Reading selfcheck.run_all loads every library module, as the
        # selfcheck subcommand does.
        done = run_python(
            "-c",
            "import sys, fanoperiods.cli; fanoperiods.cli.selfcheck.run_all; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == b"[]\n"


LIBRARY_MODULES = (
    "laurent", "periods", "polytope", "young", "frobenius", "grassmannian", "selfcheck",
)

# Runs argv through cli.run in this fresh interpreter (none for a bare import)
# and prints the exit code and the library modules that have been loaded: a
# module that LazyLoader registered but nothing has read is not yet a plain
# ModuleType, and type() does not load it.
LOADED_MODULES_SCRIPT = f"""
import contextlib, io, json, sys, types
import fanoperiods.cli
argv = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = fanoperiods.cli.run(argv) if argv else None
print(json.dumps([code, [
    name for name in {LIBRARY_MODULES!r}
    if type(sys.modules["fanoperiods." + name]) is types.ModuleType
]]))
"""

GRASSMANNIAN_MODULES = ["laurent", "young", "grassmannian"]


class TestLazyModules:
    @pytest.mark.parametrize(
        "argv, code, loaded",
        [
            ([], None, ["laurent"]),
            (["nosuchcommand"], 2, ["laurent"]),
            (["period", "--order", "x", "--poly", "absent.json"], 2, ["laurent"]),
            (["catalog"], 0, ["laurent"]),
            (["period", "--poly", "{poly}"], 0, ["laurent", "periods"]),
            (["polytope", "--poly", "{poly}"], 0, ["laurent", "polytope"]),
            (["frobenius", "--periods", "{periods}"], 0, ["laurent", "periods", "frobenius"]),
            (["grassmannian", "--k", "2", "--n", "4"], 0, GRASSMANNIAN_MODULES),
            (
                ["grassmannian", "--k", "2", "--n", "4", "--emit", "polytope"],
                0,
                ["laurent", "polytope", "young", "grassmannian"],
            ),
            (
                ["grassmannian", "--k", "2", "--n", "4", "--emit", "valuations"],
                0,
                GRASSMANNIAN_MODULES,
            ),
            (
                ["grassmannian", "--k", "2", "--n", "4", "--emit", "periods"],
                0,
                ["laurent", "periods", "young", "grassmannian"],
            ),
            (["selfcheck"], 0, list(LIBRARY_MODULES)),
        ],
        ids=[
            "import", "unknown-command", "bad-flag-value", "catalog", "period",
            "polytope", "frobenius", "grassmannian", "grassmannian-polytope",
            "grassmannian-valuations", "grassmannian-periods", "selfcheck",
        ],
    )
    def test_call_loads_only_what_its_subcommand_reaches(
        self, argv, code, loaded, p2_poly_file, p2_periods_file
    ):
        argv = [arg.format(poly=p2_poly_file, periods=p2_periods_file) for arg in argv]
        done = run_python("-c", LOADED_MODULES_SCRIPT, *argv)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [code, loaded]


# Runs argv through cli.run in this fresh interpreter and prints the exit
# code, which of argparse and the two modules it imports (gettext, locale)
# are loaded, and the first line of stdout and the last line of stderr.
ARGPARSE_SCRIPT = """
import contextlib, io, json, sys
import fanoperiods.cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = fanoperiods.cli.run(sys.argv[1:])
loaded = sorted({"argparse", "gettext", "locale"} & set(sys.modules))
print(json.dumps([code, loaded, out.getvalue().partition("\\n")[0],
                  err.getvalue().rstrip("\\n").rpartition("\\n")[2]]))
"""


class TestArgparseLoadsOnlyForHelpAndErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["period", "--poly", "{poly}", "--order", "4"],
            ["polytope", "--poly", "{poly}"],
            ["grassmannian", "--k", "2", "--n", "4", "--emit", "valuations"],
            ["frobenius", "--periods", "{periods}", "--max-p", "2", "--q", "one"],
            ["catalog", "p2"],
            ["selfcheck", "--out", "{out}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_well_formed_call_loads_none_of_them(
        self, argv, p2_poly_file, p2_periods_file, tmp_path
    ):
        out = str(tmp_path / "out.txt")
        argv = [arg.format(poly=p2_poly_file, periods=p2_periods_file, out=out) for arg in argv]
        done = run_python("-c", ARGPARSE_SCRIPT, *argv)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)[:2] == [0, []]

    def test_help_loads_argparse_and_prints_usage(self):
        done = run_python("-c", ARGPARSE_SCRIPT, "grassmannian", "--help")
        code, loaded, first_out, _ = json.loads(done.stdout)
        assert code == 0 and first_out.startswith("usage: fanoperiods grassmannian")
        assert "argparse" in loaded

    def test_usage_error_loads_argparse_and_names_the_flag(self):
        done = run_python("-c", ARGPARSE_SCRIPT, "grassmannian", "--k", "0", "--n", "4")
        code, loaded, _, last_err = json.loads(done.stdout)
        assert code == 2 and "argparse" in loaded
        assert last_err == (
            "fanoperiods grassmannian: error: argument --k: "
            "expected a positive integer, got '0'"
        )


class TestBenchTracer:
    def test_traced_call_exits_zero_and_records_polytope_spans(self, tmp_path):
        # the tracer wraps every module it names right after importing the
        # CLI, so this fails if one of them stops being registered in
        # sys.modules
        tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
        spans_file = tmp_path / "spans.json"
        done = run_python(
            str(tracer), str(spans_file), "0",
            "grassmannian", "--k", "2", "--n", "4", "--emit", "polytope", "--order", "1",
        )
        assert done.returncode == 0, done.stderr
        names = {span[2] for span in read_json(spans_file)["spans"]}
        assert {"polytope.vertices", "polytope.lattice_point_count"} <= names

    @pytest.mark.parametrize(
        "argv, span",
        [
            (["catalog", "p2"], "cli.emit"),
            (["grassmannian", "--k", "0", "--n", "4"], "cli.parse"),
        ],
        ids=["well-formed", "usage-error"],
    )
    def test_traced_call_prints_what_an_untraced_call_prints(self, argv, span, tmp_path):
        # the tracer wraps cli._emit and cli._build_parser by name: a well-formed
        # call reaches the writer, a usage error the argparse fallback
        tracer = ROOT / "bench" / "tracer.py"
        spans_file = tmp_path / "spans.json"
        traced = run_python(str(tracer), str(spans_file), "7", *argv)
        untraced = run_python("-m", "fanoperiods", *argv)
        assert (traced.returncode, traced.stdout) == (untraced.returncode, untraced.stdout)
        assert traced.stderr == untraced.stderr
        spans = read_json(spans_file)
        assert spans["job"] == "7"
        assert span in {s[2] for s in spans["spans"]}


class TestSelfcheckSubcommand:
    def test_exit_zero_with_one_line_per_check(self, capsys):
        assert run(["selfcheck"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 10
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert lines[-1] == "9/9 checks passed"

    def test_an_injected_fault_fails_under_python_O(self):
        # python -O strips assert statements, so the checks raise explicitly
        done = run_python(
            "-O",
            "-c",
            "import sys; from fanoperiods import cli, selfcheck; "
            "assert False, 'asserts are on'; "
            "selfcheck.associativity_check = lambda table: []; "
            "sys.exit(cli.run(['selfcheck']))",
        )
        assert done.returncode == 1, done.stderr
        lines = done.stdout.decode().splitlines()
        assert "FAIL associativity: corrupted entry went unnoticed" in lines
        assert lines[-1] == "8/9 checks passed"

    def test_a_corrupted_row_entry_fails_under_python_O(self):
        # C(1,7,0) raised by 1 in every table of total 8 or more: the round
        # trip reads it back into c_8, which the plane grading makes 0
        done = run_python(
            "-O",
            "-c",
            "import sys\n"
            "from fanoperiods import cli, frobenius, selfcheck\n"
            "from fanoperiods.laurent import QPolynomial\n"
            "assert False, 'asserts are on'\n"
            "def corrupt(series, total):\n"
            "    table = frobenius.structure_table(series, total)\n"
            "    if total < 8:\n"
            "        return table\n"
            "    entries = dict(table.entries)\n"
            "    entries[(1, 7, 0)] = table.entry(1, 7, 0) + QPolynomial.one()\n"
            "    return frobenius.StructureTable(total, entries)\n"
            "selfcheck.structure_table = corrupt\n"
            "sys.exit(cli.run(['selfcheck']))\n",
        )
        assert done.returncode == 1, done.stderr
        lines = done.stdout.decode().splitlines()
        assert "FAIL reconstruction round trip: the table gives c_8 = 1, expected 0" in lines
        assert lines[-1] == "8/9 checks passed"
