"""End-to-end tests for the command line front door.

Subcommands run in process through `run`, which returns the exit code
the console script would produce; primary output is read back from
--out files or captured stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import fanoperiods
from fanoperiods.cli import CatalogEntry, catalog, main, run
from fanoperiods.frobenius import (
    extend_series,
    periods_from_json,
    reconstruct_N1,
    structure_table,
)
from fanoperiods.laurent import classical_periods
from fanoperiods.polytope import geometry_flags
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


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_python(*argv):
    """Run a fresh interpreter with this package importable."""
    src = str(Path(fanoperiods.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, env=env, check=False
    )


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
            "error: --max-p 7 needs a period file of order at least 7; "
            "this file has order 6\n"
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
                assert coeff.is_constant()
                value = coeff.constant_value()
                assert value.denominator == 1 and value > 0
            computed = classical_periods(entry.mirror, 6)
            assert len(entry.period_head) == 7
            for d, stored in enumerate(entry.period_head):
                assert computed[d].is_constant()
                value = computed[d].constant_value()
                assert value == Fraction(stored), (entry.name, d)
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
        series = [reconstruct_N1(periods_from_json(read_json(p2_periods_file)))]
        while len(series) < 4:
            series.append(extend_series(series))
        table = structure_table(series, 4)
        expected = [
            {"p": p, "q": q, "r": r, "value": str(table.entry(p, q, r).specialize_q(1))}
            for p in range(5)
            for q in range(5 - p)
            for r in range(p + q + 1)
        ]
        assert printed == json.dumps(expected, indent=2) + "\n"

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
        ],
        ids=["gr48-superpotential", "gr25-polytope", "gr26-polytope"],
    )
    def test_grassmannian_output_is_frozen(self, argv, digest, capsys):
        assert run(["grassmannian"] + argv) == 0
        printed = capsys.readouterr().out.encode()
        assert hashlib.sha256(printed).hexdigest() == digest

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
        # Each CLI call pays for every module its import pulls in; these two
        # (with ast, dis and tokenize behind them) cost about 20 ms a call.
        done = run_python(
            "-c",
            "import sys, fanoperiods.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == b"[]\n"


class TestSelfcheckSubcommand:
    def test_exit_zero_with_one_line_per_check(self, capsys):
        assert run(["selfcheck"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 11
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert lines[-1] == "10/10 checks passed"
