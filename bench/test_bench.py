"""Tests of the benchmark's own logic.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

import run
import workloads
from spans import layer_totals, self_times

ROOT = Path(__file__).resolve().parent.parent


def _files(directory: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(directory.iterdir())}


def _shape(jobs):
    return [(j.name, tuple(Path(a).name for a in j.argv), j.expected) for j in jobs]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic_per_seed(tmp_path, name):
    first = workloads.build(name, 7, tmp_path / "a")
    again = workloads.build(name, 7, tmp_path / "b")
    assert _shape(first) == _shape(again)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


def test_seed_changes_the_generated_mirrors(tmp_path):
    workloads.build("periods", 1, tmp_path / "a")
    workloads.build("periods", 2, tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "b")


def test_seeded_mirrors_are_unit_cube_fano_style():
    import random

    rng = random.Random(3)
    for dim, size in ((2, 5), (3, 6)):
        terms = workloads.seeded_mirror(rng, dim, size)
        assert len(terms) == size
        assert all(any(e) and set(e) <= {-1, 0, 1} for e in terms)
        assert set(terms.values()) <= {1, 2}
    dense = workloads.seeded_mirror(rng, 2, 5, dense_to=16)
    assert workloads.grading_index(workloads.reference_periods(dense, 16)) == 1


def _period_doc(values, index):
    return json.dumps({"index": index, "coeffs": [str(v) for v in values]}).encode()


def test_negative_control_fires_on_every_oracle_kind():
    plane = workloads.plane_periods(12)
    tail = workloads.n1_tail(plane)
    series = json.dumps([{"p": 1, "valid_to": 11, "tail": [
        {"i": i, "value": f"{a}q^{(i + 1) // 3}"} for i, a in tail.items() if a]}]).encode()
    table = json.dumps([{"p": 1, "q": q, "r": r, "value": str(tail[q - r])}
                        for q in range(2, 5) for r in range(1, q)]).encode()
    counts = json.dumps({"lattice_counts": {"1": 105, "2": 825}}).encode()
    cases = [
        (workloads.check_periods, plane, _period_doc(plane, 3)),
        (workloads.check_counts, workloads.nobody_counts(2, 4, 2), counts),
        (workloads.check_series, tail, series),
        (workloads.check_table, tail, table),
        (workloads.check_catalog, {"p2": workloads.plane_periods(6)},
         json.dumps({"name": "p2", "period_head": ["1", "0", "0", "6", "0", "0", "90"]}).encode()),
    ]
    for check, expected, output in cases:
        assert check(output, expected) is None, check.__name__
        assert check(output, workloads.corrupt(expected)) is not None, check.__name__


def test_oracle_rejects_unreadable_output():
    job = workloads.Job("x", ("period",), workloads.check_periods, [1])
    assert job.verify(b"not json") is not None
    assert job.verify(b'{"coeffs": ["1", "0"]}') is not None


def test_self_time_subtracts_the_union_of_children():
    spans = [
        [0, -1, "cli.run", 0.0, 10.0],
        [1, 0, "laurent.multiply", 1.0, 4.0],
        [2, 0, "trace.hook", 3.0, 6.0],  # overlaps its sibling: covered once
        [3, 0, "polytope.vertices", 5.0, 9.0],
        [4, 3, "polytope.lattice_point_count", 6.0, 7.0],
        [5, 3, "polytope.lattice_point_count", 8.5, 12.0],  # clipped at the parent's end
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 2.0, 1: 3.0, 2: 3.0, 3: 2.5, 4: 1.0, 5: 3.5})
    totals = layer_totals([{"job": "0", "import_s": 0.5, "spans": spans, "counters": {}}])
    assert totals["polytope.lattice_point_count.calls"] == 2
    assert totals["polytope.lattice_point_count.self_s"] == pytest.approx(4.5)
    assert totals["module.cli.self_s"] == pytest.approx(2.5)
    assert "trace.hook.self_s" not in totals


def test_module_shares_leave_out_the_selfcheck_subtree():
    spans = [
        [0, -1, "cli.run", 0.0, 10.0],
        [1, 0, "selfcheck.run_all", 1.0, 9.0],
        [2, 1, "young.max_diag", 2.0, 5.0],
        [3, 0, "young.all_diagrams", 9.0, 9.5],
    ]
    totals = layer_totals([{"job": "0", "import_s": 0.0, "spans": spans, "counters": {
        "laurent.multiply.max_terms": 4, "grassmannian.flow_polynomial.cache_hits": 3,
        "grassmannian.flow_polynomial.cache_misses": 1}}])
    assert totals["module.young.self_s"] == pytest.approx(0.5)
    assert totals["young.max_diag.self_s"] == pytest.approx(3.0)
    assert "module.selfcheck.self_s" not in totals
    assert totals["grassmannian.flow_polynomial.calls"] == 4
    assert totals["grassmannian.flow_polynomial.cache_hit_ratio"] == pytest.approx(0.75)


def test_oracles_agree_with_the_program_at_small_sizes():
    from fanoperiods.frobenius import PeriodSequence, reconstruct_N1
    from fanoperiods.polytope import lattice_point_count, polar_from_support
    from fanoperiods.young import schur_dimension

    for k, n in ((2, 4), (2, 5), (3, 6)):
        assert workloads.hook_content((n, n, n)[:k], n) == schur_dimension((n,) * k, n)
    assert workloads.nobody_counts(3, 6, 1) == {1: 41580}
    assert workloads.reference_periods(workloads.PLANE, 12) == workloads.plane_periods(12)
    assert workloads.reference_periods(workloads.P3, 12) == workloads.p3_periods(12)
    assert workloads.reference_periods(workloads.P1XP1, 12) == workloads.p1xp1_periods(12)
    for support in (sorted(workloads.PLANE), sorted(workloads.P1XP1),
                    [(1, 0), (0, 1), (-1, 1), (0, -1)]):
        system = polar_from_support(support)
        want = {r: lattice_point_count(system, r) for r in (1, 2, 3)}
        assert workloads.polygon_polar_counts(support, 3) == want
        assert workloads.brute_polar_counts(support, 3) == want
    support = sorted(workloads.P3)
    assert workloads.brute_polar_counts(support, 2) == {
        r: lattice_point_count(polar_from_support(support), r) for r in (1, 2)}
    values = workloads.reference_periods({(1, 0): 1, (-1, 0): 2, (0, 1): 1, (-1, -1): 1}, 9)
    n1 = reconstruct_N1(PeriodSequence.from_plain(values, workloads.grading_index(values)))
    assert {i: workloads._q_at_one(str(n1.tail_term(i))) for i in range(1, 9)} == pytest.approx(
        workloads.n1_tail(values))


def test_q_at_one_reads_printed_q_polynomials():
    assert workloads._q_at_one("2q - 3/2q^4 + q^2") == Fraction(3, 2)
    assert workloads._q_at_one("-q") == -1
    assert workloads._q_at_one("0") == 0


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"])


def test_a_job_past_the_ceiling_is_killed_and_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "JOB_CEILING_S", 0.3)
    runner = run.Runner(ROOT, tmp_path, deadline=float("inf"))
    usage = runner.spawn(["-c", "import time; time.sleep(30)"], tmp_path / "out")
    assert usage.timed_out and usage.exit_code is None and usage.wall_s < 5
    hang = workloads.Job("hang", ("period",), workloads.check_periods, [1])
    state = run.JobState(hang)
    monkeypatch.setattr(run, "CLI", "import time; time.sleep(30)")
    result = run.run_pass(runner, [state], traced=False)
    assert result.failures == ["hang: killed at the 0.3 s ceiling or the run deadline"]


def test_a_nonzero_exit_is_a_failure_with_its_message(tmp_path):
    runner = run.Runner(ROOT, tmp_path, deadline=float("inf"))
    bad = workloads.Job("bad", ("grassmannian", "--k", "3", "--n", "2"), workloads.check_chart, 1)
    result = run.run_pass(runner, [run.JobState(bad)], traced=False)
    assert len(result.failures) == 1 and result.failures[0].startswith("bad: exit code 1: error:")


def test_times_are_scaled_by_their_paired_reference():
    usage = run.Usage(wall_s=3.0, cpu_s=2.0, rss_mb=1.0, exit_code=0, timed_out=False)
    reference = run.Usage(wall_s=0.12, cpu_s=0.1, rss_mb=1.0, exit_code=0, timed_out=False)
    slow_host = run.Pass([usage], [reference], 0, [], [])
    fast_host = run.Pass([run.Usage(1.5, 1.0, 1.0, 0, False)],
                         [run.Usage(0.06, 0.05, 1.0, 0, False)], 0, [], [])
    for p in (slow_host, fast_host):
        assert p.scaled("wall_s") == pytest.approx([25 * run.REFERENCE_S])
        assert p.scaled("cpu_s") == pytest.approx([20 * run.REFERENCE_S])
