"""Benchmark of the fanoperiods command line, one workload per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload periods --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Each job is one CLI call (`fanoperiods.cli.main` with PYTHONPATH=src) in a
fresh child process; jobs run one at a time, a closed loop with a single
client.  A run builds the workload's seeded inputs, times the interpreter
start-up (setup_s), then repeats the job list in passes until --seconds
have passed (at least two passes, so every job is checked for
byte-identical repeats).  With --trace 1 untraced and traced passes
alternate; traced passes run each job under tracer.py and give the
per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from itertools import cycle
from pathlib import Path

import workloads
from spans import layer_totals
from tracer import selfcheck_metric

BENCH_DIR = Path(__file__).resolve().parent
JOB_CEILING_S = 60.0
RUN_DEADLINE_S = 170.0
# Start-up samples are spread over the run: some before the first pass,
# more before each.
SETUP_SAMPLES = 8
SETUP_SAMPLES_PER_PASS = 4
CLI = "from fanoperiods.cli import main; main()"

# The shared host's speed drifts by 30% and more over minutes, for every
# process alike, so raw times of the same code differ between runs by more
# than any useful bound.  Every timed child is therefore bracketed by runs of
# this fixed stdlib computation (a Laurent power over Fractions, the same kind
# of work as the program's kernels), each in its own child, and reported as
# its time over the mean of the two reference times, times REFERENCE_S: the
# reference's time in the fast phase of the 2-vCPU Xeon host the benchmark
# was tuned on.  A change to the program moves the ratio; host drift moves
# both sides of it.
REFERENCE = """
from fractions import Fraction
w = {(1, 0): Fraction(1), (0, 1): Fraction(1), (-1, -1): Fraction(1), (-1, 0): Fraction(1, 2)}
p = {(0, 0): Fraction(1)}
for _ in range(14):
    q = {}
    for e, c in p.items():
        for e2, c2 in w.items():
            k = (e[0] + e2[0], e[1] + e2[1])
            q[k] = q.get(k, 0) + c * c2
    p = q
"""
REFERENCE_S = 0.06

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("longest_job_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
SELFCHECKS = (
    "plane period identity", "boundary valuation battery", "reflection symmetry",
    "flow polynomial soundness", "valuation realization", "polytope lattice counts",
    "grassmannian period shape", "reconstruction round trip", "two-route consistency",
    "associativity",
)
PER_LAYER = (
    ("laurent.multiply.calls", "count"),
    ("laurent.multiply.self_s", "s"),
    ("laurent.multiply.term_pairs", "count"),
    ("laurent.multiply.max_terms", "count"),
    ("laurent.classical_periods.self_s", "s"),
    ("laurent.classical_periods.coeff_bits_max", "bits"),
    ("polytope.vertices.calls", "count"),
    ("polytope.vertices.self_s", "s"),
    ("polytope.vertices.subsets_solved", "count"),
    ("polytope.geometry_flags.self_s", "s"),
    ("polytope.lattice_point_count.calls", "count"),
    ("polytope.lattice_point_count.self_s", "s"),
    ("polytope.lattice_point_count.candidates", "count"),
    ("polytope.lattice_point_count.accepted", "count"),
    ("polytope.lattice_point_count.accept_ratio", "ratio"),
    ("polytope.build_document.self_s", "s"),
    ("grassmannian.superpotential_chart.self_s", "s"),
    ("grassmannian.flow_polynomial.self_s", "s"),
    ("grassmannian.verify_valuations.self_s", "s"),
    ("grassmannian.nobody_polytope.self_s", "s"),
    ("grassmannian.flow_polynomial.calls", "count"),
    ("grassmannian.flow_polynomial.cache_hit_ratio", "ratio"),
    ("grassmannian.cache_entries", "count"),
    ("young.all_diagrams.self_s", "s"),
    ("young.schur_dimension.self_s", "s"),
    ("frobenius.reconstruct_N1.self_s", "s"),
    ("frobenius.reconstruct_N1.order", "count"),
    ("frobenius.reconstruct_N1.tail_terms", "count"),
    ("frobenius.extend_series.calls", "count"),
    ("frobenius.extend_series.self_s", "s"),
    ("frobenius.series_multiply.calls", "count"),
    ("frobenius.structure_table.self_s", "s"),
    ("frobenius.structure_table.entries", "count"),
    ("frobenius.associativity_check.self_s", "s"),
    ("frobenius.associativity_check.cells", "count"),
    ("frobenius.residue_product.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.parse.self_s", "s"),
    ("cli.emit.self_s", "s"),
    ("cli.bytes_out", "B"),
    *((f"module.{m}.self_s", "s") for m in
      ("laurent", "polytope", "young", "grassmannian", "frobenius", "cli")),
    ("selfcheck.run_all.self_s", "s"),
    *((selfcheck_metric(name), "s") for name in SELFCHECKS),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Usage:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int | None  # None when killed at the ceiling
    timed_out: bool


class Runner:
    """Spawns one child at a time and reads its resource usage with wait4."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        src = str(root / "src")
        prior = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=f"{src}:{prior}" if prior else src)
        self.workdir = workdir
        self.deadline = deadline

    def ceiling(self) -> float:
        return min(JOB_CEILING_S, self.deadline - time.perf_counter())

    def reference(self) -> Usage:
        """One run of the reference computation."""
        usage = self.spawn(["-c", REFERENCE], self.workdir / "reference.out")
        if not usage.timed_out and usage.exit_code != 0:
            raise RuntimeError("the reference computation failed")
        return usage

    def spawn(self, argv: list[str], stdout: Path) -> Usage:
        ceiling = self.ceiling()
        if ceiling <= 0:
            return Usage(0.0, 0.0, 0.0, None, True)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, f"{stdout}.err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
             0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                             file_actions=actions)
        killed = threading.Event()

        def kill():
            killed.set()
            os.kill(pid, signal.SIGKILL)

        timer = threading.Timer(ceiling, kill)
        timer.start()
        try:
            # Wait without reaping, so the timer can never signal a reused pid.
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(pid, 0)
        code = None if killed.is_set() else os.waitstatus_to_exitcode(status)
        return Usage(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code,
                     killed.is_set())


def _bracket(before: Usage, after: Usage) -> Usage:
    """The reference usage for the child run between two reference runs."""
    return Usage((before.wall_s + after.wall_s) / 2, (before.cpu_s + after.cpu_s) / 2,
                 max(before.rss_mb, after.rss_mb), 0, before.timed_out or after.timed_out)


# ---------------------------------------------------------------------------
# passes


@dataclass
class JobState:
    job: workloads.Job
    output: bytes | None = None
    sha256: str | None = None
    oracle: str | None = None
    walls: list[float] = field(default_factory=list)
    references: list[float] = field(default_factory=list)


@dataclass
class Pass:
    usages: list[Usage]
    references: list[Usage]
    bytes_out: int
    failures: list[str]
    docs: list[dict]

    @property
    def wall_s(self) -> float:
        return sum(u.wall_s for u in self.usages)

    def scaled(self, what: str) -> list[float]:
        """Each job's wall_s or cpu_s over its reference's, in reference seconds."""
        return [getattr(u, what) / getattr(r, what) * REFERENCE_S if getattr(r, what) else 0.0
                for u, r in zip(self.usages, self.references)]


def run_pass(runner: Runner, states: list[JobState], traced: bool) -> Pass:
    result = Pass([], [], 0, [], [])
    before = runner.reference()
    for index, state in enumerate(states):
        stdout = runner.workdir / f"job{index}.out"
        spans = runner.workdir / f"job{index}.spans.json"
        if traced:
            argv = [str(BENCH_DIR / "tracer.py"), str(spans), str(index), *state.job.argv]
        else:
            argv = ["-c", CLI, *state.job.argv]
        usage = before if before.timed_out else runner.spawn(argv, stdout)
        after = runner.reference()
        reference = _bracket(before, after)
        before = after
        result.references.append(reference)
        result.usages.append(usage)
        if usage.timed_out:
            result.failures.append(f"{state.job.name}: killed at the {JOB_CEILING_S:g} s "
                                   "ceiling or the run deadline")
            continue
        out = stdout.read_bytes()
        result.bytes_out += len(out)
        reason = None
        if usage.exit_code != 0:
            stderr = Path(f"{stdout}.err").read_text(errors="replace").strip()
            reason = f"exit code {usage.exit_code}: {(stderr.splitlines() or [''])[-1]}"
        elif state.sha256 is None:
            state.output, state.sha256 = out, hashlib.sha256(out).hexdigest()
            state.oracle = state.job.verify(out)
            reason = state.oracle
        elif hashlib.sha256(out).hexdigest() != state.sha256:
            reason = "output bytes differ from the first run of this job"
        if reason is None:
            if not traced:
                state.walls.append(usage.wall_s)
                state.references.append(reference.wall_s)
            else:
                result.docs.append(json.loads(spans.read_text(encoding="utf-8")))
        else:
            result.failures.append(f"{state.job.name}: {reason}")
    return result


def negative_control(states: list[JobState]) -> str:
    """Check one real output against a corrupted expected value; the oracle
    must reject it, or no verdict of this benchmark can be trusted."""
    for state in states:
        if state.job.expected is not None and state.output is not None:
            verdict = state.job.check(state.output, workloads.corrupt(state.job.expected))
            return f"fired on {state.job.name}" if verdict else f"silent on {state.job.name}"
    return "not run: no job produced output"


def setup_samples(runner: Runner, count: int, warm_up: bool = False) -> list[tuple]:
    """(wall, reference wall) of a fresh interpreter importing fanoperiods.cli.
    The warm-up call, untimed, leaves compiled bytecode behind."""
    times = []
    before = runner.reference()
    for _ in range(count + warm_up):
        usage = runner.spawn(["-c", "import fanoperiods.cli"], runner.workdir / "setup.out")
        after = runner.reference()
        if usage.timed_out or after.timed_out:
            break  # the run deadline has passed; the passes will report it
        if usage.exit_code != 0:
            raise RuntimeError("fanoperiods.cli does not import")
        times.append((usage.wall_s, _bracket(before, after).wall_s))
        before = after
    return times[warm_up:]


# ---------------------------------------------------------------------------
# one run


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "system": platform.system()}


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    workdir = root / ".bench_work" / f"run-{os.getpid()}-{workload}"
    try:
        states = [JobState(job) for job in workloads.build(workload, seed, workdir)]
        runner = Runner(root, workdir, started + RUN_DEADLINE_S)
        setup = setup_samples(runner, SETUP_SAMPLES, warm_up=True)
        passes: dict[bool, list[Pass]] = {False: [], True: []}
        kinds, minimum = ((False, True), 1) if trace else ((False,), 2)
        window = time.perf_counter()
        for traced in cycle(kinds):
            enough = all(len(passes[kind]) >= minimum for kind in kinds)
            if (enough and time.perf_counter() - window >= seconds) or runner.ceiling() <= 0:
                break
            setup += setup_samples(runner, SETUP_SAMPLES_PER_PASS)
            passes[traced].append(run_pass(runner, states, traced))
        control = negative_control(states)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only succeeds once no other run is using it
    return summarise(workload, seed, seconds, trace, states, passes, setup, control)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def summarise(workload, seed, seconds, trace, states, passes, setup, control) -> dict:
    plain, traced = passes[False], passes[True]
    every = plain + traced
    attempted = sum(len(p.usages) for p in every)
    failures = [f for p in every for f in p.failures]
    ok_plain = [p for p in plain if not p.failures] or plain
    e2e = {
        "setup_s": (_median([wall / ref * REFERENCE_S for wall, ref in setup]), len(setup)),
        "wall_s": (_median([sum(p.scaled("wall_s")) for p in ok_plain]), len(ok_plain)),
        "longest_job_s": (_median([max(p.scaled("wall_s")) for p in ok_plain]), len(ok_plain)),
        "cpu_s": (_median([sum(p.scaled("cpu_s")) for p in ok_plain]), len(ok_plain)),
        "peak_rss_mb": (max((u.rss_mb for p in plain for u in p.usages), default=0.0),
                        sum(len(p.usages) for p in plain)),
    }
    units = dict(END_TO_END + PER_LAYER)
    if trace:
        per_pass = [layer_totals(p.docs) for p in traced]
        for totals, p in zip(per_pass, traced):
            totals["trace.wall_s"] = p.wall_s
            totals["cli.bytes_out"] = p.bytes_out
        layers = {name: _median([t.get(name, 0.0) for t in per_pass]) for name, _ in PER_LAYER}
        layers["trace.overhead_frac"] = (
            _median([sum(p.scaled("wall_s")) for p in traced]) / e2e["wall_s"][0] - 1)
        metrics = {name: {"value": layers[name], "unit": units[name]} for name, _ in PER_LAYER}
        samples = {"traced_passes": len(traced)}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": units[name]} for name, _ in END_TO_END}
        samples = {name: e2e[name][1] for name, _ in END_TO_END}
        per_pass = []
    correct = not failures and control.startswith("fired")
    return {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "samples": samples,
        "metrics": metrics,
        "raw_pass_walls_s": [round(p.wall_s, 4) for p in plain],
        "raw_setup_s": [round(wall, 4) for wall, _ in setup],
        "reference_s": {"setup": [round(ref, 4) for _, ref in setup],
                        "median": round(_median([r.wall_s for p in every for r in p.references]), 4)},
        "failed_frac": len(failures) / attempted if attempted else 1.0,
        "negative_control": control,
        "jobs": [
            {"name": s.job.name, "argv": " ".join(os.path.basename(a) for a in s.job.argv),
             "sha256": s.sha256, "median_s": round(_median(s.walls), 4),
             "scaled_median_s": round(_median(
                 [w / r * REFERENCE_S for w, r in zip(s.walls, s.references)]), 4),
             "samples": len(s.walls), "walls_s": [round(w, 4) for w in s.walls],
             "reference_s": [round(r, 4) for r in s.references],
             "oracle": s.oracle or ("ok" if s.sha256 else "no output")}
            for s in states
        ],
        "failures": failures,
        "layer_table": layer_table(per_pass, traced[-1].docs, states) if traced else [],
        "summary": {"correct": correct, "attempted": attempted, "failed": len(failures),
                    "metrics": metrics},
    }


def layer_table(per_pass: list[dict], docs: list[dict], states: list[JobState]) -> list[str]:
    """Span names by median self time, with calls and share of traced wall;
    module shares outside selfcheck; each job's two largest spans."""
    wall = _median([t["trace.wall_s"] for t in per_pass])
    names = sorted({k[: -len(".self_s")] for t in per_pass for k in t
                    if k.endswith(".self_s") and not k.startswith("module.")})
    rows = [(_median([t.get(f"{n}.self_s", 0.0) for t in per_pass]),
             _median([t.get(f"{n}.calls", 0.0) for t in per_pass]), n) for n in names]
    rows.sort(reverse=True)
    lines = [f"{'span':44} {'calls':>9} {'self_s':>9} {'share':>7}"]
    lines += [f"{n:44} {c:9.0f} {s:9.4f} {s / wall:7.1%}" for s, c, n in rows if c]
    modules = sorted(((_median([t.get(k, 0.0) for t in per_pass]), k) for k in per_pass[0]
                      if k.startswith("module.")), reverse=True)
    lines += ["outside selfcheck: " + ", ".join(f"{k[7:-7]} {v / wall:.1%}" for v, k in modules)]
    for doc in docs:
        totals = layer_totals([doc])
        top = sorted(((v, k[: -len(".self_s")]) for k, v in totals.items()
                      if k.endswith(".self_s") and not k.startswith("module.")), reverse=True)
        lines.append(f"  {states[int(doc['job'])].job.name:34} "
                     + ", ".join(f"{k} {v:.3f} s" for v, k in top[:2]))
    return lines


def report(result: dict) -> None:
    """Readable lines, then the whole record as one JSON line for diffing."""
    m = result["machine"]
    print(f"workload {result['workload']}, seed {result['seed']}, {result['seconds']:g} s, "
          f"trace {result['trace']}: {result['why']}")
    print(f"machine: {m['nproc']} cpus, {m['cpu']}, Python {m['python']}")
    for line in result.pop("layer_table"):
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{name:44} {metric['value']:14.6g} {metric['unit']:6} "
              f"n={result['samples'].get(name, result['samples'].get('traced_passes'))}")
    summary = result["summary"]
    print(f"{'failed_frac':44} {result['failed_frac']:14.6g} ratio  "
          f"({summary['failed']}/{summary['attempted']})")
    print(f"negative control: {result['negative_control']}")
    for job in result["jobs"]:
        print(f"  {job['name']:34} {job['median_s']:8.3f} s raw {job['scaled_median_s']:8.3f} s "
              f"scaled n={job['samples']} "
              f"{(job['sha256'] or '-')[:16]} {job['oracle']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print("results " + json.dumps({k: v for k, v in result.items() if k != "summary"}))


# ---------------------------------------------------------------------------
# command line


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills its current child and removes its inputs.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "fanoperiods" / "cli.py").is_file():
        print("error: run from the root of a fanoperiods checkout (no src/fanoperiods)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = [measure(root, name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for result in results:
        report(result)
    if len(results) == 1:
        print(json.dumps(results[0]["summary"]))
        return 0
    print(f"{'workload':12} {'metric':14} {'value':>12} unit")
    for result in results:
        for name, metric in result["metrics"].items():
            print(f"{result['workload']:12} {name:14} {metric['value']:12.4f} {metric['unit']}")
        print(f"{result['workload']:12} {'failed_frac':14} {result['failed_frac']:12.4f} ratio")
    summaries = [r["summary"] for r in results]
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
