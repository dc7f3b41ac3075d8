"""Run one fanoperiods CLI call with every public function wrapped in a span.

Usage: python tracer.py SPANS_FILE JOB_ID ARG...

The CLI arguments and its standard output are exactly those of an
untraced call.  Each wrapped function is replaced wherever it is looked
up (its defining module and every module that imported it by name).
Spans stay in memory and are written to SPANS_FILE as JSON when the call
returns: {"job", "import_s", "spans": [[id, parent, name, start, end]],
"counters": {...}}.  Counter hooks run after their span closes, inside a
"trace.hook" span, so that their cost is excluded from every self time.
"""

from __future__ import annotations

import json
import sys
import time
from inspect import isfunction
from math import ceil, comb, floor, prod

MODULES = ("laurent", "polytope", "young", "grassmannian", "frobenius", "cli", "selfcheck")
LRU_CACHES = ("build_rectangles_network", "_single_paths", "flow_polynomial")


def selfcheck_metric(check_name: str) -> str:
    """Per-layer metric name of a selfcheck check, e.g. selfcheck.two_route_consistency.s."""
    return "selfcheck." + check_name.replace(" ", "_").replace("-", "_") + ".s"


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([sid, self.stack[-1] if self.stack else -1, name, 0.0, 0.0])
        self.stack.append(sid)
        return sid

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            sid = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[sid][3:5] = start, time.perf_counter()
                self.stack.pop()
            if hook is not None:
                hid = self._open("trace.hook")
                hook_start = time.perf_counter()
                hook(self, args, result)
                self.spans[hid][3:5] = hook_start, time.perf_counter()
                self.stack.pop()
            return result

        return traced


def _hooks(modules):
    polytope = modules["polytope"]
    vertices = polytope.vertices

    def multiply(rec, args, result):
        f, g = args
        rec.add("laurent.multiply.term_pairs", len(f.terms) * len(g.terms))
        rec.peak("laurent.multiply.max_terms", len(result.terms))

    def classical_periods(rec, args, result):
        bits = [max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for coeff in result for _, c in coeff.items()]
        rec.peak("laurent.classical_periods.coeff_bits_max", max(bits, default=0))

    def count_vertices(rec, args, result):
        system = args[0]
        rec.add("polytope.vertices.subsets_solved", comb(len(system.facets), system.dim))

    def lattice_point_count(rec, args, result):
        system, dilation = args
        vs = vertices(system)
        box = [
            floor(max(v[i] for v in vs) * dilation) - ceil(min(v[i] for v in vs) * dilation) + 1
            for i in range(system.dim)
        ] if vs else [0]
        rec.add("polytope.lattice_point_count.candidates", prod(max(side, 0) for side in box))
        rec.add("polytope.lattice_point_count.accepted", result)

    def reconstruct_N1(rec, args, result):
        rec.peak("frobenius.reconstruct_N1.order", args[0].order)
        rec.peak("frobenius.reconstruct_N1.tail_terms", len(result.tail))

    def structure_table(rec, args, result):
        rec.add("frobenius.structure_table.entries", len(result.entries))

    def associativity_check(rec, args, result):
        total = args[0].total
        rec.add("frobenius.associativity_check.cells", sum(
            p + q + r + 1 for p in range(total + 1) for q in range(total + 1 - p)
            for r in range(total + 1 - p - q)))

    def run_all(rec, args, result):
        for check in result:
            rec.add(selfcheck_metric(check.name), check.seconds)

    return {
        "laurent.multiply": multiply,
        "laurent.classical_periods": classical_periods,
        "polytope.vertices": count_vertices,
        "polytope.lattice_point_count": lattice_point_count,
        "frobenius.reconstruct_N1": reconstruct_N1,
        "frobenius.structure_table": structure_table,
        "frobenius.associativity_check": associativity_check,
        "selfcheck.run_all": run_all,
    }


def install(rec: Recorder, modules: dict) -> None:
    """Wrap the public functions of each module, plus the CLI's parser
    construction and output writer, and patch every lookup site."""
    hooks = _hooks(modules)
    wrappers = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            public = not attr.startswith("_") and getattr(obj, "__module__", None) == module.__name__
            if public and (isfunction(obj) or hasattr(obj, "cache_info")):
                name = f"{short}.{attr}"
                wrappers[id(obj)] = rec.wrap(name, obj, hooks.get(name))
    cli = modules["cli"]
    wrappers[id(cli._emit)] = rec.wrap("cli.emit", cli._emit)

    def build_parser(original=cli._build_parser):
        parser = original()
        parser.parse_args = rec.wrap("cli.parse", parser.parse_args)
        return parser

    wrappers[id(cli._build_parser)] = rec.wrap("cli.parse", build_parser)
    for name, module in list(sys.modules.items()):
        if name == "fanoperiods" or name.startswith("fanoperiods."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])


def main(argv: list[str]) -> int:
    spans_path, job, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    import fanoperiods.cli  # noqa: F401  (timed: this is the import every call pays)

    import_s = time.perf_counter() - start
    modules = {short: sys.modules[f"fanoperiods.{short}"] for short in MODULES}
    originals = {name: getattr(modules["grassmannian"], name) for name in LRU_CACHES}
    rec = Recorder()
    install(rec, modules)
    try:
        return modules["cli"].run(cli_args)
    finally:
        sys.stdout.flush()
        flow = originals["flow_polynomial"].cache_info()
        rec.add("grassmannian.flow_polynomial.cache_hits", flow.hits)
        rec.add("grassmannian.flow_polynomial.cache_misses", flow.misses)
        rec.add("grassmannian.cache_entries",
                sum(fn.cache_info().currsize for fn in originals.values()))
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"job": job, "import_s": import_s, "spans": rec.spans,
                       "counters": rec.counters}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
