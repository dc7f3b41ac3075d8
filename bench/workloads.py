"""Seeded inputs, job lists and output oracles for the benchmark workloads.

The seed only chooses the generated mirrors; the program sees nothing but
the files written here and each job's argv.  Every job carries an oracle:
a check that returns None when the output is right and a message when it
is wrong.  Oracles with an `expected` value can be fed a corrupted copy of
it, which is how the benchmark proves in every run that a wrong answer is
caught (the negative control).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb, factorial, gcd
from pathlib import Path
from typing import Callable

WHY = {
    "periods": (
        "period engine on sparse and dense, q-free and Novikov-decorated "
        "mirrors: laurent.multiply and classical_periods do nearly all the work"
    ),
    "polytope": (
        "bounding-box scan in lattice_point_count, with accept ratios from "
        "about 1/133 (Gr(2,5) NO body) to about 1/2 (polygon polars)"
    ),
    "frobenius": (
        "reconstruct_N1 on sparse and dense period tails; never calls "
        "laurent.multiply, so it is the bypass workload for the period engine"
    ),
    "interactive": (
        "many small CLI calls: import, argparse, JSON and chart/flow "
        "construction dominate; the only workload reaching associativity_check"
    ),
}

NAMES = tuple(WHY)

PLANE = {(1, 0): 1, (0, 1): 1, (-1, -1): 1}
P1XP1 = {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
P3 = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1}


# ---------------------------------------------------------------------------
# closed forms and independent reference computations


def plane_periods(order: int) -> list[int]:
    """P^2: c_{3m} = (3m)!/(m!)^3."""
    return [factorial(d) // factorial(d // 3) ** 3 if d % 3 == 0 else 0 for d in range(order + 1)]


def p1xp1_periods(order: int) -> list[int]:
    """P^1 x P^1: c_{2m} = C(2m, m)^2."""
    return [comb(d, d // 2) ** 2 if d % 2 == 0 else 0 for d in range(order + 1)]


def p1_periods(order: int) -> list[int]:
    """P^1: c_{2m} = C(2m, m)."""
    return [comb(d, d // 2) if d % 2 == 0 else 0 for d in range(order + 1)]


def p3_periods(order: int) -> list[int]:
    """P^3: c_{4m} = (4m)!/(m!)^4."""
    return [factorial(d) // factorial(d // 4) ** 4 if d % 4 == 0 else 0 for d in range(order + 1)]


def quadric_periods(order: int) -> list[int]:
    """Gr(2,4) = Q^4: c_{4d} = (4d)!(2d)!/(d!)^6."""
    return [
        factorial(d) * factorial(d // 2) // factorial(d // 4) ** 6 if d % 4 == 0 else 0
        for d in range(order + 1)
    ]


def reference_periods(terms: dict[tuple[int, ...], int], order: int) -> list[int]:
    """Constant terms of W^d over plain ints, pruning terms that cannot
    return to the origin in the steps left (support in the unit cube)."""
    out = []
    power = {(0,) * len(next(iter(terms))): 1}
    for d in range(order + 1):
        out.append(power.get((0,) * len(next(iter(terms))), 0))
        if d == order:
            break
        reach = order - d - 1
        step: dict[tuple[int, ...], int] = {}
        for e, c in power.items():
            for e2, c2 in terms.items():
                key = tuple(a + b for a, b in zip(e, e2))
                if max(map(abs, key)) <= reach:
                    step[key] = step.get(key, 0) + c * c2
        power = step
    return out


def grading_index(values: list[int]) -> int:
    """gcd of the positions of the nonzero c_d (d > 0), 1 if there are none."""
    return reduce(gcd, (d for d, v in enumerate(values) if d and v), 0) or 1


def n1_tail(values: list[int]) -> dict[int, Fraction]:
    """Tail a_1..a_{T-1} of N_1 = t + sum a_i t^(-i) at q = 1.

    With phi(u) = 1 + sum a_i u^(i+1), c_d = [u^d] phi^d; J.C.P. Miller's
    power recurrence gives that coefficient in O(d^2) from the known
    prefix, and a_{d-1} enters it only as d * a_{d-1}.
    """
    top = len(values) - 1
    phi = [Fraction(1)] + [Fraction(0)] * top
    for d in range(2, top + 1):
        powers = [Fraction(1)] + [Fraction(0)] * d
        for k in range(1, d + 1):
            powers[k] = sum(
                ((d + 1) * j - k) * phi[j] * powers[k - j] for j in range(2, k + 1) if phi[j]
            ) / k
        phi[d] = (values[d] - powers[d]) / d
    return {i: phi[i + 1] for i in range(1, top)}


def hook_content(shape: tuple[int, ...], n: int) -> int:
    """Dimension of the GL(n) Schur module of `shape`."""
    cols = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    value = Fraction(1)
    for i, row in enumerate(shape):
        for j in range(row):
            value *= Fraction(n + j - i, (row - j) + (cols[j] - i) - 1)
    return int(value)


def nobody_counts(k: int, n: int, order: int) -> dict[int, int]:
    """Rietsch-Williams: dilation r of the NO body counts V((nr)^k) of GL(n)."""
    return {r: hook_content((n * r,) * k, n) for r in range(1, order + 1)}


def polygon_polar_counts(support, order: int) -> dict[int, int]:
    """Ehrhart counts of the polar of a reflexive polygon.

    The polar P* is a lattice polygon with one interior point, so Pick
    gives L(r) = (B*/2) r (r + 1) + 1, and B(P) + B(P*) = 12.
    """
    pts = sorted(set(support))

    def chain(seq):
        out: list = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    hull = chain(pts)[:-1] + chain(reversed(pts))[:-1]
    boundary = sum(
        gcd(b[0] - a[0], b[1] - a[1]) for a, b in zip(hull, hull[1:] + hull[:1])
    )
    return {r: (12 - boundary) * r * (r + 1) // 2 + 1 for r in range(1, order + 1)}


def brute_polar_counts(support, order: int) -> dict[int, int]:
    """Lattice counts of r * {v : <s, v> >= -1} by scanning a box.

    A vertex solves a square system with rows in {-1,0,1}^dim and right
    side -1, so Cramer bounds every coordinate by the largest such
    determinant: 2 in dimension 2, 4 in dimension 3.
    """
    dim = len(support[0])
    bound = {2: 2, 3: 4}[dim] * order
    tally = [0] * (order + 1)
    for v in product(range(-bound, bound + 1), repeat=dim):
        need = max(max(-sum(a * b for a, b in zip(s, v)) for s in support), 0)
        if need <= order:
            tally[need] += 1
    counts, running = {}, 0
    for r in range(order + 1):
        running += tally[r]
        if r:
            counts[r] = running
    return counts


# ---------------------------------------------------------------------------
# oracles


def _q_at_one(text: str) -> Fraction:
    """Value at q = 1 of a printed QPolynomial such as "2q - 3/2q^4"."""
    total, sign = Fraction(0), 1
    for token in text.split():
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        head = token.split("q")[0]
        total += sign * (Fraction(head) if head not in ("", "-") else Fraction(-1 if head else 1))
        sign = 1
    return total


def _first_difference(got: dict, want: dict, label: str) -> str | None:
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            return f"{label}{key} = {got.get(key)}, expected {want.get(key)}"
    return None


def check_periods(out: bytes, expected: list[int]) -> str | None:
    coeffs = [Fraction(c) for c in json.loads(out)["coeffs"]]
    return _first_difference(dict(enumerate(coeffs)), dict(enumerate(expected)), "c_")


def check_grass_periods(out: bytes, n: int) -> str | None:
    doc = json.loads(out)
    if doc["index"] != n:
        return f"grading index {doc['index']}, expected {n}"
    for d, text in enumerate(doc["coeffs"]):
        value = Fraction(text)
        if value.denominator != 1 or value < 0 or (d % n and value) or (d == 0 and value != 1):
            return f"c_{d} = {text} is not a graded non-negative integer"
    return None


def check_counts(out: bytes, expected: dict[int, int]) -> str | None:
    got = {int(r): c for r, c in json.loads(out)["lattice_counts"].items()}
    return _first_difference(got, expected, "L")


def check_series(out: bytes, expected: dict[int, Fraction]) -> str | None:
    first = json.loads(out)[0]
    got = {t["i"]: _q_at_one(t["value"]) for t in first["tail"]}
    want = {i: a for i, a in expected.items() if a and i <= first["valid_to"]}
    return _first_difference(got, want, "a_")


def check_table(out: bytes, expected: dict[int, Fraction]) -> str | None:
    """Rows p = 1, 1 <= r < q hold a_{q-r} of N_1; r = p + q holds 1."""
    got, want = {}, {}
    for rec in json.loads(out):
        p, q, r = rec["p"], rec["q"], rec["r"]
        if r == p + q:
            got[(p, q, r)], want[(p, q, r)] = rec["value"], "1"
        elif p == 1 and 1 <= r < q and q - r in expected:
            got[(p, q, r)], want[(p, q, r)] = _q_at_one(rec["value"]), expected[q - r]
    return _first_difference(got, want, "entry")


def check_catalog(out: bytes, expected: dict[str, list[int]]) -> str | None:
    doc = json.loads(out)
    entries = doc if isinstance(doc, list) else [doc]
    got = {e["name"]: [int(c) for c in e["period_head"]] for e in entries}
    return _first_difference(got, expected, "head ")


def check_chart(out: bytes, variables: int) -> str | None:
    doc = json.loads(out)
    if len(doc["vars"]) != variables:
        return f"{len(doc['vars'])} chart variables, expected {variables}"
    bad = [t for t in doc["terms"] if not t["coeff"].isdigit() or t["coeff"] == "0"]
    return f"non-positive-integer chart coefficient {bad[0]}" if bad else None


def check_empty_report(out: bytes, _=None) -> str | None:
    doc = json.loads(out)
    return None if doc == [] else f"valuation mismatches: {doc[:2]}"


def check_selfcheck(out: bytes, _=None) -> str | None:
    lines = out.decode().splitlines()
    failing = [line for line in lines[:-1] if not line.startswith("PASS ")]
    total = len(lines) - 1
    if failing or lines[-1] != f"{total}/{total} checks passed":
        return f"selfcheck reports {failing or lines[-1:]}"
    return None


def corrupt(expected):
    """A copy of an expected value with one entry off by one: the last of a
    list, the first key of a mapping (every oracle compares that one)."""
    if isinstance(expected, list):
        return expected[:-1] + [expected[-1] + 1]
    key = min(expected)
    return {**expected, key: corrupt(expected[key]) if isinstance(expected[key], list)
            else expected[key] + 1}


@dataclass(frozen=True)
class Job:
    """One CLI call: argv after the program name, and its oracle."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[bytes, object], str | None]
    expected: object = None

    def verify(self, out: bytes) -> str | None:
        try:
            return self.check(out, self.expected)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as err:
            return f"unreadable output: {err!r}"


# ---------------------------------------------------------------------------
# seeded inputs


def seeded_mirror(rng: random.Random, dim: int, size: int, dense_to: int = 0):
    """Unit-cube mirror: `size` support points in {-1,0,1}^dim minus the
    origin with the origin strictly inside their hull, coefficients in
    {1, 2}.  With dense_to, also require grading index 1 through that order."""
    from fanoperiods.polytope import geometry_flags, polar_from_support

    points = [p for p in product((-1, 0, 1), repeat=dim) if any(p)]
    while True:
        support = sorted(rng.sample(points, size))
        if not geometry_flags(polar_from_support(support)).bounded:
            continue
        terms = {p: rng.choice((1, 2)) for p in support}
        if dense_to and grading_index(reference_periods(terms, dense_to)) != 1:
            continue
        return terms


class Inputs:
    """Writes input files into a work directory and names them."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def mirror(self, name: str, terms) -> str:
        dim = len(next(iter(terms)))
        doc = {
            "vars": ["x", "y", "z"][:dim],
            "terms": [{"coeff": str(c), "q": 0, "exp": list(e)} for e, c in sorted(terms.items())],
        }
        return self._write(f"{name}.json", doc)

    def periods(self, name: str, values: list[int]) -> str:
        doc = {"index": grading_index(values), "coeffs": [str(v) for v in values]}
        return self._write(f"{name}.periods.json", doc)

    def _write(self, filename: str, doc) -> str:
        path = self.workdir / filename
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        return str(path)


def _period_job(inputs, name, terms, order, expected=None):
    path = inputs.mirror(name, terms)
    expected = expected if expected is not None else reference_periods(terms, order)
    return Job(f"period {name} {order}", ("period", "--poly", path, "--order", str(order)),
               check_periods, expected)


def _grass_job(k, n, emit, order=None, check=None, expected=None):
    argv = ("grassmannian", "--k", str(k), "--n", str(n), "--emit", emit)
    if order is not None:
        argv += ("--order", str(order))
    return Job(f"gr({k},{n}) {emit} {order or ''}".strip(), argv, check, expected)


def _polytope_job(inputs, name, terms, order):
    support = sorted(terms)
    if len(support[0]) == 2:
        expected = polygon_polar_counts(support, order)
    else:
        expected = brute_polar_counts(support, order)
    path = inputs.mirror(name, terms)
    return Job(f"polytope {name} {order}", ("polytope", "--poly", path, "--order", str(order)),
               check_counts, expected)


def _frobenius_job(inputs, name, values, max_p, emit):
    path = inputs.periods(name, values)
    return Job(f"frobenius {name} {emit} {max_p}",
               ("frobenius", "--periods", path, "--max-p", str(max_p), "--emit", emit),
               check_table if emit == "table" else check_series, n1_tail(values))


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The job list of a workload for a seed; writes its input files."""
    rng = random.Random(f"{workload}:{seed}")
    inputs = Inputs(workdir)
    if workload == "periods":
        return [
            _period_job(inputs, "p2", PLANE, 45, plane_periods(45)),
            _period_job(inputs, "p1xp1", P1XP1, 30, p1xp1_periods(30)),
            _period_job(inputs, "p3", P3, 24, p3_periods(24)),
            _period_job(inputs, "seeded-2d-a", seeded_mirror(rng, 2, 5), 24),
            _period_job(inputs, "seeded-2d-b", seeded_mirror(rng, 2, 6), 20),
            _period_job(inputs, "seeded-3d", seeded_mirror(rng, 3, 6), 10),
            _grass_job(2, 4, "periods", 12, check_periods, quadric_periods(12)),
            _grass_job(2, 5, "periods", 8, check_grass_periods, 5),
            _grass_job(2, 6, "periods", 7, check_grass_periods, 6),
        ]
    if workload == "polytope":
        return [
            _grass_job(2, 4, "polytope", 2, check_counts, nobody_counts(2, 4, 2)),
            _grass_job(2, 5, "polytope", 1, check_counts, nobody_counts(2, 5, 1)),
            _polytope_job(inputs, "p2", PLANE, 10),
            _polytope_job(inputs, "p3", P3, 4),
            _polytope_job(inputs, "seeded-2d", seeded_mirror(rng, 2, 5), 10),
            _polytope_job(inputs, "seeded-3d", seeded_mirror(rng, 3, 7), 4),
        ]
    if workload == "frobenius":
        dense = seeded_mirror(rng, 2, 5, dense_to=14)
        return [
            _frobenius_job(inputs, "p2", plane_periods(30), 12, "table"),
            _frobenius_job(inputs, "gr24", quadric_periods(24), 8, "series"),
            _frobenius_job(inputs, "p1xp1", p1xp1_periods(24), 10, "table"),
            _frobenius_job(inputs, "seeded-dense", reference_periods(dense, 14), 8, "series"),
        ]
    if workload == "interactive":
        heads = {"p1": p1_periods(6), "p2": plane_periods(6), "p1xp1": p1xp1_periods(6),
                 "p3": p3_periods(6)}
        small = seeded_mirror(rng, 2, 5)
        jobs = [Job("catalog list", ("catalog", "list"), check_catalog, heads)]
        jobs += [Job(f"catalog {name}", ("catalog", name), check_catalog, {name: head})
                 for name, head in heads.items()]
        jobs += [_grass_job(k, n, "superpotential", None, check_chart, k * (n - k))
                 for k, n in ((2, 4), (2, 5), (3, 6), (2, 7), (4, 8))]
        jobs += [_grass_job(k, n, "valuations", None, check_empty_report)
                 for k, n in ((2, 4), (2, 5), (3, 5), (3, 6))]
        jobs += [
            _period_job(inputs, "p2", PLANE, 12, plane_periods(12)),
            _period_job(inputs, "seeded-2d", small, 10),
            _polytope_job(inputs, "p1xp1", P1XP1, 3),
            _polytope_job(inputs, "seeded-2d", small, 3),
            _grass_job(2, 4, "polytope", 1, check_counts, nobody_counts(2, 4, 1)),
            _frobenius_job(inputs, "p2", plane_periods(12), 4, "table"),
            _frobenius_job(inputs, "p1xp1", p1xp1_periods(12), 3, "series"),
            Job("selfcheck", ("selfcheck",), check_selfcheck),
        ]
        return jobs
    raise ValueError(f"unknown workload {workload!r}")
