"""Self-time arithmetic over recorded spans, and per-layer totals of a pass.

A span is (id, parent, name, start, end); a parent of -1 marks a root.
A span's self time is its duration minus the part of that interval its
children cover.  Spans of "trace.*" names are the tracer's own work: they
count as children (so they leave every self time) and are never reported.
"""

from __future__ import annotations

from collections import defaultdict

PEAK_COUNTERS = (
    "laurent.multiply.max_terms",
    "laurent.classical_periods.coeff_bits_max",
    "frobenius.reconstruct_N1.order",
    "frobenius.reconstruct_N1.tail_terms",
)


def self_times(spans) -> dict[int, float]:
    """Self time of every span, by id."""
    children = defaultdict(list)
    for sid, parent, _, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = {}
    for sid, _, _, start, end in spans:
        covered, reach = 0.0, start
        for lo, hi in sorted(children[sid]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[sid] = (end - start) - covered
    return result


def layer_totals(docs) -> dict[str, float]:
    """Sum the tracer documents of one pass into named per-layer values.

    Keys: "<span>.calls" and "<span>.self_s" for every span name, the
    counters (summed, or maximised for PEAK_COUNTERS), "cli.import_s",
    "module.<m>.self_s" over spans outside the selfcheck subtree (the CLI
    module also carries the import), and the derived ratios.  The calls of
    the cached flow_polynomial are its cache lookups, read from cache_info().
    """
    totals: dict[str, float] = defaultdict(float)
    for doc in docs:
        spans = doc["spans"]
        own = self_times(spans)
        in_selfcheck: dict[int, bool] = {}
        for sid, parent, name, _, _ in spans:
            in_selfcheck[sid] = name.startswith("selfcheck.") or in_selfcheck.get(parent, False)
            if name.startswith("trace."):
                continue
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += own[sid]
            if not in_selfcheck[sid]:
                totals[f"module.{name.split('.')[0]}.self_s"] += own[sid]
        totals["cli.import_s"] += doc["import_s"]
        totals["module.cli.self_s"] += doc["import_s"]
        for key, value in doc["counters"].items():
            totals[key] = max(totals[key], value) if key in PEAK_COUNTERS else totals[key] + value
    hits = totals["grassmannian.flow_polynomial.cache_hits"]
    lookups = hits + totals["grassmannian.flow_polynomial.cache_misses"]
    totals["grassmannian.flow_polynomial.calls"] = lookups
    totals["grassmannian.flow_polynomial.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    candidates = totals["polytope.lattice_point_count.candidates"]
    totals["polytope.lattice_point_count.accept_ratio"] = (
        totals["polytope.lattice_point_count.accepted"] / candidates if candidates else 0.0
    )
    return dict(totals)
