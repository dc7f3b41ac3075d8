"""Command-line front door: subcommands, file I/O, and the mirror catalog.

Every subcommand is deterministic (identical argv and input files give
byte-identical primary output) and every number is emitted as an exact
decimal or fraction string.  Exit codes: 0 on success, 1 on a domain
error (unreadable file, inconsistent data, impossible parameters), 2 on
a usage error (unknown subcommand or flag grammar).  A canonical argv is
read straight from the grammar table; argparse, built from the same table,
is imported only for help, usage errors and the forms it alone accepts.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import NamedTuple, Sequence

from . import frobenius, grassmannian, periods, polytope, selfcheck, young
from .laurent import (
    LaurentPolynomial,
    QPolynomial,
    _bounded_int,
    classical_periods,
    laurent_from_json,
    laurent_to_json,
    support,
)


class CatalogEntry(NamedTuple):
    """A built-in mirror with its expected regularized period head.

    The period head (c_0..c_6, exact strings) is regression data: the
    values were computed by this package's own period engine and
    cross-checked against closed-form coefficient counts before being
    frozen here.
    """

    name: str
    mirror: LaurentPolynomial
    fano_index: int
    description: str
    period_head: tuple[str, ...]


def _plain_mirror(names: Sequence[str], *exponents: tuple[int, ...]) -> LaurentPolynomial:
    return LaurentPolynomial.from_dict(tuple(names), {e: 1 for e in exponents})


_CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "p1",
        _plain_mirror(("x",), (1,), (-1,)),
        2,
        "projective line",
        ("1", "0", "2", "0", "6", "0", "20"),
    ),
    CatalogEntry(
        "p2",
        _plain_mirror(("x", "y"), (1, 0), (0, 1), (-1, -1)),
        3,
        "projective plane",
        ("1", "0", "0", "6", "0", "0", "90"),
    ),
    CatalogEntry(
        "p1xp1",
        _plain_mirror(("x", "y"), (1, 0), (-1, 0), (0, 1), (0, -1)),
        2,
        "product of two projective lines",
        ("1", "0", "4", "0", "36", "0", "400"),
    ),
    CatalogEntry(
        "p3",
        _plain_mirror(("x", "y", "z"), (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
        4,
        "projective space of dimension three",
        ("1", "0", "0", "0", "24", "0", "0"),
    ),
)


def catalog(name: str) -> CatalogEntry | list[CatalogEntry]:
    """Entry lookup, or the full listing under the name "list"."""
    if name == "list":
        return list(_CATALOG)
    for entry in _CATALOG:
        if entry.name == name:
            return entry
    known = ", ".join(e.name for e in _CATALOG)
    raise ValueError(f"unknown catalog entry {name!r} (known: {known})")


def _entry_document(entry: CatalogEntry) -> dict:
    return {
        "name": entry.name,
        "description": entry.description,
        "fano_index": entry.fano_index,
        "mirror": laurent_to_json(entry.mirror),
        "period_head": list(entry.period_head),
    }


# ---------------------------------------------------------------------------
# shared plumbing


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, parse_int=_bounded_int)
        except RecursionError:
            raise ValueError(f"{path}: the JSON nests too deeply to read") from None


def _emit(payload, out_path: str | None) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _set_q_to_one(f: LaurentPolynomial) -> LaurentPolynomial:
    # q = 1 is a ring homomorphism that every later step commutes with, so --q one
    # is set on the input: this mirror, or the period sequence in _cmd_frobenius
    return f.map_coefficients(lambda c: QPolynomial.of(c.specialize_q(1)))


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# subcommand handlers; each returns the JSON-ready payload
# (or a (payload, exit_code) pair)


def _period_document(f: LaurentPolynomial, order: int) -> dict:
    sequence = periods.PeriodSequence(tuple(classical_periods(f, order)))
    return periods.periods_to_json(sequence)


def _polytope_document(system, order: int) -> dict:
    if order > polytope.MAX_WALK_NODES:
        # refused before anything is built: a nonempty count walks at least one node
        raise ValueError(
            f"--order {order} is above {polytope.MAX_WALK_NODES}, the limit of "
            "nodes that the lattice counts of one document walk together"
        )
    return polytope.build_document(system, order)


def _cmd_period(args):
    f = laurent_from_json(_load_json(args.poly))
    return _period_document(_set_q_to_one(f) if args.q == "one" else f, args.order)


def _cmd_polytope(args):
    f = laurent_from_json(_load_json(args.poly))
    return _polytope_document(polytope.polar_from_support(support(f)), args.order)


def _cmd_grassmannian(args):
    ctx = young.BoxContext(args.k, args.n)
    if args.emit == "polytope":
        order = 1 if args.order is None else args.order
        return _polytope_document(grassmannian.nobody_polytope(ctx), order)
    if args.emit == "valuations":
        return grassmannian.verify_valuations(ctx)
    chart = grassmannian.superpotential_chart(ctx)
    if args.q == "one":
        chart = _set_q_to_one(chart)
    if args.emit == "periods":
        return _period_document(chart, 8 if args.order is None else args.order)
    return laurent_to_json(chart)


def _cmd_frobenius(args):
    sequence = periods.periods_from_json(_load_json(args.periods))
    if args.q == "one":
        # each c_d is one monomial in q, and so is every tail and table entry:
        # none is nonzero in Q[q] but zero at q = 1, so the same entries print
        sequence = periods.PeriodSequence([c.specialize_q(1) for c in sequence.coeffs])
    series = frobenius.theta_ladder(sequence, args.max_p)
    if args.emit == "series":
        return frobenius.series_records(series)
    return frobenius.table_records(frobenius.structure_table(series, args.max_p))


def _cmd_catalog(args):
    found = catalog(args.name)
    if isinstance(found, list):
        return [_entry_document(entry) for entry in found]
    return _entry_document(found)


def _cmd_selfcheck(args):
    results = selfcheck.run_all()
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"{status} {result.name}: {result.detail}")
        print(f"{result.name}: {result.seconds * 1000:.1f}ms", file=sys.stderr)
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n", (0 if passed == len(results) else 1)


# ---------------------------------------------------------------------------
# argument grammar: per subcommand its handler, its help and the argparse
# keyword arguments of each flag.  Both the argparse parser (help and usage
# errors) and the exact reader (every canonical call) are built from it.

_Q_FLAG = ("--q", {
    "choices": ("keep", "one"), "default": "keep",
    "help": "keep the Novikov parameter symbolic, or set q = 1 (default keep)"})
_POLY_FLAG = ("--poly", {
    "required": True, "metavar": "FILE", "help": "Laurent polynomial JSON input"})
_OUT_FLAG = ("--out", {
    "metavar": "FILE", "default": None,
    "help": "write primary output to FILE instead of standard output"})

_COMMANDS = {
    "period": (_cmd_period, "constant terms of powers of a Laurent polynomial", (
        _POLY_FLAG,
        ("--order", {"type": _nonnegative_int, "default": 10, "metavar": "N",
                     "help": "largest power to expand (default 10)"}),
        _Q_FLAG,
        _OUT_FLAG,
    )),
    "polytope": (_cmd_polytope, "polar dual of the support of a Laurent polynomial", (
        _POLY_FLAG,
        ("--order", {"type": _nonnegative_int, "default": 2, "metavar": "N",
                     "help": "count lattice points in dilations 1..N (default 2)"}),
        _OUT_FLAG,
    )),
    "grassmannian": (
        _cmd_grassmannian, "superpotential chart, polytope, periods, or valuation report", (
            ("--k", {"required": True, "type": _positive_int, "metavar": "K",
                     "help": "subspace dimension"}),
            ("--n", {"required": True, "type": _positive_int, "metavar": "N",
                     "help": "ambient dimension"}),
            ("--emit", {"choices": ("superpotential", "polytope", "periods", "valuations"),
                        "default": "superpotential",
                        "help": "which artifact to produce (default superpotential)"}),
            ("--order", {"type": _nonnegative_int, "default": None, "metavar": "N",
                         "help": "period order (default 8) or largest counted dilation "
                                 "(default 1); ignored by the other emitters"}),
            _Q_FLAG,
            _OUT_FLAG,
        )),
    "frobenius": (
        _cmd_frobenius, "theta series and structure constants from a period file", (
            ("--periods", {
                "required": True, "metavar": "FILE",
                "help": 'period JSON input: {"index": 3, "coeffs": ["1", "0", ...]}'}),
            ("--max-p", {"type": _positive_int, "default": 4, "metavar": "P",
                         "help": "largest theta index to reconstruct; the input order "
                                 "bounds what is reachable (default 4)"}),
            ("--emit", {
                "choices": ("table", "series"), "default": "table",
                "help": "structure-constant records or the theta series tails (default table)"}),
            _Q_FLAG,
            _OUT_FLAG,
        )),
    "catalog": (_cmd_catalog, "built-in mirrors with frozen period heads", (
        ("name", {"nargs": "?", "default": "list",
                  "help": 'entry name, or "list" for every entry (default list)'}),
        _OUT_FLAG,
    )),
    "selfcheck": (
        _cmd_selfcheck, "run the full invariant battery and report pass/fail", (_OUT_FLAG,)),
}


def _dest(name: str) -> str:
    # the attribute argparse stores a flag under: --max-p gives max_p
    return name.lstrip("-").replace("-", "_")


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="fanoperiods",
        description=(
            "Exact-arithmetic workbench: classical periods of Laurent "
            "polynomial mirrors, Grassmannian superpotential charts with "
            "their lattice polytopes, and theta structure constants "
            "reconstructed from period sequences."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, flags) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        for name, options in flags:
            command_parser.add_argument(name, **options)
        command_parser.set_defaults(handler=handler)
    return parser


def _read_exact(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse builds for a canonical call, or None.

    Canonical: a subcommand, its positional (if it has one and it comes
    first), then known long flags, each once, each with a separate value
    that does not start with "-".  Every other argv, help and usage errors
    included, is left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, flags = _COMMANDS[argv[0]]
    args = {"command": argv[0], "handler": handler}
    tokens = list(argv[1:])
    for name, _ in flags:
        if not name.startswith("-") and tokens and not tokens[0].startswith("-"):
            args[name] = tokens.pop(0)
    if len(tokens) % 2:
        return None
    options = {name: spec for name, spec in flags if name.startswith("--")}
    for flag, text in zip(tokens[::2], tokens[1::2]):
        spec = options.get(flag)
        if spec is None or _dest(flag) in args or text.startswith("-"):
            return None
        try:
            value = spec["type"](text) if "type" in spec else text
        except Exception:
            # argparse runs the converter again and reports what it raised
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        args[_dest(flag)] = value
    for name, spec in flags:
        if _dest(name) not in args:
            if spec.get("required"):
                return None
            args[_dest(name)] = spec.get("default")
    return SimpleNamespace(**args)


def run(argv: Sequence[str]) -> int:
    """Execute one subcommand; returns the process exit code."""
    args = _read_exact(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(list(argv))
        except SystemExit as stop:
            return stop.code if isinstance(stop.code, int) else 2
    code = 0
    # inputs are bounded by laurent.MAX_INPUT_DIGITS; exact results may run longer
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        payload = args.handler(args)
        if isinstance(payload, tuple):
            payload, code = payload
        _emit(payload, args.out)
    except (OSError, ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError:
        # the traceback holds the work until this clause ends; report after it
        code = None
    finally:
        sys.set_int_max_str_digits(limit)
    if code is None:
        print(f"error: the {args.command} request ran out of memory", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
