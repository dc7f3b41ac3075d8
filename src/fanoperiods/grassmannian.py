"""The rectangles-seed network chart of the Grassmannian.

Flow polynomials on a small grid network realize the Pluecker
coordinates of Gr(k, n) in the chart attached to the rectangle
diagrams; ratios of consecutive boundary rectangles give the
superpotential summands; the polar of their joint support is the
associated polytope; classical periods of the superpotential produce
the quantum period head of the mirror Grassmannian.

The network lives on a k x (n-k) grid of cells.  Sources sit on the
east edge, one per row, labeled 1..k from the top; the sink below
column c carries boundary label n+1-c, so the n boundary labels read
counterclockwise.  A path enters along its source row heading west and
alternates west runs with south runs, exiting at the bottom of its
sink column.  Each west-to-south turn multiplies the path weight by
the face monomial of the turning cell and each south-to-west turn
divides by it.  The cell at row r, column c is weighted by the
valuation vector of the diagram whose west steps are ([k] minus {r})
together with {n+1-c}; this choice makes the empty flow weightless and
every boundary rectangle a single unit monomial, which the test suite
checks exhaustively at desk scale.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from . import polytope
from ._record import Record
from .laurent import (
    LaurentPolynomial,
    QPolynomial,
    classical_periods,
    min_exponent_vector,
    support,
)
from .young import (
    BoxContext,
    YoungDiagram,
    all_diagrams,
    boundary_rectangle,
    boundary_rectangle_box,
    from_steps,
    to_steps,
    valuation_vector,
)

Cell = tuple[int, int]


class ChartError(ValueError):
    """A frozen Pluecker coordinate failed to restrict to a monomial."""


class GridNetwork(Record):
    """The grid network of the rectangles seed.

    `variable_labels` lists the base face (empty diagram) followed by
    every rectangle in the box but the full one, and matches
    `variable_names` position by position.
    `cell_weights` maps each grid cell to the exponent vector of its
    face monomial.  Equality and hashing are by identity: a network is
    an lru_cache key and its weight mapping is a plain dict.
    """

    __slots__ = _fields = (
        "context", "variable_names", "variable_labels", "cell_weights"
    )
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        context: BoxContext,
        variable_names: tuple[str, ...],
        variable_labels: tuple[YoungDiagram, ...],
        cell_weights: dict[Cell, tuple[int, ...]],
    ):
        self._store(context, variable_names, variable_labels, cell_weights)


@lru_cache(maxsize=None)
def build_rectangles_network(ctx: BoxContext) -> GridNetwork:
    """Deterministic network for the rectangles seed of Gr(k, n)."""
    k, n = ctx.k, ctx.n
    width = n - k
    names = ["x0"]
    variable_labels = [YoungDiagram(ctx, ())]
    # every rectangle but the full box, which comes last
    for rows, cols in list(product(range(1, width + 1), range(1, k + 1)))[:-1]:
        # Single-character indices never collide at desk scale;
        # wider boxes need the separator to keep names distinct.
        names.append(f"x{rows}{cols}" if max(rows, cols) < 10 else f"x{rows}_{cols}")
        variable_labels.append(YoungDiagram(ctx, (cols,) * rows))
    cell_weights: dict[Cell, tuple[int, ...]] = {}
    for row in range(1, k + 1):
        for column in range(1, width + 1):
            west = (frozenset(range(1, k + 1)) - {row}) | {n + 1 - column}
            label = from_steps(ctx, west)
            cell_weights[(row, column)] = valuation_vector(
                label, tuple(variable_labels)
            )
    return GridNetwork(
        context=ctx,
        variable_names=tuple(names),
        variable_labels=tuple(variable_labels),
        cell_weights=cell_weights,
    )


def _vector_add(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(left, right))


def _vector_sub(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(left, right))


@lru_cache(maxsize=None)
def _single_paths(
    net: GridNetwork, source_row: int, sink_column: int
) -> tuple[tuple[frozenset[Cell], tuple[int, ...]], ...]:
    """Monotone staircase paths from a source row to a sink column.

    Each path is reported as (cells, weight) where cells holds every
    grid cell the path passes through, turning cells included.
    """
    k = net.context.k
    zero = (0,) * len(net.variable_names)
    results: list[tuple[frozenset[Cell], tuple[int, ...]]] = []

    def extend(row: int, entry_column: int, cells: frozenset[Cell], weight) -> None:
        passed: set[Cell] = set()
        for turn_column in range(entry_column, sink_column - 1, -1):
            here = cells | passed | {(row, turn_column)}
            turned = _vector_add(weight, net.cell_weights[(row, turn_column)])
            if turn_column == sink_column:
                tail = {(r, sink_column) for r in range(row + 1, k + 1)}
                results.append((frozenset(here | tail), turned))
            else:
                for next_row in range(row + 1, k + 1):
                    descent = here | {
                        (r, turn_column) for r in range(row + 1, next_row + 1)
                    }
                    rejoined = _vector_sub(
                        turned, net.cell_weights[(next_row, turn_column)]
                    )
                    extend(next_row, turn_column - 1, frozenset(descent), rejoined)
            passed.add((row, turn_column))

    extend(source_row, net.context.n - k, frozenset(), zero)
    return tuple(results)


def _terminals(net: GridNetwork, diagram: YoungDiagram) -> tuple[list[int], list[int]]:
    """Source rows and sink columns of the flow labeled by `diagram`."""
    ctx = net.context
    west = to_steps(diagram)
    sources = [r for r in range(1, ctx.k + 1) if r not in west]
    columns = sorted(ctx.n + 1 - s for s in west if s > ctx.k)
    return sources, columns


def _cell_disjoint(paths) -> bool:
    seen: set[Cell] = set()
    for cells, _ in paths:
        if seen & cells:
            return False
        seen |= cells
    return True


@lru_cache(maxsize=None)
def flow_polynomial(net: GridNetwork, diagram: YoungDiagram) -> LaurentPolynomial:
    """Sum of the weights of cell-disjoint path families for `diagram`."""
    if diagram.context != net.context:
        raise ValueError(
            f"diagram context {diagram.context} does not match {net.context}"
        )
    sources, columns = _terminals(net, diagram)
    if not sources:
        return LaurentPolynomial.one(net.variable_names)
    terms: dict[tuple[int, ...], QPolynomial] = {}
    one = QPolynomial.one()
    # The network is planar with sources and sinks in boundary order, so
    # only the order-preserving pairing can give disjoint families.
    options = [_single_paths(net, s, c) for s, c in zip(sources, columns)]
    for family in product(*options):
        if not _cell_disjoint(family):
            continue
        total = family[0][1]
        for _, weight in family[1:]:
            total = _vector_add(total, weight)
        terms[total] = terms.get(total, QPolynomial.zero()) + one
    return LaurentPolynomial(net.variable_names, terms)


def _monomial_quotient(
    numerator: LaurentPolynomial, denominator: LaurentPolynomial
) -> LaurentPolynomial:
    """Divide by a Laurent monomial; ChartError on a wider divisor."""
    if denominator.is_zero() or not denominator.is_monomial():
        raise ChartError(f"chart denominator is not a monomial: {denominator!r}")
    ((shift, coeff),) = denominator.terms.items()
    if not coeff.is_constant():
        raise ChartError("chart denominator carries a Novikov power")
    scale = coeff.constant_value()
    terms = {
        _vector_sub(exponents, shift): value / scale
        for exponents, value in numerator.terms.items()
    }
    return LaurentPolynomial(numerator.names, terms)


def theta_restriction(i: int, ctx: BoxContext) -> LaurentPolynomial:
    """The i-th superpotential summand, before Novikov decoration.

    This is the flow polynomial of the one-box variation of boundary
    rectangle i divided by the (monomial) flow of the rectangle
    itself; a non-monomial denominator signals a network bug and
    raises ChartError.  An index outside 0..n-1 raises ValueError.
    """
    net = build_rectangles_network(ctx)
    numerator = flow_polynomial(net, boundary_rectangle_box(i, ctx))
    denominator = flow_polynomial(net, boundary_rectangle(i, ctx))
    return _monomial_quotient(numerator, denominator)


def superpotential_chart(ctx: BoxContext) -> LaurentPolynomial:
    """Sum of all n summands, with q attached to index n-k.

    The Novikov parameter decorates the summand of the maximal
    rectangle; any of the n cyclic choices gives an isomorphic chart,
    so a fixed deterministic one is used.
    """
    net = build_rectangles_network(ctx)
    total = LaurentPolynomial.zero(net.variable_names)
    for i in range(ctx.n):
        summand = theta_restriction(i, ctx)
        if i == ctx.n - ctx.k:
            summand = summand.map_coefficients(lambda p: p.shift_q(1))
        total = total + summand
    return total


def verify_valuations(ctx: BoxContext) -> list[dict]:
    """Exhaustive check of the valuation identities; returns mismatches.

    Two batteries run over the whole box: the componentwise minimal
    exponent vector of every flow polynomial must be attained and equal
    the diagonal statistic against the seed rectangles, and every theta
    summand must tropicalize coordinatewise to
    [variable label == mu_i] - [i == n-k].  Diagram records use keys
    lambda/expected/got; summand records use theta/expected/got.  An
    empty list means both identities hold.
    """
    net = build_rectangles_network(ctx)
    mismatches: list[dict] = []
    for diagram in all_diagrams(ctx):
        poly = flow_polynomial(net, diagram)
        expected = valuation_vector(diagram, net.variable_labels)
        got, attained = min_exponent_vector(poly)
        if not attained:
            mismatches.append(
                {
                    "lambda": list(diagram.rows),
                    "expected": "attained minimum",
                    "got": "unattained minimum",
                }
            )
        if got != expected:
            mismatches.append(
                {
                    "lambda": list(diagram.rows),
                    "expected": list(expected),
                    "got": list(got),
                }
            )
    for i in range(ctx.n):
        mu = boundary_rectangle(i, ctx)
        drop = 1 if i == ctx.n - ctx.k else 0
        expected_vec = [
            (1 if label == mu else 0) - drop for label in net.variable_labels
        ]
        got_vec, _ = min_exponent_vector(theta_restriction(i, ctx))
        if list(got_vec) != expected_vec:
            mismatches.append(
                {"theta": i, "expected": expected_vec, "got": list(got_vec)}
            )
    return mismatches


def nobody_polytope(ctx: BoxContext) -> polytope.HalfspaceSystem:
    """Polar of the support of the superpotential chart.

    Every summand has positive coefficients, so no term of the sum
    cancels and its support is the joint support of the summands; the
    Novikov power on one summand changes coefficients, not exponents.
    """
    return polytope.polar_from_support(support(superpotential_chart(ctx)))


def grass_periods(ctx: BoxContext, order: int) -> list[QPolynomial]:
    """Period coefficients c_0..c_order of the superpotential chart."""
    return classical_periods(superpotential_chart(ctx), order)
