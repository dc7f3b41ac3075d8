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
divides by it.  With m = n - k, the cell at row r, column c weighs x0
times every rectangle not containing the (m+1-c) x (k+1-r) box: the
valuation vector of the diagram with west steps ([k] minus {r}) and
n+1-c, which makes the empty flow weightless and every boundary
rectangle a unit monomial.  Everything is keyed by the box: its chart
variables are a closed form, cached with both box limits;
`build_rectangles_network` tabulates the face weights, and
`flow_polynomial` takes a diagram, which carries its box.  A flow
polynomial sums the weights of the cell-disjoint families of one path
per source, walked from the bottom source up and pruned at the first
shared cell.  The chart needs no flow and no face weight: its summands
are closed forms over the variable names (`theta_restriction`), and the
tests keep the flow quotients and valuation vectors as their oracles.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb
from operator import add, sub

from . import polytope
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
    _require_boundary_index,
    all_diagrams,
    boundary_rectangle,
    boundary_rectangle_box,
    to_steps,
    valuation_vector,
)

Cell = tuple[int, int]

# Paths from one source to one sink, C(n-2, k-1) at most; Gr(10,20) has 48,620,
# Gr(11,22) 184,756.  Flows enumerate them; every emitter is refused past this.
MAX_SINGLE_PATHS = 50_000
# Cells k(n-k); a chart holds about 2 k^2 (n-k)^2 exponent entries.  On 2 vCPUs
# Gr(2,502), at the limit, prints in 0.8 s at 160 MB; Gr(2,1001) took 4.4 s, 630 MB.
MAX_CELLS = 1_000


def _rectangles(ctx: BoxContext) -> list[tuple[int, int]]:
    """(rows, length) of every rectangle in the box but the full one, which comes last."""
    return list(product(range(1, ctx.n - ctx.k + 1), range(1, ctx.k + 1)))[:-1]


@lru_cache(maxsize=None)
def _variable_names(ctx: BoxContext) -> tuple[str, ...]:
    """x0 for the base face, then x{rows}{length} for each of `_rectangles`;
    the box is refused past MAX_SINGLE_PATHS, then past MAX_CELLS."""
    k, n = ctx.k, ctx.n
    if (paths := comb(n - 2, k - 1)) > MAX_SINGLE_PATHS:
        raise ValueError(f"Gr({k},{n}) has {paths} paths from one source to one sink, "
                         f"above the limit of {MAX_SINGLE_PATHS}")
    if (cells := k * (n - k)) > MAX_CELLS:
        raise ValueError(f"Gr({k},{n}) has {cells} cells, "
                         f"above the limit of {MAX_CELLS}")
    # Single-character indices never collide at desk scale;
    # wider boxes need the separator to keep names distinct.
    return ("x0",) + tuple(
        f"x{rows}{cols}" if max(rows, cols) < 10 else f"x{rows}_{cols}"
        for rows, cols in _rectangles(ctx)
    )


@lru_cache(maxsize=None)
def build_rectangles_network(ctx: BoxContext) -> dict[Cell, tuple[int, ...]]:
    """Face weights of the rectangles-seed network of Gr(k, n): each grid
    cell maps to the exponent vector of its face monomial over the chart
    variables.  The box limits refuse it as they refuse the chart."""
    _variable_names(ctx)
    k, width = ctx.k, ctx.n - ctx.k
    rectangles = _rectangles(ctx)
    # x0 and every rectangle not containing the (width+1-c) x (k+1-r) box
    return {
        (r, c): (1,) + tuple(int(a <= width - c or b <= k - r) for a, b in rectangles)
        for r in range(1, k + 1)
        for c in range(1, width + 1)
    }


@lru_cache(maxsize=None)
def _single_paths(
    ctx: BoxContext, source_row: int, sink_column: int
) -> tuple[tuple[frozenset[Cell], tuple[int, ...]], ...]:
    """Monotone staircase paths from a source row to a sink column.

    Each path is reported as (cells, weight) where cells holds every
    grid cell the path passes through, turning cells included.
    """
    k = ctx.k
    cell_weights = build_rectangles_network(ctx)
    zero = (0,) * len(_variable_names(ctx))
    results: list[tuple[frozenset[Cell], tuple[int, ...]]] = []

    def extend(row: int, entry_column: int, cells: frozenset[Cell], weight) -> None:
        passed: set[Cell] = set()
        for turn_column in range(entry_column, sink_column - 1, -1):
            here = cells | passed | {(row, turn_column)}
            turned = tuple(map(add, weight, cell_weights[(row, turn_column)]))
            if turn_column == sink_column:
                tail = {(r, sink_column) for r in range(row + 1, k + 1)}
                results.append((frozenset(here | tail), turned))
            else:
                for next_row in range(row + 1, k + 1):
                    descent = here | {
                        (r, turn_column) for r in range(row + 1, next_row + 1)
                    }
                    rejoined = tuple(
                        map(sub, turned, cell_weights[(next_row, turn_column)])
                    )
                    extend(next_row, turn_column - 1, frozenset(descent), rejoined)
            passed.add((row, turn_column))

    extend(source_row, ctx.n - k, frozenset(), zero)
    return tuple(results)


def _terminals(diagram: YoungDiagram) -> tuple[list[int], list[int]]:
    """Source rows and sink columns of the flow labeled by `diagram`."""
    ctx = diagram.context
    west = to_steps(diagram)
    sources = [r for r in range(1, ctx.k + 1) if r not in west]
    columns = sorted(ctx.n + 1 - s for s in west if s > ctx.k)
    return sources, columns


@lru_cache(maxsize=None)
def flow_polynomial(diagram: YoungDiagram) -> LaurentPolynomial:
    """Sum of the weights of cell-disjoint path families for `diagram` on
    the network of its box, walked one path per source from the bottom
    source up; the empty diagram has no sources and its one empty family
    weighs 1."""
    ctx = diagram.context
    names = _variable_names(ctx)
    sources, columns = _terminals(diagram)
    # The network is planar with sources and sinks in boundary order, so only
    # the order-preserving pairing gives disjoint families, and in one each
    # path runs south-east of the path above it: a path that misses the path
    # placed just before it misses every path placed, so one check per step
    # is enough.  The bottom source has the fewest paths, so it goes first.
    options = [_single_paths(ctx, s, c) for s, c in zip(sources, columns)]
    counts: dict[tuple[int, ...], int] = {}

    def place(level: int, below: frozenset[Cell], total: tuple[int, ...]) -> None:
        if level < 0:
            counts[total] = counts.get(total, 0) + 1
            return
        for cells, weight in options[level]:
            if below.isdisjoint(cells):
                place(level - 1, cells, tuple(map(add, total, weight)))

    place(len(options) - 1, frozenset(), (0,) * len(names))
    terms = {total: QPolynomial.of(count) for total, count in counts.items()}
    return LaurentPolynomial(names, terms)


def _summand_exponents(i: int, ctx: BoxContext, rank: int) -> list[tuple[int, ...]]:
    """Exponent vectors of summand i; x{r}{c} sits at (r-1)k + c after x0."""
    k, m = ctx.k, ctx.n - ctx.k
    if i == m:
        return [(-1,) * rank]
    if i < m:
        run = [(i - 1) * k + c for c in range(1, k + 1)] if i else [0]
    else:
        run = [(r - 1) * k + ctx.n - i for r in range(1, m + 1)]
    vector, vectors = [0] * rank, []
    for position in reversed(run):
        vector[position] = 1
        vectors.append(tuple(vector))
    return vectors


def theta_restriction(i: int, ctx: BoxContext) -> LaurentPolynomial:
    """The i-th superpotential summand, before Novikov decoration.

    This is the flow of the one-box variation of boundary rectangle i
    divided by the unit monomial flow of the rectangle, in closed form
    (m = n - k, x[r][c] the rectangle of r rows of length c): x0 for
    i = 0; the k runs x[i][c]...x[i][k] for 0 < i < m; 1/(x0 times every
    variable) for i = m; the m runs x[r][n-i]...x[m][n-i] for i > m.
    An index outside 0..n-1 raises ValueError.
    """
    _require_boundary_index(i, ctx)
    names = _variable_names(ctx)
    exponents = _summand_exponents(i, ctx, len(names))
    return LaurentPolynomial(names, dict.fromkeys(exponents, QPolynomial.one()))


def superpotential_chart(ctx: BoxContext) -> LaurentPolynomial:
    """Sum of all n summands, with q attached to index n-k.

    The Novikov parameter decorates the summand of the maximal
    rectangle; any of the n cyclic choices gives an isomorphic chart,
    so a fixed deterministic one is used.  No two summands share a term.
    """
    names = _variable_names(ctx)
    one, q, terms = QPolynomial.one(), QPolynomial.of(1, 1), {}
    for i in range(ctx.n):
        coeff = q if i == ctx.n - ctx.k else one
        terms.update(dict.fromkeys(_summand_exponents(i, ctx, len(names)), coeff))
    return LaurentPolynomial(names, terms)


def verify_valuations(ctx: BoxContext) -> list[dict]:
    """Exhaustive check of the valuation identities; returns mismatches.

    Two batteries run over the whole box: the componentwise minimal
    exponent vector of every flow polynomial must be attained and equal
    the diagonal statistic against the seed rectangles, and every theta
    summand must be the flow of the one-box variation of mu_i over the
    flow of mu_i and tropicalize coordinatewise to
    [variable label == mu_i] - [i == n-k].  Diagram records use keys
    lambda/expected/got; summand records use theta/expected/got.  An
    empty list means every identity holds.
    """
    _variable_names(ctx)  # refuses the box before any diagram is built
    # the base face and the rectangles, in the order of the chart variables
    labels = [YoungDiagram(ctx, ())] + [
        YoungDiagram(ctx, (cols,) * rows) for rows, cols in _rectangles(ctx)
    ]
    mismatches: list[dict] = []
    for diagram in all_diagrams(ctx):
        poly = flow_polynomial(diagram)
        expected = valuation_vector(diagram, labels)
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
        expected_vec = [(1 if label == mu else 0) - drop for label in labels]
        theta = theta_restriction(i, ctx)
        box = flow_polynomial(boundary_rectangle_box(i, ctx))
        if box != theta * flow_polynomial(mu):
            mismatches.append(
                {"theta": i, "expected": "the flow quotient", "got": "another summand"}
            )
        got_vec, _ = min_exponent_vector(theta)
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
