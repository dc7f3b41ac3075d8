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
`flow_polynomial` takes a diagram, which carries its box.  A path is
its non-increasing turn columns and its cells are one int mask.  A flow
polynomial sums the weights of the cell-disjoint families of one path
per source, walked from the bottom source up and pruned at the first
shared cell (`_flow_counts`).  The valuation report counts those
families by determinant, is refused past MAX_FAMILY_ENTRIES, reads
each minimum off the walk and each diagram's valuations off two Durfee
profiles (`_rectangle_valuations`); only its 2n boundary diagrams become
polynomials.  The chart needs no flow and no face weight: its summands
are closed forms over the variable names (`theta_restriction`), and the
tests keep the flow quotients and valuation vectors as their oracles.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, pairwise, product
from math import comb
from operator import add, sub
from typing import Collection, Mapping

from . import polytope
from .laurent import LaurentPolynomial, QPolynomial, classical_periods
from .young import (
    BoxContext,
    YoungDiagram,
    _require_boundary_index,
    boundary_rectangle,
    boundary_rectangle_box,
    from_steps,
    to_steps,
)

# Paths from one source to one sink, C(n-2, k-1) at most; Gr(10,20) has 48,620,
# Gr(11,22) 184,756.  Flows enumerate them; every emitter is refused past this.
MAX_SINGLE_PATHS = 50_000
# Cells k(n-k); a chart holds about 2 k^2 (n-k)^2 exponent entries.  On 2 vCPUs
# Gr(2,502), at the limit, prints in 0.8 s at 160 MB; Gr(2,1001) took 4.4 s, 630 MB.
MAX_CELLS = 1_000
# Path families times cells k(n-k), the exponent entries a valuation report walks: a time
# bound.  On 2 vCPUs Gr(3,25) (28.6 million) takes 2.5-3.6 s at 21 MB, Gr(2,100) (31.7
# million) 3.0-3.3 s at 24 MB; Gr(4,16) (36.9 million) took 4.0-4.5 s in process.
MAX_FAMILY_ENTRIES = 32_000_000


def _rectangles(ctx: BoxContext) -> list[tuple[int, int]]:
    """(rows, length) of every rectangle in the box but the full one, which comes last."""
    return list(product(range(1, ctx.n - ctx.k + 1), range(1, ctx.k + 1)))[:-1]


def _rectangle_valuations(ctx: BoxContext, rows: tuple[int, ...]) -> tuple[int, ...]:
    """`young.max_diag` of the diagram `rows` against the empty diagram (x0)
    and each of `_rectangles`, in closed form.

    With D(p) = #{s >= 1 : p_s >= s}, the Durfee size of a non-increasing
    p (a prefix, so the count stops at the first s that fails), the
    statistic against a rows of length b is max(D(lam_1 - b, lam_2 - b,
    ...), D(lam_{a+1}, lam_{a+2}, ...)), and against the empty diagram
    D(lam).  Proof from `young`'s merge formula: with x_t = lam_t - t,
    #{j : mu_j - j >= x_t} = min(a, max(0, b - x_t)) + max(0, -x_t - a),
    so each term t - #{...} is max(min(t, lam_t - b), min(t - a, lam_t));
    the largest over t is the larger Durfee size.  So k + 1 "right" and
    n - k + 1 "below" sizes give every entry.
    """
    def durfee(start: int, shift: int) -> int:
        s = 0
        while start + s < len(rows) and rows[start + s] - shift > s:
            s += 1
        return s

    right = [durfee(0, b) for b in range(ctx.k + 1)]
    below = [durfee(a, 0) for a in range(ctx.n - ctx.k + 1)]
    return (right[0], *(max(below[a], right[b]) for a, b in _rectangles(ctx)))


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
def build_rectangles_network(ctx: BoxContext) -> dict[tuple[int, int], tuple[int, ...]]:
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
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Monotone staircase paths from a source row to a sink column.

    A path is its turn columns n-k >= j_s >= ... >= j_k = c: it leaves row
    r heading south at column j_r, so row r holds columns j_r..j_{r-1},
    with j_{s-1} = n-k.  Each path is reported as (cells, weight), where
    bit (r-1)(n-k) + c of the int mask cells marks cell (r, c).
    """
    k, width = ctx.k, ctx.n - ctx.k
    cell_weights = build_rectangles_network(ctx)
    results: list[tuple[int, tuple[int, ...]]] = []
    for turns in combinations_with_replacement(
        range(width, sink_column - 1, -1), k - source_row
    ):
        columns = (width, *turns, sink_column)
        weight, cells = cell_weights[source_row, columns[1]], 0
        for row, (east, west) in enumerate(pairwise(columns), source_row):
            cells |= ((2 << (east - west)) - 1) << ((row - 1) * width + west)
            if row > source_row and west < east:
                turn = map(sub, cell_weights[row, west], cell_weights[row, east])
                weight = tuple(map(add, weight, turn))
        results.append((cells, weight))
    return tuple(results)


def _terminals(ctx: BoxContext, west: Collection[int]) -> tuple[list[int], list[int]]:
    """Source rows and sink columns of the flow with west steps `west`."""
    sources = [r for r in range(1, ctx.k + 1) if r not in west]
    columns = sorted(ctx.n + 1 - s for s in west if s > ctx.k)
    return sources, columns


def _family_count(ctx: BoxContext, west: Collection[int]) -> int:
    """Cell-disjoint path families of the flow with west steps `west`: the
    determinant of its single-path counts (Lindstrom-Gessel-Viennot), by
    fraction-free elimination.  A leading minor counts the families of
    another flow, and no flow is zero, so no pivot is zero."""
    k, width = ctx.k, ctx.n - ctx.k
    sources, columns = _terminals(ctx, west)
    matrix = [[comb(width - c + k - s, k - s) for c in columns] for s in sources]
    previous = pivot = 1
    while matrix:  # Bareiss: each step drops the pivot's row and column
        (pivot, *top), *rest = matrix
        matrix = [
            [(pivot * a - row[0] * b) // previous for a, b in zip(row[1:], top)]
            for row in rest
        ]
        previous = pivot
    return pivot


def _flow_counts(ctx: BoxContext, west: Collection[int]) -> dict[tuple[int, ...], int]:
    """{weight: number of families} over the cell-disjoint path families of
    the flow with west steps `west`, walked one path per source from the
    bottom source up; with no sources the one empty family weighs 1."""
    sources, columns = _terminals(ctx, west)
    # The network is planar with sources and sinks in boundary order, so only
    # the order-preserving pairing gives disjoint families, and in one each
    # path runs south-east of the path above it: a path that misses the path
    # placed just before it misses every path placed, so one check per step
    # is enough.  The bottom source has the fewest paths, so it goes first.
    options = [_single_paths(ctx, s, c) for s, c in zip(sources, columns)]
    counts: dict[tuple[int, ...], int] = {}

    def place(level: int, below: int, total: tuple[int, ...]) -> None:
        if level < 0:
            counts[total] = counts.get(total, 0) + 1
            return
        for cells, weight in options[level]:
            if not below & cells:
                place(level - 1, cells, tuple(map(add, total, weight)))

    place(len(options) - 1, 0, (0,) * len(_variable_names(ctx)))
    return counts


@lru_cache(maxsize=None)
def flow_polynomial(diagram: YoungDiagram) -> LaurentPolynomial:
    """Sum of the weights of cell-disjoint path families for `diagram` on
    the network of its box (`_flow_counts`)."""
    ctx = diagram.context
    return LaurentPolynomial.from_dict(
        _variable_names(ctx), _flow_counts(ctx, to_steps(diagram))
    )


def _min_exponent_vector(terms: Mapping) -> tuple[tuple[int, ...], bool]:
    """Componentwise minimum of the exponent vectors keying `terms`, and
    whether a single term attains it."""
    lower = tuple(map(min, zip(*terms)))
    return lower, lower in terms


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
    weight of every diagram's path families must be attained and equal
    its diagonal statistics against the seed rectangles, in closed form
    (`_rectangle_valuations`), and every theta summand must be the flow
    of the one-box variation of mu_i over the flow of mu_i and
    tropicalize coordinatewise to [variable label == mu_i] - [i == n-k].
    Diagram records use keys lambda/expected/got; summand records use
    theta/expected/got.  An empty list means every identity holds.
    Before any family is walked, a box whose path families times cells
    pass MAX_FAMILY_ENTRIES raises ValueError.  The first battery keeps
    no flow: only the diagrams of the second, two per summand, enter the
    `flow_polynomial` cache.
    """
    # the box limits refuse first, then the family count, before any diagram
    families, cells = 0, len(_variable_names(ctx))
    for west in combinations(range(1, ctx.n + 1), ctx.k):
        families += _family_count(ctx, west)
        if families * cells > MAX_FAMILY_ENTRIES:
            raise ValueError(f"Gr({ctx.k},{ctx.n}) has at least {families} path "
                             f"families of {cells} exponents each, {families * cells} "
                             f"in all, above the limit of {MAX_FAMILY_ENTRIES}")
    mismatches: list[dict] = []
    for west in combinations(range(1, ctx.n + 1), ctx.k):
        lam = from_steps(ctx, west).rows
        expected = _rectangle_valuations(ctx, lam)
        got, attained = _min_exponent_vector(_flow_counts(ctx, west))
        if not attained:
            mismatches.append({"lambda": list(lam), "expected": "attained minimum",
                               "got": "unattained minimum"})
        if got != expected:
            mismatches.append({"lambda": list(lam), "expected": list(expected),
                               "got": list(got)})
    # the rows of the base face and the rectangles, in the order of the chart variables
    labels = [()] + [(cols,) * rows for rows, cols in _rectangles(ctx)]
    for i in range(ctx.n):
        mu = boundary_rectangle(i, ctx)
        drop = 1 if i == ctx.n - ctx.k else 0
        expected_vec = [(1 if label == mu.rows else 0) - drop for label in labels]
        theta = theta_restriction(i, ctx)
        box = flow_polynomial(boundary_rectangle_box(i, ctx))
        if box != theta * flow_polynomial(mu):
            mismatches.append({"theta": i, "expected": "the flow quotient",
                               "got": "another summand"})
        got_vec, _ = _min_exponent_vector(theta.terms)
        if list(got_vec) != expected_vec:
            mismatches.append({"theta": i, "expected": expected_vec, "got": list(got_vec)})
    return mismatches


def nobody_polytope(ctx: BoxContext) -> polytope.HalfspaceSystem:
    """Polar of the support of the superpotential chart.

    Every summand has positive coefficients, so no term of the sum
    cancels and its support is the joint support of the summands; the
    Novikov power on one summand changes coefficients, not exponents.
    """
    return polytope.polar_from_support(superpotential_chart(ctx).terms)


def grass_periods(ctx: BoxContext, order: int) -> list[QPolynomial]:
    """Period coefficients c_0..c_order of the superpotential chart."""
    return classical_periods(superpotential_chart(ctx), order)
