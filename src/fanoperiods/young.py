"""Young diagrams bounded by a rectangle, their west-step sets, and the
diagonal statistic driving Grassmannian valuations.

Conventions.  A context (k, n) bounds diagrams inside a box with n - k
rows of length at most k.  A diagram is identified with the monotone
lattice path cutting its southeast border, read from the northeast
corner of the box: n steps total, k of them west and n - k south,
indexed 1..n; `to_steps` and `from_steps` pass between a diagram and
the positions of its west steps.  Cells are (row, column), 1-indexed, top-left justified.

The statistic `max_diag(lam, mu)` is the largest number of cells of
cells(lam) - cells(mu) on one northwest-to-southeast diagonal (constant
content column - row); on these diagonals the boundary-rectangle
variations below change the count by exactly one cell, which is what
the valuation identities need.  Read a row tuple as a partition, zero
beyond its last entry, and let m(c) = #{i >= 1 : lam_i - i >= c}.  The
contents lam_i - i strictly decrease, so those rows are 1..m(c), and
the cells on diagonal c fill the rows -c < i <= m(c): both diagrams'
cells on a diagonal form runs from the same cell, differing in
m_lam(c) - m_mu(c) cells when that is positive.  The maximum sits
where m_lam steps up, at c = lam_t - t, so

    max_diag(lam, mu) = max(0, max_t (t - #{j >= 1 : mu_j - j >= lam_t - t})),

which `max_diag` evaluates in one merge of the two content sequences; a
zero row j of mu has content -j, so once every entry of mu is counted
the count is max(len(mu), t - lam_t).  The statistics run on row
tuples: `theta_valuation_delta` builds no diagram, and `sigma_reflect`
builds only the one it returns.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence, Union

from ._record import Record


class BoxContext(Record):
    """Diagrams with at most n - k rows of length at most k."""

    __slots__ = _fields = ("k", "n")

    def __init__(self, k: int, n: int):
        if not 0 < k < n:
            raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
        self._store(k, n)


class YoungDiagram(Record):
    __slots__ = _fields = ("context", "rows")

    def __init__(self, context: BoxContext, rows: Iterable[int]):
        rows = tuple(map(int, rows))
        while rows and not rows[-1]:
            rows = rows[:-1]
        if rows:
            if rows != tuple(sorted(rows, reverse=True)):
                raise ValueError(f"rows not weakly decreasing: {rows!r}")
            if rows[0] > context.k or rows[-1] < 0:
                raise ValueError(f"rows {rows!r} leave the {context} box")
            if len(rows) > context.n - context.k:
                raise ValueError(f"too many rows for the {context} box: {rows!r}")
        self._store(context, rows)


def to_steps(diagram: YoungDiagram) -> frozenset[int]:
    """Positions of the west steps of the diagram's border path.

    Row i of the (zero-padded) diagram contributes the south step at
    position i + k - rows[i]; west steps fill the complement.
    """
    ctx = diagram.context
    rows = diagram.rows + (0,) * (ctx.n - ctx.k - len(diagram.rows))
    south = {i + ctx.k - r for i, r in enumerate(rows, 1)}
    return frozenset(range(1, ctx.n + 1)) - south


def from_steps(ctx: BoxContext, west: Iterable[int]) -> YoungDiagram:
    """Inverse of `to_steps`: the diagram whose west steps are `west`."""
    west = set(west)
    k, n = ctx.k, ctx.n
    # k members leaving n - k of the labels 1..n unused lie inside 1..n
    south = [s for s in range(1, n + 1) if s not in west]
    if len(west) != k or len(south) != n - k:
        raise ValueError(
            f"a west step set in {ctx} needs {k} members of 1..{n}, "
            f"got {sorted(west)!r}"
        )
    return YoungDiagram(ctx, [i + k - s for i, s in enumerate(south, 1)])


def _require_boundary_index(index: int, ctx: BoxContext) -> None:
    if not 0 <= index < ctx.n:
        raise ValueError(f"boundary index {index} outside 0..{ctx.n - 1}")


def _rectangle_rows(index: int, ctx: BoxContext) -> tuple[int, ...]:
    _require_boundary_index(index, ctx)
    k, m = ctx.k, ctx.n - ctx.k
    return (k,) * index if index <= m else (ctx.n - index,) * m


def _rectangle_box_rows(index: int, ctx: BoxContext) -> tuple[int, ...]:
    _require_boundary_index(index, ctx)
    k, m = ctx.k, ctx.n - ctx.k
    if index < m:
        return (k,) * index + (1,)
    if index == m:
        # (0,)*(m-1) when k = 1: zero rows, which max_diag reads as absent
        return (k - 1,) * (m - 1)
    rest = ctx.n - index
    return (rest + 1,) + (rest,) * (m - 1)


def boundary_rectangle(index: int, ctx: BoxContext) -> YoungDiagram:
    """The i-th frozen rectangle: west steps on the cyclic interval
    [i+1, i+k].  With m = n - k its rows are (k,)*i for i <= m and
    (n-i,)*m otherwise."""
    return YoungDiagram(ctx, _rectangle_rows(index, ctx))


def boundary_rectangle_box(index: int, ctx: BoxContext) -> YoungDiagram:
    """The one-box variation of the i-th frozen rectangle: west steps on
    [i+1, i+k-1] plus the single step i+k+1 (labels cyclic in 1..n).
    With m = n - k its rows are (k,)*i + (1,) for i < m, (k-1,)*(m-1)
    for i = m and (n-i+1,) + (n-i,)*(m-1) otherwise."""
    return YoungDiagram(ctx, _rectangle_box_rows(index, ctx))


def _max_diag(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    best = j = 0
    length = len(mu)
    # a zero row t of lam has content -t, which every mu_j - j with j <= t
    # reaches, so only lam's own rows can give a positive term
    for t, row in enumerate(lam, 1):
        content = row - t
        while j < length and mu[j] - j > content:
            j += 1
        if j >= length and j < -content:
            # past mu's last entry, its zero rows up to t - row reach row - t
            j = -content
        if t - j > best:
            best = t - j
    return best


def max_diag(diagram: YoungDiagram, removed: YoungDiagram) -> int:
    """Largest number of cells of cells(diagram) - cells(removed) on one
    northwest-to-southeast diagonal (constant column - row); the
    diagrams need not share a box."""
    return _max_diag(diagram.rows, removed.rows)


def sigma_reflect(diagram: YoungDiagram) -> YoungDiagram:
    """Reflection into the transposed box, where south steps become west
    steps: the box complement of the conjugate.  Row i of the image, for
    i = 1..k, is n - k minus the length of column k + 1 - i."""
    ctx = diagram.context
    lam, m = diagram.rows, ctx.n - ctx.k
    rows = [m - sum(1 for r in lam if r >= c) for c in range(ctx.k, 0, -1)]
    return YoungDiagram(BoxContext(m, ctx.n), rows)


def valuation_vector(
    diagram: YoungDiagram, seed: Sequence[YoungDiagram]
) -> tuple[int, ...]:
    """The diagonal statistic of `diagram` against each seed diagram in order."""
    return tuple(max_diag(diagram, mu) for mu in seed)


def theta_valuation_delta(i: int, j: int, ctx: BoxContext) -> int:
    """max_diag difference between the one-box variation and the frozen
    rectangle at boundary index i, measured against rectangle j.

    Equals delta_{ij} - delta_{i, n-k} (checked exhaustively in the
    acceptance suite)."""
    mu_j = _rectangle_rows(j, ctx)
    return _max_diag(_rectangle_box_rows(i, ctx), mu_j) - _max_diag(
        _rectangle_rows(i, ctx), mu_j
    )


def all_diagrams(ctx: BoxContext) -> list[YoungDiagram]:
    """Every diagram in the box, ordered by west-step set."""
    k = ctx.k
    diagrams = []
    for west in combinations(range(1, ctx.n + 1), k):
        # the south steps between the (j-1)-th and j-th west step are rows
        # of length k + 1 - j; those after the last one are zero rows, which
        # a diagram does not store
        rows, previous = (), 0
        for length, step in zip(range(k, 0, -1), west):
            rows += (length,) * (step - previous - 1)
            previous = step
        # a partition inside the box by construction: store it unchecked
        diagram = YoungDiagram.__new__(YoungDiagram)
        diagram._store(ctx, rows)
        diagrams.append(diagram)
    return diagrams


def schur_dimension(shape: Union[YoungDiagram, Sequence[int]], n: int) -> int:
    """Dimension of the Schur module of the given shape for GL(n), by the
    hook content formula."""
    rows = tuple(shape.rows if isinstance(shape, YoungDiagram) else shape)
    rows = tuple(int(r) for r in rows)
    while rows and rows[-1] == 0:
        rows = rows[:-1]
    if any(a < b for a, b in zip(rows, rows[1:])) or any(r < 0 for r in rows):
        raise ValueError(f"not a partition: {rows!r}")
    if len(rows) > n:
        raise ValueError(f"shape {rows!r} has more than {n} rows")
    if not rows:
        return 1
    conjugate = [sum(1 for r in rows if r >= j) for j in range(1, rows[0] + 1)]
    value = Fraction(1)
    for i, r in enumerate(rows, 1):
        for j in range(1, r + 1):
            hook = (r - j) + (conjugate[j - 1] - i) + 1
            value *= Fraction(n + j - i, hook)
    if value.denominator != 1:
        raise ArithmeticError(f"hook content formula gave a non-integer: {value}")
    return int(value)
