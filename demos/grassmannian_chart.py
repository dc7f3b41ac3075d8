"""Walk the Grassmannian pipeline for Gr(2,4): frozen coordinates, theta
summands, the superpotential, its polytope, and the period head.

Run from the repository root:

    python3 demos/grassmannian_chart.py
"""

from fanoperiods.grassmannian import (
    flow_polynomial,
    grass_periods,
    nobody_polytope,
    superpotential_chart,
    theta_restriction,
)
from fanoperiods.polytope import geometry_flags, lattice_point_count
from fanoperiods.young import BoxContext, all_diagrams, boundary_rectangle, schur_dimension


def show(label: str, value) -> None:
    print(f"  {label}: {value}")


def main() -> None:
    ctx = BoxContext(2, 4)
    chart = superpotential_chart(ctx)

    print("network chart")
    show("variables", ", ".join(chart.names))
    print("frozen coordinates as flow polynomials")
    for diagram in all_diagrams(ctx):
        poly = flow_polynomial(diagram)
        show(f"p_{diagram.rows or '()'}", f"{len(poly.terms)} term(s)")

    print("theta summands (restrictions of neighbor over frozen)")
    for i in range(ctx.n):
        mu = boundary_rectangle(i, ctx)
        show(f"theta_{i} (rectangle {mu.rows or '()'})", theta_restriction(i, ctx))

    print("superpotential")
    show("monomials", len(chart.terms))

    system = nobody_polytope(ctx)
    flags = geometry_flags(system)
    print("polytope of the superpotential support")
    show("dimension", system.dim)
    show("facets", len(system.facets))
    show("bounded / full dimensional / origin interior", tuple(flags))
    for r in (1, 2):
        count = lattice_point_count(system, r)
        expected = schur_dimension((4 * r, 4 * r), 4)
        show(f"lattice points at dilation {r}", f"{count} (hook content: {expected})")

    print("period head")
    for d, coeff in enumerate(grass_periods(ctx, 8)):
        if not coeff.is_zero():
            show(f"c_{d}", coeff)


if __name__ == "__main__":
    main()
