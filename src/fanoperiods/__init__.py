"""Exact-arithmetic workbench for mirror periods of Fano varieties.

Three capabilities share one rational-arithmetic kernel:

* classical periods of Laurent-polynomial mirrors (`laurent`), as
  period sequences with their JSON form (`periods`),
* superpotential charts and their lattice polytopes for Grassmannians
  built from a rectangles-indexed network (`young`, `grassmannian`,
  `polytope`),
* reconstruction of two-point invariants and theta structure constants
  from a quantum period sequence (`frobenius`).

The `cli` module exposes the same capabilities as the `fanoperiods`
command; `selfcheck.run_all` runs the whole invariant battery.

Importing the package runs none of these modules.  Each is put in
`sys.modules` through `importlib.util.LazyLoader`, and its source is
compiled and run on its first attribute read, so a CLI call compiles
only the modules its subcommand reaches (`period`: `laurent` and
`periods`).  The names in `__all__` are read from their modules on
first use (a PEP 562 `__getattr__`).
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec


def _register_lazily(name: str):
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


laurent, periods, polytope, young, frobenius, grassmannian, selfcheck = map(
    _register_lazily,
    ("laurent", "periods", "polytope", "young", "frobenius", "grassmannian", "selfcheck"),
)

_EXPORTS = {
    frobenius: (
        "StructureTable", "ThetaSeries", "associativity_check",
        "reconstruct_N1", "structure_table", "theta_ladder",
    ),
    grassmannian: (
        "build_rectangles_network", "flow_polynomial", "grass_periods",
        "nobody_polytope", "superpotential_chart", "verify_valuations",
    ),
    laurent: ("LaurentPolynomial", "QPolynomial", "classical_periods"),
    periods: ("PeriodSequence",),
    polytope: ("geometry_flags", "lattice_point_count"),
    young: ("BoxContext", "YoungDiagram", "schur_dimension"),
}

__version__ = "0.1.0"

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__all__.append("__version__")


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
