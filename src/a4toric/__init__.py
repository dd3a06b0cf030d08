"""Exact intersection theory of the two toroidal compactifications of
the moduli space of principally polarized abelian fourfolds.

The package computes, in exact rational arithmetic throughout:

* the top self-intersection of the weight-one class from the closed
  proportionality formula (`proportionality`),
* the boundary intersection table of the first compactification via a
  downward recurrence (`tables`),
* the star fan of the exceptional ray of the second compactification,
  built from the norm-2 vectors of an even form, the D4 root form by
  default (`d4fan`),
* the top self-intersection of the exceptional divisor by two
  independent toric engines (`intersection`), and
* the second table, whose corner entry is the toric count divided by
  the order of the form's automorphism group (`tables`).

The `verify` module re-derives and cross-checks all of it; the
`a4toric` command line exposes reports, tables, and the checks.
"""

from .cones import Cone, Facet, Fan, enumerate_facets
from .d4fan import (
    LatticeAutomorphism,
    Stabilizer,
    StarFan,
    build_star_fan,
    compute_stabilizer,
    short_vectors,
)
from .intersection import (
    IntersectionEngine,
    LinearSystem,
    SystemSolution,
    assemble_system,
    build_relations,
    format_monomial,
    parse_monomial,
    solve_system,
)
from .proportionality import ProportionalityResult, bernoulli, l_top
from .tables import (
    FaberData,
    IgusaTable,
    VoronoiTable,
    geometric_basis,
    igusa_table,
    verify_recurrence,
    voronoi_table,
)
from .verify import CheckResult, VerifyReport, run_all

__version__ = "0.1.0"

__all__ = [
    "Cone",
    "Facet",
    "Fan",
    "enumerate_facets",
    "LatticeAutomorphism",
    "Stabilizer",
    "StarFan",
    "build_star_fan",
    "compute_stabilizer",
    "short_vectors",
    "IntersectionEngine",
    "LinearSystem",
    "SystemSolution",
    "assemble_system",
    "build_relations",
    "format_monomial",
    "parse_monomial",
    "solve_system",
    "ProportionalityResult",
    "bernoulli",
    "l_top",
    "FaberData",
    "IgusaTable",
    "VoronoiTable",
    "geometric_basis",
    "igusa_table",
    "verify_recurrence",
    "voronoi_table",
    "CheckResult",
    "VerifyReport",
    "run_all",
    "__version__",
]
