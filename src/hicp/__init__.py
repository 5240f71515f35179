"""Circle patterns with hyper-ideal centers: combinatorics, feasibility,
variational solver, and layout export."""

from .errors import (
    CapExceeded,
    DomainError,
    E0EndpointInV0,
    HicpError,
    IndexMismatch,
    InvariantViolation,
    IoError,
    NonRedundantDiagonal,
    NotClosedSurface,
    NotInTE,
    RegularityViolation,
)
from .complexes import (
    CellComplex,
    HatTriangulation,
    Triangulation,
    build_complex,
    hat_complex,
    triangulate,
)

from .geometry import EUCLIDEAN, HYPERBOLIC
from .polytope import (
    AngleData,
    FeasibilityReport,
    check_feasibility,
    make_angle_data,
)
from .solver import (
    Solution,
    SolveOptions,
    extract_angles,
    reference_coords,
    solve,
)
from .fixtures import FIXTURES, fixture_spec, omega_solve, reference_pattern
from .layout import (
    SurfaceLayout,
    develop,
    export_json,
    export_svg,
    gauss_bonnet_check,
    merge_redundant,
)

__all__ = [
    "CapExceeded", "DomainError", "E0EndpointInV0", "HicpError",
    "IndexMismatch", "InvariantViolation", "IoError", "NonRedundantDiagonal",
    "NotClosedSurface", "NotInTE", "RegularityViolation",
    "CellComplex", "HatTriangulation", "Triangulation", "build_complex",
    "hat_complex", "triangulate",
    "EUCLIDEAN", "HYPERBOLIC",
    "AngleData", "FeasibilityReport", "check_feasibility", "make_angle_data",
    "Solution", "SolveOptions", "extract_angles", "omega_solve",
    "reference_coords", "solve",
    "FIXTURES", "fixture_spec", "reference_pattern",
    "SurfaceLayout", "develop", "export_json",
    "export_svg", "gauss_bonnet_check", "merge_redundant",
]

__version__ = "0.1.0"
