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
    PathLeavesDomain,
    RegularityViolation,
)
from .complexes import (
    CellComplex,
    Domain,
    HatTriangulation,
    Triangulation,
    admissible_domains,
    build_complex,
    euler_char,
    hat_complex,
    triangulate,
)

from .geometry import (
    EUCLIDEAN,
    HYPERBOLIC,
    in_te,
    tetra_angles,
)
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
    delaunay_report,
    develop,
    export_json,
    export_svg,
    gauss_bonnet_check,
    merge_redundant,
)

__all__ = [
    "CapExceeded", "DomainError", "E0EndpointInV0", "HicpError",
    "IndexMismatch", "InvariantViolation", "IoError", "NonRedundantDiagonal",
    "NotClosedSurface", "NotInTE", "PathLeavesDomain", "RegularityViolation",
    "CellComplex", "Domain", "HatTriangulation", "Triangulation",
    "admissible_domains", "build_complex", "euler_char",
    "hat_complex", "triangulate",
    "EUCLIDEAN", "HYPERBOLIC", "in_te", "tetra_angles",
    "AngleData", "FeasibilityReport", "check_feasibility", "make_angle_data",
    "Solution", "SolveOptions", "extract_angles", "omega_solve",
    "reference_coords", "solve",
    "FIXTURES", "fixture_spec", "reference_pattern",
    "SurfaceLayout", "delaunay_report", "develop", "export_json",
    "export_svg", "gauss_bonnet_check", "merge_redundant",
]

__version__ = "0.1.0"
