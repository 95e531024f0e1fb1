"""Isoclinic subspaces of a quaternionic Hermitian vector space.

Decides isoclinicity, measures the invariant set
(theta_I, theta_J, theta_K, xi, chi, eta, Gamma, Delta), builds chains
and canonical matrices, decomposes into isoclinic addends, and decides
Sp(n)-orbit equivalence. See the README for the coordinate conventions.
"""

__version__ = "0.1.0"

from .analysis import (
    ChainSet,
    Companions,
    IsoclinicProfile,
    TwoPlaneOrbit,
    build_chains,
    certify_isoclinic,
    companions,
    full_profile,
    gamma_delta,
    isoclinic_pair,
    isoclinic_profile_angles,
    omega_K_on_UIJ,
    omega_matrix,
    theta_of_A,
    two_plane_orbit,
)
from .errors import (
    DegenerateChainError,
    DimensionError,
    DocumentError,
    FalsificationError,
    FrameError,
    InfeasibleParametersError,
    IsoclinicError,
    NotIsoclinicError,
    RankDeficiencyError,
    StructureError,
)
from .generators import (
    OracleReport,
    SpElement,
    direct_sum,
    graph_subspace,
    invariance_oracle,
    make_i_complex_4,
    make_profile_4,
    make_quaternionic_line,
    make_rhp,
    make_totally_complex_4,
    make_two_plane,
    random_sp,
)
from .io import SubspaceDocument, document_from_frame, parse_document, serialize_document
from .orbits import (
    Decomposition,
    OrbitLabel,
    canonical_matrices,
    decompose,
    eight_dim_addend,
    orbit_label,
    same_orbit,
)
from .quaternions import (
    AdmissibleBasis,
    CompatibleStructure,
    I,
    J,
    K,
    apply_structure,
    hermitian_product,
)
from .subspaces import (
    Frame,
    OrientedTwoPlane,
    PrincipalAngleResult,
    gram,
    orthonormalize,
    principal_angles,
    project,
)
