"""Matrix homotopies between close tuples of commuting normal contractions.

The package constructs piecewise-analytic paths ("links") joining two
delta-close tuples of commuting normal contractions while controlling
normality, pairwise commutation, and distance to the target along the way,
lifts them through Z2 dilations, and ships the supporting machinery: joint
spectra, bottleneck spectral matching, Clifford norms, clock/shift pairs
with Bott indices, and a small relation-checking DSL.
"""

from .matcore import (
    BranchPointError,
    DiagnosticsError,
    PreconditionError,
    adjoint,
    as_cmatrix,
    commutator,
    exp_i_herm,
    gap_branch_log,
    herm_eig,
    normal_eig,
    op_norm,
    principal_log_unitary,
)
from .jointspec import (
    JointSpectrum,
    NormalTuple,
    clifford_norm,
    clifford_rep,
    joint_diagonalize,
    joint_spectrum,
)
from .spectral_match import (
    Approximant,
    Matching,
    bottleneck_assign,
    isospectral_approximant,
    spectral_cost_matrix,
)
from .homotopy import (
    Certificate,
    CertTolerances,
    Conj,
    Flat,
    Geo,
    LinkBundle,
    MatrixPath,
    certify,
    path_curvature,
    path_length,
    project_solid_torus,
    toral_links,
    ujc_links,
    unitary_contraction_path,
)
from .lifting import (
    LiftedHom,
    iota2,
    kappa_compress,
    lifted_links,
)
from .softtorus import (
    BottResult,
    ClockShift,
    GapUndefinedError,
    SoftPair,
    SpanNotStabilizedError,
    algebra_dimension,
    bott_index,
    clock_shift,
    soft_pair,
)
from .ncrel import (
    MembershipReport,
    NCPoly,
    ParseError,
    Relation,
    RelationSet,
    evaluate,
    membership,
    parse,
    preset,
    to_text,
    variable,
)

__version__ = "0.1.0"
