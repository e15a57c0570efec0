"""Group-symmetry accelerated projected gradient descent for linear inverse
problems, with a certificate engine for its linear convergence rate."""

from .bench import (
    Geometry,
    ProblemInstance,
    add_noise,
    angle_subsampled_operator,
    build_problem,
    full_coverage_radius,
    ring_phantom,
    textured_phantom,
)
from .certificate import (
    BoundVacuousError,
    CertificateReport,
    DominationReport,
    bound_curve,
    bound_limit,
    certify,
    verify_bound,
)
from .constraint import (
    Box,
    ConstraintSet,
    DescentCone,
    L1Ball,
    Nonneg,
    Subspace,
    descent_cone_of,
    restricted_min_eig,
)
from .kernels import NUMBA_ENABLED
from .linop import (
    DimensionMismatchError,
    LinearMap,
    SizeCapError,
    from_dense,
    gram_dense,
    spectral_norm,
)
from .solver import (
    DivergenceError,
    IterateTrace,
    SolverConfig,
    group_pgd_step,
    pgd_step,
    run,
    run_ensemble,
)
from .symmetry import (
    GroupAction,
    SymmetricSubset,
    cyclic_shift_action,
    identity_action,
    polar_theta_shift,
    sample_action,
    symmetric_subset,
)

__version__ = "0.1.0"
