"""Group-symmetry accelerated projected gradient descent for linear inverse
problems, with a certificate engine for its linear convergence rate.

The root exports the names that README's Python API and ``perfbench/``
import; every other name lives in its module."""

from .bench import build_problem, full_coverage_radius
from .certificate import bound_curve, certify, verify_bound
from .constraint import Box, DescentCone, restricted_min_eig
from .kernels import NUMBA_ENABLED
from .linop import LinearMap, gram_dense, spectral_norm
from .solver import SolverConfig, run, run_ensemble
from .symmetry import GroupAction, SymmetricSubset, sample_action, symmetric_subset

# only perfbench/ reads restricted_min_eig, sample_action and NUMBA_ENABLED;
# ROADMAP item 1 deletes them once the benchmark stops reading them

__version__ = "0.1.0"
