"""Projected gradient descent, its group-action variant, and iterate tracing.

One iteration of the plain method moves against the least-squares gradient
and projects back onto the feasible set.  The group variant first rotates the
iterate by a randomly drawn symmetry action, evaluates the gradient there,
and rotates the result back; with the identity action this reduces
bit-for-bit to the plain step.  A multistage driver runs a schedule of
shrinking symmetry radii, warm-starting each stage from the last.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bench import ProblemInstance
from .constraint import ConstraintSet
from .linop import LinearMap, DimensionMismatchError, spectral_norm
from .symmetry import GroupAction, SymmetricSubset, sample_action, symmetric_subset

__all__ = [
    "SolverConfig",
    "IterateTrace",
    "DivergenceError",
    "pgd_step",
    "group_pgd_step",
    "resolve_step_size",
    "run",
    "run_multistage",
    "run_ensemble",
]

DIVERGENCE_NORM = 1e12


class DivergenceError(RuntimeError):
    """Iterates blew up (non-finite or norm above the guard)."""

    def __init__(self, iteration: int):
        super().__init__(f"iterate diverged at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.

    ``step_size`` is either a positive float or ``"auto"``, which resolves to
    exactly ``1/L``, the reciprocal of the largest eigenvalue of the
    operator's Gram (:func:`~grouppgd.linop.spectral_norm`, the same ``L`` the
    certificate reports).  ``auto`` probes the Gram of the operator's smaller
    side, so it is refused (:class:`~grouppgd.linop.SizeCapError`) when both
    ``rows`` and ``cols`` exceed ``linop.DENSE_CAP``.
    """

    max_iters: int
    step_size: float | str = "auto"
    seed: int = 0
    record_every: int = 1

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.step_size != "auto" and not float(self.step_size) > 0:
            raise ValueError("explicit step_size must be positive")


@dataclass(frozen=True)
class IterateTrace:
    """Recorded path of one solver run.

    Arrays are row-aligned: entry ``i`` describes iterate ``iterations[i]``.
    ``rmsd`` is the plain distance to the ground truth and
    ``rmsd_normalized`` divides it by sqrt(dimension).  ``action_indices``
    holds the subset index sampled for the step that produced each recorded
    iterate (-1 for the initial point and for plain runs).  ``stages`` marks
    the schedule stage of each row in multistage runs (all zeros otherwise).
    """

    iterations: np.ndarray
    rmsd: np.ndarray
    rmsd_normalized: np.ndarray
    objective: np.ndarray
    action_indices: np.ndarray
    stages: np.ndarray
    final_x: np.ndarray

    def __post_init__(self):
        n = len(self.iterations)
        for name in ("rmsd", "rmsd_normalized", "objective", "action_indices", "stages"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"trace field {name} has inconsistent length")
        if np.any(np.diff(self.iterations) <= 0):
            raise ValueError("iteration indices must be strictly increasing")


def resolve_step_size(config: SolverConfig, A: LinearMap) -> float:
    """Materialize ``"auto"`` as the inverse largest Gram eigenvalue."""
    if config.step_size == "auto":
        return 1.0 / spectral_norm(A)
    return float(config.step_size)


def pgd_step(x: np.ndarray, A: LinearMap, b: np.ndarray, K: ConstraintSet,
             eta: float) -> np.ndarray:
    """One projected gradient step on the least-squares objective."""
    _check_step_args(x, A, b, eta)
    grad = A.adjoint(A.forward(x) - b)
    return K.project(x - eta * grad)


def group_pgd_step(x: np.ndarray, A: LinearMap, b: np.ndarray, K: ConstraintSet,
                   eta: float, T: GroupAction) -> np.ndarray:
    """One projected gradient step evaluated through the symmetry action ``T``.

    Computes the plain gradient at the rotated point and rotates it back:
    the update direction is ``T^{-1} A^T (A(T x) - b)``.  With the identity
    action this is bit-identical to :func:`pgd_step`.
    """
    _check_step_args(x, A, b, eta)
    if T.dimension != A.cols:
        raise DimensionMismatchError(
            f"action dimension {T.dimension} does not match operator columns {A.cols}"
        )
    grad = A.adjoint(A.forward(T.apply(x)) - b)
    return K.project(x - eta * T.apply_inverse(grad))


def _check_step_args(x, A, b, eta):
    if x.shape != (A.cols,):
        raise DimensionMismatchError(
            f"iterate has shape {x.shape}, operator expects ({A.cols},)"
        )
    if b.shape != (A.rows,):
        raise DimensionMismatchError(
            f"observation has shape {b.shape}, operator produces ({A.rows},)"
        )
    if not eta > 0:
        raise ValueError("step size must be positive")


class _TraceRecorder:
    def __init__(self, problem: ProblemInstance, stride: int):
        self.problem = problem
        self.stride = stride
        self.sqrt_d = np.sqrt(problem.dimension)
        self.iterations = []
        self.rmsd = []
        self.rmsd_normalized = []
        self.objective = []
        self.action_indices = []
        self.stages = []

    def record(self, k, x, action_index=-1, stage=0):
        err = float(np.linalg.norm(x - self.problem.x_dagger))
        residual = self.problem.A.forward(x) - self.problem.b
        self.iterations.append(k)
        self.rmsd.append(err)
        self.rmsd_normalized.append(err / self.sqrt_d)
        self.objective.append(0.5 * float(residual @ residual))
        self.action_indices.append(action_index)
        self.stages.append(stage)

    def finish(self, x) -> IterateTrace:
        return IterateTrace(
            iterations=np.asarray(self.iterations, dtype=np.int64),
            rmsd=np.asarray(self.rmsd),
            rmsd_normalized=np.asarray(self.rmsd_normalized),
            objective=np.asarray(self.objective),
            action_indices=np.asarray(self.action_indices, dtype=np.int64),
            stages=np.asarray(self.stages, dtype=np.int64),
            final_x=x,
        )


def _run_stage(x, problem, subset, eta, n_iters, rng, recorder, k0, stage):
    A, b, K = problem.A, problem.b, problem.K
    for i in range(1, n_iters + 1):
        k = k0 + i
        if subset is None:
            x = pgd_step(x, A, b, K, eta)
            idx = -1
        else:
            action, idx = sample_action(subset, rng)
            x = group_pgd_step(x, A, b, K, eta, action)
        if not np.isfinite(x).all() or np.linalg.norm(x) > DIVERGENCE_NORM:
            raise DivergenceError(k)
        if i % recorder.stride == 0 or i == n_iters:
            recorder.record(k, x, action_index=idx, stage=stage)
    return x


def run(problem: ProblemInstance, config: SolverConfig,
        subset: SymmetricSubset | None = None, x0=None,
        rng: np.random.Generator | None = None) -> IterateTrace:
    """Run plain projected gradient descent (``subset=None``) or the group
    variant sampling uniformly from ``subset``.

    Starts from the zero vector unless ``x0`` is given.  The trace always
    records the initial point, then every ``record_every``-th iterate plus
    the final one.  Deterministic given ``config.seed`` (or an explicit
    ``rng``, which takes precedence).
    """
    if subset is not None and subset.dimension != problem.dimension:
        raise DimensionMismatchError(
            f"subset dimension {subset.dimension} does not match problem "
            f"dimension {problem.dimension}"
        )
    eta = resolve_step_size(config, problem.A)
    x = np.zeros(problem.dimension) if x0 is None else np.asarray(x0, dtype=float).copy()
    if rng is None:
        rng = np.random.default_rng(config.seed)
    recorder = _TraceRecorder(problem, config.record_every)
    recorder.record(0, x)
    x = _run_stage(x, problem, subset, eta, config.max_iters, rng, recorder,
                   k0=0, stage=0)
    return recorder.finish(x)


def run_multistage(problem: ProblemInstance, config: SolverConfig,
                   schedule: list[tuple[int, int]],
                   generator: GroupAction | None = None, x0=None) -> IterateTrace:
    """Run stages of shrinking symmetry radius, warm-starting each stage.

    ``schedule`` lists ``(radius, iteration_budget)`` pairs with
    non-increasing radii; radius 0 degenerates to plain projected gradient
    steps.  ``generator`` defaults to the one-step grid rotation of the
    problem geometry.  ``config.max_iters`` is ignored in favor of the
    schedule budgets; the recorded trace is the concatenation of all stages
    with a per-row stage marker.
    """
    if not schedule:
        raise ValueError("schedule must be nonempty")
    radii = [r for r, _ in schedule]
    if any(r < 0 for r in radii) or any(b < 0 for _, b in schedule):
        raise ValueError("radii and budgets must be nonnegative")
    if any(later > earlier for earlier, later in zip(radii, radii[1:])):
        raise ValueError(f"schedule radii must be non-increasing, got {radii}")
    if generator is None:
        generator = problem.geometry.theta_shift(1)
    eta = resolve_step_size(config, problem.A)
    rng = np.random.default_rng(config.seed)
    x = np.zeros(problem.dimension) if x0 is None else np.asarray(x0, dtype=float).copy()
    recorder = _TraceRecorder(problem, config.record_every)
    recorder.record(0, x)
    k0 = 0
    for stage, (radius, budget) in enumerate(schedule):
        subset = symmetric_subset(generator, radius)
        x = _run_stage(x, problem, subset, eta, budget, rng, recorder,
                       k0=k0, stage=stage)
        k0 += budget
    return recorder.finish(x)


def run_ensemble(problem: ProblemInstance, config: SolverConfig,
                 subset: SymmetricSubset | None, replicates: int):
    """Independent seeded runs plus their per-iteration mean distance.

    Replicate ``i`` draws its stream from ``SeedSequence(config.seed)``
    child ``i``, so the ensemble is reproducible and replicate-order
    independent.  An ``"auto"`` step is resolved once and shared by every
    replicate.  Returns ``(iterations, mean_rmsd, traces)``.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    config = replace(config, step_size=resolve_step_size(config, problem.A))
    children = np.random.SeedSequence(config.seed).spawn(replicates)
    traces = [
        run(problem, config, subset=subset, rng=np.random.default_rng(child))
        for child in children
    ]
    iterations = traces[0].iterations
    mean_rmsd = np.mean(np.stack([t.rmsd for t in traces]), axis=0)
    return iterations, mean_rmsd, traces
