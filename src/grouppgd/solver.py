"""Projected gradient descent, its group-action variant, and iterate tracing.

One iteration of the plain method moves against the least-squares gradient
and projects back onto the feasible set.  The group variant first rotates the
iterate by a randomly drawn symmetry action, evaluates the gradient there,
and rotates the result back.  Both are one step body: the plain step is the
step through the identity, so with the identity action the group step is
the plain step bit for bit.

Every run goes through one driver that steps a stack ``X`` of shape
``(R, d)``.  Each row is one chain with its own random stream; the operator
and the trace values act on the whole stack, and by the stack contract of
:mod:`grouppgd.linop` every row gets the bits of its own one-row run.  The
driver makes its own rows from what its caller asks for: :func:`run` is one
row, :func:`run_ensemble` is one row per group replicate (a plain
ensemble draws nothing, so it is its one chain), and
:func:`run_with_plain` steps the plain chain as one more row beside the
group chains, so a comparison of the two methods is one stack.  Every
chain starts from zeros, and the replicate streams are spawned only once
the solve's size rule (:func:`check_solve`) has passed.  At the start of a
run each group row draws all its action indices at once,
``rng.integers(len(subset), size=budget)``, the same values as one
:func:`~grouppgd.symmetry.sample_action` call per step, and adds them into
the run's one step table.

A group step never permutes the stack.  By shift covariance the rotated
operator ``A ∘ P_s`` reads the cells ``perm_s[window]`` with ``A``'s own
weights, so a run tabulates those cells once per action
(:func:`~grouppgd.linop.window_table`) and adds each row's offset
``row * d`` to the table once.  The subset lists the identity first, so
table row 0 is the operator's own window, which a plain row always reads.
A step takes each row's drawn table row in one gather, applies the
operator's window maps, and writes only the cells it read: each gets
``x - eta * g`` clipped to the box's bounds at that cell, and every other
cell keeps its value.  A window lists distinct cells
(:func:`~grouppgd.linop.from_window`), so a row writes each cell once.
These are the bits of rotating, stepping through the whole grid and
rotating back: off the window the gradient is zero, and a box leaves an
iterate that lies in it as it is.  So the solver's feasible set is a
:class:`~grouppgd.constraint.Box`, whose projection acts cell by cell, and
any other set raises ``TypeError`` before anything is allocated.  Chains
start from zeros, which need not lie in the box, so the first step ends
with one projection of the whole stack; :func:`pgd_step` and
:func:`group_pgd_step`, whose ``x`` is arbitrary, project their result
whole.

A step's residual through the identity's window is the residual
``A x_k - b`` of iterate ``k``'s objective, so a plain row takes each
recorded objective from the next step.  A group row's step residual is the
rotated one, so the step after a recorded iterate also gathers each group
row's identity window, and the one forward returns those rows' objective
residuals beside the step residuals.  Only the last iterate, which no step
follows, costs a forward of its own.  A caller that writes no objective
(``run_with_plain(..., objective=False)``, as ``compare`` calls it) skips
all of this: each step maps only the stack's rows, the last iterate costs
nothing, and every trace's objective is NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linop
from .bench import ProblemInstance
from .constraint import Box
from .linop import LinearMap, DimensionMismatchError, _check_size, spectral_norm, window_table
from .symmetry import GroupAction, SymmetricSubset

__all__ = [
    "SolverConfig",
    "IterateTrace",
    "DivergenceError",
    "pgd_step",
    "group_pgd_step",
    "resolve_step_size",
    "run",
    "run_ensemble",
    "run_with_plain",
    "check_solve",
    "replicate_rngs",
    "mean_rmsd",
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

    ``step_size`` is a positive finite float or ``"auto"``, which resolves
    to exactly ``1/L``, the reciprocal of the largest eigenvalue of the
    operator's Gram (:func:`~grouppgd.linop.spectral_norm`, the same ``L`` the
    certificate reports).  ``auto`` probes the Gram of the operator's smaller
    side, which the size rule (:class:`~grouppgd.linop.SizeCapError`) refuses
    when both ``rows`` and ``cols`` exceed ``linop.DENSE_CAP``.
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
        if self.step_size != "auto" and not 0 < float(self.step_size) < np.inf:
            raise ValueError("explicit step_size must be positive and finite")


@dataclass(frozen=True)
class IterateTrace:
    """Recorded path of one solver run.

    Arrays are row-aligned: entry ``i`` describes iterate ``iterations[i]``.
    ``rmsd`` is the plain distance to the ground truth.  ``objective`` is
    ``0.5 * |A x - b|^2``, NaN at every entry when the run did not record
    it (:func:`run_with_plain` with ``objective=False``).  ``action_indices``
    holds the subset index drawn for the step that produced each recorded
    iterate (-1 for the initial point and for plain runs).
    """

    iterations: np.ndarray
    rmsd: np.ndarray
    objective: np.ndarray
    action_indices: np.ndarray
    final_x: np.ndarray

    def __post_init__(self):
        n = len(self.iterations)
        for name in ("rmsd", "objective", "action_indices"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"trace field {name} has inconsistent length")
        if np.any(np.diff(self.iterations) <= 0):
            raise ValueError("iteration indices must be strictly increasing")

    @property
    def rmsd_normalized(self) -> np.ndarray:
        """``rmsd`` divided by sqrt(dimension)."""
        return self.rmsd / np.sqrt(len(self.final_x))


def resolve_step_size(config: SolverConfig, A: LinearMap) -> float:
    """Materialize ``"auto"`` as the inverse largest Gram eigenvalue."""
    if config.step_size == "auto":
        return 1.0 / spectral_norm(A)
    return float(config.step_size)


def pgd_step(x: np.ndarray, A: LinearMap, b: np.ndarray, K: Box,
             eta: float) -> np.ndarray:
    """One projected gradient step on the least-squares objective.

    ``x`` need not lie in ``K``: the stepped point is projected whole.
    """
    _check_step_args(x.shape, A, b, K, eta)
    return _step_alone(x, A, b, K, eta, A.window)


def group_pgd_step(x: np.ndarray, A: LinearMap, b: np.ndarray, K: Box,
                   eta: float, T: GroupAction) -> np.ndarray:
    """One projected gradient step evaluated through the symmetry action ``T``.

    Computes the plain gradient at the rotated point and rotates it back:
    the update direction is ``T^{-1} A^T (A(T x) - b)``.  With the identity
    action this is bit-identical to :func:`pgd_step`.
    """
    _check_step_args(x.shape, A, b, K, eta)
    return _step_alone(x, A, b, K, eta, window_table(A, [T])[0])


def _step_alone(x, A, b, K, eta, cells):
    """:func:`_step` on ``x`` alone through the table row ``cells``, then ``K.project``."""
    X = x[None].astype(float)
    _step(X, A, b, eta, cells[None], *_bounds(K, 1))
    return K.project(X)[0]


def _step(X, A, b, eta, cells, lo, hi):
    """One projected gradient step on every row of the stack ``X``, in place;
    returns the residual.

    Row ``i`` of ``cells`` is a :func:`~grouppgd.linop.window_table` row plus
    ``i * A.cols``, indexing ``X``'s flat cells: the gradient is taken
    through each row's rotated operator and the residual is the rotated
    one; through ``A.window`` it is the plain step, and the residual is
    ``A X - b``.  Only the cells read change: each gets ``x - eta * g``
    clipped to its bounds in ``lo`` and ``hi`` (as :func:`_bounds` gives
    them), which is the box step's value for a row that lies in the box.
    Rows of ``cells`` past ``len(X)`` are read but not stepped: their
    residuals follow the stepped rows'.
    """
    flat = X.reshape(-1)  # a view: X is C-contiguous
    values = flat.take(cells)
    residual = A.window_forward(values) - b
    n = len(X)
    cells = cells[:n]
    # a fresh product: a map's adjoint may hand back a view of its input
    update = A.window_adjoint(residual[:n]) * eta
    x = np.subtract(values[:n], update, out=update)
    if isinstance(lo, np.ndarray):
        lo, hi = lo.take(cells), hi.take(cells)
    np.maximum(x, lo, out=x)
    flat[cells] = np.minimum(x, hi, out=x)
    return residual


def _bounds(K: Box, rows: int):
    """``K``'s bounds ``(lo, hi)`` as :func:`_step` clips a stack of ``rows``
    rows: two scalars for a box that is the same at every cell, else one
    bound per stack cell.  The scalars spare each step two gathers the
    size of its window."""
    if (K.lo == K.lo[0]).all() and (K.hi == K.hi[0]).all():
        return K.lo[0], K.hi[0]
    return np.tile(K.lo, rows), np.tile(K.hi, rows)


def _check_step_args(shape, A, b, K, eta):
    if not isinstance(K, Box):
        raise TypeError(f"the solver's feasible set must be a Box, got {type(K).__name__}")
    if shape != (A.cols,):
        raise DimensionMismatchError(
            f"iterate has shape {shape}, operator expects ({A.cols},)"
        )
    if b.shape != (A.rows,):
        raise DimensionMismatchError(
            f"observation has shape {b.shape}, operator produces ({A.rows},)"
        )
    if not 0 < eta < np.inf:
        raise ValueError("step size must be positive and finite")


def _row_dots(U):
    """``u @ u`` of every row of the stack ``U``, as stacked BLAS dots.

    Each row's dot is the one ``np.linalg.norm`` and ``u @ u`` take on a
    1-D ``u``, so the values have the same bits.
    """
    return np.matmul(U[:, None, :], U[:, :, None])[:, 0, 0]


def check_solve(problem: ProblemInstance, config: SolverConfig,
                subset: SymmetricSubset | None, replicates: int | None = None,
                objective: bool = True, *, plain: bool = True) -> None:
    """The solve's size rule, asked with :func:`run_with_plain`'s arguments;
    ``plain=False`` counts no plain row, as for :func:`run` and
    :func:`run_ensemble` with a subset.

    Refuses (:class:`~grouppgd.linop.SizeCapError`, naming the table) more
    than ``linop.DENSE_CAP`` chains, or records, a step table, a stack or a
    window table of more than ``linop.DENSE_CAP**2`` entries.
    """
    if replicates is not None and replicates < 1:
        raise ValueError("replicates must be at least 1")
    d, window = problem.dimension, len(problem.A.window)
    budget = config.max_iters
    n_records = 1 + -(-budget // config.record_every)
    group = 0 if subset is None else replicates or 1
    rows = int(plain) + group
    gathered = rows + group if objective else rows
    actions = 1 if subset is None else len(subset)
    _check_size(rows * linop.DENSE_CAP,
                f"the solve's {rows} chains, at {linop.DENSE_CAP} entries each")
    _check_size(rows * n_records,
                f"the solve's records of {rows} rows x {n_records} iterates")
    _check_size(budget * gathered,
                f"the solve's step table of {budget} steps x {gathered} rows")
    _check_size(rows * d, f"the solve's stack of {rows} rows x {d} cells")
    _check_size(rows * actions * window,
                f"the solve's window table of {rows} rows x {actions} actions x {window} cells")


def _drive(problem: ProblemInstance, config: SolverConfig, eta: float,
           subset: SymmetricSubset | None, plain: bool, replicates: int | None,
           objective: bool = True) -> list[IterateTrace]:
    """Step a stack of chains from zeros for ``config.max_iters`` steps; one
    trace per row.

    The plain row comes first when ``plain`` is true.  Group rows follow
    only when there is a ``subset``: one on ``default_rng(config.seed)``
    when ``replicates`` is None, else one per :func:`replicate_rngs` stream.
    The traces record the initial point, then every
    ``config.record_every``-th iterate plus the last; with ``objective``
    False their objectives are NaN and no forward is spent on them.  Each
    stack row's block of the window table is ``window_table(A, subset)``,
    or the operator's own window without a subset; a group row's recorded
    action is its drawn index and a plain row's is -1.  A feasible set that
    is not a :class:`~grouppgd.constraint.Box` raises ``TypeError``, and
    :func:`check_solve` refuses an oversized solve, before any stream is
    spawned or array allocated.  Raises :class:`DivergenceError` at the
    first iteration at which any row leaves the finite ball of radius
    ``DIVERGENCE_NORM``; a recorded iterate whose rows all lie within
    ``DIVERGENCE_NORM / 2 - |x_dagger|`` of the ground truth is inside it,
    and only other iterates have their norms taken.
    """
    A, b, K = problem.A, problem.b, problem.K
    d, budget, stride = problem.dimension, config.max_iters, config.record_every
    _check_step_args((d,), A, b, K, eta)
    if subset is not None and subset.dimension != d:
        raise DimensionMismatchError(
            f"subset dimension {subset.dimension} does not match problem dimension {d}"
        )
    check_solve(problem, config, subset, replicates, objective, plain=plain)
    n_group = 0 if subset is None else replicates or 1
    R = int(plain) + n_group
    rngs = ([] if subset is None else [np.random.default_rng(config.seed)] if replicates is None
            else replicate_rngs(config.seed, replicates))
    n_records = 1 + -(-budget // stride)
    X = np.zeros((R, d))
    iterations = np.zeros(n_records, dtype=np.int64)
    rmsd = np.empty((R, n_records))
    objectives = np.full((R, n_records), np.nan)
    actions = np.full((R, n_records), -1, dtype=np.int64)
    rows = np.arange(R)
    error = np.empty_like(X)

    def record(slot):
        rmsd[:, slot] = np.sqrt(_row_dots(np.subtract(X, problem.x_dagger, out=error)))

    record(0)
    # table row s is action s's window, and row 0 the identity's: the
    # operator's own, which a plain row reads.  Row r of the stack reads
    # table row r * n + its draw (0 for a plain row), offset by r * d into X.
    table = A.window[None] if subset is None else window_table(A, subset)
    n = len(table)
    table = (table + d * rows[:, None, None]).reshape(R * n, -1)
    first = R - n_group  # the first group row
    group = rows[first:]
    # step k gathers the table rows steps[k, :R].  When objectives are
    # recorded, the step after a recorded iterate also gathers each group
    # row's identity window (steps[k, R:]), whose residual is that row's
    # objective residual; a plain row's objective residual is its own step
    # residual.  The draws are added into the one table.
    steps = np.empty((budget, R + n_group if objective else R), dtype=np.int64)
    steps[:, :R] = n * rows
    for r, rng in zip(group, rngs):
        steps[:, r] += rng.integers(len(subset), size=budget)
    if objective:
        steps[:, R:] = n * group
    source = rows.copy()
    source[group] = R + np.arange(len(group))
    lo, hi = _bounds(K, R)
    # a recorded distance to x_dagger of at most this puts a row inside the
    # ball with room for round-off; a NaN distance settles nothing
    settled = DIVERGENCE_NORM / 2 - np.linalg.norm(problem.x_dagger)
    # the recorded slot whose objective is not written yet: it comes from
    # the residuals of the step that starts at that iterate
    pending = 0 if objective else None
    slot = 1
    for k in range(budget):
        index = steps[k, :R] if pending is None else steps[k]
        residual = _step(X, A, b, eta, table.take(index, axis=0), lo, hi)
        if k == 0:  # the zero start need not lie in K; later steps stay in it
            X[:] = K.project(X)
        if pending is not None:
            objectives[:, pending] = 0.5 * _row_dots(residual)[source]
            pending = None
        inside = False
        if (k + 1) % stride == 0 or k + 1 == budget:
            record(slot)
            inside = (rmsd[:, slot] <= settled).all()
            iterations[slot] = k + 1
            actions[first:, slot] = steps[k, first:R]
            if objective:
                pending = slot
            slot += 1
        if not (inside or (np.sqrt(_row_dots(X)) <= DIVERGENCE_NORM).all()):
            raise DivergenceError(k + 1)
    # a recorded iterate's action is the draw of the step that made it: its
    # table row less the row's first
    actions[first:, 1:] -= n * group[:, None]
    if objective:  # the last iterate is always recorded, and no step follows it
        objectives[:, pending] = 0.5 * _row_dots(A.forward(X) - b)
    return [
        IterateTrace(iterations=iterations, rmsd=rmsd[r], objective=objectives[r],
                     action_indices=actions[r], final_x=X[r])
        for r in range(R)
    ]


def run(problem: ProblemInstance, config: SolverConfig,
        subset: SymmetricSubset | None = None) -> IterateTrace:
    """Run plain projected gradient descent (``subset=None``) or the group
    variant sampling uniformly from ``subset``.

    Starts from the zero vector.  The trace always records the initial
    point, then every ``record_every``-th iterate plus the final one.  The
    group variant draws its actions from ``default_rng(config.seed)``, so
    the run is deterministic given ``config.seed``.
    """
    eta = resolve_step_size(config, problem.A)
    return _drive(problem, config, eta, subset, subset is None, None)[0]


def run_ensemble(problem: ProblemInstance, config: SolverConfig,
                 subset: SymmetricSubset | None, replicates: int):
    """Independent seeded runs plus their per-iteration mean distance.

    Replicate ``i`` draws its stream from ``SeedSequence(config.seed)``
    child ``i`` (:func:`replicate_rngs`), so the ensemble is reproducible
    and replicate-order independent.  The replicates are the rows of one
    stack stepped together, each bit for bit the chain its stream draws
    alone.  An ``"auto"`` step is resolved once and shared by every
    replicate.  If any replicate diverges, :class:`DivergenceError` names
    the first iteration at which one did, whichever replicate it was.
    Plain PGD (``subset=None``) draws nothing, so every replicate is one
    deterministic chain: it runs once, ``traces`` holds its one trace, and
    the mean is that trace's ``rmsd``, bit for bit ``run(problem,
    config).rmsd``.  Returns ``(iterations, mean_rmsd, traces)``.
    """
    eta = resolve_step_size(config, problem.A)
    traces = _drive(problem, config, eta, subset, subset is None, replicates)
    return traces[0].iterations, mean_rmsd(traces), traces


def run_with_plain(problem: ProblemInstance, config: SolverConfig, subset: SymmetricSubset,
                   replicates: int | None = None,
                   objective: bool = True) -> tuple[IterateTrace, list[IterateTrace]]:
    """Plain PGD beside the group chains, as rows of one stack.

    Returns ``(plain_trace, group_traces)``.  Every row is bit for bit its
    own run: the plain trace is ``run(problem, config)``.  With
    ``replicates`` None there is one group trace, ``run(problem, config,
    subset)``; otherwise the group traces are ``run_ensemble(problem,
    config, subset, replicates)``'s.  With ``objective`` False no objective
    is computed: every trace's ``objective`` is NaN, each step maps only the
    stack's own rows and the last iterate costs no forward, and every other
    field keeps its bits.  If any row diverges, :class:`DivergenceError`
    names the first iteration at which one did, plain or group.
    """
    eta = resolve_step_size(config, problem.A)
    plain, *group = _drive(problem, config, eta, subset, True, replicates, objective)
    return plain, group


def replicate_rngs(seed: int, replicates: int) -> list[np.random.Generator]:
    """The replicate streams of :func:`run_ensemble`: ``SeedSequence(seed)``'s children."""
    return [np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(replicates)]


def mean_rmsd(traces) -> np.ndarray:
    """Per-iteration mean of the traces' ``rmsd``, as :func:`run_ensemble` reports
    it; the mean of one trace is its ``rmsd``, bit for bit."""
    return np.mean(np.stack([t.rmsd for t in traces]), axis=0)
