"""Projected gradient descent, its group-action variant, and iterate tracing.

One iteration of the plain method moves against the least-squares gradient
and projects back onto the feasible set.  The group variant first rotates the
iterate by a randomly drawn symmetry action, evaluates the gradient there,
and rotates the result back.  Both are one step body: the plain step is the
step through the identity, so with the identity action the group step is
the plain step bit for bit.

Every run goes through one driver that steps a stack ``X`` of shape
``(R, d)``.  Each row is one chain with its own random stream; the operator,
the projection and the trace values act on the whole stack, and by the stack
contract of :mod:`grouppgd.linop` and :mod:`grouppgd.constraint` every row
gets the bits of its own one-row run.  :func:`run` is the driver on one row,
:func:`run_ensemble` is one row per replicate, and :func:`run_with_plain`
steps the plain chain as one more row beside the group chains, so a
comparison of the two methods is one stack.  At the start of a run each
group row draws all its action indices at once,
``rng.integers(len(subset), size=budget)``, the same values as one
:func:`~grouppgd.symmetry.sample_action` call per step.

A group step never permutes the stack.  By shift covariance the rotated
operator ``A ∘ P_s`` reads the cells ``perm_s[window]`` with ``A``'s own
weights, so a run tabulates those cells once per action
(:func:`~grouppgd.linop.window_table`) and adds each row's offset
``row * d`` to the table once.  The subset lists the identity first, so
table row 0 is the operator's own window, which a plain row always reads.
A step takes each row's drawn table row in one gather, applies the
operator's window maps and adds the adjoint straight back into the same
cells (:func:`~grouppgd.linop.rotated_forward`,
:func:`~grouppgd.linop.rotated_adjoint`), with the bits of rotating,
stepping and rotating back.

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

from .bench import ProblemInstance
from .constraint import ConstraintSet
from .linop import (LinearMap, DimensionMismatchError, _check_size, rotated_adjoint,
                    rotated_forward, spectral_norm, window_table)
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
    ``rmsd`` is the plain distance to the ground truth and
    ``rmsd_normalized`` divides it by sqrt(dimension).  ``objective`` is
    ``0.5 * |A x - b|^2``, NaN at every entry when the run did not record
    it (:func:`run_with_plain` with ``objective=False``).  ``action_indices``
    holds the subset index drawn for the step that produced each recorded
    iterate (-1 for the initial point and for plain runs).
    """

    iterations: np.ndarray
    rmsd: np.ndarray
    rmsd_normalized: np.ndarray
    objective: np.ndarray
    action_indices: np.ndarray
    final_x: np.ndarray

    def __post_init__(self):
        n = len(self.iterations)
        for name in ("rmsd", "rmsd_normalized", "objective", "action_indices"):
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
    return _step(x[None], A, b, K, eta, A.window[None])[0][0]


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
    return _step(x[None], A, b, K, eta, window_table(A, [T]))[0][0]


def _step(X, A, b, K, eta, cells):
    """One projected gradient step on every row of the stack ``X``; returns
    ``(X_next, residual)``.

    ``cells`` indexes ``X.ravel()`` as in :func:`~grouppgd.linop.rotated_forward`:
    the gradient is taken through each row's rotated operator and the
    residual is the rotated one.  Through ``A.window`` (plus the row
    offsets) it is the plain step, and the residual is ``A X - b``.  Rows of
    ``cells`` past ``len(X)`` are read but not stepped: their residuals
    follow the stepped rows' in ``residual``.
    """
    residual = rotated_forward(A, X, cells) - b
    n = len(X)
    update = rotated_adjoint(A, residual[:n], cells[:n], X.size).reshape(X.shape)
    update *= eta
    # X - eta * grad in one buffer: on a stack, allocating one more
    # temporary can cost more than the arithmetic
    return K.project(np.subtract(X, update, out=update)), residual


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


def _row_dots(U):
    """``u @ u`` of every row of the stack ``U``, as stacked BLAS dots.

    Each row's dot is the one ``np.linalg.norm`` and ``u @ u`` take on a
    1-D ``u``, so the values have the same bits.
    """
    return np.matmul(U[:, None, :], U[:, :, None])[:, 0, 0]


def _check_solve(problem: ProblemInstance, subset: SymmetricSubset | None, rows: int,
                 group: int, budget: int, stride: int, objective: bool = True) -> None:
    """The solve's size rule: refuse (:class:`~grouppgd.linop.SizeCapError`)
    a stack of ``rows`` chains, ``group`` of them drawing actions, whose
    records, step table, stack or window table would hold more than
    ``linop.DENSE_CAP**2`` entries, before any of them (or a replicate
    stream) is made.
    """
    d, window = problem.dimension, len(problem.A.window)
    n_records = 1 + -(-budget // stride)
    gathered = rows + group if objective else rows
    actions = 1 if subset is None else len(subset)
    _check_size(rows * n_records, f"the solve's records of {rows} rows x {n_records} iterates")
    _check_size(budget * gathered,
                f"the solve's step table of {budget} steps x {gathered} rows")
    _check_size(rows * d, f"the solve's stack of {rows} rows x {d} cells")
    _check_size(rows * actions * window,
                f"the solve's window table of {rows} rows x {actions} actions x {window} cells")


def _drive(problem: ProblemInstance, x0, subset: SymmetricSubset | None, budget: int,
           eta: float, rngs, stride: int, objective: bool = True) -> list[IterateTrace]:
    """Step one chain per entry of ``rngs`` for ``budget`` steps; one trace per row.

    A row whose entry of ``rngs`` is None takes plain steps, and so does
    every row when ``subset`` is None; every other row draws its actions
    from its own generator.  Every row starts at ``x0`` (zeros when None).
    The traces record the initial point, then every ``stride``-th iterate
    plus the last; with ``objective`` False their objectives are NaN and
    no forward is spent on them.  Each stack row's block of the window
    table is ``window_table(A, subset)``, or the operator's own window
    without a subset; a group row's recorded action is its drawn index and
    a plain row's is -1.  The records, the step table, the stack and the
    window table are refused by :func:`_check_solve` before they are
    allocated.  Raises :class:`DivergenceError` at the first iteration at
    which any row leaves the finite ball of radius ``DIVERGENCE_NORM``.
    """
    A, b, K = problem.A, problem.b, problem.K
    d, R = problem.dimension, len(rngs)
    x0 = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float)
    _check_step_args(x0, A, b, eta)
    if subset is not None and subset.dimension != d:
        raise DimensionMismatchError(
            f"subset dimension {subset.dimension} does not match problem dimension {d}"
        )
    group = [] if subset is None else [r for r, rng in enumerate(rngs) if rng is not None]
    _check_solve(problem, subset, R, len(group), budget, stride, objective)
    n_records = 1 + -(-budget // stride)
    X = np.empty((R, d))
    X[:] = x0
    iterations = np.zeros(n_records, dtype=np.int64)
    rmsd = np.empty((R, n_records))
    objectives = np.full((R, n_records), np.nan)
    actions = np.full((R, n_records), -1, dtype=np.int64)
    rows = np.arange(R)

    def record(slot, X):
        rmsd[:, slot] = np.sqrt(_row_dots(X - problem.x_dagger))

    record(0, X)
    # table row s is action s's window, and row 0 the identity's: the
    # operator's own, which a plain row (draw -1) reads.  Row r of the stack
    # reads table row r * n + max(draw, 0), offset by r * d into X.ravel().
    table = A.window[None] if subset is None else window_table(A, subset)
    n = len(table)
    table = (table + d * rows[:, None, None]).reshape(R * n, -1)
    draws = np.full((budget, R), -1, dtype=np.int64)
    for r in group:
        draws[:, r] = rngs[r].integers(len(subset), size=budget)
    # step k gathers the table rows steps[k, :R].  When objectives are
    # recorded, the step after a recorded iterate also gathers each group
    # row's identity window (steps[k, R:]), whose residual is that row's
    # objective residual; a plain row's objective residual is its own step
    # residual.
    group = np.asarray(group, dtype=np.int64)
    steps = np.maximum(draws, 0)
    steps += n * rows
    if objective:
        steps = np.hstack((steps, np.broadcast_to(n * group, (budget, len(group)))))
    source = rows.copy()
    source[group] = R + np.arange(len(group))
    # the recorded slot whose objective is not written yet: it comes from
    # the residuals of the step that starts at that iterate
    pending = 0 if objective else None
    slot = 1
    for k in range(budget):
        index = steps[k, :R] if pending is None else steps[k]
        X_next, residual = _step(X, A, b, K, eta, table.take(index, axis=0))
        if pending is not None:
            objectives[:, pending] = 0.5 * _row_dots(residual)[source]
            pending = None
        X = X_next
        if not (np.sqrt(_row_dots(X)) <= DIVERGENCE_NORM).all():
            raise DivergenceError(k + 1)
        if (k + 1) % stride == 0 or k + 1 == budget:
            record(slot, X)
            iterations[slot], actions[:, slot] = k + 1, draws[k]
            if objective:
                pending = slot
            slot += 1
    if objective:  # the last iterate is always recorded, and no step follows it
        objectives[:, pending] = 0.5 * _row_dots(A.forward(X) - b)
    rmsd_normalized = rmsd / np.sqrt(d)
    return [
        IterateTrace(iterations=iterations, rmsd=rmsd[r],
                     rmsd_normalized=rmsd_normalized[r], objective=objectives[r],
                     action_indices=actions[r], final_x=X[r])
        for r in range(R)
    ]


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
    eta = resolve_step_size(config, problem.A)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return _drive(problem, x0, subset, config.max_iters, eta, [rng],
                  config.record_every)[0]


def run_ensemble(problem: ProblemInstance, config: SolverConfig,
                 subset: SymmetricSubset | None, replicates: int):
    """Independent seeded runs plus their per-iteration mean distance.

    Replicate ``i`` draws its stream from ``SeedSequence(config.seed)``
    child ``i`` (:func:`replicate_rngs`), so the ensemble is reproducible
    and replicate-order independent.  The replicates are the rows of one
    stack stepped together, each bit for bit the trace of its own
    :func:`run` on that stream.  An ``"auto"`` step is resolved once and
    shared by every replicate.  If any replicate diverges,
    :class:`DivergenceError` names the first iteration at which one did,
    whichever replicate it was.  Plain PGD (``subset=None``) draws nothing
    from its stream, so its chain runs once and ``traces`` holds that one
    trace object ``replicates`` times; the mean is still taken over all
    entries (:func:`mean_rmsd`), so it is bit for bit the mean of separate
    runs.  A solve too large for the size rule is refused before any
    stream is spawned.  Returns ``(iterations, mean_rmsd, traces)``.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    group = 0 if subset is None else replicates
    _check_solve(problem, subset, max(group, 1), group, config.max_iters,
                 config.record_every)
    eta = resolve_step_size(config, problem.A)
    rngs = [None] if subset is None else replicate_rngs(config.seed, replicates)
    traces = _drive(problem, None, subset, config.max_iters, eta, rngs,
                    config.record_every)
    if subset is None:
        traces = traces * replicates
    return traces[0].iterations, mean_rmsd(traces), traces


def run_with_plain(problem: ProblemInstance, config: SolverConfig,
                   subset: SymmetricSubset, rngs,
                   objective: bool = True) -> tuple[IterateTrace, list[IterateTrace]]:
    """Plain PGD beside one group chain per generator in ``rngs``, as rows of one stack.

    Returns ``(plain_trace, group_traces)``.  Every row is bit for bit its
    own run: the plain trace is ``run(problem, config)``, and group trace
    ``i`` is ``run(problem, config, subset, rng=rngs[i])``.  So with
    :func:`replicate_rngs` the group traces are :func:`run_ensemble`'s.
    With ``objective`` False no objective is computed: every trace's
    ``objective`` is NaN, each step maps only the stack's own rows and the
    last iterate costs no forward, and every other field keeps its bits.
    If any row diverges, :class:`DivergenceError` names the first iteration
    at which one did, plain or group.
    """
    eta = resolve_step_size(config, problem.A)
    plain, *group = _drive(problem, None, subset, config.max_iters, eta,
                           [None, *rngs], config.record_every, objective)
    return plain, group


def replicate_rngs(seed: int, replicates: int) -> list[np.random.Generator]:
    """The replicate streams of :func:`run_ensemble`: ``SeedSequence(seed)``'s children."""
    return [np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(replicates)]


def mean_rmsd(traces) -> np.ndarray:
    """Per-iteration mean of the traces' ``rmsd``, as :func:`run_ensemble` reports it."""
    return np.mean(np.stack([t.rmsd for t in traces]), axis=0)
