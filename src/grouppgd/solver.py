"""Projected gradient descent, its group-action variant, and iterate tracing.

One iteration of the plain method moves against the least-squares gradient
and projects back onto the feasible set.  The group variant first rotates the
iterate by a randomly drawn symmetry action, evaluates the gradient there,
and rotates the result back.  Both are one step body: the plain step is the
step through the identity, so with the identity action the group step is
the plain step bit for bit.

Every run goes through one route, :func:`solve`, that steps a stack ``X``
of shape ``(R, d)``.  Each row is one chain with its own random stream; the
operator and the trace values act on the whole stack, and by the stack
contract of :mod:`grouppgd.linop` every row gets the bits of its own one-row
run.  The solve makes its rows from what its caller asks for: the plain
chain as a first row beside the group chains, so a comparison of the two
methods is one stack, or the group chains alone.  :func:`run` is one row
and :func:`run_ensemble` one row per group replicate (a plain ensemble
draws nothing, so it is its one chain).  The rows are one list of random
streams, and the plain row is the row with no stream.  Every chain starts
from zeros.  The solve first asks its size rule (:func:`check_solve`, which
takes the solve's own arguments), which returns the counts the solve
allocates, so an oversized solve is refused before an ``"auto"`` step
probes the spectrum or a replicate stream is spawned.  It then resolves the
step and fixes the recorded iterations before its first step.  Each group
row draws all its action indices at once, ``rng.integers(len(subset),
size=budget)``, the same values as one
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
with one projection of the whole stack.

A step's residual through the identity's window is the residual
``A x_k - b`` of iterate ``k``'s objective, so a plain row takes each
recorded objective from the next step.  A group row's step residual is the
rotated one, so the step from a recorded iterate also gathers each group
row's identity window, and the one forward returns those rows' objective
residuals beside the step residuals.  Only the last iterate, which no step
follows, costs a forward of its own.  A caller that reads no objective
(``solve(..., objective=False)``, as ``compare`` and
:func:`~grouppgd.certificate.verify_bound` call it) skips all of this: each
step maps only the stack's rows, the last iterate costs nothing, and every
trace's objective is NaN.

A large solve steps its stack on every core the process may use.  After
the layout above, the rows are cut into one contiguous part per usable core
(``os.sched_getaffinity``), the plain row and the first group streams
first.  Each part but the last is stepped by the same loop in a forked
child, which sends its rows' records back through a pipe, and this process
steps the rest as one block: the last part, or every part from the first
one it could not fork.  Every row is its own chain (by the stack contract,
with its own stream, and recorded and checked for divergence row by row),
so the traces keep their bits.  A solve splits when it has two rows or
more, ``os.fork`` exists, and it is at least ``SPLIT_CELL_STEPS``
cell-steps (budget x gathered rows x window cells).  On a 2-core host a
split cost 1.3-2.4 ms, the time of about 0.2 million cell-steps, and
smaller solves gained nothing from it (``BENCH_two_cores.json``); every
shipped config's solve lies above the threshold, the solver's unit tests
below it.  On Python 3.12 and later the solve stays in this process:
``os.fork`` warns there when the process has other threads, and
OpenBLAS's workers are threads.
"""

from __future__ import annotations

import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import linop
from .bench import ProblemInstance
from .constraint import Box
from .linop import (DimensionMismatchError, _check_integer, _check_size, spectral_norm,
                    window_table)
from .symmetry import SymmetricSubset

__all__ = [
    "SolverConfig",
    "IterateTrace",
    "DivergenceError",
    "run",
    "run_ensemble",
    "solve",
    "check_solve",
    "replicate_rngs",
    "mean_rmsd",
]

DIVERGENCE_NORM = 1e12
# a solve of fewer cell-steps (budget x gathered rows x window cells) is
# stepped in one process: below it a fork costs more than it saves
SPLIT_CELL_STEPS = 1_000_000


class DivergenceError(RuntimeError):
    """Iterates blew up (non-finite or norm above the guard)."""

    def __init__(self, iteration: int):
        super().__init__(f"iterate diverged at iteration {iteration}")
        self.iteration = iteration

    def __reduce__(self):
        # rebuilt from its iteration, not its message, as a forked part sends it
        return type(self), (self.iteration,)


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.

    ``max_iters``, ``record_every`` and ``seed`` are integers (a ``bool`` is
    not), and ``seed`` is nonnegative.  ``step_size`` is a positive finite
    real number (not a ``bool``) or ``"auto"``, which a run resolves to
    exactly ``1/L``, the reciprocal of the largest eigenvalue of the
    operator's Gram (:func:`~grouppgd.linop.spectral_norm`, the same ``L``
    the certificate reports).  ``auto`` probes the Gram of the operator's
    smaller side, which the size rule (:class:`~grouppgd.linop.SizeCapError`)
    refuses when both ``rows`` and the window's cells exceed
    ``linop.DENSE_CAP``; a run refuses ``auto`` when ``L`` is 0
    (``ValueError``), as for an operator whose weights are all zero.
    """

    max_iters: int
    step_size: float | str = "auto"
    seed: int = 0
    record_every: int = 1

    def __post_init__(self):
        for name in ("max_iters", "record_every", "seed"):
            _check_integer(name, getattr(self, name))
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.step_size == "auto":
            return
        if isinstance(self.step_size, bool) or not isinstance(self.step_size, numbers.Real):
            raise TypeError(f"step_size must be 'auto' or a real number, got {self.step_size!r}")
        if not 0 < self.step_size < np.inf:
            raise ValueError("explicit step_size must be positive and finite")


@dataclass(frozen=True)
class IterateTrace:
    """Recorded path of one solver run.

    Arrays are row-aligned: entry ``i`` describes iterate ``iterations[i]``.
    ``rmsd`` is the plain distance to the ground truth.  ``objective`` is
    ``0.5 * |A x - b|^2``, NaN at every entry when the run did not record
    it (:func:`solve` with ``objective=False``).  ``action_indices``
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
        if (self.iterations[1:] <= self.iterations[:-1]).any():  # no diff: 1 B a record
            raise ValueError("iteration indices must be strictly increasing")

    @property
    def rmsd_normalized(self) -> np.ndarray:
        """``rmsd`` divided by sqrt(dimension)."""
        return self.rmsd / np.sqrt(len(self.final_x))


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
                objective: bool = True, *, plain: bool = True) -> tuple[int, ...]:
    """The solve's size rule, asked with :func:`solve`'s arguments;
    ``plain=False`` counts no plain row, as for :func:`run` and
    :func:`run_ensemble` with a subset.  ``replicates`` is None or a
    positive integer (a ``bool`` is not).  A solve with no ``subset`` and
    ``plain`` false steps no chain and is refused (``ValueError``).

    Refuses (:class:`~grouppgd.linop.SizeCapError`, naming the table) more
    than ``linop.DENSE_CAP`` chains, or records, a step table, a stack or a
    window table of more than ``linop.DENSE_CAP**2`` entries.  Returns the
    counts it bounds, which the solve allocates: the chains, the group rows
    that end them, the step table's width, the record stride clamped to the
    budget and the ``1 + ceil(budget / stride)`` records of a row.
    """
    if subset is None and not plain:
        raise ValueError("a solve with no subset and plain=False steps no chain")
    if replicates is not None:
        _check_integer("replicates", replicates)
        if replicates < 1:
            raise ValueError("replicates must be at least 1")
    d, window = problem.dimension, len(problem.A.window)
    budget = config.max_iters
    stride = min(config.record_every, max(budget, 1))
    n_records = 1 + -(-budget // stride)
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
    return rows, group, gathered, stride, n_records


def solve(problem: ProblemInstance, config: SolverConfig,
          subset: SymmetricSubset | None, replicates: int | None = None,
          objective: bool = True, *, plain: bool = True) -> list[IterateTrace]:
    """Step a stack of chains from zeros for ``config.max_iters`` steps; one
    trace per row, laid out as :func:`check_solve`, asked with the same
    arguments, counts it.

    The plain row comes first when ``plain`` is true: its trace is
    ``run(problem, config)``.  Group rows follow only when there is a
    ``subset``: one on ``default_rng(config.seed)`` when ``replicates`` is
    None, ``run(problem, config, subset)``, else one per
    :func:`replicate_rngs` stream, ``run_ensemble(problem, config, subset,
    replicates)``'s traces.  Every row takes the same step (an ``"auto"``
    step is resolved once) and is bit for bit its own run.  The recorded
    iterations, fixed before the first step, are every
    ``config.record_every``-th iterate from 0, then the last.  The step
    from each gives its objectives; with ``objective`` False they are NaN
    and no forward is spent on them, and every other field keeps its bits.
    Each stack row's block of the window table is ``window_table(A,
    subset)``, or the operator's own window without a subset; a group row's
    recorded action is its drawn index and a plain row's is -1.  A solve
    with no chain or an oversized one (:func:`check_solve`) and a subset of
    another dimension are refused before an ``"auto"`` step probes the
    spectrum; after it, the step's rules refuse a feasible set that is not
    a :class:`~grouppgd.constraint.Box` (``TypeError``), an observation of
    another shape, and a step that is not positive and finite or ``L = 0``
    (``ValueError``), before any stream is spawned or array allocated.
    Raises :class:`DivergenceError` at the first iteration at which any row
    leaves the finite ball of radius ``DIVERGENCE_NORM``; a recorded
    iterate whose rows all lie within ``DIVERGENCE_NORM / 2 - |x_dagger|``
    of the ground truth is inside it, and only other iterates have their
    norms taken.

    All of this is laid out in this process, with the rows as one list of
    streams (``None`` for the plain row), cut into contiguous slices (see
    the module's docstring).  :func:`_split` steps each by :func:`_chains`,
    each slice but the last in a forked child and the rest here in one
    block, and returns the records of every row in order: the in-process
    solve's records and divergence.  Each row's trace is made once, here,
    and holds the one array of recorded iterations made here, a forked
    row's too.
    """
    A, b, K = problem.A, problem.b, problem.K
    d, budget = problem.dimension, config.max_iters
    R, _, gathered, stride, n_records = check_solve(
        problem, config, subset, replicates, objective, plain=plain)
    if subset is not None and subset.dimension != d:
        raise DimensionMismatchError(
            f"subset dimension {subset.dimension} does not match problem dimension {d}"
        )
    if config.step_size == "auto" and not (L := spectral_norm(A)) > 0:
        raise ValueError(f"the 'auto' step 1/L needs a positive L, got L={L}")
    eta = 1.0 / L if config.step_size == "auto" else float(config.step_size)
    _check_step_args((d,), A, b, K, eta)
    # one stream per row: None for the plain row, which draws nothing
    streams = [None] * plain + ([] if subset is None else [np.random.default_rng(config.seed)]
                                if replicates is None else replicate_rngs(config.seed, replicates))
    # 0, stride, 2 * stride, ... and the budget
    iterations = np.arange(n_records) * stride
    iterations[-1] = budget
    # table row s is action s's window, and row 0 the identity's: the
    # operator's own, which a plain row reads
    table = A.window[None] if subset is None else window_table(A, subset)
    # one part per usable core, at most one per row, for a solve large
    # enough; part i steps the stack's rows cuts[i] to cuts[i + 1]
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and sys.version_info < (3, 12)
    n_parts = (min(R, len(os.sched_getaffinity(0)))
               if forks and budget * gathered * table.shape[1] >= SPLIT_CELL_STEPS else 1)
    cuts = [R * i // n_parts for i in range(n_parts + 1)]
    rows = _split(lambda part: _chains(problem, eta, table, part, iterations, objective),
                  [streams[lo:hi] for lo, hi in zip(cuts, cuts[1:])])
    return [IterateTrace(iterations, *row) for row in rows]


def _chains(problem, eta, table, streams, iterations, objective):
    """Step one row per entry of ``streams`` from zeros, as :func:`solve`
    lays them out (``None`` is the plain row, which draws nothing); returns
    one ``(rmsd, objective, action_indices, final_x)`` per row, the fields
    of its :class:`IterateTrace` at the recorded ``iterations``, which end
    at the budget.

    ``table`` is the window table, one row per action.  Raises
    :class:`DivergenceError` at the first iteration at which any row leaves
    the ball.
    """
    A, b, K = problem.A, problem.b, problem.K
    d, budget, R = problem.dimension, int(iterations[-1]), len(streams)
    X = np.zeros((R, d))
    rmsd = np.empty((R, len(iterations)))
    objectives = np.full((R, len(iterations)), np.nan)
    actions = np.full((R, len(iterations)), -1, dtype=np.int64)
    rows = np.arange(R)
    group = rows[[rng is not None for rng in streams]]
    error = np.empty_like(X)

    def record(slot):
        rmsd[:, slot] = np.sqrt(_row_dots(np.subtract(X, problem.x_dagger, out=error)))

    record(0)
    # row r of the stack reads table row r * n + its draw (0 for a plain
    # row), offset by r * d into X
    n = len(table)
    table = (table + d * rows[:, None, None]).reshape(R * n, -1)
    # step k gathers the table rows steps[k, :R].  When objectives are
    # recorded, the step from a recorded iterate also gathers each group
    # row's identity window (steps[k, R:]), whose residual is that row's
    # objective residual; a plain row's objective residual is its own step
    # residual.  The draws are added into the one table.
    steps = np.empty((budget, R + len(group) * objective), dtype=np.int64)
    steps[:, :R] = n * rows
    for r in group:
        steps[:, r] += streams[r].integers(n, size=budget)
    if objective:
        steps[:, R:] = n * group
    source = rows.copy()
    source[group] = R + np.arange(len(group))
    lo, hi = _bounds(K, R)
    # a recorded distance to x_dagger of at most this puts a row inside the
    # ball with room for round-off; a NaN distance settles nothing
    settled = DIVERGENCE_NORM / 2 - np.linalg.norm(problem.x_dagger)
    slot = 0  # the last record is of iterate iterations[slot]
    for k in range(budget):
        starts = objective and k == iterations[slot]
        residual = _step(X, A, b, eta, table.take(steps[k] if starts else steps[k, :R], axis=0),
                         lo, hi)
        if k == 0:  # the zero start need not lie in K; later steps stay in it
            X[:] = K.project(X)
        if starts:
            objectives[:, slot] = 0.5 * _row_dots(residual)[source]
        inside = False
        if k + 1 == iterations[slot + 1]:
            slot += 1
            record(slot)
            inside = (rmsd[:, slot] <= settled).all()
        if not (inside or (np.sqrt(_row_dots(X)) <= DIVERGENCE_NORM).all()):
            raise DivergenceError(k + 1)
    if objective:  # the last iterate is always recorded, and no step follows it
        objectives[:, -1] = 0.5 * _row_dots(A.forward(X) - b)
    # a recorded iterate's action is the draw of the step that made it: its
    # table row less the row's first.  Column r's steps are read from the
    # flat table r entries on, so one index array is all the gather adds
    at = iterations[1:] - 1
    at *= steps.shape[1]
    for r in group:
        # every index is in range: "clip" writes out directly, "raise" copies it
        steps.reshape(-1)[r:].take(at, out=actions[r, 1:], mode="clip")
        actions[r, 1:] -= n * r
    return [(rmsd[r], objectives[r], actions[r], X[r]) for r in rows]


def _split(chains, parts):
    """The rows ``chains`` returns for every part, as one list in row
    order.  Each part but the last is stepped in a child forked for it,
    which sends its rows, or what ``chains`` raises, back through a pipe
    and exits; they are loaded as they are read, so their pickled bytes are
    never held whole.  This process then steps every part no child took in
    one ``chains`` call over their rows: the last part, or, when
    ``os.pipe`` or ``os.fork`` fails (``OSError``: out of descriptors,
    processes or memory), every part from the first one not forked.  So the
    rows keep their order.

    Every child is waited for before anything is raised.  Then the first
    failure other than :class:`DivergenceError` is raised, in a child's part
    or this process's (a child that exits without sending raises
    ``RuntimeError``), else the divergence at the earliest iteration.  A
    child still running when this process is interrupted is killed, so no
    child outlives the call.
    """
    import pickle
    import signal

    children = []
    try:
        for part in parts[:-1]:
            fds = ()
            try:
                fds = os.pipe()
                pid = os.fork()
            except OSError:
                for fd in fds:
                    os.close(fd)
                break
            read, write = fds
            if pid == 0:  # the child: step its part, send it, exit
                status = 1
                try:
                    os.close(read)
                    try:
                        sent = chains(part)
                    except BaseException as failure:  # the parent raises it
                        sent = failure
                    with open(write, "wb") as pipe:
                        pipe.write(pickle.dumps(sent))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, open(read, "rb")))
        try:  # the rows of every part no child took
            own = chains([row for part in parts[len(children):] for row in part])
        except Exception as failure:  # raised below, once every child is waited for
            own = failure
        results = []
        while children:
            pid, pipe = children[0]
            try:  # loaded as it is read: the pickled bytes are never held whole
                sent = pickle.load(pipe)
            except Exception as failure:  # a child that exits early sends no whole pickle
                sent = failure
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            pipe.close()
            results.append(sent if status == 0 else RuntimeError(
                f"a forked part of the solve exited with status {status}"))
        results.append(own)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = [r for r in results if isinstance(r, BaseException)]
    others = [f for f in failures if not isinstance(f, DivergenceError)]
    if failures:
        raise others[0] if others else min(failures, key=lambda f: f.iteration)
    return [row for rows in results for row in rows]


def run(problem: ProblemInstance, config: SolverConfig,
        subset: SymmetricSubset | None = None) -> IterateTrace:
    """Run plain projected gradient descent (``subset=None``) or the group
    variant sampling uniformly from ``subset``.

    Starts from the zero vector.  The trace always records the initial
    point, then every ``record_every``-th iterate plus the final one.  The
    group variant draws its actions from ``default_rng(config.seed)``, so
    the run is deterministic given ``config.seed``.
    """
    return solve(problem, config, subset, plain=subset is None)[0]


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
    traces = solve(problem, config, subset, replicates, plain=subset is None)
    return traces[0].iterations, mean_rmsd(traces), traces


def replicate_rngs(seed: int, replicates: int) -> list[np.random.Generator]:
    """The replicate streams of :func:`run_ensemble`: ``SeedSequence(seed)``'s children."""
    return [np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(replicates)]


def mean_rmsd(traces) -> np.ndarray:
    """Per-iteration mean of the traces' ``rmsd``, as :func:`run_ensemble` reports
    it; the mean of one trace is its ``rmsd``, bit for bit."""
    return np.mean(np.stack([t.rmsd for t in traces]), axis=0)
