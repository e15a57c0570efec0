"""Reference operators the tests compare the program against.

These are direct formulations of what the program computes another way:
the rotated operator as a composition with the action
(``compose_with_action``; the program gathers through a window table), the
projected gradient step through the whole grid (``pgd_step``, and
``group_pgd_step`` through that composition; the solver steps a stack
through window table rows and writes only the cells it read), a dense
matrix as a map (``from_dense``) and the angles a rotated operator measures
(``shifted_angles``), the RMS stack over a subset whose Gram is the
certificate's averaged Gram (``stack_mean``; the program permutes
``A^T A``), that averaged Gram as a dense matrix (``gram_average``; the
program stores it as a band), the dense matrix a band stands for
(``band_dense``), the spectrum of ``A^T A`` probed through the whole grid
(``transposed_gram_eigvals``; the program probes it through the window
maps), the identity map, the covering radius grown one shift at a time
(``covering_radius_loop``; the program reads the widest gap between
measured angles), and the symmetries beyond one generator's powers: the
angle reflection (``angle_reflection``), the radial flip
(``radial_flip``), a subset's product with them (``with_flips``) and every
rotation of the grid (``rotation_group``).  Each is written from its
definition and imports nothing from ``grouppgd.solver`` and no private name
of the package.
"""

import numpy as np

from grouppgd.linop import BandGram, DimensionMismatchError, LinearMap, from_window, gram_dense
from grouppgd.symmetry import GroupAction, SymmetricSubset, polar_theta_shift


def from_dense(matrix, tag: str = "dense") -> LinearMap:
    """The map ``x -> M x`` of a dense 2-D array, its window every column.

    A stack is multiplied one row at a time (a stacked ``np.matmul`` with
    column vectors), which keeps each row's bits.
    """
    M = np.asarray(matrix, dtype=float)
    return from_window(*M.shape, np.arange(M.shape[1]),
                       lambda v: np.matmul(M, v[..., None])[..., 0],
                       lambda y: np.matmul(M.T, y[..., None])[..., 0], tag=tag)


def shifted_angles(angles, s: int, n_theta: int) -> tuple[int, ...]:
    """The angles the operator measuring ``angles`` measures once composed
    with the rotation by ``s``: each column read sits ``s`` steps lower."""
    return tuple((a - s) % n_theta for a in angles)


def pgd_step(x, A: LinearMap, b, K, eta: float) -> np.ndarray:
    """One projected gradient step on ``0.5 |A x - b|^2``, through the whole
    grid: ``K.project(x - eta * A^T (A x - b))``."""
    return K.project(x - eta * A.adjoint(A.forward(x) - b))


def group_pgd_step(x, A: LinearMap, b, K, eta: float, T: GroupAction) -> np.ndarray:
    """:func:`pgd_step` through the rotated operator ``A_T = A ∘ T``
    (:func:`compose_with_action`): the gradient is ``T^{-1} A^T (A(T x) - b)``."""
    return pgd_step(x, compose_with_action(A, T), b, K, eta)


def identity_map(d: int) -> LinearMap:
    return LinearMap(rows=d, cols=d, forward=lambda x: x.copy(),
                     adjoint=lambda y: y.copy(), tag=f"identity[{d}]")


def transposed_gram_eigvals(A: LinearMap) -> np.ndarray:
    """Ascending eigenvalues of ``A^T A`` from every column of the smaller side.

    A tall or square ``A`` gives ``eigvalsh(gram_dense(A))``.  A wide one
    gives the spectrum of ``A A^T``, the dense Gram of the transposed map,
    padded with ``cols - rows`` zeros.  Either way every probe goes through
    ``A.forward`` and ``A.adjoint``, across the whole grid.
    """
    if A.rows >= A.cols:
        return np.linalg.eigvalsh(gram_dense(A))
    transpose = LinearMap(rows=A.cols, cols=A.rows, forward=A.adjoint, adjoint=A.forward)
    small = np.linalg.eigvalsh(gram_dense(transpose))
    return np.sort(np.concatenate([np.zeros(A.cols - A.rows), small]))


def compose_with_action(A: LinearMap, T: GroupAction) -> LinearMap:
    """Return the operator ``x -> A(T x)``.

    The adjoint is ``y -> T^{-1}(A^T y)`` because group actions are
    orthogonal permutations: it gathers through the inverse permutation,
    ``argsort(T.permutation)``.  Rows and cols are preserved.
    """
    if A.cols != T.dimension:
        raise DimensionMismatchError(
            f"cannot compose: operator has {A.cols} columns, action acts on "
            f"dimension {T.dimension}"
        )
    inverse = np.argsort(T.permutation)
    return LinearMap(
        rows=A.rows,
        cols=A.cols,
        forward=lambda x: A.forward(T.apply(x)),
        adjoint=lambda y: np.take(A.adjoint(y), inverse, axis=-1),
        tag=f"{A.tag}*{T.label}" if T.label else f"{A.tag}*action",
    )


def stack_mean(ops: list[LinearMap]) -> LinearMap:
    """Vertically stack operators with a root-mean-square normalization.

    Each block is scaled by ``1/sqrt(len(ops))`` so that
    ``||stack(x)||^2`` equals the mean of the per-block ``||A_i x||^2``.
    That makes the smallest eigenvalue of the stacked Gram exactly the
    averaged restricted curvature the convergence certificate consumes.
    """
    if not ops:
        raise DimensionMismatchError("stack_mean needs at least one operator")
    cols = ops[0].cols
    for op in ops:
        if op.cols != cols:
            raise DimensionMismatchError(
                f"stack_mean: mismatched column counts {[o.cols for o in ops]}"
            )
    scale = 1.0 / np.sqrt(len(ops))
    row_counts = [op.rows for op in ops]
    offsets = np.concatenate([[0], np.cumsum(row_counts)])
    total_rows = int(offsets[-1])

    def forward(x, ops=tuple(ops)):
        return scale * np.concatenate([op.forward(x) for op in ops], axis=-1)

    def adjoint(y, ops=tuple(ops)):
        acc = np.zeros(y.shape[:-1] + (cols,))
        for op, lo, hi in zip(ops, offsets[:-1], offsets[1:]):
            acc += op.adjoint(y[..., lo:hi])
        return scale * acc

    return LinearMap(rows=total_rows, cols=cols, forward=forward,
                     adjoint=adjoint, tag=f"rms-stack[{len(ops)}]")


def gram_average(G: np.ndarray, actions) -> np.ndarray:
    """Overwrite ``G = A^T A`` with the Gram of the RMS stack of ``A∘T_g``.

    Each block's Gram is ``P_g^T G P_g`` (the actions are orthogonal
    permutations), so the stacked Gram is their mean over ``actions``:
    entry ``(k, l)`` of ``G`` lands at ``(p[k], p[l])`` with ``p`` the
    action's permutation.  The result is built in ``G``'s own buffer, which
    is returned; pass a copy to keep ``G``.
    """
    rows, cols = np.nonzero(G)
    values = G[rows, cols]
    G.fill(0.0)
    for T in actions:
        p = T.permutation
        G[p[rows], p[cols]] += values  # a permutation never sends two entries to one cell
    G /= len(actions)
    return G


def band_dense(band: BandGram, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The matrix a band stores, in stored order, and the same matrix in cell
    order: row and column ``k`` of the stored order are cell ``order[k]``.

    ``blocks[j, r]`` is the block ``(j + r, j)`` of the stored order's
    blocks of ``b`` cells, its transpose is the block ``(j, j + r)``, and a
    block whose row ``j + r`` is past the last is not part of the matrix.
    """
    N, width, b, _ = band.blocks.shape
    stored = np.zeros((N * b, N * b))
    for j in range(N):
        for r in range(min(width, N - j)):
            rows, cols = slice((j + r) * b, (j + r + 1) * b), slice(j * b, (j + 1) * b)
            stored[rows, cols] = band.blocks[j, r]
            if r:
                stored[cols, rows] = band.blocks[j, r].T
    cells = np.empty_like(stored)
    cells[np.ix_(order, order)] = stored
    return stored, cells


def covering_radius_loop(angles, n_theta: int) -> int:
    """Grow the mask of covered angle columns by one shift each way until it
    is full; the number of shifts is the covering radius."""
    hit = np.zeros(n_theta, dtype=bool)
    hit[np.asarray(angles, dtype=int) % n_theta] = True
    if not hit.any():
        raise ValueError("angle set must be nonempty")
    shifts = 0
    while not hit.all():
        hit = hit | np.roll(hit, 1) | np.roll(hit, -1)
        shifts += 1
    return shifts


def angle_reflection(n_r: int, n_theta: int) -> GroupAction:
    """The reflection ``(r, θ) -> (r, -θ mod n_theta)`` of a polar-grid image
    (radius major, angle minor): ``out(r, θ) = x(r, -θ)``."""
    perm = [r * n_theta + (-t) % n_theta for r in range(n_r) for t in range(n_theta)]
    return GroupAction(dimension=n_r * n_theta, permutation=np.array(perm), power=0, label="F")


def radial_flip(n_r: int, n_theta: int) -> GroupAction:
    """The flip ``(r, θ) -> (n_r - 1 - r, θ)`` of a polar-grid image:
    ``out(r, θ) = x(n_r - 1 - r, θ)``."""
    perm = [(n_r - 1 - r) * n_theta + t for r in range(n_r) for t in range(n_theta)]
    return GroupAction(dimension=n_r * n_theta, permutation=np.array(perm), power=0, label="R")


def with_flips(subset: SymmetricSubset, *flips: GroupAction) -> SymmetricSubset:
    """The subset times ``{1, F}`` for each flip ``F`` in turn: the actions so
    far, then each of them followed by ``F``, ``x -> T(F x)``, which gathers
    ``x[F.perm[T.perm]]``.  The shift stays each action's ``power``."""
    actions = list(subset)
    for F in flips:
        actions += [GroupAction(dimension=T.dimension, permutation=F.permutation[T.permutation],
                                power=T.power, label=f"{T.label}*{F.label}") for T in actions]
    return SymmetricSubset(actions=tuple(actions), radius=subset.radius)


def rotation_group(n_r: int, n_theta: int) -> SymmetricSubset:
    """Every rotation of the grid once: the shifts ``0, 1, -1, 2, -2, ...``
    up to ``(n_theta - 1) // 2``, then the half turn when ``n_theta`` is even,
    its own inverse."""
    shifts = [0] + [s for k in range(1, (n_theta - 1) // 2 + 1) for s in (k, -k)]
    shifts += [n_theta // 2] * (n_theta % 2 == 0)
    return SymmetricSubset(actions=tuple(polar_theta_shift(n_r, n_theta, s) for s in shifts),
                           radius=n_theta // 2)
