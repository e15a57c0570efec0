"""Reference operators the tests compare the program against.

These are direct formulations of what the program computes another way:
the rotated operator as a composition with the action
(``compose_with_action``; the program gathers through a window table), the
RMS stack over a subset whose Gram is the certificate's averaged Gram
(``stack_mean``; the program permutes ``A^T A``), that averaged Gram as a
dense matrix (``gram_average``; the program stores it as a band), the dense
matrix a band stands for (``band_dense``), and the identity map.
"""

import numpy as np

from grouppgd.linop import BandGram, DimensionMismatchError, LinearMap
from grouppgd.symmetry import GroupAction


def identity_map(d: int) -> LinearMap:
    return LinearMap(rows=d, cols=d, forward=lambda x: x.copy(),
                     adjoint=lambda y: y.copy(), tag=f"identity[{d}]")


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


def band_dense(band: BandGram) -> tuple[np.ndarray, np.ndarray]:
    """The padded matrix a band stores, in stored order, and its cell-ordered part."""
    nb, b, _ = band.diag.shape
    stored = np.zeros((nb * b, nb * b))
    for i in range(nb):
        stored[i * b:(i + 1) * b, i * b:(i + 1) * b] = band.diag[i]
    for i in range(nb - 1):
        stored[(i + 1) * b:(i + 2) * b, i * b:(i + 1) * b] = band.lower[i]
        stored[i * b:(i + 1) * b, (i + 1) * b:(i + 2) * b] = band.lower[i].T
    d = len(band.order)
    cells = np.empty((d, d))
    cells[np.ix_(band.order, band.order)] = stored[:d, :d]
    return stored, cells
