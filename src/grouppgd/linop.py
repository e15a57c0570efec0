"""Matrix-free linear operators: application, adjoints, group composition,
normalized stacking, and spectral quantities.

Operators are immutable ``LinearMap`` records holding forward/adjoint
closures plus exact dimensions.  Everything downstream (solver steps,
certificates, dense oracles) goes through this surface, so the adjoint
consistency of each constructor is what the whole test suite leans on.

Forward and adjoint act on the last axis: a stack of shape ``(R, cols)``
maps to ``(R, rows)`` and back, and every row gets the same bits as its own
1-D call.  The solver steps a whole ensemble as one stack and
:func:`gram_dense` probes blocks of basis vectors on that guarantee, so
every constructor here keeps it (stacked ``np.matmul`` products, never a
gemm over the stack).

Spectral quantities are exact: :func:`gram_eigvals` probes the Gram of the
operator's smaller side (``A A^T`` for a wide operator, ``A^T A`` otherwise)
and eigendecomposes it, and :func:`spectral_norm` is its top eigenvalue.
Both refuse operators whose smaller side exceeds ``DENSE_CAP``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .symmetry import GroupAction

__all__ = [
    "LinearMap",
    "DimensionMismatchError",
    "SizeCapError",
    "from_dense",
    "identity_map",
    "compose_with_action",
    "stack_mean",
    "spectral_norm",
    "gram_eigvals",
    "gram_dense",
    "gram_average",
]

DENSE_CAP = 4096
_AVERAGE_CHUNK = 8192  # Gram nonzeros moved per fancy-index update
_PROBE_BLOCK = 16  # basis vectors per gram_dense probe


class DimensionMismatchError(ValueError):
    """Operator, action, or vector dimensions do not line up."""


class SizeCapError(ValueError):
    """A dense assembly was requested above the configured size cap."""


@dataclass(frozen=True)
class LinearMap:
    """A real linear operator given by its forward and adjoint actions.

    ``forward`` maps arrays whose last axis has length ``cols`` to arrays
    whose last axis has length ``rows``; ``adjoint`` maps the other way.
    Leading axes are a batch, and each batch entry gets the same bits as its
    own 1-D call.  Constructors in this module guarantee
    <Ax, y> == <x, A^T y> up to round-off.
    """

    rows: int
    cols: int
    forward: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    tag: str = ""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Return ``A x``, validating the length of the last axis."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.cols:
            raise DimensionMismatchError(
                f"operator {self.tag!r} expects length {self.cols}, got shape {x.shape}"
            )
        return self.forward(x)


def from_dense(matrix: np.ndarray, tag: str = "dense") -> LinearMap:
    """Wrap a dense 2-D array as a LinearMap with exact matrix-vector products.

    A stack is multiplied one row at a time (a stacked ``np.matmul`` of the
    matrix with column vectors), which keeps each row's bits.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D array, got ndim={M.ndim}")
    return LinearMap(
        rows=M.shape[0],
        cols=M.shape[1],
        forward=lambda x, M=M: np.matmul(M, x[..., None])[..., 0],
        adjoint=lambda y, M=M: np.matmul(M.T, y[..., None])[..., 0],
        tag=tag,
    )


def identity_map(d: int) -> LinearMap:
    return LinearMap(rows=d, cols=d, forward=lambda x: x.copy(),
                     adjoint=lambda y: y.copy(), tag=f"identity[{d}]")


def compose_with_action(A: LinearMap, T: GroupAction) -> LinearMap:
    """Return the operator ``x -> A(T x)``.

    The adjoint is ``y -> T^{-1}(A^T y)`` because group actions are
    orthogonal permutations.  Rows and cols are preserved.
    """
    if A.cols != T.dimension:
        raise DimensionMismatchError(
            f"cannot compose: operator has {A.cols} columns, action acts on "
            f"dimension {T.dimension}"
        )
    return LinearMap(
        rows=A.rows,
        cols=A.cols,
        forward=lambda x: A.forward(T.apply(x)),
        adjoint=lambda y: T.apply_inverse(A.adjoint(y)),
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


def spectral_norm(A: LinearMap) -> float:
    """Largest eigenvalue of ``A^T A``, exactly: the top of :func:`gram_eigvals`."""
    return float(gram_eigvals(A)[-1])


def gram_eigvals(A: LinearMap) -> np.ndarray:
    """Ascending eigenvalues of ``A^T A``, from the Gram of the smaller side.

    A wide operator (``rows < cols``) shares its nonzero spectrum with the
    ``rows x rows`` Gram ``A A^T``, which is probed through the adjoint and
    padded with ``cols - rows`` zeros; otherwise ``A^T A`` is probed.  Either
    way :func:`gram_dense` refuses a probed side above ``DENSE_CAP``.
    """
    if A.rows >= A.cols:
        return np.linalg.eigvalsh(gram_dense(A))
    transpose = LinearMap(rows=A.cols, cols=A.rows, forward=A.adjoint,
                          adjoint=A.forward, tag=f"{A.tag}^T")
    small = np.linalg.eigvalsh(gram_dense(transpose))
    return np.sort(np.concatenate([np.zeros(A.cols - A.rows), small]))


def gram_dense(A: LinearMap, cap: int = DENSE_CAP) -> np.ndarray:
    """Assemble ``A^T A`` densely by probing with basis vectors.

    The basis vectors go through the operator ``_PROBE_BLOCK`` at a time as
    one stack; by the stack contract column ``j`` has the bits of probing
    ``e_j`` alone.  Refuses operators wider than ``cap`` columns; the dense
    path exists to back small-instance oracles, not production solves.
    """
    if A.cols > cap:
        raise SizeCapError(
            f"gram_dense refused: {A.cols} columns exceeds cap {cap}"
        )
    G = np.empty((A.cols, A.cols))
    for lo in range(0, A.cols, _PROBE_BLOCK):
        hi = min(lo + _PROBE_BLOCK, A.cols)
        E = np.zeros((hi - lo, A.cols))
        E[np.arange(hi - lo), np.arange(lo, hi)] = 1.0
        G[:, lo:hi] = A.adjoint(A.forward(E)).T
    return G


def gram_average(G: np.ndarray, actions) -> np.ndarray:
    """Overwrite ``G = A^T A`` with the Gram of the RMS stack of ``A∘T_g``.

    Each block's Gram is ``P_g^T G P_g`` (the actions are orthogonal
    permutations), so the stacked Gram is their mean over ``actions`` and
    needs no operator applications.  Only the nonzeros of ``G`` are moved:
    entry ``(k, l)`` lands at ``(p[k], p[l])`` with ``p`` the action's
    permutation, and a permutation never sends two entries to one cell.  The
    result is built in ``G``'s own buffer, which is returned, so no second
    dense matrix is allocated; pass a copy to keep ``G``.
    """
    rows, cols = np.nonzero(G)
    values = G[rows, cols]
    G.fill(0.0)
    for T in actions:
        p = T.permutation
        # small chunks keep the index temporaries from leaving heap residue
        # that would add to the peak memory of the eigensolve that follows
        for lo in range(0, len(values), _AVERAGE_CHUNK):
            hi = lo + _AVERAGE_CHUNK
            G[p[rows[lo:hi]], p[cols[lo:hi]]] += values[lo:hi]
    G /= len(actions)
    return G
