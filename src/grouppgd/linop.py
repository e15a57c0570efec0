"""Matrix-free linear operators: application, adjoints, rotation by a group
action, and spectral quantities.

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

This module is the one place where a rotation meets an operator.  A group
action is a permutation ``perm_s`` of the cells, and the rotated operator
``x -> A(x[perm_s])`` reads cell ``perm_s[c]`` wherever ``A`` reads ``c``.
:func:`window_table` lists those cells once per action, and
:func:`rotated_forward`/:func:`rotated_adjoint` gather through a table row
and scatter back through it, with no full-length permutation of the signal.

Spectral quantities are exact: :func:`gram_eigvals` probes the Gram of the
operator's smaller side (``A A^T`` for a wide operator, ``A^T A`` otherwise)
and eigendecomposes it, and :func:`spectral_norm` is its top eigenvalue.
Both refuse operators whose smaller side exceeds ``DENSE_CAP``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import kernels

__all__ = [
    "LinearMap",
    "DimensionMismatchError",
    "SizeCapError",
    "from_dense",
    "from_window",
    "window_table",
    "rotated_forward",
    "rotated_adjoint",
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

    A map built by :func:`from_window` reads only the input cells
    ``window``: ``window_forward`` maps those cells' values to the rows and
    ``window_adjoint`` maps the rows back onto them.  A map without a window
    reads all ``cols`` cells.
    """

    rows: int
    cols: int
    forward: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    tag: str = ""
    window: np.ndarray | None = field(default=None, repr=False, compare=False)
    window_forward: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False)
    window_adjoint: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False)

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


def from_window(rows: int, cols: int, window, window_forward, window_adjoint,
                tag: str = "") -> LinearMap:
    """A map that reads only the input cells ``window`` (flat, duplicates allowed).

    ``window_forward`` maps the gathered values ``x[..., window]`` to the
    rows and ``window_adjoint`` maps rows back to one value per window
    entry; the adjoint adds those into their cells
    (:func:`~grouppgd.kernels.scatter_add`).  Both window maps must keep the
    stack contract.
    """
    window = np.asarray(window, dtype=np.int64).ravel()
    return LinearMap(
        rows=rows,
        cols=cols,
        forward=lambda x: window_forward(x.take(window, axis=-1)),
        adjoint=lambda y: kernels.scatter_add(window, window_adjoint(y), cols),
        tag=tag,
        window=window,
        window_forward=window_forward,
        window_adjoint=window_adjoint,
    )


def window_table(A: LinearMap, actions) -> np.ndarray:
    """Cells each rotated operator ``x -> A(T x)`` reads: ``table[s] = perm_s[window]``.

    ``perm_s`` is the permutation of ``actions[s]``.  Shift covariance:
    where ``A`` reads cell ``c`` the rotated operator reads ``perm_s[c]``
    with the same weights, so it is ``A``'s window maps on the gathered
    values ``x[table[s]]``.  A map without a window reads every cell, so its
    table is the permutations themselves.
    """
    perms = np.stack([T.permutation for T in actions])
    return perms if A.window is None else perms[:, A.window]


def rotated_forward(A: LinearMap, X: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """``A`` applied to each row of ``X`` rotated: the rows of ``cells`` index ``X.ravel()``.

    Row ``i`` of ``cells`` is a :func:`window_table` row plus ``i * A.cols``
    (a 1-D ``cells`` is one table row, for a 1-D ``X``).  Each row gets the
    bits of ``A.forward`` on its rotated row.
    """
    read = A.forward if A.window is None else A.window_forward
    return read(X.ravel().take(cells))


def rotated_adjoint(A: LinearMap, Y: np.ndarray, cells: np.ndarray, size: int) -> np.ndarray:
    """Adjoint of :func:`rotated_forward`, as a flat array of ``size`` cells.

    A windowed map adds into the cells as its own adjoint does
    (:func:`~grouppgd.kernels.scatter_add`, from ``+0.0``, in index order);
    a map without a window writes its adjoint back through the permutation,
    which keeps every bit, signed zeros included.
    """
    if A.window is None:
        out = np.empty(size)
        out[cells] = A.adjoint(Y)
        return out
    return kernels.scatter_add(cells, A.window_adjoint(Y).ravel(), size)


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
