"""Matrix-free linear operators: application, adjoints, rotation by a group
action, and spectral quantities.

Operators are immutable ``LinearMap`` records holding forward/adjoint
closures plus exact dimensions.  Everything downstream (solver steps,
certificates, dense oracles) goes through this surface, so the adjoint
consistency of each constructor is what the whole test suite leans on.

Forward and adjoint act on the last axis: a stack of shape ``(R, cols)``
maps to ``(R, rows)`` and back, and every row gets the same bits as its own
1-D call.  The solver steps a whole ensemble as one stack, and
:func:`gram_dense` and :func:`band_gram` probe ``A^T A`` with blocks of
basis vectors on that guarantee, so every constructor here keeps it
(stacked ``np.matmul`` products, never a gemm over the stack).

This module is the one place where a rotation meets an operator.  Every map
reads a window of cells (a map built from ``forward``/``adjoint`` alone reads
every cell through them).  A group action is a permutation ``perm_s`` of the
cells, and the rotated operator ``x -> A(x[perm_s])`` reads cell
``perm_s[c]`` wherever ``A`` reads ``c``.  :func:`window_table` lists those
cells once per action: the rotated forward is ``A``'s window forward on the
values gathered through a table row, and its adjoint adds ``A``'s window
adjoint back into that row's cells, with no full-length permutation of the
signal; :func:`band_gram` moves entries of ``A^T A`` through the same rows,
and no other function reads a permutation.  The identity's row is the
window itself.  A window lists each cell once (:func:`from_window` folds
repeats), so a solver step can write its update straight into the cells it
read.

Spectral quantities are exact: :func:`gram_eigvals` probes the Gram of the
operator's smaller side (``A A^T`` for a wide operator, ``A^T A`` otherwise)
and eigendecomposes it, and :func:`spectral_norm` is its top eigenvalue.

The certificate's stack Gram, ``G = A^T A`` averaged through a subset's
permutations, is stored banded (:class:`BandGram`, built by
:func:`band_gram`): each measured angle couples only the angle columns
within its offset span, so in an order that folds the angle axis the
average is block tridiagonal.  ``G`` is probed only on the window's cells,
and each probe block's nonzeros are added into one array of block rows
through the subset's table rows; no ``cols x cols`` array is built.  A
band multiplies vectors in its stored order (``band @ V``),
:meth:`BandGram.cholesky` returns the solve of its block Cholesky factor,
kept as the inverses of the diagonal blocks, and whether that factor exists
at a shift tells on which side of the bottom eigenvalue the shift lies
(Sylvester's law of inertia).

One size rule holds for every matrix stored here: none may hold more than
``DENSE_CAP**2`` entries (:class:`SizeCapError`).  It bounds the smaller
side's Gram and the band, and is checked before either is allocated.
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
    "spectral_norm",
    "gram_eigvals",
    "gram_dense",
    "BandGram",
    "band_gram",
]

DENSE_CAP = 4096
_PROBE_BLOCK = 16  # basis vectors per probe of A^T A


class DimensionMismatchError(ValueError):
    """Operator, action, or vector dimensions do not line up."""


class SizeCapError(ValueError):
    """A matrix would be stored with more than ``DENSE_CAP**2`` entries."""


def _check_size(entries: int, what: str) -> None:
    """Refuse to store ``what`` when it holds more than ``DENSE_CAP**2`` entries."""
    if entries > DENSE_CAP ** 2:
        raise SizeCapError(f"{what}: {entries} entries, above {DENSE_CAP}**2")


@dataclass(frozen=True)
class LinearMap:
    """A real linear operator given by its forward and adjoint actions.

    ``forward`` maps arrays whose last axis has length ``cols`` to arrays
    whose last axis has length ``rows``; ``adjoint`` maps the other way.
    Leading axes are a batch, and each batch entry gets the same bits as its
    own 1-D call.  Constructors in this module guarantee
    <Ax, y> == <x, A^T y> up to round-off.

    The map reads the input cells ``window``, each listed once:
    ``window_forward`` maps those cells' values to the rows and
    ``window_adjoint`` maps the rows back onto them, one value per cell.
    These are set at construction and never passed in: a map reads every
    cell, in order, through ``forward`` and ``adjoint`` themselves, unless
    :func:`from_window` built it.  ``dataclasses.replace`` therefore
    gives a map that reads through its own ``forward`` and ``adjoint``.
    """

    rows: int
    cols: int
    forward: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    tag: str = ""
    window: np.ndarray = field(init=False, repr=False, compare=False)
    window_forward: Callable[[np.ndarray], np.ndarray] = field(
        init=False, repr=False, compare=False)
    window_adjoint: Callable[[np.ndarray], np.ndarray] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        self._set_window(np.arange(self.cols), self.forward, self.adjoint)

    def _set_window(self, *window):
        for name, value in zip(("window", "window_forward", "window_adjoint"), window):
            object.__setattr__(self, name, value)

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

    The map's own ``window`` lists distinct cells.  A ``window`` that lists
    a cell more than once keeps each cell once, in the order it first reads
    them, and its maps are wrapped: the forward expands the distinct cells'
    values back to the given window with one ``take``, and the adjoint adds
    each cell's values, in window order from ``+0.0``, with one
    ``bincount``.  Those are the bits a ``bincount`` over the given window
    gives, so ``forward`` and ``adjoint`` do not change.  A window of
    distinct cells keeps its maps.  A cell outside ``[0, cols)`` is refused
    (:class:`DimensionMismatchError`).
    """
    window = np.asarray(window, dtype=np.int64).ravel()
    outside = window[(window < 0) | (window >= cols)]
    if len(outside):
        raise DimensionMismatchError(
            f"window cell {outside[0]} is outside the operator's {cols} columns")
    if np.bincount(window).max(initial=0) > 1:
        _, first, expand = np.unique(window, return_index=True, return_inverse=True)
        order = np.argsort(first)
        distinct, expand = window[first[order]], np.argsort(order)[expand]
        window, given_forward, given_adjoint = distinct, window_forward, window_adjoint
        window_forward = lambda v: given_forward(v.take(expand, axis=-1))
        window_adjoint = lambda y: kernels.scatter_add(expand, given_adjoint(y), len(distinct))
    A = LinearMap(
        rows=rows,
        cols=cols,
        forward=lambda x: window_forward(x.take(window, axis=-1)),
        adjoint=lambda y: kernels.scatter_add(window, window_adjoint(y), cols),
        tag=tag,
    )
    A._set_window(window, window_forward, window_adjoint)
    return A


def window_table(A: LinearMap, actions) -> np.ndarray:
    """Cells each rotated operator ``x -> A(T x)`` reads: ``table[s] = perm_s[window]``.

    ``perm_s`` is the permutation of ``actions[s]``.  Shift covariance:
    where ``A`` reads cell ``c`` the rotated operator reads ``perm_s[c]``
    with the same weights, so it is ``A``'s window maps on the gathered
    values ``x[table[s]]``.  An action of another dimension than
    ``A.cols`` is refused (:class:`DimensionMismatchError`).
    """
    for T in actions:
        if T.dimension != A.cols:
            raise DimensionMismatchError(
                f"action dimension {T.dimension} does not match operator columns {A.cols}")
    return np.stack([T.permutation[A.window] for T in actions])


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


def _gram_probes(n: int, forward, adjoint):
    """``(lo, P)`` for each block of basis vectors of length ``n``:
    ``P[j] = adjoint(forward(e_{lo + j}))``, column ``lo + j`` of that Gram.

    The basis vectors go through the maps ``_PROBE_BLOCK`` at a time as one
    stack; by the stack contract row ``j`` has the bits of probing
    ``e_{lo + j}`` alone.
    """
    for lo in range(0, n, _PROBE_BLOCK):
        hi = min(lo + _PROBE_BLOCK, n)
        E = np.zeros((hi - lo, n))
        E[np.arange(hi - lo), np.arange(lo, hi)] = 1.0
        yield lo, adjoint(forward(E))


def gram_dense(A: LinearMap) -> np.ndarray:
    """Assemble ``A^T A`` densely by probing with basis vectors.

    Every column is probed through ``A.forward`` and ``A.adjoint``.  Refused
    (:class:`SizeCapError`) above ``DENSE_CAP`` columns, before any probe.
    :func:`gram_eigvals` probes the smaller side through it.
    """
    _check_size(A.cols * A.cols, f"the dense Gram of {A.cols} columns")
    G = np.empty((A.cols, A.cols))
    for lo, P in _gram_probes(A.cols, A.forward, A.adjoint):
        G[:, lo:lo + len(P)] = P.T
    return G


@dataclass(frozen=True, eq=False)
class BandGram:
    """A symmetric matrix in block-tridiagonal storage, rows taken in ``order``.

    Row and column ``k`` of the stored matrix are cell ``order[k]`` of the
    matrix it stands for.  It is padded past ``len(order)`` to ``size`` rows
    of whole blocks, with a constant on the pad's diagonal: an eigenvalue no
    cell sees.  ``band @ V`` and the solve from :meth:`cholesky` take
    vectors shaped ``(size,)`` or ``(size, k)`` in stored order; ``diag[i]``
    is diagonal block ``i`` and ``lower[i]`` the block ``(i + 1, i)`` below
    it, the blocks above the diagonal their transposes: views of block rows
    ``(nb, b, 2 b)``, row ``i`` ``lower[i - 1]`` (zeros for ``i = 0``) then ``diag[i]``.
    """

    order: np.ndarray
    diag: np.ndarray
    lower: np.ndarray

    @property
    def size(self) -> int:
        return self.diag.shape[0] * self.diag.shape[1]

    def __matmul__(self, V: np.ndarray) -> np.ndarray:
        """The stored matrix times ``V``."""
        W = V.reshape(*self.diag.shape[:2], -1)
        out = self.diag @ W
        out[1:] += self.lower @ W[:-1]
        out[:-1] += np.swapaxes(self.lower, 1, 2) @ W[1:]
        return out.reshape(V.shape)

    def cholesky(self, shift: float) -> Callable[[np.ndarray], np.ndarray] | None:
        """The solve ``V -> (S - shift I)^-1 V`` by block Cholesky, ``S`` stored, or None.

        The factor is kept as its diagonal blocks' inverses and the blocks
        below them, ``lower[i] @ inv[i].T``, so substitution is matrix
        products, accurate enough to steer a Lanczos run.  None means a
        block's Cholesky failed: by Sylvester's law of inertia the shifted
        matrix is not positive definite, up to the factorization's backward
        error.
        """
        nb, b, _ = self.diag.shape
        inv = np.empty_like(self.diag)
        coupling = np.empty_like(self.lower)
        try:
            for i in range(nb):
                schur = self.diag[i] - shift * np.eye(b)
                if i:
                    coupling[i - 1] = self.lower[i - 1] @ inv[i - 1].T
                    schur -= coupling[i - 1] @ coupling[i - 1].T
                inv[i] = np.linalg.inv(np.linalg.cholesky(schur))
        except np.linalg.LinAlgError:
            return None

        def solve(V: np.ndarray) -> np.ndarray:
            Y = V.reshape(nb, b, -1).copy()
            Y[0] = inv[0] @ Y[0]
            for i in range(1, nb):  # forward substitution
                Y[i] = inv[i] @ (Y[i] - coupling[i - 1] @ Y[i - 1])
            Y[-1] = inv[-1].T @ Y[-1]
            for i in range(nb - 2, -1, -1):  # back substitution
                Y[i] = inv[i].T @ (Y[i] - coupling[i].T @ Y[i + 1])
            return Y.reshape(V.shape)

        return solve


def band_gram(A: LinearMap, actions, order: np.ndarray, pad: float) -> BandGram:
    """``mean_g P_g^T G P_g`` over ``actions`` as a :class:`BandGram` in ``order``, ``G = A^T A``.

    ``G`` is zero off ``A.window``, so only the window's cells are probed,
    through the window maps, a block of basis vectors at a time.  The entry
    between window positions ``a`` and ``c`` is kept once, from the probe
    of the lower cell (``window[a] >= window[c]``): ``A.adjoint`` adds the
    window maps' values into zeros, so these are the bits of probing every
    cell through ``forward`` and ``adjoint``, even where a folded window
    leaves ``G`` not bitwise symmetric.  Action ``s`` moves that entry to
    the cells ``table[s, a]`` and ``table[s, c]`` of its :func:`window_table`
    row, so only the nonzeros move, added up action by action as a dense
    average would add them.  Each entry lands in the stored lower
    triangle, at one flat index of the block rows: ``(h, l)``, ``h >= l``, is
    row ``h``, column ``l - (h // b - 1) b``.  The diagonal blocks are
    mirrored, so the band is exactly symmetric.  The block size ``b`` is the
    widest stored distance of a moved nonzero from the diagonal, plus one,
    so every nonzero falls in a diagonal block or the one below it, whatever
    the operator or the actions; at worst the band is one dense block.  The
    pad's diagonal holds ``pad``.  An action of another dimension than
    ``A.cols`` is refused by :func:`window_table`, before the first probe.
    Block rows of more than ``DENSE_CAP**2`` entries are refused
    (:class:`SizeCapError`) before they are allocated, and probing stops
    once the nonzeros kept, each in its own cell of the band, pass that
    count.
    """
    d = A.cols
    # the band holds at least 2d entries, so this refuses no band the check
    # below would pass; it bounds the int32 cell indices before probing
    _check_size(d, f"the band of {d} cells")
    table = window_table(A, actions)
    window = A.window
    rows, cols, values = [], [], []  # window positions, and G's entry between them
    kept = 0
    for lo, P in _gram_probes(len(window), A.window_forward, A.window_adjoint):
        # P[j, a] is G's entry between positions a and lo + j
        j, a = np.nonzero(P != 0.0)
        lower = window[a] >= window[lo + j]
        j, a = j[lower], a[lower]
        rows.append(a.astype(np.int32))
        cols.append((lo + j).astype(np.int32))
        values.append(P[j, a])
        kept += len(a)
        _check_size(kept, f"the nonzeros of the band of {d} cells")
    rows, cols, values = np.concatenate(rows), np.concatenate(cols), np.concatenate(values)
    # int32 indices: the size rule bounds every position and cell (below d) and every
    # flat offset into the block rows (below their entries) by DENSE_CAP**2 < 2**31
    position = np.empty(d, dtype=np.int32)
    position[order] = np.arange(d)
    block = 1 + max(int(np.abs(q[rows] - q[cols]).max(initial=0))
                    for q in (position[cells] for cells in table))
    nb = -(-d // block)
    _check_size(nb * block * 2 * block, f"the band of {nb} blocks of {block} cells")
    stored = np.zeros((nb, block, 2 * block))  # block row i: block (i, i - 1), then (i, i)
    flat = stored.reshape(-1)
    for cells in table:
        q = position[cells]
        i, j = q[rows], q[cols]
        hi, at = np.maximum(i, j), np.minimum(i, j, out=i)
        at -= (hi // block - 1) * block  # in place: three index arrays per action
        at += 2 * block * hi
        # a table row lists distinct cells, so no two kept entries share one
        flat[at] += values
    stored /= len(actions)
    diag, lower = stored[:, :, block:], stored[1:, :, :block]
    iu = np.triu_indices(block, 1)
    for blk in diag:
        blk[iu] = blk.T[iu]
    tail = np.arange(d - (nb - 1) * block, block)
    diag[-1, tail, tail] = pad
    return BandGram(order=np.asarray(order, dtype=np.int64), diag=diag, lower=lower)
