"""Matrix-free linear operators: application, adjoints, rotation by a group
action, and spectral quantities.

Operators are immutable ``LinearMap`` records holding forward/adjoint
closures plus exact dimensions.  Everything downstream (solver steps,
certificates, dense oracles) goes through this surface, so the adjoint
consistency of each constructor is what the whole test suite leans on.

Forward and adjoint act on the last axis: a stack of shape ``(R, cols)``
maps to ``(R, rows)`` and back, and every row gets the same bits as its own
1-D call.  The solver steps a whole ensemble as one stack, and
:func:`gram_eigvals` and :func:`band_probe` probe Grams with blocks of basis
vectors on that guarantee, so every constructor here keeps it (stacked
``np.matmul`` products, never a gemm over the stack).

This module is the one place where a rotation meets an operator.  Every map
reads a window of cells (a map built from ``forward``/``adjoint`` alone reads
every cell through them).  A group action is a permutation ``perm_s`` of the
cells, and the rotated operator ``x -> A(x[perm_s])`` reads cell
``perm_s[c]`` wherever ``A`` reads ``c``.  :func:`window_table` lists those
cells once per action: the rotated forward is ``A``'s window forward on the
values gathered through a table row, and its adjoint adds ``A``'s window
adjoint back into that row's cells, with no full-length permutation of the
signal; a band's fill moves entries of ``A^T A`` through the same rows,
and no other function reads a permutation.  The identity's row is the
window itself.  A window lists each cell once (:func:`from_window` folds
repeats), so a solver step can write its update straight into the cells it
read.

Spectral quantities are exact: :func:`gram_eigvals` probes, through the
window maps, the Gram of the smaller of the operator's rows and its
window's cells, and :func:`spectral_norm` is its top eigenvalue.  A map
whose window maps act on independent blocks says how many
(``LinearMap.blocks``: the polar operator's measured angles), and one probe
vector then carries one position of every block (the grouping of Curtis,
Powell and Reid, *J. Inst. Maths Applics* 13, 1974), so a Gram costs the
probes of one block.  Each block's entries have the bits of probing its
positions one at a time, and the entries between blocks are the exact
``+0.0`` such probes give.

The certificate's stack Gram, ``G = A^T A`` averaged through a subset's
permutations, is stored banded (:class:`BandGram`): each measured angle
couples only the angle columns within its offset span, so in an order that
lists the cells one angle column at a time, folding the angle axis, the
average is block banded, a block per angle column.  A band has one route:
probe once, fill per use, factor where the fill lies.  :func:`band_probe`
probes ``G`` once, only on the window's cells, and keeps its lower
nonzeros with where each action moves them (a :class:`BandProbe`);
:meth:`BandProbe.fill` moves them through the subset's table rows into a
fresh band's block columns a bounded chunk at a time; and
:meth:`BandGram.cholesky` factors a band where its blocks lie, consuming
it.  A caller that needs a band twice fills it twice, so it holds one
band-sized array at a time, and no ``cols x cols`` array is built.  A band
multiplies vectors in its stored order (``band @ V``), its factor is kept
as its pivots' inverses and the blocks below them with those folded in,
and whether that factor exists at a shift tells on which side of the
bottom eigenvalue the shift lies (Sylvester's law of inertia).

One size rule holds for every matrix stored here: none may hold more than
``DENSE_CAP**2`` entries (:class:`SizeCapError`).  It bounds the probed
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
    "from_window",
    "window_table",
    "spectral_norm",
    "gram_eigvals",
    "gram_dense",
    "BandGram",
    "BandProbe",
    "band_probe",
]

DENSE_CAP = 4096
_PROBE_BLOCK = 16  # basis vectors per probe of A^T A
_FILL_CHUNK = 4096  # kept nonzeros moved into a band at a time


class DimensionMismatchError(ValueError):
    """Operator, action, or vector dimensions do not line up."""


class SizeCapError(ValueError):
    """A matrix would be stored with more than ``DENSE_CAP**2`` entries."""


def _check_size(entries: int, what: str) -> None:
    """Refuse to store ``what`` when it holds more than ``DENSE_CAP**2`` entries."""
    if entries > DENSE_CAP ** 2:
        raise SizeCapError(f"{what}: {entries} entries, above {DENSE_CAP}**2")


def _check_integer(name: str, value) -> None:
    """Refuse ``value`` unless it is an integer; a ``bool`` is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def _cells(name: str, cells) -> np.ndarray:
    """``cells`` as an int64 array; refused (``TypeError``) unless its dtype
    is an integer kind, so no index is truncated.  An empty array holds none."""
    cells = np.asarray(cells)
    if cells.size and cells.dtype.kind not in "iu":
        raise TypeError(f"{name} must hold integer cells, got dtype {cells.dtype}")
    return cells.astype(np.int64, copy=False)


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

    ``blocks`` counts the independent blocks the window maps act on: the
    rows and the window split into that many equal consecutive runs, and
    block ``b``'s rows read only block ``b``'s window cells.  It is 1 unless
    :func:`from_window` was given more.
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
    blocks: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._set_window(np.arange(self.cols), self.forward, self.adjoint, 1)

    def _set_window(self, *window):
        for name, value in zip(("window", "window_forward", "window_adjoint", "blocks"), window):
            object.__setattr__(self, name, value)


def from_window(rows: int, cols: int, window, window_forward, window_adjoint,
                tag: str = "", blocks: int = 1) -> LinearMap:
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
    (:class:`DimensionMismatchError`), and a nonempty ``window`` whose dtype
    is not an integer kind (``TypeError``).

    ``blocks`` is the caller's promise that the window maps act on that many
    independent blocks (see :class:`LinearMap`), so that :func:`gram_eigvals`
    and :func:`band_probe` probe every block with one vector.  A count that
    is not a positive integer dividing both ``rows`` and the given window is
    refused (``TypeError``, :class:`DimensionMismatchError`).  A window that
    folds repeated cells is one block: its blocks share cells.
    """
    _check_integer("blocks", blocks)
    window = _cells("window", window).ravel()
    if blocks < 1 or rows % blocks or len(window) % blocks:
        raise DimensionMismatchError(
            f"{blocks} blocks do not divide {rows} rows and a window of {len(window)} cells")
    outside = window[(window < 0) | (window >= cols)]
    if len(outside):
        raise DimensionMismatchError(
            f"window cell {outside[0]} is outside the operator's {cols} columns")
    if np.bincount(window).max(initial=0) > 1:
        blocks = 1
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
    A._set_window(window, window_forward, window_adjoint, blocks)
    return A


def window_table(A: LinearMap, actions) -> np.ndarray:
    """Cells each rotated operator ``x -> A(T x)`` reads: ``table[s] = perm_s[window]``.

    ``perm_s`` is the permutation of ``actions[s]``.  Shift covariance:
    where ``A`` reads cell ``c`` the rotated operator reads ``perm_s[c]``
    with the same weights, so it is ``A``'s window maps on the gathered
    values ``x[table[s]]``.  An action of another dimension than
    ``A.cols`` is refused (:class:`DimensionMismatchError`), and so is an
    empty family (``ValueError``).
    """
    if not len(actions):
        raise ValueError("the window table needs at least one action")
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

    ``A^T A`` is zero off ``A.window``, and its nonzero eigenvalues are
    those of ``A A^T``.  The smaller of the ``rows x rows`` Gram and that of
    the window's cells is probed through the window maps (``A A^T`` only
    when there are fewer rows than window cells), one vector per position
    of a block (:func:`_gram_probes`), and its spectrum is padded with
    zeros.  That Gram is block diagonal over ``A.blocks``, and each block's
    entries are those of probing its positions one at a time, the entries
    between blocks their exact ``+0.0``.  A map that reads every cell so
    takes the probes of :func:`gram_dense` on ``A`` or, when it is wide, on
    its transpose.  A probed side above ``DENSE_CAP`` is refused
    (:class:`SizeCapError`) before any probe.
    """
    if len(A.window) <= A.rows:
        small = _probed_gram(len(A.window), A.blocks, A.window_forward, A.window_adjoint)
    else:
        small = _probed_gram(A.rows, A.blocks, A.window_adjoint, A.window_forward)
    padding = np.zeros(A.cols - len(small))
    return np.sort(np.concatenate([padding, np.linalg.eigvalsh(small)]))


def _gram_probes(n: int, blocks: int, forward, adjoint):
    """``(lo, P)`` for each stack of probe vectors of length ``n``: segment
    ``b`` of ``P[j]`` is column ``lo + j`` of block ``b``'s Gram
    ``adjoint ∘ forward``, on block ``b``'s positions.

    The ``n`` positions split into ``blocks`` equal consecutive blocks that
    the maps keep apart, so probe vector ``j`` carries position ``j`` of
    every block, and ``n // blocks`` vectors probe them all.  They go
    through the maps ``_PROBE_BLOCK`` at a time as one stack; by the stack
    contract row ``j`` has the bits of probing its vector alone, and each
    block's segment those of probing its one position alone.
    """
    m = n // blocks
    for lo in range(0, m, _PROBE_BLOCK):
        hi = min(lo + _PROBE_BLOCK, m)
        E = np.zeros((hi - lo, blocks, m))
        E[np.arange(hi - lo), :, np.arange(lo, hi)] = 1.0
        yield lo, adjoint(forward(E.reshape(hi - lo, n)))


def _probed_gram(n: int, blocks: int, forward, adjoint) -> np.ndarray:
    """The ``n x n`` Gram ``adjoint ∘ forward`` of ``blocks`` independent
    blocks, each probed column by column, zero between blocks; refused
    (:class:`SizeCapError`) above ``DENSE_CAP`` columns, before any probe."""
    _check_size(n * n, f"the dense Gram of {n} columns")
    G = np.zeros((n, n))
    m = n // blocks
    own, b = G.reshape(blocks, m, blocks, m), np.arange(blocks)
    for lo, P in _gram_probes(n, blocks, forward, adjoint):
        own[b, :, b, lo:lo + len(P)] = P.reshape(len(P), blocks, m).transpose(1, 2, 0)
    return G


def gram_dense(A: LinearMap) -> np.ndarray:
    """``A^T A``, every column probed through ``A.forward`` and ``A.adjoint``:
    the reference the tests compare against.  Refused (:class:`SizeCapError`)
    above ``DENSE_CAP`` columns, before any probe."""
    return _probed_gram(A.cols, 1, A.forward, A.adjoint)


@dataclass(frozen=True, eq=False)
class BandGram:
    """A symmetric matrix stored as block columns, as :meth:`BandProbe.fill` makes it.

    Cut into ``N`` blocks of ``b`` rows, block ``(j + r, j)`` is
    ``blocks[j, r]`` for ``r = 0, ..., p`` (zeros where ``j + r >= N``), the
    blocks above the diagonal are their transposes, and every other block is
    zero.  ``band @ V`` and the solve from :meth:`cholesky` take vectors
    shaped ``(N b,)`` or ``(N b, k)`` in stored order; the probe that filled
    the band holds the cells that order lists.
    """

    blocks: np.ndarray

    def __matmul__(self, V: np.ndarray) -> np.ndarray:
        """The stored matrix times ``V``: ``2 p + 1`` stacked block products."""
        N, width, b, _ = self.blocks.shape
        W = V.reshape(N, b, -1)
        out = self.blocks[:, 0] @ W
        for r in range(1, width):
            below = self.blocks[:N - r, r]
            out[r:] += below @ W[:-r]
            out[:-r] += np.swapaxes(below, 1, 2) @ W[r:]
        return out.reshape(V.shape)

    def cholesky(self, shift: float) -> Callable[[np.ndarray], np.ndarray] | None:
        """The solve ``V -> (S - shift I)^-1 V`` by block Cholesky, ``S`` stored, or None.

        The factor is made where the blocks lie: the band is consumed, and no
        second band-sized array is allocated, so a caller that needs the band
        again copies its blocks first or fills another.

        Right-looking over block columns (Golub and Van Loan, *Matrix
        Computations*, §4.3): column ``j``'s updated blocks ``T_ij`` give its
        pivot's Cholesky factor ``C_j`` and the factor's blocks
        ``L_ij = T_ij C_j^-T`` below it, whose Gram ``L_ij L_kj^T`` comes off
        block ``(i, k)``.  The blocks end up holding
        ``S - shift I = M P M^T``: each pivot's inverse ``C_j^-T C_j^-1``,
        and ``M_ij = L_ij C_j^-1`` below it, so substitution is one product
        and one in-place update per column and direction around one stacked
        product by the pivots' inverses, accurate enough to steer a Lanczos
        run.  None means a pivot's Cholesky failed: by Sylvester's law of
        inertia the shifted matrix is not positive definite, up to the
        factorization's backward error.
        """
        N, width, b, _ = self.blocks.shape
        F = self.blocks
        F[:, 0] -= shift * np.eye(b)
        steps = []  # per column: its rows, M's blocks below it, and their rows
        for j in range(N):
            try:
                inv = np.linalg.inv(np.linalg.cholesky(F[j, 0]))
            except np.linalg.LinAlgError:
                return None
            m = min(width - 1, N - 1 - j)
            column = F[j, 1:m + 1]
            column[...] = column @ inv.T
            # the update is the Gram of L's blocks: with the inverse folded in
            # first, M T^T lost positive definiteness on singular stacks
            for r in range(m):
                F[j + 1 + r, :m - r] -= column[r:] @ column[r].T
            F[j, 0] = inv.T @ inv
            column[...] = column @ inv
            steps.append((slice(j * b, (j + 1) * b), column.reshape(m * b, b),
                          slice((j + 1) * b, (j + 1 + m) * b)))
        pivots = F[:, 0]

        def solve(V: np.ndarray) -> np.ndarray:
            Y = V.copy()
            for own, M, below in steps:  # forward substitution
                rows = Y[below]
                rows -= M.dot(Y[own])
            Y = (pivots @ Y.reshape(N, b, -1)).reshape(V.shape)
            for own, M, below in reversed(steps):  # back substitution
                rows = Y[own]
                rows -= M.T.dot(Y[below])
            return Y

        return solve


@dataclass(frozen=True, eq=False)
class BandProbe:
    """``G``'s lower nonzeros on the window, kept once, and where each action
    moves them, as :func:`band_probe` reads them: every :meth:`fill` makes the
    same band, row and column ``k`` of which are cell ``order[k]``.

    Entry ``k`` is ``G``'s entry ``values[k]`` between window positions
    ``rows[k]`` and ``cols[k]``, in the smallest integer type that holds a
    position.  ``stored[s, a]`` is the band's stored position of action
    ``s``'s cell at window position ``a`` (``table[s, a]`` placed by
    ``order``), and ``below`` the number of blocks of ``block`` cells the band
    keeps below each diagonal block.
    """

    order: np.ndarray
    block: int
    below: int
    stored: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def size(self) -> int:
        return len(self.order)

    def fill(self) -> BandGram:
        """A fresh band: the kept nonzeros moved through each action's stored
        positions into the lower triangle, averaged, diagonal blocks mirrored.

        Each entry lands at one flat index: block column ``j`` is the
        ``(p + 1) block x block`` slab of rows ``j block`` on, so ``(h, l)``,
        ``h >= l``, is at ``h block + offset[l]``, with
        ``offset[l] = l + (l // block) (p block - 1) block``.  The nonzeros
        move ``_FILL_CHUNK`` at a time, so what the fill holds beside the
        band and the probe is bounded, and are added action by action as a
        dense average adds them.
        """
        block, below = self.block, self.below
        blocks = np.zeros((self.size // block, below + 1, block, block))
        flat = blocks.reshape(-1)
        offset = np.arange(self.size)
        offset += offset // block * ((below * block - 1) * block)
        for q in self.stored:
            for lo in range(0, len(self.values), _FILL_CHUNK):
                part = slice(lo, lo + _FILL_CHUNK)
                i, j = q.take(self.rows[part]), q.take(self.cols[part])
                at = np.maximum(i, j)
                at *= block
                at += offset.take(np.minimum(i, j, out=i))
                np.add.at(flat, at, self.values[part])
        blocks /= len(self.stored)
        upper = np.triu(np.ones((block, block), bool), 1)
        for blk in blocks[:, 0]:  # one block at a time: a copy of one block is all it holds
            np.copyto(blk, blk.T, where=upper)
        return BandGram(blocks=blocks)


def band_probe(A: LinearMap, actions, order: np.ndarray, block: int) -> BandProbe:
    """The probe of ``G = A^T A`` whose every :meth:`~BandProbe.fill` is
    ``mean_g P_g^T G P_g`` over ``actions`` as a :class:`BandGram` in ``order``.

    ``G`` is zero off ``A.window``, so only the window's cells are probed,
    through the window maps, one vector per position of a block
    (:func:`_gram_probes`), a stack of them at a time; ``G`` is zero between
    blocks, so each vector's nonzeros lie in its own positions' columns.
    The entry between window positions ``a`` and ``c`` is kept once, from
    the probe of the lower cell (``window[a] >= window[c]``): ``A.adjoint``
    adds the window maps' values into zeros, so these are the bits of
    probing every cell through ``forward`` and ``adjoint``, even where a
    folded window leaves ``G`` not bitwise symmetric.  Action ``s`` moves
    that entry to the cells ``table[s, a]`` and ``table[s, c]`` of its
    :func:`window_table` row, so only the nonzeros move.  The band's blocks
    are ``block`` cells of ``order``, and ``p``, the number of blocks kept
    below each diagonal block, is the widest distance in blocks between the
    stored positions of a moved nonzero, so every nonzero falls in the band,
    whatever the operator or the actions; at worst the band is one dense
    block column.  It is read once, on classes of window positions that
    every action sends to the same block column: one distance per pair of
    classes that a nonzero links, per action.  A ``block`` that is not a
    positive integer dividing ``A.cols`` is refused (``TypeError``,
    :class:`DimensionMismatchError`), an ``order`` that is not a permutation
    of the cells too (``TypeError`` when its dtype is not an integer kind),
    and an empty family or an action of another dimension than ``A.cols``
    by :func:`window_table`, before the first probe.  A band of more than
    ``DENSE_CAP**2`` entries is refused (:class:`SizeCapError`) before a
    fill allocates it, and probing stops once the nonzeros kept, each in its
    own cell of the band, pass that count.  A map that reads no cell has the
    zero band, with ``p = 0``.
    """
    d = A.cols
    _check_integer("block", block)
    if block < 1 or d % block:
        raise DimensionMismatchError(f"blocks of {block} cells do not divide the {d} cells")
    # the band holds at least d entries, so this refuses no band the check
    # below would pass; it refuses before the first probe
    _check_size(d, f"the band of {d} cells")
    order = _cells("order", order)
    if order.shape != (d,) or order.min(initial=0) < 0 or (np.bincount(order) != 1).any():
        raise DimensionMismatchError(f"the band's order is not a permutation of the {d} cells")
    table = window_table(A, actions)
    n = len(A.window)
    m = n // A.blocks
    window = A.window.reshape(A.blocks, m)
    small = np.min_scalar_type(max(n - 1, 0))
    # window positions, and G's entry between them: none for a map that reads no cell
    rows, cols, values = [np.empty(0, small)], [np.empty(0, small)], [np.empty(0)]
    kept = 0
    for lo, P in _gram_probes(n, A.blocks, A.window_forward, A.window_adjoint):
        # P[j, a] is G's entry between position a and position lo + j of a's
        # block, kept where a's cell is not below that one
        keep = P.reshape(len(P), A.blocks, m) != 0.0
        keep &= window >= window[:, lo:lo + len(P)].T[:, :, None]
        at = np.flatnonzero(keep)
        j, a = np.divmod(at, n)
        rows.append(a.astype(small))
        cols.append((a - a % m + lo + j).astype(small))
        values.append(P.take(at))
        kept += len(at)
        _check_size(kept, f"the nonzeros of the band of {d} cells")
    # sorted by window position: a fill then reads the stored positions and
    # adds into the band nearly in order.  No bit moves: no two kept entries
    # land in one cell of the band through one action.  One field at a time,
    # joined and then sorted, so no statement holds the three fields twice
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    values = np.concatenate(values)
    at = np.lexsort((cols, rows))
    rows = rows[at]
    cols = cols[at]
    values = values[at]
    del at
    position = np.empty(d, dtype=np.intp)
    position[order] = np.arange(d)
    stored = position.take(table)
    column = stored // block
    below = 0
    if len(values):
        # class k holds the window positions whose block columns, one per
        # action, are column[:, first[k]]; a chunk of nonzeros at a time
        # lists the pairs of classes they link
        sort = np.lexsort(column)
        edge = (column[:, sort[1:]] != column[:, sort[:-1]]).any(axis=0)
        first = sort[np.flatnonzero(np.r_[True, edge])]
        classes = np.empty(n, np.intp)
        classes[sort] = np.cumsum(np.r_[0, edge])
        pairs = [_distinct(classes.take(rows[lo:lo + _FILL_CHUNK]) * len(first)
                           + classes.take(cols[lo:lo + _FILL_CHUNK]))
                 for lo in range(0, len(values), _FILL_CHUNK)]
        k, l = np.divmod(_distinct(np.concatenate(pairs)), len(first))
        below = max(int(np.abs(c.take(k) - c.take(l)).max()) for c in column.take(first, axis=1))
    N = d // block
    _check_size(N * (below + 1) * block * block,
                f"the band of {N} columns of {below + 1} blocks of {block} cells")
    return BandProbe(order=order, block=block, below=below, stored=stored,
                     rows=rows, cols=cols, values=values)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, ascending; sorts ``values`` in place."""
    values.sort()
    return values[np.r_[True, values[1:] != values[:-1]]]
