"""Hot numeric kernels for the polar sensing operator.

The angle-subsampled forward/adjoint actions are the inner loop of every
solver run (about three applications per iteration, tens of thousands of
iterations per experiment), so each is a handful of numpy calls on the whole
operator: one gather or scatter plus one batched ``np.matmul``.  There is one
kernel path; ``NUMBA_ENABLED`` is the constant ``False``, kept because the
benchmark reports it.

Data layout: a signal is an ``(n_r, n_theta)`` grid raveled row-major
(radius major, angle minor).  ``cols[a, k]`` is the grid angle column read by
measurement angle ``a`` at window offset ``k``; ``weights[a, j, r, k]`` is the
response of ray ``j`` of measurement angle ``a`` at radius ``r`` and offset
``k``.  The adjoint consumes the same tensor transposed to
``weights_t[a, r, k, j]``, so both directions multiply a contiguous
``(a, rows, inner)`` stack by one vector per angle.  Weights are indexed by
position in the angle list, not by absolute angle, which is what lets
angle-set shifts commute exactly with signal-domain rotations.

The operator reads only its window: the cells :func:`window_index` lists
(``r * n_theta + cols[a, k]`` in ``(a, r, k)`` order).  The kernels are split
at that window.  :func:`polar_window_forward` maps the gathered window
values to the measurements and :func:`polar_window_adjoint` maps the
measurements back to one value per window cell; both are one batched
``np.matmul``.  :func:`scatter_add` adds window values into their cells with
``np.bincount``: windows of different angles may read the same column, and
``bincount`` adds every duplicate, in the fixed ``(row, a, r, k)`` order,
starting from ``+0.0``, several times faster than the unbuffered
``np.add.at``.  :func:`polar_forward` and :func:`polar_adjoint` are the
whole operator, window index included; the operator itself builds its index
once and calls the window kernels.

Every kernel takes any number of leading batch axes: ``x2`` of shape
``(..., n_r, n_theta)`` and ``y`` of shape ``(..., n_angles * rays)`` hold
one signal or measurement per batch entry.  The gather is ``take``, which
lays the window out C-contiguously, one batch entry after the other.  A
stacked ``np.matmul`` gives each angle's block the same bits as multiplying
it alone, and ``bincount`` adds each entry's terms in sequence, so every
batch entry gets the same bits as its own unbatched call, whatever the batch
size.

``python3 perfbench/run.py --workload <name> --trace 1``, run from the
repository root, times :func:`polar_forward` and :func:`polar_adjoint` on a
benchmark workload's shapes.  Those rebuild the window index on every call,
so their numbers are not those of the operator's window kernels (ROADMAP
item 1).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["NUMBA_ENABLED", "window_index", "polar_window_forward",
           "polar_window_adjoint", "scatter_add", "polar_forward", "polar_adjoint"]

NUMBA_ENABLED = False


def window_index(cols, n_r, n_theta):
    """Flat signal index ``r * n_theta + cols[a, k]``, shape ``(n_angles, n_r, n_off)``."""
    return np.arange(0, n_r * n_theta, n_theta)[:, None] + cols[:, None, :]


def polar_window_forward(window, weights):
    """Measurements from the window values; ``(..., n_angles * n_r * n_off)`` in.

    ``window`` holds the cells of :func:`window_index` in its ``(a, r, k)``
    order and must be C-contiguous per batch entry (as ``take`` lays it out):
    a strided vector sends ``matmul`` down another summation path.  Returns
    ``(..., n_angles * rays_per_angle)``, angle-major / ray-minor.
    """
    n_angles, rays, n_r, n_off = weights.shape
    batch = window.shape[:-1]
    out = np.matmul(weights.reshape(n_angles, rays, n_r * n_off),
                    window.reshape(batch + (n_angles, n_r * n_off, 1)))
    return out.reshape(batch + (n_angles * rays,))


def polar_window_adjoint(y, weights_t):
    """Adjoint of :func:`polar_window_forward`: one value per window cell.

    ``weights_t`` is the forward weight tensor with axes ``(a, r, k, j)``.
    Returns ``(..., n_angles * n_r * n_off)`` in the window's ``(a, r, k)``
    order.
    """
    n_angles, n_r, n_off, rays = weights_t.shape
    batch = y.shape[:-1]
    contrib = np.matmul(weights_t.reshape(n_angles, n_r * n_off, rays),
                        y.reshape(batch + (n_angles, rays, 1)))
    return contrib.reshape(batch + (n_angles * n_r * n_off,))


def scatter_add(index, values, size):
    """Add ``values[..., i]`` into cell ``index[i]`` of a zero ``(..., size)`` array.

    ``index`` is flat; duplicates add in index order, per batch entry.
    """
    batch = values.shape[:-1]
    count = math.prod(batch)
    flat = index.ravel()
    if count != 1:
        flat = (flat + size * np.arange(count)[:, None]).ravel()
    out = np.bincount(flat, weights=values.ravel(), minlength=count * size)
    return out.reshape(batch + (size,))


def polar_forward(x2, cols, weights):
    """Apply the angle-subsampled operator to polar signals.

    Parameters
    ----------
    x2 : (..., n_r, n_theta) array; a 2-D array is one signal
    cols : (n_angles, n_off) int array of grid angle columns per measurement
        angle and window offset
    weights : (n_angles, rays_per_angle, n_r, n_off) array

    Returns
    -------
    (..., n_angles * rays_per_angle) array, angle-major / ray-minor.
    """
    n_r, n_theta = x2.shape[-2:]
    index = window_index(cols, n_r, n_theta).ravel()
    window = x2.reshape(x2.shape[:-2] + (n_r * n_theta,)).take(index, axis=-1)
    return polar_window_forward(window, weights)


def polar_adjoint(y, cols, weights_t, n_r, n_theta):
    """Adjoint of :func:`polar_forward`; returns an ``(..., n_r * n_theta)`` array.

    ``weights_t`` is the forward weight tensor with axes ``(a, r, k, j)``.
    """
    index = window_index(cols, n_r, n_theta)
    return scatter_add(index, polar_window_adjoint(y, weights_t), n_r * n_theta)
