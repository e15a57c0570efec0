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

The adjoint scatters with ``np.bincount`` on the flat signal index
``r * n_theta + cols[a, k]``: windows of different angles may read the same
column, and ``bincount`` adds every duplicate, in the fixed ``(a, r, k)``
order, several times faster than the unbuffered ``np.add.at``.  A stacked
``np.matmul`` gives each angle's block the same bits as multiplying it
alone, so a batch over more stacked axes keeps each slice's result.

``python3 perfbench/run.py --workload <name> --trace 1``, run from the
repository root, times both kernels on a benchmark workload's shapes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NUMBA_ENABLED", "polar_forward", "polar_adjoint"]

NUMBA_ENABLED = False


def polar_forward(x2, cols, weights):
    """Apply the angle-subsampled operator to a 2-D polar signal.

    Parameters
    ----------
    x2 : (n_r, n_theta) array
    cols : (n_angles, n_off) int array of grid angle columns per measurement
        angle and window offset
    weights : (n_angles, rays_per_angle, n_r, n_off) array

    Returns
    -------
    (n_angles * rays_per_angle,) array, angle-major / ray-minor.
    """
    n_angles, rays, n_r, n_off = weights.shape
    window = x2[:, cols].transpose(1, 0, 2).reshape(n_angles, n_r * n_off, 1)
    return np.matmul(weights.reshape(n_angles, rays, n_r * n_off), window).ravel()


def polar_adjoint(y, cols, weights_t, n_r, n_theta):
    """Adjoint of :func:`polar_forward`; returns an (n_r * n_theta,) vector.

    ``weights_t`` is the forward weight tensor with axes ``(a, r, k, j)``.
    """
    n_angles, _, n_off, rays = weights_t.shape
    contrib = np.matmul(weights_t.reshape(n_angles, n_r * n_off, rays),
                        y.reshape(n_angles, rays, 1))
    index = np.arange(0, n_r * n_theta, n_theta)[:, None] + cols[:, None, :]
    return np.bincount(index.ravel(), weights=contrib.ravel(), minlength=n_r * n_theta)
