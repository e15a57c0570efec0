"""Hot numeric kernels for the polar sensing operator.

The angle-subsampled forward/adjoint actions are the inner loop of every
solver run (two applications per iteration, tens of thousands of iterations
per experiment), so they exist in two interchangeable implementations:

* a numba ``@njit`` version, used by default when numba is importable, and
* a pure-numpy version (gather + einsum / scatter-add).

Set the environment variable ``GROUPPGD_NUMBA=0`` before import to force the
numpy path.  ``NUMBA_ENABLED`` records which path is active.  Both paths are
deterministic; they may differ from each other by float round-off only
(different summation order), never within a path.

Kernel data layout: a signal is an ``(n_r, n_theta)`` grid raveled row-major
(radius major, angle minor).  ``cols[a, k]`` is the grid angle column read by
measurement angle ``a`` at window offset ``k``; ``weights[a, j, r, k]`` is the
response of ray ``j`` of measurement angle ``a`` at radius ``r`` and offset
``k``.  The adjoint consumes the same tensor transposed to
``weights_t[a, r, k, j]`` so both directions reduce over a contiguous last
axis.  Weights are indexed by position in the angle list, not by absolute
angle, which is what lets angle-set shifts commute exactly with signal-domain
rotations.

``python3 perfbench/run.py --workload <name> --trace 1``, run from the
repository root, times the active path on a benchmark workload's shapes.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "polar_forward",
    "polar_adjoint",
    "polar_forward_numpy",
    "polar_adjoint_numpy",
    "polar_forward_numba",
    "polar_adjoint_numba",
]


def _numba_requested() -> bool:
    value = os.environ.get("GROUPPGD_NUMBA", "1").strip().lower()
    return value not in ("0", "false", "no", "off")


def polar_forward_numpy(x2, cols, weights):
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
    gathered = x2[:, cols]  # (n_r, n_angles, n_off)
    return np.einsum("ajrk,rak->aj", weights, gathered).ravel()


def polar_adjoint_numpy(y, cols, weights_t, n_r, n_theta):
    """Adjoint of :func:`polar_forward_numpy`; returns an (n_r * n_theta,) vector.

    ``weights_t`` is the forward weight tensor with axes ``(a, r, k, j)``.
    """
    n_angles, n_off = cols.shape
    rays = weights_t.shape[3]
    y2 = y.reshape(n_angles, rays)
    contrib = np.einsum("arkj,aj->akr", weights_t, y2)  # (n_angles, n_off, n_r)
    out_t = np.zeros((n_theta, n_r))
    # duplicate columns must accumulate, hence the unbuffered scatter-add
    np.add.at(out_t, cols.ravel(), contrib.reshape(n_angles * n_off, n_r))
    return out_t.T.ravel()


def _forward_loops(x2, cols, weights, out):
    n_angles, n_off = cols.shape
    rays = weights.shape[1]
    n_r = x2.shape[0]
    patch = np.empty((n_r, n_off))
    for a in range(n_angles):
        # gather the window once per angle; rays then read contiguously
        for r in range(n_r):
            for k in range(n_off):
                patch[r, k] = x2[r, cols[a, k]]
        base = a * rays
        for j in range(rays):
            acc = 0.0
            for r in range(n_r):
                for k in range(n_off):
                    acc += weights[a, j, r, k] * patch[r, k]
            out[base + j] = acc


def _adjoint_loops(y, cols, weights_t, out2):
    n_angles, n_r, n_off, rays = weights_t.shape
    for a in range(n_angles):
        base = a * rays
        for r in range(n_r):
            for k in range(n_off):
                acc = 0.0
                for j in range(rays):
                    acc += weights_t[a, r, k, j] * y[base + j]
                out2[r, cols[a, k]] += acc


NUMBA_ENABLED = False
polar_forward_numba = None
polar_adjoint_numba = None

if _numba_requested():
    try:
        from numba import njit
    except ImportError:
        pass
    else:
        _forward_nb = njit(cache=True)(_forward_loops)
        _adjoint_nb = njit(cache=True)(_adjoint_loops)

        def polar_forward_numba(x2, cols, weights):
            out = np.empty(cols.shape[0] * weights.shape[1])
            _forward_nb(x2, cols, weights, out)
            return out

        def polar_adjoint_numba(y, cols, weights_t, n_r, n_theta):
            out2 = np.zeros((n_r, n_theta))
            _adjoint_nb(y, cols, weights_t, out2)
            return out2.ravel()

        NUMBA_ENABLED = True

if NUMBA_ENABLED:
    polar_forward = polar_forward_numba
    polar_adjoint = polar_adjoint_numba
else:
    polar_forward = polar_forward_numpy
    polar_adjoint = polar_adjoint_numpy
