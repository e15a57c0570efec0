"""The polar kernels against a plain-loop reference, and their adjointness."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from grouppgd import kernels


def forward_loops(x2, cols, weights):
    """Reference forward: one multiply-add per weight, in loop order."""
    n_angles, rays, n_r, n_off = weights.shape
    out = np.zeros(n_angles * rays)
    for a in range(n_angles):
        for j in range(rays):
            acc = 0.0
            for r in range(n_r):
                for k in range(n_off):
                    acc += weights[a, j, r, k] * x2[r, cols[a, k]]
            out[a * rays + j] = acc
    return out


def adjoint_loops(y, cols, weights_t, n_r, n_theta):
    """Reference adjoint: every (angle, radius, offset) adds into its cell."""
    n_angles, _, n_off, rays = weights_t.shape
    out2 = np.zeros((n_r, n_theta))
    for a in range(n_angles):
        for r in range(n_r):
            for k in range(n_off):
                acc = 0.0
                for j in range(rays):
                    acc += weights_t[a, r, k, j] * y[a * rays + j]
                out2[r, cols[a, k]] += acc
    return out2.ravel()


def random_kernel_data(seed, n_r=7, n_theta=13, n_angles=4, rays=5, n_off=3):
    rng = np.random.default_rng(seed)
    x2 = rng.standard_normal((n_r, n_theta))
    cols = rng.integers(0, n_theta, size=(n_angles, n_off)).astype(np.int64)
    weights = rng.standard_normal((n_angles, rays, n_r, n_off))
    weights_t = np.ascontiguousarray(np.moveaxis(weights, 1, 3))
    y = rng.standard_normal(n_angles * rays)
    return x2, cols, weights, weights_t, y


def assert_matches_loops(x2, cols, weights, weights_t, y):
    """Both kernels equal the loop reference to 1e-12 of the summed magnitudes.

    The bound per entry is ``1e-12 * sum |w * v|`` over the terms it adds,
    which is the relative error a change of summation order can cause.
    """
    n_r, n_theta = x2.shape
    fwd = kernels.polar_forward(x2, cols, weights)
    assert fwd.shape == (weights.shape[0] * weights.shape[1],)
    fwd_scale = forward_loops(np.abs(x2), cols, np.abs(weights))
    assert np.all(np.abs(fwd - forward_loops(x2, cols, weights)) <= 1e-12 * fwd_scale)
    adj = kernels.polar_adjoint(y, cols, weights_t, n_r, n_theta)
    assert adj.shape == (n_r * n_theta,)
    adj_scale = adjoint_loops(np.abs(y), cols, np.abs(weights_t), n_r, n_theta)
    assert np.all(np.abs(adj - adjoint_loops(y, cols, weights_t, n_r, n_theta))
                  <= 1e-12 * adj_scale)


def test_numpy_adjoint_consistency():
    x2, cols, weights, weights_t, y = random_kernel_data(0)
    fwd = kernels.polar_forward(x2, cols, weights)
    adj = kernels.polar_adjoint(y, cols, weights_t, *x2.shape)
    assert_allclose(fwd @ y, x2.ravel() @ adj, rtol=1e-12)


def test_numpy_scatter_accumulates_duplicate_columns():
    # two offsets hitting the same column must add, not overwrite
    cols = np.array([[1, 1]], dtype=np.int64)
    weights_t = np.ones((1, 2, 2, 1))
    adj = kernels.polar_adjoint(np.array([1.0]), cols, weights_t, 2, 4)
    expected = np.zeros((2, 4))
    expected[:, 1] = 2.0
    assert_allclose(adj, expected.ravel())


def test_kernels_match_loops_on_random_shapes():
    shapes = [
        dict(n_r=7, n_theta=13, n_angles=4, rays=5, n_off=3),
        dict(n_r=1, n_theta=9, n_angles=3, rays=4, n_off=3),     # one radius
        dict(n_r=5, n_theta=11, n_angles=6, rays=1, n_off=2),    # one ray per angle
        dict(n_r=4, n_theta=8, n_angles=5, rays=3, n_off=1),     # one offset
        dict(n_r=1, n_theta=1, n_angles=2, rays=1, n_off=1),     # a single cell
        dict(n_r=6, n_theta=3, n_angles=4, rays=7, n_off=5),     # window wider than the grid
    ]
    for seed, shape in enumerate(shapes):
        assert_matches_loops(*random_kernel_data(seed, **shape))


def test_kernels_match_loops_with_duplicate_columns():
    # every angle reads column 2 twice and two angles share all their columns
    x2, _, weights, weights_t, y = random_kernel_data(11, n_angles=3, n_off=3)
    cols = np.array([[2, 2, 3], [2, 2, 3], [0, 2, 2]], dtype=np.int64)
    assert_matches_loops(x2, cols, weights, weights_t, y)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_r=st.integers(1, 6), n_theta=st.integers(1, 12), n_angles=st.integers(1, 6),
       rays=st.integers(1, 6), n_off=st.integers(1, 4), batch=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_adjoint_consistency_over_random_shapes(n_r, n_theta, n_angles, rays, n_off, batch,
                                                seed):
    x2, cols, weights, weights_t, y = random_kernel_data(
        seed, n_r=n_r, n_theta=n_theta, n_angles=n_angles, rays=rays, n_off=n_off)
    fwd = kernels.polar_forward(x2, cols, weights)
    adj = kernels.polar_adjoint(y, cols, weights_t, n_r, n_theta)
    # <A x, y> and <x, A^T y> sum the same products in different orders
    scale = np.abs(weights).sum() * np.abs(x2).max() * np.abs(y).max()
    assert abs(fwd @ y - x2.ravel() @ adj) <= 1e-12 * scale
    # a batch gives every entry its own call's bits
    rng = np.random.default_rng(seed)
    X2 = rng.standard_normal((batch, n_r, n_theta))
    Y = rng.standard_normal((batch, n_angles * rays))
    fwd_b = kernels.polar_forward(X2, cols, weights)
    adj_b = kernels.polar_adjoint(Y, cols, weights_t, n_r, n_theta)
    assert fwd_b.shape == (batch, n_angles * rays) and adj_b.shape == (batch, n_r * n_theta)
    for r in range(batch):
        assert np.array_equal(fwd_b[r], kernels.polar_forward(X2[r], cols, weights))
        assert np.array_equal(adj_b[r], kernels.polar_adjoint(Y[r], cols, weights_t, n_r,
                                                              n_theta))
