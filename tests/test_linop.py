"""Operator algebra against dense oracles."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from grouppgd import kernels, linop
from grouppgd.linop import (
    DENSE_CAP,
    DimensionMismatchError,
    LinearMap,
    SizeCapError,
    band_gram,
    from_dense,
    from_window,
    gram_dense,
    gram_eigvals,
    spectral_norm,
    window_table,
)
from grouppgd.bench import (Geometry, angle_subsampled_operator, full_coverage_radius,
                            shifted_angles)
from grouppgd.constraint import Box
from grouppgd.solver import group_pgd_step
from grouppgd.symmetry import (
    identity_action,
    polar_theta_shift,
    symmetric_subset,
)
from oracles import band_dense, compose_with_action, gram_average, identity_map, stack_mean


def dense_of(A):
    """Assemble the dense matrix of a LinearMap by forward-probing the basis."""
    M = np.empty((A.rows, A.cols))
    e = np.zeros(A.cols)
    for j in range(A.cols):
        e[j] = 1.0
        M[:, j] = A.forward(e)
        e[j] = 0.0
    return M


def permutation_matrix(action):
    # apply(x) = x[perm] is left multiplication by I[perm]
    return np.eye(action.dimension)[action.permutation]


def check_adjoint(A, rng, trials=100, rtol=1e-10):
    for _ in range(trials):
        x = rng.standard_normal(A.cols)
        y = rng.standard_normal(A.rows)
        lhs = A.forward(x) @ y
        rhs = x @ A.adjoint(y)
        assert abs(lhs - rhs) <= rtol * max(abs(lhs), abs(rhs), 1e-30)


def test_apply_identity():
    A = identity_map(3)
    assert_allclose(A(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_apply_diagonal():
    A = from_dense(np.array([[2.0, 0.0], [0.0, 1.0]]))
    assert_allclose(A(np.array([1.0, 1.0])), [2.0, 1.0])


def test_apply_matches_dense_oracle():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((8, 16))
    A = from_dense(M)
    for _ in range(10):
        x = rng.standard_normal(16)
        assert_allclose(A.forward(x), M @ x, rtol=1e-12, atol=1e-14)


def test_apply_rejects_wrong_length():
    A = identity_map(4)
    with pytest.raises(DimensionMismatchError):
        A(np.zeros(5))


def test_adjoint_consistency_all_constructors():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((10, 12))
    base = from_dense(M)
    shift = polar_theta_shift(1, 12, 3)
    composed = compose_with_action(base, shift)
    stacked = stack_mean([base, composed, base])
    polar = angle_subsampled_operator(4, 6, angles=(0, 2, 4), rays_per_angle=5,
                                      seed=3)
    for op in (identity_map(9), base, composed, stacked, polar):
        check_adjoint(op, rng)


def test_compose_with_identity_action_is_noop():
    rng = np.random.default_rng(0)
    A = from_dense(rng.standard_normal((5, 8)))
    composed = compose_with_action(A, identity_action(8))
    for _ in range(10):
        x = rng.standard_normal(8)
        assert_allclose(composed.forward(x), A.forward(x), rtol=1e-14, atol=0)


def test_compose_equals_directly_shifted_operator():
    # measuring through a rotation is the same as measuring a shifted angle set
    n_r, n_theta = 5, 12
    A = angle_subsampled_operator(n_r, n_theta, angles=(0, 3, 6, 9),
                                  rays_per_angle=4, seed=5)
    rng = np.random.default_rng(1)
    for s in (-3, -1, 0, 1, 2, 5):
        T = polar_theta_shift(n_r, n_theta, s)
        composed = compose_with_action(A, T)
        direct = angle_subsampled_operator(
            n_r, n_theta, angles=shifted_angles((0, 3, 6, 9), s, n_theta),
            rays_per_angle=4, seed=5)
        for _ in range(5):
            x = rng.standard_normal(n_r * n_theta)
            assert np.array_equal(composed.forward(x), direct.forward(x))


def test_compose_dimension_mismatch():
    A = from_dense(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        compose_with_action(A, polar_theta_shift(1, 4, 1))


def test_stack_mean_singleton_is_identity_scale():
    rng = np.random.default_rng(2)
    A = from_dense(rng.standard_normal((4, 6)))
    stacked = stack_mean([A])
    x = rng.standard_normal(6)
    assert_allclose(stacked.forward(x), A.forward(x), rtol=1e-15, atol=0)


def test_stack_mean_two_identities_preserves_norm():
    stacked = stack_mean([identity_map(3), identity_map(3)])
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(3)
        assert_allclose(np.linalg.norm(stacked.forward(x)), np.linalg.norm(x),
                        rtol=1e-12)


def test_stack_mean_gram_is_block_average():
    rng = np.random.default_rng(4)
    A = from_dense(rng.standard_normal((6, 10)))
    actions = [polar_theta_shift(1, 10, s) for s in (0, 2, -2)]
    ops = [compose_with_action(A, T) for T in actions]
    stacked = stack_mean(ops)
    oracle = np.zeros((10, 10))
    for op in ops:
        M = dense_of(op)
        oracle += M.T @ M
    oracle /= len(ops)
    assert_allclose(gram_dense(stacked), oracle, atol=1e-10)


def test_stack_mean_rejects_bad_input():
    with pytest.raises(DimensionMismatchError):
        stack_mean([])
    with pytest.raises(DimensionMismatchError):
        stack_mean([identity_map(3), identity_map(4)])


def test_spectral_norm_diagonal():
    A = from_dense(np.array([[2.0, 0.0], [0.0, 1.0]]))
    assert_allclose(spectral_norm(A), 4.0, rtol=1e-9)


def test_spectral_norm_identity():
    assert_allclose(spectral_norm(identity_map(17)), 1.0, rtol=1e-12)


def test_spectral_norm_matches_eigendecomposition():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((12, 20))
    A = from_dense(M)
    oracle = np.linalg.eigvalsh(M.T @ M)[-1]
    assert_allclose(spectral_norm(A), oracle, rtol=1e-6)


def test_spectral_norm_invariant_under_actions():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((7, 12))
    A = from_dense(M)
    L = spectral_norm(A)
    for s in (1, 4, -5):
        composed = compose_with_action(A, polar_theta_shift(1, 12, s))
        assert_allclose(spectral_norm(composed), L, rtol=1e-8)


@pytest.mark.parametrize("shape", [(12, 20), (20, 12), (15, 15)],
                         ids=["wide", "tall", "square"])
def test_gram_eigvals_matches_dense_gram_spectrum(shape):
    M = np.random.default_rng(9).standard_normal(shape)
    A = from_dense(M)
    oracle = np.linalg.eigvalsh(gram_dense(A))
    got = gram_eigvals(A)
    assert got.shape == (A.cols,)
    assert np.all(np.diff(got) >= 0)
    assert_allclose(got, oracle, rtol=0, atol=1e-12 * oracle[-1])
    assert spectral_norm(A) == got[-1]


def test_gram_eigvals_polar_instance_reads_the_small_side():
    A = angle_subsampled_operator(6, 16, angles=(0, 4, 8, 12), rays_per_angle=5,
                                  seed=3)
    assert A.rows < A.cols
    probes = []

    def counted_adjoint(y):
        probes.extend(np.atleast_2d(y))  # one entry per probed vector
        return A.adjoint(y)

    counted = LinearMap(rows=A.rows, cols=A.cols, forward=A.forward,
                        adjoint=counted_adjoint)
    oracle = np.linalg.eigvalsh(gram_dense(A))
    got = gram_eigvals(counted)
    assert_allclose(got, oracle, rtol=0, atol=1e-12 * oracle[-1])
    assert len(probes) == A.rows
    assert np.array_equal(np.stack(probes), np.eye(A.rows))


def test_gram_dense_identity():
    assert_allclose(gram_dense(identity_map(3)), np.eye(3), atol=1e-15)


def test_gram_dense_rank_one():
    A = from_dense(np.array([[1.0, 1.0]]))
    assert_allclose(gram_dense(A), np.ones((2, 2)), atol=1e-15)


def test_gram_dense_composed_matches_permuted_gram():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((9, 14))
    A = from_dense(M)
    T = polar_theta_shift(1, 14, 5)
    composed = compose_with_action(A, T)
    P = permutation_matrix(T)
    oracle = P.T @ (M.T @ M) @ P
    assert_allclose(gram_dense(composed), oracle, atol=1e-10)


def test_gram_dense_symmetric():
    polar = angle_subsampled_operator(4, 8, angles=(0, 4), rays_per_angle=4, seed=9)
    G = gram_dense(polar)
    assert_allclose(G, G.T, atol=1e-12)


def test_gram_dense_respects_cap():
    # refused before any probe, so this stays instant
    with pytest.raises(SizeCapError):
        gram_dense(identity_map(DENSE_CAP + 1))


def probed_stack_gram(A, subset):
    return gram_dense(stack_mean([compose_with_action(A, g) for g in subset]))


def test_gram_average_matches_probed_stack_polar():
    n_r, n_theta = 5, 12
    polar = angle_subsampled_operator(n_r, n_theta, angles=(0, 3, 6, 9),
                                      rays_per_angle=6, seed=13)
    subset = symmetric_subset(polar_theta_shift(n_r, n_theta, 1), 4)
    G = gram_dense(polar)
    assert np.count_nonzero(G) < G.size  # the sparse case the average exploits
    assert_allclose(gram_average(G.copy(), subset), probed_stack_gram(polar, subset),
                    rtol=0, atol=1e-12)


def test_gram_average_matches_probed_stack_dense_operator():
    rng = np.random.default_rng(14)
    A = from_dense(rng.standard_normal((7, 15)))
    subset = symmetric_subset(polar_theta_shift(1, 15, 2), 3)
    G = gram_dense(A)
    assert np.count_nonzero(G) == G.size
    assert_allclose(gram_average(G.copy(), subset), probed_stack_gram(A, subset),
                    rtol=0, atol=1e-12)
    # one action alone is the composed operator's Gram
    T = polar_theta_shift(1, 15, 4)
    P = permutation_matrix(T)
    assert_allclose(gram_average(G.copy(), [T]), P.T @ G @ P, rtol=0, atol=1e-12)


def test_gram_average_works_in_place():
    rng = np.random.default_rng(15)
    G = gram_dense(from_dense(rng.standard_normal((4, 9))))
    subset = symmetric_subset(polar_theta_shift(1, 9, 1), 2)
    expected = gram_average(G.copy(), subset)
    out = gram_average(G, subset)
    assert out is G
    assert np.array_equal(out, expected)


def stack_contract_operators():
    """One operator from every constructor, with a name for the failure message."""
    rng = np.random.default_rng(21)
    M = rng.standard_normal((9, 14))
    polar = angle_subsampled_operator(5, 12, angles=(0, 3, 7), rays_per_angle=4, seed=2)
    shift = polar_theta_shift(5, 12, 2)
    return {
        "from_dense": from_dense(M),
        "identity_map": identity_map(14),
        "compose_with_action": compose_with_action(from_dense(M), polar_theta_shift(1, 14, 3)),
        "stack_mean": stack_mean([polar, compose_with_action(polar, shift)]),
        "polar": polar,
        "polar_composed": compose_with_action(polar, shift),
    }


@pytest.mark.parametrize("name", sorted(stack_contract_operators()))
def test_stacked_calls_equal_row_by_row_calls(name):
    A = stack_contract_operators()[name]
    rng = np.random.default_rng(5)
    for R in (1, 2, 7):
        X = rng.standard_normal((R, A.cols))
        Y = rng.standard_normal((R, A.rows))
        fwd, adj = A.forward(X), A.adjoint(Y)
        assert fwd.shape == (R, A.rows) and adj.shape == (R, A.cols)
        for r in range(R):
            assert np.array_equal(fwd[r], A.forward(X[r])), (name, R, r)
            assert np.array_equal(adj[r], A.adjoint(Y[r])), (name, R, r)
    assert np.array_equal(A(X), fwd)


def test_call_checks_the_last_axis():
    A = from_dense(np.ones((2, 3)))
    assert A(np.ones((4, 3))).shape == (4, 2)
    for bad in (np.ones((3, 2)), np.ones(2), np.float64(1.0)):
        with pytest.raises(DimensionMismatchError):
            A(bad)


def test_replaced_map_reads_through_its_own_maps():
    # the window is set at construction, never copied by ``replace``: a map
    # whose forward/adjoint were replaced reads through the new ones
    polar = angle_subsampled_operator(5, 12, angles=(0, 3, 7), rays_per_angle=4, seed=2)
    x, y = np.arange(1.0, 61.0), np.arange(1.0, 13.0)
    for A in (from_dense(np.eye(3)), polar):
        B = replace(A, forward=lambda v: 2 * A.forward(v), adjoint=lambda v: 2 * A.adjoint(v))
        u, v = x[:A.cols], y[:A.rows]
        assert np.array_equal(B.window, np.arange(A.cols))
        assert np.array_equal(B.window_forward(u.take(B.window)), 2 * A.forward(u))
        assert np.array_equal(kernels.scatter_add(B.window, B.window_adjoint(v), B.cols),
                              2 * A.adjoint(v))


def test_gram_dense_blocks_equal_single_probes():
    A = stack_contract_operators()["stack_mean"]
    single = np.empty((A.cols, A.cols))
    e = np.zeros(A.cols)
    for j in range(A.cols):
        e[j] = 1.0
        single[:, j] = A.adjoint(A.forward(e))
        e[j] = 0.0
    assert np.array_equal(gram_dense(A), single)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_repeated_window_cells_are_read_once_with_the_unfolded_bits():
    # angles 0 and 1 with offsets -1..1 on 6 columns both read columns 0
    # and 1: the map keeps each cell once, in the order it first reads them
    n_r, n_theta, rays = 3, 6, 2
    rng = np.random.default_rng(4)
    cols = (np.array([[0], [1]]) + np.array([-1, 0, 1])) % n_theta
    weights = rng.standard_normal((2, rays, n_r, 3))
    weights_t = np.ascontiguousarray(np.moveaxis(weights, 1, 3))
    given = kernels.window_index(cols, n_r, n_theta).ravel()
    A = from_window(2 * rays, n_r * n_theta, given,
                    lambda v: kernels.polar_window_forward(v, weights),
                    lambda y: kernels.polar_window_adjoint(y, weights_t))
    first = np.sort(np.unique(given, return_index=True)[1])
    assert len(first) < len(given) and np.array_equal(A.window, given[first])
    X = rng.standard_normal((4, n_r * n_theta))
    Y = rng.standard_normal((4, 2 * rays))
    for x, y in zip((X, X[0]), (Y, Y[0])):  # a stack and one row
        assert same_bits(A.forward(x), kernels.polar_forward(
            x.reshape(x.shape[:-1] + (n_r, n_theta)), cols, weights))
        assert same_bits(A.adjoint(y), kernels.polar_adjoint(y, cols, weights_t, n_r, n_theta))
        # the window maps read and write the distinct cells
        assert same_bits(A.window_forward(x.take(A.window, axis=-1)), A.forward(x))
        assert same_bits(kernels.scatter_add(A.window, A.window_adjoint(y), A.cols),
                         A.adjoint(y))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_r=st.integers(1, 5), n_theta=st.integers(1, 12),
       angles=st.lists(st.integers(0, 11), min_size=1, max_size=6), rays=st.integers(1, 4),
       reach=st.integers(0, 3), shift=st.integers(-13, 13), batch=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
# adjacent angles with five offsets each: every window overlaps its neighbours,
# so the adjoint adds several values into one cell
@example(n_r=3, n_theta=8, angles=[0, 1, 2, 3], rays=2, reach=2, shift=3, batch=4, seed=7)
def test_window_table_path_equals_composed_operator(n_r, n_theta, angles, rays, reach,
                                                    shift, batch, seed):
    rng = np.random.default_rng(seed)
    A = angle_subsampled_operator(n_r, n_theta, angles, rays, seed,
                                  offsets=range(-reach, reach + 1))
    T = polar_theta_shift(n_r, n_theta, shift)
    oracle = compose_with_action(A, T)
    d = A.cols
    cells = window_table(A, [T])[0] + d * np.arange(batch)[:, None]
    X = rng.uniform(-0.5, 1.5, size=(batch, d))
    Y = rng.standard_normal((batch, A.rows))
    assert same_bits(A.window_forward(X.ravel().take(cells)), oracle.forward(X))
    assert same_bits(kernels.scatter_add(cells, A.window_adjoint(Y).ravel(),
                                         batch * d).reshape(batch, d),
                     oracle.adjoint(Y))
    # the step: K.project(x - eta * grad) with the composed operator's gradient
    b = rng.standard_normal(A.rows)
    K = Box(0.0, 1.0, d)
    for x in X:
        expected = K.project(x - 0.3 * oracle.adjoint(oracle.forward(x) - b))
        assert same_bits(group_pgd_step(x, A, b, K, 0.3, T), expected)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_r=st.integers(1, 4), n_theta=st.integers(1, 16),
       angles=st.lists(st.integers(0, 15), min_size=1, max_size=5), rays=st.integers(1, 3),
       reach=st.integers(0, 2), coverage=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
# offset spans 1, 3 and 5 over a long angle axis: several blocks, the last one padded
@example(n_r=3, n_theta=16, angles=[0, 5], rays=2, reach=0, coverage=1.0, seed=1)
@example(n_r=2, n_theta=16, angles=[3, 9], rays=2, reach=1, coverage=0.5, seed=2)
@example(n_r=3, n_theta=16, angles=[0, 7, 11], rays=3, reach=2, coverage=1.0, seed=3)
# a short angle axis: the band is a single block
@example(n_r=4, n_theta=3, angles=[1], rays=2, reach=1, coverage=1.0, seed=4)
# radius 0: the band of G itself
@example(n_r=2, n_theta=12, angles=[2, 8], rays=2, reach=1, coverage=0.0, seed=5)
# five offsets on four angles: the window folds, and its G is not bitwise
# symmetric, so the kept triangle must be chosen by cell, not window position
@example(n_r=1, n_theta=4, angles=[1], rays=2, reach=2, coverage=0.5, seed=18)
def test_band_gram_equals_dense_average(n_r, n_theta, angles, rays, reach, coverage, seed):
    geometry = Geometry(n_r=n_r, n_theta=n_theta, angles=tuple(angles), rays_per_angle=rays,
                        offsets=tuple(range(-reach, reach + 1)))
    A = angle_subsampled_operator(n_r, n_theta, angles, rays, seed, offsets=geometry.offsets)
    # past (n_theta - 1) // 2 a subset would list some rotation twice
    radius = min(round(coverage * full_coverage_radius(angles, n_theta)), (n_theta - 1) // 2)
    subset = symmetric_subset(geometry.theta_shift(1), radius)
    G = gram_dense(A)
    pad = 1.0 + float(np.abs(G).max())
    band = band_gram(A, subset, geometry.folded_order, pad)
    d = A.cols
    # probing the window has the bits of probing every cell through the map
    # rebuilt from forward and adjoint alone
    every_cell = band_gram(replace(A), subset, geometry.folded_order, pad)
    assert same_bits(every_cell.diag, band.diag) and same_bits(every_cell.lower, band.lower)
    # folding the angle axis keeps cyclic neighbours within twice their distance
    assert band.diag.shape[1] <= (min(4 * reach, n_theta - 1) + 1) * n_r
    stored, cells = band_dense(band)
    tol = 1e-14 * float(np.abs(G).max())
    assert_allclose(cells, gram_average(G.copy(), subset), rtol=0, atol=tol)
    assert np.array_equal(stored, stored.T)
    assert np.array_equal(stored[d:, d:], pad * np.eye(len(stored) - d))
    assert not stored[d:, :d].any()
    # the product reads the stored matrix, in stored order
    assert band.size == len(stored)
    V = np.random.default_rng(seed).standard_normal((band.size, 3))
    assert_allclose(band @ V, stored @ V, rtol=0, atol=tol * band.size)
    assert_allclose(band @ V[:, 0], stored @ V[:, 0], rtol=0, atol=tol * band.size)


def test_band_gram_stops_probing_once_its_nonzeros_pass_the_size_rule(monkeypatch):
    # each kept lower-triangle nonzero takes its own cell of the band, so
    # the first block's 16 * 40 - 120 nonzeros already refuse a cap of 8**2
    monkeypatch.setattr(linop, "DENSE_CAP", 8)
    dense = from_dense(np.random.default_rng(0).standard_normal((40, 40)))
    probes = []

    def forward(x):
        probes.append(len(x))
        return dense.forward(x)

    A = LinearMap(rows=40, cols=40, forward=forward, adjoint=dense.adjoint)
    with pytest.raises(SizeCapError, match="nonzeros of the band"):
        band_gram(A, [identity_action(40)], np.arange(40), pad=1.0)
    assert probes == [16]
    # more cells than the cap: refused before the first probe, so no cell
    # index ever outgrows the band's int32 indices
    monkeypatch.setattr(linop, "DENSE_CAP", 6)
    probes.clear()
    with pytest.raises(SizeCapError, match="the band of 40 cells"):
        band_gram(A, [identity_action(40)], np.arange(40), pad=1.0)
    assert probes == []


def test_window_table_and_band_refuse_actions_of_another_dimension():
    # a larger action would list cells past the operator's columns, a smaller
    # one index past its own; the band refuses before its first probe
    dense = from_dense(np.random.default_rng(1).standard_normal((5, 8)))
    probes = []

    def forward(x):
        probes.append(len(x))
        return dense.forward(x)

    A = LinearMap(rows=5, cols=8, forward=forward, adjoint=dense.adjoint)
    for n in (4, 16):
        subset = symmetric_subset(polar_theta_shift(1, n, 1), 1)
        message = f"action dimension {n} does not match operator columns 8"
        with pytest.raises(DimensionMismatchError, match=message):
            window_table(A, subset)
        with pytest.raises(DimensionMismatchError, match=message):
            band_gram(A, subset, np.arange(8), pad=1.0)
        with pytest.raises(DimensionMismatchError, match=message):
            group_pgd_step(np.zeros(8), A, np.zeros(5), Box(0.0, 1.0, 8), 0.1,
                           subset.actions[1])
    assert probes == []


@pytest.mark.parametrize("cell", [5, 4, -1])
def test_from_window_refuses_cells_outside_the_operator(cell):
    # forward would gather, and adjoint scatter, outside the operator's columns
    with pytest.raises(DimensionMismatchError, match=f"window cell {cell} .* 4 columns"):
        from_window(3, 4, [0, cell], lambda v: v, lambda y: y)
    assert np.array_equal(from_window(3, 4, [0, 3], lambda v: v, lambda y: y).window, [0, 3])


def test_band_cholesky_follows_inertia_and_solves():
    n_r, n_theta = 3, 16
    geometry = Geometry(n_r=n_r, n_theta=n_theta, angles=(0, 4, 8, 12), rays_per_angle=12,
                        offsets=(-1, 0, 1))
    A = angle_subsampled_operator(n_r, n_theta, geometry.angles, 12, 7)
    subset = symmetric_subset(geometry.theta_shift(1), 1)
    G = gram_dense(A)
    band = band_gram(A, subset, geometry.folded_order, float(np.abs(G).max()))
    stored, _ = band_dense(band)
    assert band.diag.shape[0] > 1
    low = np.linalg.eigvalsh(stored)[0]
    assert low > 0
    assert band.cholesky(1.001 * low) is None
    solve = band.cholesky(0.999 * low)
    assert solve is not None
    V = np.random.default_rng(3).standard_normal((band.size, 2))
    X = solve(V)
    assert_allclose((stored - 0.999 * low * np.eye(band.size)) @ X, V, rtol=0, atol=1e-6)
    assert_allclose(solve(V[:, 1]), X[:, 1], rtol=0, atol=1e-6)
