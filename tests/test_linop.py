"""Operator algebra against dense oracles."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from grouppgd import kernels, linop, solver
from grouppgd.linop import (
    DENSE_CAP,
    DimensionMismatchError,
    LinearMap,
    SizeCapError,
    band_probe,
    from_window,
    gram_dense,
    gram_eigvals,
    spectral_norm,
    window_table,
)
from grouppgd.bench import Geometry, angle_subsampled_operator, build_problem, full_coverage_radius
from grouppgd.constraint import Box
from grouppgd.symmetry import (
    identity_action,
    polar_theta_shift,
    symmetric_subset,
)
from oracles import (angle_reflection, band_dense, compose_with_action, from_dense, gram_average,
                     group_pgd_step, identity_map, shifted_angles, stack_mean,
                     transposed_gram_eigvals)


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
    assert_allclose(A.forward(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_apply_diagonal():
    A = from_dense(np.array([[2.0, 0.0], [0.0, 1.0]]))
    assert_allclose(A.forward(np.array([1.0, 1.0])), [2.0, 1.0])


def test_apply_matches_dense_oracle():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((8, 16))
    A = from_dense(M)
    for _ in range(10):
        x = rng.standard_normal(16)
        assert_allclose(A.forward(x), M @ x, rtol=1e-12, atol=1e-14)


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


@pytest.mark.parametrize("n_r, n_theta", [(8, 24), (5, 17), (32, 64)])
def test_reflected_window_table_row_measures_the_reflected_angles(n_r, n_theta):
    # criterion 2's identity for the angle reflection: where A reads column
    # a + o, A after the reflection reads -a - o, so it is the operator on the
    # angles -a with the offsets negated, weights in the same order
    problem = build_problem(n_r=n_r, n_theta=n_theta, seed=7)
    A = problem.A
    direct = build_problem(n_r=n_r, n_theta=n_theta, seed=7, offsets=(1, 0, -1),
                           angles=[-a % n_theta for a in problem.geometry.angles]).A
    row = window_table(A, [angle_reflection(n_r, n_theta)])[0]
    X = np.random.default_rng(n_theta).standard_normal((4, n_r * n_theta))
    assert np.array_equal(A.window_forward(X.take(row, axis=-1)), direct.forward(X))
    for x in X:
        assert np.array_equal(A.window_forward(x.take(row)), direct.forward(x))


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_r=st.integers(1, 5), n_theta=st.integers(1, 12),
       angles=st.lists(st.integers(0, 11), min_size=1, max_size=6), rays=st.integers(1, 4),
       reach=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
# adjacent angles with five offsets each: the window folds
@example(n_r=3, n_theta=8, angles=[0, 1, 2, 3], rays=2, reach=2, seed=7)
@example(n_r=5, n_theta=12, angles=[0, 6], rays=1, reach=3, seed=8)
# more rows than window cells
@example(n_r=1, n_theta=12, angles=[0, 6], rays=4, reach=0, seed=9)
def test_gram_eigvals_of_a_wide_window_keeps_the_every_column_bits(n_r, n_theta, angles, rays,
                                                                  reach, seed):
    A = angle_subsampled_operator(n_r, n_theta, angles, rays, seed,
                                  offsets=range(-reach, reach + 1))
    # a map without a window probes as the every-column route does, whatever its shape
    bare = replace(A)
    assert same_bits(gram_eigvals(bare), transposed_gram_eigvals(bare))
    if A.rows < len(A.window):
        assert same_bits(gram_eigvals(A), transposed_gram_eigvals(A))


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 4), (4, 3), (12, 20), (20, 12),
                                   (15, 15), (40, 3)])
def test_gram_eigvals_of_a_dense_map_keeps_the_every_column_bits(shape):
    A = from_dense(np.random.default_rng(sum(shape)).standard_normal(shape))
    assert same_bits(gram_eigvals(A), transposed_gram_eigvals(A))


@pytest.mark.parametrize("rays, seed", [(20, 1), (14, 2)])
def test_gram_eigvals_of_a_tall_window_probes_its_cells(rays, seed):
    # 48 window cells of 64, read by 80 or 56 rows: the Gram of the window's
    # cells is probed, and the 16 cells no row reads give exact zeros
    A = angle_subsampled_operator(4, 16, (0, 4, 8, 12), rays, seed, offsets=(-1, 0, 1))
    assert len(A.window) == 48 and A.rows > 48 and A.cols == 64
    oracle = transposed_gram_eigvals(A)
    probes = []

    def counted_forward(v):
        probes.extend(v)  # one entry per probed vector
        return A.window_forward(v)

    got = gram_eigvals(from_window(A.rows, A.cols, A.window, counted_forward, A.window_adjoint))
    assert np.array_equal(np.stack(probes), np.eye(48))
    assert np.all(np.diff(got) >= 0) and np.array_equal(got[:16], np.zeros(16))
    L = oracle[-1]
    slack = A.cols * np.finfo(float).eps / 2 * L
    assert abs(got[-1] - L) <= slack
    assert_allclose(got, oracle, rtol=0, atol=slack)


def test_gram_eigvals_reads_a_small_window_of_an_oversized_map():
    # rows and columns past DENSE_CAP, a window of 10 cells: its 10 x 10
    # Gram is probed, not refused
    n = DENSE_CAP + 1
    window = np.arange(0, 10 * 7, 7)
    M = np.random.default_rng(4).standard_normal((n, len(window)))
    probes = []

    def forward(v):
        probes.extend(v)  # one entry per probed vector
        return np.matmul(M, v[..., None])[..., 0]

    A = from_window(n, n, window, forward, lambda y: np.matmul(M.T, y[..., None])[..., 0])
    got = gram_eigvals(A)
    assert np.array_equal(np.stack(probes), np.eye(10))
    assert np.array_equal(got[:n - 10], np.zeros(n - 10))
    oracle = np.linalg.eigvalsh(M.T @ M)
    assert_allclose(got[n - 10:], oracle, rtol=0, atol=1e-12 * oracle[-1])


def test_gram_eigvals_refuses_two_oversized_sides_before_probing(monkeypatch):
    def refuse(*args):
        raise AssertionError("probed before the size rule")

    monkeypatch.setattr(linop, "_gram_probes", refuse)
    with pytest.raises(SizeCapError, match=f"Gram of {DENSE_CAP + 1} columns"):
        gram_eigvals(identity_map(DENSE_CAP + 1))


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
    # the solver's step through the table rows, then the projection, is
    # K.project(x - eta * grad) with the composed operator's gradient
    b = rng.standard_normal(A.rows)
    K = Box(0.0, 1.0, d)
    stepped = X.copy()
    solver._step(stepped, A, b, 0.3, cells, *solver._bounds(K, batch))
    for x, row in zip(X, K.project(stepped), strict=True):
        assert same_bits(row, group_pgd_step(x, A, b, K, 0.3, T))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_r=st.integers(1, 4), n_theta=st.integers(1, 16),
       angles=st.lists(st.integers(0, 15), min_size=1, max_size=5), rays=st.integers(1, 3),
       reach=st.integers(0, 2), coverage=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
# offset spans 1, 3 and 5 over a long angle axis: several blocks below the diagonal
@example(n_r=3, n_theta=16, angles=[0, 5], rays=2, reach=0, coverage=1.0, seed=1)
@example(n_r=2, n_theta=16, angles=[3, 9], rays=2, reach=1, coverage=0.5, seed=2)
@example(n_r=3, n_theta=16, angles=[0, 7, 11], rays=3, reach=2, coverage=1.0, seed=3)
# a short angle axis: every block column reaches the last block row
@example(n_r=4, n_theta=3, angles=[1], rays=2, reach=1, coverage=1.0, seed=4)
# radius 0: the band of G itself
@example(n_r=2, n_theta=12, angles=[2, 8], rays=2, reach=1, coverage=0.0, seed=5)
# an odd angle axis with several blocks below the diagonal
@example(n_r=2, n_theta=15, angles=[0, 7], rays=6, reach=1, coverage=1.0, seed=6)
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
    probe = band_probe(A, subset, geometry.folded_order, n_r)
    band = probe.fill()
    # probing the window has the bits of probing every cell through the map
    # rebuilt from forward and adjoint alone
    every_cell = band_probe(replace(A), subset, geometry.folded_order, n_r).fill()
    assert same_bits(every_cell.blocks, band.blocks)
    # folding the angle axis keeps cyclic neighbours within twice their
    # distance: one angle column per block, at most 4 * reach below the diagonal
    N, width = band.blocks.shape[:2]
    assert band.blocks.shape == (n_theta, width, n_r, n_r)
    assert width <= min(4 * reach, n_theta - 1) + 1
    assert not any(band.blocks[N - r:, r].any() for r in range(1, width))
    stored, cells = band_dense(band, probe.order)
    tol = 1e-14 * float(np.abs(G).max())
    assert_allclose(cells, gram_average(G.copy(), subset), rtol=0, atol=tol)
    assert np.array_equal(stored, stored.T)
    # the product reads the stored matrix, in stored order
    assert probe.size == len(stored)
    V = np.random.default_rng(seed).standard_normal((probe.size, 3))
    assert_allclose(band @ V, stored @ V, rtol=0, atol=tol * probe.size)
    assert_allclose(band @ V[:, 0], stored @ V[:, 0], rtol=0, atol=tol * probe.size)
    # a shift a hundredth of the scale below the bottom eigenvalue factors
    # and solves; as far above it the factor fails.  A factor consumes its
    # band, so each takes a fresh fill
    scale = 1.0 + float(np.abs(stored).max())
    low = np.linalg.eigvalsh(stored)[0]
    assert probe.fill().cholesky(low + 0.01 * scale) is None
    shift = low - 0.01 * scale
    X = probe.fill().cholesky(shift)(V)
    assert_allclose((stored - shift * np.eye(probe.size)) @ X, V, rtol=0, atol=1e-9)


def one_block(A):
    """``A`` rebuilt from its own window maps, as one block."""
    return from_window(A.rows, A.cols, A.window, A.window_forward, A.window_adjoint)


def probed_small_gram(A):
    """The small Gram that ``gram_eigvals(A)`` probes, and its spectrum."""
    grams = []
    probed = linop._probed_gram

    def spy(*args):
        grams.append(probed(*args))
        return grams[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linop, "_probed_gram", spy)
        eigvals = gram_eigvals(A)
    (small,) = grams
    return small, eigvals


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_r=st.integers(1, 4), n_theta=st.integers(1, 17),
       angles=st.lists(st.integers(0, 16), min_size=1, max_size=5), rays=st.integers(1, 16),
       reach=st.integers(0, 2), weights=st.sampled_from(["signed", "nonneg"]),
       radius=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
# fewer rows than window cells (A A^T probed), even and odd angle counts
@example(n_r=3, n_theta=16, angles=[0, 4, 8, 12], rays=2, reach=1, weights="signed", radius=2,
         seed=1)
@example(n_r=2, n_theta=15, angles=[0, 5, 10], rays=3, reach=1, weights="nonneg", radius=7,
         seed=2)
# more rows than window cells (the window's cells probed)
@example(n_r=3, n_theta=15, angles=[0, 5, 10], rays=12, reach=1, weights="signed", radius=3,
         seed=3)
@example(n_r=2, n_theta=16, angles=[1, 9], rays=9, reach=0, weights="nonneg", radius=4, seed=4)
# one angle
@example(n_r=2, n_theta=7, angles=[3], rays=5, reach=1, weights="signed", radius=3, seed=5)
# windows that share a cell, and a repeated angle: one block
@example(n_r=2, n_theta=12, angles=[0, 2, 4], rays=3, reach=1, weights="signed", radius=2,
         seed=6)
@example(n_r=2, n_theta=12, angles=[5, 5], rays=8, reach=0, weights="nonneg", radius=1, seed=7)
def test_grouped_probes_have_the_bits_of_one_block_probes(n_r, n_theta, angles, rays, reach,
                                                          weights, radius, seed):
    offsets = tuple(range(-reach, reach + 1))
    A = angle_subsampled_operator(n_r, n_theta, angles, rays, seed, offsets=offsets,
                                  weight_kind=weights)
    # one block per angle, unless two windows (or one window's offsets) share a column
    columns = {(a + o) % n_theta for a in angles for o in offsets}
    assert A.blocks == (len(angles) if len(columns) == len(angles) * len(offsets) else 1)
    single = one_block(A)
    assert single.blocks == 1
    small, eigvals = probed_small_gram(A)
    single_small, single_eigvals = probed_small_gram(single)
    # same_bits compares bytes: every entry, its sign bit included
    assert same_bits(small, single_small) and same_bits(eigvals, single_eigvals)
    geometry = Geometry(n_r=n_r, n_theta=n_theta, angles=tuple(angles), rays_per_angle=rays,
                        offsets=offsets)
    subset = symmetric_subset(geometry.theta_shift(1), min(radius, (n_theta - 1) // 2))
    band, single_band = (band_probe(M, subset, geometry.folded_order, n_r).fill()
                         for M in (A, single))
    assert same_bits(band.blocks, single_band.blocks)


@pytest.mark.parametrize("rows, window, blocks", [(3, [0, 1], 2), (4, [0, 1, 2], 2),
                                                  (2, [0, 1], 0), (2, [0, 1], -2)],
                         ids=["rows", "window", "zero", "negative"])
def test_from_window_refuses_a_block_count_that_does_not_divide_rows_and_window(rows, window,
                                                                                blocks):
    message = f"{blocks} blocks do not divide {rows} rows and a window of {len(window)} cells"
    with pytest.raises(DimensionMismatchError, match=message):
        from_window(rows, 4, window, lambda v: v, lambda y: y, blocks=blocks)


@pytest.mark.parametrize("blocks", [True, 2.0, "2"])
def test_from_window_refuses_a_block_count_that_is_not_an_integer(blocks):
    with pytest.raises(TypeError, match="blocks must be an integer"):
        from_window(4, 8, [0, 1, 2, 3], lambda v: v, lambda y: y, blocks=blocks)


def test_from_window_keeps_its_blocks_unless_the_window_folds():
    assert from_window(4, 8, [0, 1, 2, 3], lambda v: v, lambda y: y, blocks=2).blocks == 2
    assert from_window(4, 8, [0, 1, 1, 3], lambda v: v, lambda y: y, blocks=2).blocks == 1
    assert from_window(4, 8, [0, 1, 2, 3], lambda v: v, lambda y: y).blocks == 1
    assert LinearMap(rows=2, cols=3, forward=None, adjoint=None).blocks == 1


@pytest.mark.parametrize("order", [np.zeros(32, dtype=np.int64), np.arange(31),
                                   np.arange(33), np.r_[np.arange(31), 0],
                                   np.r_[np.arange(31), 32], np.r_[np.arange(31), -1]],
                         ids=["zeros", "short", "long", "repeat", "past", "negative"])
def test_band_gram_refuses_an_order_that_is_not_a_permutation(monkeypatch, order):
    # an order that misses a cell left its position unset, and the band read
    # uninitialized memory there
    prob = build_problem(n_r=4, n_theta=8, rays_per_angle=4)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 1)

    def refuse(*args):
        raise AssertionError("probed before the order was checked")

    monkeypatch.setattr(linop, "_gram_probes", refuse)
    with pytest.raises(DimensionMismatchError, match="not a permutation of the 32 cells"):
        band_probe(prob.A, subset, order, 4)


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
        band_probe(A, [identity_action(40)], np.arange(40), 8)
    assert probes == [16]
    # more cells than the cap: refused before the first probe, so no cell
    # index ever outgrows the band's int32 indices
    monkeypatch.setattr(linop, "DENSE_CAP", 6)
    probes.clear()
    with pytest.raises(SizeCapError, match="the band of 40 cells"):
        band_probe(A, [identity_action(40)], np.arange(40), 8)
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
            band_probe(A, subset, np.arange(8), 1)
        with pytest.raises(DimensionMismatchError, match=message):
            window_table(A, [subset.actions[1]])  # one action's table, as a single step reads it
    assert probes == []


@pytest.mark.parametrize("cell", [5, 4, -1])
def test_from_window_refuses_cells_outside_the_operator(cell):
    # forward would gather, and adjoint scatter, outside the operator's columns
    with pytest.raises(DimensionMismatchError, match=f"window cell {cell} .* 4 columns"):
        from_window(3, 4, [0, cell], lambda v: v, lambda y: y)
    assert np.array_equal(from_window(3, 4, [0, 3], lambda v: v, lambda y: y).window, [0, 3])


@pytest.mark.parametrize("window", [[0.5, 1.9], np.array([True, False]), np.array([0.0, 1.0])],
                         ids=["fraction", "bool", "float"])
def test_from_window_refuses_a_window_that_is_not_integer_cells(window):
    # [0.5, 1.9] was truncated to cells [0, 1] and read them
    dtype = np.asarray(window).dtype
    with pytest.raises(TypeError, match=f"window must hold integer cells, got dtype {dtype}"):
        from_window(2, 4, window, lambda v: v, lambda y: y)


def test_from_window_takes_an_empty_window():
    A = from_window(2, 4, [], lambda v: np.zeros(v.shape[:-1] + (2,)),
                    lambda y: np.zeros(y.shape[:-1] + (0,)))
    assert A.window.dtype == np.int64 and A.window.shape == (0,)
    assert np.array_equal(A.forward(np.ones(4)), np.zeros(2))
    assert np.array_equal(A.adjoint(np.ones((3, 2))), np.zeros((3, 4)))


def test_a_map_that_reads_no_cell_has_the_zero_band():
    # the kept probe was empty and its concatenation raised; the spectrum was zeros
    A = from_window(2, 4, [], lambda v: np.zeros(v.shape[:-1] + (2,)),
                    lambda y: np.zeros(y.shape[:-1] + (0,)))
    band = band_probe(A, [identity_action(4)], np.arange(4), 2).fill()
    assert band.blocks.shape == (2, 1, 2, 2) and not band.blocks.any()
    assert np.array_equal(gram_eigvals(A), np.zeros(4))


def test_window_table_and_band_refuse_an_empty_family(monkeypatch):
    # numpy refused the stack of no rows, and the band would divide by no actions
    prob = build_problem(n_r=4, n_theta=8, rays_per_angle=4)

    def refuse(*args):
        raise AssertionError("probed an empty family")

    monkeypatch.setattr(linop, "_gram_probes", refuse)
    for build in (lambda: window_table(prob.A, []),
                  lambda: band_probe(prob.A, [], prob.geometry.folded_order, 4)):
        with pytest.raises(ValueError, match="^the window table needs at least one action$"):
            build()


def test_band_gram_refuses_an_order_that_is_not_integer_cells(monkeypatch):
    # a fractional order was truncated to the folded order and accepted
    prob = build_problem(n_r=4, n_theta=8, rays_per_angle=4)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 1)

    def refuse(*args):
        raise AssertionError("probed before the order was checked")

    monkeypatch.setattr(linop, "_gram_probes", refuse)
    with pytest.raises(TypeError, match="order must hold integer cells, got dtype float64"):
        band_probe(prob.A, subset, prob.geometry.folded_order + 0.4, 4)


def test_band_cholesky_follows_inertia_and_solves():
    n_r, n_theta = 3, 16
    geometry = Geometry(n_r=n_r, n_theta=n_theta, angles=(0, 4, 8, 12), rays_per_angle=12,
                        offsets=(-1, 0, 1))
    A = angle_subsampled_operator(n_r, n_theta, geometry.angles, 12, 7)
    subset = symmetric_subset(geometry.theta_shift(1), 1)
    probe = band_probe(A, subset, geometry.folded_order, n_r)
    band = probe.fill()
    stored, _ = band_dense(band, probe.order)
    assert band.blocks.shape[0] > 1
    low = np.linalg.eigvalsh(stored)[0]
    assert low > 0
    # a factor consumes its band: each takes a fresh fill
    assert band.cholesky(1.001 * low) is None
    solve = probe.fill().cholesky(0.999 * low)
    assert solve is not None
    V = np.random.default_rng(3).standard_normal((probe.size, 2))
    X = solve(V)
    assert_allclose((stored - 0.999 * low * np.eye(probe.size)) @ X, V, rtol=0, atol=1e-6)
    assert_allclose(solve(V[:, 1]), X[:, 1], rtol=0, atol=1e-6)


@pytest.mark.parametrize("block, error, message", [
    (3, DimensionMismatchError, "blocks of 3 cells do not divide the 32 cells"),
    (64, DimensionMismatchError, "blocks of 64 cells do not divide the 32 cells"),
    (0, DimensionMismatchError, "blocks of 0 cells do not divide the 32 cells"),
    (-4, DimensionMismatchError, "blocks of -4 cells do not divide the 32 cells"),
    (4.0, TypeError, "block must be an integer"),
    (True, TypeError, "block must be an integer")],
    ids=["three", "past", "zero", "negative", "float", "bool"])
def test_band_gram_refuses_blocks_that_do_not_divide_the_cells(monkeypatch, block, error,
                                                               message):
    # every block column holds whole blocks: n_r cells of a 4 x 8 grid are 4
    prob = build_problem(n_r=4, n_theta=8, rays_per_angle=4)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 1)

    def refuse(*args):
        raise AssertionError("probed before the block size was checked")

    monkeypatch.setattr(linop, "_gram_probes", refuse)
    with pytest.raises(error, match=message):
        band_probe(prob.A, subset, prob.geometry.folded_order, block)
