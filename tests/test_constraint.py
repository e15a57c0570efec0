"""Projections, descent cones, and restricted eigenvalues."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from grouppgd.constraint import (
    Box,
    ConstraintSet,
    DescentCone,
    Subspace,
    descent_cone_of,
    project_cone,
    restricted_min_eig,
    subspace_min_eig,
)
from grouppgd.bench import angle_subsampled_operator, build_problem
from grouppgd.linop import DimensionMismatchError, gram_dense
from oracles import from_dense, identity_map


def random_orthonormal(d, k, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    return Q


def test_box_projection_clamps():
    K = Box(0.0, 1.0, 3)
    assert_allclose(K.project(np.array([1.5, -0.2, 0.3])), [1.0, 0.0, 0.3])


def test_projection_fixes_members():
    rng = np.random.default_rng(0)
    K = Box(-1.0, 2.0, 5)
    x = rng.uniform(-1.0, 2.0, 5)
    assert np.array_equal(K.project(x), x)


def test_projection_idempotent():
    rng = np.random.default_rng(1)
    sets = [Box(0.0, 1.0, 6), Box(0.0, np.inf, 6),
            Subspace(random_orthonormal(6, 2, 3))]
    for K in sets:
        x = rng.standard_normal(6) * 3
        p = K.project(x)
        assert_allclose(K.project(p), p, atol=1e-12)


def test_nonexpansiveness():
    rng = np.random.default_rng(3)
    sets = [Box(0.0, 1.0, 8), Box(0.0, np.inf, 8),
            Subspace(random_orthonormal(8, 3, 4))]
    for K in sets:
        for _ in range(25):
            x = rng.standard_normal(8) * 2
            y = rng.standard_normal(8) * 2
            lhs = np.linalg.norm(K.project(x) - K.project(y))
            assert lhs <= np.linalg.norm(x - y) + 1e-12


def random_set(kind, d, rng):
    if kind == "box":
        lo = rng.standard_normal(d)
        return Box(lo, lo + rng.uniform(0.01, 3.0, d), d)
    if kind == "nonneg":
        return Box(0.0, np.inf, d)
    return Subspace(random_orthonormal(d, int(rng.integers(1, d + 1)), rng))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["box", "nonneg", "subspace"]), d=st.integers(1, 12),
       scale=st.floats(0.01, 100.0), seed=st.integers(0, 2**32 - 1))
def test_projection_properties_over_random_sets(kind, d, scale, seed):
    # idempotence, nonexpansiveness, and the obtuse-angle inequality
    # <x - Px, y - Px> <= 0 for every feasible y (the variational
    # characterization of a projection onto a closed convex set)
    rng = np.random.default_rng(seed)
    K = random_set(kind, d, rng)
    x, z, w = scale * rng.standard_normal((3, d))
    px, pz, y = K.project(x), K.project(z), K.project(w)
    tol = 1e-12 * (1.0 + scale) ** 2
    assert_allclose(K.project(px), px, rtol=0, atol=1e-12 * (1.0 + scale))
    assert np.linalg.norm(px - pz) <= np.linalg.norm(x - z) + 1e-12 * (1.0 + scale)
    assert (x - px) @ (y - px) <= tol


def test_shift_identity_box():
    # P_K(x + v) - x equals the projection of v onto the shifted set K - x
    rng = np.random.default_rng(5)
    K = Box(0.0, 1.0, 7)
    for _ in range(50):
        x = rng.standard_normal(7)
        v = rng.standard_normal(7)
        lhs = K.project(x + v) - x
        shifted = Box(K.lo - x, K.hi - x, 7)
        assert_allclose(lhs, shifted.project(v), atol=1e-12)


def test_shift_identity_subspace():
    rng = np.random.default_rng(6)
    B = random_orthonormal(9, 3, 7)
    K = Subspace(B)
    for _ in range(50):
        x = rng.standard_normal(9)
        v = rng.standard_normal(9)
        lhs = K.project(x + v) - x
        # affine projection onto {B c - x}: optimal c solves the normal equations
        c = B.T @ (v + x)
        assert_allclose(lhs, B @ c - x, atol=1e-12)


def test_project_cone_whole_space():
    C = DescentCone(anchor=np.zeros(4), kind="whole_space")
    x = np.array([1.0, -2.0, 3.0, 0.0])
    assert np.array_equal(project_cone(C, x), x)


def test_project_cone_subspace():
    B = np.zeros((2, 1))
    B[0, 0] = 1.0
    C = DescentCone(anchor=np.zeros(2), kind="subspace", basis=B)
    assert_allclose(project_cone(C, np.array([3.0, 4.0])), [3.0, 0.0])


def test_project_cone_box_clips():
    inf = np.inf
    C = DescentCone(anchor=np.zeros(3), kind="box", lo=np.array([0.0, -inf, -inf]),
                    hi=np.array([inf, 0.0, inf]))
    assert np.array_equal(project_cone(C, np.array([-3.0, 4.0, -5.0])), [0.0, 0.0, -5.0])
    assert np.array_equal(project_cone(C, np.array([3.0, -4.0, 5.0])), [3.0, -4.0, 5.0])
    with pytest.raises(ValueError, match="direction bounds"):
        DescentCone(anchor=np.zeros(3), kind="box")
    # a bound of the wrong shape would broadcast over every coordinate
    with pytest.raises(DimensionMismatchError, match="bounds have shapes"):
        DescentCone(anchor=np.zeros(3), kind="box", lo=np.array([0.0]),
                    hi=np.full(3, inf))
    with pytest.raises(DimensionMismatchError, match="bounds have shapes"):
        DescentCone(anchor=np.zeros(3), kind="box", lo=np.zeros(3), hi=np.full(4, inf))
    # finite nonzero bounds clip to a set that is not a cone
    for lo, hi in [(np.full(3, 5.0), np.full(3, -5.0)), (np.zeros(3), np.array([inf, 1.0, inf])),
                   (np.array([0.0, np.nan, 0.0]), np.full(3, inf))]:
        with pytest.raises(ValueError, match="lo in \\{0, -inf\\}"):
            DescentCone(anchor=np.zeros(3), kind="box", lo=lo, hi=hi)


def brute_force_cone_projection(lo, hi, anchor, z):
    """The nearest feasible direction among the 2^d choices of ``z_i`` or 0 per coordinate.

    ``v`` is feasible when the step ``anchor + t v`` stays in the box
    ``[lo, hi]``, with ``t`` so short that it moves no coordinate more than
    half its distance to a bound it does not sit on.
    """
    gaps = np.concatenate([anchor - lo, hi - anchor])
    t = 0.5 * gaps[gaps > 0].min(initial=1.0) / max(np.abs(z).max(), 1.0)
    best, best_dist = None, np.inf
    for keep in itertools.product([False, True], repeat=len(z)):
        v = np.where(keep, z, 0.0)
        step = anchor + t * v
        if np.all(step >= lo) and np.all(step <= hi) and np.linalg.norm(v - z) < best_dist:
            best, best_dist = v, np.linalg.norm(v - z)
    return best


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["box", "nonneg"]), d=st.integers(1, 8),
       scale=st.floats(0.01, 100.0), seed=st.integers(0, 2**32 - 1))
def test_box_cone_projection_matches_brute_force(kind, d, scale, seed):
    # anchors with each coordinate inside, on its lower bound or on its upper bound
    rng = np.random.default_rng(seed)
    state = rng.integers(0, 3, d)
    if kind == "box":
        lo = rng.standard_normal(d)
        hi = lo + rng.uniform(0.01, 3.0, d)
        K = Box(lo, hi, d)
        anchor = np.select([state == 1, state == 2], [lo, hi], rng.uniform(lo, hi))
    else:
        lo, hi = np.zeros(d), np.full(d, np.inf)
        K = Box(0.0, np.inf, d)
        anchor = np.where(state == 0, 0.0, rng.exponential(size=d))
    cone = descent_cone_of(K, anchor)
    assert cone.kind == ("box" if np.any(anchor == lo) or np.any(anchor == hi)
                         else "whole_space")
    for z in scale * rng.standard_normal((4, d)):
        brute = brute_force_cone_projection(lo, hi, anchor, z)
        assert np.array_equal(project_cone(cone, z), brute)


def test_sup_identity_subspace_cone_dense_sampling():
    # the cone projection norm equals the sup of inner products over unit
    # cone vectors; a dense angular grid in a 2-D subspace nearly attains it
    rng = np.random.default_rng(8)
    B = random_orthonormal(6, 2, 9)
    C = DescentCone(anchor=np.zeros(6), kind="subspace", basis=B)
    angles = np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False)
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1) @ B.T
    for _ in range(20):
        x = rng.standard_normal(6)
        pnorm = np.linalg.norm(project_cone(C, x))
        sampled_sup = float(np.max(directions @ x))
        assert sampled_sup <= pnorm + 1e-12
        assert sampled_sup >= (1.0 - 1e-2) * pnorm


def test_descent_cone_interior_box_is_whole_space():
    K = Box(0.0, 1.0, 5)
    cone = descent_cone_of(K, np.full(5, 0.5))
    assert cone.kind == "whole_space"


def test_descent_cone_of_subspace_is_same_subspace():
    B = np.zeros((4, 2))
    B[0, 0] = 1.0
    B[1, 1] = 1.0
    K = Subspace(B)
    anchor = B @ np.array([0.3, -0.7])
    cone = descent_cone_of(K, anchor)
    assert cone.kind == "subspace"
    assert np.array_equal(cone.basis, B)


def test_descent_cone_box_boundary_is_a_box_cone():
    K = Box(0.0, 1.0, 3)
    anchor = np.array([0.0, 0.5, 1.0])
    cone = descent_cone_of(K, anchor)
    assert cone.kind == "box"
    assert np.array_equal(cone.lo, [0.0, -np.inf, -np.inf])
    assert np.array_equal(cone.hi, [np.inf, np.inf, 0.0])
    # membership oracle: a tiny step along any projected direction stays feasible
    rng = np.random.default_rng(14)
    for z in rng.standard_normal((20, 3)):
        assert K.contains(anchor + 1e-3 * project_cone(cone, z), tol=0.0)
    # a box narrower than the anchor tolerance: each coordinate sits on the
    # nearer bound only, so it keeps the directions into the box
    narrow = descent_cone_of(Box(0.0, 1e-11, 2), np.array([0.0, 1e-11]))
    assert np.array_equal(narrow.lo, [0.0, -np.inf])
    assert np.array_equal(narrow.hi, [np.inf, 0.0])


def test_descent_cone_rejects_outside_anchor():
    K = Box(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        descent_cone_of(K, np.array([0.5, 1.5, 0.5]))


def test_restricted_min_eig_identity_whole_space():
    C = DescentCone(anchor=np.zeros(6), kind="whole_space")
    assert_allclose(restricted_min_eig(identity_map(6), C), 1.0, atol=1e-12)


def test_restricted_min_eig_underdetermined_is_zero():
    rng = np.random.default_rng(10)
    A = from_dense(rng.standard_normal((4, 9)))
    C = DescentCone(anchor=np.zeros(9), kind="whole_space")
    assert restricted_min_eig(A, C) <= 1e-8


@pytest.mark.parametrize("shape", [(4, 9), (12, 5), (7, 7), "polar_wide", "polar_tall"],
                         ids=["wide", "tall", "square", "polar_wide", "polar_tall"])
def test_whole_space_restricted_min_eig_reads_the_small_side(shape):
    rng = np.random.default_rng(13)
    if shape == "polar_wide":
        A = build_problem(n_r=8, n_theta=16, angle_fraction=0.25, rays_per_angle=8, seed=3).A
    elif shape == "polar_tall":
        A = angle_subsampled_operator(3, 8, angles=(0, 2, 4, 6), rays_per_angle=12, seed=4)
    else:
        M = rng.standard_normal(shape)
        M[:, 0] = M[:, 1]  # rank deficient, so the square map has a zero eigenvalue too
        A = from_dense(M)
    G = gram_dense(A)
    L = np.linalg.eigvalsh(G)[-1]
    C = DescentCone(anchor=np.zeros(A.cols), kind="whole_space")
    oracle = max(np.linalg.eigvalsh(G)[0], 0.0)
    assert abs(restricted_min_eig(A, C) - oracle) <= 1e-12 * L
    with pytest.raises(ValueError, match="subspace cones only"):
        subspace_min_eig(A, C, [np.arange(A.cols)])


def test_restricted_min_eig_subspace_matches_dense_oracle():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((12, 9))
    A = from_dense(M)
    B = random_orthonormal(9, 3, 12)
    C = DescentCone(anchor=np.zeros(9), kind="subspace", basis=B)
    oracle = np.linalg.eigvalsh(B.T @ (M.T @ M) @ B)[0]
    assert_allclose(restricted_min_eig(A, C), oracle, rtol=1e-8, atol=1e-12)


def test_subspace_min_eig_reads_k_probes_through_each_permutation():
    rng = np.random.default_rng(14)
    M = rng.standard_normal((5, 9))
    A = from_dense(M)
    B = random_orthonormal(9, 4, 15)
    C = DescentCone(anchor=np.zeros(9), kind="subspace", basis=B)
    perms = [np.arange(9), np.roll(np.arange(9), 2), rng.permutation(9)]
    # (A P_g B)^T (A P_g B) = B^T P_g^T G P_g B, with (P_g v) = v[perm_g]
    G = M.T @ M
    stack = np.mean([np.eye(9)[p].T @ G @ np.eye(9)[p] for p in perms], axis=0)
    oracle = np.linalg.eigvalsh(B.T @ stack @ B)[0]
    assert_allclose(subspace_min_eig(A, C, perms), oracle, rtol=1e-12)
    # 3 rows cannot see a 4-dimensional cone: the bottom eigenvalue is 0 up
    # to round-off, and never negative
    flat = subspace_min_eig(from_dense(M[:3]), C, perms[:1])
    assert 0.0 <= flat <= 1e-14 * np.linalg.norm(M, 2) ** 2
    with pytest.raises(DimensionMismatchError):
        subspace_min_eig(from_dense(M[:, :8]), C, perms[:1])


def test_subspace_descent_cone_needs_an_orthonormal_basis():
    B = random_orthonormal(6, 2, 16)
    DescentCone(anchor=np.zeros(6), kind="subspace", basis=B)
    for bad in (2 * B, B @ np.array([[1.0, 0.5], [0.0, 1.0]]), B[:, 0]):
        with pytest.raises(ValueError, match="orthonormal|2-D"):
            DescentCone(anchor=np.zeros(6), kind="subspace", basis=bad)
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(2 * B)
    with pytest.raises(DimensionMismatchError):
        DescentCone(anchor=np.zeros(5), kind="subspace", basis=B)


def test_box_from_zero_to_infinity_clips_below_at_zero():
    K = Box(0.0, np.inf, 5)
    assert np.array_equal(K.lo, np.zeros(5)) and np.array_equal(K.hi, np.full(5, np.inf))
    X = np.array([[-1.0, -0.0, 0.0, np.nan, np.inf], [3.0, -np.inf, 1e300, -1e-300, 2.0]])
    # the same bits as clipping below at 0 alone, NaN and signed zeros included
    assert np.array_equal(K.project(X).view(np.int64), np.maximum(X, 0.0).view(np.int64))


def test_box_projection_bits_on_signed_zeros_nan_and_infinities():
    # maximum then minimum: a -0.0 at a bound of 0.0 gives 0.0 and NaN stays
    # NaN, in a stack of one-cell rows too, where np.clip keeps -0.0
    x = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 0.5])
    cases = [(Box(0.0, 1.0, 6), x, [0.0, 0.0, np.nan, 1.0, 0.0, 0.5]),
             (Box(-1.0, 0.0, 6), x, [0.0, 0.0, np.nan, 0.0, -1.0, 0.0]),
             (Box(0.0, 1.0, 1), x[:, None], [[0.0], [0.0], [np.nan], [1.0], [0.0], [0.5]]),
             (Box(-1.0, 0.0, 1), x[:, None], [[0.0], [0.0], [np.nan], [0.0], [-1.0], [0.0]])]
    for K, v, expected in cases:
        got = K.project(v)
        assert got.view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()


def test_a_cone_anchor_may_be_any_array_like():
    # a listed anchor raised AttributeError reading its shape
    A = from_dense(np.random.default_rng(5).standard_normal((4, 3)))
    listed = DescentCone(anchor=[0.0, 0.0, 0.0], kind="whole_space")
    assert listed.anchor.dtype == float and listed.dimension == 3
    assert restricted_min_eig(A, listed) == restricted_min_eig(
        A, DescentCone(anchor=np.zeros(3), kind="whole_space"))
    box = DescentCone(anchor=(0, 1, 2), kind="box", lo=np.array([0.0, -np.inf, -np.inf]),
                      hi=np.full(3, np.inf))
    assert np.array_equal(project_cone(box, [-1.0, -2.0, 3.0]), [0.0, -2.0, 3.0])
    # descent_cone_of leaves the coercion to the set's membership check and the cone
    built = descent_cone_of(Box(0.0, 1.0, 3), [0, 0.5, 1])
    assert built.anchor.dtype == float and built.kind == "box"
    assert np.array_equal(built.lo, [0.0, -np.inf, -np.inf])
    assert np.array_equal(built.hi, [np.inf, np.inf, 0.0])


@pytest.mark.parametrize("anchor", [0.0, np.zeros((3, 1))], ids=["scalar", "column"])
def test_a_cone_anchor_must_be_one_vector(anchor):
    # a scalar anchor raised IndexError reading its dimension, and a (3, 1)
    # column was read as a cone of dimension 3
    message = f"a cone's anchor must be one vector, got shape {np.shape(anchor)}"
    with pytest.raises(DimensionMismatchError, match=re.escape(message)):
        DescentCone(anchor=anchor, kind="whole_space")


def test_a_subspace_cone_keeps_the_basis_it_checked():
    # a listed basis passed the orthonormality check but was kept as a list,
    # so projecting onto the cone and reading its curvature raised AttributeError
    C = DescentCone(anchor=np.zeros(3), kind="subspace",
                    basis=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert isinstance(C.basis, np.ndarray) and C.basis.dtype == float
    assert np.array_equal(project_cone(C, np.ones(3)), [1.0, 1.0, 0.0])
    assert restricted_min_eig(from_dense(np.eye(3)), C) == 1.0


def test_restricted_min_eig_box_cone_reads_the_whole_space():
    rng = np.random.default_rng(12)
    M = rng.standard_normal((5, 4))
    A = from_dense(M)
    cone = descent_cone_of(Box(0.0, np.inf, 4), np.array([0.0, 1.0, 0.0, 2.0]))
    assert cone.kind == "box"
    whole = restricted_min_eig(A, DescentCone(anchor=cone.anchor, kind="whole_space"))
    assert restricted_min_eig(A, cone) == whole
    # a lower bound: no feasible direction (v_0, v_2 >= 0) has a smaller
    # Rayleigh quotient
    V = rng.standard_normal((50, 4))
    V[:, [0, 2]] = np.abs(V[:, [0, 2]])
    for v in V:
        assert whole <= (v @ M.T @ M @ v) / (v @ v) * (1 + 1e-12)
    with pytest.raises(ValueError, match="subspace cones only"):
        subspace_min_eig(A, cone, [np.arange(A.cols)])


class Everything(ConstraintSet):
    """The whole space, a set with no descent cone construction."""

    def __init__(self, dimension):
        self.dimension = dimension

    def project(self, x):
        return self._check(x)


CONSTRAINT_REFUSALS = {
    "contains_stack": (lambda: Box(0.0, 1.0, 3).contains(np.zeros((2, 3))),
                       DimensionMismatchError, "contains takes one vector, got shape (2, 3)"),
    "box_order": (lambda: Box(1.0, 1.0, 3), ValueError, "box requires lo < hi componentwise"),
    "cone_kind": (lambda: DescentCone(anchor=np.zeros(3), kind="ball"),
                  ValueError, "unknown cone kind 'ball'"),
    "no_cone": (lambda: descent_cone_of(Everything(3), np.zeros(3)),
                TypeError, "no descent cone construction for Everything"),
    "eig_dimension": (lambda: restricted_min_eig(
        identity_map(4), DescentCone(anchor=np.zeros(3), kind="whole_space")),
        DimensionMismatchError, "operator has 4 columns, cone 3"),
}


@pytest.mark.parametrize("case", CONSTRAINT_REFUSALS)
def test_sets_and_cones_refuse_what_they_cannot_hold(case):
    build, error, message = CONSTRAINT_REFUSALS[case]
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_dimension_mismatch_raises():
    K = Box(0.0, 1.0, 3)
    with pytest.raises(DimensionMismatchError):
        K.project(np.zeros(4))
    C = DescentCone(anchor=np.zeros(3), kind="whole_space")
    with pytest.raises(DimensionMismatchError):
        project_cone(C, np.zeros(5))


def test_descent_cone_nonneg_orthant():
    K = Box(0.0, np.inf, 4)
    interior = descent_cone_of(K, np.full(4, 0.5))
    assert interior.kind == "whole_space"
    boundary = descent_cone_of(K, np.array([0.0, 0.5, 0.2, 0.0]))
    assert boundary.kind == "box"
    # the orthant has no upper bound, so no direction is capped above
    assert np.array_equal(boundary.lo, [0.0, -np.inf, -np.inf, 0.0])
    assert np.array_equal(boundary.hi, np.full(4, np.inf))
    assert np.array_equal(project_cone(boundary, np.array([-1.0, -2.0, 3.0, 4.0])),
                          [0.0, -2.0, 3.0, 4.0])


def test_stacked_projection_equals_row_by_row():
    d = 9
    rng = np.random.default_rng(31)
    sets = {
        "box": Box(rng.uniform(-1.0, 0.0, d), rng.uniform(0.1, 1.0, d), d),
        "nonneg": Box(0.0, np.inf, d),
        "subspace": Subspace(random_orthonormal(d, 4, 32)),
    }
    # rows of mixed scale, with ties and signed zeros
    X = rng.standard_normal((6, d))
    X[1] *= 0.05
    X[2, :3] = [0.5, -0.5, 0.5]
    X[3] = 0.0
    X[3, 0] = -0.0
    for name, K in sets.items():
        for R in (1, 2, 6):
            P = K.project(X[:R])
            assert P.shape == (R, d)
            for r in range(R):
                assert np.array_equal(P[r], K.project(X[r])), (name, R, r)
        assert K.project(X.reshape(2, 3, d)).shape == (2, 3, d)


def test_box_projection_is_clip_bit_for_bit():
    d = 64
    rng = np.random.default_rng(33)
    K = Box(rng.uniform(-1.0, 0.0, d), rng.uniform(0.1, 1.0, d), d)
    X = rng.uniform(-2.0, 2.0, (3, d))
    X[0, :4] = [np.nan, np.inf, -np.inf, -0.0]
    clipped = np.clip(X, K.lo, K.hi)
    assert np.array_equal(K.project(X).view(np.int64), clipped.view(np.int64))
    assert np.isnan(K.project(X)[0, 0])
