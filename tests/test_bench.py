"""Problem builders: phantoms, operators, noise, covariance structure."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from grouppgd.bench import (
    add_noise,
    angle_subsampled_operator,
    build_problem,
    evenly_spaced_angles,
    full_coverage_radius,
    ring_phantom,
    textured_phantom,
)
from grouppgd.constraint import DescentCone, restricted_min_eig
from grouppgd.linop import SizeCapError, gram_dense
from grouppgd.symmetry import polar_theta_shift, symmetric_subset
from oracles import compose_with_action, covering_radius_loop, shifted_angles, stack_mean


def test_ring_phantom_zero_profile():
    assert np.array_equal(ring_phantom(4, 6, np.zeros(4)), np.zeros(24))


def test_ring_phantom_shift_invariant():
    x = ring_phantom(5, 9, np.linspace(0.0, 1.0, 5))
    for s in range(-9, 10):
        T = polar_theta_shift(5, 9, s)
        assert np.linalg.norm(T.apply(x) - x) == 0.0


def test_ring_phantom_mean_matches_profile_mean():
    profile = np.array([0.1, 0.4, 0.9])
    x = ring_phantom(3, 7, profile)
    assert_allclose(x.mean(), profile.mean(), rtol=1e-15)


def test_ring_phantom_rejects_out_of_box_profile():
    with pytest.raises(ValueError):
        ring_phantom(3, 4, np.array([0.2, 1.2, 0.5]))


def test_textured_phantom_single_harmonic_is_ring_like():
    x = textured_phantom(6, 16, smoothness=1, seed=0)
    for s in (1, 5):
        T = polar_theta_shift(6, 16, s)
        assert np.linalg.norm(T.apply(x) - x) <= 1e-12


def test_textured_phantom_small_shifts_move_less():
    n_r, n_theta = 8, 32
    T1 = polar_theta_shift(n_r, n_theta, 1)
    T2 = polar_theta_shift(n_r, n_theta, 2)
    for seed in range(20):
        x = textured_phantom(n_r, n_theta, smoothness=4, seed=seed)
        d1 = np.linalg.norm(T1.apply(x) - x)
        d2 = np.linalg.norm(T2.apply(x) - x)
        assert d1 <= d2 + 1e-12


def test_textured_phantom_keeps_at_most_the_grid_harmonics():
    # 8 angles hold the harmonics 0..4; a sixth would alias onto a lower one
    assert textured_phantom(4, 8, 5, seed=0).shape == (32,)
    with pytest.raises(ValueError, match=r"smoothness must be in \[1, 5\] on 8 angles"):
        textured_phantom(4, 8, 6, seed=0)


def test_textured_phantom_box_feasible_and_deterministic():
    x = textured_phantom(5, 12, smoothness=3, seed=7)
    y = textured_phantom(5, 12, smoothness=3, seed=7)
    assert np.array_equal(x, y)
    assert np.all(x >= 0.0) and np.all(x <= 1.0)


def test_full_angle_operator_has_positive_definite_gram():
    n_r, n_theta = 6, 8
    A = angle_subsampled_operator(n_r, n_theta, angles=range(n_theta),
                                  rays_per_angle=n_r, seed=0)
    smallest = np.linalg.eigvalsh(gram_dense(A))[0]
    assert smallest > 0


def test_shift_covariance_exact():
    n_r, n_theta = 4, 12
    angles = (0, 3, 6, 9)
    A = angle_subsampled_operator(n_r, n_theta, angles, rays_per_angle=3, seed=1)
    rng = np.random.default_rng(2)
    for s in range(-5, 6):
        T = polar_theta_shift(n_r, n_theta, s)
        composed = compose_with_action(A, T)
        direct = angle_subsampled_operator(
            n_r, n_theta, shifted_angles(angles, s, n_theta),
            rays_per_angle=3, seed=1)
        for _ in range(50):
            x = rng.standard_normal(n_r * n_theta)
            assert np.array_equal(composed.forward(x), direct.forward(x))


def test_measurement_ratio_regimes():
    # around a third of the pixel count, and the extreme six-percent case
    n_theta = 64
    angles = evenly_spaced_angles(n_theta, 0.25)
    assert len(angles) == 16
    rows_34 = len(angles) * 44
    assert abs(rows_34 / 2048 - 0.34) < 0.01
    sparse = evenly_spaced_angles(n_theta, 4 / 64)
    rows_6 = len(sparse) * 32
    assert abs(rows_6 / 2048 - 0.0625) < 1e-12


def test_add_noise_none_and_gaussian_zero_sigma():
    clean = np.array([1.0, 2.0, 3.0])
    b, w = add_noise(clean, "none", seed=0)
    assert np.array_equal(b, clean) and np.array_equal(w, np.zeros(3))
    b, w = add_noise(clean, "gaussian", seed=0, sigma=0.0)
    assert np.array_equal(w, np.zeros(3))


def test_add_noise_deterministic():
    clean = np.linspace(0.0, 1.0, 10)
    b1, w1 = add_noise(clean, "gaussian", seed=3, sigma=0.1)
    b2, w2 = add_noise(clean, "gaussian", seed=3, sigma=0.1)
    assert np.array_equal(b1, b2) and np.array_equal(w1, w2)


def test_poisson_noise_large_scale_is_small():
    prob = build_problem(n_r=8, n_theta=16, angle_fraction=0.5,
                         rays_per_angle=8, weight_kind="nonneg", seed=0)
    clean = prob.A.forward(prob.x_dagger)
    assert np.all(clean >= 0)
    b, w = add_noise(clean, "poisson", seed=1, scale=1e8)
    assert np.linalg.norm(w) / np.linalg.norm(clean) < 1e-3


def test_poisson_rejects_negative_measurements():
    with pytest.raises(ValueError):
        add_noise(np.array([1.0, -0.5]), "poisson", seed=0, scale=10.0)


def test_build_problem_residual_identity_exact():
    for noise, kw in (("none", {}), ("gaussian", {"sigma": 0.05})):
        prob = build_problem(n_r=6, n_theta=12, angle_fraction=0.5,
                             rays_per_angle=4, noise=noise, seed=5, **kw)
        assert np.array_equal(prob.b - prob.A.forward(prob.x_dagger), prob.w)


def test_build_problem_refuses_an_oversized_signal_before_allocating():
    with pytest.raises(SizeCapError, match="the signal of 8 x 1000000000000000000 cells"):
        build_problem(n_r=8, n_theta=10**18, angles=(0,))


def test_the_operator_refuses_oversized_weights_before_drawing_them():
    # 64 angles x 4096 rays x 64 radii x 3 offsets is 50.3M weights, above
    # 4096**2: the operator drew them (about 800 MB with their transpose),
    # though build_problem refused the same shapes
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match="the weights of 64 angles x 4096 rays"):
            angle_subsampled_operator(64, 4096, range(64), 4096, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n_r, n_theta", [(4, 0), (0, 8), (0, 0)])
def test_build_problem_refuses_an_empty_grid(n_r, n_theta):
    with pytest.raises(ValueError, match="grid sizes must be at least 1"):
        build_problem(n_r=n_r, n_theta=n_theta)


@pytest.mark.parametrize("n_r, n_theta", [(4, 0), (0, 8)])
def test_the_operator_refuses_an_empty_grid_before_drawing_weights(monkeypatch, n_r, n_theta):
    # n_theta = 0 raised ZeroDivisionError, and n_r = 0 built a 2 x 0 map
    def refuse(*args, **kwargs):
        raise AssertionError("drew weights for an empty grid")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(ValueError, match="grid sizes must be at least 1"):
        angle_subsampled_operator(n_r, n_theta, (0,), 2, 0)


def test_build_problem_feasible_ground_truth():
    prob = build_problem(n_r=6, n_theta=12, phantom="textured", smoothness=2,
                         seed=9)
    assert prob.K.contains(prob.x_dagger)


def test_underdetermined_instance_has_zero_plain_curvature():
    prob = build_problem(n_r=6, n_theta=16, angle_fraction=0.25,
                         rays_per_angle=4, seed=2)
    assert prob.A.rows < prob.dimension
    cone = DescentCone(anchor=prob.x_dagger, kind="whole_space")
    assert restricted_min_eig(prob.A, cone) <= 1e-8


def test_full_coverage_subset_restores_curvature():
    prob = build_problem(n_r=4, n_theta=16, angle_fraction=0.25,
                         rays_per_angle=6, seed=3)
    radius = full_coverage_radius(prob.geometry.angles, 16)
    subset = symmetric_subset(prob.geometry.theta_shift(1), radius)
    stacked = stack_mean([compose_with_action(prob.A, g) for g in subset])
    cone = DescentCone(anchor=prob.x_dagger, kind="whole_space")
    assert restricted_min_eig(stacked, cone) > 1e-8


def test_full_coverage_radius_values():
    assert full_coverage_radius(range(0, 64, 4), 64) == 2
    assert full_coverage_radius(range(0, 64, 16), 64) == 8
    assert full_coverage_radius(range(64), 64) == 0


def test_full_coverage_radius_equals_the_growing_mask_on_every_angle_subset():
    # every nonempty subset of the columns of every grid up to 10 angles: 2,036 sets
    checked = 0
    for n_theta in range(1, 11):
        for bits in range(1, 2 ** n_theta):
            angles = [a for a in range(n_theta) if bits >> a & 1]
            assert full_coverage_radius(angles, n_theta) == covering_radius_loop(angles, n_theta)
            checked += 1
    assert checked == 2036


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n_theta=st.integers(1, 200))
def test_full_coverage_radius_equals_the_growing_mask_on_repeated_and_negative_angles(
        data, n_theta):
    angles = data.draw(st.lists(st.integers(-3 * n_theta, 3 * n_theta), min_size=1,
                                max_size=12))
    angles += data.draw(st.lists(st.sampled_from(angles), max_size=4))  # repeats
    assert full_coverage_radius(angles, n_theta) == covering_radius_loop(angles, n_theta)


def widest_gap_radius(angles, n_theta):
    """Half the widest cyclic gap between the distinct columns of ``angles``,
    read from a Python set."""
    cols = sorted({a % n_theta for a in angles})
    return max(b - a for a, b in zip(cols, cols[1:] + [cols[0] + n_theta])) // 2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n_theta=st.one_of(st.integers(1, 200), st.integers(2**40, 10**18)))
def test_full_coverage_radius_equals_the_set_of_columns_oracle(data, n_theta):
    # grids far past any array the function could build: it sorts the columns
    angles = data.draw(st.lists(st.integers(-3 * n_theta, 3 * n_theta), min_size=1,
                                max_size=12))
    angles += data.draw(st.lists(st.sampled_from(angles), max_size=4))  # repeats
    assert full_coverage_radius(angles, n_theta) == widest_gap_radius(angles, n_theta)


def test_full_coverage_radius_can_exceed_the_widest_symmetric_subset():
    # one angle of 8 needs radius 4 to cover the grid, but a symmetric subset
    # of radius 4 lists the rotation by 4 twice: (n_theta - 1) // 2 = 3 is the widest
    assert full_coverage_radius((0,), 8) == 4
    with pytest.raises(ValueError, match="subset lists one permutation more than once"):
        symmetric_subset(polar_theta_shift(1, 8, 1), 4)
    assert len(symmetric_subset(polar_theta_shift(1, 8, 1), 3).actions) == 7


def test_evenly_spaced_angles_validation():
    assert evenly_spaced_angles(64, 0.25) == tuple(range(0, 64, 4))
    with pytest.raises(ValueError):
        evenly_spaced_angles(64, 0.0)


def test_operator_rejects_empty_angles():
    with pytest.raises(ValueError):
        angle_subsampled_operator(4, 8, angles=(), rays_per_angle=2, seed=0)


PROBLEM_REFUSALS = {
    "profile": (lambda: ring_phantom(4, 6, np.zeros(3)), "profile must have length 4"),
    "rays": (lambda: angle_subsampled_operator(4, 8, (0,), 0, seed=0),
             "rays_per_angle must be at least 1"),
    "weights": (lambda: angle_subsampled_operator(4, 8, (0,), 2, seed=0, weight_kind="mixed"),
                "unknown weight_kind 'mixed'"),
    "coverage": (lambda: full_coverage_radius((), 8), "angle set must be nonempty"),
    "coverage_grid": (lambda: full_coverage_radius((0,), 0), "grid sizes must be at least 1"),
    "coverage_negative_grid": (lambda: full_coverage_radius((0,), -3),
                               "grid sizes must be at least 1"),
    "sigma": (lambda: add_noise(np.ones(3), "gaussian", 0, sigma=-1.0),
              "sigma must be nonnegative"),
    "scale": (lambda: add_noise(np.ones(3), "poisson", 0, scale=0.0), "scale must be positive"),
    "noise": (lambda: add_noise(np.ones(3), "laplace", 0), "unknown noise model 'laplace'"),
    "phantom": (lambda: build_problem(n_r=4, n_theta=8, rays_per_angle=4, phantom="disk"),
                "unknown phantom kind 'disk'"),
}


@pytest.mark.parametrize("case", PROBLEM_REFUSALS)
def test_problem_parts_refuse_what_they_cannot_build(case):
    build, message = PROBLEM_REFUSALS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("lo, hi", [(0.05, 0.95), (0.2, 0.3)])
def test_textured_phantom_of_one_constant_mode_is_the_box_midpoint(lo, hi):
    # one radius and one harmonic give a constant image: no span to rescale
    image = textured_phantom(1, 8, 1, seed=0, lo=lo, hi=hi)
    assert np.array_equal(image, np.full(8, 0.5 * (lo + hi)))


INTEGER_REFUSALS = {
    "coverage": (lambda: full_coverage_radius([0.9, 4.7], 8), "angle"),
    "coverage_bool": (lambda: full_coverage_radius([True, 4], 8), "angle"),
    "operator": (lambda: angle_subsampled_operator(2, 8, [0.9, 4.7], 2, seed=0), "angle"),
    "operator_offsets": (lambda: angle_subsampled_operator(2, 8, (0, 4), 2, seed=0,
                                                           offsets=(-0.5, 0.5)), "offset"),
    "problem": (lambda: build_problem(n_r=2, n_theta=8, rays_per_angle=2, angles=[0.9, 4.7]),
                "angle"),
    "problem_float_array": (lambda: build_problem(n_r=2, n_theta=8, rays_per_angle=2,
                                                  angles=np.array([0.0, 4.0])), "angle"),
    "problem_offsets": (lambda: build_problem(n_r=2, n_theta=8, rays_per_angle=2,
                                              offsets=(0, 1.5)), "offset"),
}


@pytest.mark.parametrize("case", INTEGER_REFUSALS)
def test_angles_offsets_and_shifts_must_be_integers(case):
    # a fractional angle was truncated: [0.9, 4.7] measured angles 0 and 4
    build, name = INTEGER_REFUSALS[case]
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        build()


def test_integer_arrays_of_angles_build_what_tuples_build():
    angles = np.array([1, 4], dtype=np.int32)
    assert full_coverage_radius(angles, 8) == full_coverage_radius((1, 4), 8) == 2
    a = build_problem(n_r=2, n_theta=8, rays_per_angle=2, angles=angles,
                      offsets=np.array([0, 1]))
    b = build_problem(n_r=2, n_theta=8, rays_per_angle=2, angles=(1, 4), offsets=(0, 1))
    assert a.geometry == b.geometry and np.array_equal(a.A.window, b.A.window)
    assert a.b.tobytes() == b.b.tobytes()
