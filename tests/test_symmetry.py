"""Group actions: exactness, orthogonality, subsets, sampling."""

import os
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from grouppgd import linop, symmetry
from grouppgd.bench import ring_phantom
from grouppgd.cli import load_config
from grouppgd.linop import SizeCapError
from grouppgd.symmetry import (
    GroupAction,
    SymmetricSubset,
    identity_action,
    polar_theta_shift,
    sample_action,
    symmetric_subset,
)
from oracles import angle_reflection, radial_flip, rotation_group, with_flips


def fixes_every_cell(T):
    """Whether ``T`` is the identity."""
    return np.array_equal(T.permutation, np.arange(T.dimension))


def gather_inverse(T, x):
    """``T``'s inverse applied to ``x``: a gather through ``argsort(permutation)``."""
    return np.take(x, np.argsort(T.permutation), axis=-1)


def test_cyclic_shift_zero_is_identity():
    assert fixes_every_cell(polar_theta_shift(1, 4, 0))


def test_cyclic_shift_by_one():
    T = polar_theta_shift(1, 4, 1)
    assert np.array_equal(T.apply(np.array([1.0, 2.0, 3.0, 4.0])),
                          [4.0, 1.0, 2.0, 3.0])


def test_shift_composed_with_inverse_is_identity():
    T = polar_theta_shift(1, 9, 1)
    S = polar_theta_shift(1, 9, -1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(9)
    assert np.array_equal(T.apply(S.apply(x)), x)


def test_inverse_round_trip_exact():
    rng = np.random.default_rng(1)
    for s in (1, 3, -5):
        T = polar_theta_shift(4, 10, s)
        x = rng.standard_normal(40)
        assert np.array_equal(gather_inverse(T, T.apply(x)), x)


def test_orthogonality_norm_and_inner_product():
    rng = np.random.default_rng(2)
    T = polar_theta_shift(6, 12, 5)
    for _ in range(20):
        x = rng.standard_normal(72)
        y = rng.standard_normal(72)
        assert abs(np.linalg.norm(T.apply(x)) - np.linalg.norm(x)) <= 1e-15 * np.linalg.norm(x)
        assert abs(T.apply(x) @ T.apply(y) - x @ y) <= 1e-12 * max(abs(x @ y), 1.0)


def test_polar_shift_zero_is_identity():
    assert fixes_every_cell(polar_theta_shift(3, 7, 0))


def test_polar_reduces_to_cyclic_for_single_radius():
    for s in (0, 1, 4, -2):
        # entry i moves to position (i + s) mod 9
        assert np.array_equal(polar_theta_shift(1, 9, s).permutation,
                              (np.arange(9) - s) % 9)


def test_polar_cyclicity():
    T = polar_theta_shift(5, 8, 8)
    assert fixes_every_cell(T)


def test_ring_image_fixed_by_every_shift():
    profile = np.linspace(0.1, 0.9, 6)
    x = ring_phantom(6, 10, profile)
    for s in range(-10, 11):
        T = polar_theta_shift(6, 10, s)
        assert np.array_equal(T.apply(x), x)


def test_rejects_non_bijection():
    # a repeated cell, an index past the end, and floats that truncate to
    # the identity
    for permutation in (np.array([0, 0, 2]), [0, 1, 5], [0.0, 1.7, 2.2]):
        with pytest.raises(ValueError, match="not a bijection"):
            GroupAction(dimension=3, permutation=permutation, power=0)


def test_action_keeps_a_read_only_copy_of_its_permutation():
    # a write into the caller's array, or into the action's, would turn the
    # checked bijection into a non-bijection
    p = np.arange(4)
    T = GroupAction(dimension=4, permutation=p, power=0)
    p[:] = 0
    assert np.array_equal(T.permutation, np.arange(4))
    assert T.permutation.dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):
        T.permutation[0] = 1
    assert fixes_every_cell(T)


def test_symmetric_subset_radius_zero():
    sub = symmetric_subset(polar_theta_shift(1, 5, 1), 0)
    assert len(sub) == 1
    assert fixes_every_cell(sub.actions[0])


def test_symmetric_subset_radius_two():
    sub = symmetric_subset(polar_theta_shift(4, 16, 1), 2)
    assert len(sub) == 5
    assert [a.power for a in sub] == [0, 1, -1, 2, -2]
    assert [a.label for a in sub] == ["id", "rot+1", "rot+1^-1", "rot+1^2", "rot+1^-2"]


def test_symmetric_subset_radius_27_has_55_actions():
    sub = symmetric_subset(polar_theta_shift(1, 64, 1), 27)
    assert len(sub) == 55
    assert sorted(a.power for a in sub) == list(range(-27, 28))


def test_symmetric_subset_powers_act_as_powers():
    gen = polar_theta_shift(3, 11, 1)
    sub = symmetric_subset(gen, 3)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(33)
    for action in sub:
        y = x.copy()
        step = gen.apply if action.power >= 0 else lambda v: gather_inverse(gen, v)
        for _ in range(abs(action.power)):
            y = step(y)
        assert np.array_equal(action.apply(x), y)


def test_subset_constructor_rejects_missing_identity():
    g = polar_theta_shift(1, 6, 1)
    with pytest.raises(ValueError):
        SymmetricSubset(actions=(g, polar_theta_shift(1, 6, -1)), radius=1)


def test_subset_refuses_a_repeated_rotation():
    # a rotation of order n repeats past radius (n - 1) // 2: g^2 == g^-2 for n = 4
    with pytest.raises(ValueError, match="more than once"):
        symmetric_subset(polar_theta_shift(1, 4, 1), 2)
    with pytest.raises(ValueError, match="more than once"):
        symmetric_subset(polar_theta_shift(32, 64, 1), 32)
    with pytest.raises(ValueError, match="more than once"):
        symmetric_subset(polar_theta_shift(1, 5, 1), 3)
    for gen, radius in ((polar_theta_shift(32, 64, 1), 31), (polar_theta_shift(1, 5, 1), 2)):
        sub = symmetric_subset(gen, radius)
        assert len({a.permutation.tobytes() for a in sub}) == len(sub) == 2 * radius + 1
    # a subset built by hand is checked too
    actions = (identity_action(4),) + tuple(polar_theta_shift(1, 4, s) for s in (1, -1, 2, -2))
    with pytest.raises(ValueError, match="more than once"):
        SymmetricSubset(actions=actions, radius=2)


SYMMETRY_REFUSALS = {
    "permutation_shape": (lambda: GroupAction(dimension=4, permutation=np.arange(3), power=0),
                          "permutation has shape (3,), expected (4,)"),
    "empty_grid": (lambda: polar_theta_shift(0, 4, 1), "grid sizes must be at least 1"),
    "empty_subset": (lambda: SymmetricSubset(actions=(), radius=0), "subset must be nonempty"),
    "mixed_dimensions": (lambda: SymmetricSubset(
        actions=(identity_action(4), polar_theta_shift(1, 6, 1), polar_theta_shift(1, 6, -1)),
        radius=1), "all actions must share one dimension"),
    # g^2 labelled as g^-1
    "mate_not_inverse": (lambda: SymmetricSubset(
        actions=(identity_action(6), polar_theta_shift(1, 6, 1),
                 GroupAction(dimension=6, permutation=polar_theta_shift(1, 6, 2).permutation,
                             power=-1)),
        radius=1), "the inverse of action 1 'rot+1' is not in the subset"),
    "negative_radius": (lambda: symmetric_subset(polar_theta_shift(1, 6, 1), -1),
                        "radius must be nonnegative"),
}


@pytest.mark.parametrize("case", SYMMETRY_REFUSALS)
def test_actions_and_subsets_refuse_what_they_cannot_hold(case):
    build, message = SYMMETRY_REFUSALS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("build, name", [
    (lambda: polar_theta_shift(4, 8, 1.5), "s"),
    (lambda: polar_theta_shift(4, 8, 2.0), "s"),
    (lambda: polar_theta_shift(4, 8, True), "s"),
    (lambda: symmetric_subset(polar_theta_shift(4, 8, 1), True), "radius"),
    (lambda: symmetric_subset(polar_theta_shift(4, 8, 1), 1.0), "radius"),
], ids=["shift_fraction", "shift_float", "shift_bool", "radius_bool", "radius_float"])
def test_builders_refuse_a_shift_or_radius_that_is_not_an_integer(build, name):
    # a float shift failed formatting its label after the permutation was
    # built, a float radius failed inside range, and a bool was taken as 1
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        build()


@pytest.mark.parametrize("build, name", [
    (lambda: GroupAction(3, np.array([2, 0, 1]), 1.5), "power"),
    (lambda: GroupAction(3, np.array([2, 0, 1]), True), "power"),
    (lambda: SymmetricSubset(actions=(
        identity_action(4), GroupAction(4, polar_theta_shift(1, 4, 1).permutation, power=1.0),
        GroupAction(4, polar_theta_shift(1, 4, -1).permutation, power=-1.0)), radius=1), "power"),
    (lambda: SymmetricSubset(actions=tuple(symmetric_subset(polar_theta_shift(1, 4, 1), 1)),
                             radius=True), "radius"),
    (lambda: SymmetricSubset(actions=tuple(symmetric_subset(polar_theta_shift(1, 4, 1), 1)),
                             radius=1.0), "radius"),
], ids=["power_fraction", "power_bool", "powers_float", "radius_bool", "radius_float"])
def test_actions_and_subsets_refuse_a_power_or_radius_that_is_not_an_integer(build, name):
    # built directly, a float power compared equal to its integer and True
    # was taken as radius 1, so these constructed; a float radius failed in range
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        build()


def test_subset_constructor_rejects_unbalanced_powers():
    g = polar_theta_shift(1, 6, 1)
    ident = identity_action(6)
    with pytest.raises(ValueError):
        SymmetricSubset(actions=(ident, g), radius=1)


@pytest.mark.parametrize("n_r, n_theta", [(1, 3), (2, 4), (3, 7), (4, 16), (5, 17)])
def test_subset_accepts_every_family_closed_under_inverses(n_r, n_theta):
    # the reflections, the radial flip and the half turn are their own
    # inverses, and each rotation times a reflection is a reflection: single-
    # generator powers were refused for every family below but the first
    F, R = angle_reflection(n_r, n_theta), radial_flip(n_r, n_theta)
    rotations = symmetric_subset(polar_theta_shift(n_r, n_theta, 1), (n_theta - 1) // 2)
    families = {"rotations": rotations,
                "{id, F}": SymmetricSubset(actions=(identity_action(n_r * n_theta), F), radius=0),
                "rotations x {1, F}": with_flips(rotations, F),
                "every rotation": rotation_group(n_r, n_theta)}
    if n_r > 1:  # one radius is fixed by the radial flip
        families["rotations x {1, F} x {1, R}"] = with_flips(rotations, F, R)
    sizes = {"rotations": 2 * rotations.radius + 1, "{id, F}": 2,
             "rotations x {1, F}": 2 * len(rotations), "every rotation": n_theta,
             "rotations x {1, F} x {1, R}": 4 * len(rotations)}
    for name, subset in families.items():
        assert fixes_every_cell(subset.actions[0]), name
        assert len({T.permutation.tobytes() for T in subset}) == len(subset) == sizes[name], name


def test_subset_refuses_a_family_missing_an_inverse_and_names_the_action():
    F = angle_reflection(4, 16)
    product = with_flips(symmetric_subset(polar_theta_shift(4, 16, 1), 2), F)
    assert [T.label for T in product][:3] == ["id", "rot+1", "rot+1^-1"]
    # without rot+1, rot+1^-1 (action 1 once rot+1 is gone) misses its inverse;
    # each reflection is its own and stays
    missing = product.actions[:1] + product.actions[2:]
    with pytest.raises(ValueError, match=re.escape("the inverse of action 1 'rot+1^-1' is")):
        SymmetricSubset(actions=missing, radius=2)
    without_reflection = product.actions[:6] + product.actions[7:]
    assert len(SymmetricSubset(actions=without_reflection, radius=2)) == 9
    # a shift of 3 on 16 angles without a shift of -3 (13)
    with pytest.raises(ValueError, match=re.escape("the inverse of action 1 'rot+3' is not in")):
        SymmetricSubset(actions=(identity_action(64), polar_theta_shift(4, 16, 3)), radius=1)


def test_sampling_singleton_always_identity():
    sub = symmetric_subset(polar_theta_shift(1, 4, 1), 0)
    rng = np.random.default_rng(4)
    for _ in range(10):
        action, idx = sample_action(sub, rng)
        assert idx == 0
        assert fixes_every_cell(action)


def test_sampling_uniform_frequencies():
    sub = symmetric_subset(polar_theta_shift(1, 8, 1), 2)
    rng = np.random.default_rng(5)
    n = 100_000
    counts = np.zeros(5)
    for _ in range(n):
        _, idx = sample_action(sub, rng)
        counts[idx] += 1
    p = 1.0 / 5.0
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3 * sigma)


def test_sampling_deterministic_given_seed():
    sub = symmetric_subset(polar_theta_shift(1, 8, 1), 3)
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(7)
    seq_a = [sample_action(sub, rng_a)[1] for _ in range(100)]
    seq_b = [sample_action(sub, rng_b)[1] for _ in range(100)]
    assert seq_a == seq_b


def test_symmetric_subset_refuses_permutations_past_the_size_rule(monkeypatch):
    # 5 permutations of 16 cells: 80 entries, above 8**2, refused before the
    # first (the identity) is built; 3 of them fit
    generator = polar_theta_shift(1, 16, 1)
    monkeypatch.setattr(linop, "DENSE_CAP", 8)
    built = []
    monkeypatch.setattr(symmetry, "identity_action",
                        lambda d: built.append(d) or identity_action(d))
    with pytest.raises(SizeCapError, match="the subset's 5 permutations of 16 cells"):
        symmetric_subset(generator, 2)
    assert built == []
    assert len(symmetric_subset(generator, 1)) == 3


def test_size_rule_counts_what_the_subset_holds(monkeypatch):
    # 5 permutations of 20 cells are 10**2 entries, the most the rule lets a
    # subset hold; the subset keeps exactly those entries and nothing more
    generator = polar_theta_shift(2, 10, 1)
    monkeypatch.setattr(linop, "DENSE_CAP", 10)
    sub = symmetric_subset(generator, 2)
    held = [v for T in sub for v in vars(T).values() if isinstance(v, np.ndarray)]
    assert all(v.dtype == np.int64 for v in held)
    assert sum(v.size for v in held) == 5 * 20 == linop.DENSE_CAP ** 2
    with pytest.raises(SizeCapError, match="the subset's 7 permutations of 20 cells: 140 entries"):
        symmetric_subset(generator, 3)


def fine_grid_generator():
    """fine_grid's subset radius and the generator the CLI builds for it:
    ``problem.geometry.theta_shift(1)``."""
    config = load_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                      "fine_grid.txt"))
    return polar_theta_shift(config.problem_n_r, config.problem_n_theta, 1), config.subset_radius


def test_fine_grid_subset_holds_its_permutations_once():
    generator, radius = fine_grid_generator()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sub = symmetric_subset(generator, radius)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    permutations = sum(T.permutation.nbytes for T in sub)
    assert permutations == 111 * 8192 * 8
    assert held <= 1.01 * permutations


def test_checking_a_subset_copies_one_permutation_at_a_time():
    # the distinctness check used to hold every permutation's bytes at once,
    # 7.35 MB of growth for fine_grid's 7.27 MB of permutations
    sub = symmetric_subset(*fine_grid_generator())
    permutations = sum(T.permutation.nbytes for T in sub)
    tracemalloc.start()
    try:
        checked = SymmetricSubset(actions=sub.actions, radius=sub.radius,
                                  generator_label=sub.generator_label)
        growth = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(checked) == len(sub) == 111
    assert growth < 0.05 * permutations
