"""Certificate constants, bound curve, and empirical domination."""

import os
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from grouppgd import certificate, linop
from grouppgd.bench import build_problem, full_coverage_radius, textured_phantom
from grouppgd.certificate import (
    BoundVacuousError,
    CertificateReport,
    bound_curve,
    bound_limit,
    certify,
    compute_eps_gstar,
    compute_eps_w,
    verify_bound,
)
from grouppgd.constraint import DescentCone, descent_cone_of
from grouppgd.linop import (
    DENSE_CAP,
    BandGram,
    SizeCapError,
    band_probe,
    from_window,
    gram_dense,
    spectral_norm,
)
from grouppgd.solver import SolverConfig, run, run_ensemble
from grouppgd.symmetry import GroupAction, polar_theta_shift, symmetric_subset
from oracles import (angle_reflection, compose_with_action, from_dense, gram_average,
                     radial_flip, rotation_group, stack_mean, with_flips)


CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def whole_space_cone(anchor):
    return DescentCone(anchor=anchor, kind="whole_space")


def ring_instance(**kw):
    defaults = dict(n_r=6, n_theta=16, angle_fraction=0.25, rays_per_angle=8,
                    seed=0)
    defaults.update(kw)
    return build_problem(**defaults)


def box_anchor_instance(n_r, n_theta, angle_fraction, rays_per_angle):
    """A noisy instance whose ground truth touches each bound of the unit box once.

    The textured phantom mapped onto ``[0, 1]`` has one cell at 0 and one at
    1, so its descent cone is a ``box`` cone.
    """
    base = build_problem(n_r=n_r, n_theta=n_theta, angle_fraction=angle_fraction,
                         rays_per_angle=rays_per_angle, phantom="textured", smoothness=2,
                         noise="gaussian", seed=3)
    x = textured_phantom(n_r, n_theta, 2, 7, lo=0.0, hi=1.0)
    clean = base.A.forward(x)
    b = clean + base.w
    return replace(base, x_dagger=x, b=b, w=b - clean)


BOX_ANCHOR_INSTANCES = {"8x16_radius2": ((8, 16, 0.25, 8), 2),
                        "16x32_radius4": ((16, 32, 0.125, 16), 4)}


def covering_subset(problem):
    radius = full_coverage_radius(problem.geometry.angles,
                                  problem.geometry.n_theta)
    return symmetric_subset(problem.geometry.theta_shift(1), radius)


def reflected_families(problem, subset):
    """The subset, its product with ``{1, F}`` and with ``{1, F} x {1, R}``."""
    g = problem.geometry
    F, R = angle_reflection(g.n_r, g.n_theta), radial_flip(g.n_r, g.n_theta)
    return {"rotations": subset, "dihedral": with_flips(subset, F),
            "dihedral_radial": with_flips(subset, F, R)}


def hand_built(L=2.0, mu=1.0, **kw):
    """A certified whole-space report with the given ``L`` and ``mu_Gstar``."""
    values = dict(L=L, mu_C=0.0, mu_Gstar=mu, eps_Gstar=0.0, eps_w=0.0, certified=True,
                  subset_size=1, cone_kind="whole_space")
    return CertificateReport(**{**values, **kw})


def test_alpha_endpoints():
    assert hand_built(mu=0.0).alpha_Gstar == 1.0
    assert hand_built(mu=2.0).alpha_Gstar == 0.0
    assert hand_built(mu=1.0).alpha_Gstar == float(np.sqrt(0.5))


def test_alpha_rejects_bad_arguments(monkeypatch):
    # certify refuses L = 0 before the band is built, and a stack eigenvalue past L
    prob = ring_instance()
    subset = covering_subset(prob)
    zero = replace(prob, A=from_dense(np.zeros((prob.A.rows, prob.A.cols))))

    def refuse(*args, **kwargs):
        raise AssertionError("the band was built for a zero operator")

    with monkeypatch.context() as patch:
        patch.setattr(certificate, "band_probe", refuse)
        with pytest.raises(ValueError, match="L must be positive"):
            certify(zero, subset)
    monkeypatch.setattr(certificate, "_stack_min_eig", lambda G_star, L: (2.0 * L, True))
    with pytest.raises(ValueError, match="exceeds L"):
        certify(prob, subset)


def test_report_holds_only_what_certify_measures():
    prob = ring_instance()
    report = certify(prob, covering_subset(prob))
    assert [f.name for f in fields(CertificateReport)] == [
        "L", "mu_C", "mu_Gstar", "eps_Gstar", "eps_w", "certified", "subset_size", "cone_kind"]
    assert report.kappa_c == CertificateReport.kappa_c == 1
    for name, value in (("flags", {}), ("alpha_Gstar", 0.5), ("kappa_c", 2)):
        with pytest.raises(TypeError):
            replace(report, **{name: value})


@pytest.mark.parametrize("shape", [(4, 16), (16, 16)], ids=["smaller", "larger"])
def test_certify_refuses_a_subset_of_another_dimension(shape):
    # the solver refuses the same subset; certify used to raise a bare IndexError
    prob = ring_instance()
    assert prob.A.cols == 96
    subset = symmetric_subset(polar_theta_shift(*shape, 1), 1)
    with pytest.raises(linop.DimensionMismatchError,
                       match=f"subset dimension {shape[0] * shape[1]} does not match"):
        certify(prob, subset)


def test_certify_refuses_a_cone_of_another_dimension():
    prob = ring_instance()
    with pytest.raises(linop.DimensionMismatchError, match="cone dimension 95"):
        certify(prob, covering_subset(prob), cone=whole_space_cone(prob.x_dagger[:-1]))


def test_eps_gstar_zero_for_ring():
    prob = ring_instance()
    subset = covering_subset(prob)
    cone = whole_space_cone(prob.x_dagger)
    assert compute_eps_gstar(prob.A, subset, prob.x_dagger, cone) <= 1e-10


def test_eps_gstar_zero_for_identity_only_subset():
    prob = ring_instance(phantom="textured", smoothness=5)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 0)
    cone = whole_space_cone(prob.x_dagger)
    assert compute_eps_gstar(prob.A, subset, prob.x_dagger, cone) == 0.0


def folded_polar_map(seed):
    """A polar map at ``angle_fraction = 0.5``, its dense matrix and its
    generator: angles two columns apart with three offsets each, so its
    window lists cells twice and folds them."""
    prob = ring_instance(angle_fraction=0.5, seed=seed)
    A = prob.A
    # 8 angles read 6 radii at 3 offsets each: 144 window entries in 96 cells
    assert len(prob.geometry.angles) * 6 * 3 == 144 > len(A.window) == A.cols
    return A, A.forward(np.eye(A.cols)).T, prob.geometry.theta_shift(1)


def test_eps_gstar_matches_dense_arithmetic():
    rng = np.random.default_rng(0)
    d = 10
    M = rng.standard_normal((6, d))
    x_dagger = rng.standard_normal(d)
    folded, M_folded, generator = folded_polar_map(seed=5)
    cases = [(from_dense(M), M, polar_theta_shift(1, d, 1), x_dagger),
             (folded, M_folded, generator, rng.standard_normal(folded.cols))]
    for A, M, generator, x_dagger in cases:
        subset = symmetric_subset(generator, 2)
        cone = whole_space_cone(x_dagger)
        oracle = 0.0
        for action in subset:
            P = np.eye(A.cols)[action.permutation]
            A_g = M @ P
            oracle = max(oracle,
                         np.linalg.norm(A_g.T @ M @ (x_dagger - P @ x_dagger)))
        got = compute_eps_gstar(A, subset, x_dagger, cone)
        assert oracle > 0
        assert_allclose(got, oracle, rtol=1e-12)


def test_eps_gstar_monotone_in_subset_radius():
    prob = ring_instance(phantom="textured", smoothness=4, seed=3)
    cone = whole_space_cone(prob.x_dagger)
    gen = prob.geometry.theta_shift(1)
    small = compute_eps_gstar(prob.A, symmetric_subset(gen, 1),
                              prob.x_dagger, cone)
    large = compute_eps_gstar(prob.A, symmetric_subset(gen, 4),
                              prob.x_dagger, cone)
    assert small <= large + 1e-15


def test_eps_w_conventions_and_oracle():
    rng = np.random.default_rng(1)
    d = 8
    M = rng.standard_normal((5, d))
    folded, M_folded, generator = folded_polar_map(seed=6)
    for A, M, generator in ((from_dense(M), M, polar_theta_shift(1, d, 1)),
                            (folded, M_folded, generator)):
        rows, d = M.shape
        subset = symmetric_subset(generator, 0)
        cone = whole_space_cone(np.zeros(d))
        assert compute_eps_w(A, subset, np.zeros(rows), cone) == 0.0
        w = rng.standard_normal(rows)
        got = compute_eps_w(A, subset, w, cone)
        assert_allclose(got, np.linalg.norm(M.T @ w) / np.linalg.norm(w),
                        rtol=1e-12)
        wide = symmetric_subset(generator, 3)
        oracle = max(
            np.linalg.norm((M @ np.eye(d)[a.permutation]).T @ w)
            for a in wide
        ) / np.linalg.norm(w)
        assert_allclose(compute_eps_w(A, wide, w, cone), oracle, rtol=1e-12)


@pytest.mark.parametrize("term", ["eps_gstar", "eps_w"])
def test_eps_terms_refuse_lengths_that_do_not_line_up(monkeypatch, term):
    # a short x_dagger used to raise a bare IndexError, a short or long w
    # numpy's reshape error, and a zero w of any length gave 0; neither term
    # checked the subset or the cone
    prob = ring_instance()
    A, x = prob.A, prob.x_dagger
    subset, cone = covering_subset(prob), whole_space_cone(x)
    other = symmetric_subset(polar_theta_shift(4, 16, 1), 1)
    if term == "eps_gstar":
        call, name, side, good = compute_eps_gstar, "x_dagger", "columns", x
    else:
        call, name, side, good = compute_eps_w, "w", "rows", np.ones(A.rows)
    length = len(good)
    cases = [(subset, good[:-1], cone,
              f"{name} dimension {length - 1} does not match operator {side} {length}"),
             (subset, np.tile(good, 2), cone, f"{name} dimension {2 * length}"),
             (subset, np.zeros(length + 1), cone, f"{name} dimension {length + 1}"),
             (subset, good[None], cone, rf"{name} dimension \(1, {length}\)"),
             (other, good, cone, "subset dimension 64 does not match operator columns 96"),
             (subset, good, whole_space_cone(x[:-1]), "cone dimension 95")]

    def refuse(*args):
        raise AssertionError("a window table was built")

    monkeypatch.setattr(certificate, "window_table", refuse)
    for sub, vector, C, message in cases:
        with pytest.raises(linop.DimensionMismatchError, match=message):
            call(A, sub, vector, C)


def test_eps_w_of_non_finite_noise_is_nan_not_zero():
    rng = np.random.default_rng(2)
    d = 8
    A = from_dense(rng.standard_normal((5, d)))
    cone = whole_space_cone(np.zeros(d))
    w = rng.standard_normal(5)
    w[1], w[3] = np.inf, -np.inf
    for radius in (0, 3):
        subset = symmetric_subset(polar_theta_shift(1, d, 1), radius)
        with np.errstate(invalid="ignore"):
            assert np.isnan(compute_eps_w(A, subset, w, cone))


def test_non_finite_constant_certifies_no_bound(monkeypatch):
    prob = ring_instance()
    w = prob.w.copy()
    w[3] = np.inf
    prob = replace(prob, w=w, b=prob.A.forward(prob.x_dagger) + w)
    subset = covering_subset(prob)

    def run_spy(*args, **kw):
        raise AssertionError("ran the solver on a report with no bound")

    monkeypatch.setattr(certificate, "solve", run_spy)
    with np.errstate(invalid="ignore"):
        report = certify(prob, subset)
        assert report.why_no_bound() == "eps_w is not finite, so no bound holds"
        assert report.to_text().endswith("bound = none\n")
        with pytest.raises(ValueError, match="eps_w is not finite") as info:
            verify_bound(prob, subset, SolverConfig(max_iters=10, seed=0), replicates=2)
    assert not isinstance(info.value, BoundVacuousError)


def test_why_no_bound_holds_the_step_rule():
    prob = ring_instance()
    report = certify(prob, covering_subset(prob))
    assert report.why_no_bound() is None
    assert report.why_no_bound(1.0 / report.L) is None
    assert report.why_no_bound(1.99) == (
        f"solver.step = 1.99 is not the certified 1/L = {1.0 / report.L:.6g}, "
        "so no bound holds")
    # the step is checked last: an estimate is named first
    estimate = replace(report, certified=False)
    assert estimate.why_no_bound(1.99) == "mu_Gstar flagged estimate, so no bound holds"


def test_bound_at_reads_bound_curve_at_recorded_iterations():
    prob = ring_instance(noise="gaussian", sigma=0.05)
    subset = covering_subset(prob)
    report = certify(prob, subset)
    assert report.eps_w > 0 and report.why_no_bound() is None
    trace = run(prob, SolverConfig(max_iters=50, seed=3, record_every=7), subset)
    assert trace.iterations[-1] == 50 and trace.iterations[-2] == 49
    expected = bound_curve(report, trace.rmsd[0], float(np.linalg.norm(prob.w)),
                           50)[trace.iterations]
    got = certificate.bound_at(report, prob, trace.rmsd[0], trace.iterations)
    assert np.array_equal(got, expected)


def test_certify_report_consistency():
    prob = ring_instance()
    subset = covering_subset(prob)
    report = certify(prob, subset)
    assert report.cone_kind == "whole_space"
    assert all(flag == "exact" for flag in report.flags.values())
    assert 0.0 <= report.mu_C <= report.mu_Gstar <= report.L + 1e-12
    assert_allclose(report.alpha_Gstar, np.sqrt(1 - report.mu_Gstar / report.L), rtol=1e-12)
    assert report.kappa_c == 1
    assert not report.vacuous


def test_certified_mu_matches_blockwise_oracle():
    prob = ring_instance()
    subset = covering_subset(prob)
    stacked = stack_mean([compose_with_action(prob.A, g) for g in subset])
    G = gram_dense(stacked)
    eigvals, eigvecs = np.linalg.eigh(G)
    v = eigvecs[:, 0]
    # evaluate the mean of per-block quadratic forms at the minimizer
    mean_quadratic = np.mean(
        [np.linalg.norm(compose_with_action(prob.A, g).forward(v)) ** 2
         for g in subset]
    )
    report = certify(prob, subset)
    assert_allclose(mean_quadratic, report.mu_Gstar, rtol=1e-8, atol=1e-12)


def test_certify_flags_relaxed_constants():
    # a box cone's curvature is the whole space's; its eps terms are exact
    prob = ring_instance()
    subset = covering_subset(prob)
    lo = np.full(prob.dimension, -np.inf)
    lo[:8] = 0.0
    box = DescentCone(anchor=prob.x_dagger, kind="box", lo=lo,
                      hi=np.full(prob.dimension, np.inf))
    report = certify(prob, subset, cone=box)
    assert report.flags == {"L": "exact", "mu_C": "relaxed", "mu_Gstar": "relaxed",
                            "eps_Gstar": "exact", "eps_w": "exact"}
    assert report.cone_kind == "box"
    assert report.why_no_bound() is None


def test_certify_L_is_top_gram_eigenvalue():
    prob = ring_instance(noise="gaussian", sigma=0.05, seed=5)
    report = certify(prob, covering_subset(prob))
    oracle = np.linalg.eigvalsh(gram_dense(prob.A))[-1]
    assert_allclose(report.L, oracle, rtol=1e-12)
    # one L for the whole program: the solver's auto step is exactly 1/L
    assert report.L == spectral_norm(prob.A)


@pytest.mark.parametrize("name", list(BOX_ANCHOR_INSTANCES))
def test_certify_box_cone_reads_whole_space_curvature(name):
    shape, radius = BOX_ANCHOR_INSTANCES[name]
    prob = box_anchor_instance(*shape)
    subset = symmetric_subset(prob.geometry.theta_shift(1), radius)
    cone = descent_cone_of(prob.K, prob.x_dagger)
    assert cone.kind == "box"
    assert np.sum(cone.lo == 0) == 1 and np.sum(cone.hi == 0) == 1
    report = certify(prob, subset)
    assert report.cone_kind == "box" and not report.vacuous
    assert report.flags == {"L": "exact", "mu_C": "relaxed", "mu_Gstar": "relaxed",
                            "eps_Gstar": "exact", "eps_w": "exact"}
    whole = certify(prob, subset, cone=whole_space_cone(prob.x_dagger))
    assert (report.L, report.mu_C, report.mu_Gstar) == (whole.L, whole.mu_C, whole.mu_Gstar)
    # projecting onto the cone can only shorten a pullback
    assert report.eps_Gstar <= whole.eps_Gstar and report.eps_w <= whole.eps_w


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n_r=st.integers(2, 6), n_theta=st.integers(5, 16), rays=st.integers(2, 12),
       coverage=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_relaxed_mu_is_at_most_feasible_rayleigh_quotients(n_r, n_theta, rays, coverage, seed):
    # anchors on random faces of the unit box; the relaxed mu_C and mu_Gstar
    # must not exceed v^T G v / ||v||^2 for any feasible direction v
    rng = np.random.default_rng(seed)
    base = ring_instance(n_r=n_r, n_theta=n_theta, rays_per_angle=rays, seed=seed)
    state = rng.integers(0, 3, base.dimension)
    x = np.select([state == 1, state == 2], [0.0, 1.0], rng.uniform(0.0, 1.0, base.dimension))
    prob = replace(base, x_dagger=x, b=base.A.forward(x))
    subset = symmetric_subset(prob.geometry.theta_shift(1), round(coverage * ((n_theta - 1) // 2)))
    report = certify(prob, subset)
    assert report.flags["mu_C"] == report.flags["mu_Gstar"] == (
        "relaxed" if report.cone_kind == "box" else "exact")
    G = gram_dense(prob.A)
    G_star = gram_average(G.copy(), subset)
    V = rng.standard_normal((200, prob.dimension))
    V[:, state == 1] = np.abs(V[:, state == 1])
    V[:, state == 2] = -np.abs(V[:, state == 2])
    slack = prob.dimension * np.finfo(float).eps / 2 * report.L
    for v in V:
        vv = v @ v
        assert report.mu_C <= (v @ G @ v) / vv + slack
        assert report.mu_Gstar <= (v @ G_star @ v) / vv + slack


def oversized_instance():
    """5,120 cells, past ``linop.DENSE_CAP``, seen by 64 rows; radius 1."""
    prob = build_problem(n_r=80, n_theta=64, angle_fraction=0.25,
                         rays_per_angle=4, seed=0)
    return prob, symmetric_subset(prob.geometry.theta_shift(1), 1)


def spy_probed_gram(monkeypatch):
    """Record the side of every Gram assembled densely by probing."""
    probed = []
    dense = linop._probed_gram

    def spy(n, *probes):
        probed.append(n)
        return dense(n, *probes)

    monkeypatch.setattr(linop, "_probed_gram", spy)
    return probed


def box_cone_at(anchor):
    lo = np.full(anchor.size, -np.inf)
    lo[0] = 0.0
    return DescentCone(anchor=anchor, kind="box", lo=lo, hi=np.full(anchor.size, np.inf))


def test_certify_box_cone_of_oversized_instance_reads_whole_space_bits(monkeypatch):
    prob, subset = oversized_instance()
    assert prob.dimension > DENSE_CAP and prob.A.rows == 64
    probed = spy_probed_gram(monkeypatch)
    whole = certify(prob, subset, cone=whole_space_cone(prob.x_dagger))
    boxed = certify(prob, subset, cone=box_cone_at(prob.x_dagger))
    # only the 64 x 64 Gram of the smaller side is probed densely, once per certify
    assert probed == [64, 64]
    assert (boxed.mu_C, boxed.mu_Gstar) == (whole.mu_C, whole.mu_Gstar)
    assert whole.flags["mu_C"] == whole.flags["mu_Gstar"] == "exact"
    assert boxed.flags["mu_C"] == boxed.flags["mu_Gstar"] == "relaxed"


def test_certify_subspace_cone_of_oversized_instance_probes_no_dense_gram(monkeypatch):
    prob, subset = oversized_instance()
    assert prob.dimension > DENSE_CAP
    probed = spy_probed_gram(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("a subspace cone built the band of the cells")

    monkeypatch.setattr(certificate, "band_probe", refuse)
    basis = np.linalg.qr(np.random.default_rng(5).standard_normal((prob.dimension, 6)))[0]
    cone = DescentCone(anchor=prob.x_dagger, kind="subspace", basis=basis)
    report = certify(prob, subset, cone=cone)
    # no Gram of the cells: only the 64 x 64 Gram of the smaller side, for L
    assert probed == [64]
    assert 0.0 < report.mu_C <= report.L and 0.0 < report.mu_Gstar <= report.L
    assert report.flags["mu_C"] == report.flags["mu_Gstar"] == "exact"


def band_above_size_rule_instance():
    """16,384 cells whose band at radius 8 is past ``DENSE_CAP**2`` entries.

    Offsets -4..4 couple angle columns up to 8 apart, 16 apart in folded
    order: 256 block columns of 17 blocks of 64 cells,
    256 * 17 * 64**2 = 17.8M entries, past DENSE_CAP**2 = 16.8M.
    """
    prob = build_problem(n_r=64, n_theta=256, angle_fraction=0.0625, seed=1,
                         offsets=range(-4, 5))
    return prob, symmetric_subset(prob.geometry.theta_shift(1), 8)


def test_certify_refuses_oversized_box_cone():
    prob, subset = band_above_size_rule_instance()
    with pytest.raises(SizeCapError, match="band of 256 columns of 17 blocks of 64 cells"):
        certify(prob, subset, cone=box_cone_at(prob.x_dagger))


def test_certify_refuses_a_band_above_the_size_rule():
    prob, subset = band_above_size_rule_instance()
    with pytest.raises(SizeCapError, match="band of 256 columns of 17 blocks of 64 cells"):
        certify(prob, subset)


def test_bound_curve_shape_and_limits():
    prob = ring_instance()
    subset = covering_subset(prob)
    report = certify(prob, subset)
    curve = bound_curve(report, rmsd0=3.0, w_norm=0.0, K=50)
    assert curve.shape == (51,)
    assert curve[0] == 3.0
    # noiseless symmetric case decays geometrically
    assert_allclose(curve, 3.0 * report.alpha_Gstar ** np.arange(51), rtol=1e-12)


def test_bound_curve_reaches_geometric_limit():
    prob = ring_instance(noise="gaussian", sigma=0.05, seed=7)
    subset = covering_subset(prob)
    report = certify(prob, subset)
    w_norm = float(np.linalg.norm(prob.w))
    limit = bound_limit(report, w_norm)
    curve = bound_curve(report, rmsd0=1.0, w_norm=w_norm, K=10_000)
    assert_allclose(curve[-1], limit, rtol=1e-8)


def test_bound_curve_monotone_between_endpoints():
    prob = ring_instance(noise="gaussian", sigma=0.05, seed=8)
    subset = covering_subset(prob)
    report = certify(prob, subset)
    w_norm = float(np.linalg.norm(prob.w))
    limit = bound_limit(report, w_norm)
    decaying = bound_curve(report, rmsd0=10 * limit, w_norm=w_norm, K=200)
    assert np.all(np.diff(decaying) <= 1e-12)
    growing = bound_curve(report, rmsd0=limit / 10, w_norm=w_norm, K=200)
    assert np.all(np.diff(growing) >= -1e-12)


def test_bound_curve_vacuous_alpha_raises():
    prob = ring_instance()
    subset = symmetric_subset(prob.geometry.theta_shift(1), 0)
    report = certify(prob, subset)  # underdetermined, mu = 0, alpha = 1
    assert report.vacuous
    assert report.mu_Gstar <= 1e-8
    with pytest.raises(BoundVacuousError):
        bound_curve(report, 1.0, 0.0, 10)
    with pytest.raises(BoundVacuousError, match="is not below 1"):
        bound_limit(report, 0.0)


def test_verify_bound_noiseless_ring():
    prob = ring_instance()
    subset = covering_subset(prob)
    config = SolverConfig(max_iters=150, seed=42)
    result = verify_bound(prob, subset, config, replicates=8)
    assert result.ok
    assert result.first_violation is None
    assert np.all(result.margins >= 0)
    assert result.empirical_mean[0] == result.bound[0]


def test_verify_bound_steps_only_the_group_chains_with_no_objective(monkeypatch):
    # the check reads only the group chains' mean distance, so it asks the
    # size rule and the solve for no plain row and no objective; the mean is
    # run_ensemble's, bit for bit
    import inspect

    seen = []

    def spy(name):
        real = getattr(certificate, name)

        def call(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append((name, bound.arguments["objective"], bound.arguments["plain"]))
            return real(*args, **kwargs)
        monkeypatch.setattr(certificate, name, call)

    spy("check_solve")
    spy("solve")
    prob = ring_instance(noise="gaussian", sigma=0.05)
    subset = covering_subset(prob)
    config = SolverConfig(max_iters=60, seed=5, record_every=7)
    result = verify_bound(prob, subset, config, replicates=4)
    assert seen == [("check_solve", False, False), ("solve", False, False)]
    iterations, mean, _ = run_ensemble(prob, replace(config, step_size=1.0 / result.certificate.L),
                                       subset, 4)
    assert result.iterations.tolist() == iterations.tolist()
    assert result.empirical_mean.tobytes() == mean.tobytes()


@pytest.mark.parametrize("replicates", [0, -1])
def test_verify_bound_refuses_no_replicates_before_certifying(monkeypatch, replicates):
    def certify_spy(*args, **kw):
        raise AssertionError("certified before checking replicates")

    monkeypatch.setattr(certificate, "certify", certify_spy)
    prob = ring_instance()
    with pytest.raises(ValueError, match="replicates must be at least 1"):
        verify_bound(prob, covering_subset(prob), SolverConfig(max_iters=10, seed=0),
                     replicates=replicates)


@pytest.mark.parametrize("replicates", [2.5, True], ids=["fraction", "bool"])
def test_verify_bound_refuses_a_non_integral_replicate_count_before_certifying(monkeypatch,
                                                                             replicates):
    def certify_spy(*args, **kw):
        raise AssertionError("certified before checking replicates")

    monkeypatch.setattr(certificate, "certify", certify_spy)
    prob = ring_instance()
    with pytest.raises(TypeError, match="replicates must be an integer"):
        verify_bound(prob, covering_subset(prob), SolverConfig(max_iters=10, seed=0),
                     replicates=replicates)


def test_verify_bound_refuses_uncertified_estimate(monkeypatch):
    # the rule the CLI applies before printing a bound: a mu_Gstar the band
    # Cholesky could not certify gives no bound to check
    prob = ring_instance()
    subset = covering_subset(prob)
    real_certify = certificate.certify
    monkeypatch.setattr(certificate, "certify",
                        lambda *args, **kw: replace(real_certify(*args, **kw), certified=False))
    with pytest.raises(ValueError, match="mu_Gstar flagged estimate") as info:
        verify_bound(prob, subset, SolverConfig(max_iters=10, seed=0), replicates=2)
    assert not isinstance(info.value, BoundVacuousError)


@pytest.mark.parametrize("name", list(BOX_ANCHOR_INSTANCES))
def test_verify_bound_accepts_box_anchor_instances(name):
    shape, radius = BOX_ANCHOR_INSTANCES[name]
    prob = box_anchor_instance(*shape)
    subset = symmetric_subset(prob.geometry.theta_shift(1), radius)
    result = verify_bound(prob, subset, SolverConfig(max_iters=400, seed=0), replicates=20)
    assert result.certificate.cone_kind == "box"
    assert result.ok
    assert np.all(result.empirical_mean <= result.bound)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(L=st.floats(0.1, 100.0), mu_ratio=st.floats(1e-6, 1.0, exclude_max=True),
       lower=st.floats(1e-3, 1.0), eps_gstar=st.floats(0.0, 50.0), eps_w=st.floats(0.0, 10.0),
       raise_gstar=st.floats(0.0, 50.0), raise_w=st.floats(0.0, 10.0),
       rmsd0=st.floats(0.0, 100.0), w_norm=st.floats(0.0, 10.0), K=st.integers(0, 300))
def test_bound_does_not_fall_as_constants_relax(L, mu_ratio, lower, eps_gstar, eps_w,
                                                raise_gstar, raise_w, rmsd0, w_norm, K):
    # why a relaxed constant is safe: a lower mu_Gstar, or a higher eps_Gstar
    # or eps_w, never lowers the bound at any k, nor its limit
    def report(mu, eps_g, eps_n):
        return hand_built(L=L, mu=mu, eps_Gstar=eps_g, eps_w=eps_n, cone_kind="box")

    tight = report(mu_ratio * L, eps_gstar, eps_w)
    relaxed = [report(lower * mu_ratio * L, eps_gstar, eps_w),
               report(mu_ratio * L, eps_gstar + raise_gstar, eps_w),
               report(mu_ratio * L, eps_gstar, eps_w + raise_w)]
    curve, limit = bound_curve(tight, rmsd0, w_norm, K), bound_limit(tight, w_norm)
    for loose in relaxed:
        if loose.vacuous:
            continue
        # room for the rounding of alpha ** k and of the geometric sum's division
        assert np.all(bound_curve(loose, rmsd0, w_norm, K) >= curve * (1 - 1e-9))
        assert bound_limit(loose, w_norm) >= limit * (1 - 1e-9)


def test_verify_bound_refuses_vacuous_certificate():
    prob = ring_instance()
    subset = symmetric_subset(prob.geometry.theta_shift(1), 0)
    with pytest.raises(BoundVacuousError):
        verify_bound(prob, subset, SolverConfig(max_iters=10, seed=0),
                     replicates=2)


def test_report_text_round_trips_key_values():
    prob = ring_instance()
    subset = covering_subset(prob)
    report = certify(prob, subset)
    text = report.to_text()
    parsed = dict(line.split(" = ") for line in text.strip().splitlines())
    assert float(parsed["L"]) == report.L
    assert float(parsed["mu_Gstar"]) == report.mu_Gstar
    assert parsed["flag.eps_w"] == "exact"
    assert parsed["bound"] == "active"


def test_certificate_text_layout():
    # perfbench/checks.py and CI read these lines; kappa_c = 1 is printed
    # because every feasible set is convex
    prob = ring_instance()
    report = certify(prob, covering_subset(prob))
    lines = report.to_text().splitlines()
    assert [line.split(" = ")[0] for line in lines] == [
        "L", "mu_C", "mu_Gstar", "kappa_c", "alpha_Gstar", "eps_Gstar", "eps_w",
        "subset_size", "cone", "flag.L", "flag.mu_C", "flag.mu_Gstar", "flag.eps_Gstar",
        "flag.eps_w", "bound"]
    assert "kappa_c = 1" in lines
    assert f"alpha_Gstar = {np.sqrt(1 - report.mu_Gstar / report.L):.17g}" in lines
    assert lines[-1] == "bound = active"
    vacuous = certify(prob, symmetric_subset(prob.geometry.theta_shift(1), 0))
    assert vacuous.certified and vacuous.to_text().endswith("\nbound = vacuous\n")
    uncertified = replace(report, certified=False)
    assert uncertified.to_text().endswith("\nflag.eps_w = exact\nbound = none\n")


def assert_mu_gstar_matches_dense_oracle(problem, subset):
    """``mu_Gstar`` within ``max(1e-12 mu, n u L)`` of ``eigvalsh`` of the dense stack Gram.

    Returns the report and the dense stack Gram's spectrum.
    """
    report = certify(problem, subset)
    spectrum = np.linalg.eigvalsh(gram_average(gram_dense(problem.A), subset))
    oracle = max(float(spectrum[0]), 0.0)
    slack = problem.dimension * np.finfo(float).eps / 2 * report.L
    assert abs(report.mu_Gstar - oracle) <= max(1e-12 * oracle, slack)
    assert report.flags["mu_Gstar"] == "exact"
    return report, spectrum


@pytest.mark.parametrize("name", ["ring", "extreme_sparse", "noisy_textured", "poisson"])
def test_certify_mu_gstar_matches_dense_oracle_on_shipped_configs(name):
    from grouppgd.cli import _build, load_config
    problem, subset, _ = _build(load_config(os.path.join(CONFIGS, f"{name}.txt")))
    report, spectrum = assert_mu_gstar_matches_dense_oracle(problem, subset)
    assert spectrum[0] > 0.0 and not report.vacuous


def test_certify_factors_the_stack_gram_twice_on_shipped_configs(monkeypatch):
    # one factor for the Lanczos run, one inertia check at mu_hat - slack,
    # each made where its fill lies
    from grouppgd.cli import _build, load_config
    shifts = []
    factor = BandGram.cholesky

    def counted(self, shift):
        shifts.append(shift)
        return factor(self, shift)

    monkeypatch.setattr(BandGram, "cholesky", counted)
    for name in ("ring", "extreme_sparse", "noisy_textured", "poisson"):
        problem, subset, _ = _build(load_config(os.path.join(CONFIGS, f"{name}.txt")))
        shifts.clear()
        report = certify(problem, subset)
        assert report.flags["mu_Gstar"] == "exact"
        assert len(shifts) == 2, name


def test_stack_min_eig_holds_one_factor_at_a_time():
    # the probe is kept before tracing, so the peak is the eigen-step's own:
    # one fill factored where it lies and the Lanczos basis of its 34 steps,
    # grown 16 vectors at a time, never two bands.  Measured 1.53 bands,
    # fill included; a copy of a held band for the factor beside a
    # 200-vector basis read 2.30 beside that band
    from grouppgd.cli import _build, load_config
    problem, subset, _ = _build(load_config(os.path.join(CONFIGS, "extreme_sparse.txt")))
    L = spectral_norm(problem.A)
    probe = band_probe(problem.A, subset, problem.geometry.folded_order, problem.geometry.n_r)
    band_bytes = probe.fill().blocks.nbytes
    assert probe.size == 2048
    tracemalloc.start()
    try:
        _, certified = certificate._stack_min_eig(probe, L)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert certified
    assert peak < 1.6 * band_bytes


def test_the_band_factor_allocates_no_second_band():
    # the factor is made where the fill lies: beside that band it holds one
    # block's inverse and the solve's slices, measured 0.08 bands.  A
    # factor made in a copy of the band read 1.08
    problem, subset = config_problem("noisy_textured")
    probe = band_probe(problem.A, subset, problem.geometry.folded_order, problem.geometry.n_r)
    slack = probe.size * np.finfo(float).eps / 2 * spectral_norm(problem.A)
    band = probe.fill()
    band_bytes = band.blocks.nbytes
    tracemalloc.start()
    try:
        solve = band.cholesky(-slack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert solve is not None
    assert peak <= 0.2 * band_bytes


@pytest.mark.parametrize("name, bands", [("extreme_sparse", 1.8), ("noisy_textured", 2.0)])
def test_certify_holds_one_band_at_a_time(name, bands):
    # the kept probe, one band and the basis; measured 1.69 and 1.91 bands
    # (3.31 when the band, a copy for the factor and a 200-vector basis
    # were held at once)
    from grouppgd.cli import _build, load_config
    problem, subset, _ = _build(load_config(os.path.join(CONFIGS, f"{name}.txt")))
    band_bytes = band_probe(problem.A, subset, problem.geometry.folded_order,
                            problem.geometry.n_r).fill().blocks.nbytes
    tracemalloc.start()
    try:
        report = certify(problem, subset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.flags["mu_Gstar"] == "exact"
    assert peak < bands * band_bytes


def test_stack_min_eig_of_an_indefinite_band_is_not_certified():
    # the shifted factor fails before Lanczos starts: 0, flagged estimate.
    # The window maps make the "Gram" diag(1, -1)
    A = from_window(2, 2, [0, 1], lambda v: v, lambda y: y * np.array([1.0, -1.0]))
    probe = band_probe(A, symmetric_subset(polar_theta_shift(1, 2, 1), 0), np.arange(2), 2)
    assert np.array_equal(probe.fill().blocks, [[[[1.0, 0.0], [0.0, -1.0]]]])
    assert certificate._stack_min_eig(probe, 1.0) == (0.0, False)


def test_stack_min_eig_whose_inertia_check_fails_is_not_certified(monkeypatch):
    # Lanczos runs on the first factor; the second, at mu_hat - slack, fails:
    # 0, flagged estimate, and no bound for that reason
    prob = ring_instance()
    subset = covering_subset(prob)
    calls = []
    factor = BandGram.cholesky

    def second_fails(self, shift):
        calls.append(shift)
        return None if len(calls) % 2 == 0 else factor(self, shift)

    monkeypatch.setattr(BandGram, "cholesky", second_fails)
    L = spectral_norm(prob.A)
    probe = band_probe(prob.A, subset, prob.geometry.folded_order, prob.geometry.n_r)
    assert certificate._stack_min_eig(probe, L) == (0.0, False)
    assert len(calls) == 2 and calls[0] < 0.0 < calls[1]
    report = certify(prob, subset)
    assert report.flags["mu_Gstar"] == "estimate" and report.mu_Gstar == 0.0
    # mu_Gstar = 0 also makes alpha_Gstar = 1, but the estimate is the reason
    assert report.vacuous
    assert report.why_no_bound() == "mu_Gstar flagged estimate, so no bound holds"
    assert report.to_text().endswith("flag.mu_Gstar = estimate\nflag.eps_Gstar = exact\n"
                                      "flag.eps_w = exact\nbound = none\n")
    with pytest.raises(ValueError, match="mu_Gstar flagged estimate") as info:
        verify_bound(prob, subset, SolverConfig(max_iters=10, seed=0), replicates=2)
    assert not isinstance(info.value, BoundVacuousError)


def config_problem(name):
    """The problem and subset of a shipped config, or of the overlap config
    (``problem.angle_fraction = 0.5``: one folded block)."""
    from grouppgd.cli import _build, load_config, parse_config
    config = (parse_config("problem.angle_fraction = 0.5\n") if name == "overlap"
              else load_config(os.path.join(CONFIGS, f"{name}.txt")))
    problem, subset, _ = _build(config)
    return problem, subset


@pytest.mark.parametrize("name, bands", [("ring", 1.5), ("extreme_sparse", 1.3),
                                         ("noisy_textured", 1.5), ("poisson", 1.5),
                                         ("fine_grid", 1.2), ("overlap", 1.75)])
def test_band_gram_moves_one_action_at_a_time(name, bands):
    # the band, the kept probe (12 bytes a nonzero: a value and two uint16
    # window positions) and one chunk's indices: measured 1.45 bands on the
    # 16-angle configs, 1.24 on extreme_sparse, 1.17 on fine_grid and 1.72
    # on the overlap config, whose fill, as on every config, sets the peak
    # (its probe alone peaks at 1.56); the pins add 0.03-0.08 of a band.
    # Moving every action's nonzeros at once read 2.18, 1.38, 1.34 and 3.00
    problem, subset = config_problem(name)
    tracemalloc.start()
    try:
        band = band_probe(problem.A, subset, problem.geometry.folded_order,
                          problem.geometry.n_r).fill()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_r, n_theta = problem.geometry.n_r, problem.geometry.n_theta
    assert band.blocks.shape == (n_theta, 5, n_r, n_r)
    assert peak < bands * band.blocks.nbytes


def test_band_probe_holds_each_field_once_on_the_overlap_config():
    # the probe's peak, in bands of the band it will fill: the kept fields
    # are concatenated and sorted one at a time, so no statement holds the
    # three fields twice.  Measured 1.56; 1.76 when they moved together
    problem, subset = config_problem("overlap")
    tracemalloc.start()
    try:
        probe = band_probe(problem.A, subset, problem.geometry.folded_order,
                           problem.geometry.n_r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    band = probe.size * (probe.below + 1) * probe.block * 8
    assert peak <= 1.6 * band


def assert_fill_ignores_order(probe, rng):
    """The fill of ``probe`` and of its kept nonzeros in a random order have
    the same bits: no two kept entries land in one cell of the band through
    one action, so the order in which one action's entries are added moves
    no bit."""
    at = rng.permutation(len(probe.values))
    shuffled = replace(probe, rows=probe.rows[at], cols=probe.cols[at], values=probe.values[at])
    assert probe.fill().blocks.tobytes() == shuffled.fill().blocks.tobytes()


@pytest.mark.parametrize("name", ["ring", "extreme_sparse", "overlap"])
def test_a_fill_keeps_its_bits_in_any_order_of_the_kept_nonzeros(name):
    problem, subset = config_problem(name)
    probe = band_probe(problem.A, subset, problem.geometry.folded_order, problem.geometry.n_r)
    assert len(probe.values) > linop._FILL_CHUNK  # entries move across chunks too
    assert_fill_ignores_order(probe, np.random.default_rng(0))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n_r=st.integers(1, 4), n_theta=st.integers(1, 12), angle_fraction=st.floats(0.1, 1.0),
       rays=st.integers(1, 4), actions=st.integers(1, 5), chunk=st.integers(1, 50),
       seed=st.integers(0, 2**32 - 1))
def test_a_fill_of_random_actions_keeps_its_bits_in_any_order(n_r, n_theta, angle_fraction,
                                                              rays, actions, chunk, seed):
    # random permutations of the cells for actions, and chunks small enough
    # that one action's entries are added over several
    problem = build_problem(n_r=n_r, n_theta=n_theta, angle_fraction=angle_fraction,
                            rays_per_angle=rays, seed=seed)
    d, rng = problem.dimension, np.random.default_rng(seed)
    family = [GroupAction(dimension=d, permutation=rng.permutation(d), power=0)
              for _ in range(actions)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linop, "_FILL_CHUNK", chunk)
        probe = band_probe(problem.A, family, rng.permutation(d), n_r)
        assert_fill_ignores_order(probe, rng)


@pytest.mark.parametrize("family, mu_gstar", [("dihedral", 0.341), ("dihedral_radial", 0.617)])
def test_band_gram_at_two_and_four_times_the_actions(family, mu_gstar):
    # extreme_sparse's 55 rotations times {1, F} and {1, F} x {1, R}: the
    # reflection keeps the folded order's coupling 4 blocks wide, and the
    # peak grows only by the window table, one row of window cells per action
    from grouppgd.cli import _build, load_config
    problem, rotations, _ = _build(load_config(os.path.join(CONFIGS, "extreme_sparse.txt")))
    subset = reflected_families(problem, rotations)[family]
    assert len(subset) == {"dihedral": 2, "dihedral_radial": 4}[family] * 55
    table = linop.window_table(problem.A, subset)
    tracemalloc.start()
    try:
        band = band_probe(problem.A, subset, problem.geometry.folded_order,
                          problem.geometry.n_r).fill()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert band.blocks.shape == (64, 5, 32, 32)
    assert peak < 1.5 * band.blocks.nbytes + table.nbytes
    assert round(certify(problem, subset).mu_Gstar, 3) == mu_gstar


@pytest.mark.parametrize("name, entries", [("ring", 327_680), ("extreme_sparse", 327_680),
                                           ("noisy_textured", 327_680), ("poisson", 327_680),
                                           ("fine_grid", 2_621_440)])
def test_band_stores_block_columns_of_one_angle_column_on_shipped_configs(name, entries):
    # offsets -1..1 couple angle columns 2 apart, 4 apart in folded order: each
    # block column of n_r cells keeps 4 blocks below its diagonal block, half
    # the 640,000 and 5,222,400 entries of block rows as wide as the coupling
    from grouppgd.cli import _build, load_config
    problem, subset, _ = _build(load_config(os.path.join(CONFIGS, f"{name}.txt")))
    n_r, n_theta = problem.geometry.n_r, problem.geometry.n_theta
    band = band_probe(problem.A, subset, problem.geometry.folded_order, n_r).fill()
    assert band.blocks.shape == (n_theta, 5, n_r, n_r)
    assert band.blocks.size == entries


def test_band_gram_probes_only_the_cells_the_operator_reads():
    # G is zero off the window: only extreme_sparse's 384 window cells, of its
    # 2,048, are probed, 16 at a time
    from grouppgd.cli import _build, load_config
    problem, subset, _ = _build(load_config(os.path.join(CONFIGS, "extreme_sparse.txt")))
    A = problem.A
    calls = {"forward": [], "adjoint": []}

    def metered(name, window_map):
        def counted(v):
            calls[name].append(len(v))
            return window_map(v)
        return counted

    probed = from_window(A.rows, A.cols, A.window, metered("forward", A.window_forward),
                         metered("adjoint", A.window_adjoint))
    band_probe(probed, subset, problem.geometry.folded_order, problem.geometry.n_r)
    for rows in calls.values():
        assert (len(rows), sum(rows)) == (24, 384)


def test_certify_probes_one_position_of_every_angle_block_per_vector():
    # 4 angles, 4 rays and 4 radii x 3 offsets each: 16 rows against 48 window
    # cells, 4 blocks.  L probes A A^T with 16 // 4 = 4 vectors, the band probes
    # G with 48 // 4 = 12, eps_Gstar sends the subset's 3 mismatches through
    # both maps and eps_w the noise through the adjoint.  As one block the
    # probes take 16 and 48 vectors, and the constants keep their bits
    problem = build_problem(n_r=4, n_theta=16, angle_fraction=0.25, rays_per_angle=4,
                            noise="gaussian", seed=3)
    subset = symmetric_subset(problem.geometry.theta_shift(1), 1)
    A = problem.A
    assert (A.rows, len(A.window), A.blocks) == (16, 48, 4)
    reports, counts = [], []
    for blocks in (4, 1):
        rows = {"forward": 0, "adjoint": 0}

        def metered(name, window_map):
            def counted(v):
                rows[name] += v.size // v.shape[-1]
                return window_map(v)
            return counted

        M = from_window(A.rows, A.cols, A.window, metered("forward", A.window_forward),
                        metered("adjoint", A.window_adjoint), blocks=blocks)
        reports.append(certify(replace(problem, A=M), subset))
        counts.append(rows)
    assert counts == [{"forward": 4 + 12 + 3, "adjoint": 4 + 12 + 3 + 1},
                      {"forward": 16 + 48 + 3, "adjoint": 16 + 48 + 3 + 1}]
    assert reports[0] == reports[1] == certify(problem, subset)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n_r=st.integers(1, 8), n_theta=st.integers(3, 32),
       angles=st.lists(st.integers(0, 31), min_size=1, max_size=6), rays=st.integers(1, 32),
       coverage=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_certify_mu_gstar_matches_dense_oracle_on_random_instances(n_r, n_theta, angles, rays,
                                                                   coverage, seed):
    problem = ring_instance(n_r=n_r, n_theta=n_theta, angles=angles, rays_per_angle=rays,
                            seed=seed)
    radius = round(coverage * ((n_theta - 1) // 2))
    subset = symmetric_subset(problem.geometry.theta_shift(1), radius)
    cone = whole_space_cone(problem.x_dagger)
    report = certify(problem, subset, cone=cone)
    spectrum = np.linalg.eigvalsh(gram_average(gram_dense(problem.A), subset))
    oracle = max(float(spectrum[0]), 0.0)
    slack = problem.dimension * np.finfo(float).eps / 2 * report.L
    assert abs(report.mu_Gstar - oracle) <= max(1e-12 * oracle, slack)
    assert report.flags["mu_Gstar"] == "exact"
    assert certify(problem, subset, cone=cone) == report


@pytest.mark.parametrize("shape", [(6, 15), (32, 63), (6, 16), (32, 64)])
def test_certify_mu_gstar_matches_dense_oracle_on_full_group(shape):
    # every rotation once, the half turn too on an even angle count: a
    # block-circulant stack Gram whose eigenvalues come in pairs
    n_r, n_theta = shape
    problem = ring_instance(n_r=n_r, n_theta=n_theta)
    subset = rotation_group(n_r, n_theta)
    assert len({tuple(T.permutation) for T in subset}) == n_theta == len(subset)
    _, spectrum = assert_mu_gstar_matches_dense_oracle(problem, subset)
    assert_allclose(spectrum[1], spectrum[0], rtol=1e-10)


@pytest.mark.parametrize("shape", [(6, 16), (5, 17)])
@pytest.mark.parametrize("family", ["dihedral", "dihedral_radial"])
def test_certify_mu_gstar_matches_dense_oracle_with_reflections(shape, family):
    # the reflection keeps the folded order banded: theta and -theta are
    # neighbours in it, so the band holds every moved nonzero
    n_r, n_theta = shape
    problem = ring_instance(n_r=n_r, n_theta=n_theta)
    subset = reflected_families(problem, covering_subset(problem))[family]
    report, _ = assert_mu_gstar_matches_dense_oracle(problem, subset)
    assert report.eps_Gstar == 0.0


def test_eps_gstar_is_zero_for_the_ring_phantom_under_reflections():
    # the ring's profile is symmetric in the radius, bit for bit, so both flips fix it
    from grouppgd.cli import _build, load_config
    problem, subset, _ = _build(load_config(os.path.join(CONFIGS, "ring.txt")))
    for name, family in reflected_families(problem, subset).items():
        assert certify(problem, family).eps_Gstar == 0.0, name


@pytest.mark.parametrize("shape", [(6, 16), (32, 64)])
def test_certify_mu_gstar_matches_dense_oracle_on_underdetermined_stack(shape):
    n_r, n_theta = shape
    problem = ring_instance(n_r=n_r, n_theta=n_theta)
    subset = symmetric_subset(problem.geometry.theta_shift(1), 0)
    assert problem.A.rows < problem.A.cols
    report, spectrum = assert_mu_gstar_matches_dense_oracle(problem, subset)
    assert report.mu_Gstar == 0.0 and report.vacuous
    assert np.sum(spectrum < 1e-9 * report.L) >= problem.A.cols - problem.A.rows


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n_r=st.integers(1, 8), n_theta=st.integers(3, 16),
       angles=st.lists(st.integers(0, 15), min_size=1, max_size=4), rays=st.integers(1, 8),
       coverage=st.floats(0.0, 1.0), k=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
# adjacent angles with three offsets each: the window lists cells twice and folds them
@example(n_r=3, n_theta=8, angles=[0, 1, 2, 3], rays=2, coverage=1.0, k=4, seed=7)
def test_certify_subspace_cone_matches_dense_oracles(n_r, n_theta, angles, rays, coverage,
                                                     k, seed):
    problem = ring_instance(n_r=n_r, n_theta=n_theta, angles=angles, rays_per_angle=rays,
                            seed=seed)
    radius = round(coverage * ((n_theta - 1) // 2))
    subset = symmetric_subset(problem.geometry.theta_shift(1), radius)
    k = min(k, problem.dimension)
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((problem.dimension, k)))[0]
    cone = DescentCone(anchor=problem.x_dagger, kind="subspace", basis=basis)
    report = certify(problem, subset, cone=cone)
    G = gram_dense(problem.A)
    slack = problem.dimension * np.finfo(float).eps / 2 * report.L
    for value, gram in ((report.mu_C, G), (report.mu_Gstar, gram_average(G.copy(), subset))):
        oracle = max(float(np.linalg.eigvalsh(basis.T @ gram @ basis)[0]), 0.0)
        assert abs(value - oracle) <= slack
    assert report.flags["mu_C"] == report.flags["mu_Gstar"] == "exact"
    assert report.cone_kind == "subspace"


def test_certify_reruns_are_bitwise_equal():
    prob = ring_instance(phantom="textured", noise="gaussian", sigma=0.05, seed=4)
    subset = covering_subset(prob)
    first, second = certify(prob, subset), certify(prob, subset)
    assert first == second
    assert first.to_text() == second.to_text()
