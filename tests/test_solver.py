"""Solver steps, runs, multistage schedules, and determinism."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from grouppgd.bench import Geometry, ProblemInstance, build_problem
from grouppgd.constraint import Box, Subspace
from grouppgd.linop import (LinearMap, compose_with_action, from_dense, identity_map,
                            spectral_norm)
from grouppgd.solver import (
    DivergenceError,
    SolverConfig,
    group_pgd_step,
    pgd_step,
    run,
    run_ensemble,
    run_multistage,
)
from grouppgd.symmetry import identity_action, polar_theta_shift, symmetric_subset


def small_problem(noise="none", sigma=0.0, seed=0, **kw):
    return build_problem(n_r=4, n_theta=8, angle_fraction=0.5, rays_per_angle=4,
                         noise=noise, sigma=sigma, seed=seed, **kw)


def test_pgd_fixed_point_at_ground_truth():
    prob = small_problem()
    out = pgd_step(prob.x_dagger, prob.A, prob.b, prob.K, eta=0.01)
    assert_allclose(out, prob.x_dagger, atol=1e-14)


def test_pgd_identity_operator_single_step():
    A = identity_map(1)
    K = Box(-10.0, 10.0, 1)
    out = pgd_step(np.array([5.0]), A, np.array([0.0]), K, eta=1.0)
    assert_allclose(out, [0.0], atol=0)


def test_pgd_step_matches_hand_rolled_arithmetic():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    A = from_dense(M)
    K = Box(-5.0, 5.0, 2)
    x = np.array([0.5, -0.25])
    b = np.array([1.0, -1.0])
    eta = 0.05
    grad = M.T @ (M @ x - b)
    oracle = np.clip(x - eta * grad, -5.0, 5.0)
    assert_allclose(pgd_step(x, A, b, K, eta), oracle, atol=1e-12)


def test_group_step_identity_action_bit_identical_to_pgd():
    prob = small_problem(noise="gaussian", sigma=0.1)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, prob.dimension)
    ident = identity_action(prob.dimension)
    a = pgd_step(x, prob.A, prob.b, prob.K, eta=0.01)
    b = group_pgd_step(x, prob.A, prob.b, prob.K, 0.01, ident)
    assert np.array_equal(a, b)


def test_group_step_ring_is_fixed_point_for_any_action():
    prob = small_problem()
    for s in (-3, 1, 2):
        T = polar_theta_shift(4, 8, s)
        out = group_pgd_step(prob.x_dagger, prob.A, prob.b, prob.K, 0.01, T)
        assert_allclose(out, prob.x_dagger, atol=1e-14)


def test_group_step_matches_composed_operator_formulation():
    prob = small_problem(noise="gaussian", sigma=0.2, seed=3)
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 1.0, prob.dimension)
    for s in (1, -2):
        T = polar_theta_shift(4, 8, s)
        A_g = compose_with_action(prob.A, T)
        grad = A_g.adjoint(A_g.forward(x) - prob.b)
        oracle = prob.K.project(x - 0.01 * grad)
        assert_allclose(group_pgd_step(x, prob.A, prob.b, prob.K, 0.01, T),
                        oracle, atol=1e-12)


def test_run_radius_zero_matches_plain_pgd():
    prob = small_problem(noise="gaussian", sigma=0.05, seed=5)
    config = SolverConfig(max_iters=40, seed=11)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 0)
    plain = run(prob, config)
    grouped = run(prob, config, subset=subset)
    assert np.array_equal(plain.rmsd, grouped.rmsd)
    assert np.array_equal(plain.objective, grouped.objective)
    assert np.array_equal(plain.final_x, grouped.final_x)


def test_run_deterministic_given_seed():
    prob = small_problem(noise="gaussian", sigma=0.05, seed=6)
    config = SolverConfig(max_iters=30, seed=7)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 2)
    t1 = run(prob, config, subset=subset)
    t2 = run(prob, config, subset=subset)
    assert np.array_equal(t1.rmsd, t2.rmsd)
    assert np.array_equal(t1.action_indices, t2.action_indices)
    assert np.array_equal(t1.final_x, t2.final_x)


def test_run_records_initial_point_and_final_iterate():
    prob = small_problem()
    config = SolverConfig(max_iters=25, seed=0, record_every=10)
    trace = run(prob, config)
    assert trace.iterations[0] == 0
    assert trace.iterations[-1] == 25
    assert list(trace.iterations) == [0, 10, 20, 25]
    assert trace.rmsd[0] == np.linalg.norm(prob.x_dagger)


def test_iterates_stay_feasible():
    prob = small_problem(noise="gaussian", sigma=0.3, seed=8)
    config = SolverConfig(max_iters=50, seed=1)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 2)
    trace = run(prob, config, subset=subset)
    x = trace.final_x
    assert np.all(x >= -1e-12) and np.all(x <= 1.0 + 1e-12)


def test_objective_nonincreasing_for_plain_pgd_auto_step():
    prob = small_problem(noise="gaussian", sigma=0.1, seed=9)
    trace = run(prob, SolverConfig(max_iters=100, step_size="auto", seed=0))
    diffs = np.diff(trace.objective)
    assert np.all(diffs <= 1e-10)


def test_fixed_point_stays_fixed_in_run():
    prob = small_problem()
    config = SolverConfig(max_iters=20, seed=4)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 2)
    trace = run(prob, config, subset=subset, x0=prob.x_dagger)
    assert_allclose(trace.final_x, prob.x_dagger, atol=1e-12)
    assert np.all(trace.rmsd <= 1e-12)


def test_divergence_raises_with_iteration_index():
    d = 4
    A = identity_map(d)
    x_dagger = np.zeros(d)
    b = np.ones(d)
    K = Subspace(np.eye(d))  # unconstrained in effect
    geometry = Geometry(n_r=1, n_theta=d, angles=(0,), rays_per_angle=d,
                        offsets=(0,))
    prob = ProblemInstance(x_dagger=x_dagger, A=A, b=b, w=np.zeros(d), K=K,
                           geometry=geometry)
    config = SolverConfig(max_iters=500, step_size=10.0, seed=0)
    with pytest.raises(DivergenceError) as info:
        run(prob, config, x0=2.0 * np.ones(d))
    assert info.value.iteration > 0


def test_multistage_single_stage_equals_plain_run():
    prob = small_problem(noise="gaussian", sigma=0.05, seed=10)
    config = SolverConfig(max_iters=30, seed=13)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 2)
    plain = run(prob, config, subset=subset)
    staged = run_multistage(prob, config, [(2, 30)])
    assert np.array_equal(plain.rmsd, staged.rmsd)
    assert np.array_equal(plain.final_x, staged.final_x)


def test_multistage_final_stage_is_pure_pgd():
    prob = small_problem(noise="gaussian", sigma=0.05, seed=12)
    config = SolverConfig(max_iters=0, seed=14)
    staged = run_multistage(prob, config, [(2, 6), (0, 5)])
    # replay the last five steps as plain projected gradient from the
    # stage boundary and compare bit-for-bit
    eta = 1.0 / spectral_norm(prob.A)
    first_stage = run_multistage(prob, config, [(2, 6)])
    x = first_stage.final_x.copy()
    for _ in range(5):
        x = pgd_step(x, prob.A, prob.b, prob.K, eta)
    assert np.array_equal(staged.final_x, x)
    assert staged.iterations[-1] == 11
    assert set(np.unique(staged.stages)) <= {0, 1}


def test_multistage_rejects_increasing_radius():
    prob = small_problem()
    with pytest.raises(ValueError):
        run_multistage(prob, SolverConfig(max_iters=0, seed=0), [(1, 5), (2, 5)])


def test_ensemble_deterministic_and_averaged():
    prob = small_problem(noise="gaussian", sigma=0.1, seed=15)
    config = SolverConfig(max_iters=20, seed=21)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 1)
    it1, mean1, traces1 = run_ensemble(prob, config, subset, replicates=5)
    it2, mean2, traces2 = run_ensemble(prob, config, subset, replicates=5)
    assert np.array_equal(mean1, mean2)
    stacked = np.stack([t.rmsd for t in traces1])
    assert_allclose(mean1, stacked.mean(axis=0), rtol=1e-15)
    # replicates differ from one another
    assert not np.array_equal(traces1[0].rmsd, traces1[1].rmsd)


def test_ensemble_resolves_auto_step_once(monkeypatch):
    from grouppgd import solver

    prob = small_problem(seed=4)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 1)
    calls = []

    def counting_norm(A):
        calls.append(A)
        return spectral_norm(A)

    monkeypatch.setattr(solver, "spectral_norm", counting_norm)
    config = SolverConfig(max_iters=15, seed=8)
    _, _, traces = run_ensemble(prob, config, subset, replicates=4)
    assert len(calls) == 1
    # every replicate ran with the same step a per-replicate resolution gives
    children = np.random.SeedSequence(config.seed).spawn(4)
    explicit = SolverConfig(max_iters=15, seed=8, step_size=1.0 / spectral_norm(prob.A))
    for trace, child in zip(traces, children):
        alone = run(prob, explicit, subset=subset, rng=np.random.default_rng(child))
        assert np.array_equal(trace.rmsd, alone.rmsd)
        assert np.array_equal(trace.final_x, alone.final_x)


def counted_problem(prob):
    """``prob`` with an operator that counts its forward and adjoint applies."""
    calls = []
    A = prob.A

    def forward(x):
        calls.append("forward")
        return A.forward(x)

    def adjoint(y):
        calls.append("adjoint")
        return A.adjoint(y)

    counted = LinearMap(rows=A.rows, cols=A.cols, forward=forward, adjoint=adjoint)
    return replace(prob, A=counted), calls


def test_plain_ensemble_runs_one_chain():
    prob, calls = counted_problem(small_problem(noise="gaussian", sigma=0.1, seed=6))
    config = SolverConfig(max_iters=25, seed=3)
    iterations, mean, traces = run_ensemble(prob, config, None, replicates=5)
    ensemble_calls = list(calls)
    calls.clear()
    alone = run(prob, config)
    assert ensemble_calls == calls
    assert all(trace is traces[0] for trace in traces)
    # the mean of five separate runs on their own streams, bit for bit
    children = np.random.SeedSequence(config.seed).spawn(5)
    separate = [run(prob, config, rng=np.random.default_rng(child)) for child in children]
    assert np.array_equal(iterations, alone.iterations)
    assert np.array_equal(mean, np.mean(np.stack([t.rmsd for t in separate]), axis=0))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=-1)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=1, record_every=0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=1, step_size=0.0)


def test_noiseless_symmetric_run_meets_predicted_iteration_count():
    import math
    from grouppgd.bench import full_coverage_radius
    from grouppgd.certificate import certify

    prob = build_problem(n_r=6, n_theta=16, angle_fraction=0.25,
                         rays_per_angle=8, seed=0)
    radius = full_coverage_radius(prob.geometry.angles, 16)
    subset = symmetric_subset(prob.geometry.theta_shift(1), radius)
    report = certify(prob, subset)
    rmsd0 = float(np.linalg.norm(prob.x_dagger))
    k_pred = math.ceil(math.log(1e-6 / rmsd0) / math.log(report.alpha_Gstar))
    config = SolverConfig(max_iters=k_pred, seed=1, step_size=1.0 / report.L)
    trace = run(prob, config, subset=subset)
    # per-path distances shrink monotonically in the noiseless symmetric case
    assert np.all(np.diff(trace.rmsd) <= 1e-12)
    assert trace.rmsd[-1] <= 1e-6


def test_multistage_shrinking_schedule_reported():
    # speed-accuracy trade-off of shrinking schedules on a non-symmetric
    # phantom: reported, not asserted
    budget = 150
    finals_shrink, finals_flat = [], []
    for seed in range(20):
        prob = build_problem(n_r=8, n_theta=16, angle_fraction=0.25,
                             rays_per_angle=8, phantom="textured",
                             smoothness=3, seed=seed)
        config = SolverConfig(max_iters=0, seed=seed, record_every=budget)
        shrink = run_multistage(prob, config, [(6, budget), (1, budget)])
        flat = run_multistage(prob, config, [(6, 2 * budget)])
        finals_shrink.append(shrink.rmsd[-1])
        finals_flat.append(flat.rmsd[-1])
    mean_shrink = float(np.mean(finals_shrink))
    mean_flat = float(np.mean(finals_flat))
    print(f"multistage shrink-vs-flat mean final rmsd: "
          f"{mean_shrink:.4f} vs {mean_flat:.4f} "
          f"(shrinking better on {np.mean(np.array(finals_shrink) <= np.array(finals_flat)):.0%} of seeds)")
    assert np.isfinite(mean_shrink) and np.isfinite(mean_flat)
