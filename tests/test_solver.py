"""Solver steps, runs, ensembles, and determinism."""

import itertools
import os
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from grouppgd import kernels, linop, solver
from grouppgd.bench import Geometry, ProblemInstance, angle_subsampled_operator, build_problem
from grouppgd.certificate import certify, compute_eps_gstar, compute_eps_w
from grouppgd.constraint import Box, DescentCone, Subspace
from grouppgd.linop import (DimensionMismatchError, LinearMap, SizeCapError, spectral_norm,
                            window_table)
from grouppgd.solver import (
    DivergenceError,
    IterateTrace,
    SolverConfig,
    replicate_rngs,
    run,
    run_ensemble,
    solve,
)
from grouppgd.symmetry import identity_action, polar_theta_shift, sample_action, symmetric_subset
from oracles import from_dense, group_pgd_step, identity_map, pgd_step

needs_fork = pytest.mark.skipif(
    sys.version_info >= (3, 12) or not hasattr(os, "fork"),
    reason="the solve forks only where os.fork exists, before Python 3.12")


def small_problem(noise="none", sigma=0.0, seed=0, **kw):
    return build_problem(n_r=4, n_theta=8, angle_fraction=0.5, rays_per_angle=4,
                         noise=noise, sigma=sigma, seed=seed, **kw)


def ring_problem(A, b, K, x_dagger=0.0):
    """``x_dagger`` on one ring of ``A.cols`` angles, measured through ``A`` as ``b``."""
    d = A.cols
    geometry = Geometry(n_r=1, n_theta=d, angles=(0,), rays_per_angle=d, offsets=(0,))
    return ProblemInstance(x_dagger=np.full(d, x_dagger), A=A, b=b, w=np.zeros(A.rows), K=K,
                           geometry=geometry)


def diverging_problem():
    """A problem whose step of size 1 maps the first cell ``x`` to ``2 - 3 x``."""
    return ring_problem(from_dense(np.diag([2.0, 0.0, 0.0, 0.0])), np.ones(4),
                        Box(-np.inf, np.inf, 4))


def solver_step(x, A, b, K, eta, cells):
    """The solver's step on ``x`` alone through the window table row
    ``cells``, then ``K.project``, as ``x`` need not lie in ``K``."""
    X = x[None].astype(float)
    solver._step(X, A, b, eta, cells[None], *solver._bounds(K, 1))
    return K.project(X)[0]


def divergence_iteration(prob, eta, subset, rng, budget):
    """The iteration at which one chain from zeros, stepped alone by the
    oracle ``pgd_step`` (no subset) or ``group_pgd_step`` through the actions
    ``rng`` draws, leaves the finite ball of radius ``DIVERGENCE_NORM``;
    None if it stays inside for ``budget`` steps."""
    x = np.zeros(prob.dimension)
    draws = [None] * budget if subset is None else rng.integers(len(subset), size=budget)
    for k, s in enumerate(draws, start=1):
        x = (pgd_step(x, prob.A, prob.b, prob.K, eta) if subset is None else
             group_pgd_step(x, prob.A, prob.b, prob.K, eta, subset.actions[s]))
        if not np.linalg.norm(x) <= solver.DIVERGENCE_NORM:
            return k
    return None


def test_pgd_fixed_point_at_ground_truth():
    prob = small_problem()
    out = solver_step(prob.x_dagger, prob.A, prob.b, prob.K, 0.01, prob.A.window)
    assert_allclose(out, prob.x_dagger, atol=1e-14)


def test_pgd_identity_operator_single_step():
    A = identity_map(1)
    K = Box(-10.0, 10.0, 1)
    out = solver_step(np.array([5.0]), A, np.array([0.0]), K, 1.0, A.window)
    assert_allclose(out, [0.0], atol=0)


def test_pgd_step_matches_hand_rolled_arithmetic():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    A = from_dense(M)
    K = Box(-5.0, 5.0, 2)
    b = np.array([1.0, -1.0])
    eta = 0.05
    prob = ring_problem(A, b, K)
    # run's one step from zeros, and the step from an arbitrary x
    trace = run(prob, SolverConfig(max_iters=1, step_size=eta, record_every=1))
    for x, stepped in ((np.zeros(2), trace.final_x),
                       (np.array([0.5, -0.25]), solver_step(np.array([0.5, -0.25]), A, b, K,
                                                            eta, A.window))):
        grad = M.T @ (M @ x - b)
        oracle = np.clip(x - eta * grad, -5.0, 5.0)
        assert_allclose(stepped, oracle, atol=1e-12)


def test_group_step_identity_action_bit_identical_to_pgd():
    prob = small_problem(noise="gaussian", sigma=0.1)
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, prob.dimension)
    ident = window_table(prob.A, [identity_action(prob.dimension)])[0]
    a = solver_step(x, prob.A, prob.b, prob.K, 0.01, prob.A.window)
    b = solver_step(x, prob.A, prob.b, prob.K, 0.01, ident)
    assert np.array_equal(a, b)


def test_group_step_ring_is_fixed_point_for_any_action():
    prob = small_problem()
    for s in (-3, 1, 2):
        T = polar_theta_shift(4, 8, s)
        out = solver_step(prob.x_dagger, prob.A, prob.b, prob.K, 0.01,
                          window_table(prob.A, [T])[0])
        assert_allclose(out, prob.x_dagger, atol=1e-14)


def test_group_step_matches_composed_operator_formulation():
    prob = small_problem(noise="gaussian", sigma=0.2, seed=3)
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 1.0, prob.dimension)
    for s in (1, -2):
        T = polar_theta_shift(4, 8, s)
        assert_allclose(solver_step(x, prob.A, prob.b, prob.K, 0.01, window_table(prob.A, [T])[0]),
                        group_pgd_step(x, prob.A, prob.b, prob.K, 0.01, T), atol=1e-12)
    # run's one step from zeros, through the action it drew
    subset = symmetric_subset(prob.geometry.theta_shift(1), 2)
    for seed in range(3):
        trace = run(prob, SolverConfig(max_iters=1, step_size=0.01, seed=seed), subset)
        T = subset.actions[trace.action_indices[1]]
        assert_allclose(trace.final_x, group_pgd_step(np.zeros(prob.dimension), prob.A, prob.b,
                                                      prob.K, 0.01, T), atol=1e-12)


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
    eta = 1.0 / spectral_norm(prob.A)
    # the actions run draws, stepped from the ground truth
    draws = np.random.default_rng(config.seed).integers(len(subset), size=config.max_iters)
    assert np.array_equal(run(prob, config, subset=subset).action_indices[1:], draws)
    table = window_table(prob.A, subset)
    x = prob.x_dagger
    for s in draws:
        x = solver_step(x, prob.A, prob.b, prob.K, eta, table[s])
        assert np.linalg.norm(x - prob.x_dagger) <= 1e-12
    assert_allclose(x, prob.x_dagger, atol=1e-12)


def test_divergence_raises_with_iteration_index():
    prob = ring_problem(identity_map(4), np.ones(4), Box(-np.inf, np.inf, 4))  # unconstrained
    config = SolverConfig(max_iters=500, step_size=10.0, seed=0)
    with pytest.raises(DivergenceError) as info:
        run(prob, config)
    assert info.value.iteration > 0


def test_run_draws_one_action_per_step_in_stream_order():
    prob = small_problem(noise="gaussian", sigma=0.05, seed=6)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 2)
    trace = run(prob, SolverConfig(max_iters=30, seed=7, record_every=1), subset=subset)
    rng = np.random.default_rng(7)
    expected = [sample_action(subset, rng)[1] for _ in range(30)]
    assert trace.action_indices[0] == -1
    assert list(trace.action_indices[1:]) == expected


def test_ensemble_divergence_names_the_first_row_to_diverge():
    # every step scales the coordinate the drawn shift moves onto the first
    # axis by -3, so each replicate blows up at an iteration set by its draws
    prob = diverging_problem()
    subset = symmetric_subset(polar_theta_shift(1, 4, 1), 1)
    config = SolverConfig(max_iters=500, step_size=1.0, seed=2)
    alone = [divergence_iteration(prob, 1.0, subset, rng, config.max_iters)
             for rng in replicate_rngs(config.seed, 6)]
    assert None not in alone and min(alone) < max(alone)
    with pytest.raises(DivergenceError) as info:
        run_ensemble(prob, config, subset, replicates=6)
    assert info.value.iteration == min(alone)


def test_mixed_stack_divergence_names_the_first_row_to_diverge():
    # the plain row scales the first coordinate by -3 every step; a group
    # row does so only when its draw moves that coordinate back, so it
    # blows up later
    prob = diverging_problem()
    subset = symmetric_subset(polar_theta_shift(1, 4, 1), 1)
    config = SolverConfig(max_iters=500, step_size=1.0, seed=2)
    alone = [divergence_iteration(prob, 1.0, None, None, config.max_iters)]
    alone += [divergence_iteration(prob, 1.0, subset, rng, config.max_iters)
              for rng in replicate_rngs(config.seed, 4)]
    assert None not in alone and alone[0] < min(alone[1:])
    with pytest.raises(DivergenceError) as info:
        solve(prob, config, subset, 4)
    assert info.value.iteration == alone[0]


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
    # every replicate ran with the explicit step 1/L
    explicit = SolverConfig(max_iters=15, seed=8, step_size=1.0 / spectral_norm(prob.A))
    _, _, explicit_traces = run_ensemble(prob, explicit, subset, replicates=4)
    for trace, alone in zip(traces, explicit_traces, strict=True):
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
    # a plain chain draws nothing: the ensemble is its one chain, and the
    # mean is that chain's rmsd, bit for bit
    assert len(traces) == 1
    assert np.array_equal(iterations, alone.iterations)
    assert mean.tobytes() == alone.rmsd.tobytes()
    assert traces[0].rmsd.tobytes() == alone.rmsd.tobytes()


def test_plain_run_takes_each_objective_from_the_next_steps_residual():
    prob = small_problem(noise="gaussian", sigma=0.1, seed=6)
    counted, calls = counted_problem(prob)
    n, eta = 12, 0.02
    trace = run(counted, SolverConfig(max_iters=n, step_size=eta))
    # one forward per step, plus one for the last iterate
    assert calls.count("forward") == n + 1 and calls.count("adjoint") == n
    x = np.zeros(prob.dimension)
    for k in range(n + 1):
        if k:
            x = pgd_step(x, prob.A, prob.b, prob.K, eta)
        r = prob.A.forward(x) - prob.b
        assert trace.objective[k] == 0.5 * (r @ r)
    assert np.array_equal(trace.final_x, x)


def test_mixed_stack_objective_is_each_rows_own_objective():
    # every row's objective is 0.5 * |A x_k - b|^2 of its own iterate, not of
    # the rotated residual its group step computed
    prob = small_problem(noise="gaussian", sigma=0.1, seed=6)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 2)
    n, eta = 12, 0.02
    config = SolverConfig(max_iters=n, step_size=eta, seed=4)
    plain, *groups = solve(prob, config, subset, 3)
    for trace in (plain, *groups):
        x = np.zeros(prob.dimension)
        for k in range(n + 1):
            if k:
                action = trace.action_indices[k]
                x = (pgd_step(x, prob.A, prob.b, prob.K, eta) if action < 0 else
                     group_pgd_step(x, prob.A, prob.b, prob.K, eta, subset.actions[action]))
            r = prob.A.forward(x) - prob.b
            assert trace.objective[k] == 0.5 * (r @ r)
        assert np.array_equal(trace.final_x, x)
    assert (plain.action_indices == -1).all()
    assert all((trace.action_indices[1:] >= 0).all() for trace in groups)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dense=st.booleans(), n_r=st.integers(1, 5), n_theta=st.integers(1, 12),
       angles=st.lists(st.integers(0, 11), min_size=1, max_size=5), rays=st.integers(1, 4),
       reach=st.integers(0, 2), batch=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_plain_step_is_the_identity_step(dense, n_r, n_theta, angles, rays, reach, batch,
                                         seed):
    rng = np.random.default_rng(seed)
    if dense:  # rows and cols from the polar shape's sizes: wide, tall or square
        A = from_dense(rng.standard_normal((len(angles) * rays, n_r * n_theta)))
    else:
        A = angle_subsampled_operator(n_r, n_theta, angles, rays, seed,
                                      offsets=range(-reach, reach + 1))
    d = A.cols
    b = rng.standard_normal(A.rows)
    K = Box(0.0, 1.0, d)
    X = rng.uniform(-0.5, 1.5, size=(batch, d))
    # the stack through the operator's window, as a plain row steps it, and
    # through the identity's table row; X lies outside K, so each stepped
    # stack is projected whole
    stacks = []
    for cells in (A.window, window_table(A, [identity_action(d)])[0]):
        stacked = X.copy()
        solver._step(stacked, A, b, 0.3, cells + d * np.arange(batch)[:, None],
                     *solver._bounds(K, batch))
        stacks.append(K.project(stacked))
    for x, plain, identity in zip(X, *stacks, strict=True):
        assert plain.tobytes() == identity.tobytes()
        assert plain.tobytes() == pgd_step(x, A, b, K, 0.3).tobytes()


def test_mixed_stack_makes_one_forward_and_one_adjoint_per_step():
    # the group rows' objectives are gathered with the step's own forward:
    # a plain run beside a group run costs what the plain run costs alone
    # (two separate runs make 3n + 2 forwards and 2n adjoints)
    prob, calls = counted_problem(small_problem(noise="gaussian", sigma=0.1, seed=6))
    subset = symmetric_subset(prob.geometry.theta_shift(1), 2)
    n = 12
    config = SolverConfig(max_iters=n, step_size=0.02, seed=5)
    for replicates in (None, 3):
        calls.clear()
        solve(prob, config, subset, replicates)
        assert calls.count("forward") == n + 1 and calls.count("adjoint") == n
    # without objectives a step maps only the stack's own rows, and the last
    # iterate costs no forward
    shapes = []

    def forward(x):
        shapes.append(x.shape)
        return prob.A.forward(x)

    spied = replace(prob, A=LinearMap(rows=prob.A.rows, cols=prob.A.cols, forward=forward,
                                      adjoint=prob.A.adjoint))
    for replicates in (None, 3):
        calls.clear()
        shapes.clear()
        solve(spied, config, subset, replicates, objective=False)
        assert calls.count("forward") == n and calls.count("adjoint") == n
        assert shapes == [(1 + (replicates or 1), prob.dimension)] * n


@pytest.mark.parametrize("record_every, what", [(1, "records of 1 rows"),
                                                (10**15, "step table of 10")])
def test_absurd_budget_is_refused_before_allocating(record_every, what):
    # 10**15 steps: the records (recording every step) or the step table are
    # refused by the size rule, not by numpy's "Unable to allocate" error
    config = SolverConfig(max_iters=10**15, record_every=record_every)
    with pytest.raises(SizeCapError, match=f"the solve's {what}"):
        run(small_problem(), config)


def test_absurd_replicate_count_is_refused_before_spawning_streams(monkeypatch):
    # 10**12 replicates: refused by the size rule before a stream is spawned
    def refuse(*args, **kwargs):
        raise AssertionError("replicate_rngs called")

    monkeypatch.setattr(solver, "replicate_rngs", refuse)
    prob = small_problem()
    subset = symmetric_subset(prob.geometry.theta_shift(1), 1)
    with pytest.raises(SizeCapError, match="the solve's"):
        run_ensemble(prob, SolverConfig(max_iters=10), subset, replicates=10**12)


def test_absurd_plain_ensemble_runs_its_one_chain():
    # 10**12 plain replicates are one chain: no copies to refuse or stack
    prob, config = small_problem(), SolverConfig(max_iters=10)
    iterations, mean, traces = run_ensemble(prob, config, None, replicates=10**12)
    alone = run(prob, config)
    assert len(traces) == 1
    assert np.array_equal(iterations, alone.iterations)
    assert mean.tobytes() == alone.rmsd.tobytes()
    for name in ("rmsd", "objective", "action_indices", "final_x"):
        assert getattr(traces[0], name).tobytes() == getattr(alone, name).tobytes(), name
    with pytest.raises(ValueError, match="replicates must be at least 1"):
        run_ensemble(prob, config, None, replicates=0)


def test_solve_holds_at_most_dense_cap_chains(monkeypatch):
    # 2 cells, a 3-cell window, one action, two steps recorded once: every
    # table of 17 chains fits a cap of 16**2 entries, the 17th chain does not
    prob = build_problem(n_r=1, n_theta=2, angle_fraction=0.5, rays_per_angle=2)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 0)
    config = SolverConfig(max_iters=2, step_size=0.1, record_every=2)
    monkeypatch.setattr(linop, "DENSE_CAP", 16)
    assert len(run_ensemble(prob, config, subset, 16)[2]) == 16
    with pytest.raises(SizeCapError, match="the solve's 17 chains"):
        run_ensemble(prob, config, subset, 17)


@pytest.mark.parametrize("n_theta, radius, cap, what", [
    # 4 rows x 5 actions x 48 window cells = 960 > 30**2, the stack 4 x 48 fits
    (12, 2, 30, "window table of 4 rows x 5 actions x 48 cells"),
    # 2 rows x 64 cells = 128 > 11**2, the identity's window table 2 x 1 x 48 fits
    (16, 0, 11, "stack of 2 rows x 64 cells"),
], ids=["window_table", "stack"])
def test_solve_refuses_its_stack_and_window_table(monkeypatch, n_theta, radius, cap, what):
    # records (rows x 6) and step table (5 x gathered rows) fit the cap
    prob = build_problem(n_r=4, n_theta=n_theta, angle_fraction=4 / n_theta,
                         rays_per_angle=2)
    subset = symmetric_subset(prob.geometry.theta_shift(1), radius)
    monkeypatch.setattr(linop, "DENSE_CAP", cap)
    with pytest.raises(SizeCapError, match=f"the solve's {what}"):
        solve(prob, SolverConfig(max_iters=5, step_size=0.1), subset,
                       3 if radius else 1)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(dense=st.booleans(), n_r=st.integers(1, 4), n_theta=st.integers(5, 10),
       angles=st.lists(st.integers(0, 9), min_size=1, max_size=3), rays=st.integers(1, 4),
       radius=st.integers(0, 2), replicates=st.integers(1, 4), record_every=st.integers(1, 3),
       budget=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
def test_mixed_stack_rows_are_their_own_runs(dense, n_r, n_theta, angles, rays, radius,
                                             replicates, record_every, budget, seed):
    rng = np.random.default_rng(seed)
    angles = sorted({a % n_theta for a in angles})
    d = n_r * n_theta
    if dense:
        A = from_dense(rng.standard_normal((len(angles) * rays, d)))
    else:
        A = angle_subsampled_operator(n_r, n_theta, angles, rays, seed)
    geometry = Geometry(n_r=n_r, n_theta=n_theta, angles=tuple(angles), rays_per_angle=rays,
                        offsets=(0,))
    prob = ProblemInstance(x_dagger=rng.uniform(0.0, 1.0, d), A=A,
                           b=rng.standard_normal(A.rows), w=np.zeros(A.rows),
                           K=Box(0.0, 1.0, d), geometry=geometry)
    subset = symmetric_subset(polar_theta_shift(n_r, n_theta, 1), radius)
    config = SolverConfig(max_iters=budget, seed=seed % 1000, record_every=record_every)
    plain = run(prob, config)
    pairs = []
    mixed_plain, mixed_group = solve(prob, config, subset)
    pairs += [(mixed_plain, plain), (mixed_group, run(prob, config, subset=subset))]
    mixed_plain, *mixed_groups = solve(prob, config, subset, replicates)
    pairs.append((mixed_plain, plain))
    pairs += zip(mixed_groups, run_ensemble(prob, config, subset, replicates)[2], strict=True)
    for mixed, alone in pairs:
        for name in ("iterations", "rmsd", "objective", "action_indices", "final_x"):
            a, b = getattr(mixed, name), getattr(alone, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    # without objectives every other field keeps its bits
    bare_plain, *bare_groups = solve(prob, config, subset, replicates,
                                             objective=False)
    for bare, mixed in zip((bare_plain, *bare_groups), (mixed_plain, *mixed_groups),
                           strict=True):
        assert np.isnan(bare.objective).all() and len(bare.objective) == len(mixed.objective)
        for name in ("iterations", "rmsd", "rmsd_normalized", "action_indices", "final_x"):
            a, b = getattr(bare, name), getattr(mixed, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_operator_without_window_gives_the_same_traces():
    # the operator rebuilt from its forward and adjoint alone, as a metering
    # wrapper builds it, reads every cell through those two maps and must
    # keep every bit
    prob = small_problem(noise="gaussian", sigma=0.1, seed=2)
    A = prob.A
    bare = replace(prob, A=LinearMap(rows=A.rows, cols=A.cols, forward=A.forward,
                                     adjoint=A.adjoint, tag=A.tag))
    assert not np.array_equal(A.window, np.arange(A.cols))
    assert np.array_equal(bare.A.window, np.arange(A.cols))
    assert bare.A.window_forward is A.forward and bare.A.window_adjoint is A.adjoint
    subset = symmetric_subset(prob.geometry.theta_shift(1), 2)
    config = SolverConfig(max_iters=30, seed=5, record_every=4)

    def traces(p):
        return [run(p, config), run(p, config, subset=subset),
                *run_ensemble(p, config, None, 2)[2], *run_ensemble(p, config, subset, 3)[2]]

    fields = ("iterations", "rmsd", "rmsd_normalized", "objective", "action_indices",
              "final_x")
    for windowed, permuted in zip(traces(prob), traces(bare), strict=True):
        for name in fields:
            a, b = getattr(windowed, name), getattr(permuted, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    # single steps and every certificate constant take the same route too
    x = np.random.default_rng(8).uniform(-0.5, 1.5, size=prob.dimension)
    steps = [[solver_step(x, op, prob.b, prob.K, 0.05, cells)
              for cells in (op.window, *window_table(op, subset))] for op in (A, bare.A)]
    for a, b in zip(*steps, strict=True):
        assert a.tobytes() == b.tobytes()
    assert certify(prob, subset) == certify(bare, subset)
    # a subspace cone's probes and the eps_* terms read window_table rows,
    # which for the rebuilt map are the permutations themselves
    basis = np.linalg.qr(np.random.default_rng(9).standard_normal((prob.dimension, 5)))[0]
    cone = DescentCone(anchor=prob.x_dagger, kind="subspace", basis=basis)
    report = certify(prob, subset, cone)
    assert report == certify(bare, subset, cone) and report.mu_Gstar > report.mu_C > 0
    for term, v in ((compute_eps_gstar, x), (compute_eps_w, prob.w)):
        got = [np.float64(term(op, subset, v, cone)).tobytes() for op in (A, bare.A)]
        assert got[0] == got[1] and term(A, subset, v, cone) > 0


def trace_of(iterations, n_rmsd):
    n = len(iterations)
    return IterateTrace(iterations=np.asarray(iterations), rmsd=np.zeros(n_rmsd),
                        objective=np.zeros(n), action_indices=np.zeros(n), final_x=np.zeros(2))


SOLVER_REFUSALS = {
    "trace_length": (lambda p: trace_of([0, 1, 2], 2),
                     ValueError, "trace field rmsd has inconsistent length"),
    "trace_order": (lambda p: trace_of([0, 2, 1], 3),
                    ValueError, "iteration indices must be strictly increasing"),
    "iterate_shape": (lambda p: run(replace(p, x_dagger=np.zeros(p.dimension + 1)),
                                    SolverConfig(max_iters=1, step_size=0.1)),
                      DimensionMismatchError, "iterate has shape (33,), operator expects (32,)"),
    "observation_shape": (lambda p: run(replace(p, b=p.b[1:]),
                                        SolverConfig(max_iters=1, step_size=0.1)),
                          DimensionMismatchError,
                          "observation has shape (15,), operator produces (16,)"),
    "subset_dimension": (lambda p: run(p, SolverConfig(max_iters=2),
                                       symmetric_subset(polar_theta_shift(1, 6, 1), 1)),
                         DimensionMismatchError,
                         "subset dimension 6 does not match problem dimension 32"),
}


@pytest.mark.parametrize("case", SOLVER_REFUSALS)
def test_traces_and_steps_refuse_what_does_not_line_up(case):
    build, error, message = SOLVER_REFUSALS[case]
    with pytest.raises(error, match=re.escape(message)):
        build(small_problem())


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=-1)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=1, record_every=0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=1, step_size=0.0)


@pytest.mark.parametrize("field, kwargs", [
    ("max_iters", {"max_iters": 1.5}),
    ("max_iters", {"max_iters": 2.0}),
    ("record_every", {"max_iters": 10, "record_every": 2.5}),
    ("max_iters", {"max_iters": True}),
    ("seed", {"max_iters": 3, "seed": True}),
    ("record_every", {"max_iters": 3, "record_every": True}),
])
def test_config_refuses_a_non_integral_count(field, kwargs):
    # a float count would fail deep in numpy once a run sizes its records;
    # a bool is an int, but no count
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("step", [True, "0.5", None], ids=["bool", "text", "none"])
def test_config_refuses_a_step_that_is_not_a_real_number(step):
    # True stepped at 1.0, and text ran until the report formatted the step
    with pytest.raises(TypeError, match="step_size must be 'auto' or a real number"):
        SolverConfig(max_iters=3, step_size=step)


@pytest.mark.parametrize("step", [1, np.int64(1), np.float32(0.5), 0.5])
def test_config_takes_any_real_step(step):
    prob = small_problem()
    assert run(prob, SolverConfig(max_iters=2, step_size=step), None).rmsd[-1] > 0


@pytest.mark.parametrize("replicates", [2.5, 2.0, True], ids=["fraction", "float", "bool"])
def test_solve_refuses_a_replicate_count_that_is_not_an_integer(replicates):
    # 2.5 failed inside SeedSequence.spawn, and True ran one replicate
    prob = small_problem()
    subset = symmetric_subset(prob.geometry.theta_shift(1), 1)
    config = SolverConfig(max_iters=2, seed=0)
    for route in (solver.check_solve, run_ensemble, solve):
        with pytest.raises(TypeError, match="replicates must be an integer"):
            route(prob, config, subset, replicates)


@pytest.mark.parametrize("seed, error, message", [
    (-1, ValueError, "seed must be nonnegative"),
    (2.5, TypeError, "seed must be an integer"),
    (3.0, TypeError, "seed must be an integer"),
])
def test_config_refuses_a_negative_or_non_integral_seed(seed, error, message):
    # either would fail deep in numpy once a run seeds its streams
    with pytest.raises(error, match=message):
        SolverConfig(max_iters=3, seed=seed)


@pytest.mark.parametrize("stride", [10**17, 2**62, 10**20])
def test_a_stride_far_past_the_budget_records_the_start_and_the_budget(stride):
    # numpy sized the record range in floating point, so a stride this far
    # past the budget gave one recorded iterate where the solve counts two
    prob = small_problem(noise="gaussian", sigma=0.05, seed=4)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 2)
    budget = 5

    def traces(record_every):
        config = SolverConfig(max_iters=budget, seed=3, record_every=record_every)
        plain, *group = solve(prob, config, subset, 2)
        return [run(prob, config), run(prob, config, subset),
                *run_ensemble(prob, config, subset, 2)[2], plain, *group]

    for trace, reference in zip(traces(stride), traces(budget), strict=True):
        assert trace.iterations.tolist() == [0, budget]
        for field in ("iterations", "rmsd", "objective", "action_indices", "final_x"):
            got, expected = getattr(trace, field), getattr(reference, field)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("step", [float("inf"), float("nan"), -1.0])
def test_config_refuses_a_non_finite_or_negative_step(step):
    with pytest.raises(ValueError, match="positive and finite"):
        SolverConfig(max_iters=3, step_size=step)


@pytest.mark.parametrize("eta", [np.inf, np.nan])
def test_steps_refuse_a_non_finite_step(eta):
    # an infinite step from a fixed point would write NaN cells; the solve
    # asks its step's rule after resolving the step, before any stream
    prob = build_problem(n_r=4, n_theta=8, rays_per_angle=4)
    with pytest.raises(ValueError, match="positive and finite"):
        solver._check_step_args((prob.dimension,), prob.A, prob.b, prob.K, eta)


def test_noiseless_symmetric_run_meets_predicted_iteration_count():
    import math
    from grouppgd.bench import full_coverage_radius

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


def step_alone(prob, eta, subset, draws, budget):
    """Iterates 0..budget of one chain from zeros stepped by the oracle
    ``pgd_step`` (no subset) or ``group_pgd_step`` through ``draws``."""
    xs = [np.zeros(prob.dimension)]
    for k in range(budget):
        x = xs[-1]
        xs.append(pgd_step(x, prob.A, prob.b, prob.K, eta) if subset is None else
                  group_pgd_step(x, prob.A, prob.b, prob.K, eta, subset.actions[draws[k]]))
    return xs


@pytest.mark.parametrize("per_cell", [False, True], ids=["uniform", "per_cell"])
def test_box_excluding_the_start_steps_as_single_steps(per_cell):
    # zeros lie outside the box, and columns 3, 7 and 8 are read by no
    # window, so only the first step's projection of the whole stack puts
    # those cells inside it; angles 0 and 1 read columns 0 and 1 twice, so
    # the steps read the folded window
    rng = np.random.default_rng(1)
    geometry = Geometry(n_r=4, n_theta=10, angles=(0, 1, 5), rays_per_angle=4,
                        offsets=(-1, 0, 1))
    A = angle_subsampled_operator(4, 10, geometry.angles, 4, seed=2)
    d = A.cols
    x_dagger = rng.uniform(0.3, 0.7, d)
    lo = rng.uniform(0.2, 0.3, d) if per_cell else 0.25
    prob = ProblemInstance(x_dagger=x_dagger, A=A, b=A.forward(x_dagger) + 0.01,
                           w=np.full(A.rows, 0.01), K=Box(lo, 0.75, d), geometry=geometry)
    assert len(A.window) < len(kernels_window(prob)) and len(A.window) < d
    subset = symmetric_subset(geometry.theta_shift(1), 2)
    eta, replicates, budget = 0.05, 3, 12
    config = SolverConfig(max_iters=budget, step_size=eta, seed=3)
    plain, *groups = solve(prob, config, subset, replicates)
    chains = [(plain, step_alone(prob, eta, None, None, budget))]
    for trace, stream in zip(groups, replicate_rngs(config.seed, replicates), strict=True):
        draws = stream.integers(len(subset), size=budget)
        chains.append((trace, step_alone(prob, eta, subset, draws, budget)))
    for trace, xs in chains:
        assert trace.final_x.tobytes() == xs[-1].tobytes()
        rmsd = np.array([np.linalg.norm(x - x_dagger) for x in xs])
        residuals = [A.forward(x) - prob.b for x in xs]
        objective = np.array([0.5 * (r @ r) for r in residuals])
        assert trace.rmsd.tobytes() == rmsd.tobytes()
        assert trace.objective.tobytes() == objective.tobytes()
        assert not prob.K.contains(xs[0]) and all(prob.K.contains(x) for x in xs[1:])


@pytest.mark.parametrize("stride", [1, 2, 3, 4])
def test_strided_records_hold_the_single_steps_iterates(stride):
    # at every stride the recorded iterates are 0, s, 2s, ... and the
    # budget, and each holds the bits of its chain stepped alone through
    # the draws of its stream; the budgets are 0, one below the stride, a
    # multiple of it and one past a multiple
    prob = small_problem(noise="gaussian", sigma=0.05, seed=4)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 2)
    eta, replicates = 1.0 / spectral_norm(prob.A), 3  # the "auto" step
    for budget in sorted({0, stride - 1, 2 * stride, 2 * stride + 1}):
        config = SolverConfig(max_iters=budget, seed=11, record_every=stride)
        plain, *groups = solve(prob, config, subset, replicates)
        expected = [*range(0, budget, stride), budget]
        assert len(expected) == 1 + -(-budget // stride)
        chains = [(plain, None)]
        for trace, stream in zip(groups, replicate_rngs(config.seed, replicates), strict=True):
            chains.append((trace, stream.integers(len(subset), size=budget)))
        for trace, draws in chains:
            assert trace.iterations.tolist() == expected
            actions = [-1] + [-1 if draws is None else int(draws[k - 1]) for k in expected[1:]]
            assert trace.action_indices.tolist() == actions
            xs = step_alone(prob, eta, None if draws is None else subset, draws, budget)
            picked = [xs[k] for k in expected]
            rmsd = np.array([np.linalg.norm(x - prob.x_dagger) for x in picked])
            residuals = [prob.A.forward(x) - prob.b for x in picked]
            objective = np.array([0.5 * (r @ r) for r in residuals])
            assert trace.rmsd.tobytes() == rmsd.tobytes()
            assert trace.objective.tobytes() == objective.tobytes()
            assert trace.final_x.tobytes() == xs[-1].tobytes()


def kernels_window(prob):
    """The operator's window as the polar kernels read it, repeats included."""
    geo = prob.geometry
    cols = (np.asarray(geo.angles)[:, None] + np.asarray(geo.offsets)) % geo.n_theta
    return kernels.window_index(cols, geo.n_r, geo.n_theta).ravel()


@pytest.mark.parametrize("call", ["run", "run_group", "run_ensemble", "run_with_plain",
                                  "pgd_step", "group_pgd_step"])
def test_a_feasible_set_that_is_not_a_box_is_refused_first(monkeypatch, call):
    prob = small_problem()
    d = prob.dimension
    prob = replace(prob, K=Subspace(np.eye(d)))
    subset = symmetric_subset(prob.geometry.theta_shift(1), 2)

    def refuse(*args, **kwargs):
        raise AssertionError("called before the feasible set was checked")

    monkeypatch.setattr(solver, "window_table", refuse)
    monkeypatch.setattr(solver, "replicate_rngs", refuse)
    config = SolverConfig(max_iters=5, step_size=0.1)
    step = SolverConfig(max_iters=1, step_size=0.1)  # a single step is a one-step run
    calls = {
        "run": lambda: run(prob, config),
        "run_group": lambda: run(prob, config, subset),
        "run_ensemble": lambda: run_ensemble(prob, config, subset, 3),
        "run_with_plain": lambda: solve(prob, config, subset, 3),
        "pgd_step": lambda: run(prob, step),
        "group_pgd_step": lambda: run(prob, step, subset),
    }
    with pytest.raises(TypeError, match="Subspace"):
        calls[call]()


def four_cells():
    """A problem of 4 cells on one ring, and its subset of 3 rotations."""
    prob = ring_problem(from_dense(np.diag([1.0, 0.5, 0.25, 0.0])), np.ones(4), Box(0.0, 1.0, 4),
                        x_dagger=0.5)
    return prob, symmetric_subset(polar_theta_shift(1, 4, 1), 1)


def growth_per_step(objective, stride):
    """Bytes a step by which the tracemalloc peak of :func:`solve` on
    one plain and one group chain of 4 cells, recorded every ``stride``
    steps (once for None), grows from 2,000 to 8,000 steps."""
    import tracemalloc

    prob, subset = four_cells()

    def peak(budget):
        config = SolverConfig(max_iters=budget, step_size=0.5, record_every=stride or budget)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve(prob, config, subset, 1, objective=objective)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    peak(2_000)  # the first solve also allocates what later ones reuse
    return (peak(8_000) - peak(2_000)) / 6_000


@pytest.mark.parametrize("objective, counted", [(True, 3), (False, 2)])
def test_solve_holds_one_step_table(objective, counted):
    # recorded once: the step table of `counted` entries a step is the only
    # array the size rule counts that grows with the budget, and one row's
    # draws (8 B a step) are made before they are added into it.  The peak
    # is measured at two budgets, so what does not grow with the budget
    # cancels.  Before the one table, it grew by 56 B and 32 B a step.
    assert growth_per_step(objective, None) <= 8 * counted + 8


@pytest.mark.parametrize("objective, counted", [(True, 3), (False, 2)])
def test_a_solve_recorded_at_every_step_holds_its_records_once(objective, counted):
    # at record_every = 1 the records grow with the budget too: two rows of
    # rmsd, objectives and actions (48 B a step) and the recorded iterations
    # (8 B), beside the step table and one row of draws.  Before, the loop
    # kept the recorded iterations as a list (40 B a step), the actions'
    # gather two index-sized temporaries (16 B), and the stack's one part
    # was copied once more on its way out: 136 and 128 B a step
    assert growth_per_step(objective, 1) <= 8 * counted + 48 + 8 + 8


@needs_fork
@pytest.mark.parametrize("objective", [True, False])
def test_a_split_solve_holds_its_records_once(forks, monkeypatch, objective):
    # the solve above in two parts: the child steps the plain row, and this
    # process holds its own row's trace and the child's as loaded (24 B and
    # the recorded iterations each: 64 B a step), beside at most one pickle
    # frame (64 KB) being read, which at these budgets adds 10.6 B a step;
    # measured 74.6.  Before, the child's pickled bytes were read whole and
    # the parts' records were concatenated beside them: 128 B a step
    split_on(monkeypatch, 2)
    assert growth_per_step(objective, 1) <= 80
    assert len(forks) == 3


@needs_fork
def test_every_trace_of_a_split_solve_holds_one_iterations_array(forks, monkeypatch):
    # the child steps the plain row and the first group row, whose traces
    # arrived with their own copy of the recorded iterations: 2 arrays
    # across the 5 traces
    prob, subset = four_cells()
    split_on(monkeypatch, 2)
    traces = solve(prob, SolverConfig(max_iters=40, step_size=0.5), subset, 4)
    assert len(forks) == 1
    assert len({id(trace.iterations) for trace in traces}) == 1


@pytest.mark.parametrize("route", ["run", "run_with_plain"])
def test_an_auto_step_refuses_an_operator_whose_norm_is_zero(route):
    # 1 / L raised ZeroDivisionError
    prob = build_problem(n_r=2, n_theta=4, rays_per_angle=2)
    zero = replace(prob, A=from_dense(np.zeros((prob.A.rows, prob.A.cols))),
                   b=np.zeros(prob.A.rows), w=np.zeros(prob.A.rows))
    config = SolverConfig(max_iters=3)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 1)
    with pytest.raises(ValueError, match=r"positive L, got L=0\.0"):
        run(zero, config) if route == "run" else solve(zero, config, subset)


@pytest.mark.parametrize("route", ["run", "run_ensemble", "run_with_plain"])
def test_the_solve_refuses_before_the_auto_step_probes(monkeypatch, route):
    # the size rule and the subset's dimension are asked before "auto"
    # resolves to 1 / L: an absurd budget was refused only after the probe
    def refuse(A):
        raise AssertionError("spectral_norm called")

    monkeypatch.setattr(solver, "spectral_norm", refuse)
    prob = small_problem()
    subset = symmetric_subset(prob.geometry.theta_shift(1), 1)
    other = symmetric_subset(polar_theta_shift(1, prob.dimension + 1, 1), 1)
    calls = {
        "run": lambda config, sub: run(prob, config, sub),
        "run_ensemble": lambda config, sub: run_ensemble(prob, config, sub, 3),
        "run_with_plain": lambda config, sub: solve(prob, config, sub, 3),
    }
    with pytest.raises(SizeCapError, match="the solve's"):
        calls[route](SolverConfig(max_iters=10**15), subset)
    with pytest.raises(DimensionMismatchError, match="subset dimension"):
        calls[route](SolverConfig(max_iters=3), other)


def test_the_size_rule_takes_the_solves_own_arguments():
    # one signature: names, defaults and kinds
    import inspect

    assert (inspect.signature(solver.check_solve).parameters
            == inspect.signature(solve).parameters)


@pytest.mark.parametrize("route", ["check_solve", "solve"])
def test_a_solve_with_no_chain_is_refused_first(monkeypatch, route):
    # no subset and no plain row: check_solve counted (0, 0, 0, 1, 6) and
    # the solve failed in numpy's reshape.  It is refused before the size
    # rule, the spectrum or the window table is read
    def refuse(*args, **kwargs):
        raise AssertionError("called before the no-chain solve was refused")

    for name in ("_check_size", "spectral_norm", "window_table", "replicate_rngs"):
        monkeypatch.setattr(solver, name, refuse)
    prob = small_problem()
    call = getattr(solver, route)
    for config in (SolverConfig(max_iters=5), SolverConfig(max_iters=10**15)):
        with pytest.raises(ValueError, match="steps no chain"):
            call(prob, config, None, 3, plain=False)


@pytest.mark.parametrize("stride", [1, 3, 10**20])
def test_the_size_rules_counts_are_the_solves_layout(stride):
    # check_solve's counts are what the solve holds and maps: one trace per
    # chain, the records of each, and the rows each forward maps (a step
    # from a recorded iterate gathers the step table's width, any other
    # step the chains, and the last iterate's objective the chains)
    base = small_problem(noise="gaussian", sigma=0.05, seed=4)
    mapped = []

    def forward(x):
        mapped.append(len(x))
        return base.A.forward(x)

    prob = replace(base, A=LinearMap(rows=base.A.rows, cols=base.A.cols, forward=forward,
                                     adjoint=base.A.adjoint))
    subset = symmetric_subset(prob.geometry.theta_shift(1), 1)
    budgets = sorted({0, 1, stride - 1, 2 * stride + 1})
    for budget, replicates, objective, plain, sub in itertools.product(
            budgets, (None, 1, 3), (True, False), (True, False), (subset, None)):
        if sub is None and not plain:
            continue  # no chain at all
        config = SolverConfig(max_iters=budget, step_size=0.1, seed=2, record_every=stride)
        if budget > 10**6:  # past the far stride: refused, before any solve
            with pytest.raises(SizeCapError, match="the solve's step table"):
                solver.check_solve(prob, config, sub, replicates, objective, plain=plain)
            continue
        rows, group, gathered, clamped, records = solver.check_solve(
            prob, config, sub, replicates, objective, plain=plain)
        n_group = 0 if sub is None else replicates or 1
        expected = [*range(0, budget, stride), budget]
        assert (rows, group) == (plain + n_group, n_group)
        assert gathered == rows + n_group * objective
        assert (clamped, records) == (min(stride, max(budget, 1)), len(expected))
        mapped.clear()
        traces = solve(prob, config, sub, replicates, objective, plain=plain)
        assert len(traces) == rows
        assert all(trace.iterations.tolist() == expected for trace in traces)
        starts = set(expected[:-1]) if objective else set()
        steps = [gathered if k in starts else rows for k in range(budget)]
        assert mapped == steps + [rows] * objective


def test_a_divergence_error_survives_pickling():
    # a forked part of a solve sends its divergence back pickled; pickle
    # rebuilt the error from its message, which read "iterate diverged at
    # iteration iterate diverged at iteration 7"
    import pickle

    error = pickle.loads(pickle.dumps(DivergenceError(7)))
    assert type(error) is DivergenceError and error.iteration == 7
    assert str(error) == "iterate diverged at iteration 7"


def open_fds():
    """The descriptors this process holds, or None where ``/proc`` does not list them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children the test's solves fork; after the test, no
    child of this process may be left, nor a descriptor it did not hold
    before."""
    real, pids, fds = os.fork, [], open_fds()

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


def split_on(monkeypatch, cores):
    """Split every solve of two rows or more into ``cores`` parts at most."""
    monkeypatch.setattr(solver, "SPLIT_CELL_STEPS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def trace_bytes(traces):
    return [[(f.dtype.str, f.shape, f.tobytes()) for f in (
        t.iterations, t.rmsd, t.objective, t.action_indices, t.final_x)] for t in traces]


@needs_fork
@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("call, rows", [("run", 1), ("run_plain", 1), ("run_ensemble", 4),
                                        ("run_ensemble_plain", 1), ("run_with_plain", 5),
                                        ("run_with_plain_one", 2), ("run_with_plain_bare", 5)])
def test_a_split_solve_has_the_in_process_bits(forks, monkeypatch, cores, call, rows):
    # every row is its own chain, so a part stepped in a forked child keeps
    # its bits; a solve of one row never forks
    prob = small_problem(noise="gaussian", sigma=0.05, seed=4)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 2)
    config = SolverConfig(max_iters=40, step_size=0.05, seed=3, record_every=3)
    route = {
        "run": lambda: [run(prob, config, subset)],
        "run_plain": lambda: [run(prob, config)],
        "run_ensemble": lambda: run_ensemble(prob, config, subset, 4)[2],
        "run_ensemble_plain": lambda: run_ensemble(prob, config, None, 4)[2],
        "run_with_plain": lambda: solve(prob, config, subset, 4),
        "run_with_plain_one": lambda: solve(prob, config, subset),
        "run_with_plain_bare": lambda: solve(prob, config, subset, 4, objective=False),
    }[call]
    alone = route()
    assert not forks
    split_on(monkeypatch, cores)
    split = route()
    assert len(forks) == min(rows, cores) - 1
    assert len(split) == rows and trace_bytes(split) == trace_bytes(alone)


def test_a_small_solve_forks_nothing(forks):
    # below SPLIT_CELL_STEPS the stack is stepped in this process
    prob = small_problem()
    subset = symmetric_subset(prob.geometry.theta_shift(1), 2)
    solve(prob, SolverConfig(max_iters=40, step_size=0.05), subset, 4)
    assert not forks


@needs_fork
@pytest.mark.parametrize("part", ["parent", "child"])
def test_a_split_solve_names_the_earliest_divergence_in_any_part(forks, monkeypatch, part):
    # every replicate of this instance diverges, each at an iteration set by
    # its draws (see test_ensemble_divergence_names_the_first_row_to_diverge);
    # the first to do so sits in the child's part (rows 0-2) or this
    # process's (rows 3-5), and the other part diverges later
    prob = diverging_problem()
    subset = symmetric_subset(polar_theta_shift(1, 4, 1), 1)
    for seed in range(100):
        config = SolverConfig(max_iters=500, step_size=1.0, seed=seed)
        alone = [divergence_iteration(prob, 1.0, subset, rng, config.max_iters)
                 for rng in replicate_rngs(seed, 6)]
        first, second = min(alone[:3]), min(alone[3:])
        if (first < second) == (part == "child"):
            break
    split_on(monkeypatch, 2)
    with pytest.raises(DivergenceError) as info:
        run_ensemble(prob, config, subset, replicates=6)
    assert info.value.iteration == min(first, second)
    assert len(forks) == 1


@needs_fork
@pytest.mark.parametrize("failure, raised, message", [
    ("child_raises", ValueError, "the operator failed in a child"),
    ("child_exits", RuntimeError, "a forked part of the solve exited with status 3"),
    ("parent_raises", ValueError, "the operator failed in the parent"),
    ("parent_interrupted", KeyboardInterrupt, None),
])
def test_a_failure_in_any_part_is_raised_and_leaves_no_child(forks, monkeypatch, failure,
                                                            raised, message):
    # a child sends back what it raises; one that exits without sending
    # raises RuntimeError.  An exception in this process's part is raised
    # once every child has been waited for, and an interrupt kills the
    # child, here asleep in its first step
    import time

    parent = os.getpid()
    base = small_problem()

    def window_forward(values):
        child = os.getpid() != parent
        if failure == "child_raises" and child:
            raise ValueError("the operator failed in a child")
        if failure == "child_exits" and child:
            os._exit(3)
        if failure == "parent_raises" and not child:
            raise ValueError("the operator failed in the parent")
        if failure == "parent_interrupted":
            if child:
                time.sleep(60)
            raise KeyboardInterrupt
        return base.A.window_forward(values)

    prob = replace(base, A=linop.from_window(base.A.rows, base.A.cols, base.A.window,
                                             window_forward, base.A.window_adjoint))
    subset = symmetric_subset(prob.geometry.theta_shift(1), 2)
    split_on(monkeypatch, 2)
    start = time.perf_counter()
    with pytest.raises(raised, match=message and re.escape(message)):
        solve(prob, SolverConfig(max_iters=40, step_size=0.05), subset, 4)
    assert len(forks) == 1 and time.perf_counter() - start < 30


@needs_fork
@pytest.mark.parametrize("cores, call, failing, error", [
    (2, "fork", 1, "EAGAIN"), (3, "fork", 2, "EAGAIN"), (2, "pipe", 1, "EMFILE")])
def test_a_part_that_cannot_be_forked_is_stepped_here(forks, monkeypatch, cores, call,
                                                      failing, error):
    # an OSError from os.pipe or os.fork (a process or descriptor limit)
    # left the solve and the pipe open; the parts no child takes are
    # stepped in this process, in row order, with the in-process bits
    import errno

    prob = small_problem(noise="gaussian", sigma=0.05, seed=4)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 2)
    config = SolverConfig(max_iters=40, step_size=0.05, seed=3, record_every=3)

    alone = solve(prob, config, subset, 4)
    split_on(monkeypatch, cores)
    real, calls = getattr(os, call), []

    def refuse(*args):
        calls.append(args)
        if len(calls) == failing:
            code = getattr(errno, error)
            raise OSError(code, os.strerror(code))
        return real(*args)

    monkeypatch.setattr(os, call, refuse)
    assert trace_bytes(solve(prob, config, subset, 4)) == trace_bytes(alone)
    assert len(calls) == failing and len(forks) == failing - 1


@needs_fork
@pytest.mark.parametrize("refused", [1, 2, None], ids=["first_fork", "second_fork", "no_fork"])
def test_this_process_steps_every_part_no_child_took_in_one_call(forks, monkeypatch, refused):
    # 5 rows on 3 cores are cut into rows 0, 1-2 and 3-4.  Each part but
    # the last is forked until a fork is refused; this process then steps
    # the rows of every part no child took in one _chains call, with the
    # in-process bits
    import errno

    prob = small_problem(noise="gaussian", sigma=0.05, seed=4)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 2)
    config = SolverConfig(max_iters=40, step_size=0.05, seed=3, record_every=3)

    alone = solve(prob, config, subset, 4)
    split_on(monkeypatch, 3)
    parent, real_chains, real_fork, real_rngs = (os.getpid(), solver._chains, os.fork,
                                                 solver.replicate_rngs)
    calls, fork_calls, made = [], [], []

    def chains(*args):
        if os.getpid() == parent:
            calls.append(args[3])  # the rows' streams
        return real_chains(*args)

    def fork():
        fork_calls.append(None)
        if len(fork_calls) == refused:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    def rngs(seed, replicates):
        made.append(real_rngs(seed, replicates))
        return made[-1]

    monkeypatch.setattr(solver, "_chains", chains)
    monkeypatch.setattr(solver, "replicate_rngs", rngs)
    monkeypatch.setattr(os, "fork", fork)
    split = solve(prob, config, subset, 4)
    assert len(forks) == (2 if refused is None else refused - 1)
    assert len(calls) == 1 and calls[0] == [None, *made[0]][[0, 1, 3][len(forks)]:]
    assert trace_bytes(split) == trace_bytes(alone)
