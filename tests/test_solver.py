"""Solver steps, runs, ensembles, and determinism."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from grouppgd import linop, solver
from grouppgd.bench import Geometry, ProblemInstance, angle_subsampled_operator, build_problem
from grouppgd.certificate import certify
from grouppgd.constraint import Box, Subspace
from grouppgd.linop import LinearMap, SizeCapError, from_dense, spectral_norm
from grouppgd.solver import (
    DivergenceError,
    SolverConfig,
    group_pgd_step,
    pgd_step,
    replicate_rngs,
    run,
    run_ensemble,
    run_with_plain,
)
from grouppgd.symmetry import (cyclic_shift_action, identity_action, polar_theta_shift,
                               sample_action, symmetric_subset)
from oracles import compose_with_action, identity_map


def small_problem(noise="none", sigma=0.0, seed=0, **kw):
    return build_problem(n_r=4, n_theta=8, angle_fraction=0.5, rays_per_angle=4,
                         noise=noise, sigma=sigma, seed=seed, **kw)


def divergence_iteration(prob, eta, subset, rng, budget):
    """The iteration at which one chain from zeros, stepped alone by
    ``pgd_step`` (no subset) or by ``group_pgd_step`` through the actions
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
    eta = 1.0 / spectral_norm(prob.A)
    # the actions run draws, stepped from the ground truth
    draws = np.random.default_rng(config.seed).integers(len(subset), size=config.max_iters)
    assert np.array_equal(run(prob, config, subset=subset).action_indices[1:], draws)
    x = prob.x_dagger
    for s in draws:
        x = group_pgd_step(x, prob.A, prob.b, prob.K, eta, subset.actions[s])
        assert np.linalg.norm(x - prob.x_dagger) <= 1e-12
    assert_allclose(x, prob.x_dagger, atol=1e-12)


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
    d = 4
    geometry = Geometry(n_r=1, n_theta=d, angles=(0,), rays_per_angle=d, offsets=(0,))
    prob = ProblemInstance(x_dagger=np.zeros(d), A=from_dense(np.diag([2.0, 0.0, 0.0, 0.0])),
                           b=np.ones(d), w=np.ones(d), K=Subspace(np.eye(d)),
                           geometry=geometry)
    subset = symmetric_subset(cyclic_shift_action(d, 1), 1)
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
    d = 4
    geometry = Geometry(n_r=1, n_theta=d, angles=(0,), rays_per_angle=d, offsets=(0,))
    prob = ProblemInstance(x_dagger=np.zeros(d), A=from_dense(np.diag([2.0, 0.0, 0.0, 0.0])),
                           b=np.ones(d), w=np.ones(d), K=Subspace(np.eye(d)),
                           geometry=geometry)
    subset = symmetric_subset(cyclic_shift_action(d, 1), 1)
    config = SolverConfig(max_iters=500, step_size=1.0, seed=2)
    alone = [divergence_iteration(prob, 1.0, None, None, config.max_iters)]
    alone += [divergence_iteration(prob, 1.0, subset, rng, config.max_iters)
              for rng in replicate_rngs(config.seed, 4)]
    assert None not in alone and alone[0] < min(alone[1:])
    with pytest.raises(DivergenceError) as info:
        run_with_plain(prob, config, subset, 4)
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
    assert all(trace is traces[0] for trace in traces)
    # the mean of five separate runs, bit for bit: a plain chain draws
    # nothing from its stream
    separate = [run(prob, config) for _ in range(5)]
    assert np.array_equal(iterations, alone.iterations)
    assert np.array_equal(mean, np.mean(np.stack([t.rmsd for t in separate]), axis=0))


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
    plain, groups = run_with_plain(prob, config, subset, 3)
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
    identity = identity_action(d)
    # the stack through the operator's window, as a plain row steps it
    stacked = solver._step(X, A, b, K, 0.3, A.window + d * np.arange(batch)[:, None])[0]
    for x, row in zip(X, stacked, strict=True):
        plain = pgd_step(x, A, b, K, 0.3)
        assert plain.tobytes() == group_pgd_step(x, A, b, K, 0.3, identity).tobytes()
        assert plain.tobytes() == row.tobytes()


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
        run_with_plain(prob, config, subset, replicates)
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
        run_with_plain(spied, config, subset, replicates, objective=False)
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


def test_absurd_plain_ensemble_is_refused_before_stacking_its_copies():
    # one plain chain, but the mean stacks 10**12 copies of its trace:
    # refused by the size rule, not by a bare MemoryError
    with pytest.raises(SizeCapError, match="the solve's records of 1000000000000 rows"):
        run_ensemble(small_problem(), SolverConfig(max_iters=10), None, replicates=10**12)


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
    # 4 rows x 5 actions x 48 window cells = 960 > 30**2, the stack 4 x 32 fits
    (8, 2, 30, "window table of 4 rows x 5 actions x 48 cells"),
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
        run_with_plain(prob, SolverConfig(max_iters=5, step_size=0.1), subset,
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
    mixed_plain, (mixed_group,) = run_with_plain(prob, config, subset)
    pairs += [(mixed_plain, plain), (mixed_group, run(prob, config, subset=subset))]
    mixed_plain, mixed_groups = run_with_plain(prob, config, subset, replicates)
    pairs.append((mixed_plain, plain))
    pairs += zip(mixed_groups, run_ensemble(prob, config, subset, replicates)[2], strict=True)
    for mixed, alone in pairs:
        for name in ("iterations", "rmsd", "objective", "action_indices", "final_x"):
            a, b = getattr(mixed, name), getattr(alone, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    # without objectives every other field keeps its bits
    bare_plain, bare_groups = run_with_plain(prob, config, subset, replicates,
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
    steps = [pgd_step(x, A, prob.b, prob.K, 0.05), pgd_step(x, bare.A, prob.b, prob.K, 0.05)]
    for T in subset:
        steps += [group_pgd_step(x, A, prob.b, prob.K, 0.05, T),
                  group_pgd_step(x, bare.A, prob.b, prob.K, 0.05, T)]
    for a, b in zip(steps[::2], steps[1::2]):
        assert a.tobytes() == b.tobytes()
    assert certify(prob, subset) == certify(bare, subset)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=-1)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=1, record_every=0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=1, step_size=0.0)


@pytest.mark.parametrize("step", [float("inf"), float("nan"), -1.0])
def test_config_refuses_a_non_finite_or_negative_step(step):
    with pytest.raises(ValueError, match="positive and finite"):
        SolverConfig(max_iters=3, step_size=step)


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


