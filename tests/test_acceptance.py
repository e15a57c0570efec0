"""Acceptance suite: one test per criterion, pinned tolerances.

Each test ends by printing a PASS summary line; run with ``pytest -s`` to see
them live (``pytest -v`` shows one pass/fail line per criterion either way).
Failures surface as ordinary pytest assertion errors.
"""

import math
import os
import time

import numpy as np

from grouppgd import solver
from grouppgd.bench import (
    build_problem,
    evenly_spaced_angles,
    full_coverage_radius,
    textured_phantom,
)
from grouppgd.certificate import bound_limit, certify, verify_bound
from grouppgd.cli import main
from grouppgd.constraint import (
    Box,
    DescentCone,
    Subspace,
    project_cone,
    restricted_min_eig,
)
from grouppgd.linop import spectral_norm, window_table
from grouppgd.solver import SolverConfig, run, run_ensemble
from grouppgd.symmetry import identity_action, polar_theta_shift, symmetric_subset
from oracles import compose_with_action, from_dense, shifted_angles


def _pass(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def random_orthonormal(d, k, rng):
    Q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    return Q


def test_criterion_1_projection_identities():
    rng = np.random.default_rng(101)
    # shift identity on boxes: P_K(x+v) - x == P_{K-x}(v)
    K = Box(0.0, 1.0, 12)
    for _ in range(200):
        x = rng.standard_normal(12)
        v = rng.standard_normal(12)
        lhs = K.project(x + v) - x
        rhs = Box(K.lo - x, K.hi - x, 12).project(v)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
    # shift identity on subspaces via independent affine projection
    B = random_orthonormal(10, 3, rng)
    S = Subspace(B)
    for _ in range(200):
        x = rng.standard_normal(10)
        v = rng.standard_normal(10)
        lhs = S.project(x + v) - x
        rhs = B @ (B.T @ (v + x)) - x
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
    # sup identity: dense direction grids in low-dimensional subspace cones
    for d, k, n_grid in ((4, 1, 1000), (6, 2, 1000), (8, 3, 1000)):
        basis = random_orthonormal(d, k, rng)
        cone = DescentCone(anchor=np.zeros(d), kind="subspace", basis=basis)
        if k == 1:
            directions = np.vstack([basis.T, -basis.T])
        elif k == 2:
            angles = np.linspace(0.0, 2 * np.pi, n_grid, endpoint=False)
            directions = np.stack([np.cos(angles), np.sin(angles)], 1) @ basis.T
        else:
            idx = np.arange(n_grid, dtype=float) + 0.5
            phi = np.arccos(1 - 2 * idx / n_grid)
            golden = np.pi * (1 + np.sqrt(5.0)) * idx
            sphere = np.stack([np.cos(golden) * np.sin(phi),
                               np.sin(golden) * np.sin(phi), np.cos(phi)], 1)
            directions = sphere @ basis.T
        for _ in range(30):
            x = rng.standard_normal(d)
            p_norm = np.linalg.norm(project_cone(cone, x))
            sampled = float(np.max(directions @ x))
            assert sampled <= p_norm + 1e-12
            assert sampled >= 0.99 * p_norm
    _pass(1, "projection shift identity exact to 1e-12; cone sup identity "
             "within 1% under dense sampling")


def test_criterion_2_orthogonality_and_composition():
    start = time.perf_counter()
    n_r, n_theta = 8, 24
    angles = evenly_spaced_angles(n_theta, 0.25)
    A = build_problem(n_r=n_r, n_theta=n_theta, angles=angles,
                      rays_per_angle=6, seed=11).A
    subset = symmetric_subset(polar_theta_shift(n_r, n_theta, 1), 5)
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((50, n_r * n_theta))
    for action in subset:
        s = action.power
        direct = build_problem(
            n_r=n_r, n_theta=n_theta,
            angles=shifted_angles(angles, s, n_theta),
            rays_per_angle=6, seed=11).A
        composed = compose_with_action(A, action)
        for x in xs:
            assert abs(np.linalg.norm(action.apply(x)) - np.linalg.norm(x)) \
                <= 1e-15 * np.linalg.norm(x)
            assert np.array_equal(composed.forward(x), direct.forward(x))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(2, f"norm preservation and exact shift covariance over radius-5 "
             f"subset in {elapsed:.2f}s")


def test_criterion_3_oracle_agreement():
    rng = np.random.default_rng(31)
    for trial in range(10):
        d = int(rng.integers(40, 513))
        m = int(rng.integers(d, 2 * d))
        M = rng.standard_normal((m, d))
        A = from_dense(M)
        eigvals = np.linalg.eigvalsh(M.T @ M)
        top = spectral_norm(A)
        assert abs(top - eigvals[-1]) <= 1e-6 * eigvals[-1]
        if trial % 2 == 0:
            cone = DescentCone(anchor=np.zeros(d), kind="whole_space")
            oracle = eigvals[0]
        else:
            B = random_orthonormal(d, min(12, d // 4), rng)
            cone = DescentCone(anchor=np.zeros(d), kind="subspace", basis=B)
            oracle = np.linalg.eigvalsh(B.T @ (M.T @ M) @ B)[0]
        got = restricted_min_eig(A, cone)
        assert abs(got - oracle) <= 1e-6 * max(abs(oracle), 1e-12)
    _pass(3, "spectral norm and restricted eigenvalues match dense "
             "eigendecompositions to 1e-6 relative on 10 instances")


def test_criterion_4_noiseless_symmetric_bound():
    start = time.perf_counter()
    prob = build_problem(n_r=32, n_theta=64, angle_fraction=0.25,
                         rays_per_angle=32, seed=0)
    radius = full_coverage_radius(prob.geometry.angles, 64)
    assert radius == 2
    subset = symmetric_subset(prob.geometry.theta_shift(1), radius)
    config = SolverConfig(max_iters=500, seed=2024)
    result = verify_bound(prob, subset, config, replicates=20)
    report = result.certificate
    assert report.kappa_c == 1
    assert report.eps_Gstar <= 1e-10
    assert report.eps_w == 0.0
    assert result.slack == 2.0 / math.sqrt(20.0)
    assert result.ok, f"first violation at k={result.first_violation}"
    assert np.array_equal(result.iterations, np.arange(501))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(4, f"20-seed mean under alpha^k bound for all k<=500 "
             f"(alpha={report.alpha_Gstar:.6f}, eps_Gstar=0) in {elapsed:.0f}s")


def test_criterion_5_noisy_bound_and_asymptote():
    prob = build_problem(n_r=32, n_theta=64, angle_fraction=0.25,
                         rays_per_angle=32, noise="gaussian", sigma=1e-3,
                         seed=0)
    subset = symmetric_subset(prob.geometry.theta_shift(1), 2)
    report = certify(prob, subset)
    w_norm = float(np.linalg.norm(prob.w))
    limit = bound_limit(report, w_norm)
    rmsd0 = float(np.linalg.norm(prob.x_dagger))
    # run long enough that the geometric transient is far below the limit
    k_long = math.ceil(math.log(0.1 * limit / rmsd0)
                       / math.log(report.alpha_Gstar))
    replicates = 12
    config = SolverConfig(max_iters=k_long, seed=99)
    result = verify_bound(prob, subset, config, replicates=replicates)
    assert result.ok, f"first violation at k={result.first_violation}"
    slack = result.slack
    assert result.empirical_mean[-1] <= limit * (1.0 + slack)
    _pass(5, f"noisy mean under bound at every k<= {k_long}; long-run mean "
             f"{result.empirical_mean[-1]:.3e} <= geometric limit {limit:.3e}")


def test_criterion_6_extreme_sparse_acceleration():
    start = time.perf_counter()
    prob = build_problem(n_r=32, n_theta=64, angle_fraction=4 / 64,
                         rays_per_angle=32, seed=1)
    assert abs(prob.A.rows / prob.dimension - 0.0625) < 1e-12
    subset = symmetric_subset(prob.geometry.theta_shift(1), 27)
    assert len(subset) == 55
    report = certify(prob, subset)
    rmsd0 = float(np.linalg.norm(prob.x_dagger))
    tol = 1e-4
    k_pred = math.ceil(math.log(tol / rmsd0) / math.log(report.alpha_Gstar))
    config = SolverConfig(max_iters=k_pred, seed=4242, record_every=25,
                          step_size=1.0 / report.L)
    _, group_mean, _ = run_ensemble(prob, config, subset, 20)
    _, pgd_mean, _ = run_ensemble(prob, config, None, 20)
    assert group_mean[-1] <= tol
    assert pgd_mean[-1] >= 10.0 * group_mean[-1]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _pass(6, f"group method hit rmsd {group_mean[-1]:.2e} <= 1e-4 within "
             f"predicted {k_pred} iterations; plain pgd stuck at "
             f"{pgd_mean[-1]:.2e} ({elapsed:.0f}s)")


def test_criterion_7_degenerate_reductions():
    prob = build_problem(n_r=8, n_theta=16, angle_fraction=0.25,
                         rays_per_angle=8, noise="gaussian", sigma=0.02,
                         seed=3)
    config = SolverConfig(max_iters=60, seed=17)
    subset0 = symmetric_subset(prob.geometry.theta_shift(1), 0)
    plain = run(prob, config)
    degenerate = run(prob, config, subset=subset0)
    assert np.array_equal(plain.rmsd, degenerate.rmsd)
    assert np.array_equal(plain.rmsd_normalized, degenerate.rmsd_normalized)
    assert np.array_equal(plain.objective, degenerate.objective)
    assert np.array_equal(plain.final_x, degenerate.final_x)
    # the identity action's table row is the operator's window, so the
    # solver's group step through it is the plain step
    rng = np.random.default_rng(18)
    x = rng.uniform(0.0, 1.0, prob.dimension)
    ident = window_table(prob.A, [identity_action(prob.dimension)])[0]
    assert np.array_equal(ident, prob.A.window)
    a, b = x[None].copy(), x[None].copy()
    for X, cells in ((a, prob.A.window), (b, ident)):
        solver._step(X, prob.A, prob.b, 0.01, cells[None], *solver._bounds(prob.K, 1))
    assert np.array_equal(a, b)
    _pass(7, "radius-0 traces and identity-action steps bit-identical to "
             "plain pgd")


def test_criterion_8_mismatch_control_by_radius():
    from grouppgd.certificate import compute_eps_gstar
    n_r, n_theta = 16, 32
    operator = build_problem(n_r=n_r, n_theta=n_theta, angle_fraction=0.25,
                             rays_per_angle=12, seed=7).A
    gen = polar_theta_shift(n_r, n_theta, 1)
    small_sub = symmetric_subset(gen, 1)
    large_sub = symmetric_subset(gen, 4)
    eps_small, eps_large = [], []
    for seed in range(20):
        x = textured_phantom(n_r, n_theta, smoothness=5, seed=seed)
        cone = DescentCone(anchor=x, kind="whole_space")
        eps_small.append(compute_eps_gstar(operator, small_sub, x, cone))
        eps_large.append(compute_eps_gstar(operator, large_sub, x, cone))
    eps_small = np.asarray(eps_small)
    eps_large = np.asarray(eps_large)
    per_seed = np.mean(eps_small <= eps_large + 1e-15)
    assert eps_small.mean() <= eps_large.mean()
    _pass(8, f"radius-1 mismatch mean {eps_small.mean():.4f} <= radius-4 "
             f"mean {eps_large.mean():.4f} ({per_seed:.0%} of seeds)")


def test_criterion_9_cli_determinism(tmp_path):
    config_text = "\n".join([
        "problem.n_r = 6",
        "problem.n_theta = 16",
        "problem.angle_fraction = 0.25",
        "problem.rays_per_angle = 8",
        "problem.noise = gaussian",
        "problem.sigma = 0.01",
        "subset.radius = 4",
        "solver.iters = 30",
        "solver.seeds = 3",
        "solver.seed = 5",
        f"output.dir = {tmp_path / 'default'}",
    ]) + "\n"
    cfg = tmp_path / "config.txt"
    cfg.write_text(config_text)
    for command in ("run", "certify", "compare", "phantom"):
        dirs = []
        for attempt in ("a", "b"):
            outdir = tmp_path / f"{command}_{attempt}"
            assert main([command, "--config", str(cfg),
                         "--out", str(outdir)]) == 0
            dirs.append(outdir)
        files_a = sorted(os.listdir(dirs[0]))
        files_b = sorted(os.listdir(dirs[1]))
        assert files_a == files_b and files_a
        for name in files_a:
            with open(dirs[0] / name, "rb") as fa, open(dirs[1] / name, "rb") as fb:
                assert fa.read() == fb.read(), f"{command}/{name} differs"
    _pass(9, "all four subcommands rerun byte-identically")
