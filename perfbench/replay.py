"""Traced replay of one workload, in process, through the public API.

Layers are measured from outside only.  The program receives instrumented
inputs: an operator whose forward/adjoint closures count and time the wrapped
``problem.A``, a symmetric subset of actions whose ``apply``/``apply_inverse``
count and time, and a box whose ``project`` counts and times.  The calls into
each public function (``load_config``, ``build_problem``/``symmetric_subset``,
``certify``, ``run``/``run_ensemble``, ``bound_curve``) are timed around the
call.  Per-call microtimings of the step's parts on the workload's shapes
complete the picture.  Nothing in the package is patched.

:func:`replay` must be called before anything imports numpy in this process,
because ``cli.import_s`` is the time of the package's first import.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

from setup_probe import build
from workloads import Workload

clock = time.perf_counter

# a microtiming batch lasts about this long; the median of the batches counts
BATCH_S = 0.002
BATCHES = 31


class Meter:
    __slots__ = ("calls", "seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0


def metered(fn, meter: Meter):
    def call(x):
        start = clock()
        out = fn(x)
        meter.seconds += clock() - start
        meter.calls += 1
        return out
    return call


def _seconds(fn, *args) -> float:
    start = clock()
    fn(*args)
    return clock() - start


def per_call_us(fn) -> tuple[float, int]:
    """Median time of one call in microseconds, and the number of calls timed."""
    fn()
    n = 1
    while True:
        start = clock()
        for _ in range(n):
            fn()
        if clock() - start >= BATCH_S or n >= 1 << 20:
            break
        n *= 2
    times = []
    for _ in range(BATCHES):
        start = clock()
        for _ in range(n):
            fn()
        times.append((clock() - start) / n)
    return statistics.median(times) * 1e6, BATCHES * n


def _metered_inputs(problem, subset):
    """Copies of the operator, subset and feasible set that count and time."""
    from grouppgd import Box, GroupAction, LinearMap, SymmetricSubset

    operator, rotation, projection = Meter(), Meter(), Meter()

    class MeteredAction(GroupAction):
        def apply(self, x):
            start = clock()
            out = GroupAction.apply(self, x)
            rotation.seconds += clock() - start
            rotation.calls += 1
            return out

        def apply_inverse(self, x):
            start = clock()
            out = GroupAction.apply_inverse(self, x)
            rotation.seconds += clock() - start
            rotation.calls += 1
            return out

    class MeteredBox(Box):
        def project(self, x):
            start = clock()
            out = Box.project(self, x)
            projection.seconds += clock() - start
            projection.calls += 1
            return out

    if type(problem.K) is not Box:
        raise TypeError(f"traced replay meters a Box feasible set, got {type(problem.K).__name__}")
    A = problem.A
    A_m = LinearMap(rows=A.rows, cols=A.cols, forward=metered(A.forward, operator),
                    adjoint=metered(A.adjoint, operator), tag=A.tag)
    K_m = MeteredBox(problem.K.lo, problem.K.hi, problem.K.dimension)
    subset_m = SymmetricSubset(
        actions=tuple(MeteredAction(dimension=a.dimension, permutation=a.permutation,
                                    power=a.power, label=a.label) for a in subset),
        radius=subset.radius, generator_label=subset.generator_label)
    meters = {"operator": operator, "rotation": rotation, "projection": projection}
    return dataclasses.replace(problem, A=A_m, K=K_m), subset_m, meters


class _Phases:
    """Wall time of each public call, with the meter activity inside it."""

    def __init__(self, meters):
        self.meters = meters
        self.spans = {}

    def __call__(self, name, fn, *args):
        before = {k: (m.calls, m.seconds) for k, m in self.meters.items()}
        start = clock()
        out = fn(*args)
        elapsed = clock() - start
        span = {"s": elapsed}
        for k, m in self.meters.items():
            span[f"{k}_calls"] = m.calls - before[k][0]
            span[f"{k}_s"] = m.seconds - before[k][1]
        self.spans[name] = span
        return out


def _outputs(workload, iters, pgd, group, bound):
    """The replay's values, keyed like :func:`checks.read_outputs`."""
    if workload.command == "compare":
        return {"compare.csv.iter": iters.tolist(), "compare.csv.pgd_mean_rmsd": pgd.tolist(),
                "compare.csv.group_mean_rmsd": group.tolist(), "compare.csv.bound": bound.tolist()}
    out = {}
    for name, trace in (("pgd.csv", pgd), ("group_pgd.csv", group)):
        out[f"{name}.iter"] = trace.iterations.tolist()
        out[f"{name}.rmsd"] = trace.rmsd.tolist()
        out[f"{name}.rmsd_normalized"] = trace.rmsd_normalized.tolist()
        out[f"{name}.objective"] = trace.objective.tolist()
    if bound is not None:
        out["group_pgd.csv.bound"] = bound.tolist()
    out["group_pgd.csv.action_index"] = group.action_indices.tolist()
    return out


def replay(workload: Workload, config_path: str, seed: int):
    """Run the workload's subcommand in process with metered inputs.

    Returns ``(metrics, outputs)``: metrics map a name to
    ``(value, unit, samples)``; outputs are the values the CLI writes.
    """
    total_start = clock()
    from grouppgd.cli import load_config
    import_s = clock() - total_start

    start = clock()
    config = load_config(config_path)
    problem, subset, solver_config = build(config)
    build_s = clock() - start

    import numpy as np
    from grouppgd import (DescentCone, LinearMap, bound_curve, certify, gram_dense, kernels,
                          restricted_min_eig, run, run_ensemble, sample_action,
                          spectral_norm)

    problem_m, subset_m, meters = _metered_inputs(problem, subset)
    phase = _Phases(meters)
    report = phase("certify", certify, problem_m, subset_m)
    w_norm = float(np.linalg.norm(problem.w))
    R = workload.replicates
    if workload.command == "compare":
        def solve():
            iters, pgd_mean, _ = run_ensemble(problem_m, solver_config, None, R)
            _, group_mean, _ = run_ensemble(problem_m, solver_config, subset_m, R)
            return iters, pgd_mean, group_mean
        iters, pgd, group = phase("solve", solve)

        def bound():
            if report.vacuous:
                return np.full(len(iters), np.nan)
            return bound_curve(report, pgd[0], w_norm, int(iters[-1]))[iters]
    else:
        def solve():
            return (None, run(problem_m, solver_config, subset=None),
                    run(problem_m, solver_config, subset=subset_m))
        iters, pgd, group = phase("solve", solve)

        def bound():
            if report.vacuous:
                return None
            curve = bound_curve(report, group.rmsd[0], w_norm, int(group.iterations[-1]))
            return curve[group.iterations]
    bound_values = phase("bound_curve", bound)
    replay_s = clock() - total_start
    outputs = _outputs(workload, iters, pgd, group, bound_values)

    # isolated layer calls on the workload operator
    power = Meter()
    A = problem.A
    counted = LinearMap(rows=A.rows, cols=A.cols, forward=metered(A.forward, power),
                        adjoint=A.adjoint)
    spectral_norm_s = _seconds(spectral_norm, counted)
    gram_dense_s = _seconds(gram_dense, A)
    restricted_min_eig_s = _seconds(
        restricted_min_eig, A, DescentCone(anchor=problem.x_dagger, kind="whole_space"))

    # per-call microtimings on the workload's shapes
    geo = problem.geometry
    n_angles, rays, n_r, n_theta, n_off = (len(geo.angles), geo.rays_per_angle, geo.n_r,
                                          geo.n_theta, len(geo.offsets))
    rng = np.random.default_rng(seed)
    x2 = rng.standard_normal((n_r, n_theta))
    cols = ((rng.integers(0, n_theta, size=(n_angles, 1)) + np.arange(n_off)) % n_theta
            ).astype(np.int64)
    weights = rng.standard_normal((n_angles, rays, n_r, n_off))
    weights_t = np.ascontiguousarray(np.moveaxis(weights, 1, 3))
    y = rng.standard_normal(n_angles * rays)
    forward_us, forward_n = per_call_us(lambda: kernels.polar_forward(x2, cols, weights))
    adjoint_us, adjoint_n = per_call_us(
        lambda: kernels.polar_adjoint(y, cols, weights_t, n_r, n_theta))
    # computed from array sizes, not measured: one multiply-add per weight, and
    # the weight tensor plus one signal and one measurement vector of float64
    flops = 2 * weights.size
    bytes_moved = 8 * (weights.size + n_r * n_theta + n_angles * rays)
    gflops = 2 * flops / ((forward_us + adjoint_us) * 1e3)
    x = rng.uniform(-0.5, 1.5, size=problem.dimension)
    project_us, project_n = per_call_us(lambda: problem.K.project(x))
    action = subset.actions[1] if len(subset) > 1 else subset.actions[0]
    rotate_us, rotate_n = per_call_us(lambda: action.apply(x))
    sample_us, sample_n = per_call_us(lambda: sample_action(subset, rng))
    noop = (lambda v: v)
    wrapped = metered(noop, Meter())
    instrument_us = (per_call_us(lambda: wrapped(x))[0] - per_call_us(lambda: noop(x))[0])

    cert, solve = phase.spans["certify"], phase.spans["solve"]
    rep_iters = 2 * R * workload.iters
    metered_calls = sum(span[f"{k}_calls"] for span in phase.spans.values() for k in meters)
    instrument_s = max(instrument_us, 0.0) * 1e-6 * metered_calls
    # step = auto: every run() pays one power iteration, certify one more
    power_calls = 1 + (2 * R if solver_config.step_size == "auto" else 0)
    operator_s = sum(span["operator_s"] for span in phase.spans.values())
    metrics = {
        "cli.import_s": (import_s, "s", 1),
        "bench.build_s": (build_s, "s", 1),
        "certificate.certify_s": (cert["s"], "s", 1),
        "certificate.operator_applies": (cert["operator_calls"], "count", 1),
        "certificate.operator_s": (cert["operator_s"], "s", cert["operator_calls"]),
        "certificate.self_s": (cert["s"] - cert["operator_s"], "s", 1),
        "certificate.bound_curve_s": (phase.spans["bound_curve"]["s"], "s", 1),
        "linop.power_iters": (power.calls, "count", 1),
        "linop.spectral_norm_s": (spectral_norm_s, "s", 1),
        "linop.gram_dense_s": (gram_dense_s, "s", 1),
        "constraint.restricted_min_eig_s": (restricted_min_eig_s, "s", 1),
        "solver.solve_s": (solve["s"], "s", 1),
        "solver.replicate_iters": (rep_iters, "count", 1),
        "solver.replicate_iter_us": (solve["s"] / rep_iters * 1e6, "us", rep_iters),
        "solver.applies_per_replicate_iter": (solve["operator_calls"] / rep_iters, "count",
                                              rep_iters),
        "solver.operator_share": (solve["operator_s"] / solve["s"], "fraction", 1),
        "solver.overhead_us": ((solve["s"] - solve["operator_s"]) / rep_iters * 1e6, "us",
                               rep_iters),
        "kernels.forward_us": (forward_us, "us", forward_n),
        "kernels.adjoint_us": (adjoint_us, "us", adjoint_n),
        "kernels.gflops": (gflops, "GFLOP/s", min(forward_n, adjoint_n)),
        "kernels.flops_per_apply.computed": (flops, "flop", 1),
        "kernels.bytes_per_apply.computed": (bytes_moved, "B", 1),
        "constraint.project_us": (project_us, "us", project_n),
        "constraint.project_calls": (solve["projection_calls"], "count", 1),
        "symmetry.rotate_us": (rotate_us, "us", rotate_n),
        "symmetry.rotate_calls": (solve["rotation_calls"], "count", 1),
        "symmetry.sample_us": (sample_us, "us", sample_n),
        # one draw per group step, by the definition of the method
        "symmetry.sample_calls": (R * workload.iters, "count", 1),
        "share.certificate": (cert["s"] / replay_s, "fraction", 1),
        "share.power_iteration": (power_calls * spectral_norm_s / replay_s, "fraction", 1),
        "share.operator": (operator_s / replay_s, "fraction", 1),
        "trace.replay_s": (replay_s, "s", 1),
        "trace.instrument_s": (instrument_s, "s", metered_calls),
    }
    return metrics, outputs
