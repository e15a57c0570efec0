"""Set-up of one grouppgd subcommand, as a process of its own.

Imports the package, loads the config and builds the instance, the symmetric
subset and the solver config the way every subcommand does, then prints
``<dimension> <subset size> <package file>`` and exits.  The parent times
the process from its start until that line arrives (``setup_s``).

Run:
    PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG
"""

import sys


def build(config):
    """Instance, subset and solver config of ``config``, as the CLI builds them."""
    from grouppgd import SolverConfig, build_problem, symmetric_subset

    problem = build_problem(
        n_r=config.problem_n_r,
        n_theta=config.problem_n_theta,
        angle_fraction=config.problem_angle_fraction,
        rays_per_angle=config.problem_rays_per_angle,
        phantom=config.problem_phantom,
        smoothness=config.problem_smoothness,
        noise=config.problem_noise,
        sigma=config.problem_sigma,
        scale=config.problem_scale,
        seed=config.problem_seed,
        weight_kind=config.problem_weights,
    )
    subset = symmetric_subset(problem.geometry.theta_shift(1), config.subset_radius)
    solver_config = SolverConfig(
        max_iters=config.solver_iters,
        step_size=config.solver_step,
        seed=config.solver_seed,
        record_every=config.output_record_every,
    )
    return problem, subset, solver_config


def main(path):
    import grouppgd
    from grouppgd.cli import load_config

    problem, subset, _ = build(load_config(path))
    print(problem.dimension, len(subset), grouppgd.__file__, flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
