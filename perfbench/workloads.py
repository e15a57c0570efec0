"""Workloads of the grouppgd benchmark and the values their outputs must match.

Each workload is one ``grouppgd`` subcommand on one config.  The configs of
``extreme_sparse`` and ``noisy_textured`` are the shipped files of the same
name in ``configs/`` (``extreme_sparse`` with fewer replicates, see below);
``long_chain`` is owned by the benchmark.

The benchmark seed drives ``solver.seed`` (the replicate streams of the
randomized method): ``solver.seed = <shipped solver.seed> + seed``, so seed 0
reproduces the shipped runs.  ``problem.seed`` stays fixed per workload.  The
instance seed decides how many power iterations the spectral norm needs
(176 to 7954 on these shapes, and no convergence within the 10000-iteration
cap on some seeds), so varying it would make a run's work, not the program's
speed, set the wall time.  With the instance fixed, the certificate constants
are the same on every seed and are checked on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS"]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # grouppgd subcommand: "compare" or "run"
    config: dict[str, str]       # every config key except solver.seed / output.dir
    solver_seed: int             # solver.seed at benchmark seed 0
    # certificate constants (certificate.txt) on every seed
    expected_certificate: dict[str, float]
    # iterations to mean rmsd <= tolerance at seed 0; None means not reached
    expected_iterations: dict[str, int | None]
    # methods that must reach the tolerance on every seed
    must_reach: tuple[str, ...] = ()

    def config_text(self, seed: int, out_dir: str) -> str:
        lines = [f"{key} = {value}" for key, value in self.config.items()]
        lines.append(f"solver.seed = {self.solver_seed + seed}")
        lines.append(f"output.dir = {out_dir}")
        return "\n".join(lines) + "\n"

    @property
    def replicates(self) -> int:
        return int(self.config.get("solver.seeds", "1")) if self.command == "compare" else 1

    @property
    def iters(self) -> int:
        return int(self.config["solver.iters"])

    @property
    def tolerance(self) -> float:
        return float(self.config.get("solver.tolerance", "1e-4"))


WORKLOADS = {
    # Why: the 55-action subset makes certificate probing of the RMS stack the
    # largest single layer (230,104 operator applies); the 4-angle operator is
    # cheap, so fixed per-iteration overhead (projection, two rotations, RNG
    # draw, dispatch) is about 40% of the solve.  Only shipped config where
    # group PGD reaches 1e-4, which gives a sharp correctness check.
    # solver.seeds is 10, not the shipped 20 (the first 10 of the shipped
    # replicate streams): a run of every workload, 22 times over, has to fit
    # in under an hour, and the 20-replicate compare alone takes about 46 s.
    "extreme_sparse": Workload(
        name="extreme_sparse",
        command="compare",
        config={
            "problem.n_r": "32",
            "problem.n_theta": "64",
            "problem.angle_fraction": "0.0625",
            "problem.rays_per_angle": "32",
            "problem.phantom": "ring",
            "problem.noise": "none",
            "problem.seed": "1",
            "subset.radius": "27",
            "solver.iters": "6000",
            "solver.seeds": "10",
            "solver.tolerance": "1e-4",
        },
        solver_seed=4242,
        expected_certificate={
            "L": 75.071331419116035,
            "mu_C": 0.0,
            "mu_Gstar": 0.2838126218141806,
            "kappa_c": 1,
            "alpha_Gstar": 0.99810792370229184,
            "eps_Gstar": 0.0,
            "eps_w": 0.0,
            "subset_size": 55,
        },
        expected_iterations={"pgd": None, "group_pgd": 2526},
        must_reach=("group_pgd",),
    ),
    # Why: 16 angles make forward/adjoint about 83% of the solve (kernel
    # bound); the 5-action subset keeps Gram probing small; power iteration
    # needs 2341 iterations here and solver.step = auto reruns it in every
    # replicate; gaussian noise makes the eps_* terms nonzero.
    "noisy_textured": Workload(
        name="noisy_textured",
        command="compare",
        config={
            "problem.n_r": "32",
            "problem.n_theta": "64",
            "problem.angle_fraction": "0.25",
            "problem.rays_per_angle": "32",
            "problem.phantom": "textured",
            "problem.smoothness": "4",
            "problem.noise": "gaussian",
            "problem.sigma": "0.001",
            "problem.seed": "3",
            "subset.radius": "2",
            "solver.iters": "2000",
            "solver.seeds": "10",
        },
        solver_seed=11,
        expected_certificate={
            "L": 77.408453145047133,
            "mu_C": 0.0,
            "mu_Gstar": 0.077052327544980925,
            "kappa_c": 1,
            "alpha_Gstar": 0.99950217638757288,
            "eps_Gstar": 57.114640021158117,
            "eps_w": 5.5442661208707262,
            "subset_size": 5,
        },
        expected_iterations={"pgd": None, "group_pgd": None},
    ),
    # Why: the same solver and kernel layers as one long chain per method
    # instead of an ensemble, so batching across replicates cannot help and a
    # change that speeds ensembles at the cost of single runs shows; writes
    # two 15001-row traces (CSV formatting); power iteration converges in 176
    # iterations, the contrast to noisy_textured.
    "long_chain": Workload(
        name="long_chain",
        command="run",
        config={
            "problem.n_r": "32",
            "problem.n_theta": "64",
            "problem.angle_fraction": "0.25",
            "problem.rays_per_angle": "32",
            "problem.phantom": "ring",
            "problem.noise": "none",
            "problem.seed": "0",
            "subset.radius": "2",
            "solver.iters": "15000",
            "solver.tolerance": "1e-4",
            "output.record_every": "1",
        },
        solver_seed=2024,
        expected_certificate={
            "L": 81.927471402461123,
            "mu_C": 0.0,
            "mu_Gstar": 0.081987430173125486,
            "kappa_c": 1,
            "alpha_Gstar": 0.99949950882837368,
            "eps_Gstar": 0.0,
            "eps_w": 0.0,
            "subset_size": 5,
        },
        expected_iterations={"pgd": None, "group_pgd": 8864},
        must_reach=("group_pgd",),
    ),
}
