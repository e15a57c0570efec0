"""Config-driven experiment harness.

Subcommands:

* ``run``      one seeded run per method; writes ``pgd.csv``,
               ``group_pgd.csv`` (with a bound column in the certified
               regime) and ``certificate.txt``.
* ``certify``  prints and writes the certificate constants only.
* ``compare``  the plain chain (``run``'s ``pgd.csv`` ``rmsd``) beside the
               seed-ensemble mean of the group method; writes ``compare.csv``
               (bound ``run``'s, or ``nan`` outside the certified regime)
               and ``summary.txt`` with iterations-to-tolerance.
* ``phantom``  writes the ground-truth image as an ASCII graymap plus a
               full-precision CSV.

The certified regime is the certificate's own rule, asked with the run's
step (:meth:`~grouppgd.certificate.CertificateReport.why_no_bound`: finite
constants, none flagged ``estimate``, a non-vacuous rate, the step ``1/L``);
a constant flagged ``relaxed`` is a safe-side value and still gives a bound,
and an uncertified ``mu_Gstar`` prints ``bound = none`` with its own reason.
``solver.step = auto`` is resolved to the certificate's ``1/L``, so the
solver and the bound share one ``L``; any other step prints no bound.  The
bound column is :func:`~grouppgd.certificate.bound_at` at the recorded
iterations, computed once a solve from the plain trace's start.

Configs are flat text files with dotted keys (``problem.n_r = 32``); unknown
keys are rejected so typos fail loudly.  Each value converts to its field's
type (``int``, ``float`` or text), and ``solver.step`` is a number or
``auto``.  All outputs are deterministic for a fixed config: reruns produce
byte-identical files.  Files are written to a temp name and renamed, so
failures never leave partial files; a file that already holds the bytes is
left as it is.

Exit codes: 0 success, 2 config error (a malformed or impossible setting,
noise whose draw overflows included), 3 solver divergence, 4 problem too
large to build, certify or solve (``linop.SizeCapError``, naming what is
too large; ``run`` and ``compare`` ask the solve's size rule before they
certify), 5 unwritable output (an ``--out`` where no directory can be
made is refused before any work).

``python -m grouppgd.cli`` and the ``grouppgd`` console script leave
through one exit, ``_run``: it flushes stdout, then stderr, and ends the
process with ``os._exit`` and ``main``'s code, past the interpreter's
teardown.  A stdout that cannot take the text exits 5, whether the failure
comes at a write or at that flush; a closed stdout drops the text, a closed
or dead stderr drops the error message, and neither changes the exit code.
``main`` itself returns its code and never exits.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import NoReturn

import numpy as np

from .bench import build_problem
from .certificate import bound_at, certify
from .linop import SizeCapError
from .solver import DivergenceError, SolverConfig, check_solve, mean_rmsd, solve
from .symmetry import symmetric_subset

__all__ = ["ExperimentConfig", "parse_config", "load_config", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_TOO_LARGE = 4
EXIT_UNWRITABLE = 5


class ConfigError(ValueError):
    """Malformed experiment config; message carries file/line diagnostics."""


@dataclass
class ExperimentConfig:
    problem_n_r: int = 32
    problem_n_theta: int = 64
    problem_angle_fraction: float = 0.25
    problem_rays_per_angle: int = 32
    problem_phantom: str = "ring"
    problem_smoothness: int = 4
    problem_noise: str = "none"
    problem_sigma: float = 0.01
    problem_scale: float = 1e6
    problem_weights: str = "signed"
    problem_seed: int = 0
    subset_radius: int = 2
    solver_iters: int = 500
    solver_step: float | str = "auto"
    solver_seeds: int = 20
    solver_seed: int = 1234
    solver_tolerance: float = 1e-4
    output_dir: str = "out"
    output_record_every: int = 1

    def validate(self):
        positive = {
            "problem.n_r": self.problem_n_r,
            "problem.n_theta": self.problem_n_theta,
            "problem.rays_per_angle": self.problem_rays_per_angle,
            "problem.smoothness": self.problem_smoothness,
            "solver.seeds": self.solver_seeds,
            "output.record_every": self.output_record_every,
        }
        for name, value in positive.items():
            if value < 1:
                raise ConfigError(f"{name} must be a positive count, got {value}")
        seeds = {"problem.seed": self.problem_seed, "solver.seed": self.solver_seed}
        for name, value in seeds.items():
            if value < 0:
                raise ConfigError(f"{name} must be nonnegative, got {value}")
        finite = {
            "problem.sigma": self.problem_sigma,
            "problem.scale": self.problem_scale,
            "solver.tolerance": self.solver_tolerance,
        }
        if self.solver_step != "auto":
            finite["solver.step"] = self.solver_step
        for name, value in finite.items():
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if finite.get("solver.step", 1.0) <= 0:  # "auto" is 1/L, which is positive
            raise ConfigError("solver.step must be 'auto' or a positive number")
        if self.solver_iters < 0:
            raise ConfigError("solver.iters must be nonnegative")
        if not 0.0 < self.problem_angle_fraction <= 1.0:
            raise ConfigError(
                f"problem.angle_fraction must be in (0, 1], got {self.problem_angle_fraction}"
            )
        if self.subset_radius < 0:
            raise ConfigError("subset.radius must be nonnegative")
        if 2 * self.subset_radius >= self.problem_n_theta:
            raise ConfigError(
                f"subset.radius must be below problem.n_theta / 2, got {self.subset_radius} "
                f"for {self.problem_n_theta} angles: a larger radius lists some rotations twice"
            )
        if self.problem_phantom not in ("ring", "textured"):
            raise ConfigError(f"unknown problem.phantom {self.problem_phantom!r}")
        harmonics = self.problem_n_theta // 2 + 1
        if self.problem_phantom == "textured" and self.problem_smoothness > harmonics:
            raise ConfigError(
                f"problem.smoothness must be at most problem.n_theta // 2 + 1 = {harmonics} "
                f"for a textured phantom, got {self.problem_smoothness}: "
                f"{self.problem_n_theta} angles hold no more distinct harmonics"
            )
        if self.problem_noise not in ("none", "gaussian", "poisson"):
            raise ConfigError(f"unknown problem.noise {self.problem_noise!r}")
        if self.problem_weights not in ("signed", "nonneg"):
            raise ConfigError(f"unknown problem.weights {self.problem_weights!r}")
        if self.problem_sigma < 0:
            raise ConfigError(f"problem.sigma must be nonnegative, got {self.problem_sigma}")
        if not self.problem_scale > 0:
            raise ConfigError(f"problem.scale must be positive, got {self.problem_scale}")
        if self.problem_noise == "poisson" and self.problem_weights != "nonneg":
            raise ConfigError(
                "problem.noise = poisson needs nonnegative measurements: "
                "set problem.weights = nonneg"
            )
        if self.solver_tolerance <= 0:
            raise ConfigError("solver.tolerance must be positive")


def _step(raw: str) -> float | str:
    """``solver.step``'s type: ``auto`` or a number."""
    return raw if raw == "auto" else float(raw)


# each value converts to its field's type: its default's, or _step
_KEY_TO_FIELD = {
    f.name.replace("_", ".", 1): (f.name, _step if f.name == "solver_step" else type(f.default))
    for f in fields(ExperimentConfig)
}
_EXPECTS = {int: "an integer", float: "a number", _step: "'auto' or a number"}


def parse_config(text: str, path: str = "<config>") -> ExperimentConfig:
    """Parse dotted ``key = value`` lines; '#' starts a comment."""
    config = ExperimentConfig()
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        name, typ = _KEY_TO_FIELD[key]
        try:
            setattr(config, name, typ(raw))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: {key} expects {_EXPECTS[typ]}, got {raw!r}")
    config.validate()
    return config


def load_config(path: str) -> ExperimentConfig:
    try:  # a byte-order mark is not part of the first key
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}")
    return parse_config(text, path=path)


def _build(config: ExperimentConfig):
    try:
        with np.errstate(over="ignore"):  # noise whose norm overflows is refused below
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
            w_norm = float(np.linalg.norm(problem.w))
    except ValueError as exc:  # numpy draws no Poisson mean above about 9.2e18
        if config.problem_noise != "poisson" or isinstance(exc, SizeCapError):
            raise
        raise ConfigError(f"problem.scale = {config.problem_scale:g} is too large for "
                          f"poisson noise ({exc})") from None
    if not math.isfinite(w_norm):
        raise ConfigError(f"problem.sigma = {config.problem_sigma:g} is too large: "
                          "the noise norm is not finite")
    subset = symmetric_subset(problem.geometry.theta_shift(1), config.subset_radius)
    solver_config = SolverConfig(
        max_iters=config.solver_iters,
        step_size=config.solver_step,
        seed=config.solver_seed,
        record_every=config.output_record_every,
    )
    return problem, subset, solver_config


def _write_atomic(path: str, chunks) -> None:
    """Write the text ``chunks`` to ``path`` through a temp file and
    ``os.replace``, so a failure leaves no partial file, unless ``path``
    already holds their UTF-8 bytes: then it is left as it is, inode and
    mtime included, and the temp file is removed (a rename over a file can
    cost tens of milliseconds, and reruns into one ``--out`` write the same
    bytes).  ``path``'s directory is made first, so a command refused before
    it writes leaves none.  The temp file is written a chunk at a time, then
    compared in 8 KB buffers once ``filecmp``'s cache, keyed on size and
    mtime, is cleared.  A path that cannot be read is written."""
    import filecmp

    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8"))
        filecmp.clear_cache()
        same = False
        with contextlib.suppress(OSError):
            same = filecmp.cmp(tmp, path, shallow=False)
        if same:
            os.remove(tmp)
        else:
            os.replace(tmp, path)
    except BaseException:  # an OSError, or a chunk that failed to format
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _refuse_unusable(outdir: str) -> None:
    """Raise the first write's ``OSError`` when ``outdir`` is empty or the nearest
    existing path at or above it is not a directory; ``os.makedirs`` then makes nothing."""
    made = path = os.path.dirname(os.path.join(outdir, "_"))  # what _write_atomic makes
    while path and not os.path.exists(path):
        path = os.path.dirname(path)
    if not made or not os.path.isdir(path or "."):
        os.makedirs(made, exist_ok=True)


_CHUNK_ROWS = 1024  # rows formatted and written at a time


def _csv(head: list[str], template: str, columns):
    """The ``head`` lines, then one line per row: ``template % row`` over the
    columns, yielded as text ``_CHUNK_ROWS`` rows at a time.

    A column is an array, or a function from a slice of rows to their
    values, so a derived column is computed one chunk at a time too.
    ``%.17g`` and ``%d`` on ``tolist()`` values write what ``f"{v:.17g}"`` and
    ``str(int(v))`` write, one template per row instead of one call per cell.
    """
    yield "".join(f"{line}\n" for line in head)
    for lo in range(0, len(columns[0]), _CHUNK_ROWS):
        part = slice(lo, lo + _CHUNK_ROWS)
        values = ((c(part) if callable(c) else c[part]).tolist() for c in columns)
        yield "".join(template % row + "\n" for row in zip(*values))


def _trace_csv(trace, bound: np.ndarray | None, with_actions: bool):
    """A trace's CSV, as :func:`_csv` yields it; ``rmsd_normalized`` is
    ``rmsd / sqrt(d)`` a chunk at a time, the bits of the trace's property."""
    header = "iter,rmsd,rmsd_normalized,objective"
    template = "%d,%.17g,%.17g,%.17g"
    root = np.sqrt(len(trace.final_x))
    columns = [trace.iterations, trace.rmsd, lambda part: trace.rmsd[part] / root,
               trace.objective]
    if bound is not None:
        header += ",bound"
        template += ",%.17g"
        columns.append(bound)
    if with_actions:
        header += ",action_index"
        template += ",%d"
        columns.append(trace.action_indices)
    return _csv([header], template, columns)


def _certified_solve(config: ExperimentConfig, replicates: int | None = None,
                     objective: bool = True):
    """Build, ask the size rule, certify, and solve with the same ``replicates``
    and ``objective``, ``auto`` resolved to the certificate's ``1/L``.  Returns
    ``(bound, report, why, plain, group)``: ``bound`` is the bound column at
    the recorded iterations, None when ``why`` says why no bound holds.  Every
    chain starts from zeros, so the plain trace's start is every chain's."""
    problem, subset, solver_config = _build(config)
    check_solve(problem, solver_config, subset, replicates, objective)
    report = certify(problem, subset)
    if solver_config.step_size == "auto":
        solver_config = replace(solver_config, step_size=1.0 / report.L)
    plain, *group = solve(problem, solver_config, subset, replicates, objective)
    why = report.why_no_bound(solver_config.step_size)
    bound = bound_at(report, problem, plain.rmsd[0], plain.iterations) if why is None else None
    return bound, report, why, plain, group


def cmd_run(config: ExperimentConfig, outdir: str) -> int:
    bound, report, why, pgd_trace, (group_trace,) = _certified_solve(config)
    _write_atomic(os.path.join(outdir, "pgd.csv"),
                  _trace_csv(pgd_trace, None, with_actions=False))
    _write_atomic(os.path.join(outdir, "group_pgd.csv"),
                  _trace_csv(group_trace, bound, with_actions=True))
    _write_atomic(os.path.join(outdir, "certificate.txt"), [report.to_text()])
    print(f"wrote pgd.csv, group_pgd.csv, certificate.txt to {outdir}")
    if why is not None:
        print(f"{why}; traces carry no bound column")
    return EXIT_OK


def cmd_certify(config: ExperimentConfig, outdir: str) -> int:
    problem, subset, _ = _build(config)
    report = certify(problem, subset)
    text = report.to_text()
    _write_atomic(os.path.join(outdir, "certificate.txt"), [text])
    print(text, end="")
    why = report.why_no_bound()
    if why is not None:
        print(f"{why}: constants reported, no rate guarantee")
    return EXIT_OK


def cmd_compare(config: ExperimentConfig, outdir: str) -> int:
    # compare writes only rmsd means
    bound, _, why, pgd_trace, group_traces = _certified_solve(config, config.solver_seeds,
                                                              objective=False)
    iters = pgd_trace.iterations
    # the plain chain draws nothing: every plain replicate is this one chain
    pgd_mean = pgd_trace.rmsd
    group_mean = mean_rmsd(group_traces)
    if bound is None:
        bound = np.full(len(iters), np.nan)
    _write_atomic(os.path.join(outdir, "compare.csv"),
                  _csv(["iter,pgd_mean_rmsd,group_mean_rmsd,bound"], "%d,%.17g,%.17g,%.17g",
                       [iters, pgd_mean, group_mean, bound]))

    tol = config.solver_tolerance
    summary_lines = []
    for name, mean in (("pgd", pgd_mean), ("group_pgd", group_mean)):
        hit = np.nonzero(mean <= tol)[0]
        reached = f"{int(iters[hit[0]])}" if len(hit) else "not reached"
        summary_lines.append(
            f"{name}: iterations to mean rmsd <= {tol:g}: {reached} "
            f"(final {mean[-1]:.17g})"
        )
    summary = "\n".join(summary_lines) + "\n"
    _write_atomic(os.path.join(outdir, "summary.txt"), [summary])
    print(summary, end="")
    if why is not None:
        print(f"{why}; compare.csv bound is nan")
    return EXIT_OK


def cmd_phantom(config: ExperimentConfig, outdir: str) -> int:
    problem, _, _ = _build(config)
    n_r, n_theta = config.problem_n_r, config.problem_n_theta
    image = problem.x_dagger.reshape(n_r, n_theta)
    levels = np.clip(np.rint(image * 255.0), 0, 255).astype(int)
    _write_atomic(os.path.join(outdir, "phantom.pgm"),
                  _csv(["P2", f"{n_theta} {n_r}", "255"], " ".join(["%d"] * n_theta), levels.T))
    _write_atomic(os.path.join(outdir, "phantom.csv"),
                  _csv([], " ".join(["%.17g"] * n_theta), image.T))
    print(f"wrote phantom.pgm, phantom.csv to {outdir}")
    return EXIT_OK


def _complain(message: str) -> None:
    """Print ``message`` to stderr, best effort: a closed or dead stderr drops
    it, so the exit code that follows stands."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(message, file=sys.stderr)


_COMMANDS = {
    "run": cmd_run,
    "certify": cmd_certify,
    "compare": cmd_compare,
    "phantom": cmd_phantom,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="grouppgd",
        description="Group-symmetry projected gradient experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to experiment config")
        p.add_argument("--out", default=None, help="override output.dir")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        outdir = args.out if args.out is not None else config.output_dir
        _refuse_unusable(outdir)
        return _COMMANDS[args.command](config, outdir)
    except ConfigError as exc:
        _complain(f"config error: {exc}")
        return EXIT_CONFIG
    except DivergenceError as exc:
        _complain(f"solver diverged: {exc}")
        return EXIT_DIVERGED
    except SizeCapError as exc:
        _complain(f"problem too large: {exc}")
        return EXIT_TOO_LARGE
    except OSError as exc:
        _complain(f"cannot write outputs: {exc}")
        return EXIT_UNWRITABLE


def _run() -> NoReturn:
    """The process's one exit: ``main``'s code (argparse's usage error and
    ``--help`` included), once stdout and then stderr are flushed, through
    ``os._exit``.  Every output file is closed inside ``main``, so the
    interpreter's teardown, tens of milliseconds of collecting what numpy
    and the package leave tracked, has nothing left to do.  A stdout that
    cannot take what is buffered exits 5, as a failed write inside ``main``
    does."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            _complain(f"cannot write outputs: {exc}")
            code = EXIT_UNWRITABLE
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    _run()
