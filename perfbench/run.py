#!/usr/bin/env python3
"""The grouppgd benchmark: three CLI workloads, timed end to end, plus a
separate traced replay for per-layer metrics.

Run from the repository root (the package is imported from ``src/``):

    python3 perfbench/run.py --workload extreme_sparse --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.  One
cycle is: ``setup_s`` probes (fresh interpreters that build the instance and
stop), then ``grouppgd certify`` and the workload's own subcommand, each in a
fresh interpreter.  Cycles repeat until ``--seconds`` have passed (at least
one); every metric is the median of its samples.

``--trace 1`` runs the workload's subcommand once, untraced, then replays it
in this process through the public API with metered inputs (see
``replay.py``), checks that the replay reproduces the CLI's values bit for
bit, and reports the per-layer metrics and the tracing overhead.

Every subprocess and the replay is one operation; an operation whose exit
code or output check fails counts as failed (``checks.py``).  A table of
every metric with its unit and sample count, and the machine, are printed
before the last line, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record goes to
``.bench_out/results-<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
from workloads import WORKLOADS

clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CHILD_TIMEOUT_S = 170
SETUP_PROBES = 7


class Run:
    """Operations attempted and failed, and the samples of each metric."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.samples = {}

    def operation(self, name: str, errors: list[str]):
        self.attempted += 1
        for message in errors:
            print(f"FAILED {name}: {message}", file=sys.stderr)
        if errors:
            self.failures.append({"operation": name, "errors": errors})

    def add(self, metric: str, value: float):
        self.samples.setdefault(metric, []).append(value)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_cli(command: str, config_path: str, out_dir: str):
    """``grouppgd <command>`` in a fresh interpreter.

    Returns the exit code, the wall time and the child's own peak RSS in MB.
    """
    with open(os.path.join(out_dir, "stdout.txt"), "wb") as log:
        start = clock()
        proc = subprocess.Popen(
            [sys.executable, "-m", "grouppgd.cli", command, "--config", config_path,
             "--out", out_dir],
            cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = clock() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def setup_probe(config_path: str):
    """Time from starting a fresh interpreter until it has built the problem."""
    start = clock()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), config_path],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = clock() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return proc.returncode, elapsed, line.split()


def exit_errors(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}"]


def checked(check, *args) -> list[str]:
    """Run an output check; unreadable or malformed outputs fail it."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError) as exc:
        return [f"outputs unreadable: {exc!r}"]


def untraced_run(workload, seed: int, seconds: float, config_path: str, run: Run):
    work = os.path.join(OUT, workload.name)
    cfg = workload.config
    expected_probe = [str(int(cfg["problem.n_r"]) * int(cfg["problem.n_theta"])),
                      str(2 * int(cfg["subset.radius"]) + 1)]
    start = clock()
    while True:
        for _ in range(SETUP_PROBES):
            code, elapsed, fields = setup_probe(config_path)
            errors = exit_errors(code)
            if not errors and (len(fields) != 3 or fields[:2] != expected_probe
                               or not fields[2].startswith(SRC + os.sep)):
                errors.append(f"setup probe printed {fields}, expected {expected_probe} from {SRC}")
            run.operation("setup", errors)
            run.add("setup_s", elapsed)

        out_dir = fresh_dir(os.path.join(work, "certify"))
        code, wall, _ = run_cli("certify", config_path, out_dir)
        run.operation("certify", exit_errors(code) or checked(
            lambda: checks.check_certificate(
                checks.read_certificate(os.path.join(out_dir, "certificate.txt")), workload)))
        run.add("certify_s", wall)

        out_dir = fresh_dir(os.path.join(work, "cmd"))
        code, wall, rss = run_cli(workload.command, config_path, out_dir)
        run.operation(workload.command, exit_errors(code) or checked(
            checks.check_command_outputs, workload, out_dir, seed))
        run.add("wall_s", wall)
        run.add("peak_rss_mb", rss)
        if clock() - start >= seconds:
            return


def traced_run(workload, seed: int, config_path: str, run: Run):
    out_dir = fresh_dir(os.path.join(OUT, workload.name, "cmd"))
    code, wall, _ = run_cli(workload.command, config_path, out_dir)
    run.operation(workload.command, exit_errors(code) or checked(
        checks.check_command_outputs, workload, out_dir, seed))

    from replay import replay  # imports no numpy; the replay times the first import
    metrics, outputs = replay(workload, config_path, seed)
    run.operation("replay", checked(
        lambda: checks.check_same_values(checks.read_outputs(workload, out_dir), outputs)))
    replay_s = metrics["trace.replay_s"][0]
    instrument_s = metrics["trace.instrument_s"][0]
    metrics["trace.untraced_wall_s"] = (wall, "s", 1)
    metrics["trace.replay_over_wall"] = (replay_s / wall, "ratio", 1)
    # interpreter start and exit, argument parsing, CSV formatting and writes
    metrics["trace.unaccounted_s"] = (wall - (replay_s - instrument_s), "s", 1)
    return metrics


def blas_threads():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    import numpy as np

    import grouppgd

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "numba_enabled": grouppgd.NUMBA_ENABLED,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "grouppgd", "cli.py")):
        print(f"no grouppgd sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the traced replay and machine() import the checkout's package
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    config_path = os.path.join(fresh_dir(os.path.join(OUT, workload.name)), "config.txt")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text(args.seed, os.path.join(OUT, workload.name, "cmd")))
    run = Run()
    if args.trace:
        metrics = traced_run(workload, args.seed, config_path, run)
    else:
        untraced_run(workload, args.seed, args.seconds, config_path, run)
        metrics = {name: (statistics.median(values), None, len(values))
                   for name, values in run.samples.items()}
    units = {m["name"]: m["unit"] for m in declared}
    mismatched = sorted(name for name in set(metrics) | set(units)
                        if name not in metrics or name not in units
                        or metrics[name][1] not in (None, units[name]))
    if mismatched:
        print(f"metrics {mismatched} differ from BENCHMARK.json", file=sys.stderr)
        return 1

    info = machine()
    print(f"{'metric':36} {'value':>16} {'unit':8} {'samples':>8}")
    for name in units:
        value, _, samples = metrics[name]
        print(f"{name:36} {value:16.6g} {units[name]:8} {samples:8d}")
    print("machine: " + json.dumps(info))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]} for name in units},
    }
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  machine=info, failures=run.failures,
                  samples={name: metrics[name][2] for name in units})
    with open(os.path.join(OUT, f"results-{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
