"""Correctness checks on the files a grouppgd subcommand wrote.

Pure Python (no numpy), so the traced run can time the first import of the
package.  Every check returns a list of failure messages; an empty list means
the operation passed.
"""

from __future__ import annotations

import math
import os

from workloads import Workload

CERT_FLOATS = ("L", "mu_C", "mu_Gstar", "alpha_Gstar", "eps_Gstar", "eps_w")
CERT_INTS = ("kappa_c", "subset_size")
# certificate constants: tight enough to catch a wrong constant, loose enough
# for round-off refactors and an exact (eigendecomposition) L in place of the
# power-iteration estimate
CERT_RTOL = 1e-6
CERT_ATOL = 1e-9
# iterations to tolerance at seed 0 may move by this share (same reasons)
ITER_RTOL = 0.01


def read_certificate(path: str) -> dict:
    cert = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in CERT_FLOATS:
                cert[key] = float(value)
            elif key in CERT_INTS:
                cert[key] = int(value)
            elif key:
                cert[key] = value
    return cert


def read_csv(path: str) -> dict[str, list[float]]:
    """Columns of a numeric CSV with a header row, as lists of floats."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        columns = {name: [] for name in header}
        for line in fh:
            for name, value in zip(header, line.strip().split(",")):
                columns[name].append(float(value))
    return columns


def check_certificate(cert: dict, workload: Workload) -> list[str]:
    errors = []
    missing = [k for k in CERT_FLOATS + CERT_INTS if k not in cert]
    if missing:
        return [f"certificate lacks {missing}"]
    mu, L, kappa = cert["mu_Gstar"], cert["L"], cert["kappa_c"]
    alpha = kappa * math.sqrt(1.0 - min(mu, L) / L)
    if not math.isclose(cert["alpha_Gstar"], alpha, rel_tol=1e-12):
        errors.append(f"alpha_Gstar {cert['alpha_Gstar']!r} != kappa_c*sqrt(1-mu_Gstar/L) = {alpha!r}")
    for key, want in workload.expected_certificate.items():
        got = cert[key]
        if not math.isclose(got, want, rel_tol=CERT_RTOL, abs_tol=CERT_ATOL):
            errors.append(f"certificate {key} = {got!r}, expected {want!r}")
    return errors


def iterations_to_tolerance(iters: list[float], values: list[float], tol: float):
    for k, v in zip(iters, values):
        if v <= tol:
            return int(k)
    return None


def check_iterations(reached: dict, workload: Workload, seed: int) -> list[str]:
    errors = []
    for method in workload.must_reach:
        if reached[method] is None:
            errors.append(f"{method} did not reach rmsd <= {workload.tolerance:g}")
    if seed != 0:
        return errors
    for method, want in workload.expected_iterations.items():
        got = reached[method]
        if want is None or got is None:
            ok = want is got
        else:
            ok = abs(got - want) <= ITER_RTOL * want
        if not ok:
            errors.append(f"{method} iterations to tolerance {got}, expected {want}")
    return errors


def check_bound(values: list[float], bound: list[float], replicates: int,
                what: str) -> list[str]:
    """``values`` stays at or below ``bound * (1 + 2/sqrt(R))`` on every row."""
    factor = 1.0 + 2.0 / math.sqrt(replicates)
    for i, (v, b) in enumerate(zip(values, bound)):
        if math.isnan(b):
            return []  # vacuous certificate: the CLI writes no bound
        if not v <= b * factor:
            return [f"{what} row {i}: {v!r} exceeds bound {b!r} x {factor:.4f}"]
    return []


def read_outputs(workload: Workload, out_dir: str) -> dict:
    """The CLI's numeric outputs, as columns keyed by ``<file>.<column>``."""
    files = ("compare.csv",) if workload.command == "compare" else ("pgd.csv", "group_pgd.csv")
    outputs = {}
    for name in files:
        for column, values in read_csv(os.path.join(out_dir, name)).items():
            outputs[f"{name}.{column}"] = values
    return outputs


def check_command_outputs(workload: Workload, out_dir: str, seed: int) -> list[str]:
    """Checks on the files of the workload's own subcommand."""
    out = read_outputs(workload, out_dir)
    tol = workload.tolerance
    if workload.command == "compare":
        iters = out["compare.csv.iter"]
        errors = check_bound(out["compare.csv.group_mean_rmsd"], out["compare.csv.bound"],
                             workload.replicates, "group mean")
        reached = {
            "pgd": iterations_to_tolerance(iters, out["compare.csv.pgd_mean_rmsd"], tol),
            "group_pgd": iterations_to_tolerance(iters, out["compare.csv.group_mean_rmsd"], tol),
        }
    else:
        cert = read_certificate(os.path.join(out_dir, "certificate.txt"))
        errors = check_certificate(cert, workload)
        if "group_pgd.csv.bound" in out:
            errors += check_bound(out["group_pgd.csv.rmsd"], out["group_pgd.csv.bound"],
                                  1, "group trace")
        elif cert.get("bound") == "active":
            errors.append("certificate is active but group_pgd.csv has no bound column")
        reached = {
            "pgd": iterations_to_tolerance(out["pgd.csv.iter"], out["pgd.csv.rmsd"], tol),
            "group_pgd": iterations_to_tolerance(out["group_pgd.csv.iter"],
                                                 out["group_pgd.csv.rmsd"], tol),
        }
    return errors + check_iterations(reached, workload, seed)


def check_same_values(cli: dict, replay: dict) -> list[str]:
    """Every CLI column equals the replayed one bit for bit."""
    errors = []
    for key, values in cli.items():
        other = replay.get(key)
        if other is None or len(other) != len(values):
            errors.append(f"replay lacks {key} or has another length")
            continue
        for i, (a, b) in enumerate(zip(values, other)):
            if not (a == b or (math.isnan(a) and math.isnan(b))):
                errors.append(f"{key} row {i}: CLI {a!r} != replay {b!r}")
                break
    return errors
