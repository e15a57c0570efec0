"""Convergence-certificate engine.

Computes every constant of the linear-rate bound for the group-action solver
and checks the bound against seeded Monte Carlo runs:

* ``L``: largest eigenvalue of the operator Gram ``G = A^T A`` (sets the
  step size), read exactly from the spectrum of the operator's smaller-side
  Gram (:func:`~grouppgd.linop.gram_eigvals`), as the solver's ``auto``
  step is.
* ``mu_C``: smallest restricted eigenvalue of ``G``; the whole-space value
  comes from the same spectrum.
* ``mu_Gstar``: smallest restricted Gram eigenvalue of the RMS-normalized
  stack over the symmetric subset; this drives the contraction factor.
  Because every action ``T_g`` is an orthogonal permutation ``P_g``,
  ``(A T_g)^T (A T_g) = P_g^T G P_g``, so the stacked Gram is the mean of
  ``G`` permuted through the subset and costs no operator applications
  beyond one probe of ``G`` on the cells the operator reads.  The probe's
  nonzeros move through the subset's window-table rows straight into block
  tridiagonal storage in the geometry's folded angle order
  (:func:`~grouppgd.linop.band_gram`), and neither ``G`` nor the mean is
  built densely.  On the whole space its bottom eigenvalue comes from
  two band Cholesky factorizations, one alive at a time: one Lanczos run
  on the solve with ``G_star + n u L I`` finds it, and a Cholesky of
  ``G_star - (mu_Gstar - n u L) I`` certifies it by Sylvester's law of
  inertia (Higham, *Accuracy and Stability of Numerical Algorithms*,
  Thm 10.5), so the enclosure is as narrow as ``eigvalsh``'s own backward
  error.  Only a certified value is flagged ``exact``; an uncertified
  one is flagged ``estimate`` and gives no bound, for that reason.
* ``alpha_Gstar = sqrt(1 - mu_Gstar / L)``: per-iteration contraction of
  the expected distance to the ground truth.  The paper's rate carries a
  factor ``kappa_c``, 1 for a convex feasible set; every set here is
  convex, so ``certificate.txt`` prints ``kappa_c = 1``.
* ``eps_Gstar``: symmetry-mismatch term, zero when every subset action fixes
  the ground truth.
* ``eps_w``: cone-restricted noise amplification through the rotated
  adjoints, normalized by the noise norm.

The expected distance after k iterations is bounded by

    alpha^k * ||x0 - xd|| + (1 - alpha^k) / (L * (1 - alpha))
        * (eps_Gstar + eps_w * ||w||)

which :func:`bound_curve` evaluates, :func:`bound_at` reads at recorded
iterations, and :func:`verify_bound` checks against the empirical mean over
replicates run at the step ``1/L``, with a Monte Carlo slack of
``2/sqrt(replicates)``.

On a subspace cone ``span(B)`` ``mu_C`` and ``mu_Gstar`` are the cone's own
values, read from ``k`` probes of ``B`` per action through its window-table
row (:func:`~grouppgd.constraint.subspace_min_eig`).  On every other cone
they are the whole space's, the same bits as on a ``whole_space`` cone: on a
box cone that is a lower bound, flagged ``relaxed``.  The bound rises as
``mu_Gstar`` falls, so relaxed constants give a valid, weaker bound.  The
``eps_*`` terms project exactly onto every cone, so they are always
``exact``.
:meth:`CertificateReport.why_no_bound` is the one rule of the certified
regime, the step ``1/L`` included when it is given a step.  The band, the
subspace probes and the ``eps_*`` terms read the operator through its
window maps and the subset through window-table rows.  A map rebuilt from
``forward`` and ``adjoint`` alone reads every cell, so its table rows are
the permutations themselves and every caller of ``certify`` gets the same
bits.  No ``cols x cols`` array is built on any cone; one size rule refuses
(:class:`~grouppgd.linop.SizeCapError`) a smaller-side Gram or a band of
more than ``linop.DENSE_CAP**2`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import kernels
from .bench import ProblemInstance
from .constraint import DescentCone, descent_cone_of, project_cone, subspace_min_eig
from .linop import (BandGram, DimensionMismatchError, LinearMap, band_gram, gram_eigvals,
                    window_table)
from .solver import SolverConfig, run_ensemble
from .symmetry import SymmetricSubset

__all__ = [
    "CertificateReport",
    "DominationReport",
    "BoundVacuousError",
    "compute_eps_gstar",
    "compute_eps_w",
    "certify",
    "bound_curve",
    "bound_at",
    "bound_limit",
    "verify_bound",
]


_LANCZOS_SEED = 0  # a constant, never the clock or the problem seed
_LANCZOS_STEPS = 200
_LANCZOS_TOL = 1e-10  # top Ritz residual estimate, relative to its Ritz value
_VACUOUS = "bound vacuous (alpha_Gstar >= 1)"


class BoundVacuousError(ValueError):
    """The contraction factor is not below 1, so the geometric bound is empty."""


@dataclass(frozen=True)
class CertificateReport:
    """The constants of the bound that :func:`certify` measures, from which
    the rate ``alpha_Gstar`` and the ``flags`` follow; ``kappa_c`` is 1, as
    every feasible set is convex."""

    kappa_c: ClassVar[int] = 1

    L: float
    mu_C: float
    mu_Gstar: float
    eps_Gstar: float
    eps_w: float
    certified: bool
    subset_size: int
    cone_kind: str

    @property
    def alpha_Gstar(self) -> float:
        """Contraction factor ``sqrt(1 - mu_Gstar / L)``."""
        return float(np.sqrt(1.0 - min(self.mu_Gstar, self.L) / self.L))

    @property
    def flags(self) -> dict[str, str]:
        """One of three values per constant: ``"exact"``, the constant
        itself; ``"relaxed"``, a box cone's ``mu_C`` or ``mu_Gstar`` read
        from the whole space, a lower bound on the cone's own; and
        ``"estimate"``, an uncertified ``mu_Gstar``."""
        mu = "relaxed" if self.cone_kind == "box" else "exact"
        return {"L": "exact", "mu_C": mu, "mu_Gstar": mu if self.certified else "estimate",
                "eps_Gstar": "exact", "eps_w": "exact"}

    @property
    def vacuous(self) -> bool:
        return not self.alpha_Gstar < 1.0

    def why_no_bound(self, step: float | None = None) -> str | None:
        """Why the report certifies no bound, or None in the certified regime:
        finite constants, a certified ``mu_Gstar``, a non-vacuous rate and,
        when ``step`` is given, the step ``1/L``, checked in that order."""
        for name in ("L", "mu_C", "mu_Gstar", "eps_Gstar", "eps_w"):
            if not np.isfinite(getattr(self, name)):
                return f"{name} is not finite, so no bound holds"
        if not self.certified:
            return "mu_Gstar flagged estimate, so no bound holds"
        if self.vacuous:
            return _VACUOUS
        if step is not None and step != 1.0 / self.L:
            return (f"solver.step = {step:g} is not the certified "
                    f"1/L = {1.0 / self.L:.6g}, so no bound holds")
        return None

    def to_text(self) -> str:
        """Flat key-value block, one ``name = value`` line per constant and flag."""
        lines = [f"{name} = {getattr(self, name):.17g}" for name in
                 ("L", "mu_C", "mu_Gstar", "kappa_c", "alpha_Gstar", "eps_Gstar", "eps_w")]
        lines += [f"subset_size = {self.subset_size}", f"cone = {self.cone_kind}"]
        lines.extend(f"flag.{name} = {flag}" for name, flag in self.flags.items())
        why = self.why_no_bound()
        state = "active" if why is None else "vacuous" if why == _VACUOUS else "none"
        lines.append(f"bound = {state}")
        return "\n".join(lines) + "\n"


def compute_eps_gstar(A: LinearMap, subset: SymmetricSubset,
                      x_dagger: np.ndarray, C: DescentCone) -> float:
    """Symmetry-mismatch term of the bound.

    For each subset action the ground truth is rotated, re-measured, and the
    discrepancy pulled back through the rotated adjoint; the result is the
    largest cone-projected norm over the subset.  Zero whenever every action
    fixes the ground truth.  ``(x - T_s x)[c] = x[c] - x[perm_s[c]]``, so
    action ``s``'s residual is the window forward of ``x[window] - x[table[s]]``.
    """
    _check_dimensions(A, subset, C, x_dagger=x_dagger)
    table = window_table(A, subset)
    x = np.asarray(x_dagger, dtype=float)
    mismatches = A.window_forward(x.take(A.window) - x.take(table))
    return _worst_pullback(A, table, A.window_adjoint(mismatches), C)


def compute_eps_w(A: LinearMap, subset: SymmetricSubset, w: np.ndarray,
                  C: DescentCone) -> float:
    """Noise amplification term, normalized by the noise norm (0 for w = 0)."""
    _check_dimensions(A, subset, C, w=w)
    w_norm = float(np.linalg.norm(w))
    if w_norm == 0.0:
        return 0.0
    return _worst_pullback(A, window_table(A, subset), A.window_adjoint(w), C) / w_norm


def _worst_pullback(A: LinearMap, table: np.ndarray, pulled: np.ndarray,
                    C: DescentCone) -> float:
    """Largest ``||proj_C (A T_s)^T r_s||``: ``pulled[s]`` (or ``pulled`` for
    every ``s``), the window adjoint of ``r_s``, added into table row ``s``'s cells."""
    norms = [np.linalg.norm(project_cone(C, kernels.scatter_add(cells, values, A.cols)))
             for cells, values in zip(table, np.broadcast_to(pulled, table.shape))]
    return float(np.max(norms))  # a NaN norm (non-finite residuals) stays NaN


def _check_dimensions(A: LinearMap, subset: SymmetricSubset, cone: DescentCone,
                      **vectors: np.ndarray) -> None:
    """Refuse, before any work, a length that does not line up with ``A``:
    ``w``'s with its rows, the subset's, the cone's and any other's with its columns."""
    named = [("subset", (subset.dimension,)), ("cone", (cone.dimension,))]
    for name, shape in named + [(name, np.shape(v)) for name, v in vectors.items()]:
        side, length = ("rows", A.rows) if name == "w" else ("columns", A.cols)
        if shape != (length,):
            got = shape[0] if len(shape) == 1 else shape
            raise DimensionMismatchError(
                f"{name} dimension {got} does not match operator {side} {length}")


def _stack_min_eig(G_star: BandGram, L: float) -> tuple[float, bool]:
    """Smallest eigenvalue of a band stack Gram, and whether it is certified.

    ``slack = n u L`` (``n`` cells, ``u`` the unit round-off) is the width
    of ``eigvalsh``'s own backward error.  ``G_star + slack I`` is factored
    once (even a singular stack has that factor; if it fails, the result is
    0, not certified), and Lanczos with full reorthogonalization (Parlett,
    *The Symmetric Eigenvalue Problem*, ch. 13) runs on its inverse from a
    seeded start vector, until the top Ritz pair's residual estimate is
    ``_LANCZOS_TOL`` of its Ritz value or for ``_LANCZOS_STEPS`` steps.  The
    Ritz vector's Rayleigh quotient on ``G_star``, ``mu_hat``, is certified
    when ``G_star - (mu_hat - slack) I`` factors: by Sylvester's law of
    inertia no eigenvalue lies below that shift, up to the factorization's
    backward error (Higham, *Accuracy and Stability of Numerical
    Algorithms*, Thm 10.5); the first factor and the Lanczos basis are freed
    before it factors.  A certified ``mu_hat`` below ``slack`` cannot be told
    from 0 and reads 0.  Otherwise the result is the largest shift that
    factored, ``-slack``, clipped to 0.  Reruns give the same bits.
    """
    n = G_star.size
    slack = len(G_star.order) * np.finfo(float).eps / 2 * L
    solve = G_star.cholesky(-slack)
    if solve is None:
        return 0.0, False
    Q = np.zeros((min(_LANCZOS_STEPS, n), n))  # Q[-1] stands in for q_{-1} = 0
    q = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    Q[0] = q / np.linalg.norm(q)
    alphas, betas = [], [0.0]
    for j in range(len(Q)):
        w = solve(Q[j])
        alphas.append(float(Q[j] @ w))
        w -= alphas[j] * Q[j] + betas[j] * Q[j - 1]
        w -= Q[: j + 1].T @ (Q[: j + 1] @ w)  # full reorthogonalization
        betas.append(float(np.linalg.norm(w)))
        off = np.diag(betas[1:-1], 1)
        theta, Y = np.linalg.eigh(np.diag(alphas) + off + off.T)
        if abs(betas[-1] * Y[-1, -1]) <= _LANCZOS_TOL * theta[-1] or j + 1 == len(Q):
            break
        Q[j + 1] = w / betas[-1]
    x = Q[: j + 1].T @ Y[:, -1]
    del solve, Q  # one factor alive at a time: the inertia check makes its own
    x /= np.linalg.norm(x)
    mu = float(x @ (G_star @ x))
    if G_star.cholesky(mu - slack) is None:
        return 0.0, False
    return (mu if mu > slack else 0.0), True


def certify(problem: ProblemInstance, subset: SymmetricSubset,
            cone: DescentCone | None = None) -> CertificateReport:
    """Compute the full certificate for a problem and symmetric subset.

    The descent cone defaults to the cone of the feasible set at the ground
    truth.  ``L`` is the top of the exact spectrum of ``A^T A``, read from
    the Gram of the operator's smaller side, so it is bitwise
    ``spectral_norm(A)`` and ``1/L`` is the solver's ``auto`` step.  A
    subspace cone reads ``mu_C`` and ``mu_Gstar`` from ``k`` probes of its
    basis, through the operator's window and through the rows of the
    subset's :func:`~grouppgd.linop.window_table`
    (:func:`~grouppgd.constraint.subspace_min_eig`).  Every other cone takes
    the whole-space ``mu_C``, the bottom of the same spectrum, and averages
    the nonzeros of one probe of ``G = A^T A`` on the window's cells through
    the subset's window-table rows straight into block-tridiagonal storage
    in the folded order of ``problem.geometry``
    (:func:`~grouppgd.linop.band_gram`); its whole-space ``mu_Gstar`` comes
    from one Lanczos run and one inertia check (:func:`_stack_min_eig`),
    flagged ``estimate`` when not certified.
    :class:`~grouppgd.linop.DimensionMismatchError` is raised for a subset
    or cone of another length than ``A.cols``, ``ValueError`` for ``L = 0``,
    and :class:`~grouppgd.linop.SizeCapError` when the smaller side's Gram,
    or for such a cone the band, would hold more than ``linop.DENSE_CAP**2``
    entries.
    """
    if cone is None:
        cone = descent_cone_of(problem.K, problem.x_dagger)
    A = problem.A
    _check_dimensions(A, subset, cone)
    eigvals = gram_eigvals(A)
    L = float(eigvals[-1])
    if not L > 0:
        raise ValueError(f"L must be positive, got L={L}")
    if cone.kind == "subspace":
        mu_C = subspace_min_eig(A, cone, A.window[None])
        mu_Gstar, certified = subspace_min_eig(A, cone, window_table(A, subset)), True
    else:
        mu_C = max(float(eigvals[0]), 0.0)
        G_star = band_gram(A, subset, problem.geometry.folded_order, pad=L)
        mu_Gstar, certified = _stack_min_eig(G_star, L)
    # guard against round-off pushing the restricted eigenvalue past L
    if mu_Gstar > L * (1.0 + 1e-9):
        raise ValueError(
            f"restricted stack eigenvalue {mu_Gstar} exceeds L={L}; "
            "operator construction is inconsistent"
        )
    return CertificateReport(
        L=L, mu_C=mu_C, mu_Gstar=mu_Gstar,
        eps_Gstar=compute_eps_gstar(A, subset, problem.x_dagger, cone),
        eps_w=compute_eps_w(A, subset, problem.w, cone),
        certified=certified, subset_size=len(subset), cone_kind=cone.kind,
    )


def bound_curve(report: CertificateReport, rmsd0: float, w_norm: float,
                K: int) -> np.ndarray:
    """Evaluate the bound at iterations 0..K (inclusive, length K+1).

    Entry k is ``alpha^k * rmsd0`` plus the geometric accumulation of the
    mismatch and noise terms.  Requires ``alpha_Gstar < 1``; otherwise the
    geometric-sum form is invalid and :class:`BoundVacuousError` is raised.
    """
    if report.vacuous:
        raise BoundVacuousError(
            f"alpha_Gstar = {report.alpha_Gstar} is not below 1"
        )
    alpha = report.alpha_Gstar
    ks = np.arange(K + 1)
    alpha_pow = alpha ** ks
    drive = report.eps_Gstar + report.eps_w * w_norm
    tail = (1.0 - alpha_pow) / (report.L * (1.0 - alpha)) * drive
    return alpha_pow * rmsd0 + tail


def bound_at(report: CertificateReport, problem: ProblemInstance, rmsd0: float,
             iterations: np.ndarray) -> np.ndarray:
    """:func:`bound_curve` for the noise of ``problem``, run to the last of
    the recorded ``iterations`` and read at each of them."""
    w_norm = float(np.linalg.norm(problem.w))
    return bound_curve(report, rmsd0, w_norm, int(iterations[-1]))[iterations]


def bound_limit(report: CertificateReport, w_norm: float) -> float:
    """Large-iteration limit of :func:`bound_curve`."""
    if report.vacuous:
        raise BoundVacuousError(
            f"alpha_Gstar = {report.alpha_Gstar} is not below 1"
        )
    drive = report.eps_Gstar + report.eps_w * w_norm
    return drive / (report.L * (1.0 - report.alpha_Gstar))


@dataclass(frozen=True)
class DominationReport:
    """Outcome of checking the bound against an empirical mean curve.

    ``margins[i] = bound[i] * (1 + slack) - empirical_mean[i]``, with the
    Monte Carlo slack ``2/sqrt(replicates)``; the check passes (``ok``) when
    no margin is negative, else ``first_violation`` is the iteration index
    of the first negative margin.
    """

    iterations: np.ndarray
    empirical_mean: np.ndarray
    bound: np.ndarray
    replicates: int
    certificate: CertificateReport

    @property
    def slack(self) -> float:
        return float(2.0 / np.sqrt(self.replicates))

    @property
    def margins(self) -> np.ndarray:
        return self.bound * (1.0 + self.slack) - self.empirical_mean

    @property
    def ok(self) -> bool:
        return self.first_violation is None

    @property
    def first_violation(self) -> int | None:
        violations = np.nonzero(self.margins < 0)[0]
        return int(self.iterations[violations[0]]) if len(violations) else None


def verify_bound(problem: ProblemInstance, subset: SymmetricSubset,
                 config: SolverConfig, replicates: int = 20) -> DominationReport:
    """Empirically check the bound: mean distance over replicates vs curve.

    It needs a replicate (checked before certifying) and the certified
    regime (:meth:`CertificateReport.why_no_bound`): it raises
    :class:`BoundVacuousError` when the reason is the vacuous rate and
    ``ValueError`` for any other reason.  The runs take the
    certificate's step ``1/L``, and the slack ``2/sqrt(replicates)`` absorbs
    Monte Carlo error.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    report = certify(problem, subset)
    why = report.why_no_bound()
    if why is not None:
        raise (BoundVacuousError if why == _VACUOUS else ValueError)(why)
    run_config = replace(config, step_size=1.0 / report.L)
    iterations, mean_rmsd, _ = run_ensemble(problem, run_config, subset, replicates)
    return DominationReport(
        iterations=iterations,
        empirical_mean=mean_rmsd,
        bound=bound_at(report, problem, mean_rmsd[0], iterations),
        replicates=replicates,
        certificate=report,
    )
