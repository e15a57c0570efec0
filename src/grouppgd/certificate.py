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
  beyond one probe of ``G``.  The probe's nonzeros go straight into block
  tridiagonal storage in the geometry's folded angle order
  (:func:`~grouppgd.linop.band_gram`), and neither ``G`` nor the mean is
  built densely.  On the whole space its bottom eigenvalue comes from
  two band Cholesky factorizations, one alive at a time: one Lanczos run
  on the solve with ``G_star + n u L I`` finds it, and a Cholesky of
  ``G_star - (mu_Gstar - n u L) I`` certifies it by Sylvester's law of
  inertia (Higham, *Accuracy and Stability of Numerical Algorithms*,
  Thm 10.5), so the enclosure is as narrow as ``eigvalsh``'s own backward
  error.  Only a certified value is flagged ``exact``.
* ``alpha_Gstar = kappa_c * sqrt(1 - mu_Gstar / L)``: per-iteration
  contraction of the expected distance to the ground truth.
* ``eps_Gstar``: symmetry-mismatch term, zero when every subset action fixes
  the ground truth.
* ``eps_w``: cone-restricted noise amplification through the rotated
  adjoints, normalized by the noise norm.

The expected distance after k iterations is bounded by

    alpha^k * ||x0 - xd|| + kappa_c * (1 - alpha^k) / (L * (1 - alpha))
        * (eps_Gstar + eps_w * ||w||)

which :func:`bound_curve` evaluates and :func:`verify_bound` checks against
the empirical mean over replicates, with a Monte Carlo slack of
``2/sqrt(replicates)``.

On a subspace cone ``span(B)`` ``mu_C`` and ``mu_Gstar`` are the cone's own
values, read from ``k`` forward probes of ``B`` per action
(:func:`~grouppgd.constraint.subspace_min_eig`).  On every other cone they
are the whole space's, the same bits as on a ``whole_space`` cone: on a box
cone, or the whole space standing in for an l1-ball boundary cone, that is a
lower bound, flagged ``relaxed``.  The ``eps_*`` terms project exactly onto
every cone but the relaxed one, where they read the whole space's larger
values, also flagged ``relaxed``.  The bound rises as ``mu_Gstar`` falls and
as ``eps_*`` rise, so relaxed constants give a valid, weaker bound.
:meth:`CertificateReport.why_no_bound` is the one rule of the certified
regime.  The band and the subspace probes read the operator through
``forward``/``adjoint``, not its window, so every caller of ``certify`` gets
the same bits, also one whose map was rebuilt from them alone.  No
``cols x cols`` array is built on any cone; one size rule refuses
(:class:`~grouppgd.linop.SizeCapError`) a smaller-side Gram or a band of
more than ``linop.DENSE_CAP**2`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bench import ProblemInstance
from .constraint import DescentCone, descent_cone_of, project_cone, subspace_min_eig
from .linop import BandGram, LinearMap, band_gram, gram_eigvals, rotated_adjoint, window_table
from .solver import SolverConfig, run_ensemble
from .symmetry import SymmetricSubset

__all__ = [
    "CertificateReport",
    "DominationReport",
    "BoundVacuousError",
    "compute_alpha",
    "compute_eps_gstar",
    "compute_eps_w",
    "certify",
    "bound_curve",
    "bound_limit",
    "verify_bound",
]


_LANCZOS_SEED = 0  # a constant, never the clock or the problem seed
_LANCZOS_STEPS = 200
_LANCZOS_TOL = 1e-10  # top Ritz residual estimate, relative to its Ritz value


class BoundVacuousError(ValueError):
    """The contraction factor is not below 1, so the geometric bound is empty."""


@dataclass(frozen=True)
class CertificateReport:
    """All constants of the convergence bound, with per-field exactness flags.

    ``flags[name]`` is one of three values: ``"exact"``, the constant
    itself; ``"relaxed"``, a safe-side value that is not the cone's own (a
    whole-space ``mu`` below the cone's, or ``eps`` above it); and
    ``"estimate"``, a whole-space ``mu_Gstar`` that the band Cholesky could
    not certify, the only constant that can be one.  ``alpha_Gstar`` is
    always recomputable as ``kappa_c * sqrt(1 - mu_Gstar / L)``.
    """

    L: float
    mu_C: float
    mu_Gstar: float
    kappa_c: int
    alpha_Gstar: float
    eps_Gstar: float
    eps_w: float
    flags: dict[str, str]
    subset_size: int
    cone_kind: str

    @property
    def vacuous(self) -> bool:
        return not self.alpha_Gstar < 1.0

    def why_no_bound(self) -> str | None:
        """Why the report certifies no bound, or None in the certified regime:
        finite constants, a non-vacuous rate, no constant flagged
        ``estimate``, a convex set."""
        for name in ("L", "mu_C", "mu_Gstar", "alpha_Gstar", "eps_Gstar", "eps_w"):
            if not np.isfinite(getattr(self, name)):
                return f"{name} is not finite, so no bound holds"
        estimates = [name for name, flag in self.flags.items() if flag == "estimate"]
        if self.vacuous:
            return "bound vacuous (alpha_Gstar >= 1)"
        if estimates:
            return f"{', '.join(estimates)} flagged estimate, so no bound holds"
        if self.kappa_c != 1:
            return "the feasible set is not convex (kappa_c != 1), so no bound holds"
        return None

    def to_text(self) -> str:
        """Flat key-value block, one ``name = value`` line per field."""
        lines = []
        for name in ("L", "mu_C", "mu_Gstar", "kappa_c", "alpha_Gstar",
                     "eps_Gstar", "eps_w"):
            value = getattr(self, name)
            if isinstance(value, float):
                lines.append(f"{name} = {value:.17g}")
            else:
                lines.append(f"{name} = {value}")
        lines.append(f"subset_size = {self.subset_size}")
        lines.append(f"cone = {self.cone_kind}")
        for name in ("L", "mu_C", "mu_Gstar", "eps_Gstar", "eps_w"):
            lines.append(f"flag.{name} = {self.flags[name]}")
        state = "vacuous" if self.vacuous else "none" if self.why_no_bound() else "active"
        lines.append(f"bound = {state}")
        return "\n".join(lines) + "\n"


def compute_alpha(mu: float, L: float, kappa_c: int) -> float:
    """Contraction factor ``kappa_c * sqrt(1 - mu / L)``."""
    if L <= 0:
        raise ValueError("L must be positive")
    if not 0 <= mu <= L:
        raise ValueError(f"mu must lie in [0, L], got mu={mu}, L={L}")
    if kappa_c not in (1, 2):
        raise ValueError("kappa_c must be 1 (convex) or 2 (nonconvex)")
    return kappa_c * float(np.sqrt(1.0 - mu / L))


def compute_eps_gstar(A: LinearMap, subset: SymmetricSubset,
                      x_dagger: np.ndarray, C: DescentCone) -> float:
    """Symmetry-mismatch term of the bound.

    For each subset action the ground truth is rotated, re-measured, and the
    discrepancy pulled back through the rotated adjoint; the result is the
    largest cone-projected norm over the subset.  Zero whenever every action
    fixes the ground truth.
    """
    mismatches = (A.forward(x_dagger - action.apply(x_dagger)) for action in subset)
    return _worst_pullback(A, subset, mismatches, C)


def compute_eps_w(A: LinearMap, subset: SymmetricSubset, w: np.ndarray,
                  C: DescentCone) -> float:
    """Noise amplification term, normalized by the noise norm (0 for w = 0)."""
    w_norm = float(np.linalg.norm(w))
    if w_norm == 0.0:
        return 0.0
    return _worst_pullback(A, subset, [w] * len(subset), C) / w_norm


def _worst_pullback(A: LinearMap, subset: SymmetricSubset, residuals,
                    C: DescentCone) -> float:
    """Largest ``||proj_C (A T_s)^T r_s||`` over the subset, ``r_s`` the residuals in turn."""
    norms = [np.linalg.norm(project_cone(C, rotated_adjoint(A, r, cells, A.cols)))
             for r, cells in zip(residuals, window_table(A, subset))]
    return float(np.max(norms))  # a NaN norm (non-finite residuals) stays NaN


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
    mu = float(x @ G_star.apply(x))
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
    subspace cone reads ``mu_C`` and ``mu_Gstar`` from ``k`` forward probes
    of its basis, through the identity and through the subset
    (:func:`~grouppgd.constraint.subspace_min_eig`).  Every other cone takes
    the whole-space ``mu_C``, the bottom of the same spectrum, and averages
    the nonzeros of one probe of ``G = A^T A`` through the subset's
    permutations straight into block-tridiagonal storage in the folded
    order of ``problem.geometry`` (:func:`~grouppgd.linop.band_gram`); its
    whole-space ``mu_Gstar`` comes from one Lanczos run and one inertia
    check (:func:`_stack_min_eig`), flagged ``estimate`` when not certified.
    :class:`~grouppgd.linop.SizeCapError` is raised when the smaller side's
    Gram, or for such a cone the band, would hold more than
    ``linop.DENSE_CAP**2`` entries.
    """
    if cone is None:
        cone = descent_cone_of(problem.K, problem.x_dagger)
    A = problem.A
    eigvals = gram_eigvals(A)
    L = float(eigvals[-1])
    if cone.kind == "subspace":
        mu_C = subspace_min_eig(A, cone, [np.arange(A.cols)])
        mu_Gstar, certified = subspace_min_eig(A, cone, [T.permutation for T in subset]), True
    else:
        mu_C = max(float(eigvals[0]), 0.0)
        G_star = band_gram(A, subset, problem.geometry.folded_order, pad=L)
        mu_Gstar, certified = _stack_min_eig(G_star, L)
    kappa_c = problem.K.kappa_c
    # guard against round-off pushing the restricted eigenvalue past L
    if mu_Gstar > L * (1.0 + 1e-9):
        raise ValueError(
            f"restricted stack eigenvalue {mu_Gstar} exceeds L={L}; "
            "operator construction is inconsistent"
        )
    alpha = compute_alpha(min(mu_Gstar, L), L, kappa_c)
    eps_gstar = compute_eps_gstar(A, subset, problem.x_dagger, cone)
    eps_w = compute_eps_w(A, subset, problem.w, cone)
    mu_flag = "relaxed" if cone.kind == "box" or not cone.exact else "exact"
    eps_flag = "exact" if cone.exact else "relaxed"
    flags = {
        "L": "exact",
        "mu_C": mu_flag,
        "mu_Gstar": mu_flag if certified else "estimate",
        "eps_Gstar": eps_flag,
        "eps_w": eps_flag,
    }
    return CertificateReport(
        L=L, mu_C=mu_C, mu_Gstar=mu_Gstar, kappa_c=kappa_c,
        alpha_Gstar=alpha, eps_Gstar=eps_gstar, eps_w=eps_w, flags=flags,
        subset_size=len(subset), cone_kind=cone.kind,
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
    tail = report.kappa_c * (1.0 - alpha_pow) / (report.L * (1.0 - alpha)) * drive
    return alpha_pow * rmsd0 + tail


def bound_limit(report: CertificateReport, w_norm: float) -> float:
    """Large-iteration limit of :func:`bound_curve`."""
    if report.vacuous:
        raise BoundVacuousError(
            f"alpha_Gstar = {report.alpha_Gstar} is not below 1"
        )
    drive = report.eps_Gstar + report.eps_w * w_norm
    return report.kappa_c * drive / (report.L * (1.0 - report.alpha_Gstar))


@dataclass(frozen=True)
class DominationReport:
    """Outcome of checking the bound against an empirical mean curve.

    ``margins[i] = bound[i] * (1 + slack) - empirical_mean[i]``; the check
    passes when every margin is nonnegative.  ``first_violation`` is the
    iteration index of the first negative margin, or None.
    """

    iterations: np.ndarray
    empirical_mean: np.ndarray
    bound: np.ndarray
    margins: np.ndarray
    slack: float
    replicates: int
    ok: bool
    first_violation: int | None
    certificate: CertificateReport

    def table(self) -> str:
        """Per-iteration margin table as CSV-like text."""
        lines = ["iter,empirical_mean,bound,margin"]
        for k, m, b, g in zip(self.iterations, self.empirical_mean,
                              self.bound, self.margins):
            lines.append(f"{k},{m:.17g},{b:.17g},{g:.17g}")
        return "\n".join(lines) + "\n"


def verify_bound(problem: ProblemInstance, subset: SymmetricSubset,
                 config: SolverConfig, replicates: int = 20,
                 slack: float | None = None,
                 cone: DescentCone | None = None) -> DominationReport:
    """Empirically check the bound: mean distance over replicates vs curve.

    It needs a replicate (checked before certifying) and the certified
    regime (:meth:`CertificateReport.why_no_bound`): it raises
    :class:`BoundVacuousError` for a vacuous certificate and ``ValueError``
    for any other certificate that gives no bound.  The step size is forced
    to the certificate's ``1/L`` so the runs match the certified regime, and
    the default slack ``2/sqrt(replicates)`` absorbs Monte Carlo error.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    report = certify(problem, subset, cone=cone)
    why = report.why_no_bound()
    if why is not None:
        raise (BoundVacuousError if report.vacuous else ValueError)(why)
    if slack is None:
        slack = 2.0 / np.sqrt(replicates)
    run_config = SolverConfig(
        max_iters=config.max_iters,
        step_size=1.0 / report.L,
        seed=config.seed,
        record_every=config.record_every,
    )
    iterations, mean_rmsd, _ = run_ensemble(problem, run_config, subset, replicates)
    rmsd0 = mean_rmsd[0]
    w_norm = float(np.linalg.norm(problem.w))
    full_curve = bound_curve(report, rmsd0, w_norm, int(iterations[-1]))
    bound = full_curve[iterations]
    allowed = bound * (1.0 + slack)
    margins = allowed - mean_rmsd
    violations = np.nonzero(margins < 0)[0]
    first = int(iterations[violations[0]]) if len(violations) else None
    return DominationReport(
        iterations=iterations,
        empirical_mean=mean_rmsd,
        bound=bound,
        margins=margins,
        slack=float(slack),
        replicates=replicates,
        ok=len(violations) == 0,
        first_violation=first,
        certificate=report,
    )
