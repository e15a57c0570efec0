"""Convergence-certificate engine.

Computes every constant of the linear-rate bound for the group-action solver
and checks the bound against seeded Monte Carlo runs:

* ``L``: largest eigenvalue of the operator Gram ``G = A^T A`` (sets the
  step size), read exactly from the spectrum of the Gram of the smaller of
  the operator's rows and window cells, probed through the window maps
  (:func:`~grouppgd.linop.gram_eigvals`), as the solver's ``auto`` step is.
* ``mu_C``: smallest restricted eigenvalue of ``G``; the whole-space value
  comes from the same spectrum.
* ``mu_Gstar``: smallest restricted Gram eigenvalue of the RMS-normalized
  stack over the symmetric subset; this drives the contraction factor.
  Because every action ``T_g`` is an orthogonal permutation ``P_g``,
  ``(A T_g)^T (A T_g) = P_g^T G P_g``, so the stacked Gram is the mean of
  ``G`` permuted through the subset and costs no operator applications
  beyond one probe of ``G`` on the cells the operator reads.  It takes the
  band's one route (:func:`~grouppgd.linop.band_probe`: probe once, fill
  per use, factor where the fill lies) in the geometry's folded angle
  order, one angle column of ``n_r`` cells a block, and neither ``G`` nor
  the mean is built densely.  On the whole space its bottom eigenvalue
  comes from two band Cholesky factorizations, one band alive at a time:
  one Lanczos run on the solve with ``G_star + n u L I`` finds it, and a
  Cholesky of ``G_star - (mu_Gstar - n u L) I`` certifies it by
  Sylvester's law of inertia (Higham, *Accuracy and Stability of Numerical
  Algorithms*, Thm 10.5), so the enclosure is as narrow as ``eigvalsh``'s
  own backward error.  Only a certified value is flagged ``exact``; an uncertified
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
window maps and the subset through window-table rows: both terms, measured
in one pass, and the subspace probes read one table.  A map rebuilt from
``forward`` and ``adjoint`` alone reads every cell, so its table rows are
the permutations themselves and every caller of ``certify`` gets the same
bits.  No ``cols x cols`` array is built on any cone; one size rule refuses
(:class:`~grouppgd.linop.SizeCapError`) a probed smaller-side Gram or a
band of more than ``linop.DENSE_CAP**2`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import kernels
from .bench import ProblemInstance
from .constraint import DescentCone, descent_cone_of, project_cone, subspace_min_eig
from .linop import (BandProbe, DimensionMismatchError, LinearMap, band_probe, gram_eigvals,
                    window_table)
from .solver import SolverConfig, check_solve, mean_rmsd, solve
from .symmetry import SymmetricSubset

__all__ = [
    "CertificateReport",
    "DominationReport",
    "BoundVacuousError",
    "certify",
    "bound_curve",
    "bound_at",
    "bound_limit",
    "verify_bound",
]


_LANCZOS_SEED = 0  # a constant, never the clock or the problem seed
_LANCZOS_STEPS = 200
_LANCZOS_GROW = 16  # basis vectors allocated at a time
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


def _eps_terms(A: LinearMap, table: np.ndarray, x_dagger: np.ndarray, w: np.ndarray,
               C: DescentCone) -> tuple[float, float]:
    """The bound's two mismatch terms ``(eps_Gstar, eps_w)``, read through
    the subset's window ``table``.

    ``eps_Gstar``: each subset action's rotated ground truth is re-measured
    and the discrepancy pulled back through the rotated adjoint; the result
    is the largest cone-projected norm over the subset, zero whenever every
    action fixes the ground truth.  ``(x - T_s x)[c] = x[c] - x[perm_s[c]]``,
    so action ``s``'s residual is the window forward of ``x[window] -
    x[table[s]]``.  ``eps_w``: the noise pulled back the same way, normalized
    by the noise norm (0 for ``w = 0``).
    """
    x = np.asarray(x_dagger, dtype=float)
    mismatches = A.window_forward(x.take(A.window) - x.take(table))
    eps_Gstar = _worst_pullback(A, table, A.window_adjoint(mismatches), C)
    w_norm = float(np.linalg.norm(w))
    if w_norm == 0.0:
        return eps_Gstar, 0.0
    return eps_Gstar, _worst_pullback(A, table, A.window_adjoint(w), C) / w_norm


def _worst_pullback(A: LinearMap, table: np.ndarray, pulled: np.ndarray,
                    C: DescentCone) -> float:
    """Largest ``||proj_C (A T_s)^T r_s||``: ``pulled[s]`` (or ``pulled`` for
    every ``s``), the window adjoint of ``r_s``, added into table row ``s``'s cells."""
    norms = [np.linalg.norm(project_cone(C, kernels.scatter_add(cells, values, A.cols)))
             for cells, values in zip(table, np.broadcast_to(pulled, table.shape))]
    return float(np.max(norms))  # a NaN norm (non-finite residuals) stays NaN


def _check_dimensions(A: LinearMap, subset: SymmetricSubset, cone: DescentCone,
                      x_dagger: np.ndarray, w: np.ndarray) -> None:
    """Refuse a length that does not line up with ``A``: ``w``'s with its
    rows, the subset's, the cone's and ``x_dagger``'s with its columns."""
    shapes = [("subset", (subset.dimension,)), ("cone", (cone.dimension,)),
              ("x_dagger", np.shape(x_dagger)), ("w", np.shape(w))]
    for name, shape in shapes:
        side, length = ("rows", A.rows) if name == "w" else ("columns", A.cols)
        if shape != (length,):
            got = shape[0] if len(shape) == 1 else shape
            raise DimensionMismatchError(
                f"{name} dimension {got} does not match operator {side} {length}")


def _stack_min_eig(probe: BandProbe, L: float) -> tuple[float, bool]:
    """Smallest eigenvalue of the band stack Gram ``G_star`` that ``probe``
    fills, and whether it is certified.

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
    Algorithms*, Thm 10.5).  That theorem bounds Cholesky by substitution,
    and the band's factor forms its pivots' inverses
    (:meth:`~grouppgd.linop.BandGram.cholesky`), so the enclosure's proof
    does not yet cover the factor in use.  A certified ``mu_hat`` below
    ``slack`` cannot be told from 0 and reads 0.  Otherwise the result is
    the largest shift that factored, ``-slack``, clipped to 0.  Reruns give
    the same bits.

    One band-sized array is alive at a time: each factorization takes its
    own fill (:meth:`~grouppgd.linop.BandProbe.fill`), which its factor
    consumes, the Lanczos basis grows ``_LANCZOS_GROW`` vectors at a time as
    the run needs them, and the Rayleigh quotient and the inertia check read
    a second fill, made once the first factor and the basis are freed.
    """
    n = probe.size
    slack = n * np.finfo(float).eps / 2 * L
    solve = probe.fill().cholesky(-slack)
    if solve is None:
        return 0.0, False
    steps = min(_LANCZOS_STEPS, n)
    Q = np.zeros((min(_LANCZOS_GROW, steps), n))  # Q[-1] stands in for q_{-1} = 0
    q = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    Q[0] = q / np.linalg.norm(q)
    alphas, betas = [], [0.0]
    for j in range(steps):
        w = solve(Q[j])
        alphas.append(float(Q[j] @ w))
        w -= alphas[j] * Q[j] + betas[j] * Q[j - 1]
        w -= Q[: j + 1].T @ (Q[: j + 1] @ w)  # full reorthogonalization
        betas.append(float(np.linalg.norm(w)))
        off = np.diag(betas[1:-1], 1)
        theta, Y = np.linalg.eigh(np.diag(alphas) + off + off.T)
        if abs(betas[-1] * Y[-1, -1]) <= _LANCZOS_TOL * theta[-1] or j + 1 == steps:
            break
        if j + 1 == len(Q):  # the basis is full: copy it into a longer one
            grown = np.zeros((min(len(Q) + _LANCZOS_GROW, steps), n))
            grown[: len(Q)] = Q
            Q = grown
        Q[j + 1] = w / betas[-1]
    x = Q[: j + 1].T @ Y[:, -1]
    del solve, Q  # one band at a time: the inertia check fills its own
    x /= np.linalg.norm(x)
    G_star = probe.fill()
    mu = float(x @ (G_star @ x))
    if G_star.cholesky(mu - slack) is None:
        return 0.0, False
    return (mu if mu > slack else 0.0), True


def certify(problem: ProblemInstance, subset: SymmetricSubset,
            cone: DescentCone | None = None) -> CertificateReport:
    """Compute the full certificate for a problem and symmetric subset.

    The descent cone defaults to the cone of the feasible set at the ground
    truth.  ``L`` is the top of the exact spectrum of ``A^T A``, read from
    the Gram of the smaller of the operator's rows and window cells, probed
    through the window maps, so it is bitwise ``spectral_norm(A)`` and
    ``1/L`` is the solver's ``auto`` step.  A subspace cone reads ``mu_C``
    and ``mu_Gstar`` from ``k`` probes of its basis, through the operator's
    window and through the rows of the subset's
    :func:`~grouppgd.linop.window_table`
    (:func:`~grouppgd.constraint.subspace_min_eig`).  Every other cone takes
    the whole-space ``mu_C``, the bottom of the same spectrum, and probes
    ``G = A^T A`` once for the band of the subset's stack Gram in the
    folded order of ``problem.geometry``, one angle column of ``n_r`` cells
    a block (:func:`~grouppgd.linop.band_probe`); its whole-space
    ``mu_Gstar`` comes from one Lanczos run and one inertia check on two
    fills (:func:`_stack_min_eig`), flagged ``estimate`` when not certified.
    Both ``eps_*`` terms read the subset's one window table, made once
    ``L`` is read.  :class:`~grouppgd.linop.DimensionMismatchError` is
    raised before any probe for a subset, cone or ``x_dagger`` whose length
    is not ``A.cols`` and a ``w`` whose length is not ``A.rows``,
    ``ValueError`` for ``L = 0``, and :class:`~grouppgd.linop.SizeCapError`
    when the probed side's Gram, or for such a cone the band, would hold
    more than ``linop.DENSE_CAP**2`` entries.
    """
    if cone is None:
        cone = descent_cone_of(problem.K, problem.x_dagger)
    A = problem.A
    _check_dimensions(A, subset, cone, problem.x_dagger, problem.w)
    eigvals = gram_eigvals(A)
    L = float(eigvals[-1])
    if not L > 0:
        raise ValueError(f"L must be positive, got L={L}")
    table = window_table(A, subset)
    if cone.kind == "subspace":
        mu_C = subspace_min_eig(A, cone, A.window[None])
        mu_Gstar, certified = subspace_min_eig(A, cone, table), True
    else:
        mu_C = max(float(eigvals[0]), 0.0)
        probe = band_probe(A, subset, problem.geometry.folded_order, problem.geometry.n_r)
        mu_Gstar, certified = _stack_min_eig(probe, L)
    # guard against round-off pushing the restricted eigenvalue past L
    if mu_Gstar > L * (1.0 + 1e-9):
        raise ValueError(
            f"restricted stack eigenvalue {mu_Gstar} exceeds L={L}; "
            "operator construction is inconsistent"
        )
    eps_Gstar, eps_w = _eps_terms(A, table, problem.x_dagger, problem.w, cone)
    return CertificateReport(
        L=L, mu_C=mu_C, mu_Gstar=mu_Gstar, eps_Gstar=eps_Gstar, eps_w=eps_w,
        certified=certified, subset_size=len(subset), cone_kind=cone.kind,
    )


def bound_curve(report: CertificateReport, rmsd0: float, w_norm: float,
                K: int) -> np.ndarray:
    """Evaluate the bound at iterations 0..K (inclusive, length K+1).

    Entry k is ``alpha^k * rmsd0`` plus the geometric accumulation of the
    mismatch and noise terms.  Requires ``alpha_Gstar < 1``; otherwise the
    geometric-sum form is invalid and :class:`BoundVacuousError` is raised.
    """
    drive = _bound_drive(report, w_norm)
    alpha = report.alpha_Gstar
    ks = np.arange(K + 1)
    alpha_pow = alpha ** ks
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
    return _bound_drive(report, w_norm) / (report.L * (1.0 - report.alpha_Gstar))


def _bound_drive(report: CertificateReport, w_norm: float) -> float:
    """The bound's drive ``eps_Gstar + eps_w * w_norm``; refused
    (:class:`BoundVacuousError`) unless ``alpha_Gstar < 1``."""
    if report.vacuous:
        raise BoundVacuousError(f"alpha_Gstar = {report.alpha_Gstar} is not below 1")
    return report.eps_Gstar + report.eps_w * w_norm


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

    It needs at least one replicate, an integer count, and a solve within
    the size rule (:func:`~grouppgd.solver.check_solve`, asked before
    certifying), and then the certified regime
    (:meth:`CertificateReport.why_no_bound`): it raises
    :class:`BoundVacuousError` when the reason is the vacuous rate and
    ``ValueError`` for any other reason.  The runs are the group chains
    alone at the certificate's step ``1/L``, with no objective recorded
    (:func:`~grouppgd.solver.solve` with ``objective=False`` and
    ``plain=False``), and the slack ``2/sqrt(replicates)`` absorbs Monte
    Carlo error.
    """
    check_solve(problem, config, subset, replicates, objective=False, plain=False)
    report = certify(problem, subset)
    why = report.why_no_bound()
    if why is not None:
        raise (BoundVacuousError if why == _VACUOUS else ValueError)(why)
    run_config = replace(config, step_size=1.0 / report.L)
    traces = solve(problem, run_config, subset, replicates, objective=False, plain=False)
    iterations, mean = traces[0].iterations, mean_rmsd(traces)
    return DominationReport(
        iterations=iterations,
        empirical_mean=mean,
        bound=bound_at(report, problem, mean[0], iterations),
        replicates=replicates,
        certificate=report,
    )
