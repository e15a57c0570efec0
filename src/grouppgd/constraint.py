"""Constraint sets, Euclidean projections, and descent cones.

All shipped constraint sets are closed and convex, so projections are unique
and nonexpansive and the projection contraction constant is 1.  ``project``
acts on the last axis: a stack of shape ``(..., dimension)`` is projected row
by row, each row with the same bits as its own 1-D call.  Descent cones
(the nonnegatively scaled feasible directions from an anchor point) come in
three representations, each projected exactly:

* ``whole_space``: every direction (anchor strictly interior);
* ``subspace``: span of an orthonormal basis;
* ``box``: ``v_i >= 0`` where the anchor sits on a lower bound and
  ``v_i <= 0`` where it sits on an upper one, projected by clipping.

The least Rayleigh quotient over a box cone is a copositivity problem, hard
in general, so curvature on a box cone is read from the whole space, a lower
bound; the certificate layer flags such constants ``relaxed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import LinearMap, DimensionMismatchError, gram_eigvals

__all__ = [
    "ConstraintSet",
    "Box",
    "Subspace",
    "DescentCone",
    "project_cone",
    "descent_cone_of",
    "restricted_min_eig",
    "subspace_min_eig",
]

ANCHOR_TOL = 1e-10  # absolute membership tolerance for cone anchors


class ConstraintSet:
    """Base class for closed convex feasible sets."""

    dimension: int

    def contains(self, x: np.ndarray, tol: float = ANCHOR_TOL) -> bool:
        x = self._check(x)
        if x.ndim != 1:
            raise DimensionMismatchError(f"contains takes one vector, got shape {x.shape}")
        return bool(np.linalg.norm(self.project(x) - x) <= tol)

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.dimension:
            raise DimensionMismatchError(
                f"expected a last axis of length {self.dimension}, got shape {x.shape}"
            )
        return x


class Box(ConstraintSet):
    """Componentwise bounds ``lo <= x <= hi`` (scalars broadcast)."""

    def __init__(self, lo, hi, dimension: int):
        self.dimension = dimension
        self.lo = np.broadcast_to(np.asarray(lo, dtype=float), (dimension,)).copy()
        self.hi = np.broadcast_to(np.asarray(hi, dtype=float), (dimension,)).copy()
        if not np.all(self.lo < self.hi):
            raise ValueError("box requires lo < hi componentwise")

    def project(self, x):
        # NaN stays NaN and -0.0 at a bound of 0.0 gives 0.0 (np.clip can keep
        # -0.0, and does with scalar bounds), at about half np.clip's per-call cost
        out = np.maximum(self._check(x), self.lo)
        return np.minimum(out, self.hi, out=out)


class Subspace(ConstraintSet):
    """A linear subspace given by an orthonormal basis (columns)."""

    def __init__(self, basis: np.ndarray):
        self.basis = _orthonormal(basis)
        self.dimension = self.basis.shape[0]

    def project(self, x):
        # stacked matrix-vector products keep each row's bits
        coeffs = np.matmul(self.basis.T, self._check(x)[..., None])
        return np.matmul(self.basis, coeffs)[..., 0]


def _orthonormal(basis) -> np.ndarray:
    """``basis`` as a float array, refused unless its columns are orthonormal."""
    B = np.asarray(basis, dtype=float)
    if B.ndim != 2:
        raise ValueError("basis must be a 2-D array of columns")
    if not np.allclose(B.T @ B, np.eye(B.shape[1]), atol=1e-12):
        raise ValueError("basis columns must be orthonormal to 1e-12")
    return B


@dataclass(frozen=True)
class DescentCone:
    """Nonnegatively scaled feasible directions from ``anchor`` into a set.

    ``kind`` is one of ``whole_space``, ``subspace`` (orthonormal ``basis``),
    or ``box`` (direction bounds ``lo <= v <= hi``, each entry 0 or
    infinite).  The anchor is kept as a float array, refused unless it is
    one vector, and a subspace cone's basis as the float array it checked.
    """

    anchor: np.ndarray
    kind: str
    basis: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=float))
        if self.anchor.ndim != 1:
            raise DimensionMismatchError(
                f"a cone's anchor must be one vector, got shape {self.anchor.shape}")
        if self.kind not in ("whole_space", "subspace", "box"):
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if self.kind == "subspace":
            object.__setattr__(self, "basis", _orthonormal(self.basis))
            if self.basis.shape[0] != self.dimension:
                raise DimensionMismatchError("subspace cone's basis and anchor differ in length")
        if self.kind == "box":
            if self.lo is None or self.hi is None:
                raise ValueError("box cone needs direction bounds lo and hi")
            shapes = np.shape(self.lo), np.shape(self.hi)
            if shapes != ((self.dimension,),) * 2:
                raise DimensionMismatchError(
                    f"box cone's bounds have shapes {shapes}, not {(self.dimension,)}")
            if not (np.isin(self.lo, (0, -np.inf)).all() and np.isin(self.hi, (0, np.inf)).all()):
                raise ValueError("box cone bounds must be lo in {0, -inf} and hi in {0, +inf}")

    @property
    def dimension(self) -> int:
        return self.anchor.shape[0]


def project_cone(C: DescentCone, x: np.ndarray) -> np.ndarray:
    """Project ``x`` onto the descent cone; exact for every kind.

    A box cone is a product of half-lines and lines, so its projection
    clips each coordinate to its direction bounds.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (C.dimension,):
        raise DimensionMismatchError(
            f"expected a vector of length {C.dimension}, got shape {x.shape}"
        )
    if C.kind == "whole_space":
        return x.copy()
    if C.kind == "subspace":
        return C.basis @ (C.basis.T @ x)
    return np.minimum(np.maximum(x, C.lo), C.hi)


def descent_cone_of(K: ConstraintSet, anchor: np.ndarray) -> DescentCone:
    """Build the descent cone of ``K`` at ``anchor``.

    Subspace sets give their own subspace.  A box anchor gives a ``box``
    cone, ``v_i >= 0`` where it sits on a lower bound and ``v_i <= 0`` where
    it sits on an upper one (within ``ANCHOR_TOL``, the nearer bound when
    both are that close), or the whole space when no bound is active.
    """
    if not K.contains(anchor, tol=ANCHOR_TOL):
        raise ValueError("anchor is not a member of the constraint set")
    if isinstance(K, Subspace):
        return DescentCone(anchor=anchor, kind="subspace", basis=K.basis)
    if not isinstance(K, Box):
        raise TypeError(f"no descent cone construction for {type(K).__name__}")
    below, above = anchor - K.lo, K.hi - anchor
    at_lo = (below <= ANCHOR_TOL) & (below <= above)
    at_hi = (above <= ANCHOR_TOL) & (above < below)
    if not (at_lo.any() or at_hi.any()):
        return DescentCone(anchor=anchor, kind="whole_space")
    return DescentCone(anchor=anchor, kind="box", lo=np.where(at_lo, 0.0, -np.inf),
                       hi=np.where(at_hi, 0.0, np.inf))


def restricted_min_eig(A: LinearMap, C: DescentCone) -> float:
    """Smallest value of ``||A v||^2 / ||v||^2`` over the descent cone, or a
    lower bound on it.

    A subspace cone reads it from ``k`` probes of its basis through the
    operator's window (:func:`subspace_min_eig`).  Every other cone reads
    the whole space, a lower bound on a box cone: the bottom of the exact
    spectrum of ``A^T A`` (:func:`~grouppgd.linop.gram_eigvals`), clipped at 0.
    """
    if A.cols != C.dimension:
        raise DimensionMismatchError(f"operator has {A.cols} columns, cone {C.dimension}")
    if C.kind == "subspace":
        return subspace_min_eig(A, C, A.window[None])
    return max(float(gram_eigvals(A)[0]), 0.0)


def subspace_min_eig(A: LinearMap, C: DescentCone, cells) -> float:
    """Smallest value of ``mean_g ||A v[perm_g]||^2 / ||v||^2`` over a subspace cone.

    Exact: the bottom eigenvalue of ``mean_g F_g F_g^T``, clipped at 0.
    ``F_g`` is ``A.window_forward`` on ``B[cells[g]].T``, C-contiguous as
    ``take`` lays it out, ``B`` the cone's basis and ``cells[g]`` a
    :func:`~grouppgd.linop.window_table` row ``perm_g[A.window]``.
    """
    if C.kind != "subspace":
        raise ValueError("subspace_min_eig reads subspace cones only")
    if A.cols != C.dimension:
        raise DimensionMismatchError(f"operator has {A.cols} columns, cone {C.dimension}")
    probes = [A.window_forward(C.basis.T.take(row, axis=-1)) for row in cells]
    gram = sum(F @ F.T for F in probes) / len(probes)
    return max(float(np.linalg.eigvalsh(gram)[0]), 0.0)
