"""Constraint sets, Euclidean projections, and descent cones.

All shipped constraint sets are closed and convex, so projections are unique
and nonexpansive and the projection contraction constant is 1.  ``project``
acts on the last axis: a stack of shape ``(..., dimension)`` is projected row
by row, each row with the same bits as its own 1-D call.  Descent cones
(the nonnegatively scaled feasible directions from an anchor point) come in
three representations:

* ``whole_space``: every direction feasible (anchor strictly interior), exact;
* ``subspace``: span of an orthonormal basis, exact;
* ``sampled``: a finite set of unit feasible directions, an approximation.

Quantities computed from sampled cones are estimates and are flagged as such
by the certificate layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import BandGram, LinearMap, DimensionMismatchError, gram_dense, gram_eigvals

__all__ = [
    "ConstraintSet",
    "Box",
    "Nonneg",
    "L1Ball",
    "Subspace",
    "DescentCone",
    "project_cone",
    "descent_cone_of",
    "restricted_min_eig",
    "gram_min_eig",
]

ANCHOR_TOL = 1e-10  # absolute membership tolerance for cone anchors


class ConstraintSet:
    """Base class for closed convex feasible sets."""

    dimension: int
    convex: bool = True

    @property
    def kappa_c(self) -> int:
        """Projection contraction constant: 1 for convex sets, 2 otherwise."""
        return 1 if self.convex else 2

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

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
        # the same bits as np.clip with these array bounds, NaN included, at
        # a third of its per-call cost
        out = np.maximum(self._check(x), self.lo)
        return np.minimum(out, self.hi, out=out)


class Nonneg(ConstraintSet):
    """The nonnegative orthant."""

    def __init__(self, dimension: int):
        self.dimension = dimension

    def project(self, x):
        return np.maximum(self._check(x), 0.0)


class L1Ball(ConstraintSet):
    """The l1 ball of a given radius, projected by sort-and-threshold."""

    def __init__(self, radius: float, dimension: int):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        self.dimension = dimension

    def project(self, x):
        x = self._check(x)
        a = np.abs(x)
        inside = a.sum(axis=-1, keepdims=True) <= self.radius
        # exact threshold: project |x| onto the simplex of size `radius`
        u = np.sort(a, axis=-1)[..., ::-1]
        css = np.cumsum(u, axis=-1) - self.radius
        above = u > css / np.arange(1, self.dimension + 1)
        rho = self.dimension - 1 - np.argmax(above[..., ::-1], axis=-1, keepdims=True)
        tau = np.take_along_axis(css, rho, axis=-1) / (rho + 1.0)
        return np.where(inside, x, np.sign(x) * np.maximum(a - tau, 0.0))


class Subspace(ConstraintSet):
    """A linear subspace given by an orthonormal basis (columns)."""

    def __init__(self, basis: np.ndarray):
        B = np.asarray(basis, dtype=float)
        if B.ndim != 2:
            raise ValueError("basis must be a 2-D array of columns")
        gram = B.T @ B
        if not np.allclose(gram, np.eye(B.shape[1]), atol=1e-12):
            raise ValueError("basis columns must be orthonormal to 1e-12")
        self.basis = B
        self.dimension = B.shape[0]

    def project(self, x):
        # stacked matrix-vector products keep each row's bits
        coeffs = np.matmul(self.basis.T, self._check(x)[..., None])
        return np.matmul(self.basis, coeffs)[..., 0]


@dataclass(frozen=True)
class DescentCone:
    """Nonnegatively scaled feasible directions from ``anchor`` into a set.

    ``kind`` is one of ``whole_space``, ``subspace`` (orthonormal ``basis``),
    or ``sampled`` (unit ``generators`` as rows).  Only the first two are
    exact representations.
    """

    anchor: np.ndarray
    kind: str
    basis: np.ndarray | None = None
    generators: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("whole_space", "subspace", "sampled"):
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if self.kind == "subspace" and self.basis is None:
            raise ValueError("subspace cone needs a basis")
        if self.kind == "sampled" and (
            self.generators is None or len(self.generators) == 0
        ):
            raise ValueError("sampled cone needs at least one generator")

    @property
    def dimension(self) -> int:
        return self.anchor.shape[0]

    @property
    def exact(self) -> bool:
        return self.kind != "sampled"


def project_cone(C: DescentCone, x: np.ndarray) -> np.ndarray:
    """Project ``x`` onto the descent cone.

    Exact for whole-space and subspace cones.  For sampled cones the result
    is the best projection onto any single generator ray, which lower-bounds
    the true cone projection norm.
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
    scores = C.generators @ x
    best = int(np.argmax(scores))
    return max(scores[best], 0.0) * C.generators[best]


def _unit_rows(directions: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(directions, axis=1)
    keep = norms > 1e-14
    return directions[keep] / norms[keep, None]


def _sampled_box_cone(K: Box, anchor, n_samples, rng) -> np.ndarray:
    gens = []
    # signed coordinate directions wherever they stay feasible
    for i in range(K.dimension):
        if anchor[i] < K.hi[i] - ANCHOR_TOL:
            e = np.zeros(K.dimension)
            e[i] = 1.0
            gens.append(e)
        if anchor[i] > K.lo[i] + ANCHOR_TOL:
            e = np.zeros(K.dimension)
            e[i] = -1.0
            gens.append(e)
    points = rng.uniform(K.lo, K.hi, size=(n_samples, K.dimension))
    gens.append(_unit_rows(points - anchor[None, :]))
    return np.vstack([np.atleast_2d(g) for g in gens])


def _sampled_l1_cone(K: L1Ball, anchor, n_samples, rng) -> np.ndarray:
    # random directions, scaled so the target points land inside the ball
    raw = rng.standard_normal((n_samples, K.dimension))
    l1 = np.maximum(np.abs(raw).sum(axis=1), 1e-300)
    fractions = rng.uniform(0.0, 1.0, size=n_samples)
    points = raw * (K.radius * fractions / l1)[:, None]
    return _unit_rows(points - anchor[None, :])


def descent_cone_of(K: ConstraintSet, anchor: np.ndarray, *, n_samples: int = 512,
                    seed: int = 0) -> DescentCone:
    """Build the descent cone of ``K`` at ``anchor``.

    Box anchors strictly inside every bound give the whole space; subspace
    sets give their own subspace; anchors with active box bounds, and
    boundary anchors of the l1 ball, get a seeded sampled representation
    (feasible directions toward random feasible points), which downstream
    consumers must treat as an estimate.
    """
    anchor = np.asarray(anchor, dtype=float)
    if not K.contains(anchor, tol=ANCHOR_TOL):
        raise ValueError("anchor is not a member of the constraint set")
    rng = np.random.default_rng(seed)
    if isinstance(K, Subspace):
        return DescentCone(anchor=anchor, kind="subspace", basis=K.basis)
    if isinstance(K, Box):
        interior = np.all(anchor > K.lo + ANCHOR_TOL) and np.all(
            anchor < K.hi - ANCHOR_TOL
        )
        if interior:
            return DescentCone(anchor=anchor, kind="whole_space")
        gens = _sampled_box_cone(K, anchor, n_samples, rng)
        return DescentCone(anchor=anchor, kind="sampled", generators=gens)
    if isinstance(K, Nonneg):
        if np.all(anchor > ANCHOR_TOL):
            return DescentCone(anchor=anchor, kind="whole_space")
        scale = max(1.0, 2.0 * float(anchor.max(initial=0.0)))
        box = Box(0.0, scale, K.dimension)
        gens = _sampled_box_cone(box, anchor, n_samples, rng)
        return DescentCone(anchor=anchor, kind="sampled", generators=gens)
    if isinstance(K, L1Ball):
        if np.abs(anchor).sum() < K.radius - ANCHOR_TOL:
            # strictly inside the ball: every direction is feasible
            return DescentCone(anchor=anchor, kind="whole_space")
        gens = _sampled_l1_cone(K, anchor, n_samples, rng)
        return DescentCone(anchor=anchor, kind="sampled", generators=gens)
    raise TypeError(f"no descent cone construction for {type(K).__name__}")


def restricted_min_eig(A: LinearMap, C: DescentCone) -> float:
    """Smallest value of ``||A v||^2 / ||v||^2`` over the descent cone.

    On the whole space this is the bottom of the exact spectrum of
    ``A^T A``, read from the Gram of the operator's smaller side
    (:func:`~grouppgd.linop.gram_eigvals`) and clipped at 0.  Subspace and
    sampled cones assemble the dense ``A^T A`` (refused above
    ``linop.DENSE_CAP`` columns) and hand it to :func:`gram_min_eig`.
    """
    if A.cols != C.dimension:
        raise DimensionMismatchError(
            f"operator has {A.cols} columns but cone lives in dimension {C.dimension}"
        )
    if C.kind == "whole_space":
        return max(float(gram_eigvals(A)[0]), 0.0)
    return gram_min_eig(gram_dense(A), C)


def gram_min_eig(G: np.ndarray | BandGram, C: DescentCone) -> float:
    """Smallest value of ``v^T G v / ||v||^2`` over a subspace or sampled cone.

    Subspace cones are exact (eigendecomposition of ``B^T G B``).  Sampled
    cones return the minimum of ``g^T G g`` over the stored unit
    generators, which is only an upper bound on the true restricted value.
    Both only multiply by ``G``, so ``G`` may be a
    :class:`~grouppgd.linop.BandGram`.  Whole-space cones are refused.
    """
    if C.kind == "whole_space":
        raise ValueError("gram_min_eig reads subspace and sampled cones only")
    if G.shape != (C.dimension, C.dimension):
        raise DimensionMismatchError(
            f"Gram has shape {G.shape} but cone lives in dimension {C.dimension}"
        )
    if C.kind == "subspace":
        B = C.basis
        return max(float(np.linalg.eigvalsh(B.T @ G @ B)[0]), 0.0)
    # blocks of generator rows keep the products far smaller than G
    gens = C.generators
    blocks = (gens[i:i + 256] for i in range(0, len(gens), 256))
    least = min(float(np.einsum("ij,ij->i", b @ G, b).min()) for b in blocks)
    return max(least, 0.0)
