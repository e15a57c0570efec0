"""Desk-scale problem generation.

Signals are images on an ``n_r x n_theta`` polar grid, raveled row-major
(radius major).  The forward operator measures a subset of grid angles: per
measured angle it emits ``rays_per_angle`` values, each a seed-determined
weighted sum over the full radial column at that angle and its circular
neighbors.  The weight tensor is indexed by *position in the angle list* and
drawn independently of the angle values, so the operator measuring a shifted
angle set is exactly the original operator composed with the matching grid
rotation; that algebraic identity is the whole point of the construction.

The forward model is deliberately abstract rather than a physically accurate
projector: it preserves the exact structure (orthogonal rotations that
commute with angle subsampling) that the solver's convergence certificate
needs, and experiment configs mirror realistic sparse-view measurement
ratios instead of scanner geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .constraint import Box, ConstraintSet
from .linop import LinearMap, _check_integer, _check_size, from_window
from .symmetry import polar_theta_shift

__all__ = [
    "Geometry",
    "ProblemInstance",
    "ring_phantom",
    "textured_phantom",
    "angle_subsampled_operator",
    "evenly_spaced_angles",
    "full_coverage_radius",
    "add_noise",
    "build_problem",
]

DEFAULT_OFFSETS = (-1, 0, 1)


@dataclass(frozen=True)
class Geometry:
    """Grid and measurement layout of a generated problem."""

    n_r: int
    n_theta: int
    angles: tuple[int, ...]
    rays_per_angle: int
    offsets: tuple[int, ...]

    def theta_shift(self, s: int):
        return polar_theta_shift(self.n_r, self.n_theta, s)

    @property
    def folded_order(self) -> np.ndarray:
        """Cells column by column in folded angle order ``0, n-1, 1, n-2, ...``.

        A measured angle couples only the angle columns within its offset
        span, cyclically.  Folding the angle axis places cyclic neighbours
        near each other, so a Gram of this operator, or of its rotations,
        taken in this order is banded (see :func:`~grouppgd.linop.band_probe`).
        """
        k = np.arange(self.n_theta)
        theta = np.where(k % 2 == 0, k // 2, self.n_theta - (k + 1) // 2)
        return (self.n_theta * np.arange(self.n_r)[None, :] + theta[:, None]).ravel()


@dataclass(frozen=True)
class ProblemInstance:
    """Ground truth, operator, observation, realized noise, and feasible set.

    ``w`` is stored as ``b - A(x_dagger)`` so the identity holds exactly.
    """

    x_dagger: np.ndarray
    A: LinearMap
    b: np.ndarray
    w: np.ndarray
    K: ConstraintSet
    geometry: Geometry

    @property
    def dimension(self) -> int:
        return self.x_dagger.shape[0]


def ring_phantom(n_r: int, n_theta: int, profile) -> np.ndarray:
    """Build a rotation-invariant image: ``x(r, theta) = profile[r]`` for all theta.

    The profile must lie in [0, 1] so the image is box-feasible.  Every
    angular shift fixes the result exactly.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.shape != (n_r,):
        raise ValueError(f"profile must have length {n_r}")
    if np.any(profile < 0.0) or np.any(profile > 1.0):
        raise ValueError("profile values must lie in [0, 1]")
    return np.repeat(profile, n_theta)


def default_ring_profile(n_r: int) -> np.ndarray:
    """Smooth radial bump with values strictly inside (0, 1)."""
    r = np.arange(n_r, dtype=float)
    center = (n_r - 1) / 2.0
    width = max(n_r / 6.0, 1.0)
    return 0.1 + 0.7 * np.exp(-0.5 * ((r - center) / width) ** 2)


def textured_phantom(n_r: int, n_theta: int, smoothness: int, seed,
                     lo: float = 0.05, hi: float = 0.95) -> np.ndarray:
    """Random nonnegative image band-limited in the angular direction.

    ``smoothness`` counts the retained angular harmonics (1 keeps only the
    rotation-invariant mode).  Fewer harmonics means small rotations move the
    image less, which is what keeps the symmetry-mismatch term small.  On
    ``n_theta`` angles only ``n_theta // 2 + 1`` harmonics are distinct, so
    more are refused.  Values are affinely mapped into [lo, hi], strictly
    inside the unit box.
    """
    if not 1 <= smoothness <= n_theta // 2 + 1:
        raise ValueError(f"smoothness must be in [1, {n_theta // 2 + 1}] on {n_theta} angles, "
                         f"got {smoothness}")
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    img = np.outer(rng.normal(size=n_r), np.ones(n_theta))
    for m in range(1, smoothness):
        img += np.outer(rng.normal(size=n_r), np.cos(m * theta))
        img += np.outer(rng.normal(size=n_r), np.sin(m * theta))
    span = img.max() - img.min()
    if span == 0.0:
        img = np.full((n_r, n_theta), 0.5 * (lo + hi))
    else:
        img = lo + (hi - lo) * (img - img.min()) / span
    return img.ravel()


def angle_subsampled_operator(n_r: int, n_theta: int, angles, rays_per_angle: int,
                              seed, offsets=DEFAULT_OFFSETS,
                              weight_kind: str = "signed") -> LinearMap:
    """Measurement operator sampling the given grid angles.

    Each measured angle contributes ``rays_per_angle`` rows; row values are
    weighted sums over the radial column at that angle and its circular
    neighbors (``offsets``).  Weights depend only on ``seed`` and the shapes
    (one slice per angle-list position), never on the angle values, so
    operators built from the same seed but shifted angle sets are exact
    rotations of each other: composed with the rotation by ``s``, the
    operator measures ``(a - s) mod n_theta`` for each ``a``, in the same
    order.  An angle or offset that is not an integer, or is a ``bool``, is
    refused (``TypeError``), not truncated, and a weight tensor of more than
    ``linop.DENSE_CAP**2`` entries (:class:`~grouppgd.linop.SizeCapError`)
    before it is drawn.  Each angle's rays read only that angle's window
    cells, so the map has one block per angle
    (:func:`~grouppgd.linop.from_window`), one in all when two angles'
    windows share a cell.  An empty grid (``n_r`` or ``n_theta`` below 1)
    is refused before anything else.
    """
    if n_r < 1 or n_theta < 1:
        raise ValueError("grid sizes must be at least 1")
    angles = tuple(a % n_theta for a in _integers("angle", angles))
    if len(angles) == 0:
        raise ValueError("angle set must be nonempty")
    if rays_per_angle < 1:
        raise ValueError("rays_per_angle must be at least 1")
    offsets = _integers("offset", offsets)
    _check_size(len(angles) * rays_per_angle * n_r * len(offsets),
                f"the weights of {len(angles)} angles x {rays_per_angle} rays")
    shape = (len(angles), rays_per_angle, n_r, len(offsets))
    rng = np.random.default_rng(seed)
    if weight_kind == "signed":
        weights = rng.uniform(-1.0, 1.0, size=shape)
    elif weight_kind == "nonneg":
        weights = rng.uniform(0.05, 1.0, size=shape)
    else:
        raise ValueError(f"unknown weight_kind {weight_kind!r}")
    cols = (np.asarray(angles, dtype=np.int64)[:, None]
            + np.asarray(offsets, dtype=np.int64)[None, :]) % n_theta
    weights_t = np.ascontiguousarray(np.moveaxis(weights, 1, 3))
    return from_window(
        rows=len(angles) * rays_per_angle,
        cols=n_r * n_theta,
        window=kernels.window_index(cols, n_r, n_theta),
        window_forward=lambda v: kernels.polar_window_forward(v, weights),
        window_adjoint=lambda y: kernels.polar_window_adjoint(y, weights_t),
        tag=f"polar[{len(angles)}x{rays_per_angle}]",
        blocks=len(angles),
    )


def evenly_spaced_angles(n_theta: int, fraction: float) -> tuple[int, ...]:
    """Evenly spread ``ceil(fraction * n_theta)`` angle indices."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    count = max(1, int(np.ceil(fraction * n_theta)))
    return tuple(int(i * n_theta // count) for i in range(count))


def full_coverage_radius(angles, n_theta: int) -> int:
    """Smallest shift radius whose shifted copies of ``angles`` cover every column.

    It is half the widest cyclic gap between the measured columns, rounded
    down; a repeated column adds a gap of 0, so the sorted columns are not
    thinned.  It can exceed ``(n_theta - 1) // 2``, the widest radius a
    symmetric subset holds: one angle of 8 gives 4, so take the smaller.
    An angle that is not an integer, or is a ``bool``, is refused
    (``TypeError``).
    """
    if n_theta < 1:
        raise ValueError("grid sizes must be at least 1")
    cols = np.sort(np.array(_integers("angle", angles), dtype=np.int64) % n_theta)
    if not cols.size:
        raise ValueError("angle set must be nonempty")
    return int(np.diff(cols, append=cols[0] + n_theta).max() // 2)


def _integers(name: str, values) -> tuple[int, ...]:
    """``values`` as a tuple of ints, each refused (``TypeError``) unless it
    is an integer; a ``bool`` is not one."""
    values = tuple(values)
    for value in values:
        _check_integer(name, value)
    return tuple(int(value) for value in values)


def add_noise(clean: np.ndarray, model: str, seed, *, sigma: float = 0.0,
              scale: float = 1.0):
    """Corrupt a clean measurement vector; returns ``(b, w)`` with ``w = b - clean``.

    ``gaussian`` adds ``sigma * z`` with standard normal ``z``; ``poisson``
    draws ``Poisson(scale * clean) / scale`` and therefore requires
    componentwise nonnegative measurements.  ``none`` returns the clean
    vector and a zero noise term.
    """
    clean = np.asarray(clean, dtype=float)
    rng = np.random.default_rng(seed)
    if model == "none":
        b = clean.copy()
    elif model == "gaussian":
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        b = clean + sigma * rng.standard_normal(clean.shape)
    elif model == "poisson":
        if scale <= 0:
            raise ValueError("scale must be positive")
        if np.any(clean < 0):
            raise ValueError("poisson noise requires nonnegative measurements")
        b = rng.poisson(scale * clean).astype(float) / scale
    else:
        raise ValueError(f"unknown noise model {model!r}")
    return b, b - clean


def build_problem(*, n_r: int = 32, n_theta: int = 64, angle_fraction: float = 0.25,
                  rays_per_angle: int = 32, phantom: str = "ring",
                  smoothness: int = 4, noise: str = "none", sigma: float = 0.01,
                  scale: float = 1e6, seed: int = 0, weight_kind: str = "signed",
                  offsets=DEFAULT_OFFSETS, angles=None) -> ProblemInstance:
    """Assemble a full problem instance with a box [0, 1] feasible set.

    Sub-seeds for the operator weights, the phantom, and the noise draw are
    derived from ``seed`` so the whole instance is reproducible from one
    integer.  ``angles`` overrides ``angle_fraction`` when given; an angle
    or offset that is not an integer, or is a ``bool``, is refused
    (``TypeError``), not truncated.  A signal of more than
    ``linop.DENSE_CAP**2`` entries is refused
    (:class:`~grouppgd.linop.SizeCapError`) before it is allocated, and so is
    the operator's weight tensor (:func:`angle_subsampled_operator`), which
    is built first; an empty grid (``n_r`` or ``n_theta`` below 1) is
    refused before anything else.
    """
    if n_r < 1 or n_theta < 1:
        raise ValueError("grid sizes must be at least 1")
    _check_size(n_r * n_theta, f"the signal of {n_r} x {n_theta} cells")
    root = np.random.SeedSequence(seed)
    op_seed, phantom_seed, noise_seed = root.spawn(3)
    if angles is None:
        angles = evenly_spaced_angles(n_theta, angle_fraction)
    else:
        angles = tuple(a % n_theta for a in _integers("angle", angles))
    offsets = _integers("offset", offsets)
    A = angle_subsampled_operator(n_r, n_theta, angles, rays_per_angle,
                                  op_seed, offsets=offsets,
                                  weight_kind=weight_kind)
    if phantom == "ring":
        x_dagger = ring_phantom(n_r, n_theta, default_ring_profile(n_r))
    elif phantom == "textured":
        x_dagger = textured_phantom(n_r, n_theta, smoothness, phantom_seed)
    else:
        raise ValueError(f"unknown phantom kind {phantom!r}")
    clean = A.forward(x_dagger)
    b, w = add_noise(clean, noise, noise_seed, sigma=sigma, scale=scale)
    K = Box(0.0, 1.0, n_r * n_theta)
    geometry = Geometry(n_r=n_r, n_theta=n_theta, angles=tuple(angles),
                        rays_per_angle=rays_per_angle, offsets=offsets)
    return ProblemInstance(x_dagger=x_dagger, A=A, b=b, w=w, K=K,
                           geometry=geometry)
