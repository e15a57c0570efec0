"""Exact polar-grid rotations on signals, realized as permutations.

A :class:`GroupAction` is an orthogonal signal transform: applying it is a
gather ``x[perm]``, so norms and inner products are preserved bit-for-bit up
to reordering of additions.  An action holds one array, its permutation,
read-only: no path applies an inverse, and a subset lists each member's
inverse as another action.  The actions are circular shifts of the angular
index of a polar-grid image (:func:`polar_theta_shift`), an exact rotation
(no interpolation).  No program path applies one: a rotation meets the
operator only as the cells ``perm[window]`` of
:func:`~grouppgd.linop.window_table`.

A :class:`SymmetricSubset` is an ordered family of distinct actions, the
identity first, that holds the inverse of every member: all the certificate
and the solver need of it.  It need not be closed under composition, nor
drawn from one generator: :func:`symmetric_subset` builds the powers
{Id, g, g^-1, g^2, g^-2, ...} of one, and an angle reflection, a product of
generators or every rotation of an even angle count is a subset too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import _check_integer, _check_size

__all__ = [
    "GroupAction",
    "SymmetricSubset",
    "identity_action",
    "polar_theta_shift",
    "symmetric_subset",
    "sample_action",
]


@dataclass(frozen=True)
class GroupAction:
    """An exact permutation transform of length-``dimension`` signals.

    ``permutation`` is in gather form: ``apply(x)[..., i] == x[..., permutation[i]]``;
    the action moves the last axis, so a stack of signals rotates row by row.
    It keeps a read-only int64 copy of the permutation it is given.
    ``power`` describes the action: the exponent relative to the generator
    that produced it (0 for the identity, negative for inverses), an integer
    (a ``bool`` is not).  No check reads it; ``label`` names the action.
    """

    dimension: int
    permutation: np.ndarray
    power: int
    label: str = ""

    def __post_init__(self):
        _check_integer("power", self.power)
        perm = np.asarray(self.permutation)
        if perm.shape != (self.dimension,):
            raise ValueError(
                f"permutation has shape {perm.shape}, expected ({self.dimension},)"
            )
        if perm.dtype.kind not in "iu" or ((perm < 0) | (perm >= self.dimension)).any():
            raise ValueError("permutation is not a bijection")
        # a copy, so a write into the caller's array cannot undo the check
        perm = perm.astype(np.int64)
        perm.flags.writeable = False
        if np.bincount(perm).max(initial=0) > 1:
            raise ValueError("permutation is not a bijection")
        object.__setattr__(self, "permutation", perm)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.take(x, self.permutation, axis=-1)


def identity_action(d: int) -> GroupAction:
    return GroupAction(dimension=d, permutation=np.arange(d, dtype=np.int64),
                       power=0, label="id")


def polar_theta_shift(n_r: int, n_theta: int, s: int) -> GroupAction:
    """Rotate a polar-grid image by ``s`` angular steps.

    The signal layout is row-major with radius major and angle minor
    (index = r * n_theta + theta); the rotated image reads
    ``out(r, theta) = x(r, (theta - s) mod n_theta)``.  With ``n_r == 1``
    it is the circular shift that turns ``(1, 2, 3, 4)`` into ``(4, 1, 2, 3)``.
    ``s`` is an integer (a ``bool`` is not).
    """
    _check_integer("s", s)
    if n_r < 1 or n_theta < 1:
        raise ValueError("grid sizes must be at least 1")
    theta = np.arange(n_theta, dtype=np.int64)
    shifted = (theta - s) % n_theta
    rows = n_theta * np.arange(n_r, dtype=np.int64)[:, None]
    perm = (rows + shifted[None, :]).ravel()
    return GroupAction(dimension=n_r * n_theta, permutation=perm, power=s,
                       label=f"rot{s:+d}")


@dataclass(frozen=True)
class SymmetricSubset:
    """Ordered distinct actions of one dimension, the identity first, closed under inverses.

    Index 0 is the identity, no permutation is listed twice, and the inverse
    of every action, formed by composition (one scatter), is in the subset;
    anything else is refused (``ValueError``).  The ordering is the layout
    solver traces and certificates index.  ``radius`` (an integer; a
    ``bool`` is not) and ``generator_label`` describe how the subset was
    built, for example :func:`symmetric_subset`'s ``2 * radius + 1`` powers
    of one generator; no check reads them.
    """

    actions: tuple[GroupAction, ...]
    radius: int
    generator_label: str = "g"

    def __post_init__(self):
        _check_integer("radius", self.radius)
        if not self.actions:
            raise ValueError("subset must be nonempty")
        identity = np.arange(self.dimension)
        if not np.array_equal(self.actions[0].permutation, identity):
            raise ValueError("actions[0] must be the identity")
        dims = {a.dimension for a in self.actions}
        if len(dims) != 1:
            raise ValueError("all actions must share one dimension")
        seen: dict[int, list[np.ndarray]] = {}  # by hash, one copy of the bytes at a time
        for perm in (a.permutation for a in self.actions):
            twins = seen.setdefault(hash(perm.tobytes()), [])
            if any(np.array_equal(perm, twin) for twin in twins):
                # a generator of order n repeats itself past radius (n - 1) // 2
                raise ValueError("subset lists one permutation more than once")
            twins.append(perm)
        inverse = np.empty(self.dimension, dtype=np.int64)
        for i, action in enumerate(self.actions):
            inverse[action.permutation] = identity  # one scatter, in gather form
            twins = seen.get(hash(inverse.tobytes()), [])
            if not any(np.array_equal(inverse, twin) for twin in twins):
                raise ValueError(f"the inverse of action {i} {action.label!r} is not in the subset")

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    @property
    def dimension(self) -> int:
        return self.actions[0].dimension


def symmetric_subset(generator: GroupAction, radius: int) -> SymmetricSubset:
    """Build {Id, g, g^-1, g^2, g^-2, ...} up to ``+-radius`` from a generator;
    ``radius`` is a nonnegative integer (a ``bool`` is not).  Each action's
    ``power`` is its exponent and its ``label`` the generator's label raised
    to it.  A generator of order ``n`` repeats itself past radius
    ``(n - 1) // 2``, which is refused; the powers of a rotation of an even
    angle count miss the half turn, which a subset built by hand may list.

    ``2 * radius + 1`` permutations of more than ``linop.DENSE_CAP**2``
    entries in all are refused (:class:`~grouppgd.linop.SizeCapError`)
    before the first is built; those entries are all the subset holds.
    """
    _check_integer("radius", radius)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    d = generator.dimension
    _check_size((2 * radius + 1) * d,
                f"the subset's {2 * radius + 1} permutations of {d} cells")
    base = generator.label or "g"
    actions = [identity_action(d)]
    # g^k is g applied to g^(k-1), and g^-k is g^-1 applied to g^-(k-1)
    forward = backward = np.arange(d, dtype=np.int64)
    inverse = np.argsort(generator.permutation)
    for k in range(1, radius + 1):
        forward = generator.permutation[forward]
        backward = inverse[backward]
        for power, perm in ((k, forward), (-k, backward)):
            actions.append(GroupAction(dimension=d, permutation=perm, power=power,
                                       label=base if power == 1 else f"{base}^{power}"))
    return SymmetricSubset(actions=tuple(actions), radius=radius, generator_label=base)


def sample_action(subset: SymmetricSubset, rng: np.random.Generator):
    """Uniform draw over all actions (identity included); returns (action, index).

    The caller owns the generator state, so a fixed seed gives a fixed draw
    sequence.
    """
    idx = int(rng.integers(len(subset.actions)))
    return subset.actions[idx], idx
