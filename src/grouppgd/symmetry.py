"""Exact cyclic group actions on signals, realized as permutations.

A :class:`GroupAction` is an orthogonal signal transform: applying it is a
gather ``x[perm]``, so norms and inner products are preserved bit-for-bit up
to reordering of additions.  An action holds one array, its permutation,
read-only: no path applies an inverse, and a subset lists each member's
inverse as another action.  The actions used by the solver are circular
shifts of the angular index of a polar-grid image, for which rotation is
exact (no interpolation), keeping the convergence analysis literally
checkable.

A :class:`SymmetricSubset` is the ordered family {Id, g, g^-1, g^2, g^-2, ...}
drawn from a single generator: it contains the identity and the inverse of
every member but need not be closed under composition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import _check_size

__all__ = [
    "GroupAction",
    "SymmetricSubset",
    "identity_action",
    "cyclic_shift_action",
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
    ``power`` is the exponent of this action relative to the generator that
    produced it (0 for the identity, negative for inverses).
    """

    dimension: int
    permutation: np.ndarray
    power: int
    label: str = ""

    def __post_init__(self):
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


def cyclic_shift_action(d: int, s: int) -> GroupAction:
    """Circular shift moving entry ``i`` to position ``(i + s) mod d``.

    Equivalently ``apply(x)[i] == x[(i - s) mod d]``; shifting by 1 turns
    ``(1, 2, 3, 4)`` into ``(4, 1, 2, 3)``.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    idx = np.arange(d, dtype=np.int64)
    perm = (idx - s) % d
    return GroupAction(dimension=d, permutation=perm, power=s, label=f"shift{s:+d}")


def polar_theta_shift(n_r: int, n_theta: int, s: int) -> GroupAction:
    """Rotate a polar-grid image by ``s`` angular steps.

    The signal layout is row-major with radius major and angle minor
    (index = r * n_theta + theta); the rotated image reads
    ``out(r, theta) = x(r, (theta - s) mod n_theta)``.  With ``n_r == 1``
    this is exactly :func:`cyclic_shift_action` on the angle axis.
    """
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
    """Ordered actions {Id, g, g^-1, ..., g^radius, g^-radius}.

    Index 0 is always the identity; size is ``2 * radius + 1``, all distinct
    permutations.  The ordering is the canonical layout consumed by solver
    traces and certificates.
    """

    actions: tuple[GroupAction, ...]
    radius: int
    generator_label: str = "g"

    def __post_init__(self):
        if not self.actions:
            raise ValueError("subset must be nonempty")
        identity = np.arange(self.dimension)
        if not np.array_equal(self.actions[0].permutation, identity):
            raise ValueError("actions[0] must be the identity")
        dims = {a.dimension for a in self.actions}
        if len(dims) != 1:
            raise ValueError("all actions must share one dimension")
        if len({a.permutation.tobytes() for a in self.actions}) != len(self.actions):
            # a generator of order n repeats itself past radius (n - 1) // 2
            raise ValueError("subset lists one permutation more than once")
        powers = sorted(a.power for a in self.actions)
        expected = sorted(range(-self.radius, self.radius + 1))
        if powers != expected:
            raise ValueError(
                f"subset powers {powers} are not exactly 0..+-{self.radius}"
            )
        by_power = {a.power: a for a in self.actions}
        for p, action in by_power.items():
            mate = by_power[-p]
            if not np.array_equal(mate.permutation[action.permutation], identity):
                raise ValueError(f"action with power {-p} is not the inverse of power {p}")

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    @property
    def dimension(self) -> int:
        return self.actions[0].dimension


def symmetric_subset(generator: GroupAction, radius: int) -> SymmetricSubset:
    """Build {Id, g, g^-1, g^2, g^-2, ...} up to ``+-radius`` from a generator.

    ``2 * radius + 1`` permutations of more than ``linop.DENSE_CAP**2``
    entries in all are refused (:class:`~grouppgd.linop.SizeCapError`)
    before the first is built; those entries are all the subset holds.
    """
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
