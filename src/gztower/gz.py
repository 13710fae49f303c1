"""The Gelfand-Zeitlin function family on towers.

The observables are ``f_{ij}(X) = tr(X_i^j)`` for ``1 <= j <= i``, where
``X_i`` is the level-i corner.  Their trace-form gradients are
``j * X_i^(j-1)`` and their Hamiltonian fields under the Lie-Poisson
bracket are ``-[j X_i^(j-1), X]``; the family Poisson-commutes.

The batch checks read the whole family from one :class:`PowerTable`:
every trace, every gradient, and the bracket of every pair, which is
evaluated at the top level because embedding a gradient is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import bracket_matrix, embed, mat_pow
from .tower import Tower, TowerTangent

__all__ = [
    "GZIndex",
    "gz_indices",
    "gz_grad",
    "gz_hamiltonian",
    "PowerTable",
    "power_table",
]


@dataclass(frozen=True, order=True)
class GZIndex:
    """Index (i, j) of the observable tr(X_i^j), with 1 <= j <= i."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if not 1 <= self.j <= self.i:
            raise ValueError(f"invalid index ({self.i}, {self.j}): need 1 <= j <= i")


def gz_indices(depth: int, max_i: int | None = None) -> list[GZIndex]:
    """All indices (i, j) with 1 <= j <= i <= min(depth, max_i)."""
    top = depth if max_i is None else min(depth, max_i)
    return [GZIndex(i, j) for i in range(1, top + 1) for j in range(1, i + 1)]


def gz_grad(T: Tower, idx: GZIndex, n: int) -> np.ndarray:
    """Trace-form gradient ``embed(j * X_i^(j-1), n)`` of f_{ij} at level n."""
    if not idx.i <= n <= T.depth:
        raise IndexError(
            f"need index level {idx.i} <= n <= depth {T.depth}, got n={n}"
        )
    return embed(idx.j * mat_pow(T.level(idx.i), idx.j - 1), n)


def gz_hamiltonian(T: Tower, idx: GZIndex) -> TowerTangent:
    """Hamiltonian tangent of f_{ij}: value ``-[j X_i^(j-1), X(k)]`` at level k.

    The value at the base level itself vanishes to rounding (a polynomial
    in X_i commutes with X_i), matching the Casimir property of top-level
    observables.
    """
    if idx.i > T.depth:
        raise IndexError(f"index level {idx.i} exceeds tower depth {T.depth}")
    generator = idx.j * mat_pow(T.level(idx.i), idx.j - 1)
    return TowerTangent(tower=T, base_level=idx.i, generator=generator)


@dataclass(frozen=True, eq=False)
class PowerTable:
    """The powers of every level of one tower, each formed once.

    The table is ragged: ``powers[i - 1]`` is an ``(i, i, i)`` stack of
    ``X_i^0, ..., X_i^(i-1)``.  Every trace ``tr(X_i^j)``, every generator
    ``j X_i^(j-1)`` and the whole bracket matrix of the family read off it,
    so batch checks pay for the powers once per tower instead of once per
    observable or pair.  Build it with :func:`power_table`.
    """

    top: np.ndarray
    powers: tuple[np.ndarray, ...]

    def traces(self) -> np.ndarray:
        """Every ``tr(X_i^j)``, in :func:`gz_indices` order."""
        # tr(X_i^j) = tr(X_i^(j-1) X_i): the highest power is never formed.
        # einsum rather than a BLAS matrix-vector product: OpenBLAS wakes its
        # threads even for these small products, and on two cores that made
        # the depth-16 conserve check five times slower.
        return np.concatenate(
            [np.einsum("kab,ba->k", P, self.top[:i, :i]) for i, P in enumerate(self.powers, 1)]
        )

    def generators(self) -> list[np.ndarray]:
        """Every gradient ``j X_i^(j-1)`` at its own level i, in :func:`gz_indices` order."""
        return [j * P[j - 1] for P in self.powers for j in range(1, P.shape[0] + 1)]

    def bracket_matrix(self) -> np.ndarray:
        """``tr(X_N [grad f_a, grad f_b])`` for every pair of :func:`gz_indices`.

        Embedding both gradients into the top level is exact, so entry
        (a, b) is the Poisson bracket ``{f_a, f_b}`` evaluated at the
        deeper of the two levels.
        """
        return bracket_matrix(self.top, self.generators())


def power_table(T: Tower) -> PowerTable:
    """Build the :class:`PowerTable` of a tower, one product per power."""
    # One memory layout for every tower, so equal towers give bit-equal tables.
    top = np.ascontiguousarray(T.top)
    powers = []
    for i in range(1, T.depth + 1):
        X = top[:i, :i]
        P = np.empty((i, i, i), dtype=np.complex128)
        P[0] = np.eye(i)
        for k in range(1, i):
            np.matmul(P[k - 1], X, out=P[k])
        powers.append(P)
    return PowerTable(top=top, powers=tuple(powers))
