"""The Gelfand-Zeitlin function family on towers.

The observables are ``f_{ij}(X) = tr(X_i^j)`` for ``1 <= j <= i``, where
``X_i`` is the level-i corner.  Their trace-form gradients are
``j * X_i^(j-1)`` and their Hamiltonian fields under the Lie-Poisson
bracket are ``-[j X_i^(j-1), X]``; the family Poisson-commutes.

The batch checks read the whole family from one :class:`PowerTable`:
every trace, every gradient, and the bracket of every pair, which is
evaluated at the top level because embedding a gradient is exact.
:func:`stack_traces` reads the traces of a whole stack of towers, such
as the points of one flow at several times, with the same formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import bracket_matrix, embed, mat_pow
from .tower import Tower

__all__ = [
    "GZIndex",
    "gz_indices",
    "gz_grad",
    "PowerTable",
    "power_table",
    "stack_traces",
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


@dataclass(frozen=True, eq=False)
class PowerTable:
    """The powers of every level of one tower, each formed once.

    The table is ragged: ``powers[i - 1]`` is an ``(i, i, i)`` stack of
    ``X_i^0, ..., X_i^(i-1)``.  Every generator ``j X_i^(j-1)``, the whole
    bracket matrix of the family and its level-by-level pairings read off
    it, so batch checks pay for the powers once per tower instead of once
    per observable or pair.  Traces come from :func:`stack_traces`, the one
    trace formula for a single tower and a stack alike.  Build the table
    with :func:`power_table`.
    """

    top: np.ndarray
    powers: tuple[np.ndarray, ...]

    def traces(self) -> np.ndarray:
        """Every ``tr(X_i^j)``, in :func:`gz_indices` order."""
        return stack_traces(self.top[None])[0]

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

    def level_pairings(self) -> list[np.ndarray]:
        """Every pair of :func:`gz_indices` paired at the deeper of its two levels.

        Block ``k - 1`` holds ``tr(X_k [G_b, G_a])``, with one row for each
        generator G_b of level k and one column for each generator G_a of
        level ``<= k``, from one GEMM of ``vec([X_k, G_b])`` against
        ``vec(G_a^T)``.  These are the rows of level k of
        :meth:`bracket_matrix` up to its diagonal block, paired at X_k
        instead of X_N.
        """
        gens = self.generators()
        stacks = [
            np.stack(gens[i * (i - 1) // 2 : i * (i + 1) // 2])
            for i in range(1, len(self.powers) + 1)
        ]
        blocks = []
        for k, G in enumerate(stacks, 1):
            X = self.top[:k, :k]
            m = k * (k + 1) // 2
            right = np.zeros((m, k, k), dtype=np.complex128)
            for i, Gi in enumerate(stacks[:k], 1):
                first = i * (i - 1) // 2
                right[first : first + i, :i, :i] = Gi.transpose(0, 2, 1)
            left = X @ G - G @ X
            blocks.append(left.reshape(k, k * k) @ right.reshape(m, k * k).T)
        return blocks


def power_table(T: Tower) -> PowerTable:
    """Build the :class:`PowerTable` of a tower, one product per power.

    Powers that overflow are left non-finite; every fold downstream lets
    NaN through, so they fail checks instead of printing warnings.
    """
    # One memory layout for every tower, so equal towers give bit-equal tables.
    top = np.ascontiguousarray(T.top)
    powers = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, T.depth + 1):
            X = top[:i, :i]
            P = np.empty((i, i, i), dtype=np.complex128)
            P[0] = np.eye(i)
            for k in range(1, i):
                np.matmul(P[k - 1], X, out=P[k])
            powers.append(P)
    return PowerTable(top=top, powers=tuple(powers))


def stack_traces(tops: np.ndarray) -> np.ndarray:
    """Every ``tr(X_i^j)`` of each tower of an (s, N, N) stack of tops.

    Row r holds the traces of ``tops[r]`` in :func:`gz_indices` order, bit
    for bit what a stack of that tower alone gives: numpy's stacked
    products run slice by slice.  Per level, a running power ``P <- P X_i``
    of the whole stack is read as ``tr(X_i^j) = tr(X_i^(j-1) X_i)``, so the
    highest power is never formed.  Values that overflow are left
    non-finite.
    """
    # One memory layout for every stack, so equal towers give bit-equal traces.
    tops = np.ascontiguousarray(tops)
    s, N = tops.shape[0], tops.shape[-1]
    out = np.empty((s, N * (N + 1) // 2), dtype=np.complex128)
    col = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, N + 1):
            X = tops[:, :i, :i]
            # Every power, X_i itself included, is a product from the identity,
            # as in power_table, so the two give the same powers bit for bit.
            P = np.broadcast_to(np.eye(i, dtype=np.complex128), X.shape)
            for j in range(1, i + 1):
                # einsum rather than a BLAS product: OpenBLAS wakes its
                # threads even for these small products, and on two cores
                # that made the depth-16 conserve check five times slower.
                out[:, col] = np.einsum("sab,sba->s", P, X)
                col += 1
                if j < i:
                    P = P @ X
    return out
