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

import functools
from dataclasses import dataclass

import numpy as np

from .matcore import bracket_matrix, embed_stack, tangent_values
from .tower import Tower

__all__ = [
    "GZIndex",
    "gz_indices",
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


def gz_indices(depth: int) -> list[GZIndex]:
    """All indices (i, j) with 1 <= j <= i <= depth."""
    return [GZIndex(i, j) for i in range(1, depth + 1) for j in range(1, i + 1)]


@dataclass(frozen=True, eq=False)
class PowerTable:
    """The gradients of every level of one tower, each formed once.

    The table is ragged and read-only: slice ``j - 1`` of the ``(i, i, i)``
    stack ``gradients[i - 1]`` is the gradient ``j X_i^(j-1)``.  Every
    generator, the whole bracket matrix of the family and its level-by-level
    pairings read off it, so batch checks pay for the powers once per tower
    instead of once per observable or pair.  Traces come from
    :func:`stack_traces`, the one trace formula for a single tower and a
    stack alike.  :func:`power_table` gives each tower its one table.
    """

    top: np.ndarray
    gradients: tuple[np.ndarray, ...]

    def traces(self) -> np.ndarray:
        """Every ``tr(X_i^j)``, in :func:`gz_indices` order."""
        return stack_traces(self.top[None])[0]

    def gradient(self, idx: GZIndex) -> np.ndarray:
        """The gradient ``j X_i^(j-1)`` of f_{ij} at its own level i, a read-only view."""
        if idx.i > len(self.gradients):
            raise IndexError(f"index level {idx.i} exceeds tower depth {len(self.gradients)}")
        return self.gradients[idx.i - 1][idx.j - 1]

    def generators(self) -> list[np.ndarray]:
        """Every gradient ``j X_i^(j-1)`` at its own level i, in :func:`gz_indices` order.

        They are read-only views of the stored stacks; overflows are non-finite.
        """
        return [G for stack in self.gradients for G in stack]

    def bracket_matrix(self) -> np.ndarray:
        """``tr(X_N [grad f_a, grad f_b])`` for every pair of :func:`gz_indices`.

        Embedding both gradients into the top level is exact, so entry
        (a, b) is the Poisson bracket ``{f_a, f_b}`` evaluated at the
        deeper of the two levels.  It is formed once per table, read-only.
        """
        return self._bracket

    @functools.cached_property
    def _bracket(self) -> np.ndarray:
        B = bracket_matrix(self.top, self.generators())
        B.flags.writeable = False
        return B

    def level_pairings(self) -> list[np.ndarray]:
        """Every pair of :func:`gz_indices` paired at the deeper of its two levels.

        Block ``k - 1`` holds ``tr(X_k [G_b, G_a])``, with one row for each
        generator G_b of level k and one column for each generator G_a of
        level ``<= k``, from one GEMM of the :func:`tangent_values` of the
        G_b at X_k against the :func:`embed_stack` of the ``G_a^T``.  These
        are the rows of level k of :meth:`bracket_matrix` up to its diagonal
        block, paired at X_k instead of X_N.
        """
        gens = self.generators()
        blocks = []
        for k in range(1, len(self.gradients) + 1):
            first, m = k * (k - 1) // 2, k * (k + 1) // 2
            left = tangent_values(self.top[:k, :k], gens[first:m]).reshape(k, k * k)
            right = embed_stack([G.T for G in gens[:m]], k).reshape(m, k * k)
            blocks.append(left @ right.T)
        return blocks


@functools.lru_cache(maxsize=1)
def power_table(T: Tower) -> PowerTable:
    """The one :class:`PowerTable` of a tower, one product per power.

    ``Tower`` compares by identity and its top is read-only, so the table
    of the last tower asked for is kept and returned again.  Gradients that
    overflow are left non-finite; every fold downstream lets NaN through,
    so they fail checks instead of printing warnings.
    """
    # One memory layout for every tower, so equal towers give bit-equal tables.
    top = np.ascontiguousarray(T.top)
    gradients = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, T.depth + 1):
            X = top[:i, :i]
            G = np.empty((i, i, i), dtype=np.complex128)
            G[0] = np.eye(i)
            for k in range(1, i):
                np.matmul(G[k - 1], X, out=G[k])
            # Slice k holds X^k; scaled in place, it becomes (k + 1) X^k.
            G *= np.arange(1, i + 1)[:, None, None]
            G.flags.writeable = False
            gradients.append(G)
    return PowerTable(top=top, gradients=tuple(gradients))


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
            # as in power_table, so both form the same powers bit for bit.
            P = np.broadcast_to(np.eye(i, dtype=np.complex128), X.shape)
            for j in range(1, i + 1):
                # tr(PX) is the sum of P_ab X_ba: no product is formed.
                out[:, col] = np.einsum("sab,sba->s", P, X)
                col += 1
                if j < i:
                    P = P @ X
    return out
