"""The Gelfand-Zeitlin function family on towers.

The observables are ``f_{ij}(X) = tr(X_i^j)`` for ``1 <= j <= i``, where
``X_i`` is the level-i corner.  Their trace-form gradients are
``j * X_i^(j-1)`` and their Hamiltonian fields under the Lie-Poisson
bracket are ``-[j X_i^(j-1), X]``; the family Poisson-commutes.

The batch checks read the whole family from one :class:`PowerTable`:
every trace, every gradient, and the bracket of every pair, evaluated at
the deeper of its two levels: the glued form fixes it there, because the
trace against an embedded commutator only sees the matching corner.
:func:`stack_traces` reads the traces of a whole stack of towers, such
as the points of one flow at several times, with the same formula.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .matcore import embed_stack, tangent_values
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
    generator and the level-by-level pairings of the family read off it,
    so batch checks pay for the powers once per tower instead of once per
    observable or pair.  Traces come from
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

    def level_pairings(self) -> tuple[np.ndarray, ...]:
        """Every pair of :func:`gz_indices` paired at the deeper of its two levels.

        Block ``k - 1`` holds ``tr(X_k [G_b, G_a])``, the Poisson bracket
        ``{f_b, f_a}``, with one row for each generator G_b of level k and
        one column for each generator G_a of level ``<= k``: one GEMM per
        level, by :func:`_pairing_block`, against the gradients of levels
        ``<= k`` embedded into gl(k).  The blocks are formed once per table,
        read-only.
        """
        return self._level_pairings

    @functools.cached_property
    def _level_pairings(self) -> tuple[np.ndarray, ...]:
        blocks = []
        for k, G in enumerate(self.gradients, 1):
            block = _pairing_block(self.top[:k, :k], G, embed_stack(self.gradients[:k], k))
            block.flags.writeable = False
            blocks.append(block)
        return tuple(blocks)

    def pairs(self) -> np.ndarray:
        """``{f_b, f_a}`` of every pair ``a < b`` of :func:`gz_indices`, read once off the blocks.

        The pairs come in the ``np.tril_indices(m, -1)`` order of the m
        indices, b ascending, so the pairs among the first r indices are
        the first ``r (r - 1) / 2`` entries.
        """
        rows = []
        for k, block in enumerate(self.level_pairings(), 1):
            first = k * (k - 1) // 2
            rows += [row[: first + r] for r, row in enumerate(block)]
        return np.concatenate(rows)


def _pairing_block(X: np.ndarray, G: np.ndarray, embedded: np.ndarray) -> np.ndarray:
    """``tr(X [G_b, E_a])`` for every slice G_b of G and E_a of ``embedded``.

    X is n x n, G a stack of generators no larger than X, and ``embedded``
    an (m, n, n) stack.  ``tr(X [A, B]) = tr([X, A] B)`` is the dot product
    of ``vec([X, A]^T)`` with ``vec(B)``, so the block is one GEMM of the
    transposed :func:`tangent_values` of G at X against ``embedded``.
    Entries that overflow are left non-finite, without a warning.
    """
    n = X.shape[0]
    left = tangent_values(X, G).transpose(0, 2, 1).reshape(len(G), n * n)
    with np.errstate(over="ignore", invalid="ignore"):
        return left @ embedded.reshape(len(embedded), n * n).T


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
