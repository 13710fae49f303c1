"""The Gelfand-Zeitlin function family on towers.

The observables are ``f_{ij}(X) = tr(X_i^j)`` for ``1 <= j <= i``, where
``X_i`` is the level-i corner.  Their trace-form gradients are
``j * X_i^(j-1)`` and their Hamiltonian fields under the Lie-Poisson
bracket are ``-[j X_i^(j-1), X]``; the family Poisson-commutes.

The batch checks read the whole family from one :class:`PowerTable`:
every trace, every gradient, and a certificate for the bracket of every
pair.  Each gradient lies in the centralizer of its own level, so the
bracket of a pair, ``tr([X_k, G_b] G_a)`` at b's deeper level k, is
bounded by ``||G_a||_F ||[X_k, G_b]||_F``: one commutator norm per
generator, O(N^5) in all, stands for all O(N^4) pairs.
:func:`stack_traces` reads the traces of a whole stack of towers, such
as the points of one flow at several times, with the same running powers.
:func:`level_traces` reads those of one level by Paterson-Stockmeyer, in
about 2 sqrt(k) products instead of k, for stacks whose conditioning is
bounded, such as conserve's unit-speed flows: it multiplies two high
powers, so on a badly conditioned similarity its rounding grows with the
square of the condition number, where running powers grow with it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .matcore import tangent_values
from .tower import Tower

__all__ = [
    "GZIndex",
    "gz_indices",
    "PowerTable",
    "power_table",
    "level_traces",
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
    generator and the centralizer certificate of the family read off it,
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

    def residuals(self) -> tuple[np.ndarray, np.ndarray]:
        """The centralizer certificate of the family, in :func:`gz_indices` order.

        Returns ``(commutators, norms)``: ``||[X_k, G_b]||_F`` of every
        generator G_b of level k, the Frobenius norm of its
        :func:`tangent_values` at its own level, and ``||G_a||_F`` of every
        gradient.  For a pair a < b the bracket ``{f_b, f_a}`` is
        ``tr([X_k, G_b] G_a)`` at b's level k, G_a embedded into gl(k), so
        by Cauchy-Schwarz ``|{f_b, f_a}| <= norms[a] * commutators[b]``.
        Every G_b lies in the centralizer of X_k, so the bound is rounding.
        The norms are formed once per table, read-only; norms that overflow
        are non-finite.
        """
        return self._residuals

    @functools.cached_property
    def _residuals(self) -> tuple[np.ndarray, np.ndarray]:
        commutators = []
        with np.errstate(over="ignore", invalid="ignore"):
            for k, G in enumerate(self.gradients, 1):
                commutators.append(np.linalg.norm(tangent_values(self.top[:k, :k], G), axis=(1, 2)))
            norms = np.concatenate([np.linalg.norm(G, axis=(1, 2)) for G in self.gradients])
        commutators = np.concatenate(commutators)
        commutators.flags.writeable = False
        norms.flags.writeable = False
        return commutators, norms


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


# Bytes of powers :func:`level_traces` holds at once; a longer stack runs in
# chunks, so its memory does not grow with the stack.
_TRACE_CHUNK_BYTES = 1 << 22


def level_traces(X: np.ndarray) -> np.ndarray:
    """Every ``tr(X^j)``, j = 1..k, of each matrix of an (s, k, k) stack, by Paterson-Stockmeyer.

    The baby powers X^r, r <= m = ceil(sqrt(k)), and giant powers X^(qm)
    take about 2 sqrt(k) products; one batched GEMM of vec(X^(qm)) against
    vec((X^r)^T) gives every trace.  They agree with the running powers of
    :func:`stack_traces` to rounding that grows with ``||X^(qm)|| ||X^r||``,
    not bit for bit; row r is bit for bit that of ``X[r]`` alone, as numpy's
    stacked products run slice by slice.  Overflows are left non-finite.
    """
    s, k = X.shape[0], X.shape[-1]
    m = int(np.ceil(np.sqrt(k)))
    q = -(-k // m)
    step = max(1, _TRACE_CHUNK_BYTES // ((m + q) * k * k * 16))
    if s > step:
        return np.concatenate([level_traces(X[a : a + step]) for a in range(0, s, step)])
    baby = np.empty((m, s, k, k), dtype=np.complex128)  # slice r - 1 holds (X^r)^T
    giant = np.empty((q, s, k, k), dtype=np.complex128)  # slice q holds X^(qm)
    with np.errstate(over="ignore", invalid="ignore"):
        baby[0] = X.transpose(0, 2, 1)
        for r in range(1, m):
            np.matmul(baby[r - 1], baby[0], out=baby[r])
        giant[0] = np.eye(k)
        if q > 1:
            giant[1] = baby[-1].transpose(0, 2, 1)
        for i in range(2, q):
            np.matmul(giant[i - 1], giant[1], out=giant[i])
        # Entry (i, r) of a slice is tr(X^(im) X^(r+1)), so column im + r is tr(X^(im + r + 1)).
        vec_giant = giant.reshape(q, s, k * k).transpose(1, 0, 2)
        traces = vec_giant @ baby.reshape(m, s, k * k).transpose(1, 2, 0)
    return traces.reshape(s, q * m)[:, :k]


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
