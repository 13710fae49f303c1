"""The Gelfand-Zeitlin function family on towers.

The observables are ``f_{ij}(X) = tr(X_i^j)`` for ``1 <= j <= i``, where
``X_i`` is the level-i corner.  Their trace-form gradients are
``j * X_i^(j-1)`` and their Hamiltonian fields under the Lie-Poisson
bracket are ``-[j X_i^(j-1), X]``; the family Poisson-commutes.

The bracket of two observables pulled back from different levels is
evaluated at the deeper of the two levels; the same formula at a
different level is a different function, so ``SmoothFn`` carries its
level explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .matcore import bracket_matrix, commutator, corner, embed, mat_pow, trace_pair
from .tower import Tower, TowerTangent

__all__ = [
    "GZIndex",
    "SmoothFn",
    "gz_indices",
    "gz_fn",
    "gz_eval",
    "gz_grad",
    "gz_hamiltonian",
    "PowerTable",
    "power_table",
    "fd_gradient",
    "poisson_bracket",
    "fn_product",
    "linear_fn",
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


@dataclass(frozen=True)
class SmoothFn:
    """An observable pulled back from a finite level.

    ``eval`` receives the level-sized corner matrix.  ``grad``, when
    present, returns the trace-form gradient at the same level and must
    agree with finite differences.
    """

    level: int
    eval: Callable[[np.ndarray], complex]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""


def gz_fn(idx: GZIndex) -> SmoothFn:
    """The observable tr(X_i^j) as a SmoothFn with analytic gradient."""
    i, j = idx.i, idx.j
    return SmoothFn(
        level=i,
        eval=lambda Xi: complex(np.trace(mat_pow(Xi, j))),
        grad=lambda Xi: j * mat_pow(Xi, j - 1),
        name=f"f[{i},{j}]",
    )


def gz_eval(T: Tower, idx: GZIndex) -> complex:
    """tr(X_i^j) on the tower."""
    if idx.i > T.depth:
        raise IndexError(f"index level {idx.i} exceeds tower depth {T.depth}")
    return complex(np.trace(mat_pow(T.level(idx.i), idx.j)))


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
        (a, b) is the Poisson bracket ``{f_a, f_b}`` that
        :func:`poisson_bracket` evaluates at the deeper of the two levels.
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


def fd_gradient(f: SmoothFn, T: Tower, n: int, h: float | None = None) -> np.ndarray:
    """Central-difference trace-form gradient of ``f`` at level n.

    Entry (k, l) is ``(f(X + h E_lk) - f(X - h E_lk)) / (2h)`` so that
    ``trace_pair(fd_gradient, Z)`` approximates the directional
    derivative along Z.  Entries outside the function's own level are
    exactly zero because the observable only reads its corner.  The
    default step scales with the matrix norm to balance truncation
    against rounding.
    """
    if not f.level <= n <= T.depth:
        raise IndexError(f"need function level {f.level} <= n <= depth {T.depth}")
    X = T.level(n)
    if h is None:
        h = 1e-5 * (1.0 + float(np.linalg.norm(X)))
    m = f.level
    base = corner(X, m)
    grad_m = np.zeros((m, m), dtype=np.complex128)
    pert = base.copy()
    # Real steps suffice: the observables are holomorphic, so the real
    # directional derivative along E_lk equals the complex partial.
    for k in range(m):
        for l in range(m):
            orig = pert[l, k]
            pert[l, k] = orig + h
            fp = complex(f.eval(pert))
            pert[l, k] = orig - h
            fm = complex(f.eval(pert))
            pert[l, k] = orig
            grad_m[k, l] = (fp - fm) / (2.0 * h)
    return embed(grad_m, n)


def _gradient_at(f: SmoothFn, T: Tower, n: int, h: float | None) -> np.ndarray:
    if f.grad is not None:
        return embed(np.asarray(f.grad(T.level(f.level)), dtype=np.complex128), n)
    return fd_gradient(f, T, n, h)


def poisson_bracket(f: SmoothFn, g: SmoothFn, T: Tower, h: float | None = None) -> complex:
    """Lie-Poisson bracket ``{f, g}(X) = tr(X(n) [grad f, grad g])``.

    Evaluated at the deeper of the two levels, with analytic gradients
    when available and central differences otherwise.
    """
    n = max(f.level, g.level)
    if n > T.depth:
        raise IndexError(f"bracket level {n} exceeds tower depth {T.depth}")
    gf = _gradient_at(f, T, n, h)
    gg = _gradient_at(g, T, n, h)
    return trace_pair(T.level(n), commutator(gf, gg))


def fn_product(f: SmoothFn, g: SmoothFn) -> SmoothFn:
    """Pointwise product of observables, with analytic gradient if both have one."""
    n = max(f.level, g.level)

    def ev(Xn: np.ndarray) -> complex:
        return complex(f.eval(corner(Xn, f.level))) * complex(g.eval(corner(Xn, g.level)))

    if f.grad is None or g.grad is None:
        grad = None
    else:

        def grad(Xn: np.ndarray) -> np.ndarray:
            fx = complex(f.eval(corner(Xn, f.level)))
            gx = complex(g.eval(corner(Xn, g.level)))
            return embed(np.asarray(f.grad(corner(Xn, f.level))), n) * gx + embed(
                np.asarray(g.grad(corner(Xn, g.level))), n
            ) * fx

    return SmoothFn(level=n, eval=ev, grad=grad, name=f"({f.name})*({g.name})")


def linear_fn(A: np.ndarray) -> SmoothFn:
    """The linear observable ``X -> tr(A X)`` at level A.dim (gradient A)."""
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[0]
    return SmoothFn(
        level=n,
        eval=lambda Xn: trace_pair(A, Xn),
        grad=lambda Xn: A.copy(),
        name="linear",
    )
