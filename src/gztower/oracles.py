"""Brute-force oracles for cross-checking the main modules.

These deliberately share no code with the operations they validate: the
GZ observable takes its powers with numpy's own ``matrix_power``, the
bracket oracle differentiates both observables numerically with its own
loops, the eigenvalue oracle goes through characteristic-polynomial
coefficients and simultaneous root iteration, the kernel oracle is a
full-pivot Gaussian elimination, and the Kronecker oracles answer the
strong-regularity and spectrum questions by a dense SVD of the full
operator on gl(n), which production code no longer forms.  The dense
action product multiplies every exponential factor of the abelian
action, zero parameters included; it shares only ``mat_exp`` and
``embed`` with the action, so the two must agree bit for bit.  Clarity
over speed; the root and Kronecker oracles are capped at test scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .action import AParams
from .matcore import DEFAULT_TOL, Tolerance, embed, mat_exp
from .tower import Tower

__all__ = [
    "ConvergenceError",
    "SmoothFn",
    "gz_observable",
    "central_gradient",
    "fd_poisson_bracket",
    "charpoly_coefficients",
    "charpoly_roots",
    "dense_kernel",
    "kron_is_regular",
    "kron_intersection_trivial",
    "kron_sylvester_singular",
    "kron_spectra_disjoint",
    "dense_action_product",
]

MAX_ORACLE_DIM = 8


class ConvergenceError(RuntimeError):
    """Root iteration failed to converge within the iteration budget."""


@dataclass(frozen=True)
class SmoothFn:
    """An observable pulled back from a finite level.

    ``eval`` receives the level-sized corner matrix.  The same formula at a
    different level is a different function, so the level is explicit.
    """

    level: int
    eval: Callable[[np.ndarray], complex]


def gz_observable(i: int, j: int) -> SmoothFn:
    """The GZ observable tr(X_i^j) as a :class:`SmoothFn`."""
    return SmoothFn(level=i, eval=lambda Xi: complex(np.trace(np.linalg.matrix_power(Xi, j))))


def central_gradient(fn: SmoothFn, X: np.ndarray, h: float | None = None) -> np.ndarray:
    """Central-difference trace-form gradient of ``fn`` at the square matrix X.

    Entry (k, l) is ``(f(X + h E_lk) - f(X - h E_lk)) / (2h)``, so that
    ``tr(G Z)`` approximates the directional derivative along Z.  Entries
    outside the function's own level are exactly zero because the
    observable only reads its corner.  The default step scales with the
    matrix norm to balance truncation against rounding.  Real steps
    suffice: the observables are holomorphic, so the real directional
    derivative along E_lk equals the complex partial.
    """
    n, m = X.shape[0], fn.level
    if h is None:
        h = 1e-5 * (1.0 + float(np.linalg.norm(X)))
    grad = np.zeros((n, n), dtype=np.complex128)
    pert = X[:m, :m].copy()
    for k in range(m):
        for l in range(m):
            orig = pert[l, k]
            pert[l, k] = orig + h
            fp = complex(fn.eval(pert))
            pert[l, k] = orig - h
            fm = complex(fn.eval(pert))
            pert[l, k] = orig
            grad[k, l] = (fp - fm) / (2.0 * h)
    return grad


def fd_poisson_bracket(
    f: SmoothFn, g: SmoothFn, T: Tower, h: float | None = None
) -> complex:
    """Lie-Poisson bracket ``tr(X [grad f, grad g])`` with *both* gradients by central differences.

    Evaluated at the deeper of the two levels, independent of any
    analytic gradient code path; this is the oracle the production
    bracket matrix is validated against.
    """
    n = max(f.level, g.level)
    if n > T.depth:
        raise IndexError(f"bracket level {n} exceeds tower depth {T.depth}")
    X = T.level(n)
    gf = central_gradient(f, X, h)
    gg = central_gradient(g, X, h)
    return complex(np.trace(X @ (gf @ gg - gg @ gf)))


def charpoly_coefficients(M: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients, highest power first.

    Faddeev-LeVerrier recursion: exactish at oracle scale.
    """
    M = np.asarray(M, dtype=np.complex128)
    n = M.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    Mk = np.eye(n, dtype=np.complex128)
    for k in range(1, n + 1):
        Mk = M @ Mk
        ck = -np.trace(Mk) / k
        coeffs[k] = ck
        Mk = Mk + ck * np.eye(n, dtype=np.complex128)
    return coeffs


def _durand_kerner(coeffs: np.ndarray, max_iter: int = 500, rtol: float = 1e-13) -> np.ndarray:
    """All roots of a monic polynomial by simultaneous (Weierstrass) iteration."""
    n = len(coeffs) - 1
    if n == 0:
        return np.array([], dtype=np.complex128)
    if n == 1:
        return np.array([-coeffs[1]], dtype=np.complex128)

    def p(z: np.ndarray) -> np.ndarray:
        acc = np.full_like(z, coeffs[0])
        for c in coeffs[1:]:
            acc = acc * z + c
        return acc

    radius = 1.0 + float(np.max(np.abs(coeffs[1:])))
    base = 0.4 + 0.9j
    z = radius * base ** np.arange(1, n + 1)
    for _ in range(max_iter):
        pz = p(z)
        diffs = z[:, None] - z[None, :]
        np.fill_diagonal(diffs, 1.0)
        denom = np.prod(diffs, axis=1)
        # Nudge coincident iterates apart rather than dividing by zero.
        bad = np.abs(denom) < 1e-300
        if np.any(bad):
            z = z + np.where(bad, 1e-8 * radius * (1 + 1j), 0.0)
            continue
        update = pz / denom
        z = z - update
        if np.max(np.abs(update)) <= rtol * (1.0 + np.max(np.abs(z))):
            return z
    raise ConvergenceError(f"root iteration did not converge in {max_iter} steps")


def charpoly_roots(M: np.ndarray) -> list[complex]:
    """Eigenvalue estimates via characteristic-polynomial root iteration.

    Test-scale diagnostic (dim <= 8) used to cross-check the
    Sylvester-operator spectrum test; not an eigensolver.
    """
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    if M.shape[0] > MAX_ORACLE_DIM:
        raise ValueError(f"oracle capped at dimension {MAX_ORACLE_DIM}")
    roots = _durand_kerner(charpoly_coefficients(M))
    return [complex(z) for z in roots]


def dense_kernel(matrix, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Kernel basis by full-pivot Gaussian elimination.

    Pivots below ``max(tol.abs, tol.rel * first_pivot)`` terminate the
    elimination; one kernel vector is produced per free column.  The
    threshold convention matches the SVD-based production kernel, the
    algorithm shares nothing with it.
    """
    A = np.array(matrix, dtype=np.complex128)
    if A.ndim != 2:
        raise ValueError("expected a 2D array")
    m, n = A.shape
    col_perm = list(range(n))
    rank = 0
    scale = None
    steps = min(m, n)
    for r in range(steps):
        sub = np.abs(A[r:, r:])
        p, q = np.unravel_index(int(np.argmax(sub)), sub.shape)
        pivot = abs(A[r + p, r + q])
        if scale is None:
            scale = pivot
        if pivot <= tol.threshold(scale):
            break
        if p:
            A[[r, r + p], :] = A[[r + p, r], :]
        if q:
            A[:, [r, r + q]] = A[:, [r + q, r]]
            col_perm[r], col_perm[r + q] = col_perm[r + q], col_perm[r]
        A[r + 1 :, r:] -= np.outer(A[r + 1 :, r] / A[r, r], A[r, r:])
        A[r + 1 :, r] = 0.0
        rank += 1

    basis: list[np.ndarray] = []
    for free in range(rank, n):
        x = np.zeros(n, dtype=np.complex128)
        x[free] = 1.0
        for row in range(rank - 1, -1, -1):
            x[row] = -np.dot(A[row, row + 1 :], x[row + 1 :]) / A[row, row]
        v = np.zeros(n, dtype=np.complex128)
        for pos, orig in enumerate(col_perm):
            v[orig] = x[pos]
        basis.append(v)
    return basis


def _kron_rank(op: np.ndarray, tol: Tolerance) -> int:
    s = np.linalg.svd(op, compute_uv=False)
    return int(np.sum(s > max(tol.abs, tol.rel * s[0])))


def _kron_ad(M: np.ndarray) -> np.ndarray:
    # Z -> Z M - M Z on row-major vec: vec(Z M) = (I (x) M^T) vec Z, vec(M Z) = (M (x) I) vec Z.
    eye = np.eye(M.shape[0])
    return np.kron(eye, M.T) - np.kron(M, eye)


def _kron_cap(*mats: np.ndarray) -> None:
    if max(m.shape[0] for m in mats) > MAX_ORACLE_DIM:
        raise ValueError(f"oracle capped at dimension {MAX_ORACLE_DIM}")


def kron_is_regular(M, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Regularity as the n-dimensional kernel of the n^2 x n^2 ad operator."""
    M = np.asarray(M, dtype=np.complex128)
    _kron_cap(M)
    return M.shape[0] ** 2 - _kron_rank(_kron_ad(M), tol) == M.shape[0]


def kron_intersection_trivial(X_i, X_ip1, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Trivial intersection of consecutive centralizers, from the stacked ad operators.

    ``embed(Z, i+1) = P Z P^T`` with the (i+1) x i inclusion P, so on
    row-major vectors the level-(i+1) condition is ``ad(X_{i+1}) (P (x) P)``.
    """
    X_i = np.asarray(X_i, dtype=np.complex128)
    X_ip1 = np.asarray(X_ip1, dtype=np.complex128)
    _kron_cap(X_i, X_ip1)
    i = X_i.shape[0]
    P = np.eye(i + 1, i)
    stack = np.vstack([_kron_ad(X_i), _kron_ad(X_ip1) @ np.kron(P, P)])
    return _kron_rank(stack, tol) == i * i


def kron_sylvester_singular(A, B) -> tuple[float, float]:
    """Smallest and largest singular value of Z -> A Z - Z B from its Kronecker matrix."""
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    _kron_cap(A, B)
    op = np.kron(A, np.eye(B.shape[0])) - np.kron(np.eye(A.shape[0]), B.T)
    s = np.linalg.svd(op, compute_uv=False)
    return float(s[-1]), float(s[0])


def kron_spectra_disjoint(A, B, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Invertibility of the Kronecker Sylvester matrix, with the production threshold rule."""
    smin, smax = kron_sylvester_singular(A, B)
    return smin > max(tol.abs, tol.rel * smax)


def dense_action_product(a: AParams, T: Tower, N: int) -> np.ndarray:
    """Ordered product of all n(n-1)/2 action factors exp(j t_ij X_i^(j-1)) at level N.

    Factors ascend lexicographically in (i, j), zero parameters included;
    every corner power is taken from the input tower.
    """
    g = np.eye(N, dtype=np.complex128)
    for i in range(1, a.n):
        Xi = T.level(i)
        powers = np.eye(i, dtype=np.complex128)
        for j in range(1, i + 1):
            factor = mat_exp(embed(j * a.get(i, j) * powers, N))
            g = g @ factor
            powers = powers @ Xi
    return g
