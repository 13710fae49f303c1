"""Dense complex matrix kernels.

Everything downstream works on square ``numpy.ndarray`` matrices with
``complex128`` entries.  This module owns the shared conventions:

* corner extraction / zero-padded embedding between sizes,
* commutator and trace pairing,
* matrix powers and exponentials,
* numerical rank, null spaces and Sylvester-operator spectrum tests,

and the single tolerance rule used by all of them: a quantity of scale
``s`` counts as zero when it is below ``max(tol.abs, tol.rel * s)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

__all__ = [
    "MAX_DIM",
    "Tolerance",
    "DEFAULT_TOL",
    "as_cmatrix",
    "corner",
    "embed",
    "embed_group",
    "commutator",
    "trace_pair",
    "bracket_matrix",
    "mat_pow",
    "mat_exp",
    "stack_flat",
    "rank_eps",
    "spectrum_split",
    "rank_split",
    "kernel_basis",
    "ad_operator",
    "null_space",
    "spectra_disjoint",
    "sylvester_min_singular",
]

# Supported working range; larger matrices are out of scope for this toolkit.
MAX_DIM = 256


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute threshold pair.

    The effective cut for a computation whose magnitude scale is ``s``
    is ``max(abs, rel * s)``.
    """

    rel: float = 1e-9
    abs: float = 1e-12

    def __post_init__(self) -> None:
        if self.rel < 0 or self.abs < 0:
            raise ValueError("tolerances must be nonnegative")

    def threshold(self, scale: float) -> float:
        return max(self.abs, self.rel * float(scale))


DEFAULT_TOL = Tolerance()


def as_cmatrix(entries) -> np.ndarray:
    """Validate and normalize input into a square complex128 matrix.

    Rejects non-square input, empty matrices, matrices larger than
    ``MAX_DIM`` and any non-finite entry.
    """
    a = np.array(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if a.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {a.shape[0]} exceeds supported maximum {MAX_DIM}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _require_same_dim(A: np.ndarray, B: np.ndarray) -> None:
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")


def corner(M: np.ndarray, i: int) -> np.ndarray:
    """Top-left ``i x i`` block of ``M``."""
    n = M.shape[0]
    if not 1 <= i <= n:
        raise IndexError(f"corner size {i} out of range for dimension {n}")
    return M[:i, :i].copy()


def embed(M: np.ndarray, n: int) -> np.ndarray:
    """Zero-padded embedding of ``M`` into the top-left block of an n x n matrix."""
    m = M.shape[0]
    if n < m:
        raise IndexError(f"cannot embed dimension {m} into smaller dimension {n}")
    out = np.zeros((n, n), dtype=np.complex128)
    out[:m, :m] = M
    return out


def embed_group(M: np.ndarray, n: int) -> np.ndarray:
    """Block-diagonal embedding ``diag(M, Id)``: the group-style inclusion."""
    m = M.shape[0]
    if n < m:
        raise IndexError(f"cannot embed dimension {m} into smaller dimension {n}")
    out = np.eye(n, dtype=np.complex128)
    out[:m, :m] = M
    return out


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B - B @ A``."""
    _require_same_dim(A, B)
    return A @ B - B @ A


def trace_pair(A: np.ndarray, B: np.ndarray) -> complex:
    """Trace form ``tr(A B)``: symmetric and nondegenerate."""
    _require_same_dim(A, B)
    # tr(AB) without forming the product: sum over A[k, l] * B[l, k].
    return complex(np.sum(A * B.T))


def bracket_matrix(X: np.ndarray, gens: Sequence[np.ndarray]) -> np.ndarray:
    """Matrix of ``tr(X [G_a, G_b])`` over a family of generators, in one GEMM.

    Each ``G_a`` is a square matrix no larger than ``X``, zero-padded into
    its top-left corner.  Because ``tr(X [A, B]) = tr([X, A] B)``, entry
    (a, b) is the dot product of ``vec([X, G_a])`` with ``vec(G_b^T)``;
    stacking both sides turns every pair into a single matrix product.
    """
    n = X.shape[0]
    m = len(gens)
    left = np.zeros((m, n, n), dtype=np.complex128)
    right = np.zeros((m, n, n), dtype=np.complex128)
    for a, G in enumerate(gens):
        k = G.shape[0]
        if k > n:
            raise IndexError(f"cannot embed dimension {k} into smaller dimension {n}")
        # With E = embed(G, n): X E fills columns :k and E X fills rows :k.
        left[a, :, :k] = X[:, :k] @ G
        left[a, :k, :] -= G @ X[:k, :]
        right[a, :k, :k] = G.T
    return left.reshape(m, n * n) @ right.reshape(m, n * n).T


def mat_pow(M: np.ndarray, k: int) -> np.ndarray:
    """``M ** k`` by repeated squaring; ``M ** 0`` is the identity."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    n = M.shape[0]
    result = np.eye(n, dtype=np.complex128)
    base = M.astype(np.complex128, copy=True)
    e = k
    while e:
        if e & 1:
            result = result @ base
        e >>= 1
        if e:
            base = base @ base
    return result


def mat_exp(M: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade via scipy).

    Raises OverflowError when the result leaves the representable range.
    """
    out = scipy.linalg.expm(np.asarray(M, dtype=np.complex128))
    if not np.all(np.isfinite(out)):
        raise OverflowError("matrix exponential overflowed the representable range")
    return np.asarray(out, dtype=np.complex128)


def stack_flat(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Stack matrices as rows of flattened vectors."""
    if len(mats) == 0:
        raise ValueError("empty family")
    first = np.asarray(mats[0])
    rows = []
    for m in mats:
        a = np.asarray(m, dtype=np.complex128)
        if a.shape != first.shape:
            raise ValueError("all family members must share one shape")
        rows.append(a.reshape(-1))
    return np.array(rows)


def rank_eps(mats: Sequence[np.ndarray], tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank of a family of matrices viewed as flat vectors.

    Counts singular values above ``max(tol.abs, tol.rel * s_max)``.
    """
    rank, _, _ = rank_split(mats, tol)
    return rank


def spectrum_split(s: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[int, float, float]:
    """Numerical rank of a descending singular-value array, with its diagnostics.

    Returns ``(rank, decisive_sv, margin)``: ``rank`` counts the values
    above ``max(tol.abs, tol.rel * s[0])``, ``decisive_sv`` is the smallest
    value kept (or the largest dropped when the rank is zero) and
    ``margin >= 1`` is the factor by which the values clear the threshold
    on both sides of the cut.  A margin close to 1 means the rank decision
    is near-threshold and should not be trusted.  :func:`rank_split`,
    :func:`kernel_basis` and the strong-regularity criteria all decide rank
    through this rule.
    """
    thr = tol.threshold(s[0] if s.size else 0.0)
    rank = int(np.sum(s > thr))
    above = s[rank - 1] / thr if rank > 0 and thr > 0 else np.inf
    below = thr / s[rank] if rank < s.size and s[rank] > 0 else np.inf
    decisive = float(s[rank - 1]) if rank > 0 else (float(s[0]) if s.size else 0.0)
    return rank, decisive, float(min(above, below))


def rank_split(
    mats: Sequence[np.ndarray], tol: Tolerance = DEFAULT_TOL
) -> tuple[int, float, float]:
    """Numerical rank of a family of matrices viewed as flat vectors.

    Returns the :func:`spectrum_split` of the stacked family.
    """
    s = np.linalg.svd(stack_flat(mats), compute_uv=False)
    return spectrum_split(s, tol)


def kernel_basis(A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the numerical kernel of a (possibly rectangular) matrix.

    Kernel vectors ``x`` satisfy ``A @ x ~ 0``; the rank follows
    :func:`spectrum_split`.
    """
    A = np.asarray(A, dtype=np.complex128)
    # A thin SVD still yields every right singular vector when rows >= columns;
    # only wide matrices need the full factorization to reach their kernel.
    _, s, vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    rank, _, _ = spectrum_split(s, tol)
    return [vh[k].conj() for k in range(rank, vh.shape[0])]


def ad_operator(M: np.ndarray) -> np.ndarray:
    """Matrix of ``Z -> [Z, M]`` acting on row-major flattened matrices."""
    n = M.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    # vec(Z M) = (I (x) M^T) vec(Z),  vec(M Z) = (M (x) I) vec(Z)  (row-major vec).
    return np.kron(eye, M.T) - np.kron(M, eye)


def null_space(A: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the kernel of an explicit linear map on gl(n).

    ``A`` is an ``n^2 x n^2`` matrix acting on row-major flattened
    matrices, such as ``ad_operator(M)``, whose kernel is the centralizer
    of ``M``.  Returns kernel members reshaped to n x n.
    """
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("explicit operator must be a square 2D array")
    n2 = A.shape[0]
    n = int(round(np.sqrt(n2)))
    if n * n != n2:
        raise ValueError("explicit operator size must be a perfect square")
    return [v.reshape(n, n) for v in kernel_basis(A, tol)]


def _sylvester_operator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    na, nb = A.shape[0], B.shape[0]
    # T(Z) = A Z - Z B on na x nb matrices, row-major flattening.
    return np.kron(A, np.eye(nb, dtype=np.complex128)) - np.kron(
        np.eye(na, dtype=np.complex128), B.T
    )


def sylvester_min_singular(A: np.ndarray, B: np.ndarray) -> tuple[float, float]:
    """Smallest and largest singular value of ``Z -> A Z - Z B``."""
    s = np.linalg.svd(_sylvester_operator(A, B), compute_uv=False)
    return float(s[-1]), float(s[0])


def spectra_disjoint(A: np.ndarray, B: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the spectra of A and B are (numerically) disjoint.

    Tests invertibility of the Sylvester operator ``Z -> A Z - Z B``,
    which is singular exactly when the two spectra intersect.  Pure
    linear algebra: no eigenvalue computation is involved.
    """
    smin, smax = sylvester_min_singular(A, B)
    return smin > tol.threshold(smax)
