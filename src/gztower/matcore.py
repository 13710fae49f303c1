"""Dense complex matrix kernels.

Everything downstream works on square ``numpy.ndarray`` matrices with
``complex128`` entries.  This module owns the shared conventions:

* corner extraction / zero-padded embedding between sizes,
* commutator and trace pairing,
* matrix powers and exponentials, alone or stacked,
* numerical rank, null spaces and Krylov bases of matrix powers,
* the Sylvester-operator spectrum test, through complex Schur forms,

and the single tolerance rule used by all of them: a quantity of scale
``s`` counts as zero when it is below ``max(tol.abs, tol.rel * s)``.
The strong-regularity and generation paths never form a Kronecker
operator; ``ad_operator`` remains for the centralizer of a non-regular
matrix, and the other Kronecker forms live in :mod:`gztower.oracles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dznrm2
from scipy.linalg.lapack import dsterf, zgees, ztrsyl

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
    "mat_exp_stack",
    "stack_flat",
    "spectrum_split",
    "rank_split",
    "kernel_basis",
    "krylov_basis",
    "ad_operator",
    "null_space",
    "spectra_disjoint",
    "sylvester_min_singular",
]

# Supported working range; larger matrices are out of scope for this toolkit.
MAX_DIM = 256

_EPS = float(np.finfo(np.float64).eps)
_SQRT_HALF = math.sqrt(0.5)


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
    out, errors = mat_exp_stack(np.asarray(M, dtype=np.complex128)[None])
    if errors[0] is not None:
        raise errors[0]
    return out[0]


def mat_exp_stack(M: np.ndarray) -> tuple[np.ndarray, list[Optional[OverflowError]]]:
    """Matrix exponential of every matrix of an (s, n, n) stack, in one call.

    scipy exponentiates the slices one at a time, so each slice is
    bit-identical to :func:`mat_exp` of that slice alone.  Returns the
    stack and, per slice, None or the OverflowError :func:`mat_exp` raises
    for it; an overflowed slice is not finite.
    """
    # The result is checked below, so scipy's own overflow warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(scipy.linalg.expm(np.asarray(M, dtype=np.complex128)), dtype=np.complex128)
    finite = np.isfinite(out).all(axis=(1, 2))
    errors = [
        None if ok else OverflowError("matrix exponential overflowed the representable range")
        for ok in finite
    ]
    return out, errors


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


def _fro(Y: np.ndarray) -> float:
    """Frobenius norm, scaled by BLAS so that it neither overflows nor underflows."""
    return float(dznrm2(Y.reshape(-1)))


def _reorthogonalize(y: np.ndarray, basis: np.ndarray) -> float:
    """Remove from y, in place, its components along the orthonormal rows of basis.

    Classical Gram-Schmidt, with a second pass only when the first removes
    more than ``1 - 1/sqrt(2)`` of the norm (the Daniel-Gragg-Kaufman-Stewart
    criterion: the one case where a single pass can leave y far from
    orthogonal).  Returns the norm of what is left.
    """
    norm = _fro(y)
    if basis.shape[0] == 0:
        return norm
    for _ in range(2):
        y -= (y.conj() @ basis.T).conj() @ basis
        previous, norm = norm, _fro(y)
        if not norm < _SQRT_HALF * previous:
            break
    return norm


def krylov_basis(M: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Frobenius-orthonormal Arnoldi basis of ``span{I, M, ..., M^(n-1)}``.

    Runs Arnoldi for ``Z -> (M - mu I) Z`` from ``I / sqrt(n)``, with
    ``mu = tr(M) / n``: the shift leaves the span unchanged and keeps
    rounding relative to the spread ``||M - mu I||_F``.  Each new direction
    is orthogonalized against the basis so far, and the process stops
    at the first one whose norm is at or below ``tol.threshold(spread)``:
    the span is then invariant.  O(n^4) in all.

    Returns ``(Q, s)``.  ``Q`` is a ``(k, n, n)`` stack of orthonormal
    matrices spanning ``span{I, ..., M^(k-1)}``; ``s`` holds the spread and
    the norms of the new directions in descending order, so that
    :func:`spectrum_split` of ``s`` counts ``k`` for any M that is not
    numerically scalar.  M is regular (its centralizer is this span) exactly
    when ``k = n``.
    """
    n = M.shape[0]
    shifted = M - (np.trace(M) / n) * np.eye(n, dtype=np.complex128)
    spread = float(np.linalg.norm(shifted))
    thr = tol.threshold(spread)
    Q = np.empty((n, n * n), dtype=np.complex128)
    Q[0] = np.eye(n, dtype=np.complex128).reshape(-1) / math.sqrt(n)
    norms = [spread]
    k = 1
    while k < n:
        w = (shifted @ Q[k - 1].reshape(n, n)).reshape(-1)
        h = _reorthogonalize(w, Q[:k])
        norms.append(h)
        if not h > thr:
            break
        Q[k] = w / h
        k += 1
    return Q[:k].reshape(k, n, n), np.sort(norms)[::-1]


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


def _bidiagonal_top(a: np.ndarray, b: np.ndarray, scale: float) -> float:
    """Largest singular value of the upper bidiagonal matrix with diagonal a, superdiagonal b.

    The square root of the top eigenvalue of the tridiagonal ``B^T B``
    (LAPACK ``dsterf``, no vectors), formed from the entries divided by
    ``scale``, an upper bound on them, so that no square overflows.
    """
    if not b.size:
        return float(a[0])
    a, b = a / scale, b / scale
    diagonal = a * a
    diagonal[1:] += b * b
    w, info = dsterf(diagonal, a[:-1] * b, overwrite_d=1, overwrite_e=1)
    if info:
        bidiagonal = np.diag(a) + np.diag(b, 1)
        return scale * float(np.linalg.svd(bidiagonal, compute_uv=False)[0])
    return scale * math.sqrt(max(float(w[-1]), 0.0))


def _top_singular(
    apply: Callable[[np.ndarray], tuple[np.ndarray, float]],
    adjoint: Callable[[np.ndarray], tuple[np.ndarray, float]],
    start: np.ndarray,
    rtol: float,
    max_steps: int,
) -> float:
    """Largest singular value of a linear map, by Golub-Kahan-Lanczos bidiagonalization.

    ``apply`` and ``adjoint`` return ``(Y, scale)`` with the true image
    ``Y / scale``, the convention of LAPACK ``trsyl``.  Both bases are
    reorthogonalized in full, so the largest singular value of the
    bidiagonal is a lower bound that never decreases; the run stops once a
    step moves it by at most ``rtol``, once the Krylov space is exhausted,
    or after ``max_steps``.  A ``scale < 1`` (the solver shrank the
    right-hand side to avoid overflow) or a non-finite image gives ``inf``.
    """
    shape, dim = start.shape, start.size
    steps = min(max_steps, dim)
    U = np.zeros((steps, dim), dtype=np.complex128)
    V = np.zeros((steps + 1, dim), dtype=np.complex128)
    V[0] = start.reshape(-1) / _fro(start)
    # The bidiagonal: alphas on the diagonal, betas above it; peak bounds both.
    alphas, betas = np.zeros(steps), np.zeros(steps)
    peak = estimate = 0.0
    for j in range(steps):
        Y, scale = apply(V[j].reshape(shape))
        y = Y.reshape(-1)
        if j:
            y = y - betas[j - 1] * U[j - 1]
        alpha = _reorthogonalize(y, U[:j])
        if scale < 1.0 or not math.isfinite(alpha):
            return math.inf
        # A new direction at rounding level of its image means the Krylov
        # space is exhausted: it is dropped, and the run ends.
        exhausted = not alpha > _EPS * _fro(Y)
        if not exhausted:
            alphas[j] = alpha
            np.divide(y, alpha, out=U[j])
            Z, scale = adjoint(U[j].reshape(shape))
            z = Z.reshape(-1) - alpha * V[j]
            beta = _reorthogonalize(z, V[: j + 1])
            if scale < 1.0 or not math.isfinite(beta):
                return math.inf
            exhausted = not beta > _EPS * _fro(Z)
            peak = max(peak, alpha)
        if not peak > 0.0:
            return 0.0
        top = _bidiagonal_top(alphas[: j + 1], betas[:j], peak)
        if exhausted or top - estimate <= rtol * top:
            return top
        estimate = top
        np.divide(z, beta, out=V[j + 1])
        betas[j] = beta
        peak = max(peak, beta)
    return estimate


def _no_reordering(eigenvalue: complex) -> int:
    return 0


def _shifted_schur(A: np.ndarray, B: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Complex Schur forms of ``A - mu I`` and ``B - mu I``, Fortran-ordered for ``trsyl``.

    One common ``mu = (tr A + tr B) / (na + nb)`` leaves ``Z -> A Z - Z B``
    unchanged, and keeps ``trsyl``'s perturbation of zero divisors relative
    to the spread of the two spectra, not to their magnitude.  None for
    non-finite input.
    """
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        return None
    mu = (np.trace(A) + np.trace(B)) / (A.shape[0] + B.shape[0])
    forms = []
    for M in (A, B):
        # LAPACK gees without Schur vectors: only the triangle is needed.
        T, _, _, _, _, info = zgees(_no_reordering, M - mu * np.eye(M.shape[0]), compute_v=0)
        if info:
            raise np.linalg.LinAlgError("Schur factorization did not converge")
        forms.append(T)
    return forms[0], forms[1]


def _sylvester_start(na: int, nb: int) -> np.ndarray:
    # Unit-modulus entries with golden-ratio phases: deterministic, and with
    # no structure a Schur basis could be orthogonal to.
    phases = 2j * np.pi * 0.6180339887498949 * np.arange(na * nb).reshape(na, nb)
    return np.exp(phases) / math.sqrt(na * nb)


def _sylvester_smin(R: np.ndarray, S: np.ndarray) -> float:
    """Smallest singular value of ``W -> R W - W S``, through its inverse."""
    inverse_norm = _top_singular(
        lambda W: ztrsyl(R, S, W, isgn=-1)[:2],
        lambda W: ztrsyl(R, S, W, trana="C", tranb="C", isgn=-1)[:2],
        _sylvester_start(R.shape[0], S.shape[0]),
        1e-13,
        64,
    )
    return 1.0 / inverse_norm if inverse_norm > 0.0 else math.nan


def _sylvester_smax(R: np.ndarray, S: np.ndarray) -> float:
    """Largest singular value of ``W -> R W - W S``, from below; stops at a 1e-4 relative step."""
    Rh, Sh = R.conj().T, S.conj().T
    return _top_singular(
        lambda W: (R @ W - W @ S, 1.0),
        lambda W: (Rh @ W - W @ Sh, 1.0),
        _sylvester_start(R.shape[0], S.shape[0]),
        1e-4,
        64,
    )


def sylvester_min_singular(A: np.ndarray, B: np.ndarray) -> tuple[float, float]:
    """Smallest and largest singular value of ``Z -> A Z - Z B``.

    Both matrices are first shifted by one common ``mu = (tr A + tr B) /
    (na + nb)``, which leaves the operator unchanged.  With complex Schur
    forms ``A - mu I = U R U^H`` and ``B - mu I = V S V^H`` the operator
    becomes ``W -> R W - W S`` on ``W = U^H Z V``, an isometry, so the
    singular values are those of the triangular operator.  The smallest is
    the reciprocal of the largest singular value of its inverse, found by
    Lanczos bidiagonalization whose every step is two triangular Sylvester
    solves (LAPACK ``trsyl``, the back substitution of Bartels-Stewart),
    O(na nb (na + nb)) each.  The largest comes from the same iteration on
    the forward operator, stopped once a step moves it by less than 1e-4
    relative: it only scales a threshold.

    A singular operator needs no special case: ``trsyl`` reports it with
    ``info = 1`` and solves with zero divisors perturbed to ``eps`` times
    the largest entry of the shifted Schur forms, so the smallest value
    comes out at rounding level of the spread of the two spectra rather
    than of their magnitude (unshifted, ``1e4 I`` against itself would read
    about 2e-12), or exactly 0 when the solve had to rescale to avoid
    overflow.  Non-finite input gives ``(nan, nan)``.
    """
    forms = _shifted_schur(A, B)
    if forms is None:
        return math.nan, math.nan
    return _sylvester_smin(*forms), _sylvester_smax(*forms)


def spectra_disjoint(A: np.ndarray, B: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the spectra of A and B are (numerically) disjoint.

    Tests invertibility of the Sylvester operator ``Z -> A Z - Z B``, which
    is singular exactly when the two spectra intersect: its smallest
    singular value must clear ``max(tol.abs, tol.rel * s_max)``, with both
    values as in :func:`sylvester_min_singular`.  The Schur forms carry the
    eigenvalues on their diagonals, but no eigenvalue is compared with
    another; a shared eigenvalue shows as a near-zero singular value.
    The sum of the Frobenius norms of the two shifted Schur triangles bounds
    ``s_max`` from above, so a smallest value that clears the threshold of
    that bound decides without the forward iteration.
    Non-finite input is never disjoint.
    """
    forms = _shifted_schur(A, B)
    if forms is None:
        return False
    smin = _sylvester_smin(*forms)
    if smin > tol.threshold(_fro(forms[0]) + _fro(forms[1])):
        return True
    return smin > tol.threshold(_sylvester_smax(*forms))
